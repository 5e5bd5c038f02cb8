"""Anchors and knot index vectors.

Anchors are the mesh entities that carry spline functions: the entities
whose singleton directions are exactly the odd-degree directions and
that lie inside the active region.  Global knot vectors are obtained by
ray tracing an entity through the mesh: index n enters the vector in
direction j when the projection onto the slice x_j = n lies in the
j-orthogonal skeleton.  Local vectors are centered windows of the global
ones.  The anchor set, the global vectors (once per line) and
`anchor_arrays` are memoized per mesh, and a bad box or direction raises
on every call; local vectors and supports are read off the global
vectors on each call.  `anchor_arrays`, the one per-anchor store, stacks
every anchor's local vectors and support into arrays for the pair scans.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .mesh import (Entity, MeshError, TMesh, check_index_box, hull_inside,
                   skeleton_mask)
from .regions import Box


class InsufficientKnots(MeshError):
    """A knot-vector window does not fit; the mesh is not admissible."""


def odd_degree_dirs(mesh: TMesh) -> tuple[int, ...]:
    return tuple(k for k, p in enumerate(mesh.domain.degrees) if p % 2 == 1)


def anchor_set(mesh: TMesh) -> tuple:
    """All anchors, sorted: odd-degree-orthogonal entities in the active region."""
    def build():
        active = mesh.domain.active_spans()
        return tuple(sorted(e for e in mesh.entities[odd_degree_dirs(mesh)]
                            if hull_inside(e, active)))
    return mesh.memo("anchors", build)


def global_knot_vector(mesh: TMesh, entity: Entity, j: int) -> tuple[int, ...]:
    """Strictly increasing indices n with P_{j,n}(entity) inside the skeleton.

    `entity` may be any closed integer box of the domain and `j` any
    direction 0..d-1; anything else raises `ValueError` on every call.
    Memoized per line: the box with its j-component widened to (0, N_j)."""
    check_index_box(mesh, entity)
    mask = skeleton_mask(mesh, j)
    line = entity[:j] + ((0, mesh.domain.extents[j]),) + entity[j + 1:]

    def build():
        sel = tuple(slice(2 * a, 2 * b + 1) for a, b in line)
        axes = tuple(k for k in range(mesh.dim) if k != j)
        ok = mask[sel].all(axis=axes) if axes else mask[sel]
        return tuple(np.flatnonzero(ok[::2]).tolist())
    # `mesh.subdiv` reads this key to carry the vector to a child
    return mesh.memo(("gkv", line, j), build)


def _window(vector: Sequence[int], value: int, offset: int, length: int,
            entity: Entity, truncate: bool = False) -> tuple[int, ...]:
    """Window of `length` consecutive entries with `value` at `offset`."""
    try:
        idx = vector.index(value)
    except ValueError:
        raise InsufficientKnots(
            f"{value} missing from knot vector of {entity!r}") from None
    start, end = idx - offset, idx - offset + length
    if truncate:
        start, end = max(start, 0), min(end, len(vector))
    elif start < 0 or end > len(vector):
        raise InsufficientKnots(
            f"knot window of length {length} does not fit around {value} "
            f"for {entity!r}")
    return tuple(vector[start:end])


def local_knot_vector(mesh: TMesh, anchor: Entity, j: int) -> tuple[int, ...]:
    """The p_j + 2 consecutive global entries centered on the anchor.

    Odd degree: the anchor's singleton component is the middle entry.
    Even degree: the component's endpoints are the two middle entries.
    """
    gkv = global_knot_vector(mesh, anchor, j)
    p = mesh.domain.degrees[j]
    a, b = anchor[j]
    w = _window(gkv, a, (p + 1) // 2, p + 2, anchor)
    if p % 2 == 0 and w[p // 2 + 1] != b:
        raise InsufficientKnots(
            f"anchor {anchor!r}: component endpoints not adjacent in "
            f"direction {j}")
    return w


def index_support(mesh: TMesh, anchor: Entity) -> Box:
    """Closed box spanned by the local knot vectors in every direction."""
    return tuple((w[0], w[-1]) for w in (local_knot_vector(mesh, anchor, j)
                                         for j in range(mesh.dim)))


class AnchorArrays(NamedTuple):
    """Per-anchor knot data stacked in `anchor_set` order.

    `local[j]` is the (n_anchors, p_j + 2) int64 array of local knot
    vectors in direction j; `support` the (n_anchors, d, 2) int64 array
    of index supports.  A local vector is a run of the global one, so
    inside the support they hold the same indices.
    """
    local: tuple
    support: np.ndarray


def anchor_arrays(mesh: TMesh) -> AnchorArrays:
    """The anchors' local vectors and supports as arrays, built once per
    mesh from `local_knot_vector`."""
    def build():
        anchors = anchor_set(mesh)
        n, d = len(anchors), mesh.dim
        vectors = [[local_knot_vector(mesh, a, j) for j in range(d)]
                   for a in anchors]
        local = tuple(
            np.array([v[j] for v in vectors], dtype=np.int64)
            .reshape(n, mesh.domain.degrees[j] + 2) for j in range(d))
        support = np.stack([np.stack([v[:, 0], v[:, -1]], axis=1)
                            for v in local], axis=1)
        return AnchorArrays(local=local, support=support)
    return mesh.memo("anchor_arrays", build)
