"""Anchors and knot index vectors.

Anchors are the mesh entities that carry spline functions: the entities
whose singleton directions are exactly the odd-degree directions and
that lie inside the active region.  Global knot vectors are obtained by
ray tracing an entity through the mesh: index n enters the vector in
direction j when the projection onto the slice x_j = n lies in the
j-orthogonal skeleton.  Local vectors are centered windows of the global
ones.  Everything is memoized per mesh; `anchor_arrays` stacks the
per-anchor tuples into arrays for the classifiers' pair scans.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .mesh import Entity, MeshError, TMesh, hull_inside, skeleton_mask
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
    """Strictly increasing indices n with P_{j,n}(entity) inside the skeleton."""
    def build():
        mask = skeleton_mask(mesh, j)
        sel = tuple(slice(None) if k == j else slice(2 * a, 2 * b + 1)
                    for k, (a, b) in enumerate(entity))
        axes = tuple(k for k in range(mesh.dim) if k != j)
        ok = mask[sel].all(axis=axes) if axes else mask[sel]
        return tuple(np.flatnonzero(ok[::2]).tolist())
    return mesh.memo(("gkv", entity, j), build)


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
    def build():
        p = mesh.domain.degrees[j]
        gkv = global_knot_vector(mesh, anchor, j)
        a, b = anchor[j]
        w = _window(gkv, a, (p + 1) // 2, p + 2, anchor)
        if p % 2 == 0 and w[p // 2 + 1] != b:
            raise InsufficientKnots(
                f"anchor {anchor!r}: component endpoints not adjacent in "
                f"direction {j}")
        return w
    return mesh.memo(("lkv", anchor, j), build)


def index_support(mesh: TMesh, anchor: Entity) -> Box:
    """Closed box spanned by the local knot vectors in every direction."""
    def build():
        spans = []
        for j in range(mesh.dim):
            w = local_knot_vector(mesh, anchor, j)
            spans.append((w[0], w[-1]))
        return tuple(spans)
    return mesh.memo(("supp", anchor), build)


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
    """The anchors' local vectors and supports as arrays, built from the
    memoized tuples."""
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
