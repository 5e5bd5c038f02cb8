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
vectors on each call.  That per-key path serves junctions, admissibility
and the public API, and checks the batch from outside it.  Measured,
keep (2-vCPU host, `--seconds 5`, 4-6 alternated pairs): serving every
global vector from a memoized count table took `corpus-classify` from
141 to 120 ops/s.

`anchor_arrays`, the one per-anchor store, holds every anchor's local
vectors and support as arrays for the pair scans.  It is built without
a per-key call: per direction j, one summed-area table counts the unset
points of mask j on every slice x_j = n (`_count_table`), and
`_line_windows` reads from it the global vector of every distinct
anchor line and each anchor's window.  So it writes no `gkv` entries.
Measured, keep: building it from the per-line memo took `corpus-classify`
from 141 to 130 ops/s.

Memory: the count table of direction j holds (N_j + 1) x
prod_{k != j} (2 N_k + 2) int32 entries, within the bound the
`suitability` docstring gives for the count arrays of `_slice_rasters`,
and lives only while j is read.  The lines x (N_j + 1) blocks read from
it are cut into chunks of at most `MAX_LINE_ENTRIES` = 2^23 entries,
the longest line the lattice admits (N_j + 1 <= 2^23), so a chunk holds
at least one line.  Reading a chunk takes at most about 9 bytes per
entry (72 MiB at the limit), besides a few int64 per anchor of the chunk.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

import numpy as np

from .mesh import (Entity, MeshError, TMesh, check_index_box, hull_inside,
                   skeleton_mask)
from .regions import Box

MAX_LINE_ENTRIES = 1 << 23   # lines x slices one `_line_windows` chunk reads


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
    """Window of `length` consecutive entries with `value` at `offset`;
    `vector` is strictly increasing, so `value` is found by bisection."""
    idx = bisect_left(vector, value)
    if idx == len(vector) or vector[idx] != value:
        raise InsufficientKnots(
            f"{value} missing from knot vector of {entity!r}")
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


def _count_table(mesh: TMesh, j: int) -> np.ndarray:
    """Unset points of mask j on the slices x_j = n, summed over the
    other axes: the summed-area table (Crow, SIGGRAPH 1984) of the mask's
    complement at the even indices of axis j.

    Axis j moves last and every other axis k gets a leading zero, so the
    int32 table has shape (2 N_k + 2 for k != j) + (N_j + 1,), and
    entry [c, n] counts the unset points g of slice n with g_k < c_k on
    every other axis k."""
    d = mesh.dim
    even = skeleton_mask(mesh, j)[(slice(None),) * j + (slice(None, None, 2),)]
    even = np.moveaxis(even, j, -1)
    table = np.zeros(tuple(s + 1 for s in even.shape[:-1]) + even.shape[-1:],
                     dtype=np.int32)
    table[(slice(1, None),) * (d - 1)] = ~even
    for k in range(d - 1):
        np.add.accumulate(table, axis=k, out=table)
    return table


def _box_corners(start: np.ndarray, stop: np.ndarray, strides: np.ndarray,
                 axes: Sequence[int]) -> tuple:
    """Flat offsets, by raster `strides`, of each box's corners on `axes`
    (start[b, k] or stop[b, k] on axis k, start[b, k] off `axes`), as
    (even, odd) by the parity of the stops among a corner's indices."""
    even, odd = [start @ strides], []
    for k in axes:
        step = (stop[:, k] - start[:, k]) * strides[k]
        even, odd = (even + [c + step for c in odd],
                     odd + [c + step for c in even])
    return even, odd


def _line_windows(mesh: TMesh, boxes: np.ndarray, j: int) -> tuple:
    """Every anchor's local knot vector in direction j, read from one
    count table, as (local, fits).

    `boxes` is the (anchors, d, 2) array of `anchor_set`.  The anchors
    that share their components off j share a line, so a global vector;
    one `np.unique` over the packed corners of their boxes in the table
    finds the lines.  Slice n is in a line's vector exactly when the
    box's count of unset points on n, summed from its 2^(d-1) corners,
    is 0.  The lines are read `MAX_LINE_ENTRIES` table entries at a time,
    and each anchor's window is bisected from the flat positions of its
    chunk's vector entries.  `fits[i]` is False exactly where
    `local_knot_vector` raises for anchor i, and row i of `local` is
    then meaningless."""
    p, width = mesh.domain.degrees[j], mesh.domain.extents[j] + 1
    table = _count_table(mesh, j)
    rows = table.reshape(-1, width)
    other = [k for k in range(mesh.dim) if k != j]
    strides = (np.array(table.strides[:-1], dtype=np.int64)
               // (table.itemsize * width))
    start, stop = 2 * boxes[:, other, 0], 2 * boxes[:, other, 1] + 1
    lines, first, inverse = np.unique(
        (start @ strides) * len(rows) + stop @ strides,
        return_index=True, return_inverse=True)
    # inclusion-exclusion: plus at the corners with an even number of
    # starts, so the stops go in as `_box_corners`' starts
    plus, minus = _box_corners(stop[first], start[first], strides,
                               range(len(other)))

    offset, length = (p + 1) // 2, p + 2
    local = np.zeros((len(boxes), length), dtype=np.int64)
    fits = np.zeros(len(boxes), dtype=bool)
    order = np.argsort(inverse, kind="stable")
    per = max(1, MAX_LINE_ENTRIES // width)
    for s in range(0, len(lines), per):
        chunk = slice(s, s + per)
        misses = rows[plus[0][chunk]]
        for c in plus[1:]:
            misses += rows[c[chunk]]
        for c in minus:
            misses -= rows[c[chunk]]
        inside = misses == 0
        del misses
        counts = np.count_nonzero(inside, axis=1)
        ends = np.cumsum(counts)
        # the entries n of the chunk's vectors, as (line - s) * width + n
        flat = np.flatnonzero(inside)
        sel = order[np.searchsorted(inverse, s, sorter=order):
                    np.searchsorted(inverse, s + per, sorter=order)]
        line = inverse[sel] - s
        begin = np.searchsorted(flat, line * width + boxes[sel, j, 0]) - offset
        ok = np.flatnonzero((begin >= ends[line] - counts[line])
                            & (begin + length <= ends[line]))
        sel, window = sel[ok], flat[begin[ok, None] + np.arange(length)]
        window -= (line[ok] * width)[:, None]
        local[sel] = window
        # the anchor's component sits in the middle of its window
        fits[sel] = window[:, offset] == boxes[sel, j, 0]
        if p % 2 == 0:
            fits[sel] &= window[:, offset + 1] == boxes[sel, j, 1]
    return local, fits


def anchor_arrays(mesh: TMesh) -> AnchorArrays:
    """The anchors' local vectors and supports as arrays, built once per
    mesh by `_line_windows`, one count table per direction.

    A window that does not fit raises the `InsufficientKnots` of
    `local_knot_vector` for the first failing anchor, in `anchor_set`
    order, and its first failing direction."""
    def build():
        anchors = anchor_set(mesh)
        d = mesh.dim
        boxes = np.array(anchors, dtype=np.int64).reshape(len(anchors), d, 2)
        local, fits = zip(*(_line_windows(mesh, boxes, j) for j in range(d)))
        bad = ~np.logical_and.reduce(fits)
        if bad.any():
            index_support(mesh, anchors[int(bad.argmax())])   # raises
            raise AssertionError("a window the batch refused fits")
        support = np.stack([np.stack([v[:, 0], v[:, -1]], axis=1)
                            for v in local], axis=1)
        return AnchorArrays(local=local, support=support)
    return mesh.memo("anchor_arrays", build)
