"""Anchors and knot index vectors.

Anchors are the mesh entities that carry spline functions: the entities
whose singleton directions are exactly the odd-degree directions and
that lie inside the active region.  Global knot vectors are obtained by
ray tracing an entity through the mesh: index n enters the vector in
direction j when the projection onto the slice x_j = n lies in the
j-orthogonal skeleton.  Local vectors are centered windows of the global
ones.  The anchor set and `anchor_arrays` are memoized per mesh; a
global vector is read from its skeleton mask on each call, local vectors
and supports off it, and a bad box or direction raises on every call.
That per-key path serves the complete slices (`complete_slices`, the
vector of the whole domain, which admissibility and `verify` read), the
junctions of a mesh `subdiv` seeded and the public API, and checks the
batches from outside.
Measured, keep (2-vCPU host, `--seconds 5`, 4-6 alternated pairs):
serving every global vector from a memoized count table, instead of the
per-line memo this path then had, took `corpus-classify` from 141 to
120 ops/s.  Dropping that memo and reading only the slices x_j = n took
`conj-stream` from 1638 to 1738 ops/s (9 of 10 pairs, `--seconds 15`),
with `corpus-classify` flat.

`anchor_arrays`, the one per-anchor store, holds every anchor's local
vectors and support as arrays for the pair scans, and per direction
the distinct local vectors with each anchor's id among them, for the
DC pair flags and the collocation tables (`_unique_rows`, the one
distinct-rows helper, which `suitability` uses too).  It is built without
a per-key call: per direction j, one summed-area table counts the unset
points of mask j on every slice x_j = n (`_count_table`), and
`_line_windows` reads from it the global vector of every distinct
anchor line and each anchor's window, summed at the corners
`mesh._box_corners` gives, the corner routine of the box painter.
Measured, keep: building it from per-key global vectors (then memoized
per line) took `corpus-classify` from 141 to 130 ops/s.
`_line_windows` is the one window reader: a row gives its line's box,
the centre value, offset and length, whether the window is cut at the
vector's ends, and the entry that must follow the centre;
`suitability._gtj_boxes` reads every junction's extension window with it
too.

Memory: the count table of direction j holds (N_j + 1) x
prod_{k != j} (2 N_k + 2) int32 entries, at most about one lattice
(half of one for large extents), so at most about `MAX_LATTICE_POINTS`,
and lives only while j is read.  The lines x (N_j + 1) blocks read from
it are cut into chunks of at most `MAX_LINE_ENTRIES` = 2^23 entries,
the longest line the lattice admits (N_j + 1 <= 2^23), so a chunk holds
at least one line.  Reading a chunk takes at most about 9 bytes per
entry (72 MiB at the limit), besides a few int64 per row of the chunk
and window entry.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence

import numpy as np

from .mesh import (Entity, MeshError, TMesh, _box_corners, check_index_box,
                   hull_inside, skeleton_mask)
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
    direction 0..d-1; anything else raises `ValueError`.  Read from mask
    j on each call, on its slices x_j = n alone (the even indices of
    axis j), as `_count_table` reads them."""
    check_index_box(mesh, entity)
    mask = skeleton_mask(mesh, j)
    sel = [slice(2 * a, 2 * b + 1) for a, b in entity]
    sel[j] = slice(None, None, 2)
    ok = mask[tuple(sel)].all(axis=tuple(k for k in range(mesh.dim) if k != j))
    return tuple(ok.nonzero()[0].tolist())


def complete_slices(mesh: TMesh, k: int) -> tuple[int, ...]:
    """Indices whose full slice x_k = n lies in the k-orthogonal skeleton:
    the global knot vector of the whole domain."""
    return global_knot_vector(
        mesh, tuple((0, n) for n in mesh.domain.extents), k)


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
    inside the support they hold the same indices.  `windows[j]` holds
    the distinct rows of `local[j]`, in `_unique_rows` order, and
    `window_id[j]` each anchor's int64 row in it: `windows[j][window_id[j]]`
    is `local[j]`, and two anchors have equal vectors in direction j
    exactly when their ids are equal.
    """
    local: tuple
    support: np.ndarray
    windows: tuple
    window_id: tuple


def _unique_rows(rows: np.ndarray) -> tuple:
    """The distinct rows of a 2-D array, sorted by `np.lexsort` of its
    columns (the last column first), and each row's int64 index among
    them."""
    order = np.lexsort(rows.T)
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return rows[first], ids


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


def _line_windows(mesh: TMesh, boxes: np.ndarray, j: int, centre: np.ndarray,
                  offset, length, truncate=False, follow=-1) -> tuple:
    """Windows of the global knot vectors in direction j, all read from
    one count table, as (window, fits).

    Row i reads the vector of the line of `boxes[i]` (its components off
    j): the run of `length[i]` entries with `centre[i]` at `offset[i]`,
    cut to the vector's ends where `truncate[i]`, as `_window` cuts it.
    `offset`, `length`, `truncate` and `follow` are broadcast over the
    rows.  `window` is int64, (rows, largest length); the columns past a
    row's cut or length repeat its nearest entry, so columns 0 and -1
    are the window's first and last entries.  `fits[i]` is False exactly
    where `_window` raises for row i, or where `follow[i]` is not the
    entry right after the centre, the adjacency check of
    `local_knot_vector` and `suitability.gtj` (a `follow` of -1 checks
    nothing); row i of `window` is then meaningless.

    The rows that share their components off j share a line, so a
    global vector; one `np.unique` over the packed corners of their
    boxes in the table finds the lines.  Slice n is in a line's vector
    exactly when the box's count of unset points on n, summed from its
    2^(d-1) corners, is 0.  The lines are read `MAX_LINE_ENTRIES` table
    entries at a time, and each row's centre is bisected among the flat
    positions of its chunk's vector entries."""
    width = mesh.domain.extents[j] + 1
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
    plus, minus = _box_corners(stop[first], start[first], table.shape[:-1],
                               range(len(other)))

    offset, length, truncate, follow = (np.broadcast_to(v, len(boxes))
                                        for v in (offset, length, truncate,
                                                  follow))
    columns = np.arange(length.max(initial=0))
    window = np.zeros((len(boxes), len(columns)), dtype=np.int64)
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
        # the entries n of the chunk's vectors, as (line - s) * width + n,
        # and a sentinel that is none of them
        flat = np.concatenate((np.flatnonzero(inside), (-1,)))
        sel = order[np.searchsorted(inverse, s, sorter=order):
                    np.searchsorted(inverse, s + per, sorter=order)]
        line = inverse[sel] - s
        base = line * width
        hi = ends[line]   # the line's entries are flat[hi - counts:hi]
        lo = hi - counts[line]
        del line
        at = np.searchsorted(flat[:-1], base + centre[sel])
        begin = at - offset[sel]
        cut = begin + length[sel]
        ok = (flat[at] == base + centre[sel]) & (
            truncate[sel] | ((begin >= lo) & (cut <= hi)))
        # the entry after the centre's is in the next line or the
        # sentinel when it is not in the centre's own
        after = follow[sel]
        ok &= (flat[np.minimum(at + 1, hi)] == base + after) | (after < 0)
        fits[sel] = ok
        del at, ok
        np.minimum(cut, hi, out=cut)
        cut -= 1
        pos = begin[:, None] + columns
        np.maximum(pos, lo[:, None], out=pos)
        np.minimum(pos, cut[:, None], out=pos)
        pos = flat[pos]
        pos -= base[:, None]
        window[sel] = pos
    return window, fits


def anchor_arrays(mesh: TMesh) -> AnchorArrays:
    """The anchors' local vectors and supports as arrays, built once per
    mesh by `_line_windows`, one count table per direction.

    A mesh without anchors raises `MeshError`.  A window that does not
    fit raises the `InsufficientKnots` of `local_knot_vector` for the
    first failing anchor, in `anchor_set` order, and its first failing
    direction."""
    def build():
        anchors = anchor_set(mesh)
        if not anchors:
            raise MeshError("the mesh has no anchors in its active region")
        d = mesh.dim
        boxes = np.array(anchors, dtype=np.int64).reshape(len(anchors), d, 2)
        # the p + 2 entries around the component; for an even degree
        # its endpoints are the two middle ones
        local, fits = zip(*(_line_windows(
            mesh, boxes, j, boxes[:, j, 0], (p + 1) // 2, p + 2,
            follow=boxes[:, j, 1] if p % 2 == 0 else -1)
            for j, p in enumerate(mesh.domain.degrees)))
        bad = ~np.logical_and.reduce(fits)
        if bad.any():
            index_support(mesh, anchors[int(bad.argmax())])   # raises
            raise AssertionError("a window the batch refused fits")
        support = np.stack([np.stack([v[:, 0], v[:, -1]], axis=1)
                            for v in local], axis=1)
        windows, window_id = zip(*map(_unique_rows, local))
        return AnchorArrays(local=local, support=support, windows=windows,
                            window_id=window_id)
    return mesh.memo("anchor_arrays", build)
