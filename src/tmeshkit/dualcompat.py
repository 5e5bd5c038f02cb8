"""Knot-vector overlap relations and the dual-compatibility classifiers.

Two strictly increasing knot vectors overlap when both embed as
consecutive runs of one common vector; for strictly increasing vectors
this is equivalent to agreeing, as sets, on the intersection of their
convex hulls (the equivalence is property-tested against a brute-force
oracle in tmeshkit.verify).  Two splines weakly partially overlap when
their vectors differ and overlap in some direction, and strongly
partially overlap when their supports are disjoint or their vectors
overlap in at least d-1 directions.

Both classifiers read one scan per mesh (`_pair_flags`): the anchor
pairs whose supports meet, from `regions.meeting_pairs`, with their
overlap flags.  A direction's flags read only the pair's two local
vectors, so they are computed once per distinct pair of windows:
`anchor_arrays` numbers each direction's distinct windows, and per
chunk of `PAIR_CHUNK` anchor pairs and direction `_windows_overlap`
runs on the distinct (id, id) pairs of the chunk, whose flags the
pairs gather.  The chunks still bound the temporaries.  Over the 200
corpus meshes the 1 211 965 pair-directions hold 83 204 distinct
window pairs.  Measured, keep (2-vCPU host): the scan took 0.46 s of
a corpus pass per anchor pair and 0.22 s per window pair (best of 5),
and `corpus-classify` went from 160 to 181 ops/s (10 alternated
pairs).  Each call
filters that memoized scan, and returns the failing pairs as a
`Witnesses` sequence over index arrays, the flags and
`anchor_arrays(mesh).local`, whose tuples are built when read.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .anchors import anchor_arrays, anchor_set, local_knot_vector
from .mesh import Entity, TMesh
from .regions import meeting_pairs
from .witnesses import Witnesses


PAIR_CHUNK = 1 << 14   # anchor pairs whose flags are computed at once


class SameAnchor(ValueError):
    """Partial-overlap relations are defined for distinct anchors only."""


def knots_overlap(v1, v2) -> bool:
    """Overlap test for strictly increasing integer vectors: the vectors
    agree as sets on the intersection of their convex hulls."""
    lo = max(v1[0], v2[0])
    hi = min(v1[-1], v2[-1])
    if lo > hi:
        return True
    w1 = {x for x in v1 if lo <= x <= hi}
    w2 = {x for x in v2 if lo <= x <= hi}
    return w1 == w2


def _vector_pairs(mesh: TMesh, a1: Entity, a2: Entity) -> list:
    """Per direction, the local vectors of two distinct anchors (a1's are
    all read before a2's)."""
    if a1 == a2:
        raise SameAnchor("anchors must be distinct")
    v1, v2 = ([local_knot_vector(mesh, a, j) for j in range(mesh.dim)]
              for a in (a1, a2))
    return list(zip(v1, v2))


def weakly_partially_overlap(mesh: TMesh, a1: Entity, a2: Entity) -> bool:
    """Some direction where the local vectors differ and overlap."""
    return any(w1 != w2 and knots_overlap(w1, w2)
               for w1, w2 in _vector_pairs(mesh, a1, a2))


def strongly_partially_overlap(mesh: TMesh, a1: Entity, a2: Entity) -> bool:
    """Disjoint supports, or overlap in at least d-1 directions."""
    pairs = _vector_pairs(mesh, a1, a2)
    if any(max(w1[0], w2[0]) > min(w1[-1], w2[-1]) for w1, w2 in pairs):
        return True   # the supports, spanned by the vectors, are disjoint
    return sum(not knots_overlap(w1, w2) for w1, w2 in pairs) <= 1


def _windows_overlap(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """`knots_overlap` of row i of `v1` and row i of `v2`, two (rows, m)
    arrays of strictly increasing vectors: the hull test, or equal counts
    of entries inside the common hull with every such entry of the first
    vector found in the second."""
    lo = np.maximum(v1[:, :1], v2[:, :1])
    hi = np.minimum(v1[:, -1:], v2[:, -1:])
    in1 = (v1 >= lo) & (v1 <= hi)
    in2 = (v2 >= lo) & (v2 <= hi)
    found = (v1[:, :, None] == v2[:, None, :]).any(axis=2)
    return ((lo[:, 0] > hi[:, 0])
            | ((in1.sum(axis=1) == in2.sum(axis=1))
               & (found | ~in1).all(axis=1)))


def _pair_flags(mesh: TMesh):
    """Anchor pairs whose closed supports meet (all others satisfy both
    relations outright) with their per-direction `knots_overlap` and
    `differs` flags, each a (pairs, d) bool array, built once per mesh.

    A direction's flags read only the pair's two windows, so per chunk
    and direction `_windows_overlap` runs once per distinct pair of
    window ids, and the pairs gather its flags; two windows differ
    exactly when their ids do."""
    def build():
        arrays = anchor_arrays(mesh)
        ia, ib = meeting_pairs(arrays.support)
        overlap = np.empty((len(ia), mesh.dim), dtype=bool)
        differs = np.empty_like(overlap)
        for s in range(0, len(ia), PAIR_CHUNK):   # bounds the temporaries
            rows = slice(s, s + PAIR_CHUNK)
            for j, (windows, ids) in enumerate(zip(arrays.windows,
                                                   arrays.window_id)):
                a, b = ids[ia[rows]], ids[ib[rows]]
                codes, inverse = np.unique(a * len(windows) + b,
                                           return_inverse=True)
                first, second = np.divmod(codes, len(windows))
                overlap[rows, j] = _windows_overlap(
                    windows[first], windows[second])[inverse]
                differs[rows, j] = a != b
        return ia, ib, overlap, differs
    return mesh.memo("dc_pairs", build)


def _dc_rows(anchors: tuple, local: tuple, ia: np.ndarray, ib: np.ndarray,
             overlap: np.ndarray, rows: np.ndarray) -> list:
    """The witnesses (a1, a2, per-direction (v1, v2, overlaps)) of the
    failing pairs `rows`; `local` is `anchor_arrays(mesh).local`."""
    a, b = ia[rows], ib[rows]
    v1 = zip(*[map(tuple, v[a].tolist()) for v in local])
    v2 = zip(*[map(tuple, v[b].tolist()) for v in local])
    return [(anchors[x], anchors[y], tuple(zip(w1, w2, flags)))
            for x, y, w1, w2, flags in zip(a.tolist(), b.tolist(), v1, v2,
                                           overlap[rows].tolist())]


def _dc_scan(mesh: TMesh, weak: bool) -> tuple[bool, Witnesses]:
    """Witnesses, in (ia, ib) order, for the candidate pairs that fail the
    weak or the strong partial-overlap relation."""
    ia, ib, overlap, differs = _pair_flags(mesh)
    if weak:
        failing = ~(overlap & differs).any(axis=1)
    else:
        failing = (~overlap).sum(axis=1) > 1
    failing = np.flatnonzero(failing)
    witnesses = Witnesses(len(failing), partial(
        _dc_rows, anchor_set(mesh), anchor_arrays(mesh).local,
        ia[failing], ib[failing], overlap[failing]))
    return (not witnesses, witnesses)


def is_wdc(mesh: TMesh) -> tuple[bool, Witnesses]:
    """Weak dual-compatibility: every anchor pair weakly partially overlaps.
    Witnesses carry the per-direction vectors and overlap verdicts."""
    return _dc_scan(mesh, weak=True)


def is_sdc(mesh: TMesh) -> tuple[bool, Witnesses]:
    """Strong dual-compatibility: every anchor pair strongly partially
    overlaps."""
    return _dc_scan(mesh, weak=False)
