"""Knot-vector overlap relations and the dual-compatibility classifiers.

Two strictly increasing knot vectors overlap when both embed as
consecutive runs of one common vector; for strictly increasing vectors
this is equivalent to agreeing, as sets, on the intersection of their
convex hulls (the equivalence is property-tested against a brute-force
oracle in tmeshkit.verify).  Two splines weakly partially overlap when
their vectors differ and overlap in some direction, and strongly
partially overlap when their supports are disjoint or their vectors
overlap in at least d-1 directions.
"""

from __future__ import annotations

import numpy as np

from .anchors import (anchor_arrays, anchor_set, index_support,
                      local_knot_vector)
from .mesh import Entity, TMesh
from .regions import meeting_pairs


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


def _vectors(mesh: TMesh, a: Entity) -> tuple:
    return tuple(local_knot_vector(mesh, a, j) for j in range(mesh.dim))


def weakly_partially_overlap(mesh: TMesh, a1: Entity, a2: Entity) -> bool:
    """Some direction where the local vectors differ and overlap."""
    if a1 == a2:
        raise SameAnchor("anchors must be distinct")
    v1, v2 = _vectors(mesh, a1), _vectors(mesh, a2)
    return any(w1 != w2 and knots_overlap(w1, w2) for w1, w2 in zip(v1, v2))


def strongly_partially_overlap(mesh: TMesh, a1: Entity, a2: Entity) -> bool:
    """Disjoint supports, or overlap in at least d-1 directions."""
    if a1 == a2:
        raise SameAnchor("anchors must be distinct")
    s1, s2 = index_support(mesh, a1), index_support(mesh, a2)
    if any(max(l1, l2) > min(h1, h2) for (l1, h1), (l2, h2) in zip(s1, s2)):
        return True
    v1, v2 = _vectors(mesh, a1), _vectors(mesh, a2)
    misses = sum(1 for w1, w2 in zip(v1, v2) if not knots_overlap(w1, w2))
    return misses <= 1


def _pair_flags(mesh: TMesh):
    """Anchor pairs whose closed supports meet (all others satisfy both
    relations outright) with their per-direction `knots_overlap` and
    `differs` flags, each a (pairs, d) bool array, built once per mesh.

    For pairs of strictly increasing vectors of one length, overlap is the
    hull test, or equal counts of entries inside the common hull with
    every such entry of the first vector found in the second."""
    def build():
        arrays = anchor_arrays(mesh)
        ia, ib = meeting_pairs(arrays.support)
        overlap, differs = [], []
        for v in arrays.local:
            v1, v2 = v[ia], v[ib]
            lo = np.maximum(v1[:, :1], v2[:, :1])
            hi = np.minimum(v1[:, -1:], v2[:, -1:])
            in1 = (v1 >= lo) & (v1 <= hi)
            in2 = (v2 >= lo) & (v2 <= hi)
            found = (v1[:, :, None] == v2[:, None, :]).any(axis=2)
            overlap.append((lo[:, 0] > hi[:, 0])
                           | ((in1.sum(axis=1) == in2.sum(axis=1))
                              & (found | ~in1).all(axis=1)))
            differs.append((v1 != v2).any(axis=1))
        shape = (len(ia), mesh.dim)
        return (ia, ib, np.stack(overlap, axis=1).reshape(shape),
                np.stack(differs, axis=1).reshape(shape))
    return mesh.memo("dc_pairs", build)


def _dc_scan(mesh: TMesh, weak: bool) -> tuple[bool, tuple]:
    """Witnesses, in (ia, ib) order, for the candidate pairs that fail the
    weak or the strong partial-overlap relation."""
    ia, ib, overlap, differs = _pair_flags(mesh)
    if weak:
        failing = ~(overlap & differs).any(axis=1)
    else:
        failing = (~overlap).sum(axis=1) > 1
    anchors = anchor_set(mesh)
    failing = np.flatnonzero(failing)
    ia, ib = ia[failing].tolist(), ib[failing].tolist()
    vectors = {i: _vectors(mesh, anchors[i]) for i in {*ia, *ib}}
    witnesses = tuple(
        (anchors[a], anchors[b], tuple(zip(vectors[a], vectors[b], flags)))
        for a, b, flags in zip(ia, ib, overlap[failing].tolist()))
    return (not witnesses, witnesses)


def is_wdc(mesh: TMesh) -> tuple[bool, tuple]:
    """Weak dual-compatibility: every anchor pair weakly partially overlaps.
    Witnesses carry the per-direction vectors and overlap verdicts."""
    return mesh.memo("wdc", lambda: _dc_scan(mesh, weak=True))


def is_sdc(mesh: TMesh) -> tuple[bool, tuple]:
    """Strong dual-compatibility: every anchor pair strongly partially
    overlaps."""
    return mesh.memo("sdc", lambda: _dc_scan(mesh, weak=False))
