"""Exact set algebra over finite unions of axis-aligned boxes.

A box is a product of closed rational intervals, possibly degenerate
(a point component is an interval with equal endpoints).  All set
operations are exact: coordinates are ints or fractions.Fraction and no
tolerances appear anywhere.  Open/closed distinctions needed by callers
are handled at the query site, not here.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Span = tuple  # (lo, hi) with lo <= hi, closed
Box = tuple   # tuple of d Spans


class DimensionMismatch(ValueError):
    """Operands live in index domains of different dimension."""


def make_box(spans: Iterable[Sequence[Scalar]]) -> Box:
    """Validate and freeze a closed box from (lo, hi) pairs."""
    out = []
    for lo, hi in spans:
        if isinstance(lo, float) or isinstance(hi, float):
            raise TypeError("box bounds must be exact (int or Fraction)")
        if lo > hi:
            raise ValueError(f"malformed span ({lo}, {hi})")
        out.append((lo, hi))
    return tuple(out)


def box_intersection(b1: Box, b2: Box) -> Box | None:
    """Componentwise intersection; None when empty."""
    out = []
    for (lo1, hi1), (lo2, hi2) in zip(b1, b2):
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def hull_inside(inner: Sequence[Sequence[Scalar]],
                box: Sequence[Sequence[Scalar]]) -> bool:
    """Is the closed box (or an entity's closure) `inner` inside `box`?"""
    for (a, b), (lo, hi) in zip(inner, box):   # a loop: no generator per call
        if a < lo or b > hi:
            return False
    return True


def box_contains_point(box: Box, point: Sequence[Scalar]) -> bool:
    return all(lo <= x <= hi for (lo, hi), x in zip(box, point))


def _atoms(box: Box, cuts_per_dir: Sequence[Sequence[Scalar]]) -> Iterable[Box]:
    """Split a box into cells of the cut arrangement restricted to it;
    each direction's cuts are sorted and unique."""
    per_dir = []
    for (lo, hi), cuts in zip(box, cuts_per_dir):
        if lo == hi:
            per_dir.append([(lo, hi)])
            continue
        stops = [lo, *cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)], hi]
        per_dir.append([(stops[i], stops[i + 1]) for i in range(len(stops) - 1)])
    return itertools.product(*per_dir)


def _box_covered(box: Box, cover: Sequence[Box]) -> bool:
    """Exact test: is the closed box contained in the union of `cover`?

    Splits the box along all cover-box boundaries; each resulting atom
    either fits inside a single cover box or witnesses non-containment.
    """
    cover = [c for c in cover if box_intersection(box, c) is not None]
    if not cover:
        return False
    dim = len(box)
    cuts = [sorted({b[k][0] for b in cover} | {b[k][1] for b in cover})
            for k in range(dim)]
    for atom in _atoms(box, cuts):
        if not any(hull_inside(atom, c) for c in cover):
            return False
    return True


MAX_CANDIDATE_PAIRS = 1 << 21   # box pairs one `meeting_pairs` sweep may test


def meeting_pairs(boxes):
    """Index pairs (ia < ib, in lexicographic order) of the intersecting
    closed boxes of an (n, d, 2) integer array; numpy loads only here.

    Sort and sweep: with the boxes sorted by their lower bound in
    direction 0, the partners of one box that meet it there are the run
    of later ones starting no later than its upper bound; the other
    directions filter those.  Memory is linear in boxes plus candidates,
    the pairs that meet in direction 0.  Their count is known from the
    sort alone, and above `MAX_CANDIDATE_PAIRS` the sweep raises
    `MeshError` before it allocates anything per candidate.
    """
    import numpy as np

    from .mesh import MeshError

    n = len(boxes)
    order = np.argsort(boxes[:, 0, 0], kind="stable")
    lo0 = boxes[order, 0, 0]
    ends = np.searchsorted(lo0, boxes[order, 0, 1], side="right")
    counts = ends - np.arange(1, n + 1)
    total = int(counts.sum())
    if total > MAX_CANDIDATE_PAIRS:
        raise MeshError(f"the pair scan would test {total} candidate box "
                        f"pairs, more than the limit of {MAX_CANDIDATE_PAIRS}")
    owner = np.repeat(np.arange(n), counts)   # sorted position of the first
    partner = np.arange(1, total + 1)        # ... and of the second
    partner -= np.repeat(np.cumsum(counts) - counts, counts)
    partner += owner
    ia, ib = order[owner], order[partner]
    del owner, partner
    for k in range(1, boxes.shape[1]):   # valid boxes meet iff these hold
        keep = boxes[ia, k, 0] <= boxes[ib, k, 1]
        keep &= boxes[ib, k, 0] <= boxes[ia, k, 1]
        ia, ib = ia[keep], ib[keep]
    ia, ib = np.minimum(ia, ib), np.maximum(ia, ib)
    rank = np.lexsort((ib, ia))
    return ia[rank], ib[rank]


class BoxRegion:
    """A finite union of closed boxes with exact set semantics.

    No canonical form is maintained; boxes may overlap.  `equals` and
    `subset` are exact set comparisons, `normalize` produces a
    deterministic overlap-free representation for serialization.
    """

    __slots__ = ("dim", "boxes")

    def __init__(self, dim: int, boxes: Iterable[Box] = ()):
        self.dim = dim
        frozen = []
        for b in boxes:
            if len(b) != dim:
                raise DimensionMismatch(f"box of dim {len(b)} in region of dim {dim}")
            frozen.append(make_box(b))
        self.boxes = tuple(sorted(frozen))

    @classmethod
    def _trusted(cls, dim: int, boxes: Iterable[Box]) -> "BoxRegion":
        """A region of boxes this class built from valid boxes of
        dimension `dim`: sorted, not validated again."""
        region = cls.__new__(cls)
        region.dim = dim
        region.boxes = tuple(sorted(boxes))
        return region

    @classmethod
    def empty(cls, dim: int) -> "BoxRegion":
        return cls._trusted(dim, ())

    def __repr__(self) -> str:
        return f"BoxRegion(dim={self.dim}, boxes={list(self.boxes)!r})"

    def is_empty(self) -> bool:
        return not self.boxes

    def contains_point(self, point: Sequence[Scalar]) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch("point dimension mismatch")
        return any(box_contains_point(b, point) for b in self.boxes)

    def intersect(self, other: "BoxRegion") -> "BoxRegion":
        if self.dim != other.dim:
            raise DimensionMismatch("region dimension mismatch")
        out = []
        for b1 in self.boxes:
            for b2 in other.boxes:
                inter = box_intersection(b1, b2)
                if inter is not None:
                    out.append(inter)
        return BoxRegion._trusted(self.dim, set(out))

    def union(self, other: "BoxRegion") -> "BoxRegion":
        if self.dim != other.dim:
            raise DimensionMismatch("region dimension mismatch")
        return BoxRegion._trusted(self.dim, set(self.boxes) | set(other.boxes))

    def subset(self, other: "BoxRegion") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch("region dimension mismatch")
        return all(_box_covered(b, other.boxes) for b in self.boxes)

    def equals(self, other: "BoxRegion") -> bool:
        return self.subset(other) and other.subset(self)

    def normalize(self) -> "BoxRegion":
        """Overlap-free deterministic form: atomize over all box bounds,
        then greedily merge adjacent atoms axis by axis."""
        if not self.boxes:
            return BoxRegion._trusted(self.dim, ())
        cuts = [sorted({b[k][0] for b in self.boxes} | {b[k][1] for b in self.boxes})
                for k in range(self.dim)]
        atoms = set()
        for b in self.boxes:
            atoms.update(_atoms(b, cuts))
        boxes = atoms
        changed = True
        while changed:
            changed = False
            for axis in range(self.dim):
                merged = self._merge_axis(boxes, axis)
                if merged != boxes:
                    boxes = merged
                    changed = True
        return BoxRegion._trusted(self.dim, boxes)

    @staticmethod
    def _merge_axis(boxes: set, axis: int) -> set:
        groups: dict = {}
        for b in boxes:
            key = b[:axis] + b[axis + 1:]
            groups.setdefault(key, []).append(b[axis])
        out = set()
        for key, spans in groups.items():
            spans.sort()
            acc_lo, acc_hi = spans[0]
            merged_spans = []
            for lo, hi in spans[1:]:
                if lo <= acc_hi:
                    acc_hi = max(acc_hi, hi)
                else:
                    merged_spans.append((acc_lo, acc_hi))
                    acc_lo, acc_hi = lo, hi
            merged_spans.append((acc_lo, acc_hi))
            for span in merged_spans:
                out.add(key[:axis] + (span,) + key[axis:])
        return out
