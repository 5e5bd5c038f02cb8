"""Univariate Cox-de Boor evaluation and multivariate spline evaluation.

Index arithmetic stays exact; parametric evaluation is floating point.
Evaluation is right-continuous at knot values except at the global right
end of the parametric domain, where it is left-continuous, so that sums
of basis functions cover the closed domain.

`bspline_eval` evaluates one B-spline at one point.  `bspline_eval_array`
is the array kernel of the collocation tables (`verify.evaluation_matrix`):
many knot rows on many sorted coordinates in one recurrence over the
in-support (coordinate, row) pairs only, every entry with the bits of
`bspline_eval`.  Measured, keep (2-vCPU host, 10 alternated pairs at
`--seconds 15`): evaluating each distinct window on every coordinate
took `corpus-classify` from 200.1 to 191.8 ops/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .anchors import index_support, local_knot_vector
from .mesh import Entity, TMesh
from .regions import Box, box_intersection


class DegenerateKnots(ValueError):
    """First and last knot coincide; the spline is undefined."""


def bspline_eval(knots: Sequence[float], degree: int, t: float,
                 left_continuous: bool = False) -> float:
    """Value at t of the single B-spline with the given p+2 knots.

    Knots must be non-decreasing with first < last; the value is zero
    outside [first, last].
    """
    p = int(degree)
    k = [float(v) for v in knots]
    if len(k) != p + 2:
        raise ValueError(f"degree {p} needs {p + 2} knots, got {len(k)}")
    if any(k[i] > k[i + 1] for i in range(len(k) - 1)):
        raise ValueError("knots must be non-decreasing")
    if k[0] == k[-1]:
        raise DegenerateKnots(f"all knots equal: {k}")
    t = float(t)
    if left_continuous:
        vals = [1.0 if k[i] < t <= k[i + 1] else 0.0 for i in range(p + 1)]
    else:
        vals = [1.0 if k[i] <= t < k[i + 1] else 0.0 for i in range(p + 1)]
    for r in range(1, p + 1):
        nxt = []
        for i in range(p + 1 - r):
            acc = 0.0
            if k[i + r] != k[i]:
                acc += (t - k[i]) / (k[i + r] - k[i]) * vals[i]
            if k[i + r + 1] != k[i + 1]:
                acc += (k[i + r + 1] - t) / (k[i + r + 1] - k[i + 1]) * vals[i + 1]
            nxt.append(acc)
        vals = nxt
    return vals[0]


def bspline_eval_array(knots: np.ndarray, degree: int, ts: np.ndarray,
                       domain_right: float) -> np.ndarray:
    """Table of values: entry [i, r] is the value at ts[i] of the B-spline
    with knot row knots[r], for a (w, p + 2) array of non-decreasing knot
    rows and sorted coordinates `ts`.  Coordinates equal to
    `domain_right` are evaluated with the left-continuous convention.

    A B-spline vanishes off its knot span (de Boor, "A Practical Guide to
    Splines", 1978), so each row's in-support coordinates are one run of
    `ts`, found by bisection, and one Cox-de Boor recurrence runs over
    the flat (coordinate, row) pairs of all runs.  Each pair takes the
    scalar operations of `bspline_eval`, in its order, but for the terms
    it skips at a zero denominator of repeated knots: those add +0.0
    instead, which equals skipping, as the sum starts at +0.0 and so
    never holds -0.0.  Every other entry is +0.0, as the recurrence of
    zero indicators gives."""
    p = int(degree)
    rows = np.asarray(knots, dtype=float).reshape(-1, p + 2)
    ts = np.asarray(ts, dtype=float)
    lo = np.searchsorted(ts, rows[:, 0])
    hi = np.searchsorted(ts, rows[:, -1])
    # a span that closes at domain_right keeps it
    ends = (rows[:, 0] < domain_right) & (domain_right <= rows[:, -1])
    hi[ends] = np.maximum(hi[ends],
                          np.searchsorted(ts, domain_right, side="right"))
    runs = hi - lo
    row = np.repeat(np.arange(len(rows)), runs)
    at = np.arange(len(row)) + np.repeat(lo - (np.cumsum(runs) - runs), runs)
    t, k = ts[at], rows.T[:, row]   # k[i]: knot i of each pair's row
    vals = []
    for i in range(p + 1):
        ind = (k[i] <= t) & (t < k[i + 1])
        ind |= (t == domain_right) & (k[i] < t) & (t <= k[i + 1])
        vals.append(ind.astype(float))
    for r in range(1, p + 1):
        nxt = []
        for i in range(p + 1 - r):
            acc = np.zeros_like(t)
            acc += _ratio(t - k[i], k[i + r] - k[i]) * vals[i]
            acc += (_ratio(k[i + r + 1] - t, k[i + r + 1] - k[i + 1])
                    * vals[i + 1])
            nxt.append(acc)
        vals = nxt
    table = np.zeros((len(ts), len(rows)))
    table[at, row] = vals[0]
    return table


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, +0.0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


@dataclass(frozen=True)
class TSpline:
    """An anchor with its local knot vectors and index support box."""
    anchor: Entity
    local_vectors: tuple
    support: Box


def tspline(mesh: TMesh, anchor: Entity) -> TSpline:
    vectors = tuple(local_knot_vector(mesh, anchor, j) for j in range(mesh.dim))
    return TSpline(anchor=anchor, local_vectors=vectors,
                   support=tuple((w[0], w[-1]) for w in vectors))


def tspline_eval(mesh: TMesh, anchor: Entity, point: Sequence[float]) -> float:
    """Product of univariate values after mapping index vectors through the
    parametric knots."""
    value = 1.0
    for j in range(mesh.dim):
        knots_j = mesh.domain.float_knots[j]
        window = [knots_j[n] for n in local_knot_vector(mesh, anchor, j)]
        t = float(point[j])
        right = knots_j[-1]
        value *= bspline_eval(window, mesh.domain.degrees[j], t,
                              left_continuous=(t == right))
        if value == 0.0:
            return 0.0
    return value


def supports_overlap(mesh: TMesh, a1: Entity, a2: Entity) -> bool:
    """Do the closed index supports intersect?"""
    return box_intersection(index_support(mesh, a1),
                            index_support(mesh, a2)) is not None

