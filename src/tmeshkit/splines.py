"""Univariate Cox-de Boor evaluation, multivariate spline evaluation, and
the collocation rank that `tmeshkit lin-indep` reports.

Index arithmetic stays exact; parametric evaluation is floating point.
Evaluation is right-continuous at knot values except at the global right
end of the parametric domain, where it is left-continuous, so that sums
of basis functions cover the closed domain.

`bspline_eval` evaluates one B-spline at one point.  `bspline_eval_array`
is the array kernel of the collocation tables (`evaluation_matrix`):
many knot rows on many sorted coordinates in one recurrence over the
in-support (coordinate, row) pairs only, every entry with the bits of
`bspline_eval`.  Measured, keep (2-vCPU host, 10 alternated pairs at
`--seconds 15`): evaluating each distinct window on every coordinate
took `corpus-classify` from 200.1 to 191.8 ops/s.

This module owns the collocation matrix (`evaluation_matrix`), its Gauss
sampling (`_gauss_points`), the rank with its thresholds
(`linear_independence_rank`, `RANK_THRESHOLD`, `STABLE_THRESHOLDS`) and
the limits on its size (`MAX_COLLOCATION_ENTRIES`,
`COLLOCATION_BLOCK_ENTRIES`); `verify` reads the matrix for partition of
unity.  The Gauss rule is computed once per point count: `leggauss` per
direction of every rank call took 0.052-0.071 s per corpus pass against
0.018-0.023 s, about 2 % of a pass, inside the benchmark's noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .anchors import anchor_arrays, index_support, local_knot_vector
from .mesh import Entity, MeshError, TMesh
from .regions import Box, box_intersection, hull_inside

MAX_COLLOCATION_ENTRIES = 1 << 23     # points x anchors of `evaluation_matrix`
COLLOCATION_BLOCK_ENTRIES = 1 << 20   # gathered per multiply in `evaluation_matrix`
RANK_THRESHOLD = 1e-8                 # rank: singular values above this x top
STABLE_THRESHOLDS = (1e-10, 1e-8, 1e-6)   # a stable rank is equal at each


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


# ---------------------------------------------------------------------------
# collocation rank

@dataclass(frozen=True)
class RankReport:
    num_anchors: int
    rank: int
    independent: bool
    stable: bool   # the rank is the same at every threshold of STABLE_THRESHOLDS


@cache
def _gauss_rule(count: int) -> np.ndarray:
    """The `count` Gauss-Legendre nodes on [-1, 1], read-only, computed
    once per count."""
    nodes = np.polynomial.legendre.leggauss(count)[0]
    nodes.setflags(write=False)
    return nodes


def _gauss_points(mesh: TMesh, cells) -> np.ndarray:
    """p_k + 1 Gauss-Legendre points per direction in every cell: cells
    in sorted order, each cell's points in ij-`meshgrid` order."""
    dom = mesh.domain
    spans = np.array(sorted(cells), dtype=np.int64).reshape(-1, dom.dim, 2)
    axes = []   # (cells, p_k + 1) coordinates per direction
    for k in range(dom.dim):
        knots = np.array(dom.float_knots[k])
        xa, xb = knots[spans[:, k, 0]][:, None], knots[spans[:, k, 1]][:, None]
        g = _gauss_rule(dom.degrees[k] + 1)
        axes.append(0.5 * (xa + xb) + 0.5 * (xb - xa) * g)
    n = len(spans)
    shape = (n, *(ax.shape[1] for ax in axes))
    coords = []
    for k, ax in enumerate(axes):
        # direction k varies along axis k + 1 of the (cell, point...) grid
        view = ax.reshape((n,) + (1,) * k + ax.shape[1:] + (1,) * (dom.dim - 1 - k))
        coords.append(np.broadcast_to(view, shape).ravel())
    return np.stack(coords, axis=-1)


def _check_collocation(points: int, anchors: int) -> None:
    if points * anchors > MAX_COLLOCATION_ENTRIES:
        raise MeshError(f"the collocation matrix would have "
                        f"{points * anchors} entries, more than the limit "
                        f"of {MAX_COLLOCATION_ENTRIES}")


def evaluation_matrix(mesh: TMesh, points: np.ndarray) -> np.ndarray:
    """Collocation matrix: one column per anchor, one row per point.

    Tensor-product evaluation (de Boor, "A Practical Guide to Splines",
    1978, ch. XVII): per direction, one `bspline_eval_array` call
    evaluates every distinct local knot vector (`AnchorArrays.windows`)
    on the distinct coordinates inside its support, and the matrix is
    the product of the tables gathered by the anchors' window ids.  A
    value outside its spline's support is exactly 0.0, and the
    directions multiply in order 0..d-1, so every entry has the bits of
    the per-anchor product (`tspline_eval`).  The tables are gathered
    into one buffer of `COLLOCATION_BLOCK_ENTRIES` entries, a block of
    rows at a time, so the build peaks near the matrix's own 8 bytes per
    entry.  Past `MAX_COLLOCATION_ENTRIES` entries it raises `MeshError`
    up front.
    """
    dom = mesh.domain
    arrays = anchor_arrays(mesh)
    _check_collocation(len(points), len(arrays.support))
    mat = np.ones((len(points), len(arrays.support)))
    rows = max(1, COLLOCATION_BLOCK_ENTRIES // mat.shape[1])
    gathered = np.empty((min(rows, len(points)), mat.shape[1]))
    for k in range(dom.dim):
        windows, w_inv = arrays.windows[k], arrays.window_id[k]
        ts, t_inv = np.unique(points[:, k], return_inverse=True)
        knots = np.array(dom.float_knots[k])
        table = bspline_eval_array(knots[windows], dom.degrees[k], ts,
                                   domain_right=knots[-1])
        for start in range(0, len(points), rows):
            block = mat[start:start + rows]
            out = gathered[:len(block)]
            # the indices are in range; "raise" would buffer `out`
            np.take(table[t_inv[start:start + rows]], w_inv, axis=1, out=out,
                    mode="clip")
            block *= out
    return mat


def linear_independence_rank(mesh: TMesh) -> RankReport:
    """Numerical rank of the collocation matrix: the singular values above
    `RANK_THRESHOLD` times the largest.

    The matrix is sampled on a Gauss grid of p_k + 1 points per direction
    inside every active cell.  The sampling is exact for piecewise
    polynomials of coordinate degree p, so full rank is a finite
    certificate of linear independence.  A lower rank proves nothing yet:
    on a mesh that is not analysis-suitable a function's knot lines can
    cross an active cell.  So the rank is then taken again, and reported,
    on the same grid in every unit index cell of the active region,
    where each blending function is one polynomial, as every knot is an
    index.  A mesh without anchors or without an active cell raises
    `MeshError`.
    """
    active = mesh.domain.active_spans()
    cells = [c for c in mesh.cells if hull_inside(c, active)]
    anchors = len(anchor_arrays(mesh).support)   # raises for no anchors
    if not cells:
        raise MeshError("the mesh has no cell inside its active region")
    units = itertools.product(*(zip(range(a, b), range(a + 1, b + 1))
                                for a, b in active))
    per_cell = math.prod(p + 1 for p in mesh.domain.degrees)
    for sample, count in ((cells, len(cells)),
                          (units, math.prod(b - a for a, b in active))):
        # counted before the points are built, which alone take about
        # 300 MB on a mesh at the entity limit
        _check_collocation(count * per_cell, anchors)
        mat = evaluation_matrix(mesh, _gauss_points(mesh, sample))
        svals = np.linalg.svd(mat, compute_uv=False)
        rank, *swept = (int((svals > t * svals[0]).sum())
                        for t in (RANK_THRESHOLD, *STABLE_THRESHOLDS))
        if rank == anchors:
            break
    return RankReport(num_anchors=anchors, rank=rank,
                      independent=rank == anchors,
                      stable=len(set(swept)) == 1)


def rank_verdict_stable(report: RankReport) -> bool:
    """The rank is the same at every threshold of `STABLE_THRESHOLDS`."""
    return report.stable
