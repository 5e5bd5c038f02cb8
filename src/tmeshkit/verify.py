"""Independent oracles, seeded mesh fuzzing, and theorem cross-checks.

This module is the acceptance engine: it regenerates expected values by
routes independent of the production code paths (brute-force overlap,
unpruned dual-compatibility pair scans, pairwise extension-box
intersection, direct skeleton and T-junction scans, pairwise extension
enumeration and slice-pair intersection, collocation rank), probes the
separating-junction search, and drives seeded, replayable streams of
random admissible meshes through the classifier cross-checks.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .anchors import (anchor_arrays, anchor_set, complete_slices,
                      local_knot_vector)
from .dualcompat import is_sdc, is_wdc, knots_overlap
from .mesh import (Entity, MeshError, TMesh, build_framed_mesh,
                   create_tensor_mesh, dyadic_active_breakpoints, hull_inside,
                   point_in_skeleton, subdiv)
from .regions import BoxRegion, _box_covered, box_intersection
from .splines import bspline_eval_array
from .suitability import atj_union, gtj, gtj_union, is_aas, is_sgas, is_wgas
from .topology import (ClassificationAmbiguous, NotFound, TJunction,
                       find_separating_tjunction, find_tjunctions)

MAX_COLLOCATION_ENTRIES = 1 << 23     # points x anchors of `evaluation_matrix`
COLLOCATION_BLOCK_ENTRIES = 1 << 20   # gathered per multiply in `evaluation_matrix`
RANK_THRESHOLD = 1e-8                 # rank: singular values above this x top
STABLE_THRESHOLDS = (1e-10, 1e-8, 1e-6)   # a stable rank is equal at each


# ---------------------------------------------------------------------------
# brute-force overlap oracle and pair scans

def knots_overlap_oracle(v1: Sequence[int], v2: Sequence[int]) -> bool:
    """Ground truth for knot-vector overlap of strictly increasing vectors.

    Any merged vector witnessing overlap must contain every entry of both
    inputs, and padding or repeated entries can be dropped without
    breaking the consecutive runs, so the sorted union is the only
    candidate: both inputs must appear as contiguous runs in it.
    """
    merged = sorted(set(v1) | set(v2))
    pos = {v: i for i, v in enumerate(merged)}

    def contiguous(v):
        idx = [pos[x] for x in v]
        return all(idx[i + 1] == idx[i] + 1 for i in range(len(idx) - 1))

    return contiguous(v1) and contiguous(v2)


def overlap_pair_suite(pairs: int, seed: int) -> dict:
    """`knots_overlap` against the oracle on `pairs` seeded random pairs of
    strictly increasing vectors (2 to 8 entries from 0..20); failures are
    listed as (v1, v2)."""
    rng = random.Random(seed)
    failures = []
    for _ in range(pairs):
        v1 = tuple(sorted(rng.sample(range(21), rng.randint(2, 8))))
        v2 = tuple(sorted(rng.sample(range(21), rng.randint(2, 8))))
        if knots_overlap(v1, v2) != knots_overlap_oracle(v1, v2):
            failures.append((v1, v2))
    return {"pairs": pairs, "failures": failures}


def dc_scan_oracle(mesh: TMesh, weak: bool) -> tuple[bool, tuple]:
    """WDC (`weak`) or SDC verdict and witnesses by checking every anchor
    pair with the brute-force overlap oracle, without candidate pruning.
    A pair passes the weak relation when some direction's vectors differ
    and overlap, the strong one when the supports are disjoint or at most
    one direction fails to overlap."""
    anchors = anchor_set(mesh)
    vectors = [tuple(local_knot_vector(mesh, a, k) for k in range(mesh.dim))
               for a in anchors]
    witnesses = []
    for ia in range(len(anchors)):
        for ib in range(ia + 1, len(anchors)):
            v1, v2 = vectors[ia], vectors[ib]
            flags = [knots_overlap_oracle(w1, w2) for w1, w2 in zip(v1, v2)]
            if weak:
                ok = any(f and w1 != w2 for f, w1, w2 in zip(flags, v1, v2))
            else:
                disjoint = any(max(w1[0], w2[0]) > min(w1[-1], w2[-1])
                               for w1, w2 in zip(v1, v2))
                ok = disjoint or flags.count(False) <= 1
            if not ok:
                witnesses.append((anchors[ia], anchors[ib],
                                  tuple(zip(v1, v2, flags))))
    return (not witnesses, tuple(witnesses))


def gtj_disjointness_oracle(mesh: TMesh,
                            require_pdir_differs: bool) -> tuple[bool, tuple]:
    """SGAS (or, with `require_pdir_differs`, WGAS) verdict and witnesses
    by intersecting the extension boxes of every junction pair in turn."""
    tjs = find_tjunctions(mesh)
    boxes = [gtj(mesh, tj).region for tj in tjs]
    witnesses = []
    for a in range(len(tjs)):
        for b in range(a + 1, len(tjs)):
            t1, t2 = tjs[a], tjs[b]
            if t1.odir == t2.odir:
                continue
            if require_pdir_differs and t1.pdir == t2.pdir:
                continue
            inter = box_intersection(boxes[a], boxes[b])
            if inter is not None:
                witnesses.append((t1, t2, inter))
    return (not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# independent abstract-extension oracle

def _bounds(entities: list, d: int) -> np.ndarray:
    """The closures of the entities as an (n, d, 2) array, in order."""
    return np.array(entities, dtype=np.int64).reshape(len(entities), d, 2)


def _hyperface_bounds(mesh: TMesh) -> list:
    """Per direction k: the k-orthogonal hyperfaces sorted plane-major, by
    (x_k, face), and their bounds in the same order, so the faces of a
    plane are one `searchsorted` slice of column `bounds[:, k, 0]`."""
    out = []
    for k in range(mesh.dim):
        faces = sorted(mesh.entities[(k,)], key=lambda f: (f[k], f))
        out.append((faces, _bounds(faces, mesh.dim)))
    return out


def _gkv_direct(faces_by_dir: list, entity: Entity, j: int) -> tuple:
    """Global knot vector by covering each projection of the entity with
    the hyperface closures of its own plane, bypassing the raster used by
    the production path.  A hyperface of plane x_j = n meets (contains)
    the projection onto it exactly when its closure meets (contains) the
    entity's in every other direction.  One bound comparison over all
    j-orthogonal hyperfaces finds both kinds; a plane with a containing
    hyperface is covered, and the other planes go to the exact cover
    test with only the hyperfaces that meet the projection."""
    faces, bounds = faces_by_dir[j]
    lo, hi = np.array(entity).T
    meets = (bounds[:, :, 0] <= hi) & (lo <= bounds[:, :, 1])
    holds = (bounds[:, :, 0] <= lo) & (hi <= bounds[:, :, 1])
    meets[:, j] = holds[:, j] = True
    held = {faces[r][j][0] for r in np.flatnonzero(holds.all(axis=1)).tolist()}
    cover = {}
    for r in np.flatnonzero(meets.all(axis=1)).tolist():
        cover.setdefault(faces[r][j][0], []).append(faces[r])
    return tuple(n for n in sorted(cover) if n in held or _box_covered(
        entity[:j] + ((n, n),) + entity[j + 1:], cover[n]))


def _held_counts(bounds: np.ndarray, faces: np.ndarray, k: int) -> np.ndarray:
    """How many of the k-orthogonal hyperfaces `faces` (bounds sorted
    plane-major, as `_hyperface_bounds` gives them) hold each entity of
    `bounds`, which all lie in planes {x_k = c}.  A hyperface that holds
    an entity lies in the entity's plane, so each plane's entities are
    compared with that plane's hyperfaces at once."""
    counts = np.zeros(len(bounds), dtype=np.int64)
    order = np.argsort(bounds[:, k, 0], kind="stable")
    planes, first = np.unique(bounds[order, k, 0], return_index=True)
    last = np.append(first[1:], len(order))
    lo = np.searchsorted(faces[:, k, 0], planes)
    hi = np.searchsorted(faces[:, k, 0], planes, side="right")
    for a, b, fa, fb in zip(first.tolist(), last.tolist(), lo.tolist(),
                            hi.tolist()):
        rows = order[a:b]
        t, f = bounds[rows, None], faces[None, fa:fb]
        counts[rows] = ((f[..., 0] <= t[..., 0])
                        & (t[..., 1] <= f[..., 1])).all(axis=2).sum(axis=1)
    return counts


def tjunctions_oracle(mesh: TMesh) -> tuple:
    """T-junctions by direct scans of hyperface and cell closures,
    bypassing the lattice rasters of the production path.  Raises, for
    the smallest such entity, when an interior (d-2)-entity has a valence
    other than 3 or 4, or a T-junction other than one associated cell.
    Valences are counted per (i, j) bucket and plane (`_held_counts`);
    the cells whose closures hold an entity of valence other than 4 are
    found by one comparison of all such entities with all cells."""
    d, extents = mesh.dim, mesh.domain.extents
    if d < 2:
        return ()
    faces_by_dir = _hyperface_bounds(mesh)
    candidates = []   # (entity, i, j, valence) with valence != 4
    for i0, j0 in itertools.combinations(range(d), 2):
        ents = [t for t in mesh.entities[(i0, j0)]
                if all(0 < t[k][0] < extents[k] for k in (i0, j0))]
        bounds = _bounds(ents, d)
        valence = sum(_held_counts(bounds, faces_by_dir[k][1], k)
                      for k in (i0, j0))
        candidates += [(t, i0, j0, v) for t, v in zip(ents, valence.tolist())
                       if v != 4]
    candidates.sort()
    cells = list(mesh.cells)
    t_bounds = _bounds([t for t, *_ in candidates], d)[:, None]
    c_bounds = _bounds(cells, d)[None]
    holding = ((c_bounds[..., 0] <= t_bounds[..., 0])
               & (t_bounds[..., 1] <= c_bounds[..., 1])).all(axis=2)
    held = [[] for _ in candidates]
    for r, c in zip(*(x.tolist() for x in np.nonzero(holding))):
        held[r].append(cells[c])
    out = []
    for (t, i0, j0, valence), around in zip(candidates, held):
        # odir strictly inside the cell, pdir on its boundary
        cells_of_t = [(q, k, m) for q in around
                      for k, m in ((i0, j0), (j0, i0))
                      if q[k][0] < t[k][0] < q[k][1] and t[m][0] in q[m]]
        if valence != 3 or len(cells_of_t) != 1:
            raise ClassificationAmbiguous(
                f"entity {t!r}: valence {valence}, "
                f"{len(cells_of_t)} associated cells")
        q, odir, pdir = cells_of_t[0]
        out.append(TJunction(entity=t, odir=odir, pdir=pdir, ascell=q,
                             valence=valence))
    return tuple(out)


def _local_window_direct(gkv, value, offset, length):
    idx = gkv.index(value)
    start = idx - offset
    if start < 0 or start + length > len(gkv):
        raise ValueError("window does not fit")
    return gkv[start:start + length]


def _anchor_knots_direct(mesh: TMesh) -> tuple:
    """(anchor, support spans, global knot vectors) for every anchor, with
    the anchors read from their bucket and the knot vectors by the direct
    scan; built once per mesh, as every slice reads all of them.  The scan
    in direction k ignores the entity's k-component, so it runs once per
    line of anchors, with that component set to (0, 0)."""
    def build():
        dom = mesh.domain
        kappa = tuple(k for k, p in enumerate(dom.degrees) if p % 2 == 1)
        active = dom.active_spans()
        scan = cache(partial(_gkv_direct, _hyperface_bounds(mesh)))
        out = []
        for a in mesh.entities[kappa]:
            if not hull_inside(a, active):
                continue
            gkvs = tuple(scan(a[:k] + ((0, 0),) + a[k + 1:], k)
                         for k in range(dom.dim))
            spans = []
            for k, gkv in enumerate(gkvs):
                p = dom.degrees[k]
                w = _local_window_direct(gkv, a[k][0], (p + 1) // 2, p + 2)
                spans.append((w[0], w[-1]))
            out.append((a, tuple(spans), gkvs))
        return tuple(out)
    return mesh.memo("direct_anchor_knots", build)


def atj_slice_oracle(mesh: TMesh, j: int, n: int) -> BoxRegion:
    """Abstract extension of a slice by pairwise enumeration of anchor
    supports, with knot vectors recomputed by the direct scan.  Anchors
    with equal supports give one box, so the in and out boxes are sets
    before they are paired."""
    ins, outs = set(), set()
    for a, spans, gkvs in _anchor_knots_direct(mesh):
        if spans[j][0] <= n <= spans[j][1]:
            (ins if n in gkvs[j] else outs).add(
                spans[:j] + ((n, n),) + spans[j + 1:])
    boxes = set()
    for b_in in ins:
        for b_out in outs:
            inter = tuple((max(l1, l2), min(h1, h2))
                          for (l1, h1), (l2, h2) in zip(b_in, b_out))
            if all(lo <= hi for lo, hi in inter):
                boxes.add(inter)
    return BoxRegion(mesh.dim, boxes)


def aas_oracle(mesh: TMesh) -> tuple[bool, tuple]:
    """Abstract suitability by intersecting the normalized oracle slices
    pairwise: witnesses (i, n, j, m, normalized intersection), ordered by
    (i, j, n, m), as `is_aas` reports them."""
    slices = [[(n, atj_slice_oracle(mesh, j, n).normalize())
               for n in range(mesh.domain.extents[j] + 1)]
              for j in range(mesh.dim)]
    witnesses = []
    for i, j in itertools.combinations(range(mesh.dim), 2):
        for n, r1 in slices[i]:
            for m, r2 in slices[j]:
                inter = r1.intersect(r2)
                if not inter.is_empty():
                    witnesses.append((i, n, j, m, inter.normalize()))
    return (not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# collocation rank and partition of unity

@dataclass(frozen=True)
class RankReport:
    num_anchors: int
    rank: int
    independent: bool
    singular_values: tuple

    def rank_at(self, threshold: float) -> int:
        if not self.singular_values:
            return 0
        top = self.singular_values[0]
        return sum(1 for s in self.singular_values if s > threshold * top)


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
    1978, ch. XVII): per direction, one `splines.bspline_eval_array` call
    evaluates every distinct local knot vector (`AnchorArrays.windows`)
    on the distinct coordinates inside its support, and the matrix is
    the product of the tables gathered by the anchors' window ids.  A
    value outside its spline's support is exactly 0.0, and the
    directions multiply in order 0..d-1, so every entry has the bits of
    the per-anchor product (`splines.tspline_eval`).  The tables
    are gathered into one buffer of `COLLOCATION_BLOCK_ENTRIES` entries,
    a block of rows at a time, so the build peaks near the matrix's own
    8 bytes per entry.  Past `MAX_COLLOCATION_ENTRIES` entries it raises
    `MeshError` up front.
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
    """Numerical rank of the collocation matrix sampled on a Gauss grid of
    p_k + 1 points per direction inside every active cell: the singular
    values above `RANK_THRESHOLD` times the largest.

    The sampling is exact for piecewise polynomials of coordinate degree
    p, so full rank is a finite certificate of linear independence.
    """
    active = mesh.domain.active_spans()
    cells = [c for c in mesh.cells if hull_inside(c, active)]
    anchors = anchor_set(mesh)
    # counted before the points are built, which alone take about 300 MB
    # on a mesh at the entity limit
    per_cell = math.prod(p + 1 for p in mesh.domain.degrees)
    _check_collocation(len(cells) * per_cell, len(anchors))
    mat = evaluation_matrix(mesh, _gauss_points(mesh, cells))
    if mat.size == 0:
        return RankReport(len(anchors), 0, False, ())
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int((svals > RANK_THRESHOLD * svals[0]).sum())
    return RankReport(num_anchors=len(anchors), rank=rank,
                      independent=rank == len(anchors),
                      singular_values=tuple(float(s) for s in svals))


def rank_verdict_stable(report: RankReport) -> bool:
    """The rank is the same at every threshold of `STABLE_THRESHOLDS`."""
    return len({report.rank_at(t) for t in STABLE_THRESHOLDS}) == 1


def unity_sample_bounds(mesh: TMesh) -> tuple:
    """Parametric box on which the basis must sum to one.

    Per direction the basis reproduces constants only p complete slices
    away from the domain boundary (the frame carries no anchors), so the
    box runs from the p-th complete slice to the p-th-from-last one.
    """
    dom = mesh.domain
    spans = []
    for k in range(dom.dim):
        p = dom.degrees[k]
        full = complete_slices(mesh, k)
        if len(full) < 2 * p + 1 or full[p] > full[-1 - p]:
            raise ValueError(
                f"direction {k}: too few complete slices for degree {p}; "
                f"no unity region")
        spans.append((dom.float_knots[k][full[p]],
                      dom.float_knots[k][full[-1 - p]]))
    return tuple(spans)


def partition_of_unity(mesh: TMesh, samples: int = 1000, seed: int = 0) -> float:
    """Max deviation of the basis sum from one over uniform random points
    of the unity region."""
    bounds = unity_sample_bounds(mesh)
    rng = np.random.default_rng(seed)
    pts = np.empty((samples, mesh.dim))
    for k, (lo, hi) in enumerate(bounds):
        pts[:, k] = rng.uniform(lo, hi, samples) if lo < hi else lo
    total = evaluation_matrix(mesh, pts).sum(axis=1)
    return float(np.abs(total - 1.0).max())


# ---------------------------------------------------------------------------
# seeded mesh generation

def random_admissible_mesh(seed: int, *, dim: int | None = None,
                           degrees: tuple | None = None, max_steps: int = 40,
                           levels: int | None = None,
                           base_cells: tuple | None = None,
                           direction_mode: str = "mixed",
                           keep: Callable[[TMesh], bool] | None = None) -> TMesh:
    """One random admissible mesh: seeded bisections of a pre-scaled frame
    mesh, rejecting non-integer midpoints by construction.

    direction_mode "single" restricts all bisections to one random
    direction (a cheap way to produce strongly suitable meshes), "mixed"
    draws from every direction, and any other mode raises `ValueError`
    before anything is drawn; `keep` filters each accepted step,
    reverting steps whose result it rejects.
    """
    if direction_mode not in ("single", "mixed"):
        raise ValueError(f"direction_mode is 'single' or 'mixed', "
                         f"not {direction_mode!r}")
    rng = random.Random(seed)
    d = dim if dim is not None else rng.choice((2, 3))
    if degrees is None:
        degrees = tuple(rng.choice((0, 1, 1, 2, 2, 3, 3)) for _ in range(d))
    if levels is None:
        levels = rng.choice((1, 2))
    if base_cells is None:
        base_cells = tuple(rng.randint(2, 3) for _ in range(d))
    mesh = build_framed_mesh(
        degrees, [dyadic_active_breakpoints(c, levels) for c in base_cells])
    directions = (rng.randrange(d),) if direction_mode == "single" else range(d)

    steps = misses = 0
    options = bisection_options(mesh, directions)   # listed once per mesh
    while options and steps < max_steps and misses < 2 * max_steps:
        cell, k = rng.choice(options)
        candidate = subdiv(mesh, cell, k)
        if keep is not None and not keep(candidate):
            misses += 1
            continue
        mesh = candidate
        update_bisection_options(options, cell, k, directions)
        steps += 1
    return mesh


def bisection_options(mesh: TMesh, directions: Sequence[int]) -> list:
    """Sorted (active cell, direction) pairs with an even width of at least
    2 in that direction, so the bisection midpoint is an integer."""
    active = mesh.domain.active_spans()
    return sorted(option for cell in mesh.cells if hull_inside(cell, active)
                  for option in _cell_options(cell, directions))


def update_bisection_options(options: list, cell: Entity, j: int,
                             directions: Sequence[int]) -> None:
    """Turn the `bisection_options` of a mesh into those of its bisection
    of the active cell `cell` in direction j, in place.  Inside the active
    region the refinement box is the cell's closure, so the cell is the
    only active cell split: its entries go and its halves' come in."""
    start = end = bisect_left(options, (cell,))
    while end < len(options) and options[end][0] == cell:
        end += 1
    del options[start:end]
    a, b = cell[j]
    m = (a + b) // 2
    for half in ((a, m), (m, b)):
        for option in _cell_options(cell[:j] + (half,) + cell[j + 1:],
                                    directions):
            insort(options, option)


def _cell_options(cell: Entity, directions: Sequence[int]) -> list:
    # a cell is at least 1 wide, so an even width is at least 2
    return [(cell, k) for k in directions
            if (cell[k][1] - cell[k][0]) % 2 == 0]


def mesh_stream(seed: int, count: int, **kwargs) -> Iterable[tuple[int, TMesh]]:
    """Reproducible stream of (sub-seed, mesh) pairs."""
    for k in range(count):
        sub = (seed * 1_000_003 + k) % (1 << 62)
        yield sub, random_admissible_mesh(sub, **kwargs)


def _prefixes(mesh: TMesh, length: int | None = None) -> Iterator[TMesh]:
    """The mesh's initial grid and then its refinement-log prefixes up to
    `length` steps, shortest first; each is bisected from the one before
    only when it is asked for, so it inherits the memo entries that one's
    readers built."""
    return itertools.accumulate(
        mesh.refinement_log[:length], lambda out, step: subdiv(out, *step),
        initial=create_tensor_mesh(mesh.domain, mesh.breakpoints))


def replay_prefix(mesh: TMesh, length: int) -> TMesh:
    """Rebuild the mesh from its initial grid and a refinement-log prefix."""
    return deque(_prefixes(mesh, length), maxlen=1).pop()


# ---------------------------------------------------------------------------
# separating-junction probes

def separation_probe_suite(mesh: TMesh, probes: int, seed: int) -> dict:
    """Random valid (x, y, i) probes of `find_separating_tjunction`: x on
    an i-orthogonal hyperface outside the complete slices, y on the same
    slice off the i-skeleton.  A probe fails when the search raises or its
    output breaks a postcondition (checked here, independently of it);
    failures are listed as (x, y, i, what the search returned or raised)."""
    rng = random.Random(seed)
    by_dir = {}
    for i in range(mesh.dim):
        full = set(complete_slices(mesh, i))
        faces = sorted(f for f in mesh.entities[(i,)] if f[i][0] not in full)
        if faces:
            by_dir[i] = faces
    dirs = sorted(by_dir)
    done = attempts = 0
    failures = []
    while dirs and done < probes and attempts < probes * 40:
        attempts += 1
        i = rng.choice(dirs)
        face = rng.choice(by_dir[i])
        x = tuple(Fraction(rng.randint(4 * a, 4 * b), 4) for a, b in face)
        y = list(x)
        for k in range(mesh.dim):
            if k != i:
                y[k] = Fraction(rng.randint(0, 8 * mesh.domain.extents[k]), 8)
        y = tuple(y)
        if y == x or point_in_skeleton(mesh, i, y):
            continue
        done += 1
        try:
            tj, witness = find_separating_tjunction(mesh, x, y, i)
        except NotFound as exc:
            failures.append((x, y, i, f"NotFound: {exc}"))
            continue
        j, t, point = tj.pdir, witness.t_enter, witness.point
        lo, hi = min(x[j], y[j]), max(x[j], y[j])
        if not (tj.odir == i and 0 <= t <= 1 and x[j] != y[j]
                and point == tuple(xc + t * (yc - xc) for xc, yc in zip(x, y))
                and all(a <= c <= b for (a, b), c in zip(tj.entity, point))
                and tj.ascell[j][0] < hi and lo < tj.ascell[j][1]):
            failures.append((x, y, i, (tj, witness)))
    return {"probes": done, "failures": failures}


# ---------------------------------------------------------------------------
# theorem cross-checks

def crosscheck_aas_sdc(meshes: Iterable[tuple[int, TMesh]]) -> dict:
    """Assert-style report: abstract suitability and strong
    dual-compatibility must agree on every mesh."""
    checked = 0
    disagreements = []
    for label, mesh in meshes:
        aas = is_aas(mesh)[0]
        sdc = is_sdc(mesh)[0]
        checked += 1
        if aas != sdc:
            disagreements.append({"seed": label, "aas": aas, "sdc": sdc,
                                  "log_length": len(mesh.refinement_log),
                                  "mesh": mesh})
    return {"checked": checked, "disagreements": disagreements,
            "ok": not disagreements}


def crosscheck_sgas_aas(meshes: Iterable[tuple[int, TMesh]]) -> dict:
    """On strongly geometrically suitable meshes, abstract suitability must
    hold and every abstract extension must sit inside the geometric one."""
    checked = skipped = 0
    failures = []
    for label, mesh in meshes:
        if not is_sgas(mesh)[0]:
            skipped += 1
            continue
        checked += 1
        if not is_aas(mesh)[0]:
            failures.append({"seed": label, "reason": "sgas mesh not aas"})
            continue
        for i in range(mesh.dim):
            if not atj_union(mesh, i).subset(gtj_union(mesh, i)):
                failures.append({"seed": label, "direction": i,
                                 "reason": "abstract extension escapes geometric"})
    return {"checked": checked, "skipped": skipped, "failures": failures,
            "ok": not failures}


def wgas_wdc_counterexample_search(meshes: Iterable[tuple[int, TMesh]]) -> dict:
    """Log (never assert) meshes that are weakly geometrically suitable but
    not weakly dual-compatible; each candidate is shrunk to its shortest
    refinement-log prefix that still is, found in one replay."""
    checked = wgas_count = 0
    candidates = []
    for label, mesh in meshes:
        checked += 1
        if not is_wgas(mesh)[0]:
            continue
        wgas_count += 1
        if is_wdc(mesh)[0]:
            continue
        shrunk = _shrink_candidate(mesh)
        candidates.append({
            "seed": label,
            "log_length": len(mesh.refinement_log),
            "shrunk_log_length": len(shrunk.refinement_log),
            "mesh": shrunk,
        })
    return {"checked": checked, "wgas": wgas_count, "candidates": candidates}


def _shrink_candidate(mesh: TMesh) -> TMesh:
    """The shortest prefix that is WGAS and not WDC, or `mesh` when even
    its full replay is not."""
    return next((m for m in _prefixes(mesh)
                 if is_wgas(m)[0] and not is_wdc(m)[0]), mesh)
