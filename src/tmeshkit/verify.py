"""Independent oracles, seeded mesh fuzzing, and theorem cross-checks.

This module is the acceptance engine: it regenerates expected values by
routes independent of the production code paths (brute-force overlap,
unpruned dual-compatibility pair scans, pairwise extension-box
intersection, direct skeleton and T-junction scans, pairwise extension
enumeration and slice-pair intersection), probes the separating-junction
search, checks partition of unity on the collocation matrix of
`splines`, and drives seeded, replayable streams of random admissible
meshes through the classifier cross-checks and, in `property_suite`,
through the lemma drivers and the cross-check drivers.  Each
cross-check driver compares one production path, verdict and witnesses
in order, with an oracle here or, for the batches `anchor_arrays` and
`_gtj_table` read on a cold copy, with the per-key paths; the drivers
call production paths by design, so they are not oracles themselves.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, insort
from collections import deque
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .anchors import (anchor_arrays, anchor_set, complete_slices,
                      global_knot_vector, index_support, local_knot_vector)
from .dualcompat import is_sdc, is_wdc, knots_overlap
from .mesh import (Entity, TMesh, build_framed_mesh,
                   check_three_direction_assumption, create_tensor_mesh,
                   dyadic_active_breakpoints, hull_in_skeleton, hull_inside,
                   is_admissible, open_entity_meets_skeleton, point_in_skeleton,
                   subdiv)
from .regions import BoxRegion, _box_covered, box_intersection
from .splines import evaluation_matrix
# not used here: `perfbench` reads the rank and its verdict under `verify`
from .splines import linear_independence_rank, rank_verdict_stable  # noqa: F401
from .suitability import (_gtj_table, atj_slice, atj_union, gtj, gtj_union,
                          is_aas, is_sgas, is_wgas)
from .topology import (ClassificationAmbiguous, NotFound, TJunction,
                       find_separating_tjunction, find_tjunctions)


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
    return {"checked": pairs, "failures": failures}


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
    before they are paired.  They are paired by a sweep along axis
    a = (j + 1) mod d: with the out-boxes sorted by their lower bound in
    a, those that start by the end of an in-box are a prefix, found by
    bisection, and each such pair is intersected in every direction."""
    ins, outs = set(), set()
    for a, spans, gkvs in _anchor_knots_direct(mesh):
        if spans[j][0] <= n <= spans[j][1]:
            (ins if n in gkvs[j] else outs).add(
                spans[:j] + ((n, n),) + spans[j + 1:])
    if not ins or not outs:
        return BoxRegion(mesh.dim)
    axis = (j + 1) % mesh.dim
    b_in = np.array(list(ins), dtype=np.int64)
    b_out = np.array(sorted(outs, key=lambda b: b[axis][0]), dtype=np.int64)
    ends = np.searchsorted(b_out[:, axis, 0], b_in[:, axis, 1], side="right")
    i_in = np.repeat(np.arange(len(b_in)), ends)
    i_out = np.arange(len(i_in)) - np.repeat(np.cumsum(ends) - ends, ends)
    lo = np.maximum(b_in[i_in, :, 0], b_out[i_out, :, 0])
    hi = np.minimum(b_in[i_in, :, 1], b_out[i_out, :, 1])
    meets = (lo <= hi).all(axis=1)
    return BoxRegion(mesh.dim, {tuple(zip(*box)) for box in zip(
        lo[meets].tolist(), hi[meets].tolist())})


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
# partition of unity

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
    return {"checked": done, "failures": failures}


# ---------------------------------------------------------------------------
# lemma drivers and the property suite

def disjoint_union_suite(mesh: TMesh, samples: int, seed: int) -> dict:
    """The complex is a disjoint union: each of `samples` seeded points of
    the domain lies in exactly one entity.  Points live on the
    eighth-integer lattice.  Each entity adds 1 over its open lattice
    points (a singleton {a} is point 2a, an interval (a, b) points 2a+1
    to 2b-1) of one int32 count array, 4 bytes per lattice point and so
    at most 64 MiB at `MAX_LATTICE_POINTS`, and a point x is read at
    2 floor(x) + (x != floor(x)).  Failures are listed as (point,
    entities containing it)."""
    rng = np.random.default_rng(seed)
    eighths = np.stack([rng.integers(0, 8 * n + 1, samples) for n in
                        mesh.domain.extents], axis=-1)
    counts = np.zeros([2 * n + 1 for n in mesh.domain.extents], dtype=np.int32)
    for e in itertools.chain(*mesh.entities.values()):
        counts[tuple(slice(2 * a, 2 * a + 1) if a == b else
                     slice(2 * a + 1, 2 * b) for a, b in e)] += 1
    found = counts[tuple((2 * (eighths // 8) + (eighths % 8 != 0)).T)]
    bad = np.flatnonzero(found != 1)
    return {"checked": samples, "failures": list(zip(
        map(tuple, (eighths[bad] / 8.0).tolist()), found[bad].tolist()))}


def admissibility_walk_suite(mesh: TMesh) -> dict:
    """Refinement keeps admissibility: the initial grid and every
    refinement-log prefix of the mesh are admissible; failures are listed
    as (prefix length, violations)."""
    checked, failures = 0, []
    for length, prefix in enumerate(_prefixes(mesh)):
        ok, violations = is_admissible(prefix)
        checked += 1
        if not ok:
            failures.append((length, violations))
    return {"checked": checked, "failures": failures}


def projection_dichotomy_suite(mesh: TMesh) -> dict:
    """On weakly suitable meshes, the projection of an anchor or junction
    onto a plane x_j = m with m inside its j-th knot window is either in
    the j-skeleton or off it, never partly in it; failures are listed as
    (entity, j, m)."""
    entities = [(a, tuple(local_knot_vector(mesh, a, j)
                          for j in range(mesh.dim)))
                for a in anchor_set(mesh)]
    entities += [(t.entity, gtj(mesh, t).vectors) for t in find_tjunctions(mesh)]
    checked, failures = 0, []
    for entity, vectors in entities:
        for j, v in enumerate(vectors):
            for m in range(min(v), max(v) + 1):
                proj = entity[:j] + ((m, m),) + entity[j + 1:]
                checked += 1
                if (not hull_in_skeleton(mesh, j, proj)
                        and open_entity_meets_skeleton(mesh, j, proj)):
                    failures.append((entity, j, m))
    return {"checked": checked, "failures": failures}


def sgas_overlap_suite(mesh: TMesh) -> dict:
    """On strongly suitable meshes, an anchor whose support meets a
    junction has local knot vectors that overlap the junction's in every
    direction but its orthogonal one; failures are listed as
    (anchor, junction entity, direction)."""
    junctions = [(t, gtj(mesh, t)) for t in find_tjunctions(mesh)]
    checked, failures = 0, []
    for a in anchor_set(mesh):
        supp = index_support(mesh, a)
        for t, ext in junctions:
            if any(max(l1, l2) > min(h1, h2)
                   for (l1, h1), (l2, h2) in zip(supp, t.entity)):
                continue
            for k in range(mesh.dim):
                if k == t.odir:
                    continue
                checked += 1
                if not knots_overlap(local_knot_vector(mesh, a, k),
                                     ext.vectors[k]):
                    failures.append((a, t.entity, k))
    return {"checked": checked, "failures": failures}


def abstract_extension_witness_suite(mesh: TMesh, max_points: int = 12) -> dict:
    """Every sampled point x of a nonempty abstract extension of slice
    (i, n) has a junction witness: an anchor whose support holds x and
    whose i-th knot vector holds n exactly when x is off the i-skeleton,
    a point y of the anchor's projection on the other side of the
    skeleton, and a junction separating x from y whose associated cell
    reaches between the two in its pointing direction.  Up to
    `max_points` box midpoints are sampled per slice; failures are
    listed as (i, n, x, reason)."""
    anchors = anchor_set(mesh)
    checked, failures = 0, []
    for i in range(mesh.dim):
        for n in range(mesh.domain.extents[i] + 1):
            region = atj_slice(mesh, i, n).region
            for box in region.normalize().boxes[:max_points]:
                x = tuple(Fraction(lo + hi, 2) for lo, hi in box)
                checked += 1
                reason = _missing_witness(mesh, anchors, i, n, x)
                if reason is not None:
                    failures.append((i, n, x, reason))
    return {"checked": checked, "failures": failures}


def _missing_witness(mesh: TMesh, anchors, i: int, n: int, x: tuple):
    """Why the point x of slice (i, n)'s abstract extension has no
    junction witness, or None when it has one."""
    x_in_sk = point_in_skeleton(mesh, i, x)
    anchor = next((a for a in anchors
                   if all(lo <= c <= hi for (lo, hi), c
                          in zip(index_support(mesh, a), x))
                   and (n in global_knot_vector(mesh, a, i)) != x_in_sk),
                  None)
    if anchor is None:
        return "no anchor of the opposite class"
    proj = anchor[:i] + ((n, n),) + anchor[i + 1:]
    # midpoints of the unit cubes of the projection's closure
    y = next((y for y in itertools.product(*(
        [Fraction(a)] if a == b else
        [Fraction(2 * u + 1, 2) for u in range(a, b)] for a, b in proj))
        if point_in_skeleton(mesh, i, y) != x_in_sk), None)
    if y is None:
        return ("no point of the projection across the skeleton", anchor)
    try:
        tj, _ = find_separating_tjunction(
            mesh, *((x, y) if x_in_sk else (y, x)), i)
    except NotFound as exc:
        return f"NotFound: {exc}"
    # the junction meets the hull of x and the projection, and its
    # associated cell reaches between them in the pointing direction
    hull = [(min(lo, c), max(hi, c)) for (lo, hi), c in zip(proj, x)]
    j = tj.pdir
    (qa, qb), (alo, ahi) = tj.ascell[j], anchor[j]
    lo, hi = min(alo, x[j]), max(ahi, x[j])
    if not (all(max(l1, l2) <= min(h1, h2)
                for (l1, h1), (l2, h2) in zip(tj.entity, hull))
            and qa < hi and lo < qb and not alo == ahi == x[j]):
        return ("junction does not reach between", anchor, tj)
    return None


def child_anchor_inheritance(mesh: TMesh, cell: Entity, j: int) -> dict:
    """Each anchor created by bisecting `cell` in direction j inherits a
    parent: an old anchor with identical off-direction local vectors and
    a support containing the child's.

    Applicable when the mesh and its refinement are both weakly
    geometrically suitable and every active cell has active neighbors in
    three directions; failures are listed as the orphaned children."""
    refined = subdiv(mesh, cell, j)
    applicable = (mesh.dim >= 3
                  and check_three_direction_assumption(mesh)
                  and is_wgas(mesh)[0] and is_wgas(refined)[0])
    report = {"applicable": applicable, "checked": 0, "failures": []}
    if not applicable:
        return report
    old = anchor_set(mesh)
    old_set = set(old)
    children = [a for a in anchor_set(refined) if a not in old_set]
    report["checked"] = len(children)
    dims = [k for k in range(mesh.dim) if k != j]
    for child in children:
        child_vecs = {k: local_knot_vector(refined, child, k) for k in dims}
        child_supp = index_support(refined, child)
        if not any(all(local_knot_vector(mesh, a, k) == child_vecs[k]
                       for k in dims)
                   and all(pl <= cl and ch <= ph for (pl, ph), (cl, ch)
                           in zip(index_support(mesh, a), child_supp))
                   for a in old):
            report["failures"].append(child)
    return report


def child_anchor_suite(seeds: Iterable[int]) -> dict:
    """One candidate bisection per seed: a 3-D weakly suitable mesh of
    2 x 2 x 2 base cells and 0 to 4 steps, bisected in a random cell and
    direction, and checked by `child_anchor_inheritance` when it applies,
    which is about two draws in five.  `checked` counts the children of
    those bisections, and failures are listed as (seed, cell, direction,
    orphaned child)."""
    checked, failures = 0, []
    for seed in seeds:
        rng = random.Random(seed)
        mesh = random_admissible_mesh(
            seed, dim=3, levels=1, base_cells=(2, 2, 2),
            max_steps=rng.randint(0, 4), keep=lambda m: is_wgas(m)[0])
        # 8 cells 2 wide in each direction: 4 steps leave some to bisect
        cell, k = rng.choice(bisection_options(mesh, range(3)))
        report = child_anchor_inheritance(mesh, cell, k)
        checked += report["checked"]
        failures += [(seed, cell, k, child) for child in report["failures"]]
    return {"checked": checked, "failures": failures}


# ---------------------------------------------------------------------------
# cross-checks: the production paths against the oracles and the per-key paths

def cold_copy(mesh: TMesh) -> TMesh:
    """The same complex with an empty memo."""
    return TMesh(mesh.domain, mesh.breakpoints, mesh.entities,
                 mesh.refinement_log)


def _crosscheck(*comparisons) -> dict:
    """Each (name, production entries, reference entries) compared entry
    by entry, in order; failures are listed as (name, position,
    production entry, reference entry), None standing for a missing one."""
    rows = [(name, k, a, b) for name, ours, reference in comparisons
            for k, (a, b) in enumerate(itertools.zip_longest(ours, reference))]
    return {"checked": len(rows), "failures": [r for r in rows if r[2] != r[3]]}


def _verdict(result, boxes: bool = False) -> tuple:
    """A classifier's (verdict, witnesses) as one sequence, the verdict
    first; with `boxes`, each witness's closing region as its boxes, as
    an AAS region compares by identity."""
    ok, witnesses = result
    return (ok, *(w[:-1] + (w[-1].boxes,) if boxes else w
                  for w in witnesses))


def tjunction_crosscheck(mesh: TMesh) -> dict:
    """`find_tjunctions` against `tjunctions_oracle`, junction by junction."""
    return _crosscheck(("tjunctions", find_tjunctions(mesh),
                        tjunctions_oracle(mesh)))


def atj_slice_crosscheck(mesh: TMesh) -> dict:
    """The boxes of every `atj_slice` region against those of the
    normalized `atj_slice_oracle`, each entry led by its slice (j, n)."""
    slices = [(j, n) for j, extent in enumerate(mesh.domain.extents)
              for n in range(extent + 1)]
    return _crosscheck(
        ("atj_slices", [(s, atj_slice(mesh, *s).region.boxes) for s in slices],
         [(s, atj_slice_oracle(mesh, *s).normalize().boxes) for s in slices]))


def aas_crosscheck(mesh: TMesh) -> dict:
    """`is_aas` against `aas_oracle`: the verdict, then every witness."""
    return _crosscheck(("aas", _verdict(is_aas(mesh), boxes=True),
                        _verdict(aas_oracle(mesh), boxes=True)))


def gas_crosscheck(mesh: TMesh) -> dict:
    """`is_sgas` and `is_wgas` against `gtj_disjointness_oracle`."""
    return _scan_crosscheck(mesh, gtj_disjointness_oracle, sgas=is_sgas,
                            wgas=is_wgas)


def dc_crosscheck(mesh: TMesh) -> dict:
    """`is_sdc` and `is_wdc` against `dc_scan_oracle`."""
    return _scan_crosscheck(mesh, dc_scan_oracle, sdc=is_sdc, wdc=is_wdc)


def _scan_crosscheck(mesh: TMesh, oracle, **checks) -> dict:
    """The strong, then the weak classifier of `checks` against the
    pair-scan `oracle(mesh, weak)`: each verdict, then every witness."""
    return _crosscheck(*(
        (name, _verdict(check(mesh)), _verdict(oracle(mesh, weak)))
        for weak, (name, check) in zip((False, True), checks.items())))


def anchor_arrays_crosscheck(mesh: TMesh) -> dict:
    """The batch `anchor_arrays` of a cold copy against the per-key
    `local_knot_vector` and `index_support` of every anchor, in
    `anchor_set` order, after the arrays' int64 dtype; a row of the
    wrong shape differs from its vector or support."""
    arrays, anchors = anchor_arrays(cold_copy(mesh)), anchor_set(mesh)
    return _crosscheck(
        ("dtypes", [x.dtype for x in (*arrays.local, arrays.support)],
         [np.int64] * (mesh.dim + 1)),
        *((f"local {j}", map(tuple, local.tolist()),
           [local_knot_vector(mesh, a, j) for a in anchors])
          for j, local in enumerate(arrays.local)),
        ("support", [tuple(map(tuple, s)) for s in arrays.support.tolist()],
         [index_support(mesh, a) for a in anchors]))


def gtj_table_crosscheck(mesh: TMesh) -> dict:
    """The batch `suitability._gtj_table` of a cold copy against
    `find_tjunctions` and one `gtj` per junction, after the boxes' int64
    dtype; a box of the wrong shape differs from its region."""
    tjs, boxes = _gtj_table(cold_copy(mesh))
    return _crosscheck(
        ("dtype", [boxes.dtype], [np.int64]),
        ("junctions", tjs, find_tjunctions(mesh)),
        ("boxes", [tuple(map(tuple, b)) for b in boxes.tolist()],
         [gtj(mesh, t).region for t in tjs]))


# each report is named by its driver, less the suffix
_CROSSCHECKS = {f.__name__.removesuffix("_crosscheck"): f for f in (
    tjunction_crosscheck, atj_slice_crosscheck, aas_crosscheck, gas_crosscheck,
    dc_crosscheck, anchor_arrays_crosscheck, gtj_table_crosscheck)}


def property_suite(meshes: Iterable[tuple[int, TMesh]]) -> dict:
    """Every lemma driver on every (seed, mesh) of the stream that meets
    its precondition, and every cross-check on every mesh, with the
    overlap oracle on 10 000 seeded pairs and one child-anchor draw per
    stream seed.  Each driver's report sums its `checked` counts over the
    stream and lists its failures, per mesh as (seed, failure); `ok`
    holds when no driver failed."""
    suites = {"overlap_pairs": overlap_pair_suite(10_000, seed=1234)}
    suites |= {name: {"checked": 0, "failures": []} for name in (
        "separation_probes", "disjoint_union", "admissibility_walk",
        "extension_witnesses", "projection_dichotomy", "sgas_overlap",
        *_CROSSCHECKS)}
    seeds = []
    for seed, mesh in meshes:
        seeds.append(seed)
        reports = {"separation_probes": separation_probe_suite(mesh, 200, seed),
                   "disjoint_union": disjoint_union_suite(mesh, 10_000, seed),
                   "admissibility_walk": admissibility_walk_suite(mesh),
                   "extension_witnesses": abstract_extension_witness_suite(mesh)}
        if is_wgas(mesh)[0]:
            reports["projection_dichotomy"] = projection_dichotomy_suite(mesh)
        if is_sgas(mesh)[0]:
            reports["sgas_overlap"] = sgas_overlap_suite(mesh)
        reports |= {name: check(mesh) for name, check in _CROSSCHECKS.items()}
        for name, report in reports.items():
            suites[name]["checked"] += report["checked"]
            suites[name]["failures"] += [(seed, f) for f in report["failures"]]
    suites["child_anchors"] = child_anchor_suite(seeds)
    return {"meshes": len(seeds), "suites": suites,
            "ok": not any(r["failures"] for r in suites.values())}


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
