"""T-mesh core: integer index domain, explicit entity complex, bisection refinement.

A mesh lives on the open index box prod_k (0, N_k).  Entities of every
dimension 0..d are stored explicitly as tuples of components, where a
component is an integer pair (a, b): a == b encodes the singleton {a},
a < b the open interval (a, b).  The complex is keyed by orientation:
`TMesh.entities[kappa]` holds the kappa-orthogonal entities, those whose
singleton directions are exactly the sorted tuple kappa, and all 2^d
keys are present.  So the cells are `entities[()]`, the j-orthogonal
hyperfaces `entities[(j,)]` and the anchors live in one bucket; readers
look a bucket up instead of filtering by orientation.  The entities of a
valid mesh are pairwise disjoint as point sets and their union is the
closed domain.

Point and containment queries, and the T-junction valences, are lookups
in the skeleton masks (`skeleton_mask`), d bool rasters on the
half-integer lattice, exact because every entity bound is an integer; an
open entity's points follow one rule (`_open_lattice`).  The cell around
a lattice point is a lookup in `entities[()]` (`_cell_at`, which
`find_cell_containing`, the T-junction probe and
`check_three_direction_assumption` share): every cell component is a
tensor interval or a repeated integer half of one, so a bisection in the
breakpoints and a walk down the halves give the few candidates.  A
domain may hold at most `MAX_LATTICE_POINTS` lattice points,
prod_k (2 N_k + 1), so each mask stays within 16 MiB; `IndexDomain`
raises `ValueError` past it.  A cold mesh paints each mask in one array
pass (`_closure_mask`) with `_paint_boxes`, the one box painter of the
package, which also paints the abstract extensions of
`suitability._slice_rasters`: a +-1 scatter at the boxes' corners
(`_box_corners`, the one corner routine, which the anchors' count-table
reads use too), then running sums, here in a count array of one byte per
point (two for d > 8) that holds only the planes with faces on the
mask's own axis.  So the build peaks at that array and its nonzero test
above the masks it returns, at most about a byte per lattice point up to
d = 8, plus 16 d bytes per hyperface of one direction for their
flattened bounds, about 12 more per hyperface while each face's plane is
numbered, and the corner offsets of one chunk of boxes: 2^17 int64
(1 MiB), and at most as much again for their concatenation.  Measured,
keep: `corpus-classify` 203.8 -> 186.5 ops/s painting one slice per
hyperface.  The sums cost O(lattice) per direction when every plane
holds a face, so `subdiv` grows a child's mask by slices instead, as a
step adds only a few hyperfaces.  The lattice does not bound the
complex, so a mesh may also hold at most `MAX_ENTITIES` entities: at
most about 170 MiB at the 88-168 bytes an entity costs at peak while a
tensor mesh is built (README).  `create_tensor_mesh` and `subdiv` raise `MeshError` past it,
before they build anything.  numpy is imported only when a raster is
built, so building, refining, saving and loading a mesh, and the
three-direction check, never load it.

Meshes are immutable; refinement returns a new mesh and records a replay
log.  Derived structures (lattice rasters, T-junction tables, anchor
arrays, the extension-box table, pair scans) are memoized per instance,
each once, by the function that builds it, under one string key.  What
is only a window, filter or verdict over a memoized structure (a global
or local knot vector, a support, one junction's extension, the
SGAS/WGAS/SDC/WDC and admissibility verdicts) is read off it or built on
each call, and AAS is scanned on each call.
The memo is build-once and safe for concurrent readers.  The box queries (`hull_in_skeleton`,
`open_entity_meets_skeleton`, `anchors.global_knot_vector`) take closed
integer boxes of the domain and raise for any other (`check_index_box`).

Refinement is local, and `subdiv` hands the child the parts of its
parent's masks and tables that the bisection provably leaves unchanged.
A "measured, keep" note gives the benchmark with and without a rule (an
ablation on a 2-vCPU host, `--seconds 5`, 4-6 alternated pairs, unless
it says otherwise).  Bisecting a
cell at x_j = m replaces, inside the closed refinement box D, the
entities whose j-component is the cell's by their halves and middles.
As point sets nothing moves: the skeletons grow only by the hyperfaces
{x_j = m} over the split cells, and only the split cells change: mask
j grows at the closed middles, all inside D & {x_j = m}, and no other
mask changes.  So:

- skeleton masks, one entry holding all d: a split k-hyperface's
  closure is the union of its halves' and middle's, so mask k != j is
  shared by identity (read-only); mask j is copied and grown by those
  hyperfaces.
- `"tjunctions"`, the table, is the sorted merge of three parts.  A
  parent junction t is carried as is unless its closure meets
  D & {x_j = m} or its associated cell was split.  The four valence
  reads sit half a lattice step from t's closure, and a closed integer
  box that holds such a point meets that closure, so no middle holds
  one: t keeps its valence and directions.  The associated cell is the
  cell that holds t's midpoint stepped half a lattice step across the
  missing half-face, so it changes only if it was split.  Every other
  parent junction that is still an entity of the child is re-probed
  (`topology.probe_tjunctions`); the replaced ones are dropped.  The
  new (d-2)-entities, the halves of replaced (d-2)-entities and the
  middles of replaced hyperfaces, are probed.  No other entity needs a
  probe: the masks only grow, so a valence never falls, and an old
  entity of valence 4 stays at 4.  Measured, keep: `conj-stream` 1650
  -> 1490 ops/s re-probing every junction whose closure meets D off j.
- `"gtj_table"`, the extension-box table, is carried by row: the child
  gets `"gtj_rows"`, (junction, box) pairs of the parent's table, and
  `suitability._gtj_table` builds only the junctions without a row, one
  `gtj` each, and drops the rows (a mesh given no rows reads every box
  in one batch).  Rows come only from a table the parent built: a
  parent that never read its own rows hands on none, and no workload
  bisects such a parent (a spy on one cycle of `conj-stream` and of
  `corpus-classify` found none).  The
  row of a parent junction t is carried when t's closure misses closed
  D in a direction other than j: t then keeps its record, by the
  argument above, and every knot vector its extension reads, as each
  is read over a line through t's closure, from mask k != j (shared) or
  from mask j away from D (unchanged).  It is also carried when t's
  child record equals the parent's and m is not strictly inside the
  box's j-span.  Masks k != j are shared, so only the direction-j knot
  vector can change, and only by gaining m; a window whose span does
  not strictly contain m keeps its entries (a truncated one ends at 0
  or N_j, and 0 < m < N_j), and so do its adjacency and fit checks,
  which read the window and the record.  Measured, keep: `conj-stream`
  1745 -> 1625 ops/s with the first rule alone (10 pairs at
  `--seconds 15`) and 1157 -> 1061 without any carry (on per-junction
  entries); the batch takes 0.6-0.9 ms on a stream candidate, whose
  whole step takes about 0.6 ms with the rows.
- Every other entry is rebuilt when it is first asked for.  Knot
  vectors are not memoized, so none is carried.  Measured: carrying the
  per-line knot vectors a bisection leaves unchanged, while they were
  memoized, moved `conj-stream` within its noise once the extension rows
  were carried (10 pairs at `--seconds 15`: 1432 [1400-1498] ops/s with,
  1377 without).
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .regions import BoxRegion, DimensionMismatch, Scalar, hull_inside

if TYPE_CHECKING:  # numpy loads with the first raster, not with the module
    import numpy as np

Entity = tuple  # d components (a, b) of ints: a == b singleton, a < b interval

MAX_LATTICE_POINTS = 1 << 24  # prod_k (2 N_k + 1) a domain may have
MAX_ENTITIES = 1 << 20        # entities of all dimensions a mesh may have


class MeshError(Exception):
    """Base class for mesh construction and refinement errors."""


class NotACell(MeshError):
    """The entity passed to subdiv is not a d-cell of the mesh."""


class CellOutsideActiveRegion(MeshError):
    """Refinement target is not contained in the active region."""


class NonIntegerMidpoint(MeshError):
    """Bisection midpoint is not an integer; the configuration is disallowed."""


class DimensionTooSmall(MeshError):
    """Operation requires a higher-dimensional mesh."""


# ---------------------------------------------------------------------------
# domain and mesh

@dataclass(frozen=True)
class IndexDomain:
    """Box-shaped index domain with degrees and parametric knots.

    parametric_knots[k] maps index i to the knot value xi_i in direction
    k; it defaults to the identity and must be strictly increasing, also
    after conversion to float.  float_knots[k] holds those floats, which
    spline evaluation reads.
    """

    extents: tuple
    degrees: tuple
    parametric_knots: tuple = None
    float_knots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        extents = tuple(int(n) for n in self.extents)
        degrees = tuple(int(p) for p in self.degrees)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "degrees", degrees)
        if len(extents) != len(degrees):
            raise ValueError("extents and degrees must have equal length")
        if not extents:
            raise ValueError("a domain needs at least one direction")
        if any(n <= 0 for n in extents):
            raise ValueError("extents must be positive")
        points = math.prod(2 * n + 1 for n in extents)
        if points > MAX_LATTICE_POINTS:
            raise ValueError(f"extents {extents} need {points} lattice points, "
                             f"more than the limit of {MAX_LATTICE_POINTS}")
        if any(p < 0 for p in degrees):
            raise ValueError("degrees must be non-negative")
        for k, (n, p) in enumerate(zip(extents, degrees)):
            if n < 2 * self.frame_width(k) + 1:
                raise ValueError(
                    f"extent {n} too small for degree {p}: active region empty")
        if self.parametric_knots is None:
            knots = tuple(tuple(Fraction(i) for i in range(n + 1)) for n in extents)
            floats = tuple(tuple(float(i) for i in range(n + 1)) for n in extents)
        else:
            knots = tuple(tuple(Fraction(x) for x in seq) for seq in self.parametric_knots)
            if len(knots) != len(extents):
                raise ValueError(f"need {len(extents)} parametric_knots lists, "
                                 f"got {len(knots)}")
            for n, seq in zip(extents, knots):
                if len(seq) != n + 1:
                    raise ValueError("parametric_knots[k] must have N_k + 1 entries")
                if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)):
                    raise ValueError("parametric knots must be strictly increasing")
                if max(-seq[0], seq[-1]) > sys.float_info.max:
                    raise ValueError("parametric knots must fit in a float")
            # spline evaluation is float: knots equal as floats would give
            # zero-width spans and a spuriously deficient rank
            floats = tuple(tuple(float(x) for x in seq) for seq in knots)
            if any(f[i] >= f[i + 1] for f in floats for i in range(len(f) - 1)):
                raise ValueError("parametric knots must be distinct as floats")
        object.__setattr__(self, "parametric_knots", knots)
        object.__setattr__(self, "float_knots", floats)

    @property
    def dim(self) -> int:
        return len(self.extents)

    def frame_width(self, k: int) -> int:
        return (self.degrees[k] + 1) // 2

    def active_spans(self) -> tuple:
        return tuple((self.frame_width(k), n - self.frame_width(k))
                     for k, n in enumerate(self.extents))


@dataclass(frozen=True, eq=False)
class TMesh:
    """Immutable entity complex plus the refinement log that rebuilds it."""

    domain: IndexDomain
    breakpoints: tuple                 # initial tensor breakpoints per direction
    entities: dict                     # sorted singleton dirs -> frozenset
    refinement_log: tuple = ()         # ((cell, direction), ...)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def cells(self) -> frozenset:
        return self.entities[()]

    def memo(self, key, build):
        """Build-once memo; idempotent builds make races harmless."""
        try:
            return self._memo[key]
        except KeyError:
            value = build()
            self._memo[key] = value
            return value


def _check_entity_count(count: int) -> None:
    if count > MAX_ENTITIES:
        raise MeshError(f"the mesh would have {count} entities, more than "
                        f"the limit of {MAX_ENTITIES}")


def create_tensor_mesh(domain: IndexDomain, breakpoints: Sequence[Sequence[int]] | None = None) -> TMesh:
    """Initial tensor-product mesh from per-direction breakpoint sequences.

    Breakpoints default to every integer 0..N_k.  Each direction needs at
    least two breakpoints, starting at 0 and ending at N_k.
    """
    if breakpoints is None:
        breakpoints = [range(n + 1) for n in domain.extents]
    if len(breakpoints) != domain.dim:
        raise MeshError(f"need {domain.dim} breakpoint lists, got {len(breakpoints)}")
    bps = []
    for k, seq in enumerate(breakpoints):
        seq = tuple(int(x) for x in seq)
        n = domain.extents[k]
        if len(seq) < 2:
            raise MeshError(f"direction {k}: need at least 2 breakpoints")
        if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)):
            raise MeshError(f"direction {k}: breakpoints must be strictly increasing")
        if seq[0] != 0 or seq[-1] != n:
            raise MeshError(f"direction {k}: breakpoints must run from 0 to {n}")
        bps.append(seq)
    _check_entity_count(math.prod(2 * len(seq) - 1 for seq in bps))
    singletons = [[(v, v) for v in seq] for seq in bps]
    intervals = [list(zip(seq, seq[1:])) for seq in bps]
    d = domain.dim
    # the kappa-orthogonal entities: singletons on kappa, intervals off it
    entities = {kappa: frozenset(itertools.product(
                    *(singletons[k] if k in kappa else intervals[k]
                      for k in range(d))))
                for r in range(d + 1)
                for kappa in itertools.combinations(range(d), r)}
    return TMesh(domain=domain, breakpoints=tuple(bps), entities=entities)


def subdiv(mesh: TMesh, cell: Entity, j: int) -> TMesh:
    """Symmetric bisection of a cell in direction j.

    The refinement box D extends through the frame to the domain boundary
    in every other direction where the cell touches the active-region
    boundary; every entity inside D sharing the cell's j-component is
    replaced by its three children.  The child starts with the parent's
    memo entries that this leaves unchanged (see the module docstring).
    """
    dom = mesh.domain
    d = dom.dim
    if not 0 <= j < d:
        raise ValueError(f"direction {j} out of range")
    if cell not in mesh.cells:
        raise NotACell(f"{cell!r} is not a cell of this mesh")
    box = []   # D: the cell's closure, widened off j through the frame
    for k, (lo, hi) in enumerate(cell):
        f, n = dom.frame_width(k), dom.extents[k]
        if lo < f or hi > n - f:
            raise CellOutsideActiveRegion(
                f"cell {cell!r} leaves the active region in direction {k}")
        box.append((lo, hi) if k == j else
                   (0 if lo == f else lo, n if hi == n - f else hi))
    a, b = cell[j]
    if (a + b) % 2:
        raise NonIntegerMidpoint(f"cell {cell!r} has odd width in direction {j}")
    m = (a + b) // 2

    qj = (a, b)
    replaced = {kappa: [e for e in bucket if e[j] == qj and hull_inside(e, box)]
                for kappa, bucket in mesh.entities.items() if j not in kappa}
    # each replaced entity becomes two halves and a middle
    _check_entity_count(sum(map(len, mesh.entities.values()))
                        + 2 * sum(map(len, replaced.values())))
    added = {}   # per bucket: the halves (no j) or the middles (with j)
    for kappa, old in replaced.items():
        added[kappa] = [e[:j] + (half,) + e[j + 1:] for e in old
                        for half in ((a, m), (m, b))]
        added[tuple(sorted(kappa + (j,)))] = [e[:j] + ((m, m),) + e[j + 1:]
                                              for e in old]
    entities = dict(mesh.entities)
    for kappa, new in added.items():
        entities[kappa] = entities[kappa].difference(
            replaced.get(kappa, ())).union(new)
    child = TMesh(domain=dom,
                  breakpoints=mesh.breakpoints,
                  entities=entities,
                  refinement_log=mesh.refinement_log + ((cell, j),))
    _seed_memo(mesh, child, j, m, box, replaced, added)
    return child


def _misses(e: Entity, others: list) -> bool:
    """Does e's closure miss closed D in one of the `others` directions,
    (k, lo, hi) triples for every k != j?"""
    for k, lo, hi in others:
        if e[k][1] < lo or e[k][0] > hi:
            return True
    return False


def _seed_memo(parent: TMesh, child: TMesh, j: int, m: int, box: list,
               replaced: dict, added: dict) -> None:
    """Hand the child the parent's memo entries that bisecting at x_j = m
    inside the refinement box `box` (D) leaves unchanged, and the
    T-junction table re-probed where it may change; `replaced` and
    `added` are the entities the bisection took out and put in, per
    bucket.  Mask j grows only at the closed middles, all in
    D & {x_j = m}, so:

    - a parent junction is re-probed only if its closure meets
      D & {x_j = m} (its valence reads sit half a lattice step from its
      closure, and a closed integer box holding such a point meets it)
      or its associated cell was split (replaced); the new
      (d-2)-entities are probed too;
    - the row of t in the parent's extension-box table is carried under
      `"gtj_rows"` as (t, box) when t misses D off j, or when t's child
      record is the parent's and m is not strictly inside the box's
      j-span: the direction-j knot vector can only gain m.  A parent
      that never built its table hands on no rows.

    The module docstring gives the full argument and the measurements."""
    memo = parent._memo
    if not memo:
        return
    seeded = child._memo
    if "skeleton_mask" in memo:
        masks = memo["skeleton_mask"]
        grown = masks[j].copy()
        for f in added[(j,)]:   # the middles of the split cells
            grown[tuple(slice(2 * lo, 2 * hi + 1) for lo, hi in f)] = True
        grown.setflags(write=False)
        seeded["skeleton_mask"] = masks[:j] + (grown,) + masks[j + 1:]
    others = [(k, lo, hi) for k, (lo, hi) in enumerate(box) if k != j]
    records = {}
    if "tjunctions" in memo and "skeleton_mask" in memo:
        from .topology import ClassificationAmbiguous, probe_tjunctions

        gone = set(itertools.chain.from_iterable(replaced.values()))
        carried = []
        probed = {ij: [] for ij in itertools.combinations(range(child.dim), 2)}
        for t in memo["tjunctions"]:
            e = t.entity
            near = e[j][0] <= m <= e[j][1] and not _misses(e, others)
            if near and e in gone:
                continue   # replaced: its halves are probed below
            if near or t.ascell in gone:
                probed[min(t.odir, t.pdir), max(t.odir, t.pdir)].append(e)
            else:
                carried.append(t)
        for kappa, new in added.items():
            if len(kappa) == 2:   # halves of (d-2)-entities, middles of hyperfaces
                probed[kappa] += new
        try:
            seeded["tjunctions"] = tuple(sorted(
                carried + probe_tjunctions(child, probed),
                key=lambda t: t.entity))
            records = {t.entity: t for t in seeded["tjunctions"]}
        except ClassificationAmbiguous:
            pass   # a cold build reports the smallest corrupt entity
    if "gtj_table" in memo:
        tjs, boxes = memo["gtj_table"]
        seeded["gtj_rows"] = [
            (t, row) for t, row in zip(tjs, boxes.tolist())
            if (not row[j][0] < m < row[j][1] and records.get(t.entity) == t)
            or _misses(t.entity, others)]


def find_cell_containing(mesh: TMesh, point: Sequence[Scalar]) -> Entity:
    """The unique cell whose open box contains the (strictly interior)
    point: `_cell_at` its `_lattice_index` in every direction."""
    if len(point) != mesh.dim:
        raise DimensionMismatch("point dimension mismatch")
    cell = _cell_at(mesh, [_lattice_index(x) for x in point])
    if cell is None:
        # as the mesh file writes numbers: (3, 7/2)
        text = ", ".join(str(Fraction(x)) for x in point)
        raise MeshError(f"no cell strictly contains ({text})")
    return cell


def _cell_at(mesh: TMesh, lattice: Sequence[int]) -> Entity | None:
    """The cell whose open box holds lattice point `lattice` (index g
    stands for g/2), or None when the point lies on a skeleton or
    outside the open domain.

    A lookup, exact because `create_tensor_mesh` and `subdiv` only ever
    make components that are tensor intervals (between consecutive
    breakpoints) or repeated integer halves of one.  So in each direction
    the candidates are the tensor interval strictly around g/2, found by
    bisection, and the halves below it that still hold g/2 strictly, down
    to an odd width; their product is looked up in `mesh.cells`, and no
    cell is iterated.  g lies in the open (a, b) exactly when
    2a < g < 2b."""
    per_dir = []
    for g, bps in zip(lattice, mesh.breakpoints):
        i = bisect_right(bps, g // 2)
        if not (0 < i < len(bps) and 2 * bps[i - 1] < g):
            return None
        a, b = bps[i - 1], bps[i]
        comps = [(a, b)]
        while (b - a) % 2 == 0 and g != a + b:   # g/2 off the midpoint
            m = (a + b) // 2
            a, b = (a, m) if g < 2 * m else (m, b)
            comps.append((a, b))
        per_dir.append(comps)
    cells = mesh.cells
    for cell in itertools.product(*per_dir):
        if cell in cells:
            return cell
    return None


# ---------------------------------------------------------------------------
# regions, skeletons, admissibility

def active_region(mesh: TMesh) -> BoxRegion:
    return BoxRegion(mesh.dim, [mesh.domain.active_spans()])


def frame_region(mesh: TMesh) -> BoxRegion:
    """Closure of the domain minus the active region (union of 2d slabs)."""
    return BoxRegion(mesh.dim, [box for k in range(mesh.dim)
                                if mesh.domain.frame_width(k)
                                for box in frame_region_k(mesh, k).boxes])


def frame_region_k(mesh: TMesh, k: int) -> BoxRegion:
    """The two frame slabs of direction k."""
    dom = mesh.domain
    n = dom.extents[k]
    f = dom.frame_width(k)
    full = [(0, m) for m in dom.extents]
    boxes = [tuple(full[:k]) + ((0, f),) + tuple(full[k + 1:]),
             tuple(full[:k]) + ((n - f, n),) + tuple(full[k + 1:])]
    return BoxRegion(dom.dim, boxes)


def skeleton(mesh: TMesh, j: int) -> BoxRegion:
    """Union of the closures of all j-orthogonal hyperfaces."""
    return BoxRegion(mesh.dim, mesh.entities[(j,)])


def skeleton_mask(mesh: TMesh, j: int) -> np.ndarray:
    """Boolean raster of the j-orthogonal skeleton on the half-integer lattice.

    Lattice point g (integer vector, g_k in 0..2 N_k) stands for the
    point g/2.  Because every entity has integer bounds, containment of a
    closed integer box in the skeleton is equivalent to all its lattice
    points being set, which makes the raster an exact query structure.
    One pass over the hyperfaces builds all d masks, memoized together as
    one tuple (`_closure_mask`, one array pass per direction); every mask
    is read-only, because refinement shares them with children.  A
    direction outside 0..d-1 raises `ValueError`.
    """
    if not 0 <= j < mesh.dim:   # the tuple would wrap a negative j
        raise ValueError(f"direction {j} out of range for a mesh of "
                         f"dimension {mesh.dim}")

    def build():
        shape = tuple(2 * n + 1 for n in mesh.domain.extents)
        return tuple(_closure_mask(mesh.entities[(k,)], k, shape)
                     for k in range(mesh.dim))
    return mesh.memo("skeleton_mask", build)[j]


def _closure_mask(faces: frozenset, k: int, shape: tuple) -> np.ndarray:
    """Read-only bool raster of `shape` holding the closures of the
    k-orthogonal hyperfaces `faces`.  `_paint_boxes` paints each closure,
    a box over the d-1 other axes, on a raster whose axis k holds only
    the planes x_k = a of the faces, and those planes are then written at
    2a on axis k of the mask: the running sums cost the planes, not the
    whole lattice.

    The faces are disjoint, so a point lies in at most 2^(d-1) closures,
    one per open orthant of the plane; the count wraps around in an
    unsigned dtype of at least d bits (uint8 up to d = 8, uint16 for
    every d the lattice limit admits) and stays exact."""
    import numpy as np

    d = len(shape)
    # the faces' bounds, flattened once and made lattice starts and
    # stops in place: (faces, d, 2)
    bounds = np.fromiter(itertools.chain.from_iterable(
        itertools.chain.from_iterable(faces)), dtype=np.int64,
        count=2 * d * len(faces)).reshape(-1, d, 2)
    bounds *= 2
    bounds[..., 1] += 1   # past the closure
    # the planes that hold faces, and each face's plane as a row of them
    # (int32 holds the lattice limit)
    held = np.zeros(shape[k], dtype=bool)
    held[bounds[:, k, 0]] = True
    bounds[:, k, 0] = np.cumsum(held, dtype=np.int32)[bounds[:, k, 0]]
    bounds[:, k, 0] -= 1
    count = _paint_boxes(shape[:k] + (np.count_nonzero(held),) + shape[k + 1:],
                         bounds[..., 0], bounds[..., 1],
                         [i for i in range(d) if i != k],
                         np.uint8 if d <= 8 else np.uint16)
    mask = np.zeros(shape, dtype=bool)
    np.moveaxis(mask, k, 0)[held] = np.moveaxis(count, k, 0) != 0
    mask.setflags(write=False)
    return mask


def _box_corners(start: np.ndarray, stop: np.ndarray, shape: tuple,
                 axes: Sequence[int]) -> tuple:
    """Flat offsets, in a C-order raster of `shape`, of each box's
    corners on `axes` (start[b, k] or stop[b, k] on axis k, start[b, k]
    off `axes`), as (even, odd) lists of arrays by the parity of the
    stops among a corner's indices.  Every start must lie inside the
    raster; a corner whose stop is past the last index of its axis is
    dropped, and only then is an array shorter than the boxes."""
    import numpy as np

    strides = np.array([math.prod(shape[k + 1:]) for k in range(len(shape))],
                       dtype=np.int64)
    # (offsets, kept or None for all)
    even, odd = [(start @ strides, None)], []
    for k in axes:
        step = (stop[:, k] - start[:, k]) * strides[k]
        inside = stop[:, k] < shape[k]
        moved = [(c + step, inside if keep is None else keep & inside)
                 for c, keep in even + odd]
        even, odd = even + moved[len(even):], odd + moved[:len(even)]
    for corners in (even, odd):
        for i, (c, keep) in enumerate(corners):   # one copy at a time
            corners[i] = c if keep is None else c[keep]
    return even, odd


def _paint_boxes(shape: tuple, start: np.ndarray, stop: np.ndarray,
                 axes: Sequence[int], dtype) -> np.ndarray:
    """How many boxes cover each point of a raster of `shape` and
    `dtype`.

    Box b spans [start[b, k], stop[b, k]) on each axis k in `axes` and
    the single index start[b, k] on every other axis; every start must
    lie inside the raster.  A box painting is the inverse of a
    summed-area table (Crow, SIGGRAPH 1984): each box scatters +1 and -1
    at its 2^len(axes) corners (`_box_corners`, which drops the corners
    past the raster: they would only cancel beyond it), and a running
    sum along each of `axes` counts the boxes over each point.  The
    boxes go `MAX_LATTICE_POINTS` >> (len(axes) + 7) at a time, so one
    chunk's int64 corner offsets take 1 MiB whatever the raster's size:
    a chunk sized by the raster made the many boxes of the small
    abstract-extension rasters take many scatter calls."""
    import numpy as np

    count = np.zeros(shape, dtype=dtype)
    flat = count.reshape(-1)
    one = count.dtype.type(1)   # a Python int takes add.at's generic path
    chunk = MAX_LATTICE_POINTS >> (len(axes) + 7)
    for s in range(0, len(start), chunk):
        even, odd = _box_corners(start[s:s + chunk], stop[s:s + chunk],
                                 shape, axes)
        np.add.at(flat, np.concatenate(even), one)
        if odd:
            np.subtract.at(flat, np.concatenate(odd), one)
    for k in axes:
        np.add.accumulate(count, axis=k, out=count)
    return count


def check_index_box(mesh: TMesh, box: Sequence[Sequence[int]]) -> None:
    """Raise unless the box has one (a, b) pair per direction with
    0 <= a <= b <= N_k, so a raster slice neither wraps nor comes back
    empty for a box outside the closed domain."""
    if len(box) != mesh.dim:
        raise DimensionMismatch(
            f"box of dim {len(box)} in a mesh of dim {mesh.dim}")
    for k, ((a, b), n) in enumerate(zip(box, mesh.domain.extents)):
        if not 0 <= a <= b <= n:
            raise ValueError(f"bounds ({a}, {b}) of direction {k} are not "
                             f"within 0 <= a <= b <= {n}")


def hull_in_skeleton(mesh: TMesh, j: int, hull: Sequence[Sequence[int]]) -> bool:
    """Exact test: closed integer box inside the j-orthogonal skeleton."""
    check_index_box(mesh, hull)
    mask = skeleton_mask(mesh, j)
    sel = tuple(slice(2 * a, 2 * b + 1) for a, b in hull)
    return bool(mask[sel].all())


def open_entity_meets_skeleton(mesh: TMesh, j: int, entity: Entity) -> bool:
    """Exact test: does the open entity intersect the j-orthogonal skeleton?"""
    check_index_box(mesh, entity)
    return bool(skeleton_mask(mesh, j)[_open_lattice(entity)].any())


def _open_lattice(entity: Entity) -> tuple:
    """The lattice points of the open entity, as raster slices: a
    singleton {a} is point 2a, an interval (a, b) points 2a+1..2b-1."""
    return tuple(slice(2 * a, 2 * a + 1) if a == b else slice(2 * a + 1, 2 * b)
                 for a, b in entity)


def _lattice_index(x: Scalar) -> int:
    """2x for an integer x, else 2*floor(x) + 1: the skeleton-lattice index
    that integer entity bounds cannot tell apart from x."""
    return 2 * math.floor(x) + (x != math.floor(x))


def point_in_skeleton(mesh: TMesh, j: int, point: Sequence[Scalar]) -> bool:
    """Exact membership for an arbitrary rational point, read at its
    `_lattice_index` in every direction."""
    if len(point) != mesh.dim:
        raise DimensionMismatch("point dimension mismatch")
    index = []
    for x, n in zip(point, mesh.domain.extents):
        g = _lattice_index(x)
        if not 0 <= g <= 2 * n:
            return False  # also keeps negative indices from wrapping
        index.append(g)
    return bool(skeleton_mask(mesh, j)[tuple(index)])


def orth_entities(mesh: TMesh, kappa: Iterable[int]) -> frozenset:
    """All entities whose singleton directions are exactly `kappa`."""
    kset = tuple(sorted(set(kappa)))
    if any(k < 0 or k >= mesh.dim for k in kset):
        raise ValueError(f"directions {kset} out of range")
    return mesh.entities[kset]


def is_admissible(mesh: TMesh) -> tuple[bool, tuple]:
    """Check frame slices and frame T-junctions; returns (ok, violations).

    Violations are ("slice_not_in_skeleton", k, n) or
    ("tjunction_in_frame", k, entity).
    Read on each call from the complete slices and the memoized
    T-junctions.
    """
    from .anchors import complete_slices
    from .topology import find_tjunctions

    dom = mesh.domain
    violations = []
    for k, n_k in enumerate(dom.extents):
        f = dom.frame_width(k)
        full = complete_slices(mesh, k)
        violations += [("slice_not_in_skeleton", k, n)
                       for n in [*range(0, f + 1), *range(n_k - f, n_k + 1)]
                       if n not in full]
    if mesh.dim >= 2:
        for tj in find_tjunctions(mesh):
            for k in (tj.odir, tj.pdir):
                f = dom.frame_width(k)
                t = tj.entity[k][0]
                if t <= f or t >= dom.extents[k] - f:
                    violations.append(("tjunction_in_frame", k, tj.entity))
    return (not violations, tuple(violations))


def check_three_direction_assumption(mesh: TMesh) -> bool:
    """Every active cell has active neighbor cells in at least 3 directions.

    The cells across one face of a cell q share one tensor interval per
    direction, so they lie in one cell of the initial tensor mesh, and
    the cells of a tensor cell are all active or all inactive: `subdiv`
    bisects only components that lie in the active span, so a tensor cell
    that crosses the frame boundary has only cells that cross it.  One
    `_cell_at` lookup decides a face, at the all-odd lattice point just
    past it over q's lowest unit cube."""
    if mesh.dim < 3:
        raise DimensionTooSmall("needs at least 3 directions")
    active = mesh.domain.active_spans()

    def across(q: Entity, i: int) -> bool:
        at = [2 * a + 1 for a, _ in q]
        for g in (2 * q[i][0] - 1, 2 * q[i][1] + 1):
            at[i] = g
            other = _cell_at(mesh, at)
            if other is not None and hull_inside(other, active):
                return True
        return False

    return all(sum(across(q, i) for i in range(mesh.dim)) >= 3
               for q in mesh.cells if hull_inside(q, active))


# ---------------------------------------------------------------------------
# convenience constructors

def build_framed_mesh(degrees: Sequence[int],
                      active_breakpoints: Sequence[Sequence[int]],
                      parametric_knots: Sequence[Sequence] | None = None) -> TMesh:
    """Admissible tensor mesh: unit frame bands around a given active grid.

    `active_breakpoints[k]` are breakpoints of the active region relative
    to its own origin (starting at 0); the domain adds a fully sliced
    frame of width (p_k+1)//2 on both sides.
    """
    degrees = tuple(int(p) for p in degrees)
    extents = []
    bps = []
    for k, seq in enumerate(active_breakpoints):
        seq = sorted(int(x) for x in seq)
        f = (degrees[k] + 1) // 2
        n = seq[-1] + 2 * f
        extents.append(n)
        shifted = [x + f for x in seq]
        bps.append(sorted(set(range(0, f + 1)) | set(shifted) | set(range(n - f, n + 1))))
    domain = IndexDomain(extents=tuple(extents), degrees=degrees,
                         parametric_knots=parametric_knots)
    return create_tensor_mesh(domain, bps)


def dyadic_active_breakpoints(cells: int, levels: int) -> list:
    """Breakpoints for `cells` active cells pre-scaled by 2**levels,
    so `levels` rounds of bisection keep integer midpoints."""
    step = 1 << levels
    return [i * step for i in range(cells + 1)]
