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

Point and containment queries, and the T-junction probe, are lookups in
the skeleton masks (`skeleton_mask`), d bool rasters on the half-integer
lattice, exact because every entity bound is an integer; an open
entity's points follow one rule (`_open_lattice`).  A domain may hold at
most `MAX_LATTICE_POINTS` lattice points, prod_k (2 N_k + 1), so each
mask, and the one bool raster of `check_three_direction_assumption`,
stays within 16 MiB; `IndexDomain` raises `ValueError` past it.  The
lattice does not bound the complex, so a mesh may also hold at most
`MAX_ENTITIES` entities: about 150 MiB at the ~150 bytes an entity costs
at peak while a tensor mesh is built.  `create_tensor_mesh` and `subdiv`
raise `MeshError` past it, before they build anything.  numpy is
imported only when a raster is built, so building, refining, saving and
loading a mesh never load it.

Meshes are immutable; refinement returns a new mesh and records a replay
log.  Derived structures (lattice rasters, T-junction tables, global
knot vectors per line, anchor arrays, extensions, pair scans) are
memoized per instance, each once, under the function that builds it.
What is only a window, filter or verdict over a memoized structure (a
local knot vector, a support, the SGAS/WGAS/SDC/WDC and admissibility
verdicts) is read off it on each call, and AAS is scanned on each call.
The memo is build-once and safe for concurrent readers.  The box queries (`hull_in_skeleton`,
`open_entity_meets_skeleton`, `anchors.global_knot_vector`) take closed
integer boxes of the domain and raise for any other (`check_index_box`).

Refinement is local, and `subdiv` hands the child every memo entry of
its parent that the bisection provably leaves unchanged.  A "measured,
keep" note gives the benchmark with and without a rule (an ablation on a
2-vCPU host, `--seconds 5`, 4-6 alternated pairs).  Bisecting a
cell at x_j = m replaces, inside the closed refinement box D, the
entities whose j-component is the cell's by their halves and middles.
As point sets nothing moves: the skeletons grow only by the hyperfaces
{x_j = m} over the split cells, and only the split cells change.  So:

- skeleton masks, one entry holding all d: a split k-hyperface's
  closure is the union of its halves' and middle's, so mask k != j is
  shared by identity (read-only); mask j is copied and grown by those
  hyperfaces, all inside closed D.
- `("gkv", line, k)`, a box with its k-component (0, N_k), reads mask k
  over the line's closure.  It is carried when k != j, as mask k is
  shared, and when the line misses closed D in a direction other than
  j, as mask j grew only inside D.  Measured, keep: `conj-stream`
  1205 -> 1114 ops/s without it.
- `("gtj", t)` is carried when t's closure misses closed D in a
  direction other than j.  T-junction detection reads t's valence within
  half a lattice step of its closure, so outside D, where no mask
  changed, and t keeps its directions.  It keeps its associated cell
  too: that cell's closure contains t's, and a split cell lies in D.  So
  every knot vector its extension reads is unchanged by the rule above.
  Measured, keep: `conj-stream` 1157 -> 1061 ops/s without the memo and
  carry, `corpus-classify` flat.
- `"tjunctions"`, the table, is the sorted merge of three parts.  A
  parent junction whose closure misses closed D in a direction other
  than j is carried as is, by the argument for `("gtj", t)`.  Every
  other parent junction that is still an entity of the child is
  re-probed (`topology.probe_tjunctions`); the replaced ones are
  dropped.  The new (d-2)-entities, the halves of replaced
  (d-2)-entities and the middles of replaced hyperfaces, are probed.  No
  other entity needs a probe: the masks only grow, so a valence never
  falls, and an old entity of valence 4 stays at 4.
- A replaced entity lies in D, so the `gtj` keys are entities of the
  child.  A carried line of direction k != j may hold no child entity;
  it stays until a bisection in direction k meets it, so the `gkv` keys
  are at most the lines read on the mesh and its ancestors.  Every
  other entry is rebuilt when it is first asked for.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .regions import Box, BoxRegion, DimensionMismatch, Scalar

if TYPE_CHECKING:  # numpy loads with the first raster, not with the module
    import numpy as np

Component = tuple  # (a, b) ints: a == b singleton, a < b open interval
Entity = tuple     # tuple of d Components

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
# entity helpers

def singleton_dirs(entity: Entity) -> tuple[int, ...]:
    return tuple(k for k, c in enumerate(entity) if c[0] == c[1])


def entity_hull(entity: Entity) -> Box:
    """Closure of the entity as a closed box."""
    return tuple((a, b) for a, b in entity)


def hull_inside(entity: Entity, box: Sequence[Sequence[int]]) -> bool:
    for (a, b), (lo, hi) in zip(entity, box):   # a loop: no generator per call
        if a < lo or b > hi:
            return False
    return True


def entity_contains_point(entity: Entity, point: Sequence[Scalar]) -> bool:
    """Exact membership with open-interval semantics."""
    for (a, b), x in zip(entity, point):
        if a == b:
            if x != a:
                return False
        elif not a < x < b:
            return False
    return True


def project_entity(entity: Entity, j: int, n: int) -> Entity:
    """Replace the j-th component by the singleton {n}."""
    return entity[:j] + ((n, n),) + entity[j + 1:]


# ---------------------------------------------------------------------------
# domain and mesh

@dataclass(frozen=True)
class IndexDomain:
    """Box-shaped index domain with degrees and parametric knots.

    parametric_knots[k] maps index i to the knot value xi_i in direction
    k; it defaults to the identity and must be strictly increasing, also
    after conversion to float.
    """

    extents: tuple
    degrees: tuple
    parametric_knots: tuple = None

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
        for n, p in zip(extents, degrees):
            if n < 2 * ((p + 1) // 2) + 1:
                raise ValueError(
                    f"extent {n} too small for degree {p}: active region empty")
        if self.parametric_knots is None:
            knots = tuple(tuple(Fraction(i) for i in range(n + 1)) for n in extents)
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
                # spline evaluation is float: knots equal as floats would
                # give zero-width spans and a spuriously deficient rank
                floats = [float(x) for x in seq]
                if any(floats[i] >= floats[i + 1] for i in range(len(seq) - 1)):
                    raise ValueError(
                        "parametric knots must be distinct as floats")
        object.__setattr__(self, "parametric_knots", knots)

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
    per_dir = []
    for seq in bps:
        comps = [(v, v) for v in seq]
        comps += [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
        per_dir.append(comps)
    buckets = {kappa: set() for r in range(domain.dim + 1)
               for kappa in itertools.combinations(range(domain.dim), r)}
    for combo in itertools.product(*per_dir):
        buckets[singleton_dirs(combo)].add(combo)
    return TMesh(domain=domain,
                 breakpoints=tuple(bps),
                 entities={kappa: frozenset(s) for kappa, s in buckets.items()})


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
    for k, (a, b) in enumerate(cell):
        f = dom.frame_width(k)
        if a < f or b > dom.extents[k] - f:
            raise CellOutsideActiveRegion(
                f"cell {cell!r} leaves the active region in direction {k}")
    a, b = cell[j]
    if (a + b) % 2:
        raise NonIntegerMidpoint(f"cell {cell!r} has odd width in direction {j}")
    m = (a + b) // 2

    box = [[lo, hi] for lo, hi in cell]
    for k in range(d):
        if k == j:
            continue
        f = dom.frame_width(k)
        if box[k][0] == f:
            box[k][0] = 0
        if box[k][1] == dom.extents[k] - f:
            box[k][1] = dom.extents[k]

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
    _seed_memo(mesh, child, j, qj, box, added)
    return child


def _misses(e: Entity, others: list) -> bool:
    """Does e's closure miss closed D in one of the `others` directions,
    (k, lo, hi) triples for every k != j?"""
    for k, lo, hi in others:
        if e[k][1] < lo or e[k][0] > hi:
            return True
    return False


def _seed_memo(parent: TMesh, child: TMesh, j: int, qj: Component,
               box: list, added: dict) -> None:
    """Hand the child the parent's memo entries that bisecting the cells
    with j-component qj inside the refinement box `box` (D) leaves
    unchanged, and the T-junction table re-probed near D and at `added`,
    the new entities per bucket.  The module docstring says why."""
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
    if "tjunctions" in memo and "skeleton_mask" in memo:
        from .topology import ClassificationAmbiguous, probe_tjunctions

        carried = []
        probed = {ij: [] for ij in itertools.combinations(range(child.dim), 2)}
        for t in memo["tjunctions"]:
            e = t.entity
            if _misses(e, others):
                carried.append(t)
            elif not (e[j] == qj and hull_inside(e, box)):   # not replaced
                probed[min(t.odir, t.pdir), max(t.odir, t.pdir)].append(e)
        for kappa, new in added.items():
            if len(kappa) == 2:   # halves of (d-2)-entities, middles of hyperfaces
                probed[kappa] += new
        try:
            seeded["tjunctions"] = tuple(sorted(
                carried + probe_tjunctions(child, probed),
                key=lambda t: t.entity))
        except ClassificationAmbiguous:
            pass   # a cold build reports the smallest corrupt entity
    for key, value in tuple(memo.items()):   # a snapshot, for concurrent builds
        kind = key[0]   # a string key's first letter matches neither kind
        if (kind == "gkv" and key[2] != j) or (
                kind in ("gkv", "gtj") and _misses(key[1], others)):
            seeded[key] = value


def find_cell_containing(mesh: TMesh, point: Sequence[Scalar]) -> Entity:
    """The unique cell whose open box contains the (strictly interior) point.

    A scan in lattice integers: x lies in the open (a, b) exactly when
    its `_lattice_index` g has 2a < g < 2b.  Replay and `refine` query each
    fresh mesh once, and an index of the cells costs a pass to build."""
    if len(point) != mesh.dim:
        raise DimensionMismatch("point dimension mismatch")
    index = [_lattice_index(x) for x in point]
    for cell in mesh.cells:
        if all(2 * a < g < 2 * b for (a, b), g in zip(cell, index)):
            return cell
    # as the mesh file writes numbers: (3, 7/2)
    text = ", ".join(str(Fraction(x)) for x in point)
    raise MeshError(f"no cell strictly contains ({text})")


# ---------------------------------------------------------------------------
# regions, skeletons, admissibility

def active_region(mesh: TMesh) -> BoxRegion:
    return BoxRegion.from_box(mesh.domain.active_spans())


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
    return BoxRegion(mesh.dim, [entity_hull(e) for e in mesh.entities[(j,)]])


def skeleton_mask(mesh: TMesh, j: int) -> np.ndarray:
    """Boolean raster of the j-orthogonal skeleton on the half-integer lattice.

    Lattice point g (integer vector, g_k in 0..2 N_k) stands for the
    point g/2.  Because every entity has integer bounds, containment of a
    closed integer box in the skeleton is equivalent to all its lattice
    points being set, which makes the raster an exact query structure.
    One pass over the hyperfaces builds all d masks, memoized together as
    one tuple; every mask is read-only, because refinement shares them
    with children.  A direction outside 0..d-1 raises `ValueError`.
    """
    if not 0 <= j < mesh.dim:   # the tuple would wrap a negative j
        raise ValueError(f"direction {j} out of range for a mesh of "
                         f"dimension {mesh.dim}")

    def build():
        import numpy as np

        shape = tuple(2 * n + 1 for n in mesh.domain.extents)
        grids = tuple(np.zeros(shape, dtype=bool) for _ in range(mesh.dim))
        for k, grid in enumerate(grids):
            for e in mesh.entities[(k,)]:
                grid[tuple(slice(2 * a, 2 * b + 1) for a, b in e)] = True
            grid.setflags(write=False)
        return grids
    return mesh.memo("skeleton_mask", build)[j]


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
    Read on each call from the memoized knot vectors and T-junctions.
    """
    from .anchors import global_knot_vector
    from .topology import find_tjunctions

    dom = mesh.domain
    whole = tuple((0, n_k) for n_k in dom.extents)
    violations = []
    for k, n_k in enumerate(dom.extents):
        f = dom.frame_width(k)
        full = global_knot_vector(mesh, whole, k)
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

    One bool raster on the lattice of `skeleton_mask` holds the open
    interiors of the active cells (`_open_lattice`), 1 byte per point."""
    import numpy as np

    if mesh.dim < 3:
        raise DimensionTooSmall("needs at least 3 directions")
    active = mesh.domain.active_spans()
    cells = [q for q in mesh.cells if hull_inside(q, active)]
    inside = np.zeros(tuple(2 * n + 1 for n in mesh.domain.extents),
                      dtype=bool)
    for q in cells:
        inside[_open_lattice(q)] = True
    return all(sum(_has_neighbor(q, i, inside) for i in range(mesh.dim)) >= 3
               for q in cells)


def _has_neighbor(q: Entity, i: int, inside: np.ndarray) -> bool:
    """Is an active cell across one of q's i-orthogonal faces?  The
    lattice slab just past each face, over q's open interior, meets the
    painted interiors of exactly the active cells adjacent to q there."""
    slab = list(_open_lattice(q))
    for g in (2 * q[i][0] - 1, 2 * q[i][1] + 1):
        if 0 <= g < inside.shape[i]:
            slab[i] = g
            if inside[tuple(slab)].any():
                return True
    return False


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
