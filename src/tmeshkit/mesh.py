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

Point and containment queries are lookups in rasters on the half-integer
lattice (`skeleton_mask`, `cell_labels`), exact because every entity
bound is an integer.  A domain may hold at most `MAX_LATTICE_POINTS`
lattice points, prod_k (2 N_k + 1), so one bool raster stays within
16 MiB and the int32 `cell_labels` raster within 64 MiB; `IndexDomain`
raises `ValueError` past it.  numpy is imported only when a raster is
built (and by `check_three_direction_assumption`), so building,
refining, saving and loading a mesh never load it.

Meshes are immutable; refinement returns a new mesh and records a replay
log.  Derived structures (lattice rasters, T-junction tables, knot
vectors) are memoized per instance; the memo is build-once and safe for
concurrent readers.  `subdiv` seeds a child's skeleton masks from its
parent's, when the parent has them: a bisection in direction j only adds
j-orthogonal hyperfaces, so the other masks are shared read-only and the
j-th is copied and grown by the new slabs.
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
    return all(lo <= a and b <= hi for (a, b), (lo, hi) in zip(entity, box))


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
    k; it defaults to the identity and must be strictly increasing.
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
    replaced by its three children.
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
    entities = dict(mesh.entities)
    for kappa, old in replaced.items():
        entities[kappa] = entities[kappa].difference(old).union(
            e[:j] + (half,) + e[j + 1:] for e in old
            for half in ((a, m), (m, b)))
        middles = tuple(sorted(kappa + (j,)))
        entities[middles] = entities[middles].union(
            e[:j] + ((m, m),) + e[j + 1:] for e in old)
    child = TMesh(domain=dom,
                  breakpoints=mesh.breakpoints,
                  entities=entities,
                  refinement_log=mesh.refinement_log + ((cell, j),))
    _seed_skeleton_masks(mesh, child, j, m, replaced[()])
    return child


def _seed_skeleton_masks(parent: TMesh, child: TMesh, j: int, m: int,
                         split_cells: list) -> None:
    """Give the child the parent's skeleton masks, if it has them.

    A bisection in direction j never replaces a j-orthogonal hyperface,
    and a split k-hyperface keeps its closure, so only skeleton j grows:
    by the new hyperface {x_j = m} of each split cell.  The other masks
    are shared, which their read-only flag makes safe.
    """
    if ("skeleton_mask", j) not in parent._memo:
        return  # masks are built, and seeded, all d at once
    masks = [parent._memo[("skeleton_mask", k)] for k in range(child.dim)]
    grown = masks[j].copy()
    for q in split_cells:
        sel = [slice(2 * a, 2 * b + 1) for a, b in q]
        sel[j] = 2 * m
        grown[tuple(sel)] = True
    grown.setflags(write=False)
    masks[j] = grown
    for k, mask in enumerate(masks):
        child._memo[("skeleton_mask", k)] = mask


def find_cell_containing(mesh: TMesh, point: Sequence[Scalar]) -> Entity:
    """The unique cell whose open box contains the (strictly interior) point.

    A scan on purpose: replay and `refine` query each fresh mesh once, and
    on the 694-cell shipped running example a `cell_labels` raster takes
    3 ms to build against 0.2 ms for one scan (2-vCPU Xeon, Python 3.11).
    """
    if len(point) != mesh.dim:
        raise DimensionMismatch("point dimension mismatch")
    for cell in mesh.cells:
        if all(a < x < b for (a, b), x in zip(cell, point)):
            return cell
    raise MeshError(f"no cell strictly contains {point!r}")


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
    One pass over the hyperfaces builds all d masks and memoizes them;
    every mask is read-only, because refinement shares them with children.
    """
    def build():
        import numpy as np

        shape = tuple(2 * n + 1 for n in mesh.domain.extents)
        grids = [np.zeros(shape, dtype=bool) for _ in range(mesh.dim)]
        for k, grid in enumerate(grids):
            for e in mesh.entities[(k,)]:
                grid[tuple(slice(2 * a, 2 * b + 1) for a, b in e)] = True
            grid.setflags(write=False)
            if k != j:
                mesh._memo.setdefault(("skeleton_mask", k), grid)
        return grids[j]
    return mesh.memo(("skeleton_mask", j), build)


def cell_labels(mesh: TMesh) -> tuple[np.ndarray, tuple]:
    """Int32 raster on the lattice of `skeleton_mask` plus the cells it
    indexes: a point inside an open cell holds that cell's position in
    the tuple, every other point -1."""
    def build():
        import numpy as np

        cells = tuple(mesh.cells)
        grid = np.full(tuple(2 * n + 1 for n in mesh.domain.extents), -1,
                       dtype=np.int32)
        for label, q in enumerate(cells):
            grid[tuple(slice(2 * a + 1, 2 * b) for a, b in q)] = label
        grid.setflags(write=False)
        return grid, cells
    return mesh.memo("cell_labels", build)


def hull_in_skeleton(mesh: TMesh, j: int, hull: Sequence[Sequence[int]]) -> bool:
    """Exact test: closed integer box inside the j-orthogonal skeleton."""
    mask = skeleton_mask(mesh, j)
    sel = tuple(slice(2 * a, 2 * b + 1) for a, b in hull)
    return bool(mask[sel].all())


def open_entity_meets_skeleton(mesh: TMesh, j: int, entity: Entity) -> bool:
    """Exact test: does the open entity intersect the j-orthogonal skeleton?"""
    mask = skeleton_mask(mesh, j)
    sel = []
    for a, b in entity:
        if a == b:
            sel.append(slice(2 * a, 2 * a + 1))
        else:
            sel.append(slice(2 * a + 1, 2 * b))
    return bool(mask[tuple(sel)].any())


def point_in_skeleton(mesh: TMesh, j: int, point: Sequence[Scalar]) -> bool:
    """Exact membership for an arbitrary rational point: coordinate x
    reads lattice index 2x if it is an integer and 2*floor(x) + 1
    otherwise, which integer entity bounds cannot tell apart from x."""
    if len(point) != mesh.dim:
        raise DimensionMismatch("point dimension mismatch")
    index = []
    for x, n in zip(point, mesh.domain.extents):
        g = 2 * math.floor(x) + (x != math.floor(x))
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
    """
    def build():
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
    return mesh.memo("admissible", build)


def check_three_direction_assumption(mesh: TMesh) -> bool:
    """Every active cell has active neighbor cells in at least 3 directions."""
    import numpy as np

    if mesh.dim < 3:
        raise DimensionTooSmall("needs at least 3 directions")
    labels, cells = cell_labels(mesh)
    active = mesh.domain.active_spans()
    # one extra False entry, so label -1 (no cell) reads as inactive
    is_active = np.array([hull_inside(c, active) for c in cells] + [False])
    for q, q_active in zip(cells, is_active):
        if q_active and sum(_has_neighbor(q, i, labels, is_active)
                            for i in range(mesh.dim)) < 3:
            return False
    return True


def _has_neighbor(q: Entity, i: int, labels: np.ndarray,
                  is_active: np.ndarray) -> bool:
    """Is an active cell across one of q's i-orthogonal faces?  The
    lattice slab just past each face, over q's open interior, holds the
    labels of exactly the cells adjacent to q there."""
    interior = [slice(2 * a + 1, 2 * b) for a, b in q]
    for g in (2 * q[i][0] - 1, 2 * q[i][1] + 1):
        if 0 <= g < labels.shape[i]:
            interior[i] = g
            if is_active[labels[tuple(interior)]].any():
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
