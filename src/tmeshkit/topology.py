"""T-junction detection and classification, plus combinatorial search helpers.

A T-junction is a (d-2)-dimensional interior entity of valence 3: it
bounds three hyperfaces instead of four.  It carries an orthogonal
direction (the singleton component strictly inside its associated cell),
a pointing direction (the singleton component on the cell boundary), and
the unique associated cell itself.  Detection reads the skeleton masks
of `tmeshkit.mesh` (`skeleton_mask`), plain reads at flat lattice
indices, and looks each junction's associated cell up in the
breakpoints (`mesh._cell_at`): one probe per entity, shared by the cold
build and the carry across `subdiv`.  The direct scans it replaces are
kept as `tmeshkit.verify.tjunctions_oracle`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .mesh import (Entity, MeshError, TMesh, _cell_at, point_in_skeleton,
                   skeleton_mask)
from .regions import Scalar


class ClassificationAmbiguous(MeshError):
    """The complex is corrupted: a hanging entity cannot be classified."""


class PreconditionViolated(MeshError):
    """Arguments do not satisfy the operation's stated preconditions."""


class NotFound(MeshError):
    """No separating T-junction exists; on valid inputs this is a theorem
    violation and indicates a bug."""


@dataclass(frozen=True)
class TJunction:
    entity: Entity
    odir: int
    pdir: int
    ascell: Entity
    valence: int


def find_tjunctions(mesh: TMesh) -> tuple:
    """All T-junctions of the mesh, classified, sorted by entity.

    A cold build probes every (d-2)-entity with `probe_tjunctions`; a mesh
    made by `subdiv` usually starts with the table carried from its
    parent, re-probed only where the bisection can change it
    (`tmeshkit.mesh`).
    """
    def build():
        pairs = itertools.combinations(range(mesh.dim), 2)
        found = probe_tjunctions(mesh, {ij: mesh.entities[ij] for ij in pairs})
        return tuple(sorted(found, key=lambda t: t.entity))
    return mesh.memo("tjunctions", build)


def probe_tjunctions(mesh: TMesh, buckets: dict) -> list:
    """The T-junctions among the (d-2)-entities in `buckets`, which maps a
    pair i < j of directions to entities of the mesh whose singleton
    directions are i and j.

    Valence is four skeleton-mask reads, one per half-face around t, at
    the lattice points beside t: t stands at 2a on a singleton {a} and
    2a + 1 inside an interval (a, b), and the reads step from there along
    j in the i-mask, then along i in the j-mask.  They are plain reads at
    flat lattice indices of memoryviews over the rasters, one Python loop
    step per entity.  A missing i-orthogonal half-face makes i the
    orthogonal direction and the other singleton direction the pointing
    one.  The associated cell q is looked up (`mesh._cell_at`) at t's own
    midpoint stepped half a lattice step along the pointing direction,
    across the missing half-face.  That point lies strictly inside q,
    as q's components hold t's intervals, so the lookup also stops
    walking the halves at t's interval in every direction but i and j; a
    point that no cell holds is an error.  Entities on the
    domain boundary in i or j are skipped.  When several entities are
    corrupt, the smallest is reported.
    """
    if not any(buckets.values()):
        return []
    extents = mesh.domain.extents
    shape = [2 * n + 1 for n in extents]
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    double = [2 * s for s in strides]
    masks = [memoryview(skeleton_mask(mesh, k)).cast("B")
             for k in range(len(shape))]
    found, errors = [], []
    for (i, j), ents in buckets.items():
        ni, nj, si, sj, mi, mj = (extents[i], extents[j], strides[i],
                                  strides[j], masks[i], masks[j])
        interiors = sum(strides) - si - sj   # the + 1 of every interval
        for t in ents:
            if not (0 < t[i][0] < ni and 0 < t[j][0] < nj):
                continue
            g = interiors
            for c, s in zip(t, double):
                g += c[0] * s
            if mi[g - sj] + mi[g + sj] + mj[g - si] + mj[g + si] == 4:
                continue   # most entities: no half-face missing
            present = (mi[g - sj], mi[g + sj], mj[g - si], mj[g + si])
            valence = sum(present)
            if valence != 3:
                errors.append((t, f"entity {t!r} has valence {valence}; "
                                  f"complex is corrupted"))
                continue
            missing = present.index(0)
            odir, pdir = (i, j) if missing < 2 else (j, i)
            beside = [a + b for a, b in t]   # t's midpoint
            beside[pdir] += 1 if missing % 2 else -1
            cell = _cell_at(mesh, beside)
            if cell is None:
                errors.append((t, f"entity {t!r} has no associated cell"))
            else:
                found.append(TJunction(entity=t, odir=odir, pdir=pdir,
                                       ascell=cell, valence=3))
    if errors:
        raise ClassificationAmbiguous(min(errors)[1])
    return found


def tjunctions_by_odir(mesh: TMesh, i: int) -> tuple:
    return tuple(t for t in find_tjunctions(mesh) if t.odir == i)


# ---------------------------------------------------------------------------
# separating T-junction search

@dataclass(frozen=True)
class SeparationWitness:
    """Where the found T-junction's closure meets the probe segment."""
    t_enter: Fraction
    t_exit: Fraction
    point: tuple


def _segment_box_window(x: Sequence, y: Sequence, hull) -> tuple | None:
    """Parameter window [t0, t1] of {x + t (y - x)} inside a closed box."""
    lo_t, hi_t = Fraction(0), Fraction(1)
    for (a, b), xc, yc in zip(hull, x, y):
        dx = yc - xc
        if dx == 0:
            if not a <= xc <= b:
                return None
            continue
        t_a = Fraction(a - xc, dx)
        t_b = Fraction(b - xc, dx)
        t_lo, t_hi = min(t_a, t_b), max(t_a, t_b)
        lo_t, hi_t = max(lo_t, t_lo), min(hi_t, t_hi)
        if lo_t > hi_t:
            return None
    return lo_t, hi_t


def find_separating_tjunction(mesh: TMesh, x: Sequence[Scalar], y: Sequence[Scalar],
                              i: int) -> tuple[TJunction, SeparationWitness]:
    """Between aligned points x in the i-skeleton and y outside it, find an
    i-orthogonal T-junction whose closure meets the segment, whose pointing
    coordinate separates x from y, and whose cell reaches between them.

    Among all valid junctions the one met earliest along the segment from
    x is returned (ties broken by entity order) so output is deterministic.
    """
    if not 0 <= i < mesh.dim:   # a negative i would wrap
        raise PreconditionViolated(f"direction {i} out of range for a mesh "
                                   f"of dimension {mesh.dim}")
    x = tuple(Fraction(v) for v in x)
    y = tuple(Fraction(v) for v in y)
    if len(x) != mesh.dim or len(y) != mesh.dim:
        raise PreconditionViolated("points of wrong dimension")
    if x == y or x[i] != y[i]:
        raise PreconditionViolated("points must differ but agree in direction i")
    if not point_in_skeleton(mesh, i, x):
        raise PreconditionViolated("x must lie in the i-orthogonal skeleton")
    if point_in_skeleton(mesh, i, y):
        raise PreconditionViolated("y must lie outside the i-orthogonal skeleton")

    best = None
    for tj in tjunctions_by_odir(mesh, i):
        if Fraction(tj.entity[i][0]) != x[i]:
            continue
        j = tj.pdir
        if x[j] == y[j]:
            continue
        window = _segment_box_window(x, y, tj.entity)
        if window is None:
            continue
        qa, qb = tj.ascell[j]
        lo, hi = min(x[j], y[j]), max(x[j], y[j])
        if not (qa < hi and lo < qb):  # open cell interval vs closed hull
            continue
        key = (window[0], tj.entity)
        if best is None or key < best[0]:
            point = tuple(xc + window[0] * (yc - xc) for xc, yc in zip(x, y))
            best = (key, tj, SeparationWitness(window[0], window[1], point))
    if best is None:
        raise NotFound(
            "no separating T-junction: theorem violation or invalid mesh")
    return best[1], best[2]


# ---------------------------------------------------------------------------
# minimal connecting box

def min_connecting_box(e1: Entity, e2: Entity) -> tuple:
    """Componentwise minimal box touching both entities.

    Per direction: the component intersection when nonempty, otherwise the
    closed gap interval between the two components.  Components come back
    tagged ("open" | "closed" | "point", lo, hi) because the three cases
    produce sets of different kinds.
    """
    out = []
    for (a1, b1), (a2, b2) in zip(e1, e2):
        inter_lo, inter_hi = max(a1, a2), min(b1, b2)
        nonempty = (inter_lo < inter_hi or
                    (inter_lo == inter_hi and (a1 == b1 or a2 == b2)
                     and a1 <= inter_lo <= b1 and a2 <= inter_lo <= b2))
        if nonempty:
            if inter_lo == inter_hi:
                out.append(("point", inter_lo, inter_hi))
            else:
                out.append(("open", inter_lo, inter_hi))
        elif b1 <= a2:
            out.append(("point", b1, b1) if b1 == a2 else ("closed", b1, a2))
        else:
            out.append(("point", b2, b2) if b2 == a1 else ("closed", b2, a1))
    return tuple(out)
