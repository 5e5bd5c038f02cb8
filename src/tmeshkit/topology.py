"""T-junction detection and classification, plus combinatorial search helpers.

A T-junction is a (d-2)-dimensional interior entity of valence 3: it
bounds three hyperfaces instead of four.  It carries an orthogonal
direction (the singleton component strictly inside its associated cell),
a pointing direction (the singleton component on the cell boundary), and
the unique associated cell itself.  Detection reads only the lattice
rasters of `tmeshkit.mesh` (`skeleton_mask`, `cell_labels`), with array
gathers per (i, j)-orthogonal bucket and no Python loop per entity; the
direct scans it replaces are kept as `tmeshkit.verify.tjunctions_oracle`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .mesh import (Entity, MeshError, TMesh, cell_labels, entity_hull,
                   point_in_skeleton, skeleton_mask)
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

    Valence is four skeleton-mask probes, one per half-face around t, at
    the lattice points beside t; they run as array gathers over the
    interior entities of each (i, j)-orthogonal bucket.  A missing
    i-orthogonal half-face makes i the orthogonal direction and the other
    singleton direction the pointing one; the cell label at its probe is
    the associated cell.  When several entities are corrupt, the smallest
    is reported.
    """
    def build():
        d = mesh.dim
        if d < 2:
            return ()
        masks = [skeleton_mask(mesh, k) for k in range(d)]
        extents = np.array(mesh.domain.extents)
        flat = itertools.chain.from_iterable
        found, odirs, pdirs, probes, errors = [], [], [], [], []
        for i, j in itertools.combinations(range(d), 2):
            ents = list(mesh.entities[(i, j)])
            lo = np.fromiter(flat(flat(ents)), np.int64,
                             2 * d * len(ents))[::2].reshape(-1, d)
            ij = [i, j]
            sel = np.flatnonzero(((0 < lo[:, ij]) & (lo[:, ij] < extents[ij]))
                                 .all(axis=1))
            # beside t: 2a on its singletons i and j, 2a + 1 inside an interval
            base = 2 * lo[sel] + 1
            base[:, ij] -= 1
            # probes 0, 1 step along j and read the i-mask; 2, 3 the reverse
            around = np.repeat(base[None], 4, axis=0)
            around[0, :, j] -= 1
            around[1, :, j] += 1
            around[2, :, i] -= 1
            around[3, :, i] += 1
            odir = np.array([i, i, j, j])
            present = np.stack([masks[o][tuple(p.T)] for o, p in zip(odir, around)])
            valence = present.sum(axis=0)
            errors += [(ents[r], f"entity {ents[r]!r} has valence {v}; "
                                 f"complex is corrupted")
                       for r, v in zip(sel[valence < 3], valence[valence < 3])]
            three = np.flatnonzero(valence == 3)
            missing = present[:, three].argmin(axis=0)
            found += [ents[r] for r in sel[three]]
            odirs.append(odir[missing])
            pdirs.append(i + j - odir[missing])
            probes.append(around[missing, three])
        out = []
        if found:
            labels, cells = cell_labels(mesh)
            label = labels[tuple(np.concatenate(probes).T)]
            errors += [(t, f"entity {t!r} has no associated cell")
                       for t, c in zip(found, label) if c < 0]
            out = [TJunction(entity=t, odir=int(o), pdir=int(p),
                             ascell=cells[c], valence=3)
                   for t, o, p, c in zip(found, np.concatenate(odirs),
                                         np.concatenate(pdirs), label)]
        if errors:
            raise ClassificationAmbiguous(min(errors)[1])
        return tuple(sorted(out, key=lambda t: t.entity))
    return mesh.memo("tjunctions", build)


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
        window = _segment_box_window(x, y, entity_hull(tj.entity))
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
