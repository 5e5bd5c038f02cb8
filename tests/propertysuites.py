"""Shared property-check drivers used by the fuzz tests and the acceptance
suite.  Each driver returns a report dict; callers assert on its fields."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from tmeshkit.anchors import (anchor_set, global_knot_vector, index_support,
                              local_knot_vector)
from tmeshkit.dualcompat import knots_overlap
from tmeshkit.mesh import (Entity, TMesh, check_three_direction_assumption,
                           hull_in_skeleton, is_admissible,
                           open_entity_meets_skeleton, point_in_skeleton,
                           subdiv)
from tmeshkit.suitability import gtj, is_wgas
from tmeshkit.topology import find_separating_tjunction, find_tjunctions
from tmeshkit.verify import bisection_options, random_admissible_mesh


def project_entity(entity: Entity, j: int, n: int) -> Entity:
    """Replace the j-th component by the singleton {n}."""
    return entity[:j] + ((n, n),) + entity[j + 1:]


def disjoint_union_violations(mesh: TMesh, samples: int = 10_000,
                              seed: int = 0) -> int:
    """Count sample points covered by a number of entities other than one.

    Points live on the eighth-integer lattice, so float comparisons
    against the integer entity bounds are exact.
    """
    rng = np.random.default_rng(seed)
    d = mesh.dim
    pts = np.stack([rng.integers(0, 8 * n + 1, samples) for n in
                    mesh.domain.extents], axis=-1).astype(float) / 8.0
    counts = np.zeros(len(pts), dtype=np.int64)
    for bucket in mesh.entities.values():
        for e in bucket:
            inside = np.ones(len(pts), dtype=bool)
            for k, (a, b) in enumerate(e):
                x = pts[:, k]
                inside &= (x == a) if a == b else (a < x) & (x < b)
            counts += inside
    return int((counts != 1).sum())


def admissibility_preserved_along_walk(seed: int, steps: int = 12) -> dict:
    """Random refinement walk asserting admissibility after every step."""
    rng = random.Random(seed)
    mesh = random_admissible_mesh(seed, max_steps=0)
    assert is_admissible(mesh)[0]
    done = 0
    for _ in range(steps):
        options = bisection_options(mesh, range(mesh.dim))
        if not options:
            break
        cell, k = rng.choice(options)
        mesh = subdiv(mesh, cell, k)
        ok, violations = is_admissible(mesh)
        if not ok:
            return {"ok": False, "violations": violations, "steps": done}
        done += 1
    return {"ok": True, "steps": done}


def projection_dichotomy_suite(mesh: TMesh) -> dict:
    """On weakly suitable meshes, projections of anchors and junctions at
    indices inside their knot windows are never partially in a skeleton."""
    checked = 0
    entities = [(a, tuple(local_knot_vector(mesh, a, j)
                          for j in range(mesh.dim)))
                for a in anchor_set(mesh)]
    entities += [(t.entity, gtj(mesh, t).vectors) for t in find_tjunctions(mesh)]
    for entity, vectors in entities:
        for j in range(mesh.dim):
            v = vectors[j]
            for m in range(min(v), max(v) + 1):
                proj = project_entity(entity, j, m)
                fully = hull_in_skeleton(mesh, j, proj)
                meets = open_entity_meets_skeleton(mesh, j, proj)
                assert fully or not meets, (entity, j, m)
                checked += 1
    return {"checked": checked}


def sgas_overlap_suite(mesh: TMesh) -> dict:
    """On strongly suitable meshes every junction-touching spline has
    overlapping vectors with the junction in all non-orthogonal dirs."""
    checked = 0
    junctions = [(t, gtj(mesh, t)) for t in find_tjunctions(mesh)]
    for a in anchor_set(mesh):
        supp = index_support(mesh, a)
        for t, ext in junctions:
            hull = t.entity
            if any(max(l1, l2) > min(h1, h2)
                   for (l1, h1), (l2, h2) in zip(supp, hull)):
                continue
            for k in range(mesh.dim):
                if k == t.odir:
                    continue
                va = local_knot_vector(mesh, a, k)
                assert knots_overlap(va, ext.vectors[k]), (a, t.entity, k)
                checked += 1
    return {"checked": checked}


def _interior_unit_midpoints(entity):
    """Midpoints of the unit decomposition of an entity's closure; exact
    witnesses for partial skeleton coverage."""
    import itertools

    per_dir = []
    for a, b in entity:
        if a == b:
            per_dir.append([Fraction(a)])
        else:
            per_dir.append([Fraction(2 * u + 1, 2) for u in range(a, b)])
    return itertools.product(*per_dir)


def abstract_extension_witness_suite(mesh: TMesh, max_points: int = 12) -> dict:
    """Every sampled point of a nonempty abstract extension admits an
    orthogonal separating junction against an anchor of the opposite
    knot-membership class, with the junction's cell reaching between."""
    from tmeshkit.suitability import atj_slice

    anchors = anchor_set(mesh)
    checked = 0
    for i in range(mesh.dim):
        for n in range(mesh.domain.extents[i] + 1):
            region = atj_slice(mesh, i, n).region
            if region.is_empty():
                continue
            points = [tuple(Fraction(lo + hi, 2) for lo, hi in box)
                      for box in region.normalize().boxes[:max_points]]
            for x in points:
                x_in_sk = point_in_skeleton(mesh, i, x)
                anchor = _pick_witness_anchor(mesh, anchors, x, i, n,
                                              want_in_class=not x_in_sk)
                assert anchor is not None, (i, n, x)
                y = _point_of_projection(mesh, anchor, i, n,
                                         in_skeleton=not x_in_sk)
                assert y is not None, (i, n, x, anchor)
                args = (x, y) if x_in_sk else (y, x)
                tj, _ = find_separating_tjunction(mesh, args[0], args[1], i)
                j = tj.pdir
                hull = tj.entity
                proj_hull = project_entity(anchor, i, n)
                cx = [(min(lo, x[k]), max(hi, x[k]))
                      for k, (lo, hi) in enumerate(proj_hull)]
                assert all(max(l1, l2) <= min(h1, h2)
                           for (l1, h1), (l2, h2) in zip(hull, cx))
                qa, qb = tj.ascell[j]
                alo, ahi = anchor[j]
                lo, hi = min(alo, x[j]), max(ahi, x[j])
                assert qa < hi and lo < qb, (tj, anchor, x)
                assert not (alo == ahi == x[j])
                checked += 1
    return {"checked": checked}


def _pick_witness_anchor(mesh, anchors, x, i, n, want_in_class):
    for a in anchors:
        supp = index_support(mesh, a)
        if not all(lo <= xc <= hi for (lo, hi), xc in zip(supp, x)):
            continue
        if (n in global_knot_vector(mesh, a, i)) == want_in_class:
            return a
    return None


def _point_of_projection(mesh, anchor, i, n, in_skeleton):
    proj = project_entity(anchor, i, n)
    for y in _interior_unit_midpoints(proj):
        if point_in_skeleton(mesh, i, y) == in_skeleton:
            return y
    return None


def child_anchor_inheritance(mesh: TMesh, cell: Entity, j: int) -> dict:
    """Check that each anchor created by one bisection inherits a parent:
    an old anchor with identical off-direction local vectors and a
    support containing the child's.

    Applicable when the mesh and its refinement are both weakly
    geometrically suitable and every active cell has active neighbors in
    three directions; failures under satisfied preconditions are hard
    failures.
    """
    refined = subdiv(mesh, cell, j)
    applicable = (mesh.dim >= 3
                  and check_three_direction_assumption(mesh)
                  and is_wgas(mesh)[0] and is_wgas(refined)[0])
    report = {"applicable": applicable, "new_anchors": 0, "failures": []}
    if not applicable:
        return report
    old = anchor_set(mesh)
    old_set = set(old)
    new_anchors = [a for a in anchor_set(refined) if a not in old_set]
    report["new_anchors"] = len(new_anchors)
    dims = [k for k in range(mesh.dim) if k != j]
    for child in new_anchors:
        child_vecs = {k: local_knot_vector(refined, child, k) for k in dims}
        child_supp = index_support(refined, child)
        parent = None
        for a in old:
            if all(local_knot_vector(mesh, a, k) == child_vecs[k] for k in dims):
                parent_supp = index_support(mesh, a)
                if all(pl <= cl and ch <= ph for (pl, ph), (cl, ch)
                       in zip(parent_supp, child_supp)):
                    parent = a
                    break
        if parent is None:
            report["failures"].append(child)
    report["ok"] = not report["failures"]
    return report


def child_anchor_suite(seed: int, wanted_steps: int = 50) -> dict:
    """Accumulate applicable child-anchor inheritance checks over random
    3D refinement steps until `wanted_steps` of them have been verified."""
    rng = random.Random(seed)
    applicable = 0
    failures = []
    mesh_seed = seed
    while applicable < wanted_steps:
        mesh_seed += 1
        mesh = random_admissible_mesh(
            mesh_seed, dim=3, levels=1, base_cells=(2, 2, 2),
            max_steps=rng.randint(0, 4), keep=lambda m: is_wgas(m)[0])
        if not is_wgas(mesh)[0] or not check_three_direction_assumption(mesh):
            continue
        options = bisection_options(mesh, range(3))
        if not options:
            continue
        cell, k = rng.choice(options)
        report = child_anchor_inheritance(mesh, cell, k)
        if not report["applicable"]:
            continue
        applicable += 1
        if not report["ok"]:
            failures.append((mesh_seed, cell, k, report["failures"]))
    return {"applicable": applicable, "failures": failures}
