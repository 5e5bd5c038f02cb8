import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tmeshkit import fixtures as fx
from tmeshkit.anchors import global_knot_vector
from tmeshkit.mesh import (IndexDomain, TMesh, build_framed_mesh, cell_labels,
                           create_tensor_mesh, hull_inside, singleton_dirs,
                           skeleton_mask, subdiv)
from tmeshkit.suitability import gtj, is_wgas
from tmeshkit.topology import (ClassificationAmbiguous, PreconditionViolated,
                               find_separating_tjunction, find_tjunctions,
                               min_connecting_box, tjunctions_by_odir)
from tmeshkit.verify import (mesh_stream, random_admissible_mesh, replay_prefix,
                             tjunctions_oracle)


def refined2d():
    dom = IndexDomain(extents=(8, 8), degrees=(1, 1))
    mesh = create_tensor_mesh(dom, [[0, 2, 4, 6, 8]] * 2)
    return subdiv(mesh, ((2, 4), (2, 4)), 0)


def test_tensor_mesh_has_no_tjunctions():
    dom = IndexDomain(extents=(8, 8), degrees=(1, 1))
    mesh = create_tensor_mesh(dom, [[0, 2, 4, 6, 8]] * 2)
    assert find_tjunctions(mesh) == ()


def test_hanging_vertices_after_one_bisection():
    mesh = refined2d()
    tjs = find_tjunctions(mesh)
    assert {t.entity for t in tjs} == {((3, 3), (2, 2)), ((3, 3), (4, 4))}
    by_entity = {t.entity: t for t in tjs}
    low = by_entity[((3, 3), (2, 2))]
    assert (low.odir, low.pdir, low.ascell) == (0, 1, ((2, 4), (0, 2)))
    high = by_entity[((3, 3), (4, 4))]
    assert (high.odir, high.pdir, high.ascell) == (0, 1, ((2, 4), (4, 6)))
    assert all(t.valence == 3 for t in tjs)
    assert tjunctions_by_odir(mesh, 1) == ()


def test_hanging_edge_3d_directions():
    # a half-depth cut of one block: the hanging edges run along direction 2,
    # orthogonal to direction 3 and pointing in direction 1
    mesh = build_framed_mesh((1, 1, 1), [[0, 2, 4], [0, 2], [0, 2]])
    mesh = subdiv(mesh, ((1, 3), (1, 3), (1, 3)), 2)
    tjs = find_tjunctions(mesh)
    # the cut extends through the y-frame, so its hanging edge has one
    # copy per y-cell; all share the same directions
    assert {t.entity for t in tjs} == {((3, 3), (0, 1), (2, 2)),
                                       ((3, 3), (1, 3), (2, 2)),
                                       ((3, 3), (3, 4), (2, 2))}
    assert {(t.odir, t.pdir) for t in tjs} == {(2, 0)}
    mid = next(t for t in tjs if t.entity == ((3, 3), (1, 3), (2, 2)))
    assert mid.ascell == ((3, 5), (1, 3), (1, 3))


def test_valences_are_three_or_four():
    # the oracle counts hyperfaces by scan and raises off valences 3 and 4
    # (the criterion-12 stream is checked candidate by candidate below)
    meshes = [refined2d(), fx.corner_tjunction_triple()[0],
              fx.crossing_hanging_edges((3, 2, 1))[0], fx.corner_cascade()[0],
              fx.running_example_3d()[0], fx.band_gap_mesh("partial")[0]]
    for mesh in meshes:
        assert find_tjunctions(mesh) == tjunctions_oracle(mesh)


def test_masks_carried_across_subdiv_equal_fresh_builds():
    # every candidate of the criterion-12 stream's first meshes, kept or not,
    # and of a few short 4-D chains; the oracles read the same buckets as
    # production, so the buckets are checked here against the orientation
    # of each entity and a replay.  What subdiv carried is the candidate's
    # memo before `keep` reads it, and each carried entry must equal a
    # build on the replayed mesh
    candidates, kept = [], {}

    def keep(m):
        candidates.append((m, dict(m._memo)))
        ok = is_wgas(m)[0]
        if ok:
            kept[m.breakpoints, m.refinement_log] = m
        return ok

    list(mesh_stream(424243, 3, max_steps=18, keep=keep))
    for s in (1, 2):
        random_admissible_mesh(s, dim=4, degrees=(1, 2, 1, 0), levels=1,
                               base_cells=(2, 2, 2, 2), max_steps=10, keep=keep)
    assert any(m.dim == 4 for m, seeded in candidates if "tjunctions" in seeded)
    shared = 0
    carried = Counter()
    for m, seeded in candidates:
        parent = kept.get((m.breakpoints, m.refinement_log[:-1]))
        j = m.refinement_log[-1][1]
        fresh = replay_prefix(m, len(m.refinement_log))
        assert len(m.entities) == 2 ** m.dim
        for kappa, bucket in m.entities.items():
            assert all(singleton_dirs(e) == kappa for e in bucket)
        assert m.entities == fresh.entities
        for k in range(m.dim):
            mask = skeleton_mask(m, k)
            assert not mask.flags.writeable
            assert np.array_equal(mask, skeleton_mask(fresh, k))
            if parent is not None:
                # the premise of the T-junction carry: masks only grow
                assert not (skeleton_mask(parent, k) & ~mask).any()
                if k != j:
                    assert mask is skeleton_mask(parent, k)  # shared, not rebuilt
                    shared += 1
        if "cell_labels" in seeded:
            labels, cells = seeded["cell_labels"]
            fresh_labels, fresh_cells = cell_labels(fresh)
            assert not labels.flags.writeable
            assert sorted(cells) == sorted(fresh_cells)
            # equal as maps from lattice point to cell (or to no cell, -1)
            index = {q: n for n, q in enumerate(fresh_cells)}
            relabel = np.array([index[q] for q in cells] + [-1])
            assert np.array_equal(relabel[labels], fresh_labels)
            carried["cell_labels"] += 1
        oracle = tjunctions_oracle(fresh)
        fresh_tjs = {t.entity: t for t in find_tjunctions(fresh)}
        whole = tuple((0, n) for n in m.domain.extents)
        for key, value in seeded.items():
            kind = key if isinstance(key, str) else key[0]
            assert kind in ("skeleton_mask", "cell_labels", "tjunctions",
                            "gkv", "gtj")
            if kind == "tjunctions":
                assert value == find_tjunctions(fresh) == oracle
            elif kind == "gkv":
                # keyed by an entity of the child, never a replaced one
                e = key[1]
                assert e == whole or e in m.entities[singleton_dirs(e)]
                assert value == global_knot_vector(fresh, key[1], key[2])
            elif kind == "gtj":
                assert key[1] in fresh_tjs   # still a T-junction
                assert value == gtj(fresh, fresh_tjs[key[1]])
            carried[kind] += 1
        assert find_tjunctions(m) == oracle
    assert shared > 0
    assert min(carried[kind] for kind in ("cell_labels", "tjunctions", "gkv",
                                          "gtj")) > 0


def test_corrupt_complex_is_ambiguous():
    mesh = fx.corner_cascade()[0]
    dropped = ((2, 3), (4, 4))
    assert any(hull_inside(t.entity, dropped) for t in find_tjunctions(mesh))
    entities = dict(mesh.entities)
    entities[(1,)] = entities[(1,)] - {dropped}
    corrupt = TMesh(mesh.domain, mesh.breakpoints, entities)
    # several entities lose a half-face; the smallest one is reported
    message = "entity ((2, 2), (4, 4)) has no associated cell"
    with pytest.raises(ClassificationAmbiguous, match=f"^{re.escape(message)}$"):
        find_tjunctions(corrupt)
    with pytest.raises(ClassificationAmbiguous):
        tjunctions_oracle(corrupt)


def test_separating_tjunction_found():
    mesh = refined2d()
    tj, witness = find_separating_tjunction(mesh, (3, 3), (3, 5), 0)
    assert tj.entity == ((3, 3), (4, 4))
    assert witness.point == (3, 4)
    tj, _ = find_separating_tjunction(mesh, (3, 3), (3, 1), 0)
    assert tj.entity == ((3, 3), (2, 2))
    # postconditions hold
    assert tj.odir == 0
    assert Fraction(3) != Fraction(1)


def test_separating_tjunction_preconditions():
    mesh = refined2d()
    with pytest.raises(PreconditionViolated):
        find_separating_tjunction(mesh, (3, 3), (3, 3), 0)  # x == y
    with pytest.raises(PreconditionViolated):
        find_separating_tjunction(mesh, (3, 3), (Fraction(7, 2), 3), 0)  # x_i != y_i
    with pytest.raises(PreconditionViolated):
        find_separating_tjunction(mesh, (3, 5), (3, 3), 0)  # x not in skeleton
    with pytest.raises(PreconditionViolated):
        find_separating_tjunction(mesh, (3, 3), (3, 2), 0)  # y in skeleton


@pytest.mark.parametrize("i", [2, 5, -2, -1])
def test_separating_tjunction_refuses_directions_outside_the_mesh(i):
    # these ended in IndexError (2, 5) and ValueError (-2), and -1 wrapped
    # around to direction 1
    mesh = fx.corner_cascade()[0]
    with pytest.raises(PreconditionViolated, match="out of range"):
        find_separating_tjunction(mesh, (3, 3), (3, 5), i)


def test_min_connecting_box():
    e1 = ((0, 1), (2, 2))
    assert min_connecting_box(e1, e1) == (("open", 0, 1), ("point", 2, 2))
    e2 = ((3, 4), (2, 2))
    assert min_connecting_box(e1, e2) == (("closed", 1, 3), ("point", 2, 2))
    e3 = ((0, 4), (0, 0))
    e4 = ((2, 6), (5, 5))
    assert min_connecting_box(e3, e4) == (("open", 2, 4), ("closed", 0, 5))
