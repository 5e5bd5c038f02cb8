import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import fixtures as fx
import numpy as np
import pytest
from conftest import cross_mesh

from tmeshkit import topology
from tmeshkit.mesh import (IndexDomain, TMesh, build_framed_mesh,
                           create_tensor_mesh, hull_inside, skeleton_mask,
                           subdiv)
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


def singleton_dirs(entity) -> tuple:
    """The directions in which `entity` is a singleton, the key of its
    bucket: the reference the tests check the buckets against."""
    return tuple(k for k, c in enumerate(entity) if c[0] == c[1])


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
    # (the criterion-12 stream is checked candidate by candidate below);
    # the cross mesh's 16-wide tensor cells, halved down to unit width
    # beside unsplit ones, give the associated cell's lookup its longest
    # runs of halves
    meshes = [refined2d(), fx.corner_tjunction_triple()[0],
              fx.crossing_hanging_edges((3, 2, 1))[0], fx.corner_cascade()[0],
              fx.running_example_3d()[0], fx.band_gap_mesh("partial")[0],
              cross_mesh(16), random_admissible_mesh(4, dim=4, max_steps=12)]
    for mesh in meshes:
        tjs = find_tjunctions(mesh)
        assert tjs and tjs == tjunctions_oracle(mesh)


def test_tjunction_probe_at_the_lattice_limit():
    # 4095^2 lattice points, the most a domain may have; with the masks
    # built, the probe reads only them, where an int32 cell-label raster
    # took 64 MiB
    dom = IndexDomain((2047, 2047), (1, 1))
    mesh = create_tensor_mesh(dom, [[0, 1, 1023, 2045, 2046, 2047]] * 2)
    mesh = subdiv(mesh, ((1, 1023), (1, 1023)), 0)
    for k in range(2):
        skeleton_mask(mesh, k)
    tracemalloc.start()
    try:
        tjs = find_tjunctions(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # the bisection runs through the lower frame, so one junction hangs,
    # in a cell 1022 wide in both directions
    assert [(t.entity, t.odir, t.pdir, t.ascell) for t in tjs] == [
        (((512, 512), (1023, 1023)), 0, 1, ((1, 1023), (1023, 2045)))]


@pytest.fixture(scope="module")
def carry_candidates():
    """Every candidate of the criterion-12 stream's first meshes, kept or
    not, and of a few short 4-D chains, as (candidate, the memo `subdiv`
    seeded it with, its parent, the parent's memo, the entities `subdiv`
    handed to `probe_tjunctions`).  The parent is the kept mesh the
    candidate refines, None for a chain's first step; its memo is read
    after `keep` classified it, as it was when the candidate was made."""
    candidates, kept, handed = [], {}, []
    probe = topology.probe_tjunctions

    def spy(mesh, buckets):
        handed.append((mesh, [e for ents in buckets.values() for e in ents]))
        return probe(mesh, buckets)

    def keep(m):
        probed = {e for mesh, ents in handed if mesh is m for e in ents}
        handed.clear()   # the cold builds of the previous candidate
        parent, before = kept.get((m.breakpoints, m.refinement_log[:-1]),
                                  (None, {}))
        candidates.append((m, dict(m._memo), parent, before, probed))
        ok = is_wgas(m)[0]
        if ok:
            kept[m.breakpoints, m.refinement_log] = (m, dict(m._memo))
        return ok

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "probe_tjunctions", spy)
        list(mesh_stream(424243, 3, max_steps=18, keep=keep))
        for s in (1, 2):
            random_admissible_mesh(s, dim=4, degrees=(1, 2, 1, 0), levels=1,
                                   base_cells=(2, 2, 2, 2), max_steps=10,
                                   keep=keep)
    return candidates


def test_masks_carried_across_subdiv_equal_fresh_builds(carry_candidates):
    # the oracles read the same buckets as production, so the buckets are
    # checked here against the orientation of each entity and a replay.
    # What subdiv carried is the candidate's memo before `keep` reads it,
    # and each carried entry must equal a build on the replayed mesh
    candidates = [(m, seeded, parent)
                  for m, seeded, parent, _, _ in carry_candidates]
    assert any(m.dim == 4 for m, seeded, _ in candidates
               if "tjunctions" in seeded)
    shared = 0
    carried = Counter()
    for m, seeded, parent in candidates:
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
        oracle = tjunctions_oracle(fresh)
        fresh_tjs = {t.entity: t for t in find_tjunctions(fresh)}
        for key, value in seeded.items():
            kind = key if isinstance(key, str) else key[0]
            assert kind in ("skeleton_mask", "tjunctions", "gtj_rows")
            if kind == "tjunctions":
                assert value == find_tjunctions(fresh) == oracle
            elif kind == "gtj_rows":
                # (junction, box) rows of the parent's extension-box table
                for t, box in value:
                    assert fresh_tjs.get(t.entity) == t   # its record
                    assert tuple(map(tuple, box)) == gtj(fresh, t).region
                    carried["gtj row"] += 1
            carried[kind] += 1
        assert find_tjunctions(m) == oracle
    assert shared > 0
    assert min(carried[kind] for kind in ("tjunctions", "gtj row")) > 0


def _misses_off(e, box, j):
    """Does e's closure miss the closed box in a direction other than j?"""
    return any(b < lo or a > hi for k, ((a, b), (lo, hi))
               in enumerate(zip(e, box)) if k != j)


def _meets_plane(e, box, j, m):
    """Does e's closure meet the closed box with its j-component cut to
    the plane x_j = m?"""
    return all(a <= (m if k == j else hi) and (m if k == j else lo) <= b
               for k, ((a, b), (lo, hi)) in enumerate(zip(e, box)))


def test_carry_rules_are_exact(carry_candidates):
    # subdiv re-probes a parent junction exactly when its closure meets
    # D & {x_j = m} or its associated cell was split, and carries exactly
    # the rows of the parent's extension-box table whose junction misses
    # D off j, or keeps its record while the box's open j-span misses m.
    # D, the cell's closure widened through the frame where the cell
    # touches the active region's boundary, is rebuilt here
    checked = Counter()
    for m, seeded, parent, before, probed in carry_candidates:
        if "tjunctions" not in before:
            continue
        cell, j = m.refinement_log[-1]
        mid = (cell[j][0] + cell[j][1]) // 2
        dom = m.domain
        box = [(lo, hi) if k == j else
               (0 if lo == dom.frame_width(k) else lo,
                dom.extents[k] if hi == dom.extents[k] - dom.frame_width(k)
                else hi)
               for k, (lo, hi) in enumerate(cell)]
        split = parent.cells - m.cells
        junctions = {t.entity: t for t in before["tjunctions"]}
        expected = {e for e, t in junctions.items()
                    if e in m.entities[singleton_dirs(e)]
                    and (_meets_plane(e, box, j, mid) or t.ascell in split)}
        assert probed & junctions.keys() == expected
        checked["split"] += sum(not _meets_plane(e, box, j, mid)
                                for e in expected)
        records = {t.entity: t for t in find_tjunctions(m)}
        tjs, boxes = before["gtj_table"]
        rows = []
        for t, row in zip(tjs, boxes.tolist()):
            lo, hi = row[j]
            if (records.get(t.entity) == t and not lo < mid < hi
                    or _misses_off(t.entity, box, j)):
                rows.append((t, row))
        assert seeded["gtj_rows"] == rows
        checked["gtj"] += len(rows)
        checked["gtj dropped"] += len(tjs) - len(rows)
    assert min(checked.values()) > 0


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
