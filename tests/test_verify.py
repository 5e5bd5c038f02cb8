import hashlib
import itertools
import random
import tracemalloc
import types
from dataclasses import replace

import fixtures as fx
import numpy as np
import pytest
from conftest import grid2d

from tmeshkit import splines, verify
from tmeshkit.dualcompat import is_sdc, is_wdc
from tmeshkit.anchors import anchor_set
from tmeshkit.mesh import (build_framed_mesh, hull_in_skeleton, hull_inside,
                           is_admissible, subdiv)
from tmeshkit.regions import BoxRegion
from tmeshkit.splines import (RankReport, _gauss_points, evaluation_matrix,
                              linear_independence_rank, rank_verdict_stable,
                              tspline_eval)
from tmeshkit.suitability import is_aas, is_sgas, is_wgas, _slice_rasters
from tmeshkit.verify import (atj_slice_oracle, child_anchor_inheritance,
                             complete_slices, crosscheck_aas_sdc,
                             crosscheck_sgas_aas, mesh_stream,
                             partition_of_unity, random_admissible_mesh,
                             replay_prefix, unity_sample_bounds,
                             wgas_wdc_counterexample_search)


def _fixture_meshes():
    return [fx.opposing_hanging_pair(2, 1)[0], fx.corner_tjunction_triple()[0],
            fx.crossing_hanging_edges((3, 2, 1))[0], fx.corner_cascade()[0],
            fx.running_example_3d()[0], fx.band_gap_mesh("partial")[0]]


def _active_cells(mesh):
    active = mesh.domain.active_spans()
    return [c for c in mesh.cells if hull_inside(c, active)]


def test_rank_on_tensor_mesh():
    report = linear_independence_rank(grid2d())
    assert report.num_anchors == 9
    assert report.rank == 9
    assert report.independent
    assert rank_verdict_stable(report)


def _spy_on_sampling(monkeypatch) -> list:
    """The cell lists `splines._gauss_points` is called with, from now on."""
    sampled, gauss = [], splines._gauss_points

    def spy(mesh, cells):
        sampled.append(list(cells))
        return gauss(mesh, sampled[-1])

    monkeypatch.setattr(splines, "_gauss_points", spy)
    return sampled


def test_an_independent_mesh_is_sampled_once(monkeypatch):
    mesh = fx.running_example_3d()[0]
    sampled = _spy_on_sampling(monkeypatch)
    assert linear_independence_rank(mesh).independent
    assert sampled == [_active_cells(mesh)]


# corpus meshes whose Gauss grid in the active cells has rank < n; all
# are non-SDC, and each has full rank on the unit index cells
# (`test_cli.test_lin_indep_resamples_before_it_says_dependent`)
UNDERSAMPLED = (38, 66, 107, 141, 145, 161, 182)


def test_rank_below_n_resamples_the_unit_index_cells(corpus200, monkeypatch):
    sampled = _spy_on_sampling(monkeypatch)
    for k in UNDERSAMPLED:
        mesh = corpus200["meshes"][k][1]
        report = linear_independence_rank(mesh)
        assert report.independent and rank_verdict_stable(report), k
        assert not is_sdc(mesh)[0], k
        cells, units = sampled[-2:]
        active = mesh.domain.active_spans()
        assert units == list(itertools.product(*(
            [(n, n + 1) for n in range(a, b)] for a, b in active)))
        assert len(units) > len(cells) == len(_active_cells(mesh))
    assert len(sampled) == 2 * len(UNDERSAMPLED)


def test_rank_detects_duplicated_column():
    mesh = build_framed_mesh((1, 1), [[0, 2, 4, 6, 8], [0, 2, 4, 6, 8]])
    pts = _gauss_points(mesh, _active_cells(mesh))
    mat = evaluation_matrix(mesh, pts)
    doubled = np.hstack([mat, mat[:, :1]])
    svals = np.linalg.svd(doubled, compute_uv=False)
    rank = int((svals > 1e-8 * svals[0]).sum())
    assert rank == mat.shape[1] < doubled.shape[1]


def test_evaluation_matrix_equals_pointwise_tspline_eval():
    # every 7th Gauss point of the WDC meshes of two streams, all anchors;
    # tspline_eval is the scalar per-anchor product the tables replace.
    # Single-direction meshes include 3-D ones whose bits change if the
    # directions are multiplied out of order
    checked = 0
    streams = itertools.chain(
        mesh_stream(20260810, 40, max_steps=40),
        mesh_stream(20260810, 12, max_steps=40, direction_mode="single"))
    for _, mesh in streams:
        if not is_wdc(mesh)[0]:
            continue
        pts = _gauss_points(mesh, _active_cells(mesh))[::7]
        mat = evaluation_matrix(mesh, pts)
        expected = [[tspline_eval(mesh, a, x) for a in anchor_set(mesh)]
                    for x in pts]
        assert np.array_equal(mat, np.array(expected))
        checked += mat.size
    assert checked > 0


def test_gauss_points_equal_per_cell_meshgrid():
    def reference(mesh, cells):
        dom = mesh.domain
        blocks = []
        for cell in sorted(cells):
            axes = []
            for k, (a, b) in enumerate(cell):
                xa = float(dom.parametric_knots[k][a])
                xb = float(dom.parametric_knots[k][b])
                g = np.polynomial.legendre.leggauss(dom.degrees[k] + 1)[0]
                axes.append(0.5 * (xa + xb) + 0.5 * (xb - xa) * g)
            grid = np.meshgrid(*axes, indexing="ij")
            blocks.append(np.stack([ax.ravel() for ax in grid], axis=-1))
        return np.concatenate(blocks, axis=0)

    fixtures = _fixture_meshes()
    stream = [m for _, m in mesh_stream(5150, 6, max_steps=12)]
    for mesh in fixtures + stream:
        cells = _active_cells(mesh)
        assert np.array_equal(_gauss_points(mesh, cells), reference(mesh, cells))


def test_collocation_build_peaks_near_the_matrix_size():
    # bicubic 26 x 26 tensor mesh: 10 816 Gauss points x 729 anchors, 7.9 M
    # entries; gathering a whole direction's table at once peaked at 16.1
    # bytes per entry
    mesh = build_framed_mesh((3, 3), [range(27)] * 2)
    points = _gauss_points(mesh, _active_cells(mesh))
    anchor_set(mesh)
    tracemalloc.start()
    try:
        mat = evaluation_matrix(mesh, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.size == 10816 * 729
    assert peak <= 10 * mat.size, peak / mat.size


def test_evaluation_matrix_blocks_keep_every_bit(monkeypatch):
    # the running example's matrix is one block; in blocks of a few rows
    # (the last one short) every entry keeps its bits
    mesh = fx.running_example_3d()[0]
    points = _gauss_points(mesh, _active_cells(mesh))
    whole = evaluation_matrix(mesh, points)
    monkeypatch.setattr(splines, "COLLOCATION_BLOCK_ENTRIES",
                        7 * whole.shape[1])
    assert len(points) % 7
    assert evaluation_matrix(mesh, points).tobytes() == whole.tobytes()


def test_evaluation_matrix_keeps_the_bits_on_parametric_knots():
    # non-identity knots on a refined mesh, sampled at the Gauss points,
    # on the domain's right faces (left-continuous there: in direction 0,
    # of degree 0, the last cells' splines are 1 on the face) and outside
    knots = [[i + 0.25 * i * i for i in range(9)],
             [2.0 ** (i / 4) for i in range(13)]]
    mesh = build_framed_mesh((0, 3), [[0, 2, 4, 6, 8]] * 2,
                             parametric_knots=knots)
    rng = random.Random(11)
    for _ in range(6):
        mesh = subdiv(mesh, *rng.choice(verify.bisection_options(mesh, (0, 1))))
    assert is_admissible(mesh)[0]
    gauss = _gauss_points(mesh, _active_cells(mesh))
    right = np.array([float(k[-1]) for k in mesh.domain.parametric_knots])
    edges = [np.where(np.arange(2) == k, right, gauss[::5]) for k in range(2)]
    outside = np.array([right + 1.0, [-1.0, 0.5], [0.5, right[1] + 0.5]])
    points = np.concatenate([gauss, *edges, right[None], outside])
    mat = evaluation_matrix(mesh, points)
    expected = np.array([[tspline_eval(mesh, a, x) for a in anchor_set(mesh)]
                         for x in points])
    assert mat.tobytes() == expected.tobytes()
    assert mat[len(gauss):len(gauss) + len(edges[0])].any()


def test_evaluation_matrix_of_no_points_is_empty():
    mesh = fx.running_example_3d()[0]
    mat = evaluation_matrix(mesh, np.empty((0, mesh.dim)))
    assert mat.shape == (0, len(anchor_set(mesh)))


def test_partition_of_unity_on_fixtures():
    mesh, _ = fx.running_example_3d()
    assert partition_of_unity(mesh, samples=500, seed=2) < 1e-10
    enlarged, _ = fx.crossing_hanging_edges((3, 2, 1), margin=3)
    assert is_wdc(enlarged)[0]
    assert partition_of_unity(enlarged, samples=500, seed=2) < 1e-10


def test_unity_bounds_require_complete_slices():
    mesh, _ = fx.crossing_hanging_edges((3, 2, 1))  # minimal: no unity region
    with pytest.raises(ValueError):
        unity_sample_bounds(mesh)


def test_complete_slices_equal_slice_by_slice_skeleton_checks():
    fixtures = _fixture_meshes()
    stream = [m for _, m in mesh_stream(5150, 6, max_steps=12)]
    for mesh in fixtures + stream:
        extents = mesh.domain.extents
        for k in range(mesh.dim):
            expected = tuple(
                n for n in range(extents[k] + 1)
                if hull_in_skeleton(mesh, k, [(n, n) if a == k else (0, e)
                                              for a, e in enumerate(extents)]))
            assert complete_slices(mesh, k) == expected


def test_generator_reproducible_and_admissible():
    a = random_admissible_mesh(5, dim=2, max_steps=10)
    b = random_admissible_mesh(5, dim=2, max_steps=10)
    assert a.entities == b.entities
    assert is_admissible(a)[0]
    stream1 = [m.refinement_log for _, m in mesh_stream(9, 5, max_steps=8)]
    stream2 = [m.refinement_log for _, m in mesh_stream(9, 5, max_steps=8)]
    assert stream1 == stream2


@pytest.mark.parametrize("mode", ["Single", "mixes", ""])
def test_generator_refuses_unknown_direction_modes(monkeypatch, mode):
    # refused before the generator draws anything
    monkeypatch.setattr(verify.random, "Random", None)
    with pytest.raises(ValueError, match="'single' or 'mixed'"):
        random_admissible_mesh(3, direction_mode=mode)


@pytest.mark.parametrize("mode", ["mixed", "single"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_option_updates_equal_fresh_listings(monkeypatch, dim, mode):
    # after every accepted step the generator's updated list equals a
    # fresh `bisection_options`; the filter rejects every third candidate
    update = verify.update_bisection_options
    accepted, rejected, checked = [], [], []

    def keep(m):
        ok = (len(accepted) + len(rejected)) % 3 != 2
        (accepted if ok else rejected).append(m)
        return ok

    def update_and_check(options, cell, j, directions):
        update(options, cell, j, directions)
        assert options == verify.bisection_options(accepted[-1], directions)
        checked.append(len(directions))

    monkeypatch.setattr(verify, "update_bisection_options", update_and_check)
    for seed in range(3):
        random_admissible_mesh(seed, dim=dim, direction_mode=mode,
                               max_steps=12 if dim < 4 else 6, keep=keep)
    assert len(checked) == len(accepted) >= 10 and rejected
    assert set(checked) == {1 if mode == "single" else dim}


def test_generators_replay_the_recorded_refinement_logs(corpus200):
    # SHA-256 of the logs as the generator drew them when it listed the
    # options afresh after every accepted step: the criterion-12 stream's
    # first 20 meshes and the first 50 corpus meshes
    def digest(logs):
        return hashlib.sha256(repr(logs).encode()).hexdigest()

    stream = [m.refinement_log for _, m in mesh_stream(
        424243, 20, max_steps=18, keep=lambda c: is_wgas(c)[0])]
    assert digest(stream) == ("e3b0be15485771610cb855b578def6d5"
                              "563f880ad868990553a6b3598b92247d")
    corpus = [m.refinement_log for _, m in corpus200["meshes"][:50]]
    assert digest(corpus) == ("e46f6234ca7f2322ce0885c3bcc202df"
                              "97b098cde2262c91623e0fd73a81e144")


def test_replay_prefix_matches():
    mesh = random_admissible_mesh(13, dim=2, max_steps=9)
    assert replay_prefix(mesh, len(mesh.refinement_log)).entities == mesh.entities
    shorter = replay_prefix(mesh, 1)
    assert len(shorter.refinement_log) == min(1, len(mesh.refinement_log))


def test_crosschecks_on_small_stream():
    meshes = list(mesh_stream(31, 12, max_steps=15))
    rep = crosscheck_aas_sdc(meshes)
    assert rep["ok"] and rep["checked"] == 12
    rep2 = crosscheck_sgas_aas(meshes)
    assert rep2["ok"]


def test_crosscheck_sgas_aas_reports_each_failure(monkeypatch):
    # an AAS verdict of False fails every SGAS mesh at once; an abstract
    # extension outside the domain escapes the geometric one in every
    # direction
    meshes = list(mesh_stream(31, 12, max_steps=15))
    sgas = [(label, m) for label, m in meshes if is_sgas(m)[0]]
    assert sgas
    monkeypatch.setattr(verify, "is_aas", lambda m: (False, ()))
    assert crosscheck_sgas_aas(meshes) == {
        "checked": len(sgas), "skipped": len(meshes) - len(sgas),
        "failures": [{"seed": label, "reason": "sgas mesh not aas"}
                     for label, _ in sgas], "ok": False}
    monkeypatch.setattr(verify, "is_aas", lambda m: (True, ()))
    monkeypatch.setattr(verify, "atj_union", lambda m, i: BoxRegion(
        m.dim, [((-1, -1),) * m.dim]))
    assert crosscheck_sgas_aas(meshes)["failures"] == [
        {"seed": label, "direction": i,
         "reason": "abstract extension escapes geometric"}
        for label, m in sgas for i in range(m.dim)]


def test_property_suites_report_each_failure(monkeypatch):
    # a junction of the other orientation fails every probe.  A junction
    # whose associated cell is the origin reaches nowhere, and with every
    # point in the skeleton no projection point lies across it: either
    # leaves the one extension point of the pair without a witness
    from tmeshkit.topology import find_separating_tjunction

    def other_orientation(mesh, x, y, i):
        tj, witness = find_separating_tjunction(mesh, x, y, i)
        return replace(tj, odir=1 - tj.odir), witness

    mesh = fx.corner_cascade()[0]
    monkeypatch.setattr(verify, "find_separating_tjunction", other_orientation)
    rep = verify.separation_probe_suite(mesh, probes=10, seed=3)
    assert rep["checked"] == 10 and len(rep["failures"]) == 10
    assert all(tj.odir != i for _, _, i, (tj, _) in rep["failures"])

    def nowhere(mesh, x, y, i):
        tj, witness = find_separating_tjunction(mesh, x, y, i)
        return replace(tj, ascell=((0, 0),) * mesh.dim), witness

    pair = fx.opposing_hanging_pair(2, 1)[0]
    for name, fault, reason in (
            ("find_separating_tjunction", nowhere,
             "junction does not reach between"),
            ("point_in_skeleton", lambda mesh, i, point: True,
             "no point of the projection across the skeleton")):
        monkeypatch.setattr(verify, name, fault)
        rep = verify.abstract_extension_witness_suite(pair)
        assert [f[3][0] for f in rep["failures"]] == [reason] * rep["checked"]
        assert rep["checked"] == 1
        monkeypatch.undo()


def test_conjecture_search_runs_and_logs_nothing():
    stream = list(mesh_stream(77, 8, max_steps=10,
                              keep=lambda m: is_wgas(m)[0]))
    rep = wgas_wdc_counterexample_search(stream)
    assert rep["checked"] == 8
    assert rep["wgas"] == 8
    assert rep["candidates"] == []


@pytest.mark.parametrize("k", [0, 4, 9])
def test_shrinker_replays_the_log_once(monkeypatch, k):
    # a mesh that is not WDC from log length k on shrinks to length k in
    # k bisections: each prefix is tested before the next step
    mesh = random_admissible_mesh(13, dim=2, max_steps=9)
    assert len(mesh.refinement_log) == 9
    steps = []

    def subdiv(m, cell, j, original=verify.subdiv):
        steps.append((cell, j))
        return original(m, cell, j)

    monkeypatch.setattr(verify, "subdiv", subdiv)
    monkeypatch.setattr(verify, "is_wgas", lambda m: (True, ()))
    monkeypatch.setattr(verify, "is_wdc",
                        lambda m: (len(m.refinement_log) < k, ()))
    [found] = wgas_wdc_counterexample_search([(0, mesh)])["candidates"]
    assert found["shrunk_log_length"] == k
    assert steps == list(mesh.refinement_log[:k])
    assert found["mesh"].entities == replay_prefix(mesh, k).entities


def test_collocation_limit_is_checked_before_anything_is_built(monkeypatch):
    # over the limit, the rank refuses before it builds the Gauss points
    # (16 active cells of 9 points), and partition of unity before it
    # evaluates its samples
    from tmeshkit.mesh import MeshError

    mesh = build_framed_mesh((2, 2), [[0, 1, 2, 3, 4]] * 2)
    anchors = len(anchor_set(mesh))
    monkeypatch.setattr(splines, "MAX_COLLOCATION_ENTRIES",
                        16 * 9 * anchors - 1)
    monkeypatch.setattr(splines, "_gauss_points", None)
    monkeypatch.setattr(splines, "bspline_eval_array", None)
    with pytest.raises(MeshError, match=f"would have {16 * 9 * anchors} "):
        linear_independence_rank(mesh)
    with pytest.raises(MeshError, match=f"would have {1000 * anchors} "):
        partition_of_unity(mesh, samples=1000)


def test_child_anchor_inheritance_applicable_case():
    mesh = build_framed_mesh((1, 1, 1),
                             [[0, 2, 4], [0, 2, 4], [0, 2, 4]])
    cell = ((1, 3), (1, 3), (1, 3))
    report = child_anchor_inheritance(mesh, cell, 0)
    assert report["applicable"]
    assert report["checked"] > 0
    assert not report["failures"]


def test_child_anchor_inheritance_skips_when_assumption_fails():
    refined, info = fx.flat_block_center_split()
    report = child_anchor_inheritance(info["initial"], info["center"], 1)
    assert not report["applicable"]


def test_rank_report_sweeps_the_thresholds_over_its_singular_values(
        monkeypatch):
    # singular values 1e-7 and 1e-9 between the thresholds: rank 8 of 9 at
    # RANK_THRESHOLD, but 9 at 1e-10 and 7 at 1e-6, so not stable; the
    # identity is stable at full rank
    mesh = grid2d()
    for values, rank, stable in (([1.0] * 9, 9, True),
                                 ([1.0] * 7 + [1e-7, 1e-9], 8, False)):
        monkeypatch.setattr(splines, "evaluation_matrix",
                            lambda m, points, values=values: np.diag(values))
        report = linear_independence_rank(mesh)
        assert report == RankReport(num_anchors=9, rank=rank,
                                    independent=rank == 9, stable=stable)
        assert rank_verdict_stable(report) == stable


def test_pair_scans_equal_oracles(corpus200):
    # verdicts and witness tuples, in order, on the fixtures, on corpus
    # meshes and on the criterion-12 stream; the geometric scans also on
    # every candidate of that stream, kept or not
    candidates = []

    def keep(m):
        candidates.append(m)
        return is_wgas(m)[0]

    stream = [m for _, m in mesh_stream(424243, 3, max_steps=18, keep=keep)]
    meshes = (_fixture_meshes() + [m for _, m in corpus200["meshes"][:20]]
              + stream)
    witnessed = set()
    for mesh in meshes:
        assert not verify.dc_crosscheck(mesh)["failures"]
        witnessed.update(check.__name__ for check in (
            is_sdc, is_wdc, is_sgas, is_wgas) if not check(mesh)[0])
    for mesh in meshes + candidates:
        assert not verify.gas_crosscheck(mesh)["failures"]
    assert witnessed == {"is_sdc", "is_wdc", "is_sgas", "is_wgas"}


def test_atj_slices_equal_oracle_bytes(corpus200):
    # the oracle's intersection set normalizes to the same boxes, in order;
    # on every corpus mesh, is_aas equals the pairwise loop over the oracle
    # slices, witness order and region boxes included; the 3-D witness
    # regions are counted until they hold more than 1000 boxes
    for _, mesh in corpus200["meshes"][:10]:
        assert not verify.atj_slice_crosscheck(mesh)["failures"]
    runs = 0
    for _, mesh in corpus200["meshes"]:
        assert not verify.aas_crosscheck(mesh)["failures"]
        if mesh.dim == 3 and runs <= 1000:
            runs += sum(len(w[4].boxes) for w in is_aas(mesh)[1])
    assert runs > 1000


def test_slice_rasters_paint_the_oracle_slices(corpus200):
    # every slice of every corpus mesh: a live slice's raster is the
    # lattice painting of the oracle's boxes, the closed interval [a, b]
    # at indices 2a..2b; the oracle finds nothing on the other slices
    for _, mesh in corpus200["meshes"]:
        extents = mesh.domain.extents
        for j, (live, raster) in enumerate(_slice_rasters(mesh)):
            assert raster.shape == tuple(len(live) if k == j else 2 * e + 1
                                         for k, e in enumerate(extents))
            for n in range(extents[j] + 1):
                oracle = atj_slice_oracle(mesh, j, n)
                if n not in live:
                    assert oracle.is_empty()
                    continue
                painted = np.zeros(raster.shape[:j] + raster.shape[j + 1:],
                                   dtype=bool)
                for box in oracle.boxes:
                    painted[tuple(slice(2 * a, 2 * b + 1)
                                  for k, (a, b) in enumerate(box)
                                  if k != j)] = True
                p = live.tolist().index(n)
                assert np.array_equal(raster.take(p, axis=j), painted)


def _names_reached(oracle) -> set:
    """Every global and attribute name read by the oracle's code, its
    nested code objects and the `verify` functions they name, transitively."""
    names, seen, todo = set(), set(), [oracle.__code__]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        todo += [f.__code__ for f in map(vars(verify).get, code.co_names)
                 if isinstance(f, types.FunctionType)
                 and f.__module__ == verify.__name__]
    return names


ABSTRACT_EXTENSION_PATHS = {
    "atj_slice", "_slice_region", "_slice_rasters", "is_aas", "anchor_arrays",
    "_line_windows", "_count_table", "_box_corners", "global_knot_vector",
    "local_knot_vector", "skeleton_mask", "_closure_mask", "_paint_boxes",
    "_unique_rows"}


@pytest.mark.parametrize("oracle, checked", [
    ("tjunctions_oracle", {"skeleton_mask", "_closure_mask", "_paint_boxes",
                           "probe_tjunctions", "find_tjunctions",
                           "point_in_skeleton", "_cell_at",
                           "find_cell_containing"}),
    ("atj_slice_oracle", ABSTRACT_EXTENSION_PATHS),
    ("aas_oracle", ABSTRACT_EXTENSION_PATHS),
    ("dc_scan_oracle", {"meeting_pairs", "_pair_flags", "knots_overlap",
                        "_windows_overlap", "_unique_rows", "anchor_arrays",
                        "_line_windows", "_count_table", "_box_corners",
                        "_paint_boxes"}),
    ("gtj_disjointness_oracle", {"meeting_pairs", "_gtj_pairs", "_gtj_table",
                                 "_gtj_boxes", "_line_windows", "_count_table",
                                 "_box_corners", "_paint_boxes"}),
])
def test_oracles_reach_none_of_the_paths_they_check(oracle, checked):
    # an oracle that shares code with the path it checks checks nothing
    assert not _names_reached(getattr(verify, oracle)) & checked
