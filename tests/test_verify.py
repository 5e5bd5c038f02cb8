import itertools
import types

import numpy as np
import pytest
from propertysuites import child_anchor_inheritance

from tmeshkit import fixtures as fx
from tmeshkit import verify
from tmeshkit.dualcompat import is_sdc, is_wdc
from tmeshkit.anchors import anchor_set
from tmeshkit.mesh import (build_framed_mesh, hull_in_skeleton, hull_inside,
                           is_admissible)
from tmeshkit.splines import tspline_eval
from tmeshkit.suitability import (atj_slice, is_aas, is_sgas, is_wgas,
                                  _slice_rasters)
from tmeshkit.verify import (RankReport, aas_oracle, atj_slice_oracle,
                             complete_slices,
                             crosscheck_aas_sdc, crosscheck_sgas_aas,
                             dc_scan_oracle,
                             evaluation_matrix, gtj_disjointness_oracle,
                             linear_independence_rank, mesh_stream,
                             partition_of_unity, random_admissible_mesh,
                             rank_verdict_stable, replay_prefix,
                             unity_sample_bounds,
                             wgas_wdc_counterexample_search, _gauss_points)


def _fixture_meshes():
    return [fx.opposing_hanging_pair(2, 1)[0], fx.corner_tjunction_triple()[0],
            fx.crossing_hanging_edges((3, 2, 1))[0], fx.corner_cascade()[0],
            fx.running_example_3d()[0], fx.band_gap_mesh("partial")[0]]


def _active_cells(mesh):
    active = mesh.domain.active_spans()
    return [c for c in mesh.cells if hull_inside(c, active)]


def test_rank_on_tensor_mesh():
    from tmeshkit.mesh import IndexDomain, create_tensor_mesh

    dom = IndexDomain(extents=(8, 8), degrees=(1, 1))
    mesh = create_tensor_mesh(dom, [[0, 2, 4, 6, 8]] * 2)
    report = linear_independence_rank(mesh)
    assert report.num_anchors == 9
    assert report.rank == 9
    assert report.independent
    assert rank_verdict_stable(report)


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
    monkeypatch.setattr(verify, "MAX_COLLOCATION_ENTRIES",
                        16 * 9 * anchors - 1)
    monkeypatch.setattr(verify, "_gauss_points", None)
    monkeypatch.setattr(verify, "bspline_eval_array", None)
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
    assert report["new_anchors"] > 0
    assert report["ok"], report["failures"]


def test_child_anchor_inheritance_skips_when_assumption_fails():
    refined, info = fx.flat_block_center_split()
    report = child_anchor_inheritance(info["initial"], info["center"], 1)
    assert not report["applicable"]


def test_rank_report_threshold_sweep():
    report = RankReport(num_anchors=3, rank=3, independent=True,
                        singular_values=(1.0, 0.5, 1e-3))
    assert report.rank_at(1e-6) == 3
    assert report.rank_at(1e-2) == 2


def _assert_gas_scans_equal_oracles(mesh):
    assert is_sgas(mesh) == gtj_disjointness_oracle(mesh, False)
    assert is_wgas(mesh) == gtj_disjointness_oracle(mesh, True)


def test_pair_scans_equal_oracles(corpus200):
    # verdicts and witness tuples, in order, on the fixtures, on corpus
    # meshes and on the criterion-12 stream; the geometric scans also on
    # every candidate of that stream, kept or not
    candidates = []

    def keep(m):
        candidates.append(m)
        return is_wgas(m)[0]

    stream = [m for _, m in mesh_stream(424243, 3, max_steps=18, keep=keep)]
    fixtures = _fixture_meshes()
    corpus = [m for _, m in corpus200["meshes"][:20]]
    witnessed = set()
    for mesh in fixtures + corpus + stream:
        for name, ours, oracle in (
                ("sdc", is_sdc(mesh), dc_scan_oracle(mesh, False)),
                ("wdc", is_wdc(mesh), dc_scan_oracle(mesh, True))):
            assert ours == oracle
            if ours[1]:
                witnessed.add(name)
        _assert_gas_scans_equal_oracles(mesh)
        witnessed.update(name for name, (ok, _) in
                         (("sgas", is_sgas(mesh)), ("wgas", is_wgas(mesh)))
                         if not ok)
    for mesh in candidates:
        _assert_gas_scans_equal_oracles(mesh)
    assert witnessed == {"sdc", "wdc", "sgas", "wgas"}


def _aas_bytes(result):
    ok, witnesses = result
    return ok, [(i, n, j, m, region.boxes) for i, n, j, m, region in witnesses]


def test_atj_slices_equal_oracle_bytes(corpus200):
    # the oracle's intersection set normalizes to the same boxes, in order;
    # on every corpus mesh, is_aas equals the pairwise loop over the oracle
    # slices, witness order and region boxes included
    for _, mesh in corpus200["meshes"][:10]:
        for j in range(mesh.dim):
            for n in range(mesh.domain.extents[j] + 1):
                assert (atj_slice(mesh, j, n).region.boxes
                        == atj_slice_oracle(mesh, j, n).normalize().boxes)
    runs = 0
    for _, mesh in corpus200["meshes"]:
        ours = _aas_bytes(is_aas(mesh))
        assert ours == _aas_bytes(aas_oracle(mesh))
        if mesh.dim == 3:
            runs += sum(len(boxes) for *_, boxes in ours[1])
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
    "local_knot_vector", "skeleton_mask"}


@pytest.mark.parametrize("oracle, checked", [
    ("tjunctions_oracle", {"skeleton_mask", "probe_tjunctions",
                           "find_tjunctions", "point_in_skeleton"}),
    ("atj_slice_oracle", ABSTRACT_EXTENSION_PATHS),
    ("aas_oracle", ABSTRACT_EXTENSION_PATHS),
    ("dc_scan_oracle", {"meeting_pairs", "_pair_flags", "knots_overlap",
                        "anchor_arrays", "_line_windows", "_count_table",
                        "_box_corners"}),
    ("gtj_disjointness_oracle", {"meeting_pairs", "_gtj_pairs"}),
])
def test_oracles_reach_none_of_the_paths_they_check(oracle, checked):
    # an oracle that shares code with the path it checks checks nothing
    assert not _names_reached(getattr(verify, oracle)) & checked
