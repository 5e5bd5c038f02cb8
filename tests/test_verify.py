import numpy as np
import pytest

from tmeshkit import fixtures as fx
from tmeshkit.dualcompat import is_sdc, is_wdc
from tmeshkit.mesh import build_framed_mesh, hull_in_skeleton, is_admissible
from tmeshkit.suitability import atj_slice, is_sgas, is_wgas
from tmeshkit.verify import (RankReport, atj_slice_oracle,
                             child_anchor_inheritance, complete_slices,
                             crosscheck_aas_sdc, crosscheck_sgas_aas,
                             dc_scan_oracle,
                             evaluation_matrix, gtj_disjointness_oracle,
                             linear_independence_rank, mesh_stream,
                             partition_of_unity, random_admissible_mesh,
                             rank_verdict_stable, replay_prefix,
                             unity_sample_bounds,
                             wgas_wdc_counterexample_search)


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
    from tmeshkit.verify import _gauss_points
    from tmeshkit.mesh import hull_inside

    active = mesh.domain.active_spans()
    cells = [c for c in mesh.cells if hull_inside(c, active)]
    pts = _gauss_points(mesh, cells)
    mat = evaluation_matrix(mesh, pts)
    doubled = np.hstack([mat, mat[:, :1]])
    svals = np.linalg.svd(doubled, compute_uv=False)
    rank = int((svals > 1e-8 * svals[0]).sum())
    assert rank == mat.shape[1] < doubled.shape[1]


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
    fixtures = [fx.opposing_hanging_pair(2, 1)[0], fx.corner_tjunction_triple()[0],
                fx.crossing_hanging_edges((3, 2, 1))[0], fx.corner_cascade()[0],
                fx.running_example_3d()[0], fx.band_gap_mesh("partial")[0]]
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
    fixtures = [fx.opposing_hanging_pair(2, 1)[0], fx.corner_tjunction_triple()[0],
                fx.crossing_hanging_edges((3, 2, 1))[0], fx.corner_cascade()[0],
                fx.running_example_3d()[0], fx.band_gap_mesh("partial")[0]]
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


def test_atj_slices_equal_oracle_bytes(corpus200):
    # the oracle's intersection set normalizes to the same boxes, in order
    for _, mesh in corpus200["meshes"][:10]:
        for j in range(mesh.dim):
            for n in range(mesh.domain.extents[j] + 1):
                assert (atj_slice(mesh, j, n).region.boxes
                        == atj_slice_oracle(mesh, j, n).normalize().boxes)
