import random

import fixtures as fx
import numpy as np
import pytest
from conftest import cold_copy, cross_mesh

from tmeshkit import dualcompat
from tmeshkit.anchors import anchor_arrays, anchor_set, global_knot_vector
from tmeshkit.dualcompat import (SameAnchor, _pair_flags, is_sdc, is_wdc,
                                 knots_overlap, strongly_partially_overlap,
                                 weakly_partially_overlap)
from tmeshkit.mesh import build_framed_mesh
from tmeshkit.regions import meeting_pairs
from tmeshkit.verify import overlap_pair_suite


def test_overlap_identity_and_examples():
    assert knots_overlap((0, 2, 3), (0, 2, 3))
    assert knots_overlap((0, 2, 3), (2, 3, 4))
    assert not knots_overlap((0, 2, 4), (0, 3, 4))
    assert knots_overlap((0, 1, 2), (5, 6, 7))  # disjoint hulls embed end to end


def test_overlap_matches_bruteforce_oracle():
    assert overlap_pair_suite(10_000, seed=99) == {"pairs": 10_000,
                                                   "failures": []}


def test_partial_overlap_relations():
    mesh, info = fx.crossing_hanging_edges((3, 2, 1))
    anchors = anchor_set(mesh)
    a = anchors[0]
    with pytest.raises(SameAnchor):
        weakly_partially_overlap(mesh, a, a)
    with pytest.raises(SameAnchor):
        strongly_partially_overlap(mesh, a, a)
    # disjoint supports strongly (and weakly) partially overlap
    tensor = build_framed_mesh((1, 1), [[0, 1, 2, 3, 4, 5, 6], [0, 1, 2]])
    t_anchors = sorted(anchor_set(tensor))
    near, far = t_anchors[0], t_anchors[-1]
    assert strongly_partially_overlap(tensor, near, far)
    assert weakly_partially_overlap(tensor, near, far)


def test_strong_implies_weak_on_fixture_pairs():
    mesh, _ = fx.crossing_hanging_edges((2, 2, 2))
    anchors = anchor_set(mesh)
    rng = random.Random(4)
    for _ in range(300):
        a1, a2 = rng.sample(anchors, 2)
        if strongly_partially_overlap(mesh, a1, a2):
            assert weakly_partially_overlap(mesh, a1, a2)


def test_crossing_edges_wdc_not_sdc():
    for degrees in ((1, 1, 1), (2, 2, 2), (3, 2, 1)):
        mesh, _ = fx.crossing_hanging_edges(degrees)
        ok_wdc, _ = is_wdc(mesh)
        ok_sdc, witnesses = is_sdc(mesh)
        assert ok_wdc and not ok_sdc
        # witnesses carry per-direction diagnoses with >= 2 non-overlaps
        for a1, a2, diag in witnesses:
            misses = sum(1 for _, _, f in diag if not f)
            assert misses >= 2


def test_known_failing_first_component_pair():
    mesh, info = fx.crossing_hanging_edges((3, 2, 1))
    m = info["m"]
    _, witnesses = is_sdc(mesh)
    firsts = {frozenset((a1[0][0], a2[0][0])) for a1, a2, _ in witnesses}
    assert frozenset((m + 1, m + 2)) in firsts


def test_aligned_anchors_share_global_vector():
    mesh, _ = fx.crossing_hanging_edges((3, 2, 1))
    anchors = anchor_set(mesh)
    by_residual = {}
    for a in anchors:
        key = tuple(a[k] for k in range(1, 3))
        by_residual.setdefault(key, []).append(a)
    for key, group in by_residual.items():
        if len(group) < 2:
            continue
        vectors = {global_knot_vector(mesh, a, 0) for a in group}
        assert len(vectors) == 1


def test_tensor_mesh_is_wdc_and_sdc():
    mesh = build_framed_mesh((2, 1), [[0, 1, 2, 3], [0, 1, 2, 3]])
    assert is_wdc(mesh)[0]
    assert is_sdc(mesh)[0]


def test_corner_triple_sdc_matches_aas():
    from tmeshkit.suitability import is_aas

    mesh, _ = fx.corner_tjunction_triple()
    assert is_sdc(mesh)[0] == is_aas(mesh)[0] == True  # noqa: E712


def test_overlap_kernel_runs_once_per_distinct_window_pair(corpus200,
                                                           monkeypatch):
    # a direction's flags read only the two windows, so the kernel sees
    # each distinct (id_a, id_b) pair of a chunk once, and no anchor pair
    calls = []

    def spy(v1, v2, kernel=dualcompat._windows_overlap):
        calls.append(len(v1))
        return kernel(v1, v2)

    monkeypatch.setattr(dualcompat, "_windows_overlap", spy)
    meshes = [m for _, m in corpus200["meshes"][:24]] + [cross_mesh(16)]
    received = pair_directions = 0
    for mesh in map(cold_copy, meshes):
        arrays = anchor_arrays(mesh)
        for j, (windows, ids) in enumerate(zip(arrays.windows,
                                               arrays.window_id)):
            # equal ids name equal rows, and distinct ids distinct rows
            assert np.array_equal(windows[ids], arrays.local[j])
            assert len(set(map(tuple, windows.tolist()))) == len(windows)
        ia, ib = meeting_pairs(arrays.support)
        chunk = dualcompat.PAIR_CHUNK
        expected = [len(set(zip(ids[ia[s:s + chunk]].tolist(),
                                ids[ib[s:s + chunk]].tolist())))
                    for s in range(0, len(ia), chunk)
                    for ids in arrays.window_id]
        calls.clear()
        _pair_flags(mesh)
        assert calls == expected
        received += sum(calls)
        pair_directions += len(ia) * mesh.dim
    assert pair_directions > 100_000
    assert 5 * received < pair_directions, (received, pair_directions)


@pytest.mark.parametrize("chunk", [1, 7])
def test_pair_flags_do_not_depend_on_the_chunk(corpus200, monkeypatch, chunk):
    meshes = [m for _, m in corpus200["meshes"][:12:3]] + [cross_mesh(16)]
    expected = [(_pair_flags(cold_copy(m)), is_sdc(cold_copy(m)),
                 is_wdc(cold_copy(m))) for m in meshes]
    assert any(len(flags[0]) > 7 for flags, _, _ in expected)
    monkeypatch.setattr(dualcompat, "PAIR_CHUNK", chunk)
    for mesh, (flags, sdc, wdc) in zip(meshes, expected):
        chunked = _pair_flags(cold_copy(mesh))
        assert [(a.dtype, a.shape, a.tobytes()) for a in chunked] == [
            (a.dtype, a.shape, a.tobytes()) for a in flags]
        for classify, (ok, witnesses) in ((is_sdc, sdc), (is_wdc, wdc)):
            ok_chunked, chunked_witnesses = classify(cold_copy(mesh))
            assert ok_chunked == ok
            assert tuple(chunked_witnesses) == tuple(witnesses)
