import random

import pytest

from tmeshkit import fixtures as fx
from tmeshkit.anchors import anchor_set, global_knot_vector
from tmeshkit.dualcompat import (SameAnchor, is_sdc, is_wdc, knots_overlap,
                                 strongly_partially_overlap,
                                 weakly_partially_overlap)
from tmeshkit.mesh import build_framed_mesh
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
