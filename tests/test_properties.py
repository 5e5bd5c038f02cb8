"""Fuzzed invariants: every mesh built by the refinement algorithm must keep
the complex consistent, and the classifier lemmas must hold on the classes
they are stated for."""

import fixtures as fx
import pytest

from tmeshkit.mesh import is_admissible
from tmeshkit.suitability import atj_slice, is_sgas, is_wgas
from tmeshkit.topology import find_tjunctions
from tmeshkit.verify import (abstract_extension_witness_suite,
                             admissibility_walk_suite, child_anchor_suite,
                             disjoint_union_suite, mesh_stream,
                             projection_dichotomy_suite, random_admissible_mesh,
                             separation_probe_suite, sgas_overlap_suite,
                             tjunction_crosscheck)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_disjoint_union_after_refinement(seed):
    mesh = random_admissible_mesh(seed, max_steps=25)
    assert disjoint_union_suite(mesh, 10_000, seed) == {"checked": 10_000,
                                                        "failures": []}


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_subdiv_preserves_admissibility(seed):
    mesh = random_admissible_mesh(seed, max_steps=12)
    assert admissibility_walk_suite(mesh) == {
        "checked": len(mesh.refinement_log) + 1, "failures": []}


def test_tjunction_valence_is_three_everywhere():
    for _, mesh in mesh_stream(55, 10):
        assert all(t.valence == 3 for t in find_tjunctions(mesh))
        assert not tjunction_crosscheck(mesh)["failures"]


@pytest.mark.parametrize("seed", [9, 14])
def test_separation_probes_never_fail(seed):
    mesh = random_admissible_mesh(seed, max_steps=20)
    assert find_tjunctions(mesh)
    report = separation_probe_suite(mesh, probes=200, seed=seed)
    assert report == {"checked": 200, "failures": []}


def test_projection_dichotomy_on_wgas_meshes():
    count = 0
    for _, mesh in mesh_stream(66, 25, max_steps=12):
        if not is_wgas(mesh)[0]:
            continue
        report = projection_dichotomy_suite(mesh)
        assert report["checked"] > 0 and not report["failures"], report
        count += 1
    assert count >= 5


def test_sgas_overlap_property():
    count = 0
    for _, mesh in mesh_stream(77, 20, max_steps=12,
                               direction_mode="single"):
        if not is_sgas(mesh)[0]:
            continue
        report = sgas_overlap_suite(mesh)
        assert not report["failures"], report
        count += 1
    assert count >= 5


def test_child_anchor_inheritance_fuzz():
    report = child_anchor_suite(range(2000, 2025))
    assert report["checked"] >= 30
    assert not report["failures"]


def test_sgas_equals_wgas_in_2d():
    for _, mesh in mesh_stream(88, 30, max_steps=15, dim=2):
        assert is_sgas(mesh)[0] == is_wgas(mesh)[0]


def test_boundary_slice_extensions_stay_empty():
    # open question resolution: admissible fuzzing never produces an
    # abstract extension inside a frame boundary slice
    for _, mesh in mesh_stream(99, 15, max_steps=15):
        dom = mesh.domain
        for j in range(mesh.dim):
            f = dom.frame_width(j)
            for n in [*range(f + 1), *range(dom.extents[j] - f,
                                            dom.extents[j] + 1)]:
                assert atj_slice(mesh, j, n).region.is_empty()


def test_generated_meshes_admissible():
    for _, mesh in mesh_stream(111, 20, max_steps=30):
        ok, violations = is_admissible(mesh)
        assert ok, violations


def test_abstract_extension_points_admit_junction_witnesses():
    total = 0
    meshes = [fx.opposing_hanging_pair(2, 1)[0], fx.corner_tjunction_triple()[0],
              fx.running_example_3d()[0]]
    for mesh in meshes + [m for _, m in mesh_stream(123, 6, max_steps=14)]:
        report = abstract_extension_witness_suite(mesh)
        assert not report["failures"], report
        total += report["checked"]
    assert total > 0


def test_strong_dc_implies_weak_dc_on_corpus():
    from tmeshkit.dualcompat import is_sdc, is_wdc

    for _, mesh in mesh_stream(131, 25, max_steps=16):
        if is_sdc(mesh)[0]:
            assert is_wdc(mesh)[0]
