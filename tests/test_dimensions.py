"""Dimension edges: the machinery is generic in d, so exercise the ends of
the desk-scale range (1D meshes, 4D meshes with 2-dimensional junctions)."""

import pytest
from conftest import crossing_4d_mesh

from tmeshkit.mesh import (IndexDomain, build_framed_mesh, create_tensor_mesh,
                           is_admissible, subdiv)
from tmeshkit.anchors import anchor_set, local_knot_vector
from tmeshkit.dualcompat import is_sdc, is_wdc
from tmeshkit.suitability import is_aas, is_sgas, is_wgas
from tmeshkit.topology import find_tjunctions
from tmeshkit.verify import (aas_oracle, linear_independence_rank,
                             partition_of_unity, random_admissible_mesh)


def _aas_bytes(result):
    ok, witnesses = result
    return ok, [(i, n, j, m, region.boxes) for i, n, j, m, region in witnesses]


def test_one_dimensional_mesh_stack():
    mesh = build_framed_mesh((2,), [[0, 2, 4, 6, 8]])
    assert is_admissible(mesh)[0]
    assert find_tjunctions(mesh) == ()
    mesh = subdiv(mesh, ((3, 5),), 0)
    assert is_admissible(mesh)[0]
    anchors = anchor_set(mesh)
    assert anchors
    assert all(len(local_knot_vector(mesh, a, 0)) == 4 for a in anchors)
    assert is_aas(mesh) == (True, ())
    assert is_sdc(mesh)[0] and is_wdc(mesh)[0]
    report = linear_independence_rank(mesh)
    assert report.independent
    assert partition_of_unity(mesh, samples=200, seed=3) < 1e-10


def test_four_dimensional_mesh_stack():
    mesh = build_framed_mesh((1, 1, 1, 1), [[0, 2, 4]] * 4)
    cell = ((1, 3), (1, 3), (1, 3), (1, 3))
    refined = subdiv(mesh, cell, 3)
    assert is_admissible(refined)[0]
    tjs = find_tjunctions(refined)
    assert tjs
    # junctions are codimension-2: two-dimensional faces here
    assert {sum(1 for a, b in t.entity if a < b) for t in tjs} == {2}
    assert {t.odir for t in tjs} == {3}
    assert {t.pdir for t in tjs} == {0, 1, 2}
    assert all(t.valence == 3 for t in tjs)
    # one orthogonal direction only: strongly suitable, hence the rest
    assert is_sgas(refined)[0] and is_wgas(refined)[0]
    assert is_aas(refined)[0] == is_sdc(refined)[0] == True  # noqa: E712
    assert is_wdc(refined)[0]
    report = linear_independence_rank(refined)
    assert report.independent
    assert partition_of_unity(refined, samples=200, seed=4) < 1e-10


def test_four_dimensional_crossing_extensions():
    # junctions orthogonal to directions 3 and 2 whose abstract extensions
    # meet in a 2-D region, which normalize does not make canonical
    mesh = crossing_4d_mesh()
    assert is_admissible(mesh)[0]
    assert {t.odir for t in find_tjunctions(mesh)} == {2, 3}
    ok, witnesses = is_aas(mesh)
    assert not ok and not is_sdc(mesh)[0]
    assert _aas_bytes((ok, witnesses)) == _aas_bytes(aas_oracle(mesh))
    assert [w[:4] for w in witnesses] == [(2, 2, 3, 2)]
    # an L of two boxes, each spanning directions 0 and 1
    assert witnesses[0][4].boxes == (((0, 5), (3, 5), (2, 2), (2, 2)),
                                     ((3, 5), (0, 3), (2, 2), (2, 2)))


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_four_dimensional_aas_witnesses_equal_oracle(seed):
    mesh = random_admissible_mesh(seed, dim=4, max_steps=14)
    ours = _aas_bytes(is_aas(mesh))
    assert not ours[0] and ours == _aas_bytes(aas_oracle(mesh))
