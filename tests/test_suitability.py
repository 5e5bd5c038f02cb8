import re
from importlib import resources

import pytest
from conftest import crossing_4d_mesh

from tmeshkit import fixtures as fx
from tmeshkit.mesh import TMesh, build_framed_mesh, is_admissible
from tmeshkit.meshio import load_mesh
from tmeshkit.regions import BoxRegion
from tmeshkit.suitability import (NonAdjacentCellBounds, atj_slice, atj_union,
                                  gtj, gtj_union, is_aas, is_sgas, is_wgas)
from tmeshkit.topology import find_tjunctions


def test_tensor_mesh_extensions_empty_and_suitable():
    mesh = build_framed_mesh((2, 1), [[0, 1, 2, 3], [0, 1, 2, 3]])
    for j in range(2):
        for n in range(mesh.domain.extents[j] + 1):
            assert atj_slice(mesh, j, n).region.is_empty()
    assert is_aas(mesh)[0]
    assert is_sgas(mesh)[0]
    assert is_wgas(mesh)[0]


def test_opposing_pair_atj_by_parity():
    for p1 in (1, 3):
        mesh, _ = fx.opposing_hanging_pair(p1, 1)
        assert atj_union(mesh, 1).is_empty()
    mesh, info = fx.opposing_hanging_pair(2, 1)
    m, n = info["m"], info["n"]
    region = atj_union(mesh, 1)
    assert region.equals(BoxRegion(2, [((m - 1, m + 2), (n, n))]))


def test_opposing_pair_gtj_by_parity():
    mesh, info = fx.opposing_hanging_pair(1, 1)
    m, n = info["m"], info["n"]
    for tj in find_tjunctions(mesh):
        assert gtj(mesh, tj).region == ((m, m + 1), (n, n))
    mesh, info = fx.opposing_hanging_pair(2, 1)
    m, n = info["m"], info["n"]
    assert gtj_union(mesh, 1).equals(atj_union(mesh, 1))


def test_corner_triple_verdicts_and_witness():
    mesh, info = fx.corner_tjunction_triple()
    m, n = info["m"], info["n"]
    assert is_admissible(mesh)[0]
    ok_aas, _ = is_aas(mesh)
    ok_sgas, witnesses = is_sgas(mesh)
    assert ok_aas and not ok_sgas
    assert witnesses
    for t1, t2, inter in witnesses:
        assert inter == ((m - 1, m - 1), (n, n))
    # the third junction's extension is the vertical segment
    third = next(t for t in find_tjunctions(mesh)
                 if t.entity == ((m - 1, m - 1), (n + 1, n + 1)))
    assert gtj(mesh, third).region == ((m - 1, m - 1), (n - 1, n + 2))
    # two dimensions: weak and strong geometric suitability coincide
    assert is_wgas(mesh)[0] == is_sgas(mesh)[0]


def test_crossing_edges_verdicts():
    for degrees in ((1, 1, 1), (2, 2, 2), (3, 2, 1)):
        mesh, info = fx.crossing_hanging_edges(degrees)
        assert is_admissible(mesh)[0]
        assert is_wgas(mesh)[0]
        ok_sgas, witnesses = is_sgas(mesh)
        assert not ok_sgas and witnesses


def _shipped_3d_mesh():
    return load_mesh(resources.files("tmeshkit").joinpath(
        "data/crossing_hanging_edges_p321.json"))


@pytest.mark.parametrize("build, dim", [(_shipped_3d_mesh, 3),
                                        (crossing_4d_mesh, 4)],
                         ids=["3d", "4d"])
def test_is_aas_builds_no_slice_extension(build, dim, monkeypatch):
    # the verdict comes from the slice rasters, and reading the witnesses
    # builds the region of each slice they name once
    from tmeshkit import suitability

    built = []

    def slice_region(arrays, d, j, n, original=suitability._slice_region):
        built.append((j, n))
        return original(arrays, d, j, n)

    monkeypatch.setattr(suitability, "_slice_region", slice_region)
    mesh = build()
    ok, witnesses = is_aas(mesh)
    assert mesh.dim == dim and not ok and witnesses
    assert not built
    assert "aas" not in mesh._memo   # the verdict is built on each call
    read = witnesses[:]
    assert all(not region.is_empty() for *_, region in read)
    assert sorted(built) == sorted({s for i, n, j, m, _ in read
                                    for s in ((i, n), (j, m))})


def test_running_example_slice_region_vs_oracle():
    from tmeshkit.verify import atj_slice_oracle

    mesh, info = fx.running_example_3d()
    ext = atj_slice(mesh, 2, info["slice_index"])
    oracle = atj_slice_oracle(mesh, 2, info["slice_index"])
    assert ext.region.equals(oracle)
    assert is_sgas(mesh)[0]
    assert is_aas(mesh)[0]


def test_running_example_slice_matches_published_figure():
    mesh, info = fx.running_example_3d()
    ext = atj_slice(mesh, 2, info["slice_index"])
    published = [((3, 6), (4, 9)), ((4, 13), (3, 4)), ((4, 13), (9, 10)),
                 ((11, 14), (4, 9)), ((6, 11), (4, 5)), ((6, 11), (8, 9)),
                 ((6, 7), (5, 6)), ((6, 7), (7, 8)),
                 ((10, 11), (5, 6)), ((10, 11), (7, 8))]
    region = BoxRegion(3, [(x, y, (2, 2)) for x, y in published])
    assert ext.region.equals(region)


def test_corner_cascade_strict_containment():
    mesh, _ = fx.corner_cascade()
    for i in range(2):
        a = atj_union(mesh, i)
        g = gtj_union(mesh, i)
        assert g.subset(a)
        assert not a.subset(g)


def test_atj_boundary_slices_empty_on_admissible_fixtures():
    # every boundary slice of the frame carries no abstract extension
    for mesh, _ in (fx.opposing_hanging_pair(2, 1),
                    fx.corner_tjunction_triple()):
        for j in range(mesh.dim):
            f = mesh.domain.frame_width(j)
            n_j = mesh.domain.extents[j]
            for n in [*range(f + 1), *range(n_j - f, n_j + 1)]:
                assert atj_slice(mesh, j, n).region.is_empty()


def test_gtj_vector_shapes():
    mesh, info = fx.crossing_hanging_edges((3, 2, 1))
    by_entity = {t.entity: t for t in find_tjunctions(mesh)}
    t1 = by_entity[info["tj1"]]  # odir 2, pdir 0
    ext = gtj(mesh, t1)
    p = mesh.domain.degrees
    assert len(ext.vectors[0]) == p[0] + 1          # pointing direction
    assert ext.vectors[2] == (info["tj1"][2][0],)   # orthogonal singleton
    assert len(ext.vectors[1]) == p[1] + 2 + (p[1] % 2)


@pytest.mark.parametrize("degrees, junction", [
    ((1, 1, 1), ((2, 2), (1, 3), (2, 2))),
    ((2, 2, 2), ((2, 2), (1, 3), (2, 2))),
    ((3, 2, 1), ((3, 3), (1, 3), (2, 2))),
])
def test_gtj_refuses_a_junction_whose_bounds_are_not_adjacent(degrees,
                                                             junction):
    # a y-orthogonal hyperface over the first two columns at y = n+1: the
    # junction probe walks from the junction's own bounds and accepts
    # the complex, but the y knot vector then holds n+1 between them
    mesh, info = fx.crossing_hanging_edges(degrees)
    m, n, r = info["m"], info["n"], info["r"]
    entities = dict(mesh.entities)
    entities[(1,)] = entities[(1,)] | {((m, m + 2), (n + 1, n + 1), (r, r + 2))}
    corrupt = TMesh(mesh.domain, mesh.breakpoints, entities)
    assert find_tjunctions(corrupt)
    message = f"component bounds of {junction!r} not adjacent in direction 1"
    with pytest.raises(NonAdjacentCellBounds, match=f"^{re.escape(message)}$"):
        is_sgas(corrupt)
