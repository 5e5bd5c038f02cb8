import re
from importlib import resources

import fixtures as fx
import numpy as np
import pytest
from conftest import (cold_copy, cross_mesh, crossing_4d_mesh, four_d_meshes,
                      shipped_meshes)

from tmeshkit import anchors, dualcompat, suitability, verify
from tmeshkit.anchors import MAX_LINE_ENTRIES, InsufficientKnots
from tmeshkit.mesh import (IndexDomain, MeshError, TMesh, build_framed_mesh,
                           create_tensor_mesh, is_admissible, subdiv)
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
    mesh, info = fx.running_example_3d()
    assert not atj_slice(mesh, 2, info["slice_index"]).region.is_empty()
    assert not verify.atj_slice_crosscheck(mesh)["failures"]
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


def test_gtj_table_equals_the_per_key_regions(corpus200, monkeypatch):
    # a cold mesh reads every extension box in one batch from the count
    # tables; the per-key `gtj` checks it from outside
    meshes = four_d_meshes() + [cross_mesh(16)] + shipped_meshes()
    assert len(meshes) == 10   # the four shipped meshes among them
    assert sum(len(find_tjunctions(m)) for m in meshes) > 300
    for _, mesh in corpus200["meshes"]:
        assert not verify.gtj_table_crosscheck(mesh)["failures"]
    # and in chunks of one line each
    for limit in (MAX_LINE_ENTRIES, 1):
        monkeypatch.setattr("tmeshkit.anchors.MAX_LINE_ENTRIES", limit)
        for mesh in meshes + [m for _, m in corpus200["meshes"][:24]]:
            assert not verify.gtj_table_crosscheck(mesh)["failures"]


def _per_key_error(mesh):
    """The error of a junction-major, direction-minor `gtj` loop."""
    try:
        for t in find_tjunctions(mesh):
            gtj(mesh, t)
    except (InsufficientKnots, NonAdjacentCellBounds) as e:
        return str(e)
    raise AssertionError("every window fits")


@pytest.mark.parametrize("extents, degrees, breakpoints, cell, j, message", [
    # the first junction's pointing window runs past the vector's start
    ((12, 12), (3, 3), [range(0, 13, 2), [0, 4, 6, 8, 12]],
     ((2, 4), (4, 6)), 0,
     "knot window of length 4 does not fit around 0 for ((3, 3), (4, 4))"),
    # the second of two junctions, past the vector's end
    ((8, 10), (1, 3), [[0, 2, 6, 8], [0, 1, 6, 7, 10]], ((2, 6), (6, 7)), 0,
     "knot window of length 4 does not fit around 7 for ((4, 4), (7, 7))"),
    # the third of four 3-D junctions
    ((12, 10, 10), (2, 1, 3),
     [[0, 7, 10, 12], [0, 2, 3, 5, 6, 7, 10], [0, 2, 6, 7, 10]],
     ((7, 10), (3, 5), (6, 7)), 1,
     "knot window of length 4 does not fit around 7 for "
     "((7, 10), (4, 4), (7, 7))"),
], ids=["first-of-two-2d", "second-of-two-2d", "third-of-four-3d"])
def test_gtj_table_raises_the_per_key_error(extents, degrees, breakpoints,
                                            cell, j, message):
    # a bisection of a tensor mesh with too few slices near its frame:
    # the complex is valid but not admissible, and the batch refuses the
    # window the per-key `gtj` refuses, with its text
    mesh = subdiv(create_tensor_mesh(IndexDomain(extents, degrees),
                                     breakpoints), cell, j)
    assert not is_admissible(mesh)[0]
    assert _per_key_error(cold_copy(mesh)) == message
    for classify in (is_sgas, is_wgas):
        with pytest.raises(InsufficientKnots) as info:
            classify(cold_copy(mesh))
        assert str(info.value) == message


def test_cold_classification_builds_no_extension_per_key(corpus200,
                                                         monkeypatch):
    # a corpus op on replayed meshes: the six classifiers and Thm 6.2
    # read every extension box from the batch, and the only knot vectors
    # read per key are admissibility's whole-domain ones (the complete
    # slices, which `anchors` serves to `verify` too)
    calls, whole = [], []
    per_key, per_line = suitability.gtj, anchors.global_knot_vector

    def spy(mesh, tj):
        calls.append(tj)
        return per_key(mesh, tj)

    def line_spy(mesh, entity, j):
        whole.append(entity == tuple((0, n) for n in mesh.domain.extents))
        return per_line(mesh, entity, j)

    monkeypatch.setattr(suitability, "gtj", spy)
    for module in (anchors, suitability):
        monkeypatch.setattr(module, "global_knot_vector", line_spy)
    junctions = 0
    for sub, built in corpus200["meshes"][:24]:
        m = verify.replay_prefix(built, len(built.refinement_log))
        sgas = is_sgas(m)[0]
        for check in (is_admissible, is_aas, is_wgas, dualcompat.is_sdc,
                      dualcompat.is_wdc):
            check(m)
        if sgas:
            assert all(atj_union(m, i).subset(gtj_union(m, i))
                       for i in range(m.dim))
        junctions += len(find_tjunctions(m))
    assert junctions > 1000 and calls == [] and whole and all(whole)


def test_gtj_union_sweeps_no_pairs(monkeypatch):
    # the union reads the box table alone: with the pair sweep's limit
    # below this mesh's candidate count SGAS refuses, and the union and
    # the SVG extension layer still build
    from tmeshkit import regions
    from tmeshkit.svgexport import extract_layer_region, render_slice_svg

    mesh = cross_mesh(8)
    tjs = find_tjunctions(mesh)
    lo, hi = np.array([gtj(mesh, t).region[0] for t in tjs]).T
    meet = np.maximum.outer(lo, lo) <= np.minimum.outer(hi, hi)
    candidates = int(np.triu(meet, 1).sum())   # the sweep's, by brute force
    assert candidates > 100
    monkeypatch.setattr(regions, "MAX_CANDIDATE_PAIRS", candidates - 1)
    with pytest.raises(MeshError, match=f"{candidates} candidate box pairs"):
        is_sgas(cold_copy(mesh))
    cold = cold_copy(mesh)
    for i in range(mesh.dim):
        expected = BoxRegion(mesh.dim, {gtj(mesh, t).region for t in tjs
                                        if t.odir == i})
        assert gtj_union(cold, i).equals(expected)
    svg = render_slice_svg(cold_copy(mesh), layers=("gtj",))
    assert not extract_layer_region(svg, "gtj").is_empty()
    monkeypatch.setattr(regions, "MAX_CANDIDATE_PAIRS", candidates)
    assert not is_sgas(cold)[0]


def test_unread_rows_are_not_relayed():
    # a classified parent seeds its child with rows of its table; the
    # child, never classified, built no table, so it hands the
    # grandchild no rows, and the grandchild reads every box cold
    parent = cross_mesh(8)
    is_sgas(parent)
    child = subdiv(parent, ((2, 10), (2, 10)), 1)
    assert "gtj_rows" in child._memo and "gtj_table" not in child._memo
    grandchild = subdiv(child, ((2, 10), (18, 26)), 0)
    assert "gtj_rows" not in grandchild._memo
    cold = cold_copy(grandchild)
    ok, witnesses = is_sgas(grandchild)
    cold_ok, cold_witnesses = is_sgas(cold)
    assert (ok, tuple(witnesses)) == (cold_ok, tuple(cold_witnesses))
    tjs, boxes = suitability._gtj_table(grandchild)
    cold_tjs, cold_boxes = suitability._gtj_table(cold)
    assert tjs == cold_tjs and np.array_equal(boxes, cold_boxes)
    assert not verify.gtj_table_crosscheck(grandchild)["failures"]
