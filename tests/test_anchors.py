import pytest

from tmeshkit import fixtures as fx
from tmeshkit.anchors import (InsufficientKnots, anchor_set,
                              global_knot_vector, index_support,
                              local_knot_vector)
from tmeshkit.mesh import (IndexDomain, build_framed_mesh, create_tensor_mesh,
                           project_entity, subdiv)


def refined2d():
    dom = IndexDomain(extents=(8, 8), degrees=(1, 1))
    mesh = create_tensor_mesh(dom, [[0, 2, 4, 6, 8]] * 2)
    return subdiv(mesh, ((2, 4), (2, 4)), 0)


def test_anchor_types_by_parity():
    cube = build_framed_mesh((1, 1, 1), [[0, 2], [0, 2], [0, 2]])
    anchors = anchor_set(cube)
    assert anchors  # vertices in the active region
    assert all(a[k][0] == a[k][1] for a in anchors for k in range(3))

    rod = build_framed_mesh((0, 1, 1), [[0, 1, 2], [0, 2], [0, 2]])
    anchors = anchor_set(rod)
    assert anchors
    for a in anchors:
        assert a[0][0] < a[0][1]          # interval along direction 1
        assert a[1][0] == a[1][1] and a[2][0] == a[2][1]

    slab = build_framed_mesh((0, 1, 0), [[0, 1, 2], [0, 2], [0, 1, 2]])
    for a in anchor_set(slab):
        assert a[0][0] < a[0][1] and a[2][0] < a[2][1]
        assert a[1][0] == a[1][1]


def test_anchor_set_2d_vertices():
    mesh = create_tensor_mesh(IndexDomain(extents=(8, 8), degrees=(1, 1)),
                              [[0, 2, 4, 6, 8]] * 2)
    anchors = anchor_set(mesh)
    expected = {((x, x), (y, y)) for x in (2, 4, 6) for y in (2, 4, 6)}
    assert set(anchors) == expected


def test_anchor_count_matches_spline_dimension():
    # on a tensor mesh every knot window carries exactly one anchor:
    # the count per direction is (#breakpoints - degree - 1)
    for degrees, breaks in [((1, 2), [[0, 1, 2, 3, 4], [0, 2, 4, 6]]),
                            ((3, 0), [[0, 1, 2, 3], [0, 1, 2]]),
                            ((2, 2, 1), [[0, 1, 2], [0, 2, 4], [0, 1, 2, 3]])]:
        mesh = build_framed_mesh(degrees, breaks)
        expected = 1
        for k, p in enumerate(degrees):
            expected *= len(mesh.breakpoints[k]) - p - 1
        assert len(anchor_set(mesh)) == expected


def test_project_entity():
    assert project_entity(((2, 2), (0, 2)), 0, 5) == ((5, 5), (0, 2))
    e = ((4, 4), (1, 3))
    assert project_entity(e, 0, 4) == e


def test_global_vector_on_refined_mesh():
    mesh = refined2d()
    assert global_knot_vector(mesh, ((2, 2), (2, 2)), 0) == (0, 2, 3, 4, 6, 8)
    assert global_knot_vector(mesh, ((2, 2), (6, 6)), 0) == (0, 2, 4, 6, 8)


def test_local_vectors_on_tensor_mesh_match_windows():
    mesh = build_framed_mesh((2, 1), [[0, 1, 2, 3, 4], [0, 1, 2, 3]])
    for a in anchor_set(mesh):
        for j in range(2):
            v = local_knot_vector(mesh, a, j)
            p = mesh.domain.degrees[j]
            assert len(v) == p + 2
            gkv = global_knot_vector(mesh, a, j)
            start = gkv.index(v[0])
            assert gkv[start:start + p + 2] == v
            if p % 2:
                assert v[(p + 1) // 2] == a[j][0]
            else:
                assert (v[p // 2], v[p // 2 + 1]) == a[j]


def test_band_gap_vectors():
    mesh, info = fx.band_gap_mesh("skip")
    mb = info["mbar"]
    top = ((mb, mb), (3, 5), (1, 3))
    bottom = ((mb, mb), (1, 3), (1, 3))
    assert local_knot_vector(mesh, top, 0) == (mb - 2, mb - 1, mb, mb + 1, mb + 2)
    assert local_knot_vector(mesh, bottom, 0) == (mb - 2, mb - 1, mb, mb + 2, mb + 3)

    partial, info = fx.band_gap_mesh("partial")
    bottom = ((mb, mb), (1, 3), (1, 3))
    assert local_knot_vector(partial, bottom, 0) == (mb - 2, mb - 1, mb, mb + 2, mb + 4)

    even, info = fx.band_gap_mesh_even()
    m1, m2 = info["m1"], info["m2"]
    top = ((m1, m2), (3, 5), (2, 2))
    bottom = ((m1, m2 + 1), (1, 3), (2, 2))
    assert local_knot_vector(even, top, 0) == (m1 - 2, m1 - 1, m1, m2, m2 + 1, m2 + 2)
    assert local_knot_vector(even, bottom, 0) == \
        (m1 - 2, m1 - 1, m1, m2 + 1, m2 + 2, m2 + 3)


def test_projection_lands_in_slice_skeleton():
    mesh, _ = fx.running_example_3d()
    from tmeshkit.mesh import hull_in_skeleton, entity_hull

    a = next(iter(anchor_set(mesh)))
    k3 = global_knot_vector(mesh, a, 2)
    for n in k3:
        proj = project_entity(a, 2, n)
        assert hull_in_skeleton(mesh, 2, entity_hull(proj))


def test_insufficient_knots_on_inadmissible_mesh():
    # a frame without its slices cannot center the windows
    dom = IndexDomain(extents=(8, 8), degrees=(3, 3))
    mesh = create_tensor_mesh(dom, [[0, 2, 4, 6, 8]] * 2)
    anchor = ((2, 2), (2, 2))
    with pytest.raises(InsufficientKnots):
        local_knot_vector(mesh, anchor, 0)


def test_index_support_is_window_hull():
    mesh, info = fx.opposing_hanging_pair(2, 1)
    for a in anchor_set(mesh):
        supp = index_support(mesh, a)
        for j in range(2):
            v = local_knot_vector(mesh, a, j)
            assert supp[j] == (v[0], v[-1])
    band, info = fx.band_gap_mesh("skip")
    mb = info["mbar"]
    top = ((mb, mb), (3, 5), (1, 3))
    assert index_support(band, top)[0] == (mb - 2, mb + 2)


def test_knot_membership_in_the_support_reads_the_local_vector(corpus200):
    # a local vector is a contiguous run of the global one, which is what
    # lets atj_slice read membership from the local windows
    for _, mesh in corpus200["meshes"]:
        for a in anchor_set(mesh):
            for j, (lo, hi) in enumerate(index_support(mesh, a)):
                gkv = set(global_knot_vector(mesh, a, j))
                lkv = set(local_knot_vector(mesh, a, j))
                for n in range(lo, hi + 1):
                    assert (n in gkv) == (n in lkv), (a, j, n)
