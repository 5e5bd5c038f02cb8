import random
import tracemalloc
from importlib import resources

import fixtures as fx
import numpy as np
import pytest
from conftest import cold_copy, cross_mesh, crossing_4d_mesh
from propertysuites import project_entity

from tmeshkit.anchors import (MAX_LINE_ENTRIES, InsufficientKnots, _window,
                              anchor_arrays, anchor_set, global_knot_vector,
                              index_support, local_knot_vector)
from tmeshkit.mesh import (IndexDomain, TMesh, build_framed_mesh,
                           create_tensor_mesh, subdiv)
from tmeshkit.meshio import load_mesh
from tmeshkit.verify import random_admissible_mesh


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
    from tmeshkit.mesh import hull_in_skeleton

    a = next(iter(anchor_set(mesh)))
    k3 = global_knot_vector(mesh, a, 2)
    for n in k3:
        proj = project_entity(a, 2, n)
        assert hull_in_skeleton(mesh, 2, proj)


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


def _index_window(vector, value, offset, length, truncate):
    """`_window` by `tuple.index`: the window, or None where it raises."""
    if value not in vector:
        return None
    start = vector.index(value) - offset
    end = start + length
    if truncate:
        start, end = max(start, 0), min(end, len(vector))
    elif start < 0 or end > len(vector):
        return None
    return vector[start:end]


def test_window_bisection_equals_index_reference():
    rng = random.Random(17)
    for _ in range(3000):
        vector = tuple(sorted(rng.sample(range(40), rng.randint(0, 12))))
        value = rng.choice(vector) if vector and rng.random() < 0.8 \
            else rng.randrange(-2, 42)   # often missing, or past either end
        length = rng.randint(1, 8)
        offset = rng.randint(0, length - 1)
        truncate = rng.random() < 0.3
        expected = _index_window(vector, value, offset, length, truncate)
        if expected is not None:
            assert _window(vector, value, offset, length, "e",
                           truncate) == expected
            continue
        with pytest.raises(InsufficientKnots) as info:
            _window(vector, value, offset, length, "e", truncate)
        assert str(info.value) == (
            f"{value} missing from knot vector of 'e'" if value not in vector
            else f"knot window of length {length} does not fit around "
                 f"{value} for 'e'")
    # a window flush with either end fits, one entry further does not
    v = (0, 2, 3, 5, 8)
    assert _window(v, 0, 0, 5, "e") == v == _window(v, 8, 4, 5, "e")
    for value, offset in ((0, 1), (8, 3)):
        with pytest.raises(InsufficientKnots, match="does not fit"):
            _window(v, value, offset, 5, "e")
        assert _window(v, value, offset, 5, "e", truncate=True) == (
            v[:4] if value == 0 else v[1:])


def _shipped_meshes():
    return [load_mesh(path) for path in sorted(
        resources.files("tmeshkit").joinpath("data").iterdir(),
        key=lambda path: path.name) if path.name.endswith(".json")]


def _assert_batch_equals_per_key(mesh):
    anchors = anchor_set(mesh)
    arrays = anchor_arrays(cold_copy(mesh))
    for j, local in enumerate(arrays.local):
        expected = np.array([local_knot_vector(mesh, a, j) for a in anchors],
                            dtype=np.int64)
        assert local.dtype == expected.dtype and local.shape == expected.shape
        assert np.array_equal(local, expected)
    expected = np.array([index_support(mesh, a) for a in anchors],
                        dtype=np.int64)
    assert arrays.support.dtype == expected.dtype
    assert arrays.support.shape == (len(anchors), mesh.dim, 2)
    assert np.array_equal(arrays.support, expected)


def test_anchor_arrays_equal_the_per_key_vectors(corpus200, monkeypatch):
    # the batch read from one count table per direction is checked from
    # outside by the per-key path, one global vector per line
    four_d = [subdiv(build_framed_mesh((1, 1, 1, 1), [[0, 2, 4]] * 4),
                     ((1, 3),) * 4, 3), crossing_4d_mesh()]
    four_d += [random_admissible_mesh(s, dim=4, max_steps=14) for s in (2, 3, 4)]
    shipped = _shipped_meshes()
    assert len(shipped) == 4
    for _, mesh in corpus200["meshes"]:
        _assert_batch_equals_per_key(mesh)
    # and in chunks of one line (cross_mesh: 53 slices) or a few
    for limit in (MAX_LINE_ENTRIES, 64):
        monkeypatch.setattr("tmeshkit.anchors.MAX_LINE_ENTRIES", limit)
        for mesh in four_d + [cross_mesh(16)] + shipped:
            _assert_batch_equals_per_key(mesh)


def _per_key_error(mesh):
    """The error of an anchor-major, direction-minor `local_knot_vector` loop."""
    try:
        for a in anchor_set(mesh):
            for j in range(mesh.dim):
                local_knot_vector(mesh, a, j)
    except InsufficientKnots as e:
        return str(e)
    raise AssertionError("every window fits")


def test_anchor_arrays_raise_the_per_key_error():
    # bicubic, sliced only at 0, 4 and 8: the cli's thin mesh
    thin = create_tensor_mesh(IndexDomain((8, 8), (3, 3)), [[0, 4, 8]] * 2)
    # every window fits in direction 0, not all in direction 1
    lopsided = create_tensor_mesh(IndexDomain((6, 8), (1, 3)),
                                  [list(range(7)), [0, 2, 4, 6, 8]])
    assert all(local_knot_vector(lopsided, a, 0) for a in anchor_set(lopsided))
    # the first anchor fails in direction 1 only, the last in direction 0:
    # a direction-major loop would report the last
    crossed = create_tensor_mesh(IndexDomain((8, 8), (3, 3)),
                                 [[0, 1, 2, 3, 4, 6, 8], [0, 2, 4, 5, 6, 7, 8]])
    assert local_knot_vector(crossed, anchor_set(crossed)[0], 0)
    with pytest.raises(InsufficientKnots):
        local_knot_vector(crossed, anchor_set(crossed)[-1], 0)
    # biquadratic, with a hyperface through the middle of a column of
    # cells, a complex no refinement makes: x = 4 sits between the
    # endpoints (3, 5) of those cells
    even = build_framed_mesh((2, 2), [[0, 2, 4, 6, 8]] * 2)
    entities = dict(even.entities)
    entities[(0,)] = entities[(0,)] | {((4, 4), (0, 10))}
    even = TMesh(even.domain, even.breakpoints, entities)
    # bicubic, without the two edges at x = 1 (or 3) beside the point
    # (1, 4) (or (3, 4)): the vector of the third line of direction 0
    # misses that x, so the first failing anchor is on no chunk's first line
    holed = []
    base = build_framed_mesh((3, 3), [[0, 1, 2, 3, 4]] * 2)
    for x in (1, 3):
        entities = dict(base.entities)
        entities[(0,)] = entities[(0,)] - {((x, x), (3, 4)), ((x, x), (4, 5))}
        holed.append(TMesh(base.domain, base.breakpoints, entities))
    for mesh, message in (
            (thin, "knot window of length 5 does not fit around 4 for "
                   "((4, 4), (4, 4))"),
            (lopsided, "knot window of length 5 does not fit around 2 for "
                       "((1, 1), (2, 2))"),
            (crossed, "knot window of length 5 does not fit around 2 for "
                      "((2, 2), (2, 2))"),
            (even, "anchor ((3, 5), (1, 3)): component endpoints not "
                   "adjacent in direction 0"),
            (holed[0], "knot window of length 5 does not fit around 2 for "
                       "((2, 2), (4, 4))"),
            (holed[1], "3 missing from knot vector of ((3, 3), (4, 4))")):
        assert _per_key_error(cold_copy(mesh)) == message
        with pytest.raises(InsufficientKnots) as info:
            anchor_arrays(cold_copy(mesh))
        assert str(info.value) == message


def test_anchor_arrays_on_one_long_line():
    # a cubic 1-D mesh of 2^16 unit cells: every anchor shares the one
    # line, which the per-key path scanned once per anchor
    n = 1 << 16
    mesh = create_tensor_mesh(IndexDomain((n,), (3,)), [range(n + 1)])
    x = np.array([a[0][0] for a in anchor_set(mesh)])
    assert np.array_equal(x, np.arange(2, n - 1))
    tracemalloc.start()
    try:
        arrays = anchor_arrays(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(arrays.local[0], x[:, None] + np.arange(-2, 3))
    assert np.array_equal(arrays.support[:, 0], np.stack([x - 2, x + 2], 1))
    # every window is distinct, so each anchor's id is its own row
    assert np.array_equal(arrays.windows[0], arrays.local[0])
    assert np.array_equal(arrays.window_id[0], np.arange(len(x)))
    # the arrays themselves take 3.5 MiB; an anchors x (N + 1) miss
    # array would take 16 GiB
    assert peak < 16 << 20, peak
