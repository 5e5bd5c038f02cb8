import itertools
import random

import fixtures as fx
import numpy as np
import pytest

from tmeshkit.anchors import anchor_set, index_support
from tmeshkit.mesh import build_framed_mesh
from tmeshkit.splines import (DegenerateKnots, bspline_eval,
                              bspline_eval_array, supports_overlap, tspline,
                              tspline_eval)


def _parametric_support(mesh, anchor):
    """Closed parametric box spanned by the mapped local knot vectors."""
    knots = mesh.domain.parametric_knots
    return tuple((float(knots[j][lo]), float(knots[j][hi]))
                 for j, (lo, hi) in enumerate(index_support(mesh, anchor)))


def test_hat_function():
    assert bspline_eval((0, 1, 2), 1, 1) == 1.0
    assert bspline_eval((0, 1, 2), 1, 0.5) == 0.5
    assert bspline_eval((0, 1, 2), 1, 2) == 0.0  # right-continuous: support edge


def test_quadratic_midpoint():
    assert bspline_eval((0, 1, 2, 3), 2, 1.5) == pytest.approx(0.75)


def test_degree_zero_characteristic():
    assert bspline_eval((0, 1), 0, 0.5) == 1.0
    assert bspline_eval((0, 1), 0, 1.5) == 0.0
    assert bspline_eval((0, 1), 0, 1.0) == 0.0
    assert bspline_eval((0, 1), 0, 1.0, left_continuous=True) == 1.0


def test_degenerate_knots():
    with pytest.raises(DegenerateKnots):
        bspline_eval((1, 1, 1), 1, 1)
    with pytest.raises(ValueError):
        bspline_eval((0, 1, 2, 3), 1, 0.5)  # wrong knot count


def _scalar_table(rows, p, ts, right):
    """The table column by column from the scalar evaluation."""
    return np.array([[bspline_eval(row, p, t, left_continuous=(t == right))
                      for row in rows] for t in ts]).reshape(len(ts), len(rows))


def _knot_rows(rng, p, values, count):
    """`count` non-decreasing rows of p + 2 knots drawn from `values`,
    with repeats, first < last."""
    rows = []
    while len(rows) < count:
        row = sorted(rng.choices(values, k=p + 2))
        if row[0] < row[-1]:
            rows.append(row)
    return rows


def test_eval_array_matches_scalar():
    # the table, bit for bit, column by column: integer and non-identity
    # float knots, repeated knots (the zero denominators), rows that close
    # at the domain's right end, and coordinates outside every support,
    # at the right end and on knots
    rng = random.Random(3)
    stretched = [float(i + 0.3 * i * i) for i in range(13)]
    for p, values in itertools.product(range(5), (list(range(13)), stretched)):
        right = values[-1]
        rows = _knot_rows(rng, p, values, 40)
        rows += [values[-p - 2:], [values[0]] * (p + 1) + [values[1]]]
        ts = np.unique(np.concatenate((
            values, [values[0] - 1.0, right + 0.5, right + 2.0],
            [rng.uniform(values[0], right) for _ in range(60)])))
        table = bspline_eval_array(np.array(rows), p, ts, domain_right=right)
        assert table.shape == (len(ts), len(rows))
        assert table.tobytes() == _scalar_table(rows, p, ts, right).tobytes()
        assert not table[(ts < values[0]) | (ts > right)].any()
        for r, row in enumerate(rows):
            one = bspline_eval_array(np.array([row]), p, ts, domain_right=right)
            assert one.tobytes() == table[:, [r]].tobytes()
        # right-continuous everywhere with the domain's end past every
        # knot and coordinate
        table = bspline_eval_array(np.array(rows), p, ts, domain_right=np.inf)
        assert table.tobytes() == _scalar_table(rows, p, ts, None).tobytes()


def test_eval_array_of_no_rows_or_no_points_is_empty():
    knots = np.array([[0.0, 1.0, 2.0]])
    assert bspline_eval_array(knots, 1, np.empty(0), 2.0).shape == (0, 1)
    table = bspline_eval_array(np.empty((0, 3)), 1, np.arange(4.0), 3.0)
    assert table.shape == (4, 0)


def _tensor_bspline_oracle(breaks, degrees, anchor, point):
    """Independent tensor-product B-spline evaluation via explicit windows."""
    val = 1.0
    for k, p in enumerate(degrees):
        idx = breaks[k].index(anchor[k][0])
        start = idx - (p + 1) // 2
        window = breaks[k][start:start + p + 2]
        val *= bspline_eval(window, p, point[k],
                            left_continuous=(point[k] == breaks[k][-1]))
    return val


def test_tensor_mesh_matches_classical_tensor_product():
    degrees = (1, 2)
    mesh = build_framed_mesh(degrees, [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]])
    breaks = [list(b) for b in mesh.breakpoints]
    rng = random.Random(12)
    anchors = anchor_set(mesh)
    for _ in range(100):
        point = (rng.uniform(0, mesh.domain.extents[0]),
                 rng.uniform(0, mesh.domain.extents[1]))
        for a in rng.sample(anchors, 5):
            got = tspline_eval(mesh, a, point)
            want = _tensor_bspline_oracle(breaks, degrees, a, point)
            assert got == pytest.approx(want, abs=1e-12)


def test_value_zero_outside_support_and_bounded():
    mesh, _ = fx.opposing_hanging_pair(2, 1)
    rng = random.Random(5)
    for a in anchor_set(mesh):
        lo_hi = _parametric_support(mesh, a)
        for _ in range(20):
            pt = tuple(rng.uniform(0, n) for n in mesh.domain.extents)
            v = tspline_eval(mesh, a, pt)
            assert 0.0 <= v <= 1.0
            if any(not lo <= x <= hi for x, (lo, hi) in zip(pt, lo_hi)):
                assert v == 0.0


def test_supports_overlap():
    mesh = build_framed_mesh((1, 1), [[0, 1, 2, 3, 4, 5, 6], [0, 1, 2]])
    anchors = sorted(anchor_set(mesh))
    a = anchors[0]
    assert supports_overlap(mesh, a, a)
    far = max(anchors)
    assert not supports_overlap(mesh, a, far)


def test_single_knot_insertion_identity():
    # splitting a local vector at an interior knot reproduces the parent:
    # B_v = a1 * B_w1 + a2 * B_w2 with the classical insertion weights
    rng = random.Random(42)
    for p in range(4):
        for _ in range(30):
            v = sorted(rng.sample(range(0, 40), p + 2))
            inner = [u for u in range(v[0] + 1, v[-1]) if u not in v]
            if not inner:
                continue
            u = rng.choice(inner)
            merged = sorted(v + [u])
            w1, w2 = merged[:p + 2], merged[1:p + 3]
            a1 = min(1.0, (u - v[0]) / (v[p] - v[0])) if v[p] > v[0] else 1.0
            a2 = min(1.0, (v[p + 1] - u) / (v[p + 1] - v[1])) if v[p + 1] > v[1] else 1.0
            for t in np.linspace(v[0], v[-1], 23):
                parent = bspline_eval(v, p, t)
                child = a1 * bspline_eval(w1, p, t) + a2 * bspline_eval(w2, p, t)
                assert child == pytest.approx(parent, abs=1e-12)


def test_tspline_dataclass():
    mesh, _ = fx.opposing_hanging_pair(1, 1)
    a = anchor_set(mesh)[0]
    ts = tspline(mesh, a)
    assert ts.anchor == a
    assert len(ts.local_vectors) == 2
    assert ts.support == tuple((v[0], v[-1]) for v in ts.local_vectors)
    assert all(tspline(mesh, b).support == index_support(mesh, b)
               for b in anchor_set(mesh))


def test_partition_of_unity_tensor():
    from tmeshkit.verify import partition_of_unity

    mesh = build_framed_mesh((2, 3), [[0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6]])
    assert partition_of_unity(mesh, samples=300, seed=1) < 1e-10
