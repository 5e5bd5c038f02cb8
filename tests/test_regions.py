import random
from fractions import Fraction

import numpy as np
import pytest

from tmeshkit import regions
from tmeshkit.regions import (BoxRegion, DimensionMismatch, box_intersection,
                              make_box, meeting_pairs)


def R(*boxes):
    return BoxRegion(len(boxes[0]), boxes) if boxes else BoxRegion(2)


def test_make_box_rejects_bad_spans():
    with pytest.raises(ValueError):
        make_box([(1, 0)])
    with pytest.raises(TypeError):
        make_box([(0.5, 1.0)])


def test_intersect_shared_face_is_nonempty():
    r1 = R(((0, 1), (0, 1)))
    r2 = R(((1, 2), (0, 1)))
    inter = r1.intersect(r2)
    assert not inter.is_empty()
    assert inter.boxes == (((1, 1), (0, 1)),)


def test_intersect_with_empty():
    r = R(((0, 1), (0, 1)))
    assert r.intersect(BoxRegion(2)).is_empty()


def test_point_and_segment_intersection():
    # a vertical segment against a horizontal one meet in one point
    m, n = 5, 7
    vertical = R(((m - 1, m - 1), (n - 1, n + 2)))
    horizontal = R(((m - 2, m + 2), (n, n)))
    inter = vertical.intersect(horizontal)
    assert inter.boxes == (((m - 1, m - 1), (n, n)),)


def test_subset_basics():
    r = R(((0, 1), (0, 2)))
    assert r.subset(r)
    assert R(((1, 1), (0, 2))).subset(R(((0, 3), (0, 2))))
    assert not R(((0, 3), (0, 2))).subset(R(((1, 1), (0, 2))))


def test_subset_needs_joint_cover():
    big = R(((0, 2), (0, 2)))
    cover = R(((0, 1), (0, 2)), ((1, 2), (0, 2)))
    assert big.subset(cover)
    gap = R(((0, 1), (0, 2)), ((1, 2), (0, 1)))
    assert not big.subset(gap)


def test_equals_is_set_equality():
    a = R(((0, 2), (0, 1)))
    b = R(((0, 1), (0, 1)), ((1, 2), (0, 1)))
    assert a.equals(b)
    assert not a.equals(R(((0, 2), (0, 2))))


def test_normalize_merges_and_is_overlap_free():
    a = R(((0, 2), (0, 1)), ((1, 3), (0, 1)))
    norm = a.normalize()
    assert norm.boxes == (((0, 3), (0, 1)),)
    assert norm.equals(a)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        R(((0, 1), (0, 1))).intersect(BoxRegion(3))
    with pytest.raises(DimensionMismatch):
        R(((0, 1), (0, 1))).contains_point((1,))


def _random_region(rng, dim, max_boxes=6, span=8):
    boxes = []
    for _ in range(rng.randint(1, max_boxes)):
        spans = []
        for _ in range(dim):
            a = rng.randint(0, span - 1)
            b = rng.randint(a, span)
            spans.append((a, b))
        boxes.append(tuple(spans))
    return BoxRegion(dim, boxes)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_algebra_laws_on_random_regions(dim):
    rng = random.Random(100 + dim)
    for _ in range(25):
        r1 = _random_region(rng, dim)
        r2 = _random_region(rng, dim)
        r3 = _random_region(rng, dim)
        assert r1.intersect(r2).equals(r2.intersect(r1))
        assert r1.intersect(r2.intersect(r3)).equals(r1.intersect(r2).intersect(r3))
        assert r1.normalize().equals(r1)
        if r1.subset(r2) and r2.subset(r1):
            assert r1.equals(r2)
        # membership consistency against random rational probes
        for _ in range(40):
            pt = tuple(Fraction(rng.randint(0, 32), 4) for _ in range(dim))
            expected = r1.contains_point(pt) and r2.contains_point(pt)
            assert r1.intersect(r2).contains_point(pt) == expected


def test_algebra_results_skip_validation_but_match_it(monkeypatch):
    # intersect, union, normalize and empty build their results from
    # valid boxes, so make_box is not called again; the boxes are the
    # sorted tuples the validating constructor would store
    rng = random.Random(5)
    pairs = [(_random_region(rng, d), _random_region(rng, d))
             for d in (1, 2, 3) for _ in range(10)]
    calls = []
    monkeypatch.setattr(regions, "make_box",
                        lambda b: calls.append(b) or make_box(b))
    results = [out for r1, r2 in pairs
               for out in (r1.intersect(r2), r1.union(r2), r1.normalize(),
                           BoxRegion.empty(r1.dim))]
    assert calls == []
    monkeypatch.undo()
    for out in results:
        assert out.boxes == BoxRegion(out.dim, out.boxes).boxes


def test_membership_against_dense_probe_grid():
    rng = random.Random(7)
    r = _random_region(rng, 2, max_boxes=12)
    inter = r.intersect(r)
    norm = r.normalize()
    for ix in range(0, 33):
        for iy in range(0, 33):
            pt = (Fraction(ix, 4), Fraction(iy, 4))
            got = r.contains_point(pt)
            assert inter.contains_point(pt) == got
            assert norm.contains_point(pt) == got


def test_meeting_pairs_equal_brute_force():
    # small coordinates make touching faces, point boxes and duplicates common
    rng = random.Random(11)
    for trial in range(300):
        d, n = rng.randint(1, 3), rng.choice((0, 1, 2, 5, 12, 30))
        boxes = []
        for _ in range(n):
            box = []
            for _ in range(d):
                lo = rng.randint(0, 6)
                box.append((lo, lo + rng.choice((0, 0, 1, 2, 4))))
            boxes.append(tuple(box))
        if n > 2 and trial % 3 == 0:
            boxes[-1] = boxes[0]
        ia, ib = meeting_pairs(np.array(boxes, dtype=np.int64).reshape(n, d, 2))
        assert list(zip(ia.tolist(), ib.tolist())) == [
            (a, b) for a in range(n) for b in range(a + 1, n)
            if box_intersection(boxes[a], boxes[b]) is not None]
