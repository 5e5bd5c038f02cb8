import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import cross_mesh

from tmeshkit import regions
from tmeshkit.anchors import anchor_arrays
from tmeshkit.dualcompat import is_sdc, is_wdc
from tmeshkit.mesh import MeshError, build_framed_mesh, is_admissible
from tmeshkit.suitability import is_aas, is_sgas, is_wgas

PAIR_CLASSIFIERS = (is_sgas, is_wgas, is_sdc, is_wdc)


def _candidates(mesh) -> int:
    """Anchor pairs whose supports meet in direction 0: the pairs the DC
    sweep tests, counted by brute force."""
    lo, hi = anchor_arrays(mesh).support[:, 0].T
    meet = np.maximum.outer(lo, lo) <= np.minimum.outer(hi, hi)
    return int(np.triu(meet, 1).sum())


def test_witnesses_act_as_the_tuple_of_all_witnesses():
    mesh = cross_mesh(4)
    for classify in PAIR_CLASSIFIERS:
        ok, w = classify(mesh)
        t = tuple(w)
        assert not ok and bool(w) and len(w) == len(t) > 20
        assert w[0] == t[0] and w[-1] == t[-1] and w[len(t) // 2] == t[len(t) // 2]
        assert w[:20] == t[:20] and w[-3:] == t[-3:] and w[::-7] == t[::-7]
        assert w[5:2] == () and list(w) == list(t)
        assert w == t and t == w and w == w and w != t[:-1] and w != list(t)
        assert hash(w) == hash(t)
        assert classify(mesh) == (False, t)
        with pytest.raises(IndexError):
            w[len(t)]
        with pytest.raises(IndexError):
            w[-len(t) - 1]
    # regions compare by identity, so AAS is compared by their boxes
    ok, w = is_aas(mesh)
    boxes = [(i, n, j, m, region.boxes) for i, n, j, m, region in w]
    assert not ok and len(boxes) == len(w) > 20 and w == w
    assert [(*x[:4], x[4].boxes) for x in (w[0], w[-1], *w[:20])] == [
        boxes[0], boxes[-1], *boxes[:20]]
    tensor = build_framed_mesh((3, 3), [[0, 4, 8, 12]] * 2)
    for classify in (is_aas, *PAIR_CLASSIFIERS):
        ok, w = classify(tensor)
        assert ok and not w and len(w) == 0 and w == () and hash(w) == hash(())
        assert w[:20] == () and list(w) == []


def test_classified_mesh_is_freed_without_the_cycle_collector():
    # the memo holds the witnesses, so witnesses that held the mesh would
    # keep it alive until a collection, which a frozen collector never runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        mesh = cross_mesh(4)
        verdicts = [classify(mesh) for classify in
                    (is_admissible, is_aas, *PAIR_CLASSIFIERS)]
        assert [ok for ok, _ in verdicts] == [True] + [False] * 5
        read = [(len(w), w[:20], w[-1]) for _, w in verdicts[1:]]
        dead = weakref.ref(mesh)
        del mesh
        assert dead() is None
        # the witnesses outlive the mesh and still read the same
        assert [(len(w), w[:20], w[-1]) for _, w in verdicts[2:]] == read[1:]
    finally:
        if enabled:
            gc.enable()


def test_pair_classifiers_memory_is_linear_in_candidate_pairs():
    # every anchor pair of the x-fine and the y-fine bands meets; the four
    # classifiers once held 396 bytes per candidate at their peak, most of
    # it witness tuples
    mesh = cross_mesh(64)
    tracemalloc.start()
    try:
        counts = [len(classify(mesh)[1]) for classify in PAIR_CLASSIFIERS]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    candidates = _candidates(mesh)
    assert counts == [16380, 16380, 66056, 66056] and candidates > 100_000
    assert peak < 128 * candidates, (peak, candidates)


def test_pair_sweep_refuses_past_the_candidate_limit(monkeypatch):
    mesh = cross_mesh(64)
    anchor_arrays(mesh)
    candidates = _candidates(mesh)
    monkeypatch.setattr(regions, "MAX_CANDIDATE_PAIRS", candidates - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MeshError, match=f"{candidates} candidate box pairs"):
            is_sdc(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * candidates   # less than one int64 per candidate
    monkeypatch.setattr(regions, "MAX_CANDIDATE_PAIRS", candidates)
    assert len(is_sdc(mesh)[1]) == 66056
