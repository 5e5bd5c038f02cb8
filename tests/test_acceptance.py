"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.  Criteria over the
shared fuzz corpus use the session fixture from conftest.
"""

import time
from contextlib import contextmanager

import fixtures as fx
from propertysuites import (child_anchor_suite, projection_dichotomy_suite,
                            sgas_overlap_suite)
from tmeshkit.anchors import anchor_set, global_knot_vector, local_knot_vector
from tmeshkit.dualcompat import is_sdc, is_wdc
from tmeshkit.mesh import check_three_direction_assumption, is_admissible
from tmeshkit.regions import BoxRegion
from tmeshkit.suitability import atj_slice, atj_union, gtj, gtj_union, is_aas, \
    is_sgas, is_wgas
from tmeshkit.topology import find_tjunctions
from tmeshkit.verify import (atj_slice_oracle, crosscheck_aas_sdc,
                             crosscheck_sgas_aas, linear_independence_rank,
                             mesh_stream, overlap_pair_suite,
                             partition_of_unity, rank_verdict_stable,
                             replay_prefix, separation_probe_suite,
                             wgas_wdc_counterexample_search)


@contextmanager
def criterion(number: int, title: str):
    start = time.monotonic()
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        print(f"[criterion {number:02d}] {title}: {verdict} "
              f"({time.monotonic() - start:.1f} s)")


def test_criterion_01_opposing_pair_abstract_extensions():
    with criterion(1, "opposing hanging pair: abstract extension by parity"):
        t0 = time.monotonic()
        for p1 in (1, 3):
            mesh, _ = fx.opposing_hanging_pair(p1, 1)
            assert atj_union(mesh, 1).is_empty()
            assert atj_union(mesh, 0).is_empty()
        mesh, info = fx.opposing_hanging_pair(2, 1)
        m, n = info["m"], info["n"]
        region = atj_union(mesh, 1)
        expected = BoxRegion(2, [((m - 1, m + 2), (n, n))])
        assert region.equals(expected)
        assert region.equals(atj_slice_oracle(mesh, 1, n))
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_opposing_pair_geometric_extensions():
    with criterion(2, "opposing hanging pair: geometric extension by parity"):
        mesh, info = fx.opposing_hanging_pair(1, 1)
        m, n = info["m"], info["n"]
        regions = {gtj(mesh, t).region for t in find_tjunctions(mesh)}
        assert regions == {((m, m + 1), (n, n))}
        mesh, info = fx.opposing_hanging_pair(2, 1)
        assert gtj_union(mesh, 1).equals(atj_union(mesh, 1))


def test_criterion_03_corner_triple_classification():
    with criterion(3, "corner junction triple: AAS but not SGAS"):
        mesh, info = fx.corner_tjunction_triple()
        m, n = info["m"], info["n"]
        assert is_aas(mesh)[0]
        ok, witnesses = is_sgas(mesh)
        assert not ok and witnesses
        for _, _, inter in witnesses:
            assert inter == ((m - 1, m - 1), (n, n))


def test_criterion_04_crossing_edges_verdicts():
    with criterion(4, "crossing hanging edges: WGAS+WDC, not SGAS/SDC"):
        for degrees in ((1, 1, 1), (2, 2, 2), (3, 2, 1)):
            mesh, _ = fx.crossing_hanging_edges(degrees)
            assert is_admissible(mesh)[0]
            assert is_wgas(mesh)[0], degrees
            assert not is_sgas(mesh)[0], degrees
            assert is_wdc(mesh)[0], degrees
            assert not is_sdc(mesh)[0], degrees


ROW_PATTERNS = {
    # first component offset -> (has n+1 in K_2, has r+1 in K_3)
    (0, 0): (False, True),
    (1, 1): (False, True),
    (2, 2): (True, False),
    (3, 3): (True, False),
    (0, 1): (False, True),
    (1, 2): (False, False),
    (2, 3): (True, False),
}


def test_criterion_05_global_vector_table():
    with criterion(5, "crossing edges: global vectors match all 7 rows"):
        rows_seen = set()
        for degrees in ((1, 1, 1), (2, 2, 2), (3, 2, 1)):
            mesh, info = fx.crossing_hanging_edges(degrees)
            m, n, r = info["m"], info["n"], info["r"]
            for a in anchor_set(mesh):
                key = (a[0][0] - m, a[0][1] - m)
                expected = ROW_PATTERNS[key]
                k2 = global_knot_vector(mesh, a, 1)
                k3 = global_knot_vector(mesh, a, 2)
                assert ((n + 1) in k2) == expected[0], (degrees, a)
                assert ((r + 1) in k3) == expected[1], (degrees, a)
                # the hidden entries are always present
                f2 = mesh.domain.frame_width(1)
                f3 = mesh.domain.frame_width(2)
                n2, n3 = mesh.domain.extents[1], mesh.domain.extents[2]
                assert set(range(f2 + 1)) <= set(k2)
                assert set(range(n2 - f2, n2 + 1)) <= set(k2)
                assert set(range(f3 + 1)) <= set(k3)
                assert set(range(n3 - f3, n3 + 1)) <= set(k3)
                rows_seen.add(key)
        assert rows_seen == set(ROW_PATTERNS)


def test_criterion_06_aas_equals_sdc_on_corpus(corpus200):
    with criterion(6, "equivalence of abstract suitability and strong DC"):
        t0 = time.monotonic()
        report = crosscheck_aas_sdc(corpus200["meshes"])
        assert report["checked"] == 200
        assert report["disagreements"] == [] and report["ok"]
        elapsed = corpus200["build_seconds"] + time.monotonic() - t0
        assert elapsed < 300.0, f"corpus run took {elapsed:.0f}s"


def test_criterion_07_sgas_implies_aas_on_corpus(corpus200):
    with criterion(7, "strong geometric suitability implies abstract"):
        report = crosscheck_sgas_aas(corpus200["meshes"])
        assert report["checked"] + report["skipped"] == 200
        assert report["checked"], "corpus contains no strongly suitable meshes"
        assert report["failures"] == [] and report["ok"]


def test_criterion_08_linear_independence_on_sdc_corpus(corpus200):
    with criterion(8, "full collocation rank on strongly DC corpus"):
        sdc_meshes = [(s, m) for s, m in corpus200["meshes"] if is_sdc(m)[0]]
        assert sdc_meshes
        for s, m in sdc_meshes:
            t0 = time.monotonic()
            report = linear_independence_rank(m)
            assert report.independent, (s, report.num_anchors, report.rank)
            assert rank_verdict_stable(report), s
            assert time.monotonic() - t0 < 10.0, s


def test_criterion_09_partition_of_unity_on_wdc_corpus(corpus200):
    with criterion(9, "partition of unity on weakly DC corpus"):
        wdc_meshes = [(s, m) for s, m in corpus200["meshes"] if is_wdc(m)[0]]
        assert wdc_meshes
        for s, m in wdc_meshes:
            deviation = partition_of_unity(m, samples=1000, seed=s % 99991)
            assert deviation < 1e-10, (s, deviation)


def test_criterion_10_band_gap_vector_goldens():
    with criterion(10, "band-gap local knot vector goldens"):
        mesh, info = fx.band_gap_mesh("skip")
        mb = info["mbar"]
        assert local_knot_vector(mesh, ((mb, mb), (3, 5), (1, 3)), 0) == \
            (mb - 2, mb - 1, mb, mb + 1, mb + 2)
        assert local_knot_vector(mesh, ((mb, mb), (1, 3), (1, 3)), 0) == \
            (mb - 2, mb - 1, mb, mb + 2, mb + 3)
        even, info = fx.band_gap_mesh_even()
        m1, m2 = info["m1"], info["m2"]
        assert local_knot_vector(even, ((m1, m2), (3, 5), (2, 2)), 0) == \
            (m1 - 2, m1 - 1, m1, m2, m2 + 1, m2 + 2)
        assert local_knot_vector(even, ((m1, m2 + 1), (1, 3), (2, 2)), 0) == \
            (m1 - 2, m1 - 1, m1, m2 + 1, m2 + 2, m2 + 3)


# frozen from the independent per-slice enumeration oracle
CASCADE_ATJ_1 = [((3, 3), (2, 10)), ((4, 4), (2, 18)), ((6, 6), (2, 19))]
CASCADE_GTJ_1 = [((3, 3), (3, 10)), ((4, 4), (4, 18)), ((6, 6), (6, 19))]


def test_criterion_11_corner_cascade_strict_containment():
    with criterion(11, "corner cascade: geometric strictly inside abstract"):
        mesh, _ = fx.corner_cascade()
        atj1 = atj_union(mesh, 0)
        gtj1 = gtj_union(mesh, 0)
        assert gtj1.subset(atj1)
        assert not atj1.subset(gtj1)
        assert atj1.equals(BoxRegion(2, CASCADE_ATJ_1))
        assert gtj1.equals(BoxRegion(2, CASCADE_GTJ_1))
        for n in range(mesh.domain.extents[0] + 1):
            assert atj_slice(mesh, 0, n).region.equals(
                atj_slice_oracle(mesh, 0, n))


def test_criterion_12_conjecture_harness():
    with criterion(12, "weak-suitability/weak-DC conjecture search"):
        t0 = time.monotonic()
        stream = list(mesh_stream(424243, 500, max_steps=18,
                                  keep=lambda m: is_wgas(m)[0]))
        report = wgas_wdc_counterexample_search(stream)
        assert report["checked"] == 500
        assert report["wgas"] == 500
        print(f"  conjecture log: {len(report['candidates'])} candidate(s)")
        for cand in report["candidates"]:
            replayed = replay_prefix(cand["mesh"],
                                     len(cand["mesh"].refinement_log))
            assert replayed.entities == cand["mesh"].entities
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"harness took {elapsed:.0f}s"


def test_criterion_13_property_suites():
    with criterion(13, "lemma/property suites"):
        assert overlap_pair_suite(10_000, seed=1357) == {"pairs": 10_000,
                                                         "failures": []}

        probe_meshes = [fx.running_example_3d()[0],
                        fx.corner_tjunction_triple()[0],
                        fx.corner_cascade()[0]]
        for idx, mesh in enumerate(probe_meshes):
            report = separation_probe_suite(mesh, probes=1000, seed=idx)
            assert report == {"probes": 1000, "failures": []}

        wgas_checked = 0
        for _, mesh in mesh_stream(4242, 8, max_steps=12,
                                   keep=lambda m: is_wgas(m)[0]):
            projection_dichotomy_suite(mesh)
            wgas_checked += 1
        assert wgas_checked >= 5

        sgas_checked = 0
        for _, mesh in mesh_stream(5353, 16, max_steps=12,
                                   direction_mode="single"):
            if is_sgas(mesh)[0]:
                sgas_overlap_suite(mesh)
                sgas_checked += 1
        assert sgas_checked >= 5

        inheritance = child_anchor_suite(seed=9000, wanted_steps=50)
        assert inheritance["applicable"] == 50
        assert not inheritance["failures"]

        refined, info = fx.flat_block_center_split()
        assert not check_three_direction_assumption(info["initial"])
