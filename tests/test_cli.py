import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import fixtures as fx
import pytest
from conftest import run

import tmeshkit
from tmeshkit import regions
from tmeshkit.anchors import anchor_set
from tmeshkit.cli import main
from tmeshkit.mesh import TMesh
from tmeshkit.meshio import load_mesh, save_mesh
from tmeshkit.topology import NotFound

SRC = Path(tmeshkit.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = resources.files("tmeshkit").joinpath("data")


def test_new_refine_check_flow(tmp_path):
    mesh_file = tmp_path / "m.json"
    assert run("new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
               "--breakpoints", "0,1,2,4,5,6;0,1,2,4,5,6",
               "--out", str(mesh_file)) == 0
    assert run("refine", "--mesh", str(mesh_file), "--at", "3,3", "--dir", "1",
               "--out", str(mesh_file)) == 0
    mesh = load_mesh(mesh_file)
    assert len(mesh.refinement_log) == 1
    assert run("check", "--mesh", str(mesh_file), "--which", "admissible") == 0


def test_refine_exit_codes(tmp_path, capsys):
    mesh_file = tmp_path / "m.json"
    run("new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
        "--out", str(mesh_file))
    # width-1 cell: non-integer midpoint
    assert run("refine", "--mesh", str(mesh_file), "--at", "3/2,3/2",
               "--dir", "1") == 3
    # frame cell: precondition
    assert run("refine", "--mesh", str(mesh_file), "--at", "1/2,3",
               "--dir", "1") == 2
    # bad point text
    assert run("refine", "--mesh", str(mesh_file), "--at", "x,y",
               "--dir", "1") == 2
    # a point on a face, written back as the file format writes numbers
    capsys.readouterr()
    assert run("refine", "--mesh", str(mesh_file), "--at", "3,7/2",
               "--dir", "1") == 2
    assert capsys.readouterr().err == (
        "error: no cell strictly contains (3, 7/2)\n")


def test_malformed_mesh_files_exit_4(tmp_path, capsys):
    good = tmp_path / "good.json"
    run("new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
        "--out", str(good))
    data = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    # a refinement point on a cell face; one breakpoint or knot list in 2-D
    for patch, message in (
            ({"refinements": [{"point": [2, "5/2"], "direction": 1}]},
             "refinement 1: no cell strictly contains (2, 5/2)"),
            ({"breakpoints": data["breakpoints"][:1]}, "breakpoint lists"),
            ({"parametric_knots": data["parametric_knots"][:1]},
             "parametric_knots lists")):
        bad.write_text(json.dumps(data | patch))
        capsys.readouterr()
        assert run("check", "--mesh", str(bad)) == 4
        assert run("lin-indep", "--mesh", str(bad)) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(message in line for line in err)
    assert run("new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
               "--breakpoints", "0,1,2,4,5,6", "--out", str(bad)) == 2


def test_lattice_size_limit_exit_codes(tmp_path, capsys):
    # 10001 * 10001 lattice points exceed the limit, as a flag or in a file;
    # coarse breakpoints and `refine` keep a regression from allocating
    # a raster or 10**8 entities before it fails
    huge = tmp_path / "huge.json"
    assert run("new", "--dim", "2", "--extents", "5000,5000", "--degrees", "1,1",
               "--breakpoints", "0,5000;0,5000", "--out", str(huge)) == 2
    assert not huge.exists()
    good = tmp_path / "good.json"
    run("new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
        "--out", str(good))
    data = json.loads(good.read_text())
    huge.write_text(json.dumps(data | {
        "extents": [5000, 5000], "parametric_knots": [],
        "breakpoints": [[0, 5000], [0, 5000]]}))
    capsys.readouterr()
    assert run("refine", "--mesh", str(huge), "--at", "2500,2500",
               "--dir", "1") == 4
    assert "lattice points" in capsys.readouterr().err


def test_check_shipped_crossing_edges_fixture(tmp_path, capsys):
    data = resources.files("tmeshkit").joinpath(
        "data/crossing_hanging_edges_p321.json")
    mesh_file = tmp_path / "fixture.json"
    mesh_file.write_bytes(data.read_bytes())
    report = tmp_path / "report.json"
    code = run("check", "--mesh", str(mesh_file), "--which", "all",
               "--json", str(report))
    out = capsys.readouterr().out
    assert code == 1  # sgas and sdc fail on this fixture
    assert "admissible pass" in out.replace("  ", " ")
    verdicts = json.loads(report.read_text())["checks"]
    assert verdicts["admissible"]["ok"] is True
    assert verdicts["wgas"]["ok"] is True
    assert verdicts["wdc"]["ok"] is True
    assert verdicts["sgas"]["ok"] is False
    assert verdicts["sdc"]["ok"] is False
    assert verdicts["sgas"]["witnesses"]


def test_unknown_flag_and_bad_json(tmp_path):
    assert run("check", "--bogus") == 5
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("check", "--mesh", str(bad)) == 4
    missing = tmp_path / "missing.json"
    assert run("lin-indep", "--mesh", str(missing)) == 4


def test_check_validates_which_before_it_reads_the_mesh(tmp_path, capsys):
    # sgas fails on this mesh: an unknown name later in the list must stop
    # check before any verdict is printed, and a repeated name runs once
    mesh_file = tmp_path / "fixture.json"
    mesh_file.write_bytes(
        DATA.joinpath("crossing_hanging_edges_p321.json").read_bytes())
    for mesh, which in ((mesh_file, "sgas,bogus"), (mesh_file, "bogus"),
                        (tmp_path / "missing.json", "sgas,bogus")):
        assert run("check", "--mesh", str(mesh), "--which", which) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: unknown check 'bogus'"]
    report = tmp_path / "report.json"
    assert run("check", "--mesh", str(mesh_file), "--which", "sgas,wdc,sgas",
               "--json", str(report)) == 1
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["sgas", "FAIL"], ["wdc", "pass"]]
    assert list(json.loads(report.read_text())["checks"]) == ["sgas", "wdc"]


def test_lin_indep_output(tmp_path, capsys):
    mesh_file = tmp_path / "m.json"
    save_mesh(fx.opposing_hanging_pair(2, 1)[0], mesh_file)
    assert run("lin-indep", "--mesh", str(mesh_file)) == 0
    out = capsys.readouterr().out
    assert "anchors=" in out and "independent" in out


# corpus meshes whose active cells' Gauss grid has rank < n, and which
# have full rank on the unit index cells
UNDERSAMPLED = {38: 127, 66: 96, 107: 127, 141: 130, 145: 146, 161: 194,
                182: 127}


def test_lin_indep_resamples_before_it_says_dependent(tmp_path, capsys,
                                                     corpus200):
    for k, n in UNDERSAMPLED.items():
        mesh_file = tmp_path / f"m{k}.json"
        save_mesh(corpus200["meshes"][k][1], mesh_file)
        capsys.readouterr()
        assert main(["lin-indep", "--mesh", str(mesh_file)]) == 0, k
        assert capsys.readouterr().out == f"anchors={n} rank={n} independent\n"


def test_lin_indep_says_dependent_when_both_samplings_are(tmp_path, capsys,
                                                          monkeypatch):
    # a repeated column at both samplings is a real dependence
    from tmeshkit import splines

    mesh_file = tmp_path / "m.json"
    save_mesh(fx.opposing_hanging_pair(2, 1)[0], mesh_file)
    build, rows = splines.evaluation_matrix, []

    def repeated(mesh, points):
        mat = build(mesh, points)
        rows.append(len(mat))
        mat[:, -1] = mat[:, 0]
        return mat

    monkeypatch.setattr(splines, "evaluation_matrix", repeated)
    capsys.readouterr()
    assert main(["lin-indep", "--mesh", str(mesh_file)]) == 1
    n = len(anchor_set(load_mesh(mesh_file)))
    assert capsys.readouterr().out == f"anchors={n} rank={n - 1} DEPENDENT\n"
    assert len(rows) == 2 and rows[0] < rows[1]


def test_export_svg_and_region(tmp_path):
    mesh_file = tmp_path / "m.json"
    save_mesh(fx.running_example_3d()[0], mesh_file)
    out = tmp_path / "slice.svg"
    assert run("export", "--mesh", str(mesh_file), "--slice", "3=2",
               "--layers", "skeleton,atj,gtj,anchors",
               "--out", str(out)) == 0
    text = out.read_text()
    assert '<g id="layer-atj">' in text
    # cell addressing by point keeps scripts stable: exporting twice
    # after a save/load round-trip yields identical bytes
    mesh2 = load_mesh(mesh_file)
    from tmeshkit.svgexport import render_slice_svg

    assert render_slice_svg(mesh2, 2, 2,
                            ("skeleton", "atj", "gtj", "anchors")) == text


def test_export_draws_a_repeated_layer_once(tmp_path):
    # a layer drawn twice gave two elements of one XML id
    mesh, out = str(DATA.joinpath("running_example_p321.json")), tmp_path / "s"
    svgs = []
    for layers in ("skeleton,atj", "skeleton,atj,atj,skeleton"):
        assert run("export", "--mesh", mesh, "--slice", "3=2", "--layers",
                   layers, "--out", str(out)) == 0
        svgs.append(out.read_bytes())
    assert svgs[0] == svgs[1] and svgs[0].count(b'<g id="layer-atj">') == 1


@pytest.mark.parametrize("dim", [1, 4])
def test_export_names_an_unsupported_dimension(tmp_path, capsys, dim):
    # these said "need a --slice k=n for 3D meshes", with or without a slice
    mesh_file = tmp_path / "m.json"
    assert run("new", "--dim", str(dim), "--extents", ",".join(["4"] * dim),
               "--degrees", ",".join(["1"] * dim), "--out", str(mesh_file)) == 0
    capsys.readouterr()
    for slice_args in ([], ["--slice", "1=2"]):
        assert run("export", "--mesh", str(mesh_file), *slice_args,
                   "--out", str(tmp_path / "s.svg")) == 2
        err = capsys.readouterr().err
        assert err == (f"error: SVG export draws 2-D meshes and slices of 3-D "
                       f"meshes; this mesh is {dim}-D\n")
    assert not (tmp_path / "s.svg").exists()


def test_verify_suites_run(tmp_path):
    assert run("verify", "--suite", "thm61", "--seeds", "6", "--seed", "3") == 0
    assert run("verify", "--suite", "thm62", "--seeds", "6", "--seed", "3") == 0
    report = tmp_path / "conj.json"
    assert run("verify", "--suite", "conj63", "--seeds", "4", "--seed", "3",
               "--json", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["candidates"] == []
    # on the two meshes of seed 29, every lemma and cross-check driver
    # checks something
    report = tmp_path / "props.json"
    assert main(["verify", "--suite", "props", "--seeds", "2", "--seed", "29",
                 "--json", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["meshes"] == 2 and payload["ok"]
    assert len(payload["suites"]) == 15
    assert all(r["checked"] > 0 for r in payload["suites"].values())


# suite and --seeds: the meshes the suite reads, its stdout and its report;
# conj63 reads only its own WGAS stream, and props its stream and one
# child-anchor draw per streamed mesh
PROPS_COUNTS = {"overlap_pairs": 10000, "separation_probes": 1200,
                "disjoint_union": 70000, "admissibility_walk": 265,
                "extension_witnesses": 215, "projection_dichotomy": 1034,
                "sgas_overlap": 298, "tjunction": 645, "atj_slice": 184,
                "aas": 135, "gas": 9738, "dc": 4666, "anchor_arrays": 2102,
                "gtj_table": 1297, "child_anchors": 13}
VERIFY_READS = {
    ("conj63", "3"): (3, "conj63: 3 wgas meshes, 0 candidate counterexamples\n",
                      {"checked": 3, "wgas": 3, "candidates": []}),
    ("props", "7"): (14, "props: 7 meshes, " + ", ".join(
        f"{name} {n}" for name, n in PROPS_COUNTS.items()) + ", ok\n",
        {"meshes": 7, "ok": True, "suites": {
            name: {"checked": n, "failures": []}
            for name, n in PROPS_COUNTS.items()}}),
}


@pytest.mark.parametrize("suite, seeds", sorted(VERIFY_READS))
def test_verify_builds_only_the_meshes_it_reads(tmp_path, capsys, monkeypatch,
                                                suite, seeds):
    from tmeshkit import verify

    calls, build = [], verify.random_admissible_mesh
    monkeypatch.setattr(verify, "random_admissible_mesh",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    built, out, payload = VERIFY_READS[suite, seeds]
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run("verify", "--suite", suite, "--seeds", seeds, "--seed", "3",
               "--json", str(report)) == 0
    assert capsys.readouterr().out == out
    assert json.loads(report.read_text()) == payload
    assert len(calls) == built


def test_verify_report_carries_each_disagreeing_mesh(tmp_path, capsys,
                                                     monkeypatch):
    # a flipped SDC verdict breaks Theorem 6.1 on every mesh; each
    # disagreement's mesh is written in the file format and replays to
    # the streamed mesh
    from tmeshkit import verify
    from tmeshkit.meshio import mesh_from_dict

    is_sdc = verify.is_sdc
    monkeypatch.setattr(verify, "is_sdc", lambda m: (not is_sdc(m)[0], ()))
    report = tmp_path / "thm61.json"
    capsys.readouterr()
    assert main(["verify", "--suite", "thm61", "--seeds", "2",
                 "--json", str(report)]) == 1
    assert "agreement BROKEN" in capsys.readouterr().out
    found = json.loads(report.read_text())["disagreements"]
    streamed = list(verify.mesh_stream(0, 2))
    assert [d["seed"] for d in found] == [seed for seed, _ in streamed]
    for d, (_, mesh) in zip(found, streamed):
        assert mesh_from_dict(d["mesh"]).entities == mesh.entities


def _not_found(mesh, x, y, i):
    raise NotFound("none")


def _without_cells(union):
    # the complex less its open cells, which cover most points
    return lambda mesh, *args: union(
        TMesh(mesh.domain, mesh.breakpoints, {**mesh.entities, (): frozenset()}),
        *args)


def test_verify_props_report_lists_each_failure(tmp_path, capsys,
                                               monkeypatch):
    # a flipped overlap verdict fails every pair, a search that finds
    # nothing every probe; the report lists both, and the suite fails
    from tmeshkit import verify

    monkeypatch.setattr(verify, "knots_overlap", lambda v1, v2: (
        not verify.knots_overlap_oracle(v1, v2)))
    monkeypatch.setattr(verify, "find_separating_tjunction", _not_found)
    suites = _failed_props(tmp_path, capsys)
    assert len(suites["overlap_pairs"]["failures"]) == 10_000
    probes = suites["separation_probes"]
    assert probes["checked"] == 400 and len(probes["failures"]) == 400
    assert {f[1][3] for f in probes["failures"]} == {"NotFound: none"}


# lemma or cross-check driver, the `verify` name broken for it, the
# break, and whether every check of the driver then fails
PROPS_FAULTS = [
    ("disjoint_union", "disjoint_union_suite", _without_cells, False),
    ("admissibility_walk", "is_admissible",
     lambda f: lambda mesh: (False, (("slice_not_in_skeleton", 0, 0),)), True),
    ("extension_witnesses", "find_separating_tjunction", lambda f: _not_found,
     True),
    ("projection_dichotomy", "hull_in_skeleton",
     lambda f: lambda mesh, j, hull: False, False),
    ("sgas_overlap", "knots_overlap", lambda f: lambda v1, v2: False, True),
    # each support collapses to its lowest corner
    ("child_anchors", "index_support",
     lambda f: lambda mesh, a: tuple((lo, lo) for lo, _ in f(mesh, a)), False),
    # each junction list loses its first, which shifts all the others
    ("tjunction", "find_tjunctions", lambda f: lambda m: f(m)[1:], True),
    ("atj_slice", "atj_slice", lambda f: lambda m, j, n: replace(
        f(m, j, n), region=regions.BoxRegion(m.dim)), False),
    ("aas", "is_aas", lambda f: lambda m: (not f(m)[0], f(m)[1]), False),
    ("gas", "is_wgas", lambda f: lambda m: (f(m)[0], ()), False),
    ("dc", "is_sdc", lambda f: lambda m: (not f(m)[0], f(m)[1]), False),
    ("anchor_arrays", "anchor_arrays", lambda f: lambda m: f(m)._replace(
        support=f(m).support + 1), False),
    ("gtj_table", "_gtj_table", lambda f: lambda m: (f(m)[0], f(m)[1] + 1),
     False),
]


@pytest.mark.parametrize("name, patched, fault, every", PROPS_FAULTS)
def test_verify_props_report_lists_each_driver_failure(
        tmp_path, capsys, monkeypatch, name, patched, fault, every):
    from tmeshkit import verify

    monkeypatch.setattr(verify, patched, fault(getattr(verify, patched)))
    suite = _failed_props(tmp_path, capsys)[name]
    assert suite["checked"] > 0 and suite["failures"]
    assert every == (len(suite["failures"]) == suite["checked"])


def _failed_props(tmp_path, capsys) -> dict:
    """The suite reports of a props run on the two meshes of seed 29,
    which must fail, with stdout giving each driver's count."""
    report = tmp_path / "props.json"
    capsys.readouterr()
    assert main(["verify", "--suite", "props", "--seeds", "2", "--seed", "29",
                 "--json", str(report)]) == 1
    suites = json.loads(report.read_text())["suites"]
    assert capsys.readouterr().out == "props: 2 meshes, " + ", ".join(
        f"{n} {r['checked']}" for n, r in suites.items()) + ", FAILED\n"
    return suites


def test_verify_rejects_empty_stream(capsys):
    # no mesh checked is no agreement: every suite refuses to run vacuously
    for suite in ("thm61", "thm62", "conj63", "props"):
        for seeds in ("0", "-3"):
            capsys.readouterr()
            assert run("verify", "--suite", suite, "--seeds", seeds) == 2
            captured = capsys.readouterr()
            assert "--seeds must be at least 1" in captured.err
            assert captured.out == ""


def _python(code, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.splitlines()[-1]


NUMPY_PROBE = """
import sys
import tmeshkit
loaded = sorted(m for m in sys.modules if m.startswith("tmeshkit."))
from tmeshkit.cli import main
print(main(sys.argv[1:]), loaded, "numpy" in sys.modules)
"""


def test_new_and_refine_do_not_load_numpy(tmp_path):
    # building, replaying and refining a mesh is exact integer work, so
    # the write commands must not pay for numpy at start-up
    new = ["new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
           "--breakpoints", "0,1,2,4,5,6;0,1,2,4,5,6", "--out", "m.json"]
    assert _python(NUMPY_PROBE, *new, cwd=tmp_path) == "0 [] False"
    for at, direction in (("3,3", "1"), ("5/2,3", "2")):
        # the second refine replays the first from the file's log
        refine = ["refine", "--mesh", "m.json", "--at", at, "--dir", direction]
        assert _python(NUMPY_PROBE, *refine, cwd=tmp_path) == "0 [] False"
    assert len(load_mesh(tmp_path / "m.json").refinement_log) == 2


LOADED_PROBE = """
import sys
from tmeshkit.cli import main
code = main(sys.argv[1:])
print(code, " ".join(sorted(m for m in sys.modules if m.startswith("tmeshkit."))))
"""


def test_lin_indep_loads_neither_the_oracles_nor_the_classifiers(tmp_path):
    # the rank is the collocation matrix of `splines` alone
    (tmp_path / "cc.json").write_bytes(
        DATA.joinpath("corner_cascade_p33.json").read_bytes())
    code, *loaded = _python(LOADED_PROBE, "lin-indep", "--mesh", "cc.json",
                            cwd=tmp_path).split()
    assert code == "0"
    assert "tmeshkit.splines" in loaded
    assert not {"tmeshkit.verify", "tmeshkit.suitability",
                "tmeshkit.dualcompat", "tmeshkit.topology",
                "tmeshkit.witnesses"} & set(loaded)


def test_three_direction_check_does_not_load_numpy(tmp_path):
    # the neighbor assumption is one cell lookup per face, with no raster;
    # the shipped running example is `fixtures.running_example_3d()`
    (tmp_path / "re.json").write_bytes(
        DATA.joinpath("running_example_p321.json").read_bytes())
    code = """
import sys
from tmeshkit.mesh import build_framed_mesh, check_three_direction_assumption
from tmeshkit.meshio import load_mesh
cube = build_framed_mesh((1, 1, 1), [[0, 2, 4]] * 3)
verdicts = [check_three_direction_assumption(m) for m in
            (cube, load_mesh("re.json"))]
print(verdicts, "numpy" in sys.modules)
"""
    assert _python(code, cwd=tmp_path) == "[True, False] False"


# the names the package exported when its __init__ imported them eagerly
PUBLIC = {
    "mesh": "CellOutsideActiveRegion DimensionTooSmall IndexDomain MeshError "
            "NonIntegerMidpoint NotACell TMesh active_region build_framed_mesh "
            "create_tensor_mesh find_cell_containing frame_region "
            "frame_region_k is_admissible check_three_direction_assumption "
            "orth_entities skeleton subdiv",
    "regions": "Box BoxRegion DimensionMismatch",
    "topology": "ClassificationAmbiguous NotFound PreconditionViolated "
                "TJunction find_separating_tjunction find_tjunctions "
                "min_connecting_box tjunctions_by_odir",
    "anchors": "InsufficientKnots anchor_set global_knot_vector index_support "
               "local_knot_vector",
    "splines": "DegenerateKnots bspline_eval supports_overlap tspline "
               "tspline_eval",
    "suitability": "AbstractExtension GeometricExtension NonAdjacentCellBounds "
                   "atj_slice atj_union gtj gtj_union is_aas is_sgas is_wgas",
    "dualcompat": "SameAnchor is_sdc is_wdc knots_overlap "
                  "strongly_partially_overlap weakly_partially_overlap",
}


def test_public_names_resolve_to_their_defining_objects():
    names = [n for module in PUBLIC.values() for n in module.split()]
    assert sorted(tmeshkit.__all__) == sorted(names)
    for module, listed in PUBLIC.items():
        defining = importlib.import_module(f"tmeshkit.{module}")
        for name in listed.split():
            assert getattr(tmeshkit, name) is getattr(defining, name), name
    assert set(tmeshkit.__all__) <= set(dir(tmeshkit))
    with pytest.raises(AttributeError):
        tmeshkit.no_such_name
    # a submodule is not in the table: the import system falls back to it
    from tmeshkit import verify
    assert verify.__name__ == "tmeshkit.verify"


TRACER_PROBE = """
import sys
sys.path[:0] = [sys.argv[1]]
import tracing, workloads
tracing.Tracer().install()
unwrapped = []
for module, qualname in tracing.TRACED:
    obj = sys.modules["tmeshkit." + module]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not hasattr(obj, "__wrapped__"):
        unwrapped.append(module + "." + qualname)
print(len(tracing.TRACED), unwrapped)
"""


def test_benchmark_tracer_installs_every_traced_function(tmp_path):
    # the tracer finds each traced module in sys.modules once the
    # benchmark's workloads are imported; a module the cli only loads
    # inside a command would be missing there
    assert _python(TRACER_PROBE, str(PERFBENCH), cwd=tmp_path) == "27 []"


# the mesh of `new --dim 2 --extents 8,8 --degrees 3,3 --breakpoints
# "0,4,8;0,4,8"`, over the fields of a saved 6 x 6 mesh
THIN = {"extents": [8, 8], "degrees": [3, 3], "parametric_knots": [],
        "breakpoints": [[0, 4, 8]] * 2}

BAD_INPUTS = {
    # running example, extents 17,13,4: direction and slice out of range
    "slice-direction-9": (["export", "--mesh", "{re}", "--slice", "9=3",
                           "--out", "{tmp}/s.svg"], 2),
    "slice-beyond-extent": (["export", "--mesh", "{re}", "--slice", "3=6",
                             "--out", "{tmp}/s.svg"], 2),
    "slice-far-beyond-extent": (["export", "--mesh", "{re}", "--slice", "2=99",
                                 "--out", "{tmp}/s.svg"], 2),
    "slice-direction-0": (["export", "--mesh", "{re}", "--slice", "0=1",
                           "--out", "{tmp}/s.svg"], 2),
    "mesh-is-directory": (["lin-indep", "--mesh", "{tmp}"], 4),
    "mesh-not-utf8": (["check", "--mesh", "{binary}"], 4),
    "mesh-nested-too-deep": (["check", "--mesh", "{deep}"], 4),
    "mesh-without-directions": (["lin-indep", "--mesh", "{dim0}"], 4),
    "new-out-unwritable": (["new", "--dim", "2", "--extents", "6,6",
                            "--degrees", "1,1", "--out", "{nodir}/m.json"], 2),
    "refine-out-unwritable": (["refine", "--mesh", "{m}", "--at", "3,3",
                               "--dir", "1", "--out", "{nodir}/m.json"], 2),
    "export-out-unwritable": (["export", "--mesh", "{m}",
                               "--out", "{nodir}/s.svg"], 2),
    "check-json-unwritable": (["check", "--mesh", "{m}", "--which", "admissible",
                               "--json", "{nodir}/r.json"], 2),
    "verify-json-unwritable": (["verify", "--suite", "thm61", "--seeds", "1",
                                "--json", "{nodir}/v.json"], 2),
    "new-breakpoint-not-integer": (["new", "--dim", "2", "--extents", "8,8",
                                    "--degrees", "1,1", "--breakpoints",
                                    "0,8;0,x", "--out", "{tmp}/n.json"], 2),
    "new-extent-not-integer": (["new", "--dim", "2", "--extents", "8,x",
                                "--degrees", "1,1", "--out", "{tmp}/n.json"], 2),
    "new-without-directions": (["new", "--dim", "0", "--extents", "",
                                "--degrees", "", "--out", "{tmp}/n.json"], 2),
    # Fraction("1e<k>") computes 10 ** k; the repr of 10 ** 5000 is past
    # int's digit limit, so this ended in a traceback
    "refine-point-exponent": (["refine", "--mesh", "{m}", "--at", "1e5000,1",
                               "--dir", "1", "--out", "{tmp}/r.json"], 2),
    "mesh-knot-exponent": (["lin-indep", "--mesh", "{knot_exp}"], 4),
    "mesh-knot-beyond-float": (["lin-indep", "--mesh", "{knot_big}"], 4),
    "mesh-integer-too-long": (["check", "--mesh", "{long_int}"], 4),
    # 0, 10^-400, 2*10^-400, ...: increasing, but equal as floats
    "mesh-knots-equal-as-floats-check": (["check", "--mesh", "{knot_tiny}"], 4),
    "mesh-knots-equal-as-floats-lin-indep": (["lin-indep", "--mesh",
                                              "{knot_tiny}"], 4),
    # a full 2047 x 2047 tensor mesh: its 4095^2 lattice points are within
    # the lattice limit, its 4095^2 entities beyond the entity limit
    "new-entities-beyond-limit": (["new", "--dim", "2", "--extents", "2047,2047",
                                   "--degrees", "1,1", "--out", "{tmp}/n.json"], 2),
    "mesh-entities-beyond-limit": (["check", "--mesh", "{many}"], 4),
    # the running example's 33 030 candidate anchor pairs, under a limit
    # the test lowers to 1000
    "check-pairs-beyond-limit": (["check", "--mesh", "{re}", "--which", "sdc"],
                                 2),
    # a bicubic 8 x 8 mesh sliced only at 0, 4, 8: no knot window fits, and
    # these two ended in an InsufficientKnots traceback with exit 1
    "lin-indep-knots-do-not-fit": (["lin-indep", "--mesh", "{thin}"], 2),
    "export-knots-do-not-fit": (["export", "--mesh", "{thin}",
                                 "--out", "{tmp}/s.svg"], 2),
    # a bicubic 104 x 104 tensor mesh: 160 000 Gauss points x 10 201
    # anchors, a 12.2 GiB collocation matrix that ended in a MemoryError
    # traceback with exit 1
    "lin-indep-collocation-beyond-limit": (["lin-indep", "--mesh", "{big}"],
                                           2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_exit_with_one_error_line(tmp_path, capsys, monkeypatch,
                                            case):
    argv, code = BAD_INPUTS[case]
    if case == "check-pairs-beyond-limit":
        monkeypatch.setattr(regions, "MAX_CANDIDATE_PAIRS", 1000)
    paths = {"tmp": tmp_path, "nodir": tmp_path / "no-such-dir",
             "re": tmp_path / "re.json", "m": tmp_path / "m.json",
             "binary": tmp_path / "binary.json", "deep": tmp_path / "deep.json",
             "dim0": tmp_path / "dim0.json", "knot_exp": tmp_path / "knot_exp.json",
             "knot_big": tmp_path / "knot_big.json",
             "long_int": tmp_path / "long_int.json",
             "knot_tiny": tmp_path / "knot_tiny.json",
             "many": tmp_path / "many.json", "thin": tmp_path / "thin.json",
             "big": tmp_path / "big.json"}
    paths["re"].write_bytes(
        DATA.joinpath("running_example_p321.json").read_bytes())
    assert run("new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
               "--breakpoints", "0,1,2,4,5,6;0,1,2,4,5,6",
               "--out", str(paths["m"])) == 0
    paths["binary"].write_bytes(b'{"dim": "\xff\xfe"}')
    paths["deep"].write_text("[" * 100_000)
    data = json.loads(paths["m"].read_text())
    paths["dim0"].write_text(json.dumps(data | {
        "dim": 0, "extents": [], "degrees": [], "parametric_knots": [],
        "breakpoints": [], "refinements": []}))
    for name, knot in (("knot_exp", "1e400"), ("knot_big", 10 ** 400)):
        paths[name].write_text(json.dumps(data | {"parametric_knots": [
            [0, 1, 2, 3, 4, 5, knot], list(range(7))]}))
    paths["long_int"].write_text(json.dumps(data).replace(
        '"dim": 2', '"dim": ' + "2" * 5000))
    tiny = [f"{i}/1{'0' * 400}" for i in range(4)]
    paths["knot_tiny"].write_text(json.dumps(data | {"parametric_knots": [
        [*tiny, 4, 5, 6], list(range(7))]}))
    paths["many"].write_text(json.dumps(data | {
        "extents": [2047, 2047], "parametric_knots": [],
        "breakpoints": [list(range(2048))] * 2}))
    paths["thin"].write_text(json.dumps(data | THIN))
    paths["big"].write_text(json.dumps(data | {
        "extents": [104, 104], "degrees": [3, 3], "parametric_knots": [],
        "breakpoints": [list(range(105))] * 2}))
    capsys.readouterr()
    assert run(*(arg.format(**paths) for arg in argv)) == code
    err = capsys.readouterr().err
    assert [line.startswith("error: ") for line in err.splitlines()] == [True]
    assert "Traceback" not in err


def test_check_exits_2_after_its_earlier_verdicts(tmp_path, capsys):
    # admissibility fails, then AAS needs knot windows that do not fit:
    # the admissibility line stays printed and no report is written
    mesh_file, report = tmp_path / "thin.json", tmp_path / "r.json"
    assert run("new", "--dim", "2", "--extents", "8,8", "--degrees", "3,3",
               "--breakpoints", "0,4,8;0,4,8", "--out", str(mesh_file)) == 0
    capsys.readouterr()
    assert run("check", "--mesh", str(mesh_file), "--json", str(report)) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[0].split()[:2] == ["admissible", "FAIL"]
    assert len(out.splitlines()) == 1
    assert [line.startswith("error: ") for line in err.splitlines()] == [True]
    assert not report.exists()


def test_readme_states_the_module_limits():
    # every limit the README gives as `NAME` = 2^k is the constant of the
    # module that enforces it, and every such constant is given
    import re

    from tmeshkit import anchors, mesh, splines

    owners = {"MAX_LATTICE_POINTS": mesh, "MAX_ENTITIES": mesh,
              "MAX_CANDIDATE_PAIRS": regions, "MAX_LINE_ENTRIES": anchors,
              "MAX_COLLOCATION_ENTRIES": splines}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())   # joins wrapped lines
    stated = re.findall(r"`(?:tmeshkit\.(\w+)\.)?(MAX_\w+)` = 2\^(\d+)", text)
    assert {name for _, name, _ in stated} == set(owners)
    for module, name, power in stated:
        owner = owners[name]
        assert module in ("", owner.__name__.rpartition(".")[2]), name
        assert getattr(owner, name) == 1 << int(power), name


THIN_MISFIT = ("knot window of length 5 does not fit around 4 for "
               "((4, 4), (4, 4))")
NO_ANCHORS = "the mesh has no anchors in its active region"
NO_ACTIVE_CELL = "the mesh has no cell inside its active region"
BOGUS_LAYER = "unknown layer 'bogus'"

# argv, exit code and the one stderr line of every refusal; the texts are
# pinned byte for byte, since scripts match on them
REFUSALS = {
    "mesh-missing": (["check", "--mesh", "{tmp}/missing.json"], 4,
                     "no such file: {tmp}/missing.json"),
    "mesh-is-directory": (["lin-indep", "--mesh", "{tmp}"], 4,
                          "cannot read {tmp}: Is a directory"),
    "mesh-malformed": (["check", "--mesh", "{broken}"], 4,
                       "not valid JSON: Expecting property name enclosed in "
                       "double quotes: line 1 column 2 (char 1)"),
    "new-out-unwritable": (["new", "--dim", "2", "--extents", "6,6",
                            "--degrees", "1,1", "--out", "{nodir}/m.json"], 2,
                           "cannot write {nodir}/m.json: No such file or "
                           "directory"),
    "check-json-unwritable": (["check", "--mesh", "{m}", "--which",
                               "admissible", "--json", "{nodir}/r.json"], 2,
                              "cannot write {nodir}/r.json: No such file or "
                              "directory"),
    "new-bad-integer-list": (["new", "--dim", "2", "--extents", "8,x",
                              "--degrees", "1,1", "--out", "{tmp}/n.json"], 2,
                             "bad integer list: invalid literal for int() with "
                             "base 10: 'x'"),
    "new-extents-not-dim": (["new", "--dim", "3", "--extents", "6,6",
                             "--degrees", "1,1", "--out", "{tmp}/n.json"], 2,
                            "extents/degrees must match --dim"),
    "new-domain-rejected": (["new", "--dim", "2", "--extents", "0,6",
                             "--degrees", "1,1", "--out", "{tmp}/n.json"], 2,
                            "extents must be positive"),
    "refine-bad-point": (["refine", "--mesh", "{m}", "--at", "x,y",
                          "--dir", "1"], 2, "bad point 'x,y'"),
    "refine-point-of-wrong-dimension": (["refine", "--mesh", "{m}", "--at",
                                         "3,3,3", "--dir", "1"], 2,
                                        "point/direction of wrong dimension"),
    "check-unknown-check": (["check", "--mesh", "{m}", "--which", "bogus"], 5,
                            "unknown check 'bogus'"),
    "verify-no-seeds": (["verify", "--suite", "thm61", "--seeds", "0"], 2,
                        "--seeds must be at least 1, got 0"),
    "export-bad-slice": (["export", "--mesh", "{re}", "--slice", "3",
                          "--out", "{tmp}/s.svg"], 5, "bad --slice '3'"),
    "export-slice-out-of-range": (["export", "--mesh", "{re}", "--slice",
                                   "3=6", "--out", "{tmp}/s.svg"], 2,
                                  "--slice '3=6' needs 1 <= k <= 3 and "
                                  "0 <= n <= N_k"),
    # the layers are checked before the mesh is read
    "export-unknown-layer": (["export", "--mesh", "{re}", "--layers", "atj,"
                              "bogus", "--out", "{tmp}/s.svg"], 2, BOGUS_LAYER),
    "export-unknown-layer-missing-mesh": (["export", "--mesh", "{tmp}/no.json",
                                           "--layers", "bogus", "--out",
                                           "{tmp}/s.svg"], 2, BOGUS_LAYER),
    "export-4d-mesh": (["export", "--mesh", "{m4}", "--out", "{tmp}/s.svg"], 2,
                       "SVG export draws 2-D meshes and slices of 3-D meshes; "
                       "this mesh is 4-D"),
    # a MeshError from the command itself: AAS (after the admissibility
    # verdict) and the anchors need knot windows that do not fit
    "check-knots-do-not-fit": (["check", "--mesh", "{thin}"], 2, THIN_MISFIT),
    "lin-indep-knots-do-not-fit": (["lin-indep", "--mesh", "{thin}"], 2,
                                   THIN_MISFIT),
    # a biquadratic mesh whose cells all touch the frame has no anchors
    "check-no-anchors": (["check", "--mesh", "{nb}"], 2, NO_ANCHORS),
    "lin-indep-no-anchors": (["lin-indep", "--mesh", "{nb}"], 2, NO_ANCHORS),
    "export-no-anchors": (["export", "--mesh", "{nb}", "--out",
                           "{tmp}/s.svg"], 2, NO_ANCHORS),
    # a bilinear mesh whose one anchor lies in no active cell: no sample
    "lin-indep-no-active-cell": (["lin-indep", "--mesh", "{nc}"], 2,
                                 NO_ACTIVE_CELL),
    "refine-frame-cell": (["refine", "--mesh", "{m}", "--at", "1/2,3",
                           "--dir", "1"], 2,
                          "cell ((0, 1), (2, 4)) leaves the active region in "
                          "direction 0"),
    "refine-odd-midpoint": (["refine", "--mesh", "{m}", "--at", "3/2,3/2",
                             "--dir", "1"], 3,
                            "cell ((1, 2), (1, 2)) has odd width in direction 0"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_main_returns_every_refusal_with_one_error_line(tmp_path, capsys,
                                                       case):
    # called without `run`: a refusal must come back as a return value
    argv, code, message = REFUSALS[case]
    paths = {"tmp": tmp_path, "nodir": tmp_path / "no-such-dir",
             "m": tmp_path / "m.json", "m4": tmp_path / "m4.json",
             "re": tmp_path / "re.json", "thin": tmp_path / "thin.json",
             "broken": tmp_path / "broken.json", "nb": tmp_path / "nb.json",
             "nc": tmp_path / "nc.json"}
    assert main(["new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
                 "--breakpoints", "0,1,2,4,5,6;0,1,2,4,5,6",
                 "--out", str(paths["m"])]) == 0
    assert main(["new", "--dim", "2", "--extents", "6,6", "--degrees", "2,2",
                 "--breakpoints", "0,3,6;0,3,6", "--out", str(paths["nb"])]) == 0
    assert main(["new", "--dim", "2", "--extents", "4,4", "--degrees", "1,1",
                 "--breakpoints", "0,2,4;0,2,4", "--out", str(paths["nc"])]) == 0
    assert main(["new", "--dim", "4", "--extents", "4,4,4,4",
                 "--degrees", "1,1,1,1", "--out", str(paths["m4"])]) == 0
    paths["re"].write_bytes(
        DATA.joinpath("running_example_p321.json").read_bytes())
    paths["thin"].write_text(json.dumps(
        json.loads(paths["m"].read_text()) | THIN))
    paths["broken"].write_text("{broken")
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == code
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
