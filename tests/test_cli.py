import json
from importlib import resources

from tmeshkit import fixtures as fx
from tmeshkit.cli import main
from tmeshkit.meshio import load_mesh, save_mesh


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


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


def test_refine_exit_codes(tmp_path):
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


def test_malformed_mesh_files_exit_4(tmp_path, capsys):
    good = tmp_path / "good.json"
    run("new", "--dim", "2", "--extents", "6,6", "--degrees", "1,1",
        "--out", str(good))
    data = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    # a refinement point on a cell face; one breakpoint or knot list in 2-D
    for patch, message in (
            ({"refinements": [{"point": [2, "5/2"], "direction": 1}]},
             "refinement 1: no cell strictly contains"),
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


def test_lin_indep_output(tmp_path, capsys):
    mesh_file = tmp_path / "m.json"
    save_mesh(fx.opposing_hanging_pair(2, 1)[0], mesh_file)
    assert run("lin-indep", "--mesh", str(mesh_file)) == 0
    out = capsys.readouterr().out
    assert "anchors=" in out and "independent" in out


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


def test_verify_suites_run(tmp_path):
    assert run("verify", "--suite", "thm61", "--seeds", "6", "--seed", "3") == 0
    assert run("verify", "--suite", "thm62", "--seeds", "6", "--seed", "3") == 0
    report = tmp_path / "conj.json"
    assert run("verify", "--suite", "conj63", "--seeds", "4", "--seed", "3",
               "--json", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["candidates"] == []
    report = tmp_path / "props.json"
    assert run("verify", "--suite", "props", "--seeds", "2", "--seed", "3",
               "--json", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["pairs"] == 10_000 and payload["probes"] > 0


def test_verify_rejects_empty_stream(capsys):
    # no mesh checked is no agreement: every suite refuses to run vacuously
    for suite in ("thm61", "thm62", "conj63", "props"):
        for seeds in ("0", "-3"):
            capsys.readouterr()
            assert run("verify", "--suite", suite, "--seeds", seeds) == 2
            captured = capsys.readouterr()
            assert "--seeds must be at least 1" in captured.err
            assert captured.out == ""
