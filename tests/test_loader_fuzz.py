"""Loader and argument fuzz.

Mutated copies of the shipped mesh files and of a region file either
load as exactly the mesh or region they describe, or are rejected as
malformed (`check` and `refine` exit 4) without a traceback.  Mutations
drop a key or list entry, replace a value by one of another type or out
of range, or make a list one entry shorter or longer.

Command lines for all six commands, drawn from valid and malformed flag
values, input paths that are missing, unreadable or not meshes, and
outputs that cannot be written, exit with a documented code (0-5) and
print at most one error line.

Examples are derandomized and capped so the module runs in seconds.
"""

import copy
import json
from fractions import Fraction
from functools import reduce
from importlib import resources
from operator import getitem

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmeshkit.cli import main
from tmeshkit.meshio import (MeshFormatError, load_mesh, region_from_json,
                             region_to_json)
from tmeshkit.regions import BoxRegion

DATA = resources.files("tmeshkit").joinpath("data")
SHIPPED = {p.name: json.loads(p.read_text(encoding="utf-8"))
           for p in DATA.iterdir() if p.name.endswith(".json")}
REGION = region_to_json(BoxRegion(3, [
    ((1, 1), (0, 2), (Fraction(1, 2), 3)),
    ((0, 4), (2, 2), (0, 1)),
    ((2, 3), (Fraction(5, 2), 4), (4, 4))]))

REPLACEMENTS = (None, True, False, 0, -1, 1, 2, 3, 10**9, 2.5, 7.0, "7",
                "3/2", "x", "1/0", [], [0], [1, 2], {}, {"point": 1})
MUTATIONS = (("drop", None), ("shorten", None), ("lengthen", 0)) + tuple(
    ("replace", value) for value in REPLACEMENTS)
FUZZ = settings(max_examples=120, derandomize=True, deadline=None,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _paths_by_key(doc):
    # grouped by top-level key, so that drawing a key first weighs the
    # scalar fields as much as the long lists
    return [[()]] + [list(_paths(value, (key,))) for key, value in doc.items()]


PATHS = {name: _paths_by_key(doc) for name, doc in SHIPPED.items()}
REGION_PATHS = _paths_by_key(REGION)


def _path(data, groups):
    return data.draw(st.sampled_from(data.draw(st.sampled_from(groups))))


def _mutate(doc, path, mutation):
    kind, value = mutation
    doc = copy.deepcopy(doc)
    if not path:
        return value if kind == "replace" else doc
    *head, last = path
    parent = reduce(getitem, head, doc)
    node = parent[last]
    if kind == "drop":
        del parent[last]
    elif kind == "replace":
        parent[last] = value
    elif kind == "shorten" and isinstance(node, list):
        parent[last] = node[:-1]
    elif kind == "lengthen" and isinstance(node, list):
        parent[last] = node + (node[-1:] or [value])
    return doc


def _run(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _is_int(x):
    return type(x) is int


def _assert_describes(data, mesh):
    # a loaded file holds exactly the integers its mesh was built from,
    # and the mesh has cells to classify
    assert data["dim"] == mesh.dim and _is_int(data["dim"])
    for key, got in (("extents", mesh.domain.extents),
                     ("degrees", mesh.domain.degrees)):
        assert data[key] == list(got) and all(map(_is_int, data[key]))
    assert data["breakpoints"] == [list(seq) for seq in mesh.breakpoints]
    assert all(_is_int(x) for seq in data["breakpoints"] for x in seq)
    refinements = data.get("refinements", [])
    assert len(refinements) == len(mesh.refinement_log)
    assert all(_is_int(entry["direction"]) and
               entry["direction"] - 1 == j
               for entry, (_, j) in zip(refinements, mesh.refinement_log))
    assert mesh.cells


@FUZZ
@given(data=st.data())
def test_mutated_mesh_files_load_or_exit_4(tmp_path, capsys, data):
    name = data.draw(st.sampled_from(sorted(SHIPPED)))
    doc = _mutate(SHIPPED[name], _path(data, PATHS[name]),
                  data.draw(st.sampled_from(MUTATIONS)))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        mesh = load_mesh(path)
    except MeshFormatError:
        mesh = None
    center = ",".join(str(Fraction(n, 2)) for n in SHIPPED[name]["extents"])
    capsys.readouterr()
    codes = (_run("check", "--mesh", str(path), "--which", "admissible"),
             _run("refine", "--mesh", str(path), "--at", center, "--dir", "1",
                  "--out", str(tmp_path / "out.json")))
    err = capsys.readouterr().err
    if mesh is None:
        assert codes == (4, 4)
        lines = err.splitlines()
        assert len(lines) == 2 and all(line.startswith("error: ")
                                       for line in lines)
    else:
        assert codes[0] in (0, 1) and codes[1] in (0, 2, 3)
        _assert_describes(doc, mesh)


@FUZZ
@given(data=st.data())
def test_mutated_region_files_load_or_are_rejected(data):
    doc = _mutate(REGION, _path(data, REGION_PATHS),
                  data.draw(st.sampled_from(MUTATIONS)))
    try:
        region = region_from_json(doc)
    except MeshFormatError:
        return
    # a loaded region has the declared dimension and exact box bounds
    assert _is_int(doc["dim"]) and region.dim == doc["dim"]
    assert len(region.boxes) == len(doc["boxes"])
    for box in region.boxes:
        assert len(box) == region.dim
        assert all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
                   for span in box for x in span)


# None leaves an optional flag out.  Extents stay small: the lattice
# limit bounds the rasters, not the entity complex, so a large admitted
# extent would only test memory.
CLI_FLAGS = {
    "new": (("--dim", ("2", "3", "1", "0", "-1", "x")),
            ("--extents", ("8,8", "6,6,6", "8", "8,x", "", "0,8", "5000,5000")),
            ("--degrees", ("1,1", "3,2,1", "1", "-1,1", "x,1", "", "9,9")),
            ("--breakpoints", ("0,1,2,4,6,7,8;0,1,2,4,6,7,8", "0,4,8;0,x",
                               ";", "0,8", "8,0;0,8", "0,2,4,6;0,2,4,6;0,3,6",
                               None)),
            ("--out", ("{out}", "{nodir}", "{dir}", ""))),
    "refine": (("--mesh", ("{m2}", "{m3}", "{missing}", "{dir}", "{binary}",
                           "{garbage}", "")),
               ("--at", ("4,7/2", "7/2,2,2", "x,y", "1/0,1", "", "3/2,3/2",
                         "-1,100", "4")),
               ("--dir", ("1", "2", "3", "0", "-1", "x")),
               ("--out", ("{out}", "{nodir}", "{dir}", None))),
    "check": (("--mesh", ("{m2}", "{m3}", "{missing}", "{dir}", "{binary}",
                          "{garbage}")),
              ("--which", ("all", "admissible", "aas,sdc", "wgas,wdc", "bogus",
                           "", "all,aas", None)),
              ("--json", ("{out}", "{nodir}", "{dir}", None))),
    "lin-indep": (("--mesh", ("{m2}", "{m3}", "{missing}", "{dir}", "{binary}",
                              "{garbage}")),),
    "verify": (("--suite", ("thm61", "thm62", "conj63", "props", "bogus")),
               ("--seeds", ("1", "0", "-3", "x")),
               ("--seed", ("0", "5", "x", None)),
               ("--json", ("{out}", "{nodir}", "{dir}", None))),
    "export": (("--mesh", ("{m2}", "{m3}", "{missing}", "{dir}", "{binary}")),
               ("--slice", ("3=2", "1=0", "2=4", "9=3", "0=1", "2=99", "1",
                            "a=b", "1=2=3", None)),
               ("--layers", ("skeleton,atj,gtj,anchors", "skeleton", "anchors",
                             "bogus", "", None)),
               ("--out", ("{out}", "{nodir}", "{dir}"))),
}


def _cli_inputs(tmp_path):
    """Fresh input files for one example, since `refine` rewrites its input."""
    paths = {"m2": tmp_path / "m2.json", "m3": tmp_path / "m3.json",
             "missing": tmp_path / "missing.json", "dir": tmp_path / "dir",
             "binary": tmp_path / "binary.json",
             "garbage": tmp_path / "garbage.json",
             "out": tmp_path / "out.json", "nodir": tmp_path / "no-dir" / "x"}
    paths["m2"].write_text(json.dumps(SHIPPED["corner_tjunction_triple_p33.json"]))
    paths["m3"].write_text(json.dumps(SHIPPED["crossing_hanging_edges_p321.json"]))
    paths["dir"].mkdir(exist_ok=True)
    paths["binary"].write_bytes(bytes(range(256)))
    paths["garbage"].write_text('{"format_version": 1, "dim": [}')
    return paths


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_cli_arguments_exit_0_to_5_with_at_most_one_error_line(
        tmp_path, capsys, data):
    paths = _cli_inputs(tmp_path)
    command = data.draw(st.sampled_from(sorted(CLI_FLAGS)))
    argv = [command]
    for flag, values in CLI_FLAGS[command]:
        value = data.draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, value.format(**paths)]
    argv += data.draw(st.sampled_from(((),) * 4 + (("--bogus",), ("stray",))))
    capsys.readouterr()
    code = _run(*argv)
    err = capsys.readouterr().err
    assert code in range(6), (argv, code, err)
    assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
