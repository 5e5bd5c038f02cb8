"""Command-line interface.

Exit codes: 0 success (and all requested checks passed), 1 a requested
check failed, 2 precondition violation (also a bad argument value or an
unwritable output), 3 non-integer midpoint, 4 malformed or unreadable
input file, 5 usage error (unknown flag etc.).

There is one refusal path.  A command returns 0 or 1 and prints no
`error:` line; it raises instead, `_Refusal(code, message)` for an
input it refuses and `MeshError` for a mesh operation that fails.
`main` alone prints the one `error:` line and returns the code:
`_Refusal.code`, 3 for a non-integer midpoint and 2 for any other
`MeshError`.  So `main` returns every exit code but that of argparse's
usage errors, which exit 5 from `_Parser.error`.  Directions on the
command line are 1-based.

Only the mesh, file and SVG modules are imported up front; `check`,
`lin-indep` and `verify` import their classifier and harness modules
when they run, so `new` and `refine` never load numpy.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from contextlib import contextmanager
from pathlib import Path

from .mesh import (IndexDomain, MeshError, NonIntegerMidpoint, TMesh,
                   create_tensor_mesh, find_cell_containing, is_admissible,
                   subdiv)
from .meshio import (MeshFormatError, entity_to_json, load_mesh, mesh_to_dict,
                     parse_rational, region_to_json, save_mesh, write_json)
# imported here, not in _cmd_export: the benchmark's tracer finds the
# module in sys.modules once the cli is loaded
from .svgexport import LAYER_STYLE, render_slice_svg

EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_MIDPOINT = 3
EXIT_BAD_FILE = 4
EXIT_USAGE = 5


def _checks() -> dict:
    """The classifiers `check --which` selects from, in report order."""
    from .dualcompat import is_sdc, is_wdc
    from .suitability import is_aas, is_sgas, is_wgas

    return {"admissible": is_admissible, "aas": is_aas, "sgas": is_sgas,
            "wgas": is_wgas, "sdc": is_sdc, "wdc": is_wdc}


class _Refusal(Exception):
    """An input a command refuses: `main` prints its one `error:` line
    and returns `code`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _csv_ints(text: str) -> list:
    return [int(x) for x in text.split(",") if x != ""]


def _build_parser() -> _Parser:
    parser = _Parser(prog="tmeshkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_new = sub.add_parser("new", help="write a tensor-product mesh file")
    p_new.add_argument("--dim", type=int, required=True)
    p_new.add_argument("--extents", required=True, help="N1,..,Nd")
    p_new.add_argument("--degrees", required=True, help="p1,..,pd")
    p_new.add_argument("--breakpoints",
                       help="per-direction breakpoints, ';'-separated CSV lists")
    p_new.add_argument("--out", required=True)

    p_ref = sub.add_parser("refine", help="bisect the cell containing a point")
    p_ref.add_argument("--mesh", required=True)
    p_ref.add_argument("--at", required=True,
                       help="x1,..,xd (rationals allowed, no exponents)")
    p_ref.add_argument("--dir", type=int, required=True, help="direction, 1-based")
    p_ref.add_argument("--out", help="output file (default: rewrite input)")

    p_chk = sub.add_parser("check", help="run classifiers and print verdicts")
    p_chk.add_argument("--mesh", required=True)
    p_chk.add_argument("--which", default="all",
                       help="comma list of admissible,aas,sgas,wgas,sdc,wdc or 'all'")
    p_chk.add_argument("--json", dest="json_out", help="write a report JSON")

    p_lin = sub.add_parser("lin-indep", help="collocation-rank independence check")
    p_lin.add_argument("--mesh", required=True)

    p_ver = sub.add_parser("verify", help="run a seeded verification suite")
    p_ver.add_argument("--suite", required=True,
                       choices=["thm61", "thm62", "conj63", "props"])
    p_ver.add_argument("--seeds", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--json", dest="json_out")

    p_exp = sub.add_parser("export", help="render a 2D slice as SVG")
    p_exp.add_argument("--mesh", required=True)
    p_exp.add_argument("--slice", dest="slice_spec",
                       help="k=n (1-based direction); omit for 2D meshes")
    p_exp.add_argument("--layers", default=",".join(LAYER_STYLE))
    p_exp.add_argument("--out", required=True)
    return parser


def _load(path: str):
    try:
        return load_mesh(path)
    except FileNotFoundError:
        raise _Refusal(EXIT_BAD_FILE, f"no such file: {path}") from None
    except OSError as exc:
        raise _Refusal(EXIT_BAD_FILE, f"cannot read {path}: "
                                      f"{exc.strerror or exc}") from None
    except MeshFormatError as exc:
        raise _Refusal(EXIT_BAD_FILE, str(exc)) from None


@contextmanager
def _writing(path: str):
    """An output that cannot be written is refused with exit 2."""
    try:
        yield
    except OSError as exc:
        raise _Refusal(EXIT_PRECONDITION, f"cannot write {path}: "
                                          f"{exc.strerror or exc}") from None


def _cmd_new(args) -> int:
    try:
        extents = _csv_ints(args.extents)
        degrees = _csv_ints(args.degrees)
        breakpoints = None
        if args.breakpoints:
            breakpoints = [_csv_ints(chunk)
                           for chunk in args.breakpoints.split(";")]
    except ValueError as exc:
        raise _Refusal(EXIT_PRECONDITION, f"bad integer list: {exc}") from None
    if len(extents) != args.dim or len(degrees) != args.dim:
        raise _Refusal(EXIT_PRECONDITION, "extents/degrees must match --dim")
    try:
        domain = IndexDomain(extents=tuple(extents), degrees=tuple(degrees))
    except ValueError as exc:
        raise _Refusal(EXIT_PRECONDITION, str(exc)) from None
    mesh = create_tensor_mesh(domain, breakpoints)
    with _writing(args.out):
        save_mesh(mesh, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_refine(args) -> int:
    mesh = _load(args.mesh)
    try:
        point = tuple(parse_rational(x) for x in args.at.split(","))
    except (ValueError, ZeroDivisionError):
        raise _Refusal(EXIT_PRECONDITION, f"bad point {args.at!r}") from None
    if len(point) != mesh.dim or not 1 <= args.dir <= mesh.dim:
        raise _Refusal(EXIT_PRECONDITION, "point/direction of wrong dimension")
    mesh = subdiv(mesh, find_cell_containing(mesh, point), args.dir - 1)
    out = args.out or args.mesh
    with _writing(out):
        save_mesh(mesh, out)
    print(f"wrote {out}")
    return 0


def _witness_json(name: str, witnesses) -> list:
    out = []
    for w in witnesses[:20]:
        if name == "admissible":
            kind, k, payload = w
            out.append({"kind": kind, "direction": k + 1,
                        "where": payload if isinstance(payload, int)
                        else entity_to_json(payload)})
        elif name in ("sgas", "wgas"):
            t1, t2, inter = w
            out.append({"tjunctions": [entity_to_json(t1.entity),
                                       entity_to_json(t2.entity)],
                        "intersection": [[a, b] for a, b in inter]})
        elif name == "aas":
            i, nn, j, mm, region = w
            out.append({"slices": [[i + 1, nn], [j + 1, mm]],
                        "intersection": region_to_json(region)})
        else:
            a1, a2, diag = w
            out.append({"anchors": [entity_to_json(a1), entity_to_json(a2)],
                        "directions": [
                            {"vectors": [list(v1), list(v2)], "overlap": f}
                            for v1, v2, f in diag]})
    return out


def _cmd_check(args) -> int:
    checks = _checks()
    # the whole list is checked before the mesh is read; a repeat runs once
    names = (list(checks) if args.which == "all"
             else list(dict.fromkeys(args.which.split(","))))
    for name in names:
        if name not in checks:
            raise _Refusal(EXIT_USAGE, f"unknown check {name!r}")
    mesh = _load(args.mesh)
    report = {"format_version": 1, "mesh": args.mesh, "checks": {}}
    all_ok = True
    for name in names:
        ok, witnesses = checks[name](mesh)
        all_ok &= ok
        mark = "pass" if ok else "FAIL"
        print(f"{name:<10} {mark}" + ("" if ok else f"  ({len(witnesses)} witnesses)"))
        report["checks"][name] = {"ok": ok,
                                  "witnesses": _witness_json(name, witnesses)}
    if args.json_out:
        with _writing(args.json_out):
            write_json(args.json_out, report)
    return 0 if all_ok else EXIT_CHECK_FAILED


def _cmd_lin_indep(args) -> int:
    from . import verify

    mesh = _load(args.mesh)
    report = verify.linear_independence_rank(mesh)
    verdict = "independent" if report.independent else "DEPENDENT"
    print(f"anchors={report.num_anchors} rank={report.rank} {verdict}")
    return 0 if report.independent else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    from . import verify
    from .suitability import is_wgas

    if args.seeds < 1:
        raise _Refusal(EXIT_PRECONDITION,
                       f"--seeds must be at least 1, got {args.seeds}")
    # built as it is read: one mesh and its memo at a time
    keep = (lambda m: is_wgas(m)[0]) if args.suite == "conj63" else None
    stream = verify.mesh_stream(args.seed, args.seeds, keep=keep)
    if args.suite == "thm61":
        rep = verify.crosscheck_aas_sdc(stream)
        ok = rep["ok"]
        print(f"thm61: {rep['checked']} meshes, agreement "
              f"{'100%' if ok else 'BROKEN'}")
    elif args.suite == "thm62":
        rep = verify.crosscheck_sgas_aas(stream)
        ok = rep["ok"]
        print(f"thm62: {rep['checked']} sgas meshes checked "
              f"({rep['skipped']} skipped), {'ok' if ok else 'FAILED'}")
    elif args.suite == "conj63":
        rep = verify.wgas_wdc_counterexample_search(stream)
        ok = True  # candidates are logged, never asserted
        print(f"conj63: {rep['wgas']} wgas meshes, "
              f"{len(rep['candidates'])} candidate counterexamples")
    else:
        rep, ok = _props_suite(stream)
        print(f"props: {rep['pairs']} overlap pairs, "
              f"{rep['probes']} separation probes, {'ok' if ok else 'FAILED'}")
    if args.json_out:
        with _writing(args.json_out):
            write_json(args.json_out, rep, default=_report_json)
    return 0 if ok else EXIT_CHECK_FAILED


def _report_json(value):
    """A mesh in a verify report as its file format, anything else as text."""
    return mesh_to_dict(value) if isinstance(value, TMesh) else str(value)


def _props_suite(stream) -> tuple[dict, bool]:
    from . import verify

    overlap = verify.overlap_pair_suite(10_000, seed=1234)
    reports = [verify.separation_probe_suite(mesh, probes=200, seed=seed)
               for seed, mesh in itertools.islice(stream, 5)]
    rep = {"pairs": overlap["pairs"],
           "probes": sum(r["probes"] for r in reports)}
    failed = [f for r in reports for f in r["failures"]]
    if overlap["failures"]:
        rep["failed_pairs"] = overlap["failures"]
    if failed:
        rep["failed_probes"] = failed
    return rep, not failed and not overlap["failures"]


def _cmd_export(args) -> int:
    mesh = _load(args.mesh)
    k = n = None
    if args.slice_spec:
        try:
            k_text, n_text = args.slice_spec.split("=")
            k, n = int(k_text) - 1, int(n_text)
        except ValueError:
            raise _Refusal(EXIT_USAGE, f"bad --slice {args.slice_spec!r}") from None
        if not (0 <= k < mesh.dim and 0 <= n <= mesh.domain.extents[k]):
            raise _Refusal(EXIT_PRECONDITION,
                           f"--slice {args.slice_spec!r} needs 1 <= k <= "
                           f"{mesh.dim} and 0 <= n <= N_k")
    layers = tuple(args.layers.split(","))
    try:
        svg = render_slice_svg(mesh, k, n, layers)
    except ValueError as exc:
        raise _Refusal(EXIT_PRECONDITION, str(exc)) from None
    with _writing(args.out):
        Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "new": _cmd_new,
    "refine": _cmd_refine,
    "check": _cmd_check,
    "lin-indep": _cmd_lin_indep,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (_Refusal, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (exc.code if isinstance(exc, _Refusal) else EXIT_MIDPOINT
                if isinstance(exc, NonIntegerMidpoint) else EXIT_PRECONDITION)


if __name__ == "__main__":
    sys.exit(main())
