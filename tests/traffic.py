"""List the statements of `tmeshkit` that no benchmark workload reaches.

    python tests/traffic.py

Runs one cycle of each workload of `perfbench/workloads.py` (`cli-session`
in-process, through `cli.main`) under a `sys.settrace` line tracer that
records only frames whose code lies under `src/tmeshkit`.  Set-up is
traced where the benchmark's traced run traces it (`trace_setup`), and
the benchmark's own checks and records, which it keeps out of its
timings (`Ledger.aside`), are kept out here too.  Then, for every
function and method of the package, it prints the statements that no
workload reached, or that the function was never called.

A statement counts as reached when the tracer saw any line of it: for a
compound statement (`if`, `for`, `while`, `with`, ...) a line of its
header, for `try` its first body statement.  Docstrings and
`global`/`nonlocal` statements run no code and are not listed.  A line
tracer cannot tell which arm of a conditional expression (`a if c else
b`), which operand of a short-circuit `and`/`or`, or which element of a
comprehension ran: each is one line, reached if any of it was.

The workloads module is imported, never changed, and nothing is written
outside a temporary directory (bytecode caching is off).  A run takes
about 20 s on a 2-vCPU host.
"""

import ast
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "tmeshkit")
sys.path[:0] = [str(ROOT / "perfbench"), str(SRC)]

import hostspeed    # noqa: E402
import workloads    # noqa: E402

NO_CODE = (ast.Global, ast.Nonlocal)
HEADED = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)


class LineTracer:
    """Records (file, line) of every line event in the package's frames;
    `paused()` stops recording, as the benchmark's `Ledger.aside` expects
    of its tracer."""

    def __init__(self):
        self.lines = defaultdict(set)
        self.active = False

    def _local(self, frame, event, arg):
        if event == "line" and self.active:
            self.lines[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return self._local
        return None

    @contextmanager
    def tracing(self):
        self.active = True
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)
            self.active = False

    @contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active


def run_workloads(tracer: LineTracer, work: Path) -> list:
    """One cycle of each workload; returns the failures each reported."""
    failures = []
    for name in ("conj-stream", "corpus-classify", "cli-session"):
        workload = workloads.make(name, SRC, work)
        ledger = workloads.Ledger(tracer)
        with tracer.tracing() if workload.trace_setup else nullcontext():
            state = workload.setup(workload.default_seed,
                                   hostspeed.Stopwatch())
        with tracer.tracing():
            workload.cycle(state, 0, ledger, record=False,
                           inprocess=name == "cli-session")
        failures += [f"{name}: {message}"
                     for message in ledger.failed.values()]
    return failures


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose events show that `stmt` ran: a simple statement's
    own lines, a compound statement's header."""
    if isinstance(stmt, HEADED):
        return range(stmt.lineno, stmt.body[0].lineno)
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        first = min([stmt.lineno]
                    + [d.lineno for d in stmt.decorator_list])
        return range(first, stmt.body[0].lineno)
    return range(stmt.lineno, stmt.end_lineno + 1)


def _statements(body: list):
    """The statements of a function body, nested blocks included and
    nested function bodies excluded, each with the lines that show it
    ran; a `try` is shown by its first body statement."""
    for i, stmt in enumerate(body):
        if isinstance(stmt, NO_CODE) or (
                i == 0 and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            continue
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            yield stmt, _own_lines(stmt.body[0])
        else:
            yield stmt, _own_lines(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield handler, range(handler.lineno, handler.body[0].lineno)
            yield from _statements(handler.body)
        for case in getattr(stmt, "cases", []):
            yield from _statements(case.body)


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function and method, nested ones
    included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name, node
            yield from _functions(node, name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def report(lines: dict) -> list:
    """Per function, the statements no workload reached."""
    out = []
    total = unreached = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = lines.get(str(path), set())
        for name, node in _functions(ast.parse(source)):
            stmts = list(_statements(node.body))
            missed = [s for s, own in stmts if not seen.intersection(own)]
            total += len(stmts)
            unreached += len(missed)
            if not missed:
                continue
            where = f"{path.name}:{node.lineno} {name}"
            if len(missed) == len(stmts):
                out.append(f"{where}: never called ({len(stmts)} statements)")
                continue
            out.append(f"{where}: {len(missed)} of {len(stmts)} unreached")
            out += [f"    {s.lineno}: {text[s.lineno - 1].strip()}"
                    for s in missed]
    out.append(f"{unreached} of {total} statements unreached")
    return out


def main() -> int:
    tracer = LineTracer()
    with tempfile.TemporaryDirectory() as work:
        failures = run_workloads(tracer, Path(work))
    print("\n".join(report(tracer.lines)))
    for failure in failures:
        print(f"workload failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
