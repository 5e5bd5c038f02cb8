"""tmeshkit benchmark: three closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload conj-stream --seed 7 --seconds 15 --trace 0

Workloads (workloads.py says what each op is and why it was chosen):
  conj-stream      criterion 12's refine-and-reclassify stream (write path)
  corpus-classify  criteria 6-9's six-way classification of a 200-mesh corpus
  cli-session      the `tmeshkit` command, one process per command

The package is imported from ./src of the checkout; nothing is installed.
A run repeats whole cycles of identical ops until `--seconds` have passed
and the workload's minimum number of cycles has run.

`--trace 0` reports the end-to-end metrics, untraced, with every time
scaled to reference host speed (hostspeed.py says how and why; the summary
gives the unscaled figures too):
  setup_s      median import time of five fresh interpreters plus the
               median of three input generations
  ops_per_s    ops per second spent in them
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest percentile with ten ops beyond it
  peak_rss_mb  peak RSS of this process (of its children for cli-session)
The latencies are taken over each op's median across cycles.

`--trace 1` runs cycle 0 untraced, then again with spans around the public
tmeshkit functions (tracing.py), and reports per-layer call counts, self
times, memo hits and misses by key kind, structure counts, the in-process
versus subprocess time of the CLI, and the tracing overhead.

Output: an indented JSON summary (environment, seeds, error rate, tail
percentile, verdict digest, structure counts), then, as the last line,
{"correct", "attempted", "failed", "metrics"}.  Exits 2 without a result
when the checkout holds no tmeshkit sources.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_BEYOND = 10

# A process imports the package once, so set-up's import share is timed in
# fresh interpreters, which import what a run imports: numpy and, through
# the workloads, all of tmeshkit.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = [{here!r}, {src!r}]
import hostspeed
before = hostspeed.calibrate()
start = time.perf_counter()
import numpy, workloads
wall = time.perf_counter() - start
print(hostspeed.scaled(wall, before, hostspeed.calibrate()))
"""


def _import_package():
    if not (SRC / "tmeshkit" / "__init__.py").is_file():
        print(f"perfbench: no tmeshkit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tmeshkit
    if Path(tmeshkit.__file__).resolve().parent != SRC / "tmeshkit":
        print(f"perfbench: imported tmeshkit from {tmeshkit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _digest(records) -> str:
    """Hash of the verdict records, independent of the order ops ran in."""
    text = json.dumps(sorted(records), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _structure(counts) -> dict:
    """Structure counts of cycle 0, named as per-layer metrics."""
    pairs = counts["anchor_pairs"]
    candidates = counts["candidate_steps"]
    return {
        "mesh.cells": (counts["cells"], "count"),
        "topology.tjunctions": (counts["tjunctions"], "count"),
        "anchors.anchors": (counts["anchors"], "count"),
        "dualcompat.candidate_pairs": (counts["candidate_pairs"], "count"),
        "dualcompat.candidate_ratio":
            (counts["candidate_pairs"] / pairs if pairs else 0.0, "ratio"),
        # only conj-stream filters steps; elsewhere every step is kept
        "verify.keep.accept_ratio":
            (counts["kept_steps"] / candidates if candidates else 1.0, "ratio"),
    }


def _peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def _run_cycles(workload, state, ledger, seconds) -> list:
    """Whole cycles until `seconds` have passed and at least the
    workload's minimum ran; returns each cycle's op durations."""
    start = time.perf_counter()
    cycles = []
    while (len(cycles) < workload.min_cycles
           or time.perf_counter() - start < seconds):
        first = len(ledger.durations)
        workload.cycle(state, len(cycles), ledger, record=not cycles,
                       inprocess=False)
        cycles.append(ledger.durations[first:])
    return cycles


def _tail(durations) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    return sorted(durations)[max(len(durations) - 1 - TAIL_BEYOND, 0)]


def _import_runs() -> list:
    """Import time at reference host speed, once per fresh interpreter."""
    probe = IMPORT_PROBE.format(here=str(HERE), src=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", probe], check=True,
                                 capture_output=True, text=True,
                                 timeout=120).stdout)
            for _ in range(IMPORT_REPEATS)]


def measured_run(workload, seed, seconds):
    from workloads import Ledger

    setups = []
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        state = None          # free the previous inputs before rebuilding
        watch = hostspeed.Stopwatch()
        state = workload.setup(seed, watch)
        setups.append(watch.scaled_s)
        setup_walls.append(watch.wall_s)
    ledger = Ledger()
    t0 = time.perf_counter()
    cycles = _run_cycles(workload, state, ledger, seconds)
    wall = time.perf_counter() - t0

    # every cycle runs the same ops in the same order; taking each op's
    # median over cycles damps repeats that ran while the host was
    # unusually slow or fast
    per_op = [statistics.median(repeats) for repeats in zip(*cycles)]
    peak_rss_mb = _peak_rss_mb(workload)   # before the import probes run
    imports = _import_runs()
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (_tail(per_op) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    n = len(ledger.durations)
    walls = ledger.walls
    calibrations = sorted(ledger.calibrations)
    summary = {
        "cycles": len(cycles),
        "measured_wall_s": wall,
        "import_runs_s": imports,
        "setup_runs_s": setups,
        "setup_runs_wall_s": setup_walls,
        "cycle_ops_per_s": [len(d) / sum(d) for d in cycles],
        "unscaled": {"ops_per_s": n / sum(walls),
                     "op_p50_ms": statistics.median(walls) * 1e3},
        "calibration_ms": {
            "reference": hostspeed.REFERENCE_S * 1e3,
            "min": calibrations[0] * 1e3,
            "median": statistics.median(calibrations) * 1e3,
            "max": calibrations[-1] * 1e3},
        "error_rate": len(ledger.failed) / n,
        "op_tail": {"percentile": 100.0 * (len(per_op) - TAIL_BEYOND) / len(per_op),
                    "samples": len(per_op),
                    "samples_beyond": min(TAIL_BEYOND, len(per_op) - 1)},
        "verdict_digest": _digest(ledger.records),
        "structure": {k: v for k, (v, _) in _structure(ledger.counts).items()},
        "failures": sorted(ledger.failed.items())[:5],
    }
    return not ledger.failed, n, len(ledger.failed), metrics, summary


def traced_run(workload, seed):
    from tracing import Tracer
    from workloads import Ledger

    state = workload.setup(seed, hostspeed.Stopwatch())
    reference = Ledger()
    workload.cycle(state, 0, reference, record=True, inprocess=False)
    baseline = reference
    if workload.inprocess_trace:
        baseline = Ledger()
        workload.cycle(state, 0, baseline, record=True, inprocess=True)

    tracer = Tracer()
    tracer.install()
    if workload.trace_setup:
        state = workload.setup(seed, hostspeed.Stopwatch())
    traced = Ledger(tracer)
    workload.cycle(state, 0, traced, record=True,
                   inprocess=workload.inprocess_trace)

    passes = {"reference": reference, "baseline": baseline, "traced": traced}
    digests = {k: _digest(p.records) for k, p in passes.items()}
    counts_agree = all(p.counts == reference.counts for p in passes.values())
    correct = (len(set(digests.values())) == 1 and counts_agree
               and not any(p.failed for p in passes.values()))

    metrics = tracer.metrics()
    metrics.update(_structure(reference.counts))
    start_s = (sum(reference.durations) - sum(baseline.durations)
               if workload.inprocess_trace else 0.0)
    metrics["cli.process_start_s"] = (start_s, "s")
    metrics["trace.overhead_ratio"] = (
        sum(traced.durations) / sum(baseline.durations), "ratio")
    summary = {
        "pass_seconds": {k: sum(p.durations) for k, p in passes.items()},
        "verdict_digests": digests,
        "inclusive_s": {name: t for name, t in sorted(
            tracer.total_s.items(), key=lambda kv: -kv[1]) if t},
        "structure_counts_agree": counts_agree,
        "failures": {k: sorted(p.failed.items())[:5] for k, p in passes.items()
                     if p.failed},
    }
    return correct, len(traced.durations), len(traced.failed), metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("conj-stream", "corpus-classify", "cli-session"))
    parser.add_argument("--seed", type=int, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and every process it starts: the calibration
    # then runs where the measured work runs, and a CLI child does not run
    # on another vCPU whose share of the host differs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    # on SIGTERM, unwind: a running CLI child is killed and waited for, and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    _import_package()
    import numpy
    import workloads   # imports all of tmeshkit

    work = ROOT / ".perfbench_work" / str(os.getpid())
    workload = workloads.make(args.workload, SRC, work)
    seed = workload.default_seed if args.seed is None else args.seed
    try:
        if args.trace:
            outcome = traced_run(workload, seed)
        else:
            outcome = measured_run(workload, seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass   # another run still uses it, or it was never made
    correct, attempted, failed, metrics, details = outcome

    summary = {
        "workload": workload.name,
        "seed": seed,
        "canonical_seeds": {"conj-stream": workloads.CONJ_SEED,
                            "corpus": workloads.CORPUS_SEED},
        "trace": bool(args.trace),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_to_cpu": min(cpus),
        **details,
    }
    print(json.dumps(summary, indent=2, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
