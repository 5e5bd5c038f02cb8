"""The three benchmark workloads.

Each is a closed loop with one client and no think time: the next op
starts when the previous one returns.  A workload builds its inputs from
the seed in `setup` and runs one *cycle* of ops at a time; every cycle of
a run does the same work, so the runner can report medians over cycles.
Cycle 0's verdict records and structure counts must repeat exactly across
runs and between traced and untraced runs.

Inputs and the seed.  Mesh costs span three orders of magnitude across
the generator's draws of dimension, degrees and grid, and a run can afford
only a few dozen 3-D meshes, so letting the seed draw the meshes made the
spread between seeds swamp the code's own.  The stream and corpus
workloads therefore run the canonical meshes of their acceptance criteria
and the seed only sets the order of the ops; the CLI sessions, whose cost
is mostly interpreter start, are refined from the seed with fixed
generator parameters.
"""

from __future__ import annotations

import gc
import io
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import hostspeed
from tmeshkit import (anchors, cli, dualcompat, meshio, suitability, topology,
                      verify)
from tmeshkit import mesh as tmesh

CONJ_SEED = 424243       # criterion 12 (tests/test_acceptance.py)
CORPUS_SEED = 20260810   # criteria 6-9 (tests/conftest.py)
CORPUS_SIZE = 200
CLI_STEPS = 6            # refinements per CLI session
CLI_TIMEOUT_S = 120


def subseed(seed: int, k: int) -> int:
    """Sub-seed of the k-th mesh, derived as verify.mesh_stream does."""
    return (seed * 1_000_003 + k) % (1 << 62)


def drawn_config(sub: int) -> dict:
    """The dimension, degrees, levels and base cells that
    verify.random_admissible_mesh draws first from sub-seed `sub`."""
    rng = random.Random(sub)
    dim = rng.choice((2, 3))
    degrees = tuple(rng.choice((0, 1, 1, 2, 2, 3, 3)) for _ in range(dim))
    levels = rng.choice((1, 2))
    base_cells = tuple(rng.randint(2, 3) for _ in range(dim))
    return {"dim": dim, "degrees": degrees, "levels": levels,
            "base_cells": base_cells}


class Ledger:
    """What one pass over a cycle records: the duration of every op, the
    ops that failed, and (for cycle 0) verdict records and structure
    counts.  An op fails if it raises or fails a check.  Durations are
    scaled to reference host speed (hostspeed.py); `walls` keeps them as
    measured."""

    def __init__(self, tracer=None):
        self.durations = []
        self.walls = []
        self.calibrations = []
        self.failed = {}          # op index -> first failure message
        self.records = []
        self.counts = Counter()
        self._tracer = tracer

    def add(self, wall: float, before: float, after: float) -> None:
        """One op that took `wall` seconds between calibrations that took
        `before` and `after` seconds."""
        self.durations.append(hostspeed.scaled(wall, before, after))
        self.walls.append(wall)
        self.calibrations.append((before + after) / 2)

    def fail(self, message: str) -> None:
        self.failed.setdefault(len(self.durations) - 1, message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def op(self, fn):
        """Run and time one op; returns its result, or None if it raised."""
        before = hostspeed.calibrate()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            wall = time.perf_counter() - start
            self.add(wall, before, hostspeed.calibrate())
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        self.add(wall, before, hostspeed.calibrate())
        return result

    def aside(self):
        """Benchmark-side work (checks, records, counts): kept out of the
        trace as it is kept out of op timings."""
        return self._tracer.paused() if self._tracer else nullcontext()


def classify(m) -> dict:
    """Admissibility and the six classifiers, each as (ok, witnesses)."""
    return {"admissible": tmesh.is_admissible(m),
            "aas": suitability.is_aas(m),
            "sgas": suitability.is_sgas(m),
            "wgas": suitability.is_wgas(m),
            "sdc": dualcompat.is_sdc(m),
            "wdc": dualcompat.is_wdc(m)}


def settle() -> None:
    """Collect, then freeze what survives, before a timed step.  The corpus
    the benchmark holds would otherwise be traversed by every full
    collection, at whichever step it lands on, which the shuffled order
    moves from run to run; frozen, it is skipped, and a step's collections
    see only the objects that step makes, as when one mesh is handled."""
    gc.collect()
    gc.freeze()


def structure_counts(m) -> Counter:
    """Sizes of the derived structures of one mesh.  Candidate pairs are
    anchor pairs whose index supports intersect (the pairs the DC scans
    must examine), counted here from public functions."""
    found = anchors.anchor_set(m)
    n = len(found)
    supports = np.array([anchors.index_support(m, a) for a in found],
                        dtype=np.int64).reshape(n, m.dim, 2)
    meet = np.ones((n, n), dtype=bool)
    for k in range(m.dim):
        lo, hi = supports[:, k, 0], supports[:, k, 1]
        meet &= np.maximum.outer(lo, lo) <= np.minimum.outer(hi, hi)
    return Counter(cells=len(m.cells),
                   tjunctions=len(topology.find_tjunctions(m)),
                   anchors=n,
                   candidate_pairs=int(np.triu(meet, 1).sum()),
                   anchor_pairs=n * (n - 1) // 2)


# ---------------------------------------------------------------------------

class ConjStream:
    """Criterion 12's write path: meshes refined one bisection at a time,
    each candidate kept only if it is still weakly geometrically suitable,
    then the WGAS/WDC counterexample search on the finished mesh.

    One op is one candidate step (option choice, `subdiv`, and the full
    reclassification `is_wgas` does on a mesh with a cold memo), or the
    search on one finished mesh.  A cycle generates the first five 3-D
    meshes of the criterion-12 stream, exactly as the criterion does.
    Its 2-D meshes take about 2 % of the stream's time, and mixing their
    millisecond steps with the 3-D ones would put the median in the gap
    between the two.  Work falls on mesh, topology, suitability and
    anchors; regions and splines are bypassed.
    """

    name = "conj-stream"
    default_seed = CONJ_SEED
    subseeds = tuple(sub for sub in (subseed(CONJ_SEED, k) for k in range(20))
                     if drawn_config(sub)["dim"] == 3)[:5]
    min_cycles = 2
    trace_setup = False
    inprocess_trace = False
    rss_of_children = False

    def setup(self, seed, watch):
        return seed   # the stream generates its meshes as it runs

    def cycle(self, seed, c, ledger, record, inprocess):
        order = list(self.subseeds)
        random.Random(seed).shuffle(order)
        for sub in order:
            # one op per candidate: from the end of the previous step's
            # calibration to the end of this step's reclassification
            stamps = []   # per candidate: (end, its calibration, restart)

            def keep(candidate):
                ok = suitability.is_wgas(candidate)[0]
                end = time.perf_counter()
                with ledger.aside():
                    calibration = hostspeed.calibrate()
                stamps.append((end, calibration, time.perf_counter()))
                return ok

            first = hostspeed.calibrate()
            start = time.perf_counter()
            try:
                m = verify.random_admissible_mesh(sub, max_steps=18, keep=keep)
                error = None
            except Exception as exc:  # counted as a failed step
                m, error = None, exc
            done = time.perf_counter()
            last = hostspeed.calibrate()
            starts = [start] + [restart for _, _, restart in stamps]
            ends = [end for end, _, _ in stamps] + [done]
            walls = [b - a for a, b in zip(starts, ends)]
            cals = [first] + [cal for _, cal, _ in stamps] + [last]
            if stamps:
                # the work after the last candidate belongs to its op
                walls[-2] += walls.pop()
                cals[-2] = (cals[-2] + cals.pop()) / 2
            for i, wall in enumerate(walls):
                ledger.add(wall, cals[i], cals[i + 1])
            if error is not None:
                ledger.fail(f"{type(error).__name__}: {error}")
                continue

            report = ledger.op(lambda: _search(sub, m))
            if report is None:
                continue
            report, replays_ok = report
            ledger.check(report["checked"] == report["wgas"] == 1,
                         f"mesh {sub}: checked {report['checked']}, "
                         f"wgas {report['wgas']}")
            ledger.check(replays_ok, f"mesh {sub}: candidate replay differs")
            if record:
                with ledger.aside():
                    ledger.records.append([
                        sub, len(stamps), len(m.refinement_log),
                        len(suitability.is_wgas(m)[1]),
                        len(dualcompat.is_wdc(m)[1]),
                        [cand["shrunk_log_length"]
                         for cand in report["candidates"]]])
                    ledger.counts.update(structure_counts(m))
                    ledger.counts.update(candidate_steps=len(stamps),
                                         kept_steps=len(m.refinement_log))


def _search(sub, m):
    report = verify.wgas_wdc_counterexample_search([(sub, m)])
    replays_ok = all(
        verify.replay_prefix(cand["mesh"], len(cand["mesh"].refinement_log))
        .entities == cand["mesh"].entities
        for cand in report["candidates"])
    return report, replays_ok


# ---------------------------------------------------------------------------

class CorpusClassify:
    """Criteria 6-9's read path: the 200-mesh fuzz corpus of
    tests/conftest.py (seed 20260810, up to 40 bisections, every fourth
    mesh refined in one direction only), each mesh classified from an
    empty memo, in an order the benchmark seed shuffles.

    One op is one mesh: admissibility and the six classifiers, Thm 6.1
    (AAS equals SDC), Thm 6.2 on SGAS meshes (AAS holds and every abstract
    extension lies in the geometric one), collocation rank on SDC meshes
    and partition of unity on WDC meshes.  Many queries share one memo per
    mesh; work falls on regions, anchors, dualcompat and splines.  `subdiv`
    runs only in set-up, which generates the corpus.  A cycle is one pass
    over the corpus; each classified mesh is then swapped for a replayed
    copy, so no memo outlives its op.
    """

    name = "corpus-classify"
    default_seed = CORPUS_SEED
    min_cycles = 1
    trace_setup = True
    inprocess_trace = False
    rss_of_children = False

    def setup(self, seed, watch):
        order = list(range(CORPUS_SIZE))
        random.Random(seed).shuffle(order)
        corpus = []
        for k in order:
            sub = subseed(CORPUS_SEED, k)
            mode = "single" if k % 4 == 0 else "mixed"
            settle()
            corpus.append((k, sub, watch.run(
                lambda: verify.random_admissible_mesh(
                    sub, max_steps=40, direction_mode=mode))))
        return corpus

    def cycle(self, corpus, c, ledger, record, inprocess):
        for i, (k, sub, built) in enumerate(corpus):
            with ledger.aside():
                settle()
            out = ledger.op(lambda: _classify_and_crosscheck(sub, built))
            with ledger.aside():   # the next cycle gets a mesh with an empty memo
                corpus[i] = (k, sub, verify.replay_prefix(
                    built, len(built.refinement_log)))
            if out is None:
                continue
            verdicts, thm62, rank, deviation = out
            ok = {name: v[0] for name, v in verdicts.items()}
            ledger.check(ok["admissible"], f"mesh {k}: not admissible")
            ledger.check(ok["aas"] == ok["sdc"], f"mesh {k}: Thm 6.1")
            ledger.check(not ok["sgas"] or (ok["aas"] and thm62),
                         f"mesh {k}: Thm 6.2")
            ledger.check(rank is None or (rank.independent and
                                          verify.rank_verdict_stable(rank)),
                         f"mesh {k}: SDC basis not independent")
            ledger.check(deviation is None or deviation < 1e-10,
                         f"mesh {k}: partition of unity off by {deviation}")
            if record:
                with ledger.aside():
                    ledger.records.append([
                        k, {name: [v[0], len(v[1])]
                            for name, v in verdicts.items()},
                        thm62, rank and rank.rank])
                    ledger.counts.update(structure_counts(built))


def _classify_and_crosscheck(sub, m):
    verdicts = classify(m)
    thm62 = rank = deviation = None
    if verdicts["sgas"][0]:
        thm62 = all(suitability.atj_union(m, i).subset(suitability.gtj_union(m, i))
                    for i in range(m.dim))
    if verdicts["sdc"][0]:
        rank = verify.linear_independence_rank(m)
    if verdicts["wdc"][0]:
        deviation = verify.partition_of_unity(m, samples=1000, seed=sub % 99991)
    return verdicts, thm62, rank, deviation


# ---------------------------------------------------------------------------

class CliSession:
    """The `tmeshkit` command as a user drives it, one process per command.

    Two seeded refinement logs (6 bisections of the first 2-D and of the
    first 3-D generator configuration of the corpus) become `new
    --breakpoints` plus one `refine --at <cell midpoint> --dir` per step;
    each call reloads the file, replaying the log so far, and rewrites it.
    Then `check --which all --json`, `lin-indep` and `export` run on each
    result and on each shipped data/*.json mesh.  One op is one command;
    a cycle is the whole script in a fresh directory.  Interpreter start,
    meshio replay, cli and svgexport dominate; `refine` writes and the
    rest reads.  Expected exit codes come from classifying the same meshes
    in-process before the first op; that check is the benchmark's own work
    and is not part of set-up.
    """

    name = "cli-session"
    default_seed = 7
    configs = tuple(next(cfg for cfg in (drawn_config(subseed(CORPUS_SEED, k))
                                         for k in range(20)) if cfg["dim"] == dim)
                    for dim in (2, 3))
    min_cycles = 2
    trace_setup = False
    inprocess_trace = True     # the traced pass calls cli.main in-process
    rss_of_children = True

    def __init__(self, src: Path, work: Path):
        self.data = src / "tmeshkit" / "data"
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def setup(self, seed, watch):
        sessions = [
            (f"session{i}.json", watch.run(
                lambda: verify.random_admissible_mesh(
                    subseed(seed, i), max_steps=CLI_STEPS, **cfg)))
            for i, cfg in enumerate(self.configs)]
        return {"sessions": sessions, "shipped": sorted(self.data.glob("*.json"))}

    def _script(self, state):
        """The commands, each with its expected exit code and, for the last
        write of a session, the mesh its file must then hold; expected codes
        and structure counts come from the meshes classified in-process."""
        script = []
        targets = []
        for name, m in state["sessions"]:
            steps = [_new_argv(m, name)] + [
                ["refine", "--mesh", name,
                 "--at", ",".join(str(Fraction(a + b, 2)) for a, b in cell),
                 "--dir", str(j + 1)]
                for cell, j in m.refinement_log]
            script += [(argv, 0, None) for argv in steps[:-1]]
            script.append((steps[-1], 0, (name, m)))
            targets.append((name, m))
        targets += [(path.name, meshio.load_mesh(path)) for path in state["shipped"]]
        counts = Counter()
        for name, m in targets:
            all_ok = all(ok for ok, _ in classify(m).values())
            independent = verify.linear_independence_rank(m).independent
            stem = name[:-len(".json")]
            export = ["export", "--mesh", name, "--out", f"{stem}.svg"]
            if m.dim == 3:
                export += ["--slice", f"3={m.domain.extents[2] // 2}"]
            script += [
                (["check", "--mesh", name, "--which", "all",
                  "--json", f"{stem}.report.json"], 0 if all_ok else 1, None),
                (["lin-indep", "--mesh", name], 0 if independent else 1, None),
                (export, 0, None)]
            counts.update(structure_counts(m))
        return script, counts

    def cycle(self, state, c, ledger, record, inprocess):
        if "script" not in state:
            with ledger.aside():
                state["script"], state["counts"] = self._script(state)
        work = self.work / f"{'inprocess' if inprocess else 'subprocess'}-{c}"
        work.mkdir(parents=True)
        for path in state["shipped"]:
            shutil.copyfile(path, work / path.name)
        run = _run_inprocess if inprocess else self._run_subprocess
        for argv, expected, written in state["script"]:
            out = ledger.op(lambda: run(argv, work))
            if out is None:
                continue
            code, stdout = out
            ledger.check(code == expected,
                         f"{' '.join(argv)}: exit {code}, expected {expected}")
            if record:
                ledger.records.append([argv, code, stdout])
                if written is not None:
                    name, m = written
                    with ledger.aside():
                        replayed = meshio.load_mesh(work / name)
                    ledger.check(replayed.entities == m.entities,
                                 f"{name}: replay differs from its log")
        if record:
            ledger.counts.update(state["counts"])
        shutil.rmtree(work)

    def _run_subprocess(self, argv, work):
        proc = subprocess.run([sys.executable, "-m", "tmeshkit.cli", *argv],
                              cwd=work, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout


def _new_argv(m, name):
    dom = m.domain
    return ["new", "--dim", str(dom.dim),
            "--extents", ",".join(map(str, dom.extents)),
            "--degrees", ",".join(map(str, dom.degrees)),
            "--breakpoints", ";".join(",".join(map(str, seq))
                                      for seq in m.breakpoints),
            "--out", name]


def _run_inprocess(argv, work):
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(work)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue()


def make(name: str, src: Path, work: Path):
    if name == CliSession.name:
        return CliSession(src, work)
    return {ConjStream.name: ConjStream, CorpusClassify.name: CorpusClassify}[name]()
