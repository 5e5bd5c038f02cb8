"""Spans around tmeshkit's public functions, installed from outside the package.

`Tracer.install` replaces each function in TRACED, in every tmeshkit
module that holds it (the defining module and each module that imported
it by name), by a wrapper that opens a span on entry and closes it on
exit.  A span has a name, a start, an end and a parent: the benchmark is
single-threaded, so open spans form one stack and a span's parent is the
span below it.  When a span closes, its self time (its duration minus
the durations of its child spans) and one call are added to its name's
totals; spans are aggregated as they close instead of being kept, so a
long trace needs no memory per call.

`TMesh.memo` is wrapped to count hits and misses by key kind: a lookup
is a miss when the memo calls its build function.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

from tmeshkit.mesh import TMesh

# (defining module, function or Class.method); metric names drop "tmeshkit."
TRACED = (
    ("mesh", "subdiv"),
    ("mesh", "skeleton_mask"),
    ("mesh", "find_cell_containing"),
    ("mesh", "is_admissible"),
    ("topology", "find_tjunctions"),
    ("anchors", "global_knot_vector"),
    ("anchors", "local_knot_vector"),
    ("anchors", "index_support"),
    ("suitability", "atj_slice"),
    ("suitability", "is_aas"),
    ("suitability", "gtj"),
    ("suitability", "is_sgas"),
    ("suitability", "is_wgas"),
    ("regions", "BoxRegion.normalize"),
    ("regions", "BoxRegion.intersect"),
    ("regions", "BoxRegion.subset"),
    ("dualcompat", "is_sdc"),
    ("dualcompat", "is_wdc"),
    ("splines", "bspline_eval_array"),
    ("verify", "evaluation_matrix"),
    ("verify", "linear_independence_rank"),
    ("verify", "partition_of_unity"),
    ("verify", "random_admissible_mesh"),
    ("meshio", "load_mesh"),
    ("meshio", "save_mesh"),
    ("svgexport", "render_slice_svg"),
    ("cli", "main"),
)

# every key kind TMesh.memo is called with in the package
MEMO_KINDS = ("skeleton_mask", "admissible", "hyperface_index", "tjunctions",
              "anchors", "gkv", "lkv", "supp", "gks", "atj", "aas", "gtj",
              "sgas", "wgas", "sdc", "wdc")


class Tracer:
    def __init__(self):
        self.calls = {f"{mod}.{name}": 0 for mod, name in TRACED}
        self.self_s = {f"{mod}.{name}": 0.0 for mod, name in TRACED}
        self.total_s = {f"{mod}.{name}": 0.0 for mod, name in TRACED}
        self.memo = {}            # key kind -> [hits, misses]
        self.enabled = True
        self._open = []           # child-time accumulators of the open spans

    @contextmanager
    def paused(self):
        """Benchmark-side work (checks, structure counts, calibrations)
        inside a traced run.  Its time counts as a child of the open span,
        if any, so it is kept out of that span's self time."""
        was, self.enabled = self.enabled, False
        start = time.perf_counter()
        try:
            yield
        finally:
            if self._open:
                self._open[-1][0] += time.perf_counter() - start
            self.enabled = was

    def _span(self, name, fn):
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]
                self.total_s[name] += duration
                if open_spans:
                    open_spans[-1][0] += duration
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "tmeshkit" or key.startswith("tmeshkit.")]
        for mod_name, qualname in TRACED:
            name = f"{mod_name}.{qualname}"
            owner = sys.modules[f"tmeshkit.{mod_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._span(name, getattr(cls, attr)))
                continue
            fn = getattr(owner, qualname)
            wrapper = self._span(name, fn)
            for module in modules:
                if getattr(module, qualname, None) is fn:
                    setattr(module, qualname, wrapper)

        lookup = TMesh.memo

        def memo(mesh, key, build):
            if not self.enabled:
                return lookup(mesh, key, build)
            built = []

            def counted_build():
                built.append(True)
                return build()

            value = lookup(mesh, key, counted_build)
            kind = key if isinstance(key, str) else key[0]
            self.memo.setdefault(kind, [0, 0])[1 if built else 0] += 1
            return value

        TMesh.memo = memo

    def metrics(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        hits = sum(h for h, _ in self.memo.values())
        misses = sum(m for _, m in self.memo.values())
        out["mesh.memo.hits"] = (hits, "count")
        out["mesh.memo.misses"] = (misses, "count")
        out["mesh.memo.hit_ratio"] = (hits / max(hits + misses, 1), "ratio")
        for kind in MEMO_KINDS:
            h, m = self.memo.get(kind, (0, 0))
            out[f"mesh.memo.{kind}.hits"] = (h, "count")
            out[f"mesh.memo.{kind}.misses"] = (m, "count")
        return out
