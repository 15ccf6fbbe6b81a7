"""Per-layer tracing by wrapping ``dampen`` functions from outside.

``Tracer.install`` replaces module and class attributes of the library with
timing wrappers; ``uninstall`` puts the originals back.  Each wrapped call
is a span with a name and a parent (the innermost wrapped call it happened
in, or the job).  Spans are folded into per-name aggregates as they close,
so memory stays flat however many calls a job makes:

* ``calls``: number of spans;
* ``self_s``: span time minus the time of its wrapped child spans (each
  child's share includes its wrapper, so tracing cost stays out of the
  parent's self time);
* ``outer_s``: span time of the calls with no enclosing span of the same
  family (so recursion and wrapper chains are not counted twice);
* ``edges``: span counts per (parent name, child name).

Two distinct-value ratios are counted per job and summed over jobs:
vectors returned by ``NumericVector.replace`` and (graph, node) pairs
passed to ``ebc``.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class _Stat:
    __slots__ = ("name", "calls", "self_s", "outer_s")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.outer_s = 0.0


class _Stats(dict):
    def __missing__(self, name):
        stat = self[name] = _Stat(name)
        return stat


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = _Stats()
        self.edges: dict[tuple, int] = defaultdict(int)
        self.jobs: list[dict] = []
        self._stack: list[list] = []           # [stat, child_seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        self._flat_ids: set[int] = set()
        self._flat_keep: list = []             # keeps ids unique while recorded
        self._replace_seen: set[int] = set()
        self._ebc_seen: set = set()
        self.replace_distinct = 0
        self.ebc_distinct = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, stat: _Stat, family: str, fn, args, kwargs):
        entered = _clock()
        stack = self._stack
        parent = stack[-1][0].name if stack else "job"
        frame = [stat, 0.0]
        stack.append(frame)
        depth = self._depth
        depth[family] += 1
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            stack.pop()
            depth[family] -= 1
            stat.calls += 1
            stat.self_s += dt - frame[1]
            if depth[family] == 0:
                stat.outer_s += dt
            self.edges[(parent, stat.name)] += 1
            if stack:
                # the whole wrapper, bookkeeping included, is the child's
                # share: the parent's self time carries no tracing cost
                stack[-1][1] += _clock() - entered

    def wrap(self, fn, name: str, family: str | None = None):
        family = family or name
        stat = self.stats[name]
        span = self._span

        def wrapper(*args, **kwargs):
            return span(stat, family, fn, args, kwargs)

        return wrapper

    def job(self, name: str, fn):
        """Run one job as the root span and close its distinct-value sets."""
        t0 = _clock()
        try:
            return self._span(self.stats["job"], "job", fn, (), {})
        finally:
            self.jobs.append({"job": name, "seconds": _clock() - t0})
            self.replace_distinct += len(self._replace_seen)
            self.ebc_distinct += len(self._ebc_seen)
            self._replace_seen.clear()
            self._ebc_seen.clear()
            self._flat_ids.clear()
            self._flat_keep.clear()

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from dampen import core, graphs, harness, mechanisms, percentile
        from dampen import sensitivity, trees

        plain = [
            (harness, "load_dataset", "cli.load", None),
            (mechanisms, "select_permute_and_flip", "harness.pf_draw", None),
            (graphs, "topk_accuracy", "harness.accuracy", None),
            (mechanisms, "dampen", "mechanisms.dampen", None),
            (mechanisms, "_stable_softmax", "mechanisms.softmax", "softmax_sample"),
            (mechanisms, "_sample", "mechanisms.sample", "softmax_sample"),
            (percentile, "ls0_of_record", "percentile.ls0", None),
            (percentile, "utility_of_label", "percentile.utility", None),
            (graphs.EdgeGraph, "max_degree", "graphs.max_degree", None),
            (trees, "ls_t_ig", "trees.ls_t", None),
            (trees, "ig_utility", "trees.ig_utility", None),
            (trees.LabeledTable, "__init__", "trees.table_build", None),
        ]
        for owner, attr, name, family in plain:
            self._patch(owner, attr, self.wrap(owner.__dict__[attr], name, family))

        span = self._span
        flat_ids = self._flat_ids
        call = core.SensitivityFunction.__call__

        delta_stat, flat_stat = self.stats["delta"], self.stats["delta.flat"]

        def delta_call(fn_self, *args):
            stat = flat_stat if id(fn_self) in flat_ids else delta_stat
            return span(stat, "delta", call, (fn_self, *args), {})

        self._patch(core.SensitivityFunction, "__call__", delta_call)

        flatten = sensitivity.flatten_sensitivity

        def flatten_marked(*args, **kwargs):
            result = flatten(*args, **kwargs)
            flat_ids.add(id(result))
            self._flat_keep.append(result)
            return result

        self._patch(sensitivity, "flatten_sensitivity", flatten_marked)
        self._patch(harness, "flatten_sensitivity", flatten_marked)

        replace = percentile.NumericVector.replace
        replace_seen = self._replace_seen

        replace_stat = self.stats["percentile.replace"]

        def replace_counted(vec, *args):
            result = span(replace_stat, "percentile.replace",
                          replace, (vec, *args), {})
            replace_seen.add(hash(result.records))
            return result

        self._patch(percentile.NumericVector, "replace", replace_counted)

        ebc = graphs.ebc
        ebc_seen = self._ebc_seen

        ebc_stat = self.stats["graphs.ebc"]

        def ebc_counted(graph, c):
            ebc_seen.add((graph, c))
            return span(ebc_stat, "graphs.ebc", ebc, (graph, c), {})

        self._patch(graphs, "ebc", ebc_counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, peak_growth_mb: float) -> dict:
        """Every per-layer metric as ``{name: (value, unit)}``.

        ``peak_growth_mb`` is how far the traced round raised the process's
        peak resident set (tracemalloc would cost about 6x in run time)."""
        s = self.stats
        e = self.edges

        def ratio(num, den):
            return num / den if den else 0.0

        delta_calls = s["delta"].calls + s["delta.flat"].calls
        flat_inner = e[("delta.flat", "delta")] + e[("delta.flat", "delta.flat")]
        dampen_steps = e[("mechanisms.dampen", "delta")] + e[
            ("mechanisms.dampen", "delta.flat")]
        return {
            "cli.load_s": (s["cli.load"].outer_s, "s"),
            "cli.alloc_peak_mb": (peak_growth_mb, "MB"),
            "harness.pf_draws": (s["harness.pf_draw"].calls, "count"),
            "harness.accuracy_s": (s["harness.accuracy"].outer_s, "s"),
            "core.delta_calls": (delta_calls, "count"),
            "core.delta_s": (s["delta"].outer_s + s["delta.flat"].outer_s, "s"),
            "mechanisms.dampen_calls": (s["mechanisms.dampen"].calls, "count"),
            "mechanisms.breakpoint_steps": (dampen_steps, "count"),
            "mechanisms.dampen_self_s": (s["mechanisms.dampen"].self_s, "s"),
            "mechanisms.softmax_sample_s": (
                s["mechanisms.softmax"].outer_s + s["mechanisms.sample"].outer_s, "s"),
            "sensitivity.flat_fanout": (
                ratio(flat_inner, s["delta.flat"].calls), "ratio"),
            "percentile.replace_calls": (s["percentile.replace"].calls, "count"),
            "percentile.replace_s": (s["percentile.replace"].self_s, "s"),
            "percentile.ls0_calls": (s["percentile.ls0"].calls, "count"),
            "percentile.distinct_ratio": (
                ratio(self.replace_distinct, s["percentile.replace"].calls), "ratio"),
            "percentile.utility_calls": (s["percentile.utility"].calls, "count"),
            "graphs.ebc_calls": (s["graphs.ebc"].calls, "count"),
            "graphs.ebc_s": (s["graphs.ebc"].self_s, "s"),
            "graphs.ebc_distinct_ratio": (
                ratio(self.ebc_distinct, s["graphs.ebc"].calls), "ratio"),
            "graphs.max_degree_calls": (s["graphs.max_degree"].calls, "count"),
            "trees.ls_t_calls": (s["trees.ls_t"].calls, "count"),
            "trees.ls_t_s": (s["trees.ls_t"].self_s, "s"),
            "trees.ig_utility_calls": (s["trees.ig_utility"].calls, "count"),
            "trees.table_builds": (s["trees.table_build"].calls, "count"),
            "trees.table_build_s": (s["trees.table_build"].outer_s, "s"),
        }

    def dump(self) -> dict:
        """Aggregates for the trace file."""
        return {
            "spans": {
                name: {"calls": st.calls, "self_s": st.self_s, "outer_s": st.outer_s}
                for name, st in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p, "child": c, "calls": n}
                for (p, c), n in sorted(self.edges.items())
            ],
            "jobs": self.jobs,
        }
