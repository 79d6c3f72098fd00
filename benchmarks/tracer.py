"""Outside-in tracing of equityrank's public functions.

The tracer wraps each named function where the library looks it up: a
``from .x import y`` binds ``y`` in the importing module at import time, so
patching only the defining module would miss most calls. Every module of
the package whose namespace binds the original object gets the wrapper, and
methods are wrapped on their class.

Spans (name, start, end, parent) are kept in memory and written out when the
run ends. Functions that fire many times per step (``core.get``) are counted
in aggregate instead: their calls and time are summed, and the time is
charged to the enclosing span as covered by children, so the enclosing
span's self time stays right.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# metric prefix -> (module, qualified name). Names are part of the benchmark's
# contract (BENCHMARK.json per_layer); the prefix is the layer.
TRACED = {
    "core.relevance_of": ("equityrank.core", "RelevanceTable.relevance_of"),
    "core.get": ("equityrank.core", "RelevanceTable.get"),
    "core.provider_arrays": ("equityrank.core", "provider_arrays"),
    "sim.run_offline": ("equityrank.sim", "run_offline"),
    "sim.run_online": ("equityrank.sim", "run_online"),
    "sim.estimator_relevance": ("equityrank.sim", "OnlineState.relevance_of"),
    "sim.apply_feedback": ("equityrank.sim", "apply_feedback"),
    "sim.apply_expected_feedback": ("equityrank.sim", "apply_expected_feedback"),
    "sim.prefilter_candidates": ("equityrank.sim", "prefilter_candidates"),
    "rankers.online_step_rank": ("equityrank.rankers", "online_step_rank"),
    "rankers.offline_rank_user": ("equityrank.rankers", "offline_rank_user"),
    "rankers.equityrank_scores": ("equityrank.rankers", "equityrank_scores"),
    "rankers.rank_by_scores": ("equityrank.rankers", "rank_by_scores"),
    "rankers.rank_poork": ("equityrank.rankers", "rank_poork"),
    "rankers.rank_mmf_star": ("equityrank.rankers", "rank_mmf_star"),
    "rankers.rank_fairco_star": ("equityrank.rankers", "rank_fairco_star"),
    "rankers.allocate_vertical": ("equityrank.rankers", "allocate_vertical"),
    "metrics.fairness_gradient": ("equityrank.metrics", "fairness_gradient"),
    "metrics.unfairness": ("equityrank.metrics", "unfairness"),
    "metrics.dcg": ("equityrank.metrics", "dcg"),
    "metrics.andcg": ("equityrank.metrics", "andcg"),
    "synth.generate_dataset": ("equityrank.synth", "generate_dataset"),
    "synth.save_dataset": ("equityrank.synth", "save_dataset"),
    "synth.load_dataset": ("equityrank.synth", "load_dataset"),
    "cli.cmd_sweep": ("equityrank.cli", "cmd_sweep"),
    "cli.cmd_report": ("equityrank.cli", "cmd_report"),
    "plots.write_tradeoff_svg": ("equityrank.plots", "write_tradeoff_svg"),
}

# One span per call would cost more than the call itself: about ten per
# online step.
AGGREGATED = frozenset({"core.get"})


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, aggregated child time]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.aggregate_calls: dict[str, int] = {}
        self.aggregate_time: dict[str, float] = {}

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def aggregate(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, total = self.aggregate_calls, self.aggregate_time
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                total[name] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds). Self time is a span's duration minus
        what its child spans and aggregated calls cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for idx, (name, start, end, _, covered) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - child[idx] - covered)
        for name, calls in self.aggregate_calls.items():
            totals[name] = (calls, self.aggregate_time[name])
        return totals

    def write(self, path: Path) -> None:
        """Write spans as CSV (times relative to the first span), then one
        ``# aggregated`` comment line per aggregated function."""
        origin = self.spans[0][1] if self.spans else 0.0
        lines = ["index,name,start_s,end_s,parent"]
        lines += [
            f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}"
            for i, (name, start, end, parent, _) in enumerate(self.spans)
        ]
        lines += [
            f"# aggregated {name}: {calls} calls, {self.aggregate_time[name]:.9f} s"
            for name, calls in self.aggregate_calls.items()
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) for a traced name, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


@contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every name in TRACED; yield the absent names.

    Originals are restored on exit.
    """
    importlib.import_module("equityrank")
    restore: list[tuple[object, str, object]] = []
    absent: list[str] = []
    try:
        for name, (module_name, qualname) in TRACED.items():
            found = _resolve(module_name, qualname)
            if found is None:
                absent.append(name)
                continue
            owner, attr, original = found
            wrap = tracer.aggregate if name in AGGREGATED else tracer.span
            wrapper = wrap(name, original)
            if isinstance(owner, type):
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "equityrank" and not mod_name.startswith("equityrank."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        yield absent
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
