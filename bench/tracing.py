"""Span tracing for the traced benchmark run.

The package is not changed: `instrument` wraps the public functions of the
mcsched modules at runtime and `restore` puts the originals back. A span is
(name, start, end, parent). A span's self time is its duration minus the
durations of its child spans, so a `cli.simulate` span that calls
`sim.simulate` keeps only the argument parsing and file handling as its own.
Counts are recorded by hooks at the same boundaries; a hook runs inside a
`bench.harness` span so its cost is not charged to the layer it counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

from mcsched import analysis, gen, model, sim, verify

HARNESS = "bench.harness"


class Tracer:
    """Spans kept in memory in start order, plus named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def times(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) summed per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
        return total, own


def span(tracer: Tracer | None, name: str):
    """A span when tracing, nothing otherwise."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# count hooks: (counts, args, result) -> None, run after the span closes


def trace_counts(trace) -> tuple[int, int, int]:
    """(level changes, rem-job completions, ghost-hosted slots) of a trace."""
    changes = rem = ghost = 0
    for ev in trace.events:
        kind = ev[0]
        if kind == "sched":
            for slot in ev[4]:
                if slot[0] == "G":
                    ghost += 1
        elif kind == "complete":
            rem += ev[8]
        elif kind in ("budget_exceeded", "re_enabled"):
            changes += 1
    return changes, rem, ghost


def _count_simulate(counts, args, trace):
    changes, rem, ghost = trace_counts(trace)
    counts["sim.simulate.events"] += len(trace.events)
    counts["sim.simulate.level_changes"] += changes
    counts["sim.simulate.rem_jobs"] += rem
    counts["sim.simulate.ghost_slots"] += ghost


def _count_to_jsonl(counts, args, text):
    counts["sim.to_jsonl.bytes"] += len(text)  # the records are pure ASCII


def _count_trace_from_jsonl(counts, args, trace):
    counts["sim.trace_from_jsonl.lines"] += args[0].count("\n")


def _count_response(counts, args, report):
    counts["verify.l_intervals"] += len(verify.compute_l_intervals(args[0]))
    counts["verify.jobs_checked"] += report.checked
    counts["verify.jobs_spanning"] += report.spanning


def _count_opa(counts, args, result):
    counts["analysis.opa_assign.schedulable"] += result.schedulable


def _count_scenario(counts, args, sc):
    counts["gen.gen_scenario.jobs"] += sum(len(a) for a in sc.arrivals.values())


# (owner, attribute, span name, count hook). A span name of None counts calls
# without timing them: wcrt runs tens of thousands of times per analysis.
TARGETS = (
    (model, "load_taskset", "model.load_taskset", None),
    (model, "load_scenario", "model.load_scenario", None),
    (model, "dump_scenario", "model.dump_scenario", None),
    (analysis, "opa_assign", "analysis.opa_assign", _count_opa),
    (analysis, "wcrt", None, None),
    (sim, "simulate", "sim.simulate", _count_simulate),
    (sim.Trace, "to_jsonl", "sim.to_jsonl", _count_to_jsonl),
    (sim, "trace_from_jsonl", "sim.trace_from_jsonl", _count_trace_from_jsonl),
    (verify, "check_feasibility", "verify.check_feasibility", None),
    (verify, "check_periodicity", "verify.check_periodicity", None),
    (verify, "check_response_bounds", "verify.check_response_bounds",
     _count_response),
    (verify, "metrics", "verify.metrics", None),
    (gen, "gen_scenario", "gen.gen_scenario", _count_scenario),
    (gen, "gen_taskset", "gen.gen_taskset", None),
)


def _spanned(tracer, fn, name, hook):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name + ".calls"] += 1
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            counts[name + ".failed"] += 1
            raise
        finally:
            tracer.end(idx)
        if hook is not None:
            with tracer.span(HARNESS):
                hook(counts, args, result)
        return result

    return wrapper


def _counted(tracer, fn, qualname):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[qualname + ".calls"] += 1
        try:
            return fn(*args, **kwargs)
        except analysis.Divergent:
            counts[qualname + ".divergent"] += 1
            raise

    return wrapper


def instrument(tracer: Tracer) -> list:
    """Wrap every target wherever a loaded mcsched module refers to it.

    Modules import each other's functions by name (cli calls its own
    `simulate`, not `sim.simulate`), so each reference is replaced, not only
    the defining one. Returns the undo list for `restore`.
    """
    modules = [mod for name, mod in sys.modules.items()
               if name == "mcsched" or name.startswith("mcsched.")]
    undo = []
    for owner, attr, name, hook in TARGETS:
        orig = getattr(owner, attr)
        if name is None:
            wrapper = _counted(tracer, orig, f"{owner.__name__.split('.')[-1]}.{attr}")
        else:
            wrapper = _spanned(tracer, orig, name, hook)
        holders = modules if owner in modules else [owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    undo.append((holder, key, orig))
                    setattr(holder, key, wrapper)
    return undo


def restore(undo: list) -> None:
    for holder, key, orig in reversed(undo):
        setattr(holder, key, orig)
