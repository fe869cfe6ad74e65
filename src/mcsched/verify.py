"""Independent trace checkers, a brute-force workload oracle, and run metrics.

Everything in this module re-derives its verdicts from the raw event log and
the declared inputs; nothing trusts the simulator's own bookkeeping beyond
the events themselves. Flags that the simulator does emit (the rem marker on
completions, the woken list on re-enables) are cross-validated against the
reconstructed level timeline, so a simulator bug that mislabels a job shows
up as a violation rather than silently excusing a deadline miss.

The timeline is the list of maximal half-open intervals [s, e) with constant
system level. Trace events are in time order, so the intervals are
contiguous with strictly increasing starts, and the checkers find the
interval of an instant by binary search. A task with criticality L is
suspended exactly while the level exceeds L, which is how the checkers
decide whether a job was ever eligible for relegation to the rem pool.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter

from .model import MCTask, Scenario, TaskSet
from .sim import Trace

MAX_ORACLE_DELTA = 64
MAX_ENUM_JOBS = 12
MAX_ENUM_SCENARIOS = 65536


class ParameterTooLarge(ValueError):
    """Exhaustive oracle invoked outside its tractable parameter range."""


# ---------------------------------------------------------------------------
# level timeline


def compute_l_intervals(trace: Trace) -> list[tuple[int, int, int]]:
    """Maximal constant-level intervals [(start, end, level), ...].

    The system starts at level 1. Budget overruns raise the level at their
    instant, completed decrease chains lower it; several transitions at one
    instant collapse (the last one wins an empty span).
    """
    transitions = [(0, 1)]
    for ev in trace.events:
        if ev[0] == "budget_exceeded":
            transitions.append((ev[1], ev[2]))
        elif ev[0] == "re_enabled":
            transitions.append((ev[1], ev[2]))
    intervals = []
    for i, (s, lv) in enumerate(transitions):
        e = transitions[i + 1][0] if i + 1 < len(transitions) else trace.horizon
        if e > s:
            intervals.append((s, e, lv))
    if not intervals:  # zero-horizon run: keep lookups well defined
        intervals.append((0, trace.horizon, transitions[-1][1]))
    return intervals


_start = itemgetter(0)


def level_at(intervals, t: int) -> int:
    """System level in force at instant t (the end instant maps to the last
    interval, matching completions being processed before transitions)."""
    i = bisect_right(intervals, t, key=_start)
    return intervals[i - 1 if i else 0][2]


def _suspension_starts(intervals, crit: int) -> list[int]:
    """Instants, in increasing order, at which a task with criticality crit
    becomes suspended."""
    starts = []
    prev = 1
    for s, e, lv in intervals:
        if lv > crit >= prev:
            starts.append(s)
        prev = lv
    return starts


# ---------------------------------------------------------------------------
# feasibility


@dataclass
class FeasibilityReport:
    violations: list = field(default_factory=list)
    checked: int = 0
    exempt_rem: int = 0
    exempt_dropped: int = 0
    spanning: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_feasibility(trace: Trace, ts: TaskSet) -> FeasibilityReport:
    """Every released job of an enabled task completes by its deadline.

    A job escapes the obligation only by being relegated to the rem pool or
    dropped, and either escape is accepted only if the level timeline shows
    the task actually suspended at the right moment. Incomplete jobs whose
    deadline lies beyond the horizon are counted as spanning, not judged.
    """
    rep = FeasibilityReport()
    intervals = compute_l_intervals(trace)
    by_id = {t.id: t for t in ts.tasks}
    releases: dict = {}
    completes: dict = {}
    dropped: dict = {}
    starts_by_crit: dict = {}
    for ev in trace.events:
        if ev[0] == "release":
            releases[(ev[3], ev[4])] = ev
        elif ev[0] == "complete":
            completes[(ev[3], ev[4])] = ev
        elif ev[0] == "job_dropped":
            dropped[(ev[3], ev[4])] = ev[5]

    for key, ev in completes.items():
        if key not in releases:
            rep.violations.append(("CompletionWithoutRelease", key[0], key[1],
                                   f"completed at {ev[1]} but never released"))
    for key, why in dropped.items():
        if why == "imcr" and key not in releases:
            rep.violations.append(("DropWithoutRelease", key[0], key[1],
                                   "imcr-dropped but never released"))

    for (tid, k), rel in releases.items():
        task = by_id.get(tid)
        if task is None:
            rep.violations.append(("UnknownTask", tid, k, "release of unknown task"))
            continue
        r, d = rel[1], rel[5]
        comp = completes.get((tid, k))
        starts = starts_by_crit.get(task.L)
        if starts is None:
            starts = starts_by_crit[task.L] = _suspension_starts(intervals, task.L)
        # the first suspension after the release, if any
        i = bisect_right(starts, r)
        u = starts[i] if i < len(starts) else None
        if comp is not None:
            f, rem = comp[1], comp[8]
            suspended_within = u is not None and u < f
            if rem:
                if not suspended_within:
                    rep.violations.append((
                        "RemFlagInconsistent", tid, k,
                        f"flagged rem but task never suspended in ({r}, {f})"))
                else:
                    rep.exempt_rem += 1
                rep.checked += 1
                continue
            if suspended_within:
                rep.violations.append((
                    "RemFlagInconsistent", tid, k,
                    f"task suspended inside [{r}, {f}) but job not flagged rem"))
                rep.checked += 1
                continue
            rep.checked += 1
            if f > d:
                rep.violations.append((
                    "DeadlineMiss", tid, k, f"completed at {f}, deadline {d}"))
            continue
        # incomplete at the horizon
        if (tid, k) in dropped:
            rep.exempt_dropped += 1
            continue
        if d > trace.horizon:
            rep.spanning += 1
            continue
        rep.checked += 1
        if u is not None and u <= d:
            rep.exempt_rem += 1  # relegated before the deadline, still queued
            continue
        rep.violations.append((
            "DeadlineMiss", tid, k,
            f"released at {r}, deadline {d}, never completed"))
    return rep


# ---------------------------------------------------------------------------
# periodicity


@dataclass
class PeriodicityReport:
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_periodicity(trace: Trace, ts: TaskSet, sc: Scenario) -> PeriodicityReport:
    """Releases follow the scenario arrivals exactly while the task is
    enabled; arrivals during suspension surface as dropped arrivals and
    nothing else is ever released."""
    rep = PeriodicityReport()
    intervals = compute_l_intervals(trace)
    by_id = {t.id: t for t in ts.tasks}
    # (task, k) -> its first release or arrival drop; a job seen more than
    # once also gets its [releases, arrival drops] counts
    first: dict = {}
    repeats: dict = {}
    for ev in trace.events:
        kind = ev[0]
        if kind == "release" or (kind == "job_dropped"
                                 and ev[5] == "suspended_arrival"):
            key = (ev[3], ev[4])
            ev0 = first.get(key)
            if ev0 is None:
                first[key] = ev
            else:
                n = repeats.get(key)
                if n is None:
                    n = repeats[key] = [0, 0]
                    n[ev0[0] != "release"] += 1
                n[kind != "release"] += 1

    for tid, arrivals in sc.arrivals.items():
        task = by_id.get(tid)
        if task is None:
            continue
        for k, a in enumerate(arrivals, 1):
            if a > sc.horizon:
                continue
            key = (tid, k)
            rep.checked += 1
            ev = first.pop(key, None)  # what is left has no scenario arrival
            if ev is None or key in repeats:
                n = repeats.get(key, (0, 0))
                rep.violations.append((
                    "ArrivalMultiplicity", tid, k,
                    f"{n[0]} releases and {n[1]} arrival drops"))
                continue
            lv = level_at(intervals, a)
            if ev[0] == "release":
                if ev[1] != a:
                    rep.violations.append((
                        "ShiftedRelease", tid, k,
                        f"released at {ev[1]}, arrival at {a}"))
                elif ev[5] != a + task.D:
                    rep.violations.append((
                        "WrongDeadline", tid, k,
                        f"deadline {ev[5]}, expected {a + task.D}"))
                elif task.L < lv:
                    rep.violations.append((
                        "ReleaseWhileSuspended", tid, k,
                        f"released at {a} at level {lv} > L={task.L}"))
            else:
                if ev[1] != a:
                    rep.violations.append((
                        "ShiftedDrop", tid, k,
                        f"arrival drop at {ev[1]}, arrival at {a}"))
                elif task.L >= lv:
                    rep.violations.append((
                        "DropWhileEnabled", tid, k,
                        f"arrival dropped at {a} at level {lv} <= L={task.L}"))

    if first:
        # releases, then arrival drops, each in the order of first sight
        released = dict.fromkeys((ev[3], ev[4]) for ev in trace.events
                                 if ev[0] == "release")
        dropped = dict.fromkeys((ev[3], ev[4]) for ev in trace.events
                                if ev[0] == "job_dropped"
                                and ev[5] == "suspended_arrival")
        for keys, name, what in ((released, "FabricatedRelease", "release"),
                                 (dropped, "FabricatedDrop", "arrival drop")):
            for key in keys:
                if key in first:
                    rep.violations.append((
                        name, key[0], key[1],
                        f"{what} without a scenario arrival"))
    return rep


# ---------------------------------------------------------------------------
# response bounds


@dataclass
class ResponseReport:
    violations: list = field(default_factory=list)
    checked: int = 0
    spanning: int = 0
    unscoped: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_response_bounds(trace: Trace, wt: dict, ts: TaskSet) -> ResponseReport:
    """Completed jobs of enabled tasks meet the response bound of the level
    in force, judged only for jobs that start and finish inside one constant
    level interval (finishing exactly at a transition instant counts as
    inside, since completions are processed first)."""
    rep = ResponseReport()
    intervals = compute_l_intervals(trace)
    by_id = {t.id: t for t in ts.tasks}
    for ev in trace.events:
        if ev[0] != "complete" or ev[8]:
            continue
        tid, k, f, r = ev[3], ev[4], ev[1], ev[6]
        task = by_id.get(tid)
        if task is None:
            continue
        i = bisect_right(intervals, r, key=_start) - 1
        if i < 0 or not r < intervals[i][1] or f > intervals[i][1]:
            rep.spanning += 1
            continue
        lv = intervals[i][2]
        bound = wt.get((tid, lv))
        if bound is None or lv > task.L:
            rep.unscoped += 1
            continue
        rep.checked += 1
        if f - r > bound:
            rep.violations.append((
                "ResponseBoundExceeded", tid, k,
                f"response {f - r} > bound {bound} at level {lv}"))
    return rep


# ---------------------------------------------------------------------------
# brute-force workload oracle


def brute_force_workload(task: MCTask, delta: int, level: int,
                         carry_in: bool = False) -> int:
    """Exact worst-case execution a single task can place inside a window of
    length delta, maximized over all legal release patterns.

    A job released at time r can contribute at most its budget and at most
    the overlap of its scheduling window [r, r+D) with [0, delta); with
    constrained deadlines those windows never overlap between jobs, so each
    job's cap is achievable jointly and a release-pattern search over integer
    offsets is exact. Without carry-in the first release is at or after the
    window start; with carry-in one earlier release within T of the start is
    allowed.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta > MAX_ORACLE_DELTA:
        raise ParameterTooLarge(
            f"delta {delta} exceeds oracle limit {MAX_ORACLE_DELTA}")
    c = task.wcet(level)
    if delta == 0 or c == 0:
        return 0
    T, D = task.T, task.D

    def w(r: int) -> int:
        return min(c, max(0, min(r + D, delta) - max(r, 0)))

    # best[r] = max workload from releases at times >= r, r in [0, delta]
    best = [0] * (delta + 1)
    for r in range(delta - 1, -1, -1):
        nxt = r + T if r + T < delta else delta
        best[r] = max(best[r + 1], w(r) + best[nxt])
    if not carry_in:
        return best[0]
    out = best[0]
    for r0 in range(-T, 0):
        nxt = r0 + T if r0 + T < delta else delta
        cand = w(r0) + best[max(nxt, 0)]
        if cand > out:
            out = cand
    return out


# ---------------------------------------------------------------------------
# exhaustive scenario enumeration


def count_basic_scenarios(ts: TaskSet, n_jobs: dict) -> int:
    total = 1
    for task in ts.tasks:
        total *= task.L ** n_jobs.get(task.id, 0)
    return total


def enumerate_basic_scenarios(ts: TaskSet, horizon: int, arrivals=None):
    """Yield every scenario in which each job runs for exactly one of its
    per-level budgets. Arrivals default to strictly periodic from zero.

    The count is the product over tasks of L**jobs; callers hitting the
    guard should shrink the horizon or the task set.
    """
    if arrivals is None:
        arrivals = {t.id: tuple(range(0, horizon, t.T)) for t in ts.tasks}
    n_jobs = {tid: len(a) for tid, a in arrivals.items()}
    total_jobs = sum(n_jobs.values())
    if total_jobs > MAX_ENUM_JOBS:
        raise ParameterTooLarge(f"{total_jobs} jobs exceeds {MAX_ENUM_JOBS}")
    total = count_basic_scenarios(ts, n_jobs)
    if total > MAX_ENUM_SCENARIOS:
        raise ParameterTooLarge(
            f"{total} scenarios exceeds {MAX_ENUM_SCENARIOS}")
    tasks = list(ts.tasks)
    per_job_choices = []
    for task in tasks:
        for _ in range(n_jobs.get(task.id, 0)):
            per_job_choices.append([task.wcet(lv) for lv in range(1, task.L + 1)])
    for combo in product(*per_job_choices):
        exec_times = {}
        pos = 0
        for task in tasks:
            n = n_jobs.get(task.id, 0)
            exec_times[task.id] = tuple(combo[pos:pos + n])
            pos += n
        yield Scenario(horizon=horizon, arrivals=dict(arrivals),
                       exec_times=exec_times, dmcr_requests=())


# ---------------------------------------------------------------------------
# metrics


def metrics(trace: Trace, ts: TaskSet) -> dict:
    """Aggregate counters and averages for one run.

    Tardiness is reported over rem-job completions only (enabled jobs are
    covered by the feasibility check instead); the positive part enters the
    mean and max, the signed values are returned alongside. Suspension delay
    averages completed suspension episodes, reconstructed from the level
    transitions rather than read off the woken lists.
    """
    by_id = {t.id: t for t in ts.tasks}
    misses_enabled = 0
    misses_hi = 0
    rem_completed = 0
    rem_dropped = 0
    dropped_arrivals = 0
    chain_aborts = 0
    releases = 0
    enabled_completed = 0
    tardiness_signed: list[int] = []
    rem_responses: list[int] = []
    interference_star: list[int] = []
    susp_start: dict = {}
    susp_delays: list[int] = []
    level = 1
    idle_time = 0
    busy_time = 0

    for ev in trace.events:
        kind = ev[0]
        if kind == "deadline_miss":
            misses_enabled += 1
            if ev[5] >= 2:
                misses_hi += 1
        elif kind == "complete":
            if ev[8]:
                rem_completed += 1
                f, c, r, d = ev[1], ev[5], ev[6], ev[7]
                tardiness_signed.append(f - d)
                rem_responses.append(f - r)
                interference_star.append(f - r - c)
            else:
                enabled_completed += 1
        elif kind == "job_dropped":
            if ev[5] == "imcr":
                rem_dropped += 1
            else:
                dropped_arrivals += 1
        elif kind == "chain_aborted":
            chain_aborts += 1
        elif kind == "release":
            releases += 1
        elif kind == "budget_exceeded":
            level = ev[2]
            for tid, task in by_id.items():
                if task.L < level and tid not in susp_start:
                    susp_start[tid] = ev[1]
        elif kind == "re_enabled":
            level = ev[2]
            for tid in list(susp_start):
                if by_id[tid].L >= level:
                    susp_delays.append(ev[1] - susp_start.pop(tid))
        elif kind == "sched":
            span = ev[3] - ev[1]
            idle_time += span * (trace.m - len(ev[4]))
            busy_time += span * len(ev[4])

    late = [max(0, x) for x in tardiness_signed]
    return {
        "misses_enabled": misses_enabled,
        "misses_hi": misses_hi,
        "rem_completed": rem_completed,
        "rem_dropped": rem_dropped,
        "dropped_arrivals": dropped_arrivals,
        "chain_aborts": chain_aborts,
        "releases": releases,
        "enabled_completed": enabled_completed,
        "mean_tardiness": sum(late) / len(late) if late else 0.0,
        "max_tardiness": max(late) if late else 0,
        "tardiness_signed": tardiness_signed,
        "mean_rem_response": (sum(rem_responses) / len(rem_responses)
                              if rem_responses else 0.0),
        "mean_interference_star": (sum(interference_star) / len(interference_star)
                                   if interference_star else 0.0),
        "mean_susp_delay": (sum(susp_delays) / len(susp_delays)
                            if susp_delays else 0.0),
        "susp_episodes": len(susp_delays),
        "idle_time": idle_time,
        "busy_time": busy_time,
    }
