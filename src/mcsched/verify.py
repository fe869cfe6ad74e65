"""Independent trace checkers and run metrics.

Everything in this module re-derives its verdicts from the raw event log and
the declared inputs; nothing trusts the simulator's own bookkeeping beyond
the events themselves. The rem marker on completions is cross-validated
against the reconstructed level timeline, so a simulator bug that mislabels
a job shows up as a violation rather than silently excusing a deadline miss.
Each checker indexes the trace in one scan that builds the level intervals
and only the maps it reads: feasibility each job's last release, completion
and drop reason, and the re-enables with the level before each;
periodicity its last release and arrival drop, and the jobs seen twice;
response the completions; reclaim the sched records and last completions.
`check_run` builds one full index and runs every checker that applies on it.

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

from .model import Scenario, TaskSet, id_key
from .sim import Trace


# ---------------------------------------------------------------------------
# level timeline, trace index and the whole-run check


_LEVEL_CHANGES = ("budget_exceeded", "re_enabled")


def _intervals(transitions, horizon: int) -> list[tuple[int, int, int]]:
    intervals = []
    for i, (s, lv) in enumerate(transitions):
        e = transitions[i + 1][0] if i + 1 < len(transitions) else horizon
        if e > s:
            intervals.append((s, e, lv))
    if not intervals:  # zero-horizon run: keep lookups well defined
        intervals.append((0, horizon, transitions[-1][1]))
    return intervals


def compute_l_intervals(trace: Trace) -> list[tuple[int, int, int]]:
    """Maximal constant-level intervals [(start, end, level), ...].

    The system starts at level 1. Budget overruns raise the level at their
    instant, completed decrease chains lower it; several transitions at one
    instant collapse (the last one wins an empty span).
    """
    return _intervals([(0, 1)] + [(ev[1], ev[2]) for ev in trace.events
                                  if ev[0] in _LEVEL_CHANGES], trace.horizon)


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


# the maps of an _Index that each checker reads
_FEASIBILITY = frozenset({"releases", "completes", "dropped", "re_enables"})
_PERIODICITY = frozenset({"releases", "arrival_drops", "repeats"})
_RESPONSE = frozenset({"completions"})
_RECLAIM = frozenset({"completes", "scheds"})
_ALL = _FEASIBILITY | _PERIODICITY | _RESPONSE | _RECLAIM


class _Index:
    """The level intervals, their starts and the maps named in `reads` of
    one trace, from one scan (any other map is None, repeats empty). Jobs
    are keyed by (task, k); repeats holds [releases, arrival drops];
    re_enables holds (the level in force before it, event) per re-enable."""

    def __init__(self, trace: Trace, reads: frozenset):
        self.horizon = trace.horizon
        transitions = [(0, 1)]
        want = reads.__contains__
        releases = self.releases = {} if want("releases") else None
        drops = self.arrival_drops = {} if want("arrival_drops") else None
        dropped = self.dropped = {} if want("dropped") else None
        completes = self.completes = {} if want("completes") else None
        completions = self.completions = [] if want("completions") else None
        scheds = self.scheds = [] if want("scheds") else None
        re_enables = self.re_enables = [] if want("re_enables") else None
        sightings = 0  # releases and arrival drops
        for ev in trace.events:
            kind = ev[0]
            if kind == "sched":
                if scheds is not None:
                    scheds.append(ev)
            elif kind == "release":
                if releases is not None:
                    releases[(ev[3], ev[4])] = ev
                    sightings += 1
            elif kind == "complete":
                if completes is not None:
                    completes[(ev[3], ev[4])] = ev
                if completions is not None:
                    completions.append(ev)
            elif kind == "job_dropped":
                if dropped is not None:
                    dropped[(ev[3], ev[4])] = ev[5]
                if drops is not None and ev[5] == "suspended_arrival":
                    drops[(ev[3], ev[4])] = ev
                    sightings += 1
            elif kind in _LEVEL_CHANGES:
                if kind == "re_enabled" and re_enables is not None:
                    re_enables.append((transitions[-1][1], ev))
                transitions.append((ev[1], ev[2]))
        self.intervals = _intervals(transitions, trace.horizon)
        self.starts = [iv[0] for iv in self.intervals]
        counts: dict = {}  # a second pass only if some job was seen twice
        if want("repeats") and (sightings > len(releases) + len(drops) or
                                not drops.keys().isdisjoint(releases)):
            for ev in trace.events:
                kind = ev[0]
                if kind == "release" or (kind == "job_dropped"
                                         and ev[5] == "suspended_arrival"):
                    n = counts.setdefault((ev[3], ev[4]), [0, 0])
                    n[kind != "release"] += 1
        self.repeats = {key: n for key, n in counts.items() if sum(n) > 1}


@dataclass
class Report:
    """Violations, as (name, task, k, text) tuples, and the items judged."""

    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_run(trace: Trace, ts: TaskSet, wt: dict | None = None,
              sc: Scenario | None = None) -> dict[str, Report]:
    """The reports that apply to one run, from one index of its trace, in
    this order: "feasibility", "periodicity" given sc, "response" given the
    analysis table wt, and "reclaim" for a wcet-reclaim trace."""
    ix = _Index(trace, _ALL)
    reports = {"feasibility": _feasibility(ix, ts)}
    if sc is not None:
        reports["periodicity"] = _periodicity(ix, ts, sc)
    if wt is not None:
        reports["response"] = _response_bounds(ix, wt, ts)
    if trace.protocol == "wcet-reclaim":
        reports["reclaim"] = _reclaim(ix, ts)
    return reports


# ---------------------------------------------------------------------------
# feasibility


@dataclass
class FeasibilityReport(Report):
    exempt_rem: int = 0
    exempt_dropped: int = 0
    spanning: int = 0


def check_feasibility(trace: Trace, ts: TaskSet) -> FeasibilityReport:
    """Every released job of an enabled task completes by its deadline.

    A job escapes the obligation only by being relegated to the rem pool or
    dropped, and either escape is accepted only if the level timeline shows
    the task actually suspended at the right moment. Incomplete jobs whose
    deadline lies beyond the horizon are counted as spanning, not judged.
    A re-enable to level `target` wakes exactly the tasks with
    target <= L < the level in force before it, in id order.
    """
    return _feasibility(_Index(trace, _FEASIBILITY), ts)


def _feasibility(ix: _Index, ts: TaskSet) -> FeasibilityReport:
    rep = FeasibilityReport()
    by_id = {t.id: t for t in ts.tasks}
    releases, completes, dropped = ix.releases, ix.completes, ix.dropped
    starts_by_crit = {lv: _suspension_starts(ix.intervals, lv)
                      for lv in {t.L for t in ts.tasks}}
    for key, ev in completes.items():
        if key not in releases:
            rep.violations.append(("CompletionWithoutRelease", key[0], key[1],
                                   f"completed at {ev[1]} but never released"))
    for key, why in dropped.items():
        if why == "imcr" and key not in releases:
            rep.violations.append(("DropWithoutRelease", key[0], key[1],
                                   "imcr-dropped but never released"))
    for before, ev in ix.re_enables:
        woken = tuple(sorted((t.id for t in ts.tasks
                              if ev[2] <= t.L < before), key=id_key))
        if ev[3] != woken:
            rep.violations.append((
                "WrongWokenList", None, None,
                f"re-enabled {list(ev[3])} at {ev[1]}, expected {list(woken)}"))

    for (tid, k), rel in releases.items():
        task = by_id.get(tid)
        if task is None:
            rep.violations.append(("UnknownTask", tid, k, "release of unknown task"))
            continue
        r, d = rel[1], rel[5]
        comp = completes.get((tid, k))
        starts = starts_by_crit[task.L]
        # the first suspension after the release, if any
        i = bisect_right(starts, r)
        u = starts[i] if i < len(starts) else None
        if comp is not None:
            f, rem = comp[1], comp[8]
            suspended_within = u is not None and u < f
            rep.checked += 1
            if rem:
                if not suspended_within:
                    rep.violations.append((
                        "RemFlagInconsistent", tid, k,
                        f"flagged rem but task never suspended in ({r}, {f})"))
                else:
                    rep.exempt_rem += 1
            elif suspended_within:
                rep.violations.append((
                    "RemFlagInconsistent", tid, k,
                    f"task suspended inside [{r}, {f}) but job not flagged rem"))
            elif f > d:
                rep.violations.append((
                    "DeadlineMiss", tid, k, f"completed at {f}, deadline {d}"))
        # incomplete at the horizon
        elif (tid, k) in dropped:
            rep.exempt_dropped += 1
        elif d > ix.horizon:
            rep.spanning += 1
        elif u is not None and u <= d:
            rep.checked += 1
            rep.exempt_rem += 1  # relegated before the deadline, still queued
        else:
            rep.checked += 1
            rep.violations.append((
                "DeadlineMiss", tid, k,
                f"released at {r}, deadline {d}, never completed"))
    return rep


# ---------------------------------------------------------------------------
# periodicity


class PeriodicityReport(Report):
    """Judges each scenario arrival inside the horizon."""


def check_periodicity(trace: Trace, ts: TaskSet, sc: Scenario) -> PeriodicityReport:
    """Releases follow the scenario arrivals exactly while the task is
    enabled; arrivals during suspension surface as dropped arrivals and
    nothing else is ever released."""
    return _periodicity(_Index(trace, _PERIODICITY), ts, sc)


def _periodicity(ix: _Index, ts: TaskSet, sc: Scenario) -> PeriodicityReport:
    rep = PeriodicityReport()
    by_id = {t.id: t for t in ts.tasks}
    releases, drops, repeats = ix.releases, ix.arrival_drops, ix.repeats
    starts, intervals, horizon = ix.starts, ix.intervals, sc.horizon
    checked = seen = 0  # arrivals judged; those with a release or a drop
    for tid, arrivals in sc.arrivals.items():
        task = by_id.get(tid)
        if task is None:
            continue
        D, L = task.D, task.L
        for k, a in enumerate(arrivals, 1):
            if a > horizon:
                continue
            key = (tid, k)
            checked += 1
            ev = releases.get(key) or drops.get(key)
            seen += ev is not None
            if ev is None or key in repeats:
                n = repeats.get(key, (0, 0))
                rep.violations.append((
                    "ArrivalMultiplicity", tid, k,
                    f"{n[0]} releases and {n[1]} arrival drops"))
                continue
            i = bisect_right(starts, a)  # the level in force at a
            lv = intervals[i - 1 if i else 0][2]
            if ev[0] == "release":
                if ev[1] != a:
                    rep.violations.append((
                        "ShiftedRelease", tid, k,
                        f"released at {ev[1]}, arrival at {a}"))
                elif ev[5] != a + D:
                    rep.violations.append((
                        "WrongDeadline", tid, k,
                        f"deadline {ev[5]}, expected {a + D}"))
                elif L < lv:
                    rep.violations.append((
                        "ReleaseWhileSuspended", tid, k,
                        f"released at {a} at level {lv} > L={L}"))
            else:
                if ev[1] != a:
                    rep.violations.append((
                        "ShiftedDrop", tid, k,
                        f"arrival drop at {ev[1]}, arrival at {a}"))
                elif L >= lv:
                    rep.violations.append((
                        "DropWhileEnabled", tid, k,
                        f"arrival dropped at {a} at level {lv} <= L={L}"))
    rep.checked = checked

    both = sum(1 for n in repeats.values() if n[0] and n[1])
    if seen < len(releases) + len(drops) - both:
        # some job has no scenario arrival: list releases, then arrival
        # drops, each in the order of first sight
        expected = {(tid, k) for tid, arrivals in sc.arrivals.items()
                    if tid in by_id
                    for k, a in enumerate(arrivals, 1) if a <= sc.horizon}
        for keys, name, what in ((releases, "FabricatedRelease", "release"),
                                 (drops, "FabricatedDrop", "arrival drop")):
            for key in keys:
                if key not in expected:
                    rep.violations.append((
                        name, key[0], key[1],
                        f"{what} without a scenario arrival"))
    return rep


# ---------------------------------------------------------------------------
# response bounds


@dataclass
class ResponseReport(Report):
    spanning: int = 0
    unscoped: int = 0


def check_response_bounds(trace: Trace, wt: dict, ts: TaskSet) -> ResponseReport:
    """Completed jobs of enabled tasks meet the response bound of the level
    in force, judged only for jobs that start and finish inside one constant
    level interval (finishing exactly at a transition instant counts as
    inside, since completions are processed first)."""
    return _response_bounds(_Index(trace, _RESPONSE), wt, ts)


def _response_bounds(ix: _Index, wt: dict, ts: TaskSet) -> ResponseReport:
    rep = ResponseReport()
    intervals, starts = ix.intervals, ix.starts
    by_id = {t.id: t for t in ts.tasks}
    for ev in ix.completions:
        if ev[8]:
            continue
        tid, k, f, r = ev[3], ev[4], ev[1], ev[6]
        task = by_id.get(tid)
        if task is None:
            continue
        i = bisect_right(starts, r) - 1
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
# reclaim budget


class ReclaimReport(Report):
    """Judges each job whose ghost slot hosted rem-jobs."""


def check_reclaim(trace: Trace, ts: TaskSet) -> ReclaimReport:
    """A wcet-reclaim ghost slot spends only the budget its job left
    unused: the job's execution time plus the time its ghost hosted
    rem-jobs stays within its task's budget at the job's completion level.
    A ghost of a job that never completed at a level of its task is a
    violation. wcrt-simulate ghosts follow another rule: do not judge them
    here."""
    return _reclaim(_Index(trace, _RECLAIM), ts)


def _reclaim(ix: _Index, ts: TaskSet) -> ReclaimReport:
    rep = ReclaimReport()
    by_id = {t.id: t for t in ts.tasks}
    spans: dict = {}  # job -> ticks its ghost slot hosted rem-jobs
    for ev in ix.scheds:
        for slot in ev[4]:
            if slot[0] == "G":
                key = (slot[1], slot[2])
                spans[key] = spans.get(key, 0) + ev[3] - ev[1]
    for (tid, k), hosted in spans.items():
        rep.checked += 1
        comp = ix.completes.get((tid, k))
        task = by_id.get(tid)
        if comp is None or task is None or not 1 <= comp[2] <= len(task.C):
            rep.violations.append(("UnfundedGhost", tid, k, f"ghost hosted "
                                   f"{hosted} ticks but its job never completed"))
            continue
        c, level = comp[5], comp[2]
        budget = task.wcet(level)
        if c + hosted > budget:
            rep.violations.append((
                "ReclaimOverBudget", tid, k,
                f"ran {c} + hosted {hosted} > budget {budget} at level {level}"))
    return rep


# ---------------------------------------------------------------------------
# metrics


def metrics(trace: Trace, ts: TaskSet) -> dict:
    """Aggregate counters and averages for one run.

    Tardiness is reported over rem-job completions only (enabled jobs are
    covered by the feasibility check instead); a rem-job that completes by
    its deadline has tardiness 0 in the mean and max. Suspension delay
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
    tardiness: list[int] = []
    rem_responses: list[int] = []
    interference_star: list[int] = []
    susp_start: dict = {}
    susp_delays: list[int] = []
    sched_time = 0  # summed span of the sched records
    busy_time = 0

    for ev in trace.events:  # the commonest kinds first
        kind = ev[0]
        if kind == "sched":
            span = ev[3] - ev[1]
            sched_time += span
            busy_time += span * len(ev[4])
        elif kind == "release":
            releases += 1
        elif kind == "complete":
            if ev[8]:
                rem_completed += 1
                f, c, r, d = ev[1], ev[5], ev[6], ev[7]
                tardiness.append(max(0, f - d))
                rem_responses.append(f - r)
                interference_star.append(f - r - c)
            else:
                enabled_completed += 1
        elif kind == "deadline_miss":
            misses_enabled += 1
            if ev[5] >= 2:
                misses_hi += 1
        elif kind == "job_dropped":
            if ev[5] == "imcr":
                rem_dropped += 1
            else:
                dropped_arrivals += 1
        elif kind == "chain_aborted":
            chain_aborts += 1
        elif kind == "budget_exceeded":
            for tid, task in by_id.items():
                if task.L < ev[2] and tid not in susp_start:
                    susp_start[tid] = ev[1]
        elif kind == "re_enabled":
            for tid in list(susp_start):
                if by_id[tid].L >= ev[2]:
                    susp_delays.append(ev[1] - susp_start.pop(tid))
    idle_time = trace.m * sched_time - busy_time

    return {
        "misses_enabled": misses_enabled,
        "misses_hi": misses_hi,
        "rem_completed": rem_completed,
        "rem_dropped": rem_dropped,
        "dropped_arrivals": dropped_arrivals,
        "chain_aborts": chain_aborts,
        "releases": releases,
        "enabled_completed": enabled_completed,
        "mean_tardiness": (sum(tardiness) / len(tardiness)
                           if tardiness else 0.0),
        "max_tardiness": max(tardiness) if tardiness else 0,
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
