"""Independent trace checkers and run metrics.

Everything in this module re-derives its verdicts from the raw event log and
the declared inputs; nothing trusts the simulator's own bookkeeping beyond
the events themselves. The rem marker on completions is cross-validated
against the reconstructed level timeline, so a simulator bug that mislabels
a job shows up as a violation rather than silently excusing a deadline miss.

The timeline is the list of maximal half-open intervals [s, e) with constant
system level, from level 1; of several level changes at one instant the last
wins. A task with criticality L is suspended exactly while the level exceeds
L, which is how the checkers decide whether a job could be relegated.

Every checker, and `check_run` for all the reports that apply, is one walk
over the events that feeds each report as it goes, as an online trace
monitor does. It judges a job as it completes or drops, an arrival as it is
released or dropped (again if a level change at that instant follows), a
response as its job completes, and what is left at the end. It holds the
level changes, the open jobs, per task the job numbers seen, the
violations, and, to the end, the keys of the jobs and arrivals that break
the pattern of one release or arrival drop, then one completion or drop,
per job. One closing pass over the events settles those: it takes back the
verdict a job got at its first closing, judges the job by its last release
and its last completion, else drop, and counts an arrival's releases and
drops. It also finds the positions that put the violations in order. On
wcet-reclaim traces the walk also keeps the ticks each job's ghost hosted,
and the closing pass finds those jobs' last completions for the reclaim
rule. So the pass runs only when something is off the pattern, a job's
verdict is a violation or a ghost hosted. The walk's state grows with the
open jobs, the anomalies and the hosting ghosts, not with the trace, and
its time is linear in the trace. It needs each level change read before
the completions and arrivals of later instants, as in a trace in time
order within its horizon, which `simulate` emits and
`sim.trace_from_jsonl` requires.

Violations come in this order. Feasibility: completions, then imcr drops,
without a release, then wrong woken lists, then released jobs', each as first
read. Periodicity: arrivals task by task in scenario order, then fabricated
releases, then fabricated drops, each as first read. The others: as read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

from .model import Scenario, TaskSet, id_key

if TYPE_CHECKING:  # the checkers share no code with the simulator they judge
    from .sim import Trace


# ---------------------------------------------------------------------------
# level timeline, reports and the walk


_LEVEL_CHANGES = ("budget_exceeded", "re_enabled")
_JOB_EVENTS = ("release", "complete", "job_dropped")


def compute_l_intervals(trace: Trace) -> list[tuple[int, int, int]]:
    """Maximal constant-level intervals [(start, end, level), ...].

    The system starts at level 1. Budget overruns raise the level at their
    instant, completed decrease chains lower it; several transitions at one
    instant collapse (the last one wins an empty span).
    """
    changes = [(0, 1)] + [(ev[1], ev[2]) for ev in trace.events
                          if ev[0] in _LEVEL_CHANGES]
    ends = [s for s, _ in changes[1:]] + [trace.horizon]  # each change's end
    intervals = [(s, e, lv) for (s, lv), e in zip(changes, ends) if e > s]
    # a zero-horizon run keeps one, so that lookups stay defined
    return intervals or [(0, trace.horizon, changes[-1][1])]


@dataclass
class Report:
    """Violations, as (name, task, k, text) tuples, and the items judged."""

    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class FeasibilityReport(Report):
    exempt_rem: int = 0
    exempt_dropped: int = 0
    spanning: int = 0


class PeriodicityReport(Report):
    """Judges each scenario arrival inside the horizon."""


@dataclass
class ResponseReport(Report):
    spanning: int = 0
    unscoped: int = 0


class ReclaimReport(Report):
    """Judges each job whose ghost slot hosted rem-jobs. A wcet-reclaim ghost
    spends only the budget its job left unused: the job's execution time plus
    the time its ghost hosted stays within its task's budget at the job's
    completion level, and a ghost of a job that never completed at a level
    of its task is a violation. wcrt-simulate ghosts follow another rule."""


def check_run(trace: Trace, ts: TaskSet, wt: dict | None = None,
              sc: Scenario | None = None) -> dict[str, Report]:
    """The reports that apply to one run, from one walk over its trace, in
    this order: "feasibility", "periodicity" given sc, "response" given the
    analysis table wt, and "reclaim" for a wcet-reclaim trace."""
    return _walk(trace, ts, True, sc, wt, trace.protocol == "wcet-reclaim")


def check_feasibility(trace: Trace, ts: TaskSet) -> FeasibilityReport:
    """Every released job of an enabled task completes by its deadline.

    A job escapes the obligation only by being relegated to the rem pool or
    dropped, and either escape is accepted only if the level timeline shows
    the task actually suspended at the right moment. Incomplete jobs whose
    deadline lies beyond the horizon are counted as spanning, not judged.
    A re-enable to level `target` wakes exactly the tasks with
    target <= L < the level in force before it, in id order.
    """
    return _walk(trace, ts, feasibility=True)["feasibility"]


def check_periodicity(trace: Trace, ts: TaskSet, sc: Scenario) -> PeriodicityReport:
    """Releases follow the scenario arrivals exactly while the task is
    enabled; arrivals during suspension surface as dropped arrivals and
    nothing else is ever released."""
    return _walk(trace, ts, sc=sc)["periodicity"]


def check_response_bounds(trace: Trace, wt: dict, ts: TaskSet) -> ResponseReport:
    """Completed jobs of enabled tasks meet the response bound of the level
    in force, judged only for jobs that start and finish inside one constant
    level interval (finishing exactly at a transition instant counts as
    inside, since completions are processed first)."""
    return _walk(trace, ts, wt=wt)["response"]


def _first_sight(mark: list, k) -> bool:
    """Whether job number k is new to mark, which then holds it: mark starts
    with the least k >= 1 it lacks and the set of those above it holds."""
    if k == mark[0]:
        mark[0] += 1
        while mark[0] in mark[1]:
            mark[1].remove(mark[0])
            mark[0] += 1
        return True
    if 0 < k < mark[0] or k in mark[1]:
        return False
    mark[1].add(k)
    return True


def _walk(trace: Trace, ts: TaskSet, feasibility: bool = False,
          sc: Scenario | None = None, wt: dict | None = None,
          reclaim: bool = False) -> dict[str, Report]:
    """The reports asked for, in check_run's order (see the module docstring)."""
    events, horizon = trace.events, trace.horizon
    by_id = {t.id: t for t in ts.tasks}
    starts, levels = [0], [1]  # each instant the level changed; the level then
    live = 1  # the starts in force: not a last one at or past the horizon
    reports, frep, prep, rrep = {}, None, None, None
    # the (task, k) of each job and arrival off the pattern, which the
    # closing pass settles; (task, k) -> the violation of a job judged;
    # (task, k) -> the ticks its ghost hosted, on a wcet-reclaim trace
    odd, again, bad, spans = set(), set(), {}, {}
    if feasibility:
        reports["feasibility"] = frep = FeasibilityReport()
        # (task, k) -> release, per open job; per task, the job numbers
        # seen; (place in the order, violation) of each wrong woken list,
        # then of the rest at the end
        opened, seen, fv = {}, {t.id: [1, set()] for t in ts.tasks}, []
    if sc is not None:
        reports["periodicity"] = prep = PeriodicityReport()
        h = sc.horizon
        # per task judged: the job numbers sighted, its place in the
        # scenario, arrivals, L and D
        plan = {tid: [1, set(), n, arrivals, by_id[tid].L, by_id[tid].D]
                for n, (tid, arrivals) in enumerate(sc.arrivals.items())
                if tid in by_id}
        # (place in the order, violation) per arrival judged; (0 or 1, (task,
        # k)) per release or arrival drop with no arrival, as first read
        pv, fabricated = [], {}
        t_on, now = None, []  # the last instant of on-time sightings, and they
    if wt is not None:
        reports["response"] = rrep = ResponseReport()
        late = []  # completions not after their release, judged at the end

    def suspends(L, g, end):
        """Whether a task of criticality L becomes suspended at a level
        change from starts[g] on, before end."""
        prev = levels[g - 1] if g else 1
        for g in range(g, live):
            if starts[g] >= end:
                break
            if levels[g] > L >= prev:
                return True
            prev = levels[g]
        return False

    def judge_job(rel, close, sign=1):
        """Count (sign 1) or take back (-1) the feasibility verdict on a
        released job by its release and its completion, else drop, into
        bad if it is a violation; one with neither only at the end."""
        tid, k, r, d = rel[3], rel[4], rel[1], rel[5]
        if (task := by_id.get(tid)) is None:
            why = "UnknownTask", "release of unknown task"
        elif close is not None and close[0] == "complete":
            f, rem = close[1], close[8]
            g = bisect_right(starts, r)  # the first change after r
            within = g < live and starts[g] < f and suspends(task.L, g, f)
            frep.checked += sign
            if rem and within:
                frep.exempt_rem += sign
                return
            if rem or within:
                why = "RemFlagInconsistent", (
                    f"flagged rem but task never suspended in ({r}, {f})"
                    if rem else f"task suspended inside [{r}, {f}) but job "
                    "not flagged rem")
            elif f > d:
                why = "DeadlineMiss", f"completed at {f}, deadline {d}"
            else:
                return
        elif close is not None:
            frep.exempt_dropped += sign
            return
        elif d > horizon:  # incomplete at the horizon
            frep.spanning += 1
            return
        else:
            frep.checked += 1
            if suspends(task.L, bisect_right(starts, r), d + 1):
                frep.exempt_rem += 1  # relegated before the deadline, still queued
                return
            why = "DeadlineMiss", f"released at {r}, deadline {d}, never completed"
        if sign > 0:
            bad[tid, k] = why[0], tid, k, why[1]

    def job(ev):
        """Feed a release, completion or drop of a job, off the common path
        of a new release or a closing, to feasibility."""
        key = ev[3], ev[4]
        if not _first_sight(seen.setdefault(key[0], [1, set()]), key[1]):
            odd.add(key)  # seen again
            opened.pop(key, None)
        elif ev[0] == "release":
            opened[key] = ev
        elif ev[0] == "complete" or ev[5] != "suspended_arrival":
            odd.add(key)  # closed, never released

    def sight(ev):
        """Feed a release or arrival drop, off the common path, to
        periodicity: whether it first sights its scenario arrival, on time."""
        tid, k = key = ev[3], ev[4]
        side = ev[0] != "release"  # 0 a release, 1 an arrival drop
        if (p := plan.get(tid)) is None or not 0 < k <= len(p[3]) or \
                (a := p[3][k - 1]) > h:
            fabricated[side, key] = None
        elif not _first_sight(p, k):
            again.add(key)  # sighted twice: the count is its verdict
        elif ev[1] != a:
            pv.append(((0, p[2], k), (
                "ShiftedDrop", tid, k, f"arrival drop at {ev[1]}, arrival at {a}")
                if side else ("ShiftedRelease", tid, k,
                              f"released at {ev[1]}, arrival at {a}")))
        elif not side and ev[5] != a + p[5]:
            pv.append(((0, p[2], k), ("WrongDeadline", tid, k,
                                      f"deadline {ev[5]}, expected {a + p[5]}")))
        else:
            return True
        return False

    def judge_level(ev, p):
        """Judge an arrival sighted on time by the level in force at it."""
        tid, k, a, L = ev[3], ev[4], ev[1], p[4]
        lv = levels[(min(bisect_right(starts, a), live) or 1) - 1]
        if ev[0] == "release" and L < lv:
            pv.append(((0, p[2], k), ("ReleaseWhileSuspended", tid, k,
                                      f"released at {a} at level {lv} > L={L}")))
        elif ev[0] != "release" and L >= lv:
            pv.append(((0, p[2], k), (
                "DropWhileEnabled", tid, k,
                f"arrival dropped at {a} at level {lv} <= L={L}")))

    def respond(ev):
        """Judge a completion's response by the level interval of its release."""
        tid, f, r = ev[3], ev[1], ev[6]
        g = bisect_right(starts, r)  # the interval of r ends at starts[g]
        e = starts[g] if g < len(starts) else horizon
        if not g or not r < e or f > e:
            rrep.spanning += 1
        elif (bound := wt.get((tid, lv := levels[g - 1]))) is None \
                or lv > by_id[tid].L:
            rrep.unscoped += 1
        else:
            rrep.checked += 1
            if f - r > bound:
                rrep.violations.append((
                    "ResponseBoundExceeded", tid, ev[4],
                    f"response {f - r} > bound {bound} at level {lv}"))

    for ev in events:  # the commonest kinds first
        kind = ev[0]
        if kind == "sched":
            if reclaim:
                for slot in ev[4]:
                    if slot[0] == "G":
                        key = slot[1], slot[2]
                        spans[key] = spans.get(key, 0) + ev[3] - ev[1]
        elif kind == "complete":
            if frep is not None:
                if (rel := opened.pop((ev[3], ev[4]), None)) is None:
                    job(ev)
                elif not ev[8] and ev[1] <= rel[5] and ev[3] in by_id \
                        and rel[1] >= starts[live - 1]:
                    frep.checked += 1  # on time, no level change since release
                else:
                    judge_job(rel, ev)
            if rrep is not None and not ev[8] and ev[3] in by_id:
                if ev[6] < ev[1]:
                    respond(ev)
                else:  # its level may yet change; it cannot exceed a bound
                    late.append(ev)
        elif kind == "release" or kind == "job_dropped":
            if frep is not None:
                if kind != "release" and (
                        rel := opened.pop((ev[3], ev[4]), None)) is not None:
                    judge_job(rel, ev)
                elif (kind == "release" or ev[5] == "suspended_arrival") and \
                        (mark := seen.get(ev[3])) is not None and \
                        ev[4] == mark[0] and not mark[1]:
                    mark[0] += 1  # a job new and numbered next
                    if kind == "release":
                        opened[ev[3], ev[4]] = ev
                else:
                    job(ev)
            if prep is not None and (kind == "release"
                                     or ev[5] == "suspended_arrival"):
                # the common case, as sight() would find it: the next
                # arrival of its task, sighted on time
                if (p := plan.get(ev[3])) is not None and ev[4] == p[0] and \
                        not p[1] and ev[4] <= len(p[3]) and ev[1] == p[3][
                            ev[4] - 1] <= h and (kind != "release"
                                                 or ev[5] == ev[1] + p[5]):
                    p[0] += 1
                elif not sight(ev):
                    continue
                if ev[1] != t_on:
                    t_on = ev[1]
                    now.clear()
                now.append(ev)
                lv = levels[live - 1] if ev[1] >= starts[-1] else None
                if lv is None or (p[4] < lv) == (kind == "release"):
                    judge_level(ev, p)
        elif kind in _LEVEL_CHANGES:
            if kind == "re_enabled" and frep is not None:
                woken = tuple(sorted((task.id for task in ts.tasks
                                      if ev[2] <= task.L < levels[-1]),
                                     key=id_key))
                if ev[3] != woken:
                    fv.append(((2,), (
                        "WrongWokenList", None, None, f"re-enabled "
                        f"{list(ev[3])} at {ev[1]}, expected {list(woken)}")))
            if ev[1] != starts[-1]:
                starts.append(ev[1])
                levels.append(ev[2])
            else:
                levels[-1] = ev[2]  # of several changes at one instant the last wins
            live = len(starts) - (len(starts) > 1 and starts[-1] >= horizon)
            if prep is not None and ev[1] == t_on:
                # judge the arrivals sighted on time at this instant anew
                for e in now:
                    p = plan[e[3]]
                    pv[:] = [v for v in pv if v[0] != (0, p[2], e[4])]
                    judge_level(e, p)
    if frep is not None:
        for rel in opened.values():
            judge_job(rel, None)
    # the closing pass: in order, the events of each job or arrival off the
    # pattern, judged in violation or whose ghost hosted; the first position
    # of each kind of them
    seqs = {key: [] for key in odd | again | bad.keys() | spans.keys()}
    first = {}
    if seqs:
        for i, ev in enumerate(events):
            if ev[0] in _JOB_EVENTS and (key := (ev[3], ev[4])) in seqs:
                seqs[key].append(ev)
                first.setdefault((ev[0], key), i)
    if frep is not None:
        for key in odd:  # judged by its last release, completion and drop
            seq = seqs[key]
            if len(seq) > 1 and seq[0][0] == "release" != seq[1][0]:
                judge_job(seq[0], seq[1], -1)  # the walk's verdict at its closing
            bad.pop(key, None)
            last = {ev[0]: ev for ev in seq}
            if (rel := last.get("release")) is not None:
                judge_job(rel, last.get("complete") or last.get("job_dropped"))
                continue
            if (comp := last.get("complete")) is not None:
                fv.append(((0, first["complete", key]), (
                    "CompletionWithoutRelease", *key,
                    f"completed at {comp[1]} but never released")))
            if (drop := last.get("job_dropped")) is not None and drop[5] == "imcr":
                fv.append(((1, first["job_dropped", key]), (
                    "DropWithoutRelease", *key, "imcr-dropped but never released")))
        fv += [((3, first["release", key]), v) for key, v in bad.items()]
        frep.violations = [v for _, v in sorted(fv, key=itemgetter(0))]
    if prep is not None:
        pv = [item for item in pv if item[1][1:3] not in again]
        for tid, (low, above, n, arrivals, _, _) in plan.items():
            unseen = [k for k in range(low, len(arrivals) + 1)
                      if k not in above and arrivals[k - 1] <= h]
            prep.checked += low - 1 + len(above) + len(unseen)
            again.update((tid, k) for k in unseen)
        for tid, k in again:  # only a drop has a reason at [5]
            seq = seqs.get((tid, k), ())
            n_rel = sum(ev[0] == "release" for ev in seq)
            n_drop = sum(ev[5] == "suspended_arrival" for ev in seq)
            pv.append(((0, plan[tid][2], k), ("ArrivalMultiplicity", tid, k,
                       f"{n_rel} releases and {n_drop} arrival drops")))
        for side, key in fabricated:
            name, what = (("FabricatedDrop", "arrival drop") if side else
                          ("FabricatedRelease", "release"))
            pv.append(((1 + side,), (name, *key,
                                     f"{what} without a scenario arrival")))
        prep.violations = [v for _, v in sorted(pv, key=itemgetter(0))]
    if rrep is not None:
        for ev in late:
            respond(ev)
    if reclaim:
        reports["reclaim"] = crep = ReclaimReport()
        for (tid, k), hosted in spans.items():
            crep.checked += 1
            comp = next((ev for ev in reversed(seqs[tid, k])
                         if ev[0] == "complete"), None)
            task = by_id.get(tid)
            if comp is None or task is None or not 1 <= comp[2] <= len(task.C):
                crep.violations.append((
                    "UnfundedGhost", tid, k,
                    f"ghost hosted {hosted} ticks but its job never completed"))
            elif comp[5] + hosted > (budget := task.wcet(comp[2])):
                crep.violations.append((
                    "ReclaimOverBudget", tid, k, f"ran {comp[5]} + hosted "
                    f"{hosted} > budget {budget} at level {comp[2]}"))
    return reports


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
    # sums over the rem-job completions, and their largest tardiness
    tardiness = rem_response = interference_star = max_tardiness = 0
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
                if f > d:
                    tardiness += f - d
                    max_tardiness = max(max_tardiness, f - d)
                rem_response += f - r
                interference_star += f - r - c
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
        "mean_tardiness": (tardiness / rem_completed
                           if rem_completed else 0.0),
        "max_tardiness": max_tardiness,
        "mean_rem_response": (rem_response / rem_completed
                              if rem_completed else 0.0),
        "mean_interference_star": (interference_star / rem_completed
                                   if rem_completed else 0.0),
        "mean_susp_delay": (sum(susp_delays) / len(susp_delays)
                            if susp_delays else 0.0),
        "susp_episodes": len(susp_delays),
        "idle_time": idle_time,
        "busy_time": busy_time,
    }
