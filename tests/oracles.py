"""Reference oracles the tests judge the package by.

None of this ships in `mcsched`: each oracle sits beside the tests that use
it, apart from the code it judges.

Workload bounds. The readable per-term definition of the interfering
workload that `mcsched.analysis` computes through its integer kernel. Per
interfering task j over a window of length D:

    nc:  floor(D/T_j) * C_j(l) + min(C_j(l), D mod T_j)
    ci:  min(D, C_j(l) * (1 + floor(D'/T_j)) + min(C_j(l), D' mod T_j)),
         D' = max(D - C_j(l), 0)

each capped at max(D - C_i(l) + 1, 0), the workload bound of Bertogna &
Cirinei, "Response-time analysis for globally scheduled symmetric
multiprocessor platforms" (RTSS 2007). The total adds the m-1 largest
carry-in surcharges ci - nc, as in Guan et al., "New response time bounds
for fixed priority multiprocessor scheduling" (RTSS 2009).

Budget repair. The generator's utilization repair as a plain scan over every
single move and every ordered pair of moves, the reference for the grouped
search in `mcsched.gen`.

Exhaustive oracles. The exact worst-case workload of one task over a
window, by a search over every legal release pattern; every basic scenario
of a small task set; and the classical uniprocessor recurrence.

Checker references. `ref_feasibility`, `ref_periodicity` and
`ref_response_bounds` give `mcsched.verify`'s reports by plain scans that
look each job up against every level interval, and `ref_reclaim` totals
each ghost's hosted ticks before it judges any. The checkers' one walk must
give the same reports, violation order and counters included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from mcsched.analysis import Divergent, SameTask
from mcsched.gen import Infeasible
from mcsched.model import MCTask, Scenario, TaskSet, id_key
from mcsched.verify import (FeasibilityReport, PeriodicityReport,
                            ReclaimReport, ResponseReport,
                            compute_l_intervals)

MAX_ORACLE_DELTA = 64
MAX_ENUM_JOBS = 12
MAX_ENUM_SCENARIOS = 65536


class ParameterTooLarge(ValueError):
    """Exhaustive oracle invoked outside its tractable parameter range."""


# ---------------------------------------------------------------------------
# per-term workload bounds


def workload_nc(task: MCTask, delta: int, level: int) -> int:
    """Max execution of task's jobs inside a window of length delta,
    no carry-in (first release at or after the window start)."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0:
        return 0
    c = task.wcet(level)
    return (delta // task.T) * c + min(c, delta % task.T)


def workload_ci(task: MCTask, delta: int, level: int) -> int:
    """Max execution inside a window of length delta when one job may have
    been released before the window (carry-in)."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0:
        return 0
    c = task.wcet(level)
    rest = max(delta - c, 0)
    return min(delta, c * (1 + rest // task.T) + min(c, rest % task.T))


@dataclass(frozen=True)
class InterferenceBound:
    nc: int
    ci: int

    @property
    def diff(self) -> int:
        return self.ci - self.nc


def interfering_bounds(tj: MCTask, ti: MCTask, delta: int, level: int,
                       cap: bool = True) -> InterferenceBound:
    """Workload of tj that can actually delay a pending job of ti.

    With the cap, each bound is clipped at delta - C_i(level) + 1: once ti
    has been held off that long it has already missed the window.
    """
    if tj.id == ti.id:
        raise SameTask(f"task {ti.id!r} cannot interfere with itself")
    limit = max(delta - ti.wcet(level) + 1, 0) if cap else delta
    nc = min(workload_nc(tj, delta, level), limit)
    ci = min(workload_ci(tj, delta, level), limit)
    return InterferenceBound(nc=nc, ci=ci)


def uniprocessor_rta(task: MCTask, hp: list[MCTask], level: int) -> int:
    """Classical m=1 response-time recurrence R = C + sum ceil(R/T_j) C_j,
    the independent reference for the m=1 degeneration check."""
    c = task.wcet(level)
    r = c
    while True:
        if r > task.D:
            raise Divergent(f"uniproc: {r} > D={task.D}")
        nxt = c + sum(-(-r // tj.T) * tj.wcet(level) for tj in hp)
        if nxt == r:
            return r
        r = nxt


# ---------------------------------------------------------------------------
# budget repair


def repair_utilization_reference(budgets, periods, deadlines, target, tol,
                                 max_steps=200):
    """Nudge level-1 budgets by +-1 (singly or in pairs) until the realized
    utilization is within tol of target. Pair moves matter: with a narrow
    period range no single 1/T step is fine enough. A budget vector held a
    second time fails the repair, since each step depends on the budgets
    alone and would repeat the cycle until max_steps."""
    n = len(budgets)
    held = []

    def dev():
        return sum(b / t for b, t in zip(budgets, periods)) - target

    for _ in range(max_steps):
        d = dev()
        if abs(d) <= tol:
            return
        if budgets in held:
            raise Infeasible
        held.append(list(budgets))
        best = None  # (|new_dev|, moves)
        moves = []
        for i in range(n):
            if budgets[i] < deadlines[i]:
                moves.append((i, 1))
            if budgets[i] > 1:
                moves.append((i, -1))
        for i, s in moves:
            nd = abs(d + s / periods[i])
            if best is None or nd < best[0]:
                best = (nd, [(i, s)])
        for i, si in moves:
            for j, sj in moves:
                if i == j:
                    continue
                nd = abs(d + si / periods[i] + sj / periods[j])
                if nd < best[0]:
                    best = (nd, [(i, si), (j, sj)])
        if best is None or best[0] >= abs(d):
            raise Infeasible
        for i, s in best[1]:
            budgets[i] += s
    if abs(dev()) > tol:
        raise Infeasible


# ---------------------------------------------------------------------------
# brute-force workload


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
    return prod(task.L ** n_jobs.get(task.id, 0) for task in ts.tasks)


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
    # per task, every tuple of its jobs' budgets
    per_task = [product(map(task.wcet, range(1, task.L + 1)),
                        repeat=n_jobs.get(task.id, 0)) for task in ts.tasks]
    for combo in product(*per_task):
        yield Scenario(horizon=horizon, arrivals=dict(arrivals),
                       exec_times={task.id: times for task, times
                                   in zip(ts.tasks, combo)},
                       dmcr_requests=())


# ---------------------------------------------------------------------------
# checker references


def ref_level_at(intervals, t):
    for s, e, lv in reversed(intervals):
        if t >= s:
            return lv
    return intervals[0][2]


def _suspension_starts(intervals, crit):
    """Instants, in increasing order, at which a task with criticality crit
    becomes suspended."""
    starts = []
    prev = 1
    for s, e, lv in intervals:
        if lv > crit >= prev:
            starts.append(s)
        prev = lv
    return starts


def ref_feasibility(trace, ts):
    rep = FeasibilityReport()
    intervals = compute_l_intervals(trace)
    by_id = {t.id: t for t in ts.tasks}
    releases, completes, dropped = {}, {}, {}
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
    level = 1
    for ev in trace.events:
        if ev[0] == "re_enabled":
            woken = tuple(sorted((t.id for t in ts.tasks
                                  if ev[2] <= t.L < level), key=id_key))
            if ev[3] != woken:
                rep.violations.append((
                    "WrongWokenList", None, None, f"re-enabled {list(ev[3])} "
                    f"at {ev[1]}, expected {list(woken)}"))
        if ev[0] in ("budget_exceeded", "re_enabled"):
            level = ev[2]
    for (tid, k), rel in releases.items():
        task = by_id.get(tid)
        if task is None:
            rep.violations.append(("UnknownTask", tid, k, "release of unknown task"))
            continue
        r, d = rel[1], rel[5]
        comp = completes.get((tid, k))
        starts = _suspension_starts(intervals, task.L)
        if comp is not None:
            f, rem = comp[1], comp[8]
            suspended_within = any(r < u < f for u in starts)
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
            continue
        if (tid, k) in dropped:
            rep.exempt_dropped += 1
        elif d > trace.horizon:
            rep.spanning += 1
        else:
            rep.checked += 1
            if any(r < u <= d for u in starts):
                rep.exempt_rem += 1
            else:
                rep.violations.append((
                    "DeadlineMiss", tid, k,
                    f"released at {r}, deadline {d}, never completed"))
    return rep


def ref_periodicity(trace, ts, sc):
    rep = PeriodicityReport()
    intervals = compute_l_intervals(trace)
    by_id = {t.id: t for t in ts.tasks}
    releases, arrival_drops = {}, {}
    for ev in trace.events:
        if ev[0] == "release":
            releases.setdefault((ev[3], ev[4]), []).append(ev)
        elif ev[0] == "job_dropped" and ev[5] == "suspended_arrival":
            arrival_drops.setdefault((ev[3], ev[4]), []).append(ev)
    expected = set()
    for tid, arrivals in sc.arrivals.items():
        task = by_id.get(tid)
        if task is None:
            continue
        for k, a in enumerate(arrivals, 1):
            if a > sc.horizon:
                continue
            expected.add((tid, k))
            rep.checked += 1
            rels = releases.get((tid, k), [])
            drops = arrival_drops.get((tid, k), [])
            if len(rels) + len(drops) != 1:
                rep.violations.append((
                    "ArrivalMultiplicity", tid, k,
                    f"{len(rels)} releases and {len(drops)} arrival drops"))
                continue
            lv = ref_level_at(intervals, a)
            if rels:
                ev = rels[0]
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
                ev = drops[0]
                if ev[1] != a:
                    rep.violations.append((
                        "ShiftedDrop", tid, k,
                        f"arrival drop at {ev[1]}, arrival at {a}"))
                elif task.L >= lv:
                    rep.violations.append((
                        "DropWhileEnabled", tid, k,
                        f"arrival dropped at {a} at level {lv} <= L={task.L}"))
    for key in releases:
        if key not in expected:
            rep.violations.append((
                "FabricatedRelease", key[0], key[1],
                "release without a scenario arrival"))
    for key in arrival_drops:
        if key not in expected:
            rep.violations.append((
                "FabricatedDrop", key[0], key[1],
                "arrival drop without a scenario arrival"))
    return rep


def ref_response_bounds(trace, wt, ts):
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
        span = None
        for s, e, lv in intervals:
            if s <= r < e:
                span = (s, e, lv)
                break
        if span is None or f > span[1]:
            rep.spanning += 1
            continue
        bound = wt.get((tid, span[2]))
        if bound is None or span[2] > task.L:
            rep.unscoped += 1
            continue
        rep.checked += 1
        if f - r > bound:
            rep.violations.append((
                "ResponseBoundExceeded", tid, k,
                f"response {f - r} > bound {bound} at level {span[2]}"))
    return rep


def ref_reclaim(trace, ts):
    rep = ReclaimReport()
    by_id = {t.id: t for t in ts.tasks}
    hosted, completes = {}, {}
    for ev in trace.events:
        if ev[0] == "sched":
            for slot in ev[4]:
                if slot[0] == "G":
                    key = (slot[1], slot[2])
                    hosted[key] = hosted.get(key, 0) + ev[3] - ev[1]
        elif ev[0] == "complete":
            completes[(ev[3], ev[4])] = ev
    for (tid, k), ticks in hosted.items():
        rep.checked += 1
        comp, task = completes.get((tid, k)), by_id.get(tid)
        if comp is None or task is None or not 1 <= comp[2] <= len(task.C):
            rep.violations.append((
                "UnfundedGhost", tid, k,
                f"ghost hosted {ticks} ticks but its job never completed"))
        elif comp[5] + ticks > task.wcet(comp[2]):
            rep.violations.append((
                "ReclaimOverBudget", tid, k, f"ran {comp[5]} + hosted {ticks} "
                f"> budget {task.wcet(comp[2])} at level {comp[2]}"))
    return rep
