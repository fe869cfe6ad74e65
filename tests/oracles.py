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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from mcsched.analysis import Divergent, SameTask
from mcsched.gen import Infeasible
from mcsched.model import MCTask, Scenario, TaskSet

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
    period range no single 1/T step is fine enough."""
    n = len(budgets)

    def dev():
        return sum(b / t for b, t in zip(budgets, periods)) - target

    for _ in range(max_steps):
        d = dev()
        if abs(d) <= tol:
            return
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
