"""Offline schedulability analysis for global static-priority scheduling.

Response-time bound per task and level: R_i(l) is the least fixed point of

    R = C_i(l) + floor(I_bar_i(R, l) / m)

where I_bar is the total interfering workload of the higher-priority tasks
over a window of length R, with at most m-1 of them counted with carry-in.
Per interfering task j the window workload is bounded by

    nc:  floor(D/T_j) * C_j(l) + min(C_j(l), D mod T_j)
    ci:  min(D, C_j(l) * (1 + floor(D'/T_j)) + min(C_j(l), D' mod T_j)),
         D' = max(D - C_j(l), 0)

and each bound is capped at max(D - C_i(l) + 1, 0) since a job of tau_i
cannot be delayed by more than that while still pending. The bounds are
sound upper bounds on any legal sporadic release pattern; the test suite
checks them against an exhaustive oracle rather than trusting the algebra.

workload_nc, workload_ci and interfering_bounds are the readable per-term
definition. wcrt and total_interfering evaluate the same total through one
integer kernel, _window_total, over plain (T_j, C_j(l)) pairs, with no
object per term; tests/test_analysis.py checks the kernel against a
reference fixed point built from interfering_bounds.

Priority assignment uses Audsley's lowest-priority-first greedy search. A
task can take the lowest remaining rank iff R_i(l) <= D_i for every level
l <= L_i with all other remaining tasks as higher-priority interference.
The test depends only on that set, never on its internal order, so the
verdict is independent of candidate examination order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import MCTask, TaskSet, id_key


class Divergent(Exception):
    """Fixed-point iteration exceeded the deadline; no bound exists."""


class SameTask(ValueError):
    """Interference of a task with itself was requested."""


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


def _terms(ti: MCTask, hp: list[MCTask], level: int) -> list[tuple[int, int]]:
    """(T_j, C_j(level)) for every interfering task; ti itself is rejected."""
    terms = []
    for tj in hp:
        if tj.id == ti.id:
            raise SameTask(f"task {ti.id!r} cannot interfere with itself")
        terms.append((tj.T, tj.wcet(level)))
    return terms


def _window_total(terms: list[tuple[int, int]], limit: int, delta: int,
                  k: int) -> int:
    """Kernel of the interfering-workload total over a window of length
    delta: the nc bound of every term plus the k largest ci - nc
    surcharges, each bound clipped at limit (and ci also at delta).

    Same values as interfering_bounds term by term, without building an
    object per term.
    """
    ci_limit = delta if delta < limit else limit
    total = 0
    diffs = []
    for t, c in terms:
        q = delta // t
        r = delta - q * t
        nc = q * c + (c if c < r else r)
        if nc > limit:
            nc = limit
        rest = delta - c
        if rest > 0:
            q = rest // t
            r = rest - q * t
            ci = c * (q + 1) + (c if c < r else r)
            if ci > ci_limit:
                ci = ci_limit
        else:
            ci = ci_limit if ci_limit < c else c
        total += nc
        diffs.append(ci - nc)
    if k >= len(diffs):
        return total + sum(diffs)
    if k > 0:
        diffs.sort(reverse=True)
        total += sum(diffs[:k])
    return total


def total_interfering(ti: MCTask, hp: list[MCTask], delta: int, level: int,
                      m: int, cap: bool = True) -> int:
    """Total interfering workload on ti over a window of length delta.

    Sum of non-carry-in bounds plus the m-1 largest carry-in surcharges.
    The sum of the k largest values is the same whichever of several equal
    values is taken, so the total does not depend on how ties are broken.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    terms = _terms(ti, hp, level)
    limit = max(delta - ti.wcet(level) + 1, 0) if cap else delta
    return _window_total(terms, limit, delta, m - 1)


def wcrt(ti: MCTask, hp: list[MCTask], level: int, m: int,
         cap: bool = True) -> int:
    """Least fixed point of the response-time recurrence, or Divergent.

    Iterates from C_i(level); each step is monotone, so the first repeat is
    the least fixed point. Any iterate past D_i aborts.
    """
    if level > ti.L:
        raise ValueError(f"level {level} above task criticality {ti.L}")
    c = ti.wcet(level)
    terms = _terms(ti, hp, level)
    d = ti.D
    r = c
    while True:
        if r > d:
            raise Divergent(f"task {ti.id!r} level {level}: iterate {r} > D={d}")
        limit = r - c + 1 if cap else r  # r >= c throughout
        nxt = c + _window_total(terms, limit, r, m - 1) // m
        if nxt == r:
            return r
        r = nxt


@dataclass(frozen=True)
class PriorityAssignment:
    """Total priority order; rank 1 is the highest priority."""

    ranks: dict  # task id -> rank

    def rank(self, tid) -> int:
        return self.ranks[tid]

    def ordered_ids(self) -> list:
        return [tid for tid, _ in sorted(self.ranks.items(), key=lambda kv: kv[1])]

    def covers(self, ts: TaskSet) -> bool:
        ids = {t.id for t in ts.tasks}
        return set(self.ranks) == ids and sorted(self.ranks.values()) == list(range(1, len(ids) + 1))


@dataclass(frozen=True)
class AnalysisResult:
    schedulable: bool
    assignment: PriorityAssignment | None
    # (task id, level) -> response-time bound, for every level <= L_i
    wcrt_table: dict
    # ids of the tasks none of which could take the lowest remaining rank
    witness: tuple = field(default_factory=tuple)


def _passes_at_lowest(task: MCTask, others: list[MCTask], m: int,
                      cap: bool) -> dict | None:
    """R values for every level of `task` at the lowest priority among
    `others`, or None if any level fails."""
    rs: dict = {}
    for level in range(1, task.L + 1):
        try:
            r = wcrt(task, others, level, m, cap)
        except Divergent:
            return None
        if r > task.D:
            return None
        rs[(task.id, level)] = r
    return rs


def opa_assign(ts: TaskSet, m: int, cap: bool = True,
               order: list | None = None) -> AnalysisResult:
    """Audsley's optimal priority assignment.

    Assigns ranks from lowest (n) to highest (1). At each step the first
    candidate, in `order` (default: ascending task id), whose response-time
    bound fits its deadline at every level against all still-unassigned
    tasks, takes the rank. If none fits, the remaining set is the
    unschedulability witness.
    """
    if order is None:
        order = sorted((t.id for t in ts.tasks), key=id_key)
    by_id = {t.id: t for t in ts.tasks}
    remaining = list(order)
    ranks: dict = {}
    table: dict = {}
    for rank in range(len(remaining), 0, -1):
        placed = None
        for tid in remaining:
            task = by_id[tid]
            others = [by_id[o] for o in remaining if o != tid]
            rs = _passes_at_lowest(task, others, m, cap)
            if rs is not None:
                placed = tid
                ranks[tid] = rank
                table.update(rs)
                break
        if placed is None:
            witness = tuple(sorted(remaining, key=id_key))
            return AnalysisResult(schedulable=False, assignment=None,
                                  wcrt_table={}, witness=witness)
        remaining.remove(placed)
    return AnalysisResult(schedulable=True,
                          assignment=PriorityAssignment(ranks=ranks),
                          wcrt_table=table)


def uniprocessor_rta(task: MCTask, hp: list[MCTask], level: int) -> int:
    """Classical m=1 response-time recurrence R = C + sum ceil(R/T_j) C_j.

    Kept as an independent reference for the m=1 degeneration check.
    """
    c = task.wcet(level)
    r = c
    while True:
        if r > task.D:
            raise Divergent(f"uniproc: {r} > D={task.D}")
        nxt = c + sum(-(-r // tj.T) * tj.wcet(level) for tj in hp)
        if nxt == r:
            return r
        r = nxt
