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

Every fixed point is that of one entry of a row of (T_j, C_j(l)) terms
against the rest of the row: wcrt puts ti last in a row after hp. It runs
through one routine, _response, on the window totals of _RankTotals, whose
bounds come from one integer kernel, _bounds, with no object per term. The
readable per-term definition of the bounds above and a reference fixed
point built from it live in tests/oracles.py and tests/test_analysis.py,
which check the package against them.

Closed-form first iterate. With the cap and C_i(l) >= 1 the first iterate
is R1 = C_i(l) + floor(#{j : C_j(l) >= 1} / m). Proof: on the window
D = C_i(l) the cap D - C_i(l) + 1 is 1, and a window of length C_i(l) >= 1
holds at least one tick of every task with C_j(l) >= 1, so each such term
is exactly 1 with no carry-in surcharge and each zero-budget term is 0.
Without the cap, or with C_i(l) = 0, the first iterate goes through the
kernel like the rest.

Priority assignment uses Audsley's lowest-priority-first greedy search. A
task can take the lowest remaining rank iff R_i(l) <= D_i for every level
l <= L_i with all other remaining tasks as higher-priority interference.
The test depends only on that set, never on its internal order, so the
verdict is independent of candidate examination order (the
OPA-compatibility of Davis & Burns, RTS 2011). It also means that every
candidate at one rank sees the same row, the remaining tasks, less its
own entry. So the search keeps one row of terms per level over the
remaining tasks, evaluates each window (level, limit, delta) with one
kernel pass over the whole row, shared by the rank's candidates, and lets
each candidate take its own total from that window exactly, by
subtracting its own nc and its place among the m - 1 largest surcharges
(_RankTotals). There is no second kernel pass and no copy of the row per
candidate. A placed task leaves every row, but the windows outlive the
rank: the kernel bounds each term on its own, so a window from an earlier
rank, with the entries placed since then deleted, is exactly the window
over the shorter row. A window keeps its surcharges in ascending order and
running values of its sums and cut, so catching it up deletes each placed
entry by bisection and moves the sums by that entry alone, with no sort
and no sum over the row. Each window goes through the kernel, and is
sorted, at most once per analysis. dm_fallback is this loop with the
candidate fixed, placing the deadline-monotonic order from last to first.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .model import LevelOutOfRange, MCTask, TaskSet, id_key


class Divergent(Exception):
    """Fixed-point iteration exceeded the deadline; no bound exists."""


class SameTask(ValueError):
    """Interference of a task with itself was requested."""


def _bounds(terms: list[tuple[int, int]], limit: int,
            delta: int) -> tuple[list[int], list[int]]:
    """Kernel of the window bounds: per term, in order, the nc bound and
    the ci - nc surcharge over a window of length delta, each bound clipped
    at limit (and ci also at delta).

    Same values as the per-term definition, without building an object per
    term.
    """
    ci_limit = delta if delta < limit else limit
    ncs, diffs = [], []
    for t, c in terms:
        if delta < t:  # no whole period fits: the quotient is 0
            nc = c if c < delta else delta
        else:
            q = delta // t
            r = delta - q * t
            nc = q * c + (c if c < r else r)
        if nc > limit:
            nc = limit
        rest = delta - c
        if rest <= 0:
            ci = ci_limit if ci_limit < c else c
        else:
            if rest < t:  # likewise
                ci = c + (c if c < rest else rest)
            else:
                q = rest // t
                r = rest - q * t
                ci = c * (q + 1) + (c if c < r else r)
            if ci > ci_limit:
                ci = ci_limit
        ncs.append(nc)
        diffs.append(ci - nc)
    return ncs, diffs


def _response(total, busy: int, c: int, d: int, m: int, cap: bool) -> int:
    """Least fixed point of R = c + floor(total(limit, R) / m), or the first
    iterate past d; total(limit, delta) is the interfering total over a
    window of length delta with bounds clipped at limit. Iterates from c;
    each step is monotone, so the first repeat is the least fixed point,
    and an iterate below the one before it means a faulty total, which
    fails here rather than cycle. With the cap and c >= 1 the first
    iterate is c + busy // m, busy counting the interfering terms with
    C_j >= 1."""
    r = c
    if cap and 0 < c <= d:
        r = c + busy // m
        if r == c:
            return r
    while r <= d:
        nxt = c + total(r - c + 1 if cap else r, r) // m
        if nxt <= r:
            if nxt < r:  # kept under python -O, unlike an assert
                raise AssertionError(f"response iterate fell from {r} to {nxt}")
            return r
        r = nxt
    return r


def _rows(tasks: list[MCTask]) -> list[list[tuple[int, int]]]:
    """Term table: for each level l, (T_j, C_j(l)) of every task in order;
    a budget vector shorter than the table stays constant past its end."""
    levels = max((t.L for t in tasks), default=0)
    return [[(t.T, t.C[lv] if lv < len(t.C) else t.C[-1]) for t in tasks]
            for lv in range(levels)]


class _RankTotals:
    """The window totals of every fixed point, over its rows: per level,
    the (T_j, C_j(l)) terms of the tasks not yet placed, in the order of the
    candidate list. Refuses m < 1.

    A candidate's test sees its row without its own entry. Every window
    (level, limit, delta) is evaluated by one kernel pass over the whole
    row, and each candidate derives its own total from it exactly. With
    the row's n surcharges in ascending order A, k = m - 1 and the top
    block A[max(n - m, 0):] holding the k + 1 largest, let S be the block's
    sum and X = A[max(n - m, 0)] its least, the cut. Leaving out an entry
    with surcharge own removes one of the k + 1 largest if own >= X, and
    otherwise leaves the k largest, summing to S - X, in place; when
    n <= k + 1 every surcharge counts and own >= X. So the candidate's
    total is

        sum of nc - own nc + S - max(own, X).

    A new window sorts its surcharges once and keeps, beside its nc and
    surcharge lists in row order, the order A and running values of the nc
    sum, S and X. Placing a task logs its position and keeps the windows.
    A window records how much of the log it has absorbed. One that is
    behind deletes the newer logged positions in placement order, since
    each is a position in the row as it stood at that placement. For each
    it subtracts the entry's nc from the nc sum and deletes its surcharge s
    from A at p = bisect_left(A, s), the leftmost copy of s. With
    b = n - m - 1 the position just below the top block: if p <= b, the
    copy deleted lies below the block, and the block keeps the same values,
    even when it holds other copies of s; if p > b, the block loses one
    copy of s and A[b], the largest value below it, moves in, so S gains
    A[b] - s. A row of at most m entries (b < 0) counts every surcharge, so
    S only loses s. X is then read off A again, as the block's least, or
    A[0] in a row of at most m entries. No sum is taken anew, and as each
    term's bounds depend on that term alone, the result is exactly the
    kernel over the shorter row.
    """

    def __init__(self, rows: list[list[tuple[int, int]]], m: int):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = m
        self.rows = rows
        # per level, the entries with C_j >= 1
        self.busy = [sum(1 for _, c in row if c > 0) for row in rows]
        self.placed = []  # row positions taken out, in placement order
        # (level, limit, delta) -> (len(placed) absorbed, ncs, diffs,
        # diffs ascending, nc sum, top sum, cut)
        self.windows = {}

    def total(self, lv: int, i: int, limit: int, delta: int) -> int:
        """_response's total(limit, delta) for entry i of row lv."""
        window = self.windows.get((lv, limit, delta))
        if window is None or window[0] != len(self.placed):
            m = self.m
            if window is None:
                ncs, diffs = _bounds(self.rows[lv], limit, delta)
                order = sorted(diffs)
                nc_sum, top = sum(ncs), sum(order[-m:])  # the k + 1 largest
            else:
                seen, ncs, diffs, order, nc_sum, top, _ = window
                for j in self.placed[seen:]:
                    nc_sum -= ncs.pop(j)
                    diff = diffs.pop(j)
                    p = bisect_left(order, diff)
                    below = len(order) - m - 1  # just below the top block
                    if p > below:
                        top -= diff
                        if below >= 0:
                            top += order[below]
                    del order[p]
            window = self.windows[lv, limit, delta] = (
                len(self.placed), ncs, diffs, order, nc_sum, top,
                order[-m] if m <= len(order) else order[0])
        _, ncs, diffs, _, nc_sum, top, cut = window
        diff = diffs[i]
        return nc_sum - ncs[i] + top - (diff if diff > cut else cut)

    def response(self, lv: int, i: int, d: int, cap: bool) -> int:
        """_response of entry i of row lv against the rest of the row."""
        c = self.rows[lv][i][1]
        return _response(partial(self.total, lv, i), self.busy[lv] - (c > 0),
                         c, d, self.m, cap)

    def place(self, i: int) -> None:
        """Take entry i out of every row, as its task takes the rank."""
        self.placed.append(i)
        for lv, row in enumerate(self.rows):
            self.busy[lv] -= row.pop(i)[1] > 0


def wcrt(ti: MCTask, hp: list[MCTask], level: int, m: int,
         cap: bool = True) -> int:
    """Least fixed point of ti's recurrence at level against the
    higher-priority tasks hp, or Divergent when an iterate passes D_i."""
    if level > ti.L:
        raise ValueError(f"level {level} above task criticality {ti.L}")
    if level < 1:
        raise LevelOutOfRange(f"level {level} not in [1, {ti.L}]")
    if any(tj.id == ti.id for tj in hp):
        raise SameTask(f"task {ti.id!r} cannot interfere with itself")
    r = _RankTotals(_rows([*hp, ti]), m).response(level - 1, len(hp), ti.D, cap)
    if r > ti.D:
        raise Divergent(f"task {ti.id!r} level {level}: iterate {r} > D={ti.D}")
    return r


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


def opa_assign(ts: TaskSet, m: int, cap: bool = True,
               order: list | None = None) -> AnalysisResult:
    """Audsley's optimal priority assignment.

    Assigns ranks from lowest (n) to highest (1). At each step the first
    candidate, in `order` (default: ascending task id), whose response-time
    bound fits its deadline at every level against all still-unassigned
    tasks, takes the rank. If none fits, the remaining set is the
    unschedulability witness. `order`, when given, must list every task id
    exactly once; anything else raises ValueError.
    """
    by_id = {t.id: t for t in ts.tasks}
    if order is None:
        order = sorted((t.id for t in ts.tasks), key=id_key)
    else:
        counts = Counter(order)
        faults = {"missing": [tid for tid in by_id if tid not in counts],
                  "repeated": [tid for tid, n in counts.items()
                               if n > 1 and tid in by_id],
                  "unknown": [tid for tid in counts if tid not in by_id]}
        if any(faults.values()):
            raise ValueError("order is not a permutation of the task ids: "
                             + "; ".join(f"{what} {ids!r}"
                                         for what, ids in faults.items() if ids))
    remaining = [by_id[tid] for tid in order]
    totals = _RankTotals(_rows(remaining), m)
    ranks, table = {}, {}
    for rank in range(len(remaining), 0, -1):
        for i, task in enumerate(remaining):
            rs = {}
            for lv in range(task.L):
                r = totals.response(lv, i, task.D, cap)
                if r > task.D:
                    break
                rs[(task.id, lv + 1)] = r
            else:  # every level fits at the lowest remaining rank
                break
        else:
            witness = tuple(sorted((t.id for t in remaining), key=id_key))
            return AnalysisResult(schedulable=False, assignment=None,
                                  wcrt_table={}, witness=witness)
        ranks[task.id] = rank
        table.update(rs)
        del remaining[i]
        totals.place(i)
    return AnalysisResult(schedulable=True,
                          assignment=PriorityAssignment(ranks=ranks),
                          wcrt_table=table)


def dm_fallback(ts: TaskSet, m: int,
                cap: bool = True) -> tuple[PriorityAssignment, dict]:
    """Deadline-monotonic ranks with per-level bounds clamped to deadlines,
    for forced simulation of sets the analysis rejects."""
    order = sorted(ts.tasks, key=lambda t: (t.D, id_key(t.id)))
    totals = _RankTotals(_rows(order), m)
    wt = {}
    for i in range(len(order) - 1, -1, -1):
        task = order[i]
        for lv in range(task.L):
            wt[task.id, lv + 1] = min(totals.response(lv, i, task.D, cap),
                                      task.D)
        totals.place(i)
    return PriorityAssignment({t.id: i + 1 for i, t in enumerate(order)}), wt
