"""Random task-set and scenario generation with a portable PRNG.

The generator has to produce identical output for identical seeds on every
platform and Python version, so it uses an explicit splitmix64 stream rather
than the stdlib Mersenne twister (whose float paths changed across versions)
or a heavyweight dependency. Utilizations come from UUniFast with a discard
loop for the per-task cap; integer budgets are then repaired with small
local moves until the realized utilization sits within 0.01 of the target.
Each repair step takes the best single +-1 budget move, or the best pair of
moves on two different tasks; ties go to the first move in scan order, and
a step fails when nothing lowers the deviation |d| from the target. Moves are
kept in (sign, period) groups sorted by the change each makes to d, and one
two-pointer sweep over the non-empty groups finds the best pair: a step
costs O(n), where a scan of every pair of the K groups cost O(n + K^2).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from operator import truediv

from .model import MCTask, Platform, Scenario, TaskSet, validate_scenario

MASK64 = (1 << 64) - 1
UUNIFAST_TRIES = 1000  # uunifast_discard's draws before it gives up
REPAIR_STEPS = 200  # _repair_utilization's steps before it gives up


class Infeasible(ValueError):
    """No valid task set found for the requested parameters within the
    attempt budget. Within gen_taskset, one failed attempt raises it too,
    and the next attempt follows."""


class SplitMix64:
    """splitmix64 generator: state advances by the golden-gamma constant and
    each output is finalized with two xor-multiply rounds. 64-bit wrapping
    arithmetic throughout."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        # 53-bit mantissa, uniform in [0, 1)
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, a: int, b: int) -> int:
        """Uniform-ish integer in [a, b]; the modulo bias is far below any
        effect the experiments could resolve."""
        if b < a:
            raise ValueError(f"empty range [{a}, {b}]")
        return a + self.next_u64() % (b - a + 1)


def child_seed(seed: int, index: int) -> int:
    """Derive an independent stream seed; one finalization round keeps
    consecutive indices uncorrelated."""
    s = (seed ^ ((index + 1) * 0xD1342543DE82EF95)) & MASK64
    return SplitMix64(s).next_u64()


def uunifast(rng: SplitMix64, n: int, total: float) -> list[float]:
    """Unbiased utilization split of `total` over n tasks."""
    if n < 1:
        raise ValueError("n must be positive")
    utils = []
    remaining = total
    for i in range(1, n):
        nxt = remaining * rng.random() ** (1.0 / (n - i))
        utils.append(remaining - nxt)
        remaining = nxt
    utils.append(remaining)
    return utils


def uunifast_discard(rng: SplitMix64, n: int, total: float,
                     cap: float = 1.0) -> list[float]:
    """UUniFast, redrawn until every share is below cap (multiprocessor
    totals would otherwise produce tasks no single processor can hold)."""
    for _ in range(UUNIFAST_TRIES):
        utils = uunifast(rng, n, total)
        if all(u < cap for u in utils):
            return utils
    raise Infeasible(
        f"no per-task utilization below {cap} in {UUNIFAST_TRIES} draws")


@dataclass(frozen=True)
class GenParams:
    n_tasks: int
    levels: int
    total_util: float
    m: int = 1
    period_range: tuple[int, int] = (8, 24)
    deadline_factor: float = 0.8  # D drawn from [ceil(f*T), T]
    inflation: float = 1.5  # per-level budget growth, clamped to D
    util_tolerance: float = 0.01
    max_attempts: int = 64
    ensure_overrunnable: bool = False  # require some task able to trip level 1

    # the JSON types a field of each annotation takes (a bool is no number)
    _TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
              "tuple[int, int]": (tuple, list)}

    def __post_init__(self):
        for f in fields(self):
            value, types = getattr(self, f.name), self._TYPES[f.type]
            if type(value) not in types or (types[0] is tuple and (
                    len(value) != 2 or {type(x) for x in value} != {int})):
                raise TypeError(f"{f.name} must be of type {f.type}, "
                                f"got {value!r}")
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be positive")
        if self.levels < 1:
            raise ValueError("levels must be positive")
        if self.m < 1:
            raise ValueError("m must be positive")
        if not 0 < self.total_util <= self.m:
            raise ValueError("total_util must be in (0, m]")
        lo, hi = self.period_range
        if not 4 <= lo <= hi <= 1000:
            raise ValueError("period_range must lie within [4, 1000]")
        if not 0 < self.deadline_factor <= 1:
            raise ValueError("deadline_factor must be in (0, 1]")
        # `not x >= ...` refuses NaN as well
        if not self.inflation >= 1:
            raise ValueError("inflation must be >= 1")
        if not self.util_tolerance >= 0:
            raise ValueError("util_tolerance must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")


def gen_taskset(params: GenParams, seed: int) -> tuple[TaskSet, Platform]:
    """Generate a valid task set hitting the utilization target.

    Each attempt gets its own child stream, so a failed repair does not
    perturb the draws of the next attempt.
    """
    for attempt in range(params.max_attempts):
        rng = SplitMix64(child_seed(seed, attempt))
        try:
            return _attempt_taskset(params, rng)
        except Infeasible:
            continue
    raise Infeasible(
        f"no valid task set for {params} in {params.max_attempts} attempts")


def _attempt_taskset(params: GenParams, rng: SplitMix64) -> tuple[TaskSet, Platform]:
    n = params.n_tasks
    utils = uunifast_discard(rng, n, params.total_util, cap=0.999)
    lo, hi = params.period_range
    periods = [rng.randint(lo, hi) for _ in range(n)]
    deadlines = [rng.randint(max(1, math.ceil(params.deadline_factor * t)), t)
                 for t in periods]
    crits = [rng.randint(1, params.levels) for _ in range(n)]
    budgets = [min(max(1, round(u * t)), d)
               for u, t, d in zip(utils, periods, deadlines)]

    _repair_utilization(budgets, periods, deadlines,
                        params.total_util, params.util_tolerance)

    tasks = []
    for i in range(n):
        c = [budgets[i]]
        for _ in range(2, crits[i] + 1):
            # clamped before the ceil, so an infinite product never reaches
            # it; D is an integer, so the budget is the same
            c.append(math.ceil(min(c[-1] * params.inflation, deadlines[i])))
        c.extend([c[-1]] * (params.levels - crits[i]))
        tasks.append(MCTask(id=i + 1, T=periods[i], D=deadlines[i],
                            L=crits[i], C=tuple(c)))

    if params.ensure_overrunnable:
        if not any(t.L >= 2 and t.C[1] > t.C[0] for t in tasks):
            raise Infeasible
    return (TaskSet(tasks=tuple(tasks), levels=params.levels),
            Platform(m=params.m))


def _repair_utilization(budgets, periods, deadlines, target, tol):
    """Nudge level-1 budgets by +-1 until the realized utilization is within
    tol of target. Pair moves matter: with a narrow period range no single
    1/T step is fine enough.

    Each step takes the best single move, or the best pair of moves on two
    different tasks when it lowers |d| strictly more, where d is the
    utilization minus target. Moves are scanned by task, +1 before -1, and
    ties go to the first single move or the first pair in that order. A step
    fails when nothing lowers |d|. A step is a function of the budgets
    alone, so one that brings back a budget vector the repair already held
    starts a cycle that would run until REPAIR_STEPS: the repair fails
    there.

    A move changes d by x = s/T, so moves are kept in (sign s, period T)
    groups, and a step updates only the one or two tasks it moved. The K
    non-empty groups are sorted by x. For a first group a, the float sum
    (d + x_a) + x_b only grows with x_b, and distinct groups give distinct
    sums: their x differ by at least 1/T_max^2, far more than a rounding step
    of these sums. So only the nearest valid partner on each side of zero
    can be a's best. As x_a grows, the first partner whose sum is >= 0 moves
    left, so one two-pointer sweep finds every group's best. A step costs
    O(n): one sum for d and one pass over at most 2n groups, where a scan of
    the K^2 pairs of groups cost O(n + K^2).
    """
    d = sum(map(truediv, budgets, periods)) - target
    if abs(d) <= tol:
        return
    # a move is its scan position: 2i for +1 on task i, 2i + 1 for -1.
    # up[T] and down[T] hold the moves of tasks of period T that can take
    # them now, in scan order.
    up = {t: [] for t in periods}
    down = {t: [] for t in periods}
    for i, (b, t, dl) in enumerate(zip(budgets, periods, deadlines)):
        if b < dl:
            up[t].append(2 * i)
        if b > 1:
            down[t].append(2 * i + 1)
    order = sorted([(1 / t, g) for t, g in up.items()]
                   + [(-1 / t, g) for t, g in down.items()])
    held = {tuple(budgets)}

    for _ in range(REPAIR_STEPS):
        # solo: the task of a one-move group, -1 for others. Two one-move
        # groups of one task (a group with itself included) give no pair;
        # any other two do.
        xs, gs, solo = [], [], []
        for x, group in order:
            if group:
                xs.append(x)
                gs.append(group)
                solo.append(group[0] >> 1 if len(group) == 1 else -1)
        if not xs:
            raise Infeasible
        k = len(xs)
        # a tuple (|d'|, move, move) is least for the first minimum in scan
        # order, as a move is its scan position. d + x >= 0 just when
        # x >= -d: a float sum keeps the sign of the exact one.
        q = bisect_left(xs, -d)
        single = (d + xs[q], gs[q][0]) if q < k else (math.inf,)
        if q and -(d + xs[q - 1]) <= single[0]:
            single = min(single, (-(d + xs[q - 1]), gs[q - 1][0]))
        pair = (math.inf,)
        j = k  # the first partner whose sum with a is >= 0
        for xa, sa, ga in zip(xs, solo, gs):
            da = d + xa
            while j and da + xs[j - 1] >= 0:
                j -= 1
            q = j
            while q < k and solo[q] == sa >= 0:
                q += 1
            if q < k:
                nd = da + xs[q]
                if nd <= pair[0]:
                    pair = min(pair, (nd, *_pair_moves(ga, gs[q])))
            q = j - 1
            while q >= 0 and solo[q] == sa >= 0:
                q -= 1
            if q >= 0:
                nd = -(da + xs[q])
                if nd <= pair[0]:
                    pair = min(pair, (nd, *_pair_moves(ga, gs[q])))
        best = pair if pair[0] < single[0] else single
        if best[0] >= abs(d):
            raise Infeasible
        for move in best[1:]:
            i = move >> 1
            budgets[i] += -1 if move & 1 else 1
            _place(up[periods[i]], 2 * i, budgets[i] < deadlines[i])
            _place(down[periods[i]], 2 * i + 1, budgets[i] > 1)
        d = sum(map(truediv, budgets, periods)) - target
        if abs(d) <= tol:
            return
        if (vector := tuple(budgets)) in held:
            raise Infeasible
        held.add(vector)
    raise Infeasible


def _pair_moves(ga, gb):
    """The first pair of moves in scan order, one from ga and one from gb,
    on two different tasks."""
    a, b = ga[0], gb[0]
    if a >> 1 == b >> 1:
        if len(gb) > 1:
            return a, gb[1]
        return ga[1], b
    return a, b


def _place(group, move, member):
    """Put move into the sorted group, or take it out, as member says."""
    if member != (move in group):
        if member:
            insort(group, move)
        else:
            group.remove(move)


EXEC_MODELS = ("uniform", "basic", "overrun", "overrun-then-calm")


def gen_scenario(ts: TaskSet, horizon: int, seed: int,
                 exec_model: str = "uniform",
                 overrun_prob: float = 0.25,
                 dmcr_plan=()) -> Scenario:
    """Generate one scenario for a task set.

    Arrival gaps stretch each period by up to half of it, so runs are
    sporadic rather than strictly periodic. Execution models:

    uniform            c uniform in [1, C(L)]; overruns happen by chance
    basic              c equals one of the task's per-level budgets
    overrun            overrun-capable tasks exceed a lower budget with
                       probability overrun_prob, everyone else stays under C(1)
    overrun-then-calm  one victim trips level 2 on its first job, all later
                       jobs stay under C(1) so a decrease chain can qualify

    dmcr_plan holds the level-decrease requests as (time, level) pairs of
    integers; any other entry raises ValueError.
    """
    if exec_model not in EXEC_MODELS:
        raise ValueError(f"unknown exec model {exec_model!r}")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = SplitMix64(child_seed(seed, 0))
    arrivals = {}
    for task in ts.tasks:
        times = []
        t = rng.randint(0, task.T - 1)
        while t < horizon:
            times.append(t)
            t += task.T + rng.randint(0, task.T // 2)
        arrivals[task.id] = tuple(times)

    victim = None
    if exec_model == "overrun-then-calm":
        capable = [t for t in ts.tasks
                   if t.L >= 2 and t.C[1] > t.C[0] and arrivals[t.id]]
        if capable:
            victim = max(capable, key=lambda t: (t.L, -t.T))

    exec_times = {}
    for task in ts.tasks:
        cs = []
        for k in range(len(arrivals[task.id])):
            if exec_model == "uniform":
                cs.append(rng.randint(1, task.wcet(task.L)))
            elif exec_model == "basic":
                cs.append(task.wcet(rng.randint(1, task.L)))
            elif exec_model == "overrun":
                can = task.L >= 2 and task.C[task.L - 1] > task.C[0]
                if can and rng.random() < overrun_prob:
                    lv = rng.randint(2, task.L)
                    cs.append(task.wcet(lv))
                else:
                    cs.append(rng.randint(1, task.C[0]))
            else:  # overrun-then-calm
                if victim is not None and task.id == victim.id and k == 0:
                    cs.append(task.C[1])
                else:
                    cs.append(rng.randint(1, task.C[0]))
        exec_times[task.id] = tuple(cs)

    requests = []
    for entry in dmcr_plan:
        pair = tuple(entry) if isinstance(entry, (tuple, list)) else ()
        if len(pair) != 2 or not all(type(x) is int for x in pair):
            raise ValueError(f"dmcr_plan entry {entry!r} is not a (time, "
                             "level) pair of integers")  # a bool is no int
        requests.append(pair)
    sc = Scenario(horizon=horizon, arrivals=arrivals, exec_times=exec_times,
                  dmcr_requests=tuple(requests))
    validate_scenario(sc, ts)
    return sc
