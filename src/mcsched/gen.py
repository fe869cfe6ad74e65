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
scored by (sign, period), so a step costs O(n + K^2) for K distinct such
pairs rather than O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
    fails when nothing lowers |d|. A move changes d by s/T, so moves are
    grouped by (sign s, period T) and each ordered pair of groups is scored
    once: a step costs O(n + K^2) for K distinct (sign, period) groups.
    """
    n = len(budgets)

    def dev():
        return sum(b / t for b, t in zip(budgets, periods)) - target

    for _ in range(REPAIR_STEPS):
        d = dev()
        if abs(d) <= tol:
            return
        moves = []  # (scan position, task, sign)
        for i in range(n):
            if budgets[i] < deadlines[i]:
                moves.append((len(moves), i, 1))
            if budgets[i] > 1:
                moves.append((len(moves), i, -1))
        if not moves:
            raise Infeasible
        groups = {}
        for move in moves:
            groups.setdefault((move[2], periods[move[1]]), []).append(move)
        # the float sums of a scan over the moves, (d + s_a/T_a) + s_b/T_b;
        # a tuple (|d'|, move, move) is least for the first minimum in scan
        # order, as a move's tuple starts with its scan position
        steps = [(s / t, group) for (s, t), group in groups.items()]
        single = min((abs(d + x), group[0]) for x, group in steps)
        pair = (math.inf,)
        for xa, ga in steps:
            da = d + xa
            for xb, gb in steps:
                nd = abs(da + xb)
                if nd > pair[0]:
                    continue
                a, b = ga[0], gb[0]
                if a[1] == b[1]:  # one task twice: next pair in scan order
                    if len(gb) > 1:
                        b = gb[1]
                    elif len(ga) > 1:
                        a = ga[1]
                    else:
                        continue
                pair = min(pair, (nd, a, b))
        best = pair if pair[0] < single[0] else single
        if best[0] >= abs(d):
            raise Infeasible
        for _, i, s in best[1:]:
            budgets[i] += s
    if abs(dev()) > tol:
        raise Infeasible


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
