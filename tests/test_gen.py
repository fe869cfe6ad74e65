import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsched.analysis import opa_assign
from mcsched.gen import (UUNIFAST_TRIES, GenParams, Infeasible, SplitMix64,
                         _repair_utilization, child_seed, gen_scenario,
                         gen_taskset, uunifast, uunifast_discard)
from mcsched.model import validate_scenario, validate_taskset
from mcsched.sim import ProtocolConfig, simulate
from oracles import repair_utilization_reference


MASK = (1 << 64) - 1


def reference_splitmix64(seed, n):
    # independent transcription of the published mixing constants
    s = seed & MASK
    out = []
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) & MASK
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_matches_published_vector():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


@given(st.integers(min_value=0, max_value=MASK))
@settings(max_examples=50)
def test_splitmix64_matches_reference_for_any_seed(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(4)] == reference_splitmix64(seed, 4)


def test_random_stays_in_unit_interval():
    rng = SplitMix64(7)
    for _ in range(1000):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_randint_covers_inclusive_range():
    rng = SplitMix64(11)
    seen = {rng.randint(3, 6) for _ in range(400)}
    assert seen == {3, 4, 5, 6}
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_child_seed_decorrelates_streams():
    seeds = {child_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert child_seed(42, 0) != child_seed(43, 0)
    a = SplitMix64(child_seed(42, 0))
    b = SplitMix64(child_seed(42, 1))
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_uunifast_sums_to_target():
    rng = SplitMix64(3)
    utils = uunifast(rng, 8, 1.6)
    assert abs(sum(utils) - 1.6) < 1e-9
    assert all(u > 0 for u in utils)


@pytest.mark.parametrize("n", [0, -1])
def test_uunifast_refuses_no_tasks(n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        uunifast(SplitMix64(3), n, 0.5)


def test_uunifast_discard_respects_cap():
    rng = SplitMix64(5)
    for _ in range(20):
        utils = uunifast_discard(rng, 4, 1.9, cap=0.75)
        assert all(u <= 0.75 for u in utils)
        assert abs(sum(utils) - 1.9) < 1e-9


def test_uunifast_discard_gives_up_when_no_split_fits_the_cap():
    # two shares of 1.9 cannot both stay below 0.75
    with pytest.raises(Infeasible, match=re.escape(
            f"no per-task utilization below 0.75 in {UUNIFAST_TRIES} draws")):
        uunifast_discard(SplitMix64(1), 2, 1.9, cap=0.75)


def test_taskset_generation_hits_utilization_window():
    params = GenParams(n_tasks=6, levels=3, total_util=1.2, m=2)
    ts, platform = gen_taskset(params, seed=2024)
    assert platform.m == 2
    validate_taskset(ts)
    total = sum(t.C[0] / t.T for t in ts.tasks)
    assert 1.19 <= total <= 1.21
    assert len(ts.tasks) == 6
    assert ts.levels == 3
    for t in ts.tasks:
        assert 8 <= t.T <= 24
        assert t.D <= t.T
        assert 1 <= t.L <= 3


def test_taskset_generation_is_deterministic():
    params = GenParams(n_tasks=5, levels=2, total_util=0.8)
    ts1, _ = gen_taskset(params, seed=99)
    ts2, _ = gen_taskset(params, seed=99)
    assert ts1 == ts2
    ts3, _ = gen_taskset(params, seed=100)
    assert ts1 != ts3


def test_taskset_generation_inflates_budgets_up_to_criticality():
    params = GenParams(n_tasks=6, levels=3, total_util=1.0, m=2,
                       ensure_overrunnable=True)
    ts, _ = gen_taskset(params, seed=7)
    assert any(t.L >= 2 and t.C[1] > t.C[0] for t in ts.tasks)
    for t in ts.tasks:
        for lv in range(1, 3):
            assert t.C[lv] >= t.C[lv - 1]
        assert t.C[t.L - 1] <= t.D


def test_unreachable_utilization_raises():
    params = GenParams(n_tasks=1, levels=1, total_util=0.3,
                       period_range=(7, 7), util_tolerance=1e-9,
                       max_attempts=8)
    with pytest.raises(Infeasible):
        gen_taskset(params, seed=1)


@st.composite
def repair_inputs(draw):
    """(budgets, periods, deadlines, target, tol). Periods come from a pool
    of one to three values, so moves tie, or from a wide range. Deadlines
    of 1 and budgets at 1 or at D leave a task one move or none. The target
    lies near the utilization of other budgets, so most repairs can reach
    it."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        pool = draw(st.lists(st.integers(4, 30), min_size=1, max_size=3))
        periods = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        periods = draw(st.lists(st.integers(4, 1000), min_size=n, max_size=n))
    deadlines = [draw(st.just(1) | st.integers(1, t)) for t in periods]
    budgets = [draw(st.sampled_from((1, d)) | st.integers(1, d))
               for d in deadlines]
    goal = [draw(st.integers(1, d)) for d in deadlines]
    target = (sum(g / t for g, t in zip(goal, periods))
              + draw(st.floats(-0.05, 0.05)))
    tol = draw(st.sampled_from((0.0, 0.001, 0.01, 0.05)))
    return budgets, periods, deadlines, target, tol


def _repaired(repair, budgets, periods, deadlines, target, tol):
    """(outcome, budgets) after the repair; a failed one stops mid-way."""
    budgets = list(budgets)
    try:
        repair(budgets, periods, deadlines, target, tol)
    except Infeasible:
        return Infeasible, budgets
    return None, budgets


@given(repair_inputs())
@settings(max_examples=300, derandomize=True)
def test_repair_matches_reference_scan(case):
    assert (_repaired(_repair_utilization, *case)
            == _repaired(repair_utilization_reference, *case))


@st.composite
def large_repair_inputs(draw):
    """(budgets, periods, deadlines, target, tol) in the shape of a bench
    opa-large draw: 32 to 64 tasks over a pool of 8 to 17 periods, so most
    (sign, period) groups hold several tasks, and the first moves of two
    groups often share a task. Deadlines lie in [ceil(0.8 T), T] as in
    gen_taskset. The budgets start a few moves from ones whose utilization
    lies near the target, some at 1 or at D."""
    n = draw(st.integers(32, 64))
    pool = draw(st.lists(st.integers(4, 40), min_size=8, max_size=17,
                         unique=True))
    periods = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    # one list of raw draws, reduced into each task's range
    raw = draw(st.lists(st.integers(0, 1 << 16), min_size=2 * n,
                        max_size=2 * n))
    deadlines = [t - r % (t // 5 + 1) for t, r in zip(periods, raw)]
    goal = [1 + r % d for d, r in zip(deadlines, raw[n:])]
    budgets = list(goal)
    # a few moves off, or clamped to 1 or to D
    shifts = st.sampled_from((-40, 40)) | st.integers(-3, 3)
    for i, shift in draw(st.lists(st.tuples(st.integers(0, n - 1), shifts),
                                  max_size=12)):
        budgets[i] = min(max(1, budgets[i] + shift), deadlines[i])
    target = (sum(g / t for g, t in zip(goal, periods))
              + draw(st.floats(-0.05, 0.05)))
    tol = draw(st.sampled_from((0.0, 0.001, 0.01)))
    return budgets, periods, deadlines, target, tol


@given(large_repair_inputs())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_repair_matches_reference_scan_on_large_sets(case):
    assert (_repaired(_repair_utilization, *case)
            == _repaired(repair_utilization_reference, *case))


# (budgets, periods, deadlines, target, tol) by the rule of equal moves each
# pins; the generated inputs above reach none of them
REPAIR_ORDER_CASES = {
    # a task that rejoins a move group takes its place in scan order, and
    # the group's first move is later taken
    "rejoin_in_scan_order": ([10, 1, 1, 15, 1], [10, 11, 10, 15, 15],
                             [10, 1, 1, 15, 2], 1.72, 0.005),
    # the first moves of two groups are one task's: the pair takes the
    # second group's second move before the first group's
    "same_task_second_move_of_gb_first": ([1, 1, 1, 7], [21, 19, 7, 21],
                                          [4, 1, 4, 8], 1.05, 0.005),
    # +1 and -1 on one period, whose rounded sum lowers |d|: the pair moves
    # two tasks, never one task up and back
    "no_pair_of_one_task": ([2, 2], [35, 35], [7, 2], 0.111, 0.0),
    # a group's nearest partner on one side of zero is a one-move group of
    # its own task: the next partner on that side is tried
    "next_partner_right_of_zero": ([1, 2, 12, 8, 1], [3, 3, 12, 8, 8],
                                   [1, 2, 12, 8, 2], 2.8749999999999987, 0.0),
    "next_partner_left_of_zero": ([2, 3, 1, 1], [8, 8, 3, 12], [2, 4, 2, 2],
                                  31 / 24, 0.0),
    # two pairs of groups give the same float |d'|: the least moves win
    "tied_pairs_keep_the_least": ([1, 13, 8, 8], [20, 15, 15, 12],
                                  [2, 14, 8, 8], 2.1, 0.005),
}


@pytest.mark.parametrize("case", REPAIR_ORDER_CASES.values(),
                         ids=REPAIR_ORDER_CASES)
def test_repair_order_of_equal_moves_matches_reference(case):
    assert (_repaired(_repair_utilization, *case)
            == _repaired(repair_utilization_reference, *case))


@st.composite
def gen_params(draw):
    """GenParams over every field's range, with total utilizations up to
    0.6 per task and eight attempts."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    lo, levels = draw(st.integers(4, 60)), draw(st.integers(1, 4))
    return GenParams(
        n_tasks=n, levels=levels,
        total_util=draw(st.floats(0.01, min(m, 0.6 * n))), m=m,
        period_range=(lo, draw(st.integers(lo, 1000))),
        deadline_factor=draw(st.floats(0.01, 1.0)),
        inflation=draw(st.floats(1.0, 4.0)),
        util_tolerance=draw(st.sampled_from((0.01, 0.05))),
        max_attempts=8,
        ensure_overrunnable=levels > 1 and draw(st.booleans()))


@given(gen_params(), st.integers(0, MASK))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_generated_sets_pass_validation(params, seed):
    """gen_taskset builds its sets valid by construction and does not
    validate them itself."""
    try:
        ts, platform = gen_taskset(params, seed)
    except Infeasible:
        return
    assert validate_taskset(ts) is ts
    assert (len(ts), ts.levels, platform.m) == (params.n_tasks,
                                                params.levels, params.m)


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(n_tasks=0, levels=2, total_util=0.5)
    with pytest.raises(ValueError):
        GenParams(n_tasks=2, levels=0, total_util=0.5)
    with pytest.raises(ValueError):
        GenParams(n_tasks=2, levels=2, total_util=1.5, m=1)
    with pytest.raises(ValueError):
        GenParams(n_tasks=2, levels=2, total_util=0.5, period_range=(2, 24))
    with pytest.raises(ValueError):
        GenParams(n_tasks=2, levels=2, total_util=0.5, max_attempts=0)
    for factor in (0.0, 1.01):
        with pytest.raises(ValueError, match=r"^deadline_factor must be in "):
            GenParams(n_tasks=2, levels=2, total_util=0.5,
                      deadline_factor=factor)
    for inflation in (0.99, float("nan")):
        with pytest.raises(ValueError, match="^inflation must be >= 1$"):
            GenParams(n_tasks=2, levels=2, total_util=0.5, inflation=inflation)
    for tolerance in (-0.01, float("nan")):
        with pytest.raises(ValueError, match="^util_tolerance must be >= 0$"):
            GenParams(n_tasks=2, levels=2, total_util=0.5,
                      util_tolerance=tolerance)


@pytest.mark.parametrize("inflation", [1e308, float("inf")])
def test_unbounded_inflation_clamps_budgets_to_the_deadline(inflation):
    params = GenParams(n_tasks=6, levels=3, total_util=1.0, m=2,
                       inflation=inflation, ensure_overrunnable=True)
    ts, _ = gen_taskset(params, seed=7)
    assert any(t.L >= 2 for t in ts.tasks)
    for t in ts.tasks:
        assert t.C[1:t.L] == (t.D,) * (t.L - 1)


@pytest.mark.parametrize("field, value", [
    ("n_tasks", 3.5), ("n_tasks", True), ("levels", 2.0), ("m", 2.0),
    ("m", None), ("max_attempts", "64"), ("period_range", (8.5, 12)),
    ("period_range", (8, True)), ("period_range", (8, 12, 16)),
    ("period_range", 12), ("total_util", True), ("total_util", "0.5"),
    ("deadline_factor", None), ("inflation", [2]), ("util_tolerance", False),
    ("ensure_overrunnable", 1),
])
def test_params_require_json_types(field, value):
    # JSON-style types: a bool is no number and a whole float no integer
    with pytest.raises(TypeError, match=f"^{field} must be of type "):
        GenParams(**{"n_tasks": 2, "levels": 2, "total_util": 0.5,
                     field: value})


def test_params_accept_json_numbers_and_lists():
    params = GenParams(n_tasks=2, levels=2, total_util=1, m=2,
                       period_range=[8, 12], deadline_factor=1,
                       inflation=2, util_tolerance=0.02,
                       ensure_overrunnable=True)
    ts, platform = gen_taskset(params, seed=3)
    assert len(ts.tasks) == 2 and platform.m == 2
    assert all(8 <= t.T <= 12 for t in ts.tasks)


def small_set(seed=13, overrunnable=True):
    params = GenParams(n_tasks=4, levels=2, total_util=0.7,
                       period_range=(8, 16),
                       ensure_overrunnable=overrunnable)
    return gen_taskset(params, seed)


def test_scenario_uniform_model_bounds():
    ts, _ = small_set()
    sc = gen_scenario(ts, 100, seed=5)
    validate_scenario(sc, ts)
    for task in ts.tasks:
        times = sc.arrivals[task.id]
        assert times[0] < task.T
        for prev, nxt in zip(times, times[1:]):
            assert nxt - prev >= task.T
        for c in sc.exec_times[task.id]:
            assert 1 <= c <= task.wcet(task.L)


def test_scenario_basic_model_draws_budget_values():
    ts, _ = small_set()
    sc = gen_scenario(ts, 150, seed=6, exec_model="basic")
    for task in ts.tasks:
        budgets = {task.wcet(lv) for lv in range(1, task.L + 1)}
        for c in sc.exec_times[task.id]:
            assert c in budgets


def test_scenario_overrun_model_produces_budget_trips():
    ts, platform = small_set(seed=1)
    res = opa_assign(ts, platform.m)
    assert res.schedulable
    sc = gen_scenario(ts, 200, seed=9, exec_model="overrun", overrun_prob=1.0)
    trace = simulate(ts, platform, res.assignment, res.wcrt_table, sc,
                     ProtocolConfig(protocol="naive"))
    assert len(trace.kind("budget_exceeded")) >= 1


def test_scenario_overrun_then_calm_has_single_first_job_overrun():
    ts, _ = small_set(seed=31)
    sc = gen_scenario(ts, 200, seed=12, exec_model="overrun-then-calm")
    over = []
    for task in ts.tasks:
        cs = sc.exec_times[task.id]
        for k, c in enumerate(cs):
            if c > task.C[0]:
                over.append((task.id, k, c))
    assert len(over) == 1
    tid, k, c = over[0]
    victim = {t.id: t for t in ts.tasks}[tid]
    assert k == 0
    assert c == victim.C[1]


def test_scenario_generation_is_deterministic():
    ts, _ = small_set()
    sc1 = gen_scenario(ts, 120, seed=77)
    sc2 = gen_scenario(ts, 120, seed=77)
    assert sc1 == sc2
    sc3 = gen_scenario(ts, 120, seed=78)
    assert sc3 != sc1


def test_scenario_dmcr_plan_is_carried_through():
    ts, _ = small_set()
    sc = gen_scenario(ts, 120, seed=4, dmcr_plan=((30, 1),))
    assert sc.dmcr_requests == ((30, 1),)


@pytest.mark.parametrize("entry", [(10.9, 1), (10, 1.0), (True, 1),
                                   (10, True), ("5", 1), (10, "1"),
                                   5, (5,), (5, 1, 2), "51"])
def test_scenario_dmcr_plan_entries_must_be_integers(entry):
    ts, _ = small_set()
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        gen_scenario(ts, 50, seed=3, dmcr_plan=[(30, 1), entry])


def test_scenario_zero_horizon_is_empty():
    ts, _ = small_set()
    sc = gen_scenario(ts, 0, seed=1)
    assert all(not v for v in sc.arrivals.values())
    assert all(not v for v in sc.exec_times.values())


@pytest.mark.parametrize("kwargs, message", [
    ({"horizon": 50, "exec_model": "worst"}, "unknown exec model 'worst'"),
    ({"horizon": -1}, "horizon must be non-negative"),
])
def test_scenario_refuses_bad_arguments(kwargs, message):
    ts, _ = small_set()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen_scenario(ts, seed=1, **kwargs)
