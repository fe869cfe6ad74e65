import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsched.analysis import (AnalysisResult, Divergent, PriorityAssignment,
                              SameTask, _response, _terms, _window_total,
                              dm_fallback, opa_assign, wcrt)
from mcsched.model import MCTask, TaskSet, id_key
from oracles import (interfering_bounds, uniprocessor_rta, workload_ci,
                     workload_nc)


def lo(tid, T, D, C):
    # single-level task, the common case in these tests
    return MCTask(id=tid, T=T, D=D, L=1, C=(C,))


# ---------------------------------------------------------------------------
# workload bounds: values frozen from the brute-force release-pattern oracle


def test_workload_nc_frozen_values():
    t = lo(1, T=10, D=10, C=3)
    assert workload_nc(t, 25, 1) == 9
    assert workload_nc(t, 2, 1) == 2
    assert workload_nc(t, 0, 1) == 0


def test_workload_ci_frozen_values():
    t = lo(1, T=10, D=10, C=3)
    assert workload_ci(t, 12, 1) == 6
    assert workload_ci(t, 2, 1) == 2
    assert workload_ci(t, 0, 1) == 0


def test_workload_rejects_negative_window():
    t = lo(1, T=10, D=10, C=3)
    with pytest.raises(ValueError):
        workload_nc(t, -1, 1)


def test_interfering_bounds_cap_frozen_values():
    tj = lo(1, T=10, D=10, C=3)
    ti = lo(2, T=30, D=30, C=4)
    b8 = interfering_bounds(tj, ti, 8, 1)
    assert (b8.nc, b8.ci, b8.diff) == (3, 5, 2)
    b4 = interfering_bounds(tj, ti, 4, 1)
    assert (b4.nc, b4.ci, b4.diff) == (1, 1, 0)


def test_interfering_bounds_same_task_rejected():
    t = lo(1, T=10, D=10, C=3)
    with pytest.raises(SameTask):
        interfering_bounds(t, t, 5, 1)


def total_interfering(ti, hp, delta, level, m, cap=True):
    """Total interfering workload on ti over a window of length delta, as
    the package's kernel `_window_total` computes it: the sum of
    non-carry-in bounds plus the m-1 largest carry-in surcharges."""
    limit = max(delta - ti.wcet(level) + 1, 0) if cap else delta
    return _window_total(_terms(ti, hp, level), limit, delta, m - 1)


def test_total_interference_adds_top_diffs():
    # two identical interferers on m=2: nc=4 each plus one carry-in diff of 1
    ti = lo(9, T=30, D=30, C=4)
    hp = [lo(1, T=10, D=10, C=4), lo(2, T=10, D=10, C=4)]
    assert total_interfering(ti, hp, 8, 1, m=2) == 9


def test_total_interference_uncapped_exceeds_capped():
    ti = lo(9, T=30, D=30, C=4)
    hp = [lo(1, T=10, D=10, C=4), lo(2, T=10, D=10, C=4)]
    capped = total_interfering(ti, hp, 8, 1, m=2, cap=True)
    uncapped = total_interfering(ti, hp, 8, 1, m=2, cap=False)
    assert uncapped >= capped


small_task = st.builds(
    lambda tid, T, c_frac, d_frac: MCTask(
        id=tid, T=T,
        D=max(max(1, int(T * c_frac)), int(T * d_frac)),
        L=1, C=(max(1, int(T * c_frac)),)),
    tid=st.integers(1, 99), T=st.integers(2, 20),
    c_frac=st.floats(0.05, 1.0), d_frac=st.floats(0.5, 1.0))


@given(task=small_task, delta=st.integers(0, 60), level=st.just(1))
def test_workload_monotone_in_window(task, delta, level):
    assert workload_nc(task, delta, level) <= workload_nc(task, delta + 1, level)
    assert workload_ci(task, delta, level) <= workload_ci(task, delta + 1, level)


@given(task=small_task, delta=st.integers(0, 60))
def test_carry_in_dominates_no_carry_in(task, delta):
    assert workload_ci(task, delta, 1) >= workload_nc(task, delta, 1)


@given(task=small_task, delta=st.integers(0, 60))
def test_workload_bounded_by_window(task, delta):
    assert workload_nc(task, delta, 1) <= delta
    assert workload_ci(task, delta, 1) <= delta


@given(delta=st.integers(0, 60), levels=st.integers(1, 4),
       data=st.data())
def test_workload_monotone_in_level(delta, levels, data):
    c = sorted(data.draw(st.lists(st.integers(1, 8), min_size=levels,
                                  max_size=levels)))
    t = MCTask(id=1, T=20, D=max(20, c[-1]), L=levels, C=tuple(c))
    for lv in range(1, levels):
        assert workload_nc(t, delta, lv) <= workload_nc(t, delta, lv + 1)
        assert workload_ci(t, delta, lv) <= workload_ci(t, delta, lv + 1)


# ---------------------------------------------------------------------------
# response times


def test_wcrt_two_task_uniprocessor_example():
    t1 = lo(1, T=10, D=10, C=2)
    t2 = lo(2, T=10, D=10, C=3)
    assert wcrt(t2, [t1], 1, m=1) == 5
    assert uniprocessor_rta(t2, [t1], 1) == 5


def test_wcrt_three_identical_tasks_two_processors():
    ts = [lo(i, T=10, D=10, C=4) for i in (1, 2, 3)]
    assert wcrt(ts[2], ts[:2], 1, m=2) == 8


def test_wcrt_divergent_two_heavy_on_one_processor():
    t1 = lo(1, T=10, D=10, C=6)
    t2 = lo(2, T=10, D=10, C=6)
    with pytest.raises(Divergent):
        wcrt(t2, [t1], 1, m=1)


def test_wcrt_no_interference_is_wcet():
    t = MCTask(id=1, T=10, D=10, L=2, C=(2, 7))
    assert wcrt(t, [], 1, m=1) == 2
    assert wcrt(t, [], 2, m=1) == 7


def test_wcrt_level_above_criticality_rejected():
    t = lo(1, T=10, D=10, C=3)
    with pytest.raises(ValueError):
        wcrt(t, [], 2, m=1)


UNIPROC_CASES = [
    # (task under analysis, higher-priority tasks, expected R)
    (lo(9, T=40, D=40, C=3),
     [lo(1, T=3, D=3, C=1), lo(2, T=5, D=5, C=2)], 14),
    (lo(9, T=12, D=12, C=1), [lo(1, T=4, D=4, C=2)], 3),
    (lo(9, T=10, D=10, C=3), [lo(1, T=10, D=10, C=2)], 5),
]


@pytest.mark.parametrize("task,hp,expected", UNIPROC_CASES)
def test_wcrt_degenerates_to_classical_rta(task, hp, expected):
    assert uniprocessor_rta(task, hp, 1) == expected
    assert wcrt(task, hp, 1, m=1) == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_wcrt_m1_never_exceeds_classical(data):
    """The capped multiprocessor bound specialized to m=1 is at least as
    tight as the classical recurrence whenever both converge."""
    n = data.draw(st.integers(1, 3))
    hp = []
    for i in range(n):
        T = data.draw(st.integers(2, 12))
        C = data.draw(st.integers(1, max(1, T // 2)))
        hp.append(lo(i + 1, T=T, D=T, C=C))
    ti = lo(9, T=50, D=50, C=data.draw(st.integers(1, 6)))
    try:
        classical = uniprocessor_rta(ti, hp, 1)
    except Divergent:
        return
    ours = wcrt(ti, hp, 1, m=1)
    assert ours <= classical


# ---------------------------------------------------------------------------
# the integer kernel against the per-term definition


def reference_total(ti, hp, delta, level, m, cap):
    """Interfering total built from interfering_bounds, adding the m-1
    largest surcharges in (-diff, task id) order."""
    bounds = [(tj, interfering_bounds(tj, ti, delta, level, cap)) for tj in hp]
    total = sum(b.nc for _, b in bounds)
    by_diff = sorted(bounds, key=lambda tb: (-tb[1].diff, id_key(tb[0].id)))
    return total + sum(b.diff for _, b in by_diff[:max(m - 1, 0)])


def reference_wcrt(ti, hp, level, m, cap):
    c = ti.wcet(level)
    r = c
    while True:
        if r > ti.D:
            raise Divergent(f"reference: {r} > D={ti.D}")
        nxt = c + reference_total(ti, hp, r, level, m, cap) // m
        if nxt == r:
            return r
        r = nxt


def _outcome(f, *args):
    try:
        return f(*args)
    except Divergent:
        return Divergent


@st.composite
def analysis_case(draw):
    """A task under analysis, its interferers (int and str ids mixed), a
    level and m from 1 to n+1. Light enough that about half the fixed
    points converge."""
    levels = draw(st.integers(1, 4))
    ids = draw(st.lists(st.one_of(st.integers(0, 9),
                                  st.sampled_from(["0", "1", "a", "b"])),
                        min_size=2, max_size=10, unique=True))
    tasks = []
    for tid in ids:
        T = draw(st.integers(2, 40))
        D = draw(st.integers(max(1, T // 2), T))
        L = draw(st.integers(1, levels))
        c = sorted(draw(st.lists(st.integers(1, max(1, D // 3)),
                                 min_size=L, max_size=L)))
        tasks.append(MCTask(id=tid, T=T, D=D, L=L,
                            C=tuple(c + [c[-1]] * (levels - L))))
    ti, hp = tasks[0], tasks[1:]
    level = draw(st.integers(1, ti.L))
    m = draw(st.integers(1, len(hp) + 1))
    return ti, hp, level, m


@given(case=analysis_case(), delta=st.integers(0, 80))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_kernel_matches_reference(case, delta):
    ti, hp, level, m = case
    for cap in (True, False):
        assert (_outcome(wcrt, ti, hp, level, m, cap)
                == _outcome(reference_wcrt, ti, hp, level, m, cap))
        assert (total_interfering(ti, hp, delta, level, m, cap)
                == reference_total(ti, hp, delta, level, m, cap))
        with pytest.raises(SameTask):
            wcrt(ti, hp + [ti], level, m, cap)


# ---------------------------------------------------------------------------
# priority assignment


def two_level_set():
    tasks = (
        MCTask(id=1, T=10, D=8, L=2, C=(2, 4)),
        MCTask(id=2, T=12, D=12, L=1, C=(3, 3)),
        MCTask(id=3, T=20, D=18, L=2, C=(4, 6)),
    )
    return TaskSet(tasks=tasks, levels=2)


def test_opa_schedulable_set_has_full_table():
    ts = two_level_set()
    res = opa_assign(ts, m=1)
    assert res.schedulable
    assert res.assignment.covers(ts)
    for task in ts.tasks:
        for lv in range(1, task.L + 1):
            r = res.wcrt_table[(task.id, lv)]
            assert task.wcet(lv) <= r <= task.D


def test_opa_unschedulable_witness():
    tasks = (lo(1, T=10, D=10, C=6), lo(2, T=10, D=10, C=6))
    ts = TaskSet(tasks=tasks, levels=1)
    res = opa_assign(ts, m=1)
    assert not res.schedulable
    assert res.assignment is None
    assert res.witness == (1, 2)


def test_opa_verdict_ignores_candidate_order():
    ts = two_level_set()
    ids = [t.id for t in ts.tasks]
    orders = [ids, ids[::-1], [2, 3, 1], [3, 1, 2]]
    verdicts = {opa_assign(ts, m=1, order=o).schedulable for o in orders}
    assert verdicts == {True}


def test_opa_all_levels_tested_independently():
    # schedulable at level 1 but the level-2 budget alone exceeds the
    # deadline headroom under any assignment
    tasks = (MCTask(id=1, T=10, D=10, L=2, C=(2, 9)),
             MCTask(id=2, T=10, D=10, L=2, C=(2, 9)))
    ts = TaskSet(tasks=tasks, levels=2)
    res = opa_assign(ts, m=1)
    assert not res.schedulable


def test_opa_single_task():
    ts = TaskSet(tasks=(lo(1, T=5, D=5, C=5),), levels=1)
    res = opa_assign(ts, m=1)
    assert res.schedulable
    assert res.wcrt_table[(1, 1)] == 5


def reference_opa(ts, m, cap, order=None, rt=wcrt):
    """The plain Audsley search: rt for every candidate and level against
    a fresh list of the other remaining tasks."""
    if order is None:
        order = sorted((t.id for t in ts.tasks), key=id_key)
    by_id = {t.id: t for t in ts.tasks}
    remaining = list(order)
    ranks, table = {}, {}
    for rank in range(len(remaining), 0, -1):
        for tid in remaining:
            task = by_id[tid]
            others = [by_id[o] for o in remaining if o != tid]
            rs = {}
            for level in range(1, task.L + 1):
                try:
                    rs[(tid, level)] = rt(task, others, level, m, cap)
                except Divergent:
                    break
            else:
                ranks[tid] = rank
                table.update(rs)
                remaining.remove(tid)
                break
        else:
            return AnalysisResult(schedulable=False, assignment=None,
                                  wcrt_table={},
                                  witness=tuple(sorted(remaining, key=id_key)))
    return AnalysisResult(schedulable=True,
                          assignment=PriorityAssignment(ranks=ranks),
                          wcrt_table=table)


def reference_dm(ts, m, cap):
    order = sorted(ts.tasks, key=lambda t: (t.D, id_key(t.id)))
    wt = {}
    for i, task in enumerate(order):
        for lv in range(1, task.L + 1):
            try:
                wt[(task.id, lv)] = wcrt(task, order[:i], lv, m, cap)
            except Divergent:
                wt[(task.id, lv)] = task.D
    return PriorityAssignment({t.id: i + 1 for i, t in enumerate(order)}), wt


@st.composite
def opa_case(draw):
    """A task set of 1 to 7 tasks with int and str ids, 1 to 4 levels and
    budgets from 0 (which MCTask accepts and validate_taskset does not), m
    from 1 to n+1 and either the default or a drawn candidate order."""
    levels = draw(st.integers(1, 4))
    ids = draw(st.lists(st.one_of(st.integers(0, 9),
                                  st.sampled_from(["0", "1", "a", "b"])),
                        min_size=1, max_size=7, unique=True))
    tasks = []
    for tid in ids:
        T = draw(st.integers(2, 30))
        D = draw(st.integers(max(1, T // 2), T))
        L = draw(st.integers(1, levels))
        c = sorted(draw(st.lists(st.integers(0, max(1, D // 2)),
                                 min_size=L, max_size=L)))
        tasks.append(MCTask(id=tid, T=T, D=D, L=L,
                            C=tuple(c + [c[-1]] * (levels - L))))
    ts = TaskSet(tasks=tuple(tasks), levels=levels)
    m = draw(st.integers(1, len(ids) + 1))
    order = draw(st.one_of(st.none(), st.permutations(ids)))
    return ts, m, order


@given(case=opa_case())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_opa_matches_candidate_by_candidate_search(case):
    ts, m, order = case
    for cap in (True, False):
        got = opa_assign(ts, m, cap, order)
        assert got == reference_opa(ts, m, cap, order)
        assert got == reference_opa(ts, m, cap, order, rt=reference_wcrt)
        assert dm_fallback(ts, m, cap) == reference_dm(ts, m, cap)


def test_zero_budget_interferer_adds_nothing():
    # C = D: one extra tick in the first iterate would miss the deadline
    ti = lo(1, T=10, D=5, C=5)
    idle = lo(2, T=4, D=4, C=0)
    for cap in (True, False):
        assert wcrt(ti, [idle], 1, m=1, cap=cap) == 5
        res = opa_assign(TaskSet(tasks=(ti, idle), levels=1), 1, cap)
        assert res.schedulable
        assert res.wcrt_table == {(1, 1): 5, (2, 1): 0}


def test_opa_accepts_unpadded_budget_vectors():
    # hand-built: task 1's C stops at its own level although the set has 2
    ts = TaskSet(tasks=(lo(1, T=10, D=10, C=2),
                        MCTask(id=2, T=10, D=10, L=2, C=(2, 3))), levels=2)
    res = opa_assign(ts, m=1)
    assert res == reference_opa(ts, 1, True)
    assert res.wcrt_table == {(1, 1): 4, (2, 1): 2, (2, 2): 3}


@pytest.mark.parametrize("cap", [True, False])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_response_routine_over_deadline_budget(cap, m):
    """C_i > D_i: wcrt raises Divergent and the shared routine returns the
    first iterate, C_i itself, past the deadline; opa_assign and the DM
    fallback agree."""
    ti = MCTask(id="x", T=10, D=4, L=2, C=(3, 5))
    hp = [MCTask(id=1, T=6, D=6, L=1, C=(1, 1)),
          MCTask(id=2, T=9, D=9, L=1, C=(0, 0))]
    assert wcrt(ti, hp, 1, m, cap) == _response(
        _terms(ti, hp, 1), 3, 4, m, cap)
    with pytest.raises(Divergent, match="iterate 5 > D=4"):
        wcrt(ti, hp, 2, m, cap)
    assert _response(_terms(ti, hp, 2), 5, 4, m, cap) == 5
    ts = TaskSet(tasks=(ti, *hp), levels=2)
    res = opa_assign(ts, m, cap)
    assert res == reference_opa(ts, m, cap)
    assert "x" in res.witness
    assert dm_fallback(ts, m, cap)[1][("x", 2)] == 4
