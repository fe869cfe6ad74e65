import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsched import analysis
from mcsched.analysis import (AnalysisResult, Divergent, PriorityAssignment,
                              SameTask, _RankTotals, _response, dm_fallback,
                              opa_assign, wcrt)
from mcsched.gen import GenParams, gen_taskset
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


def kernel_total(terms, limit, delta, k):
    """The package kernel's nc bounds of terms plus its k largest ci - nc
    surcharges, summed here rather than by the package."""
    ncs, diffs = analysis._bounds(terms, limit, delta)
    return sum(ncs) + sum(sorted(diffs, reverse=True)[:k])


def total_interfering(ti, hp, delta, level, m, cap=True):
    """Total interfering workload on ti over a window of length delta from
    the package kernel: the sum of non-carry-in bounds plus the m-1 largest
    carry-in surcharges."""
    limit = max(delta - ti.wcet(level) + 1, 0) if cap else delta
    return kernel_total([(tj.T, tj.wcet(level)) for tj in hp], limit, delta,
                        m - 1)


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
    # level 0 would otherwise read the last row of terms without a word
    t = lo(1, T=10, D=10, C=3)
    for hp in ([], [lo(2, T=5, D=5, C=1)]):
        with pytest.raises(ValueError, match="level 2 above task criticality 1"):
            wcrt(t, hp, 2, m=1)
        with pytest.raises(ValueError, match=r"level 0 not in \[1, 1\]"):
            wcrt(t, hp, 0, m=1)


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


@st.composite
def search_row(draw):
    """A row of (T, C) terms from a small pool, so that equal terms repeat
    and surcharges tie; budgets from 0 and above T, which give negative
    surcharges under the cap; k from 0 to past the row's length; the
    positions of entries to place one at a time; a window length; and a
    second one with the steps at which it is asked for."""
    pool = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 8)),
                         min_size=1, max_size=4))
    terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    k = draw(st.integers(0, len(terms) + 1))
    placed = [draw(st.integers(0, len(terms) - 1 - j))
              for j in range(draw(st.integers(0, len(terms) - 1)))]
    asked = draw(st.lists(st.booleans(), min_size=len(placed) + 1,
                          max_size=len(placed) + 1))
    return (terms, k, placed, draw(st.integers(0, 30)),
            draw(st.integers(0, 30)), asked)


@given(case=search_row())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rank_total_equals_kernel_without_the_entry(case):
    """Each candidate's total derived from the whole row's window equals the
    kernel run over the row without that entry, before and after tasks are
    placed, with the cap's limit and without it. The second window length
    is asked for only at some steps, so that one catch-up takes out several
    placed entries, each at its position in the row when it was placed."""
    terms, k, placed, delta, other, asked = case
    totals = _RankTotals([list(terms)], k + 1)

    def check(delta):
        assert totals.busy == [sum(1 for _, c in terms if c > 0)]
        for i, (_, c) in enumerate(terms):
            rest = terms[:i] + terms[i + 1:]
            for limit in (max(delta - c + 1, 0), delta):
                assert (totals.total(0, i, limit, delta)
                        == kernel_total(rest, limit, delta, k))

    for step, ask in enumerate(asked):
        if step:
            totals.place(placed[step - 1])
            del terms[placed[step - 1]]
        check(delta)
        if ask:
            check(other)


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


def reference_dm(ts, m, cap, rt=wcrt):
    """Deadline-monotonic ranks, and rt for every task and level against a
    fresh list of the tasks ranked above it, clamped to the deadline."""
    order = sorted(ts.tasks, key=lambda t: (t.D, id_key(t.id)))
    wt = {}
    for i, task in enumerate(order):
        for lv in range(1, task.L + 1):
            try:
                wt[(task.id, lv)] = rt(task, order[:i], lv, m, cap)
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
        dm = dm_fallback(ts, m, cap)
        assert dm == reference_dm(ts, m, cap)
        assert dm == reference_dm(ts, m, cap, rt=reference_wcrt)


def test_each_window_goes_through_the_kernel_once(monkeypatch):
    """Windows outlive the ranks: over one whole analysis no (row, limit,
    delta) goes through the kernel twice, and the result is still that of
    the candidate-by-candidate search."""
    ts, platform = gen_taskset(GenParams(n_tasks=64, levels=2,
                                         total_util=0.40 * 16, m=16), 0)
    keys = []
    kernel = analysis._bounds

    def counted(terms, limit, delta):
        keys.append((id(terms), limit, delta))
        return kernel(terms, limit, delta)

    for cap in (True, False):
        keys.clear()
        monkeypatch.setattr(analysis, "_bounds", counted)
        got = opa_assign(ts, platform.m, cap)
        monkeypatch.undo()
        assert got.schedulable and keys
        assert len(set(keys)) == len(keys)
        assert got == reference_opa(ts, platform.m, cap)


@pytest.mark.parametrize("order, faults", [
    ([1, 1, 2], "missing [3]; repeated [1]"),
    ([1, 2], "missing [3]"),
    ([1, 2, 3, 2, 2], "repeated [2]"),
    ([3, 2, 1, 7], "unknown [7]"),
    ([1, 2, "3"], "missing [3]; unknown ['3']"),
])
def test_opa_order_must_be_a_permutation(order, faults):
    with pytest.raises(ValueError) as err:
        opa_assign(two_level_set(), m=1, order=order)
    assert str(err.value) == ("order is not a permutation of the task ids: "
                              + faults)


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
    # wcrt pads task 1's budget at level 2 the same way
    padded = MCTask(id=1, T=10, D=10, L=1, C=(2, 2))
    assert (wcrt(ts.tasks[1], [ts.tasks[0]], 2, m=1)
            == wcrt(ts.tasks[1], [padded], 2, m=1) == 5)


@pytest.mark.parametrize("cap", [True, False])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_response_routine_over_deadline_budget(cap, m):
    """C_i > D_i: the shared routine stops at the first iterate, C_i itself,
    past the deadline, so wcrt raises Divergent naming it; opa_assign leaves
    the task unplaced and the DM fallback clamps its bound to D_i."""
    ti = MCTask(id="x", T=10, D=4, L=2, C=(3, 5))
    hp = [MCTask(id=1, T=6, D=6, L=1, C=(1, 1)),
          MCTask(id=2, T=9, D=9, L=1, C=(0, 0))]
    assert wcrt(ti, hp, 1, m, cap) == reference_wcrt(ti, hp, 1, m, cap)
    with pytest.raises(Divergent, match="iterate 5 > D=4"):
        wcrt(ti, hp, 2, m, cap)
    ts = TaskSet(tasks=(ti, *hp), levels=2)
    res = opa_assign(ts, m, cap)
    assert res == reference_opa(ts, m, cap, rt=reference_wcrt)
    assert "x" in res.witness
    # x has the shortest deadline, so it ranks first and sees no interference
    dm = dm_fallback(ts, m, cap)
    assert dm == reference_dm(ts, m, cap, rt=reference_wcrt)
    assert (dm[1][("x", 1)], dm[1][("x", 2)]) == (3, 4)


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize("entry", [
    lambda ts, m: opa_assign(ts, m),
    lambda ts, m: dm_fallback(ts, m),
    lambda ts, m: wcrt(ts.tasks[2], list(ts.tasks[:2]), 1, m),
], ids=["opa_assign", "dm_fallback", "wcrt"])
def test_entry_points_refuse_m_below_one(entry, m):
    with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
        entry(two_level_set(), m)


def test_response_fails_fast_on_a_falling_iterate():
    """A total that is not monotone in the window makes the iterates cycle
    (1, 6, 3, 6, ...); the routine fails at the first fall instead."""
    calls = []

    def total(limit, delta):
        calls.append(delta)
        if len(calls) > 100:
            raise RuntimeError("the iterates never settled")
        return 2 if delta == 6 else 5

    with pytest.raises(AssertionError, match="fell from 6 to 3"):
        _response(total, 0, 1, 100, 1, False)
    assert calls == [1, 6]


def test_falling_iterate_fails_under_python_O():
    """The check is no assert, so python -O, which strips asserts, keeps it:
    the test above passes there too."""
    paths = [str(Path(analysis.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = ("import test_analysis\n"
            "test_analysis.test_response_fails_fast_on_a_falling_iterate()\n"
            "print('raised')")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "raised\n"), proc.stderr
