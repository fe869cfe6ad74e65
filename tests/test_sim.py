import json
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcsched import sim
from mcsched.analysis import PriorityAssignment, opa_assign
from mcsched.gen import (GenParams, Infeasible, SplitMix64, child_seed,
                         gen_scenario, gen_taskset)
from mcsched.model import MCTask, Platform, Scenario, TaskSet
from mcsched.sim import (EVENT_FIELDS, META_FIELDS, PROTOCOLS,
                         InconsistentInputs, ModelViolation,
                         ProtocolConfig, simulate, trace_from_jsonl)
from mcsched.verify import compute_l_intervals
from slices import run_slice, schedulable_sets
from test_acceptance import _sweep_params, _sweep_scenarios


def run(tasks, levels, m, ranks, wt, horizon, arrivals, execs, reqs=(),
        protocol="drop", rem_order="crit-edf"):
    ts = TaskSet(tasks=tuple(tasks), levels=levels)
    pa = PriorityAssignment(ranks=ranks)
    sc = Scenario(horizon=horizon, arrivals=arrivals, exec_times=execs,
                  dmcr_requests=tuple(reqs))
    cfg = ProtocolConfig(protocol=protocol, rem_order=rem_order)
    return simulate(ts, Platform(m=m), pa, wt, sc, cfg)


def slots_of(trace):
    return [(e[1], e[3], e[4]) for e in trace.kind("sched")]


# ---------------------------------------------------------------------------
# dispatching


def test_two_task_hand_schedule():
    t1 = MCTask(id=1, T=10, D=10, L=1, C=(2,))
    t2 = MCTask(id=2, T=10, D=10, L=1, C=(3,))
    trace = run([t1, t2], 1, 1, {1: 1, 2: 2}, {(1, 1): 2, (2, 1): 5},
                10, {1: (0,), 2: (0,)}, {1: (2,), 2: (3,)})
    comps = trace.kind("complete")
    assert [(e[3], e[1]) for e in comps] == [(1, 2), (2, 5)]
    assert slots_of(trace) == [
        (0, 2, (("J", 1, 1),)),
        (2, 5, (("J", 2, 1),)),
        (5, 10, ()),
    ]


def test_msm_two_processors_three_tasks():
    tasks = [MCTask(id=i, T=10, D=10, L=1, C=(4,)) for i in (1, 2, 3)]
    trace = run(tasks, 1, 2, {1: 1, 2: 2, 3: 3},
                {(1, 1): 4, (2, 1): 4, (3, 1): 8},
                10, {1: (0,), 2: (0,), 3: (0,)}, {1: (4,), 2: (4,), 3: (4,)})
    assert slots_of(trace) == [
        (0, 4, (("J", 1, 1), ("J", 2, 1))),
        (4, 8, (("J", 3, 1),)),
        (8, 10, ()),
    ]
    # the rank-3 response matches the analysis bound for this exact case
    f3 = [e for e in trace.kind("complete") if e[3] == 3][0][1]
    assert f3 == 8


def test_sequential_jobs_never_overlap():
    h = MCTask(id=1, T=4, D=4, L=1, C=(2,))
    a = MCTask(id=2, T=10, D=10, L=1, C=(6,))
    trace = run([h, a], 1, 1, {1: 1, 2: 2}, {(1, 1): 2, (2, 1): 10},
                16, {1: (0, 4, 8), 2: (0, 10)},
                {1: (2, 2, 2), 2: (6, 2)})
    misses = trace.kind("deadline_miss")
    assert [(e[1], e[3], e[4], e[5]) for e in misses] == [(10, 2, 1, 1)]
    comps = {(e[3], e[4]): e[1] for e in trace.kind("complete")}
    assert comps[(2, 1)] == 12
    assert comps[(2, 2)] == 14
    # between 10 and 12 the first job still runs; job 2 waits its turn
    rec = [e for e in trace.kind("sched") if e[1] == 10][0]
    assert rec[4] == (("J", 2, 1),)


# ---------------------------------------------------------------------------
# budget monitoring


def test_budget_trip_at_exact_budget_instant():
    a = MCTask(id=1, T=20, D=20, L=2, C=(2, 5))
    trace = run([a], 2, 1, {1: 1}, {(1, 1): 2, (1, 2): 5},
                20, {1: (0,)}, {1: (4,)})
    be = trace.kind("budget_exceeded")
    assert [(e[1], e[2], e[3]) for e in be] == [(2, 2, 1)]
    comp = trace.kind("complete")[0]
    assert (comp[1], comp[2], comp[8]) == (4, 2, 0)
    assert slots_of(trace) == [
        (0, 2, (("J", 1, 1),)),
        (2, 4, (("J", 1, 1),)),
        (4, 20, ()),
    ]
    assert compute_l_intervals(trace) == [(0, 2, 1), (2, 20, 2)]


def cascade_setup(protocol):
    a = MCTask(id=1, T=20, D=20, L=2, C=(2, 4, 4))
    b = MCTask(id=2, T=20, D=20, L=3, C=(2, 2, 5))
    v = MCTask(id=3, T=20, D=20, L=1, C=(5, 5, 5))
    wt = {(1, 1): 2, (1, 2): 4, (2, 1): 4, (2, 2): 4, (2, 3): 9, (3, 1): 11}
    return run([a, b, v], 3, 2, {1: 1, 2: 2, 3: 3}, wt,
               20, {1: (0,), 2: (0,), 3: (0,)}, {1: (3,), 2: (4,), 3: (5,)},
               protocol=protocol)


def test_same_instant_cascade_two_levels():
    trace = cascade_setup("naive")
    be = trace.kind("budget_exceeded")
    assert [(e[1], e[2], e[3]) for e in be] == [(2, 2, 1), (2, 3, 2)]
    assert compute_l_intervals(trace) == [(0, 2, 1), (2, 20, 3)]
    comps = {(e[3], e[4]): (e[1], e[8]) for e in trace.kind("complete")}
    # the tripping task's own job outlived the cascade as a rem-job
    assert comps[(1, 1)] == (3, 1)
    assert comps[(2, 1)] == (4, 0)
    assert comps[(3, 1)] == (8, 1)


def test_drop_protocol_never_runs_rem_jobs():
    trace = cascade_setup("drop")
    drops = trace.kind("job_dropped")
    assert [(e[1], e[2], e[3], e[5]) for e in drops] == [
        (2, 2, 3, "imcr"), (2, 3, 1, "imcr")]
    assert all(slot[0] == "J"
               for e in trace.kind("sched") for slot in e[4])
    comps = [(e[3], e[8]) for e in trace.kind("complete")]
    assert comps == [(2, 0)]


def test_model_violation_on_execution_contract_breach():
    a = MCTask(id=1, T=10, D=10, L=1, C=(2,))
    ts = TaskSet(tasks=(a,), levels=1)
    sc = Scenario(horizon=10, arrivals={1: (0,)}, exec_times={1: (5,)},
                  dmcr_requests=())
    with pytest.raises(ModelViolation):
        simulate(ts, Platform(m=1), PriorityAssignment(ranks={1: 1}),
                 {(1, 1): 2}, sc)


# ---------------------------------------------------------------------------
# rem-job service


def test_naive_rem_runs_below_every_enabled_task():
    a = MCTask(id=1, T=30, D=30, L=2, C=(2, 4))
    v = MCTask(id=2, T=30, D=30, L=1, C=(4, 4))
    e = MCTask(id=3, T=30, D=30, L=2, C=(2, 2))
    wt = {(1, 1): 2, (1, 2): 4, (2, 1): 8, (3, 1): 2, (3, 2): 2}
    trace = run([a, v, e], 2, 1, {1: 1, 3: 2, 2: 3}, wt,
                30, {1: (0,), 2: (0,), 3: (5,)}, {1: (4,), 2: (4,), 3: (2,)},
                protocol="naive")
    assert slots_of(trace) == [
        (0, 2, (("J", 1, 1),)),
        (2, 4, (("J", 1, 1),)),
        (4, 5, (("R", 2, 1),)),
        (5, 7, (("J", 3, 1),)),
        (7, 10, (("R", 2, 1),)),
        (10, 30, ()),
    ]
    comp_v = [e2 for e2 in trace.kind("complete") if e2[3] == 2][0]
    assert (comp_v[1], comp_v[8]) == (10, 1)


def test_rem_order_edf_versus_srpt():
    a = MCTask(id=1, T=30, D=30, L=2, C=(2, 4))
    v1 = MCTask(id=2, T=30, D=20, L=1, C=(2, 2))
    v2 = MCTask(id=3, T=28, D=15, L=1, C=(3, 3))
    wt = {(1, 1): 2, (1, 2): 4, (2, 1): 6, (3, 1): 9}
    common = dict(
        levels=2, m=1, ranks={1: 1, 2: 2, 3: 3}, wt=wt, horizon=30,
        arrivals={1: (0,), 2: (0,), 3: (0,)},
        execs={1: (4,), 2: (2,), 3: (3,)})

    def completion_order(rem_order):
        trace = run([a, v1, v2], common["levels"], common["m"],
                    common["ranks"], common["wt"], common["horizon"],
                    common["arrivals"], common["execs"],
                    protocol="naive", rem_order=rem_order)
        return [(e[3], e[1]) for e in trace.kind("complete") if e[8]]

    # earliest deadline first: v2 (d=15) before v1 (d=20)
    assert completion_order("edf") == [(3, 7), (2, 9)]
    assert completion_order("crit-edf") == [(3, 7), (2, 9)]
    # shortest remaining first: v1 (2 left) before v2 (3 left)
    assert completion_order("srpt") == [(2, 6), (3, 9)]


def test_crit_edf_prefers_higher_criticality_rem_jobs():
    # three-level set: the mid-criticality victim outranks the low one in
    # the rem pool even though its deadline is later
    a = MCTask(id=1, T=30, D=30, L=3, C=(2, 2, 6))
    v_mid = MCTask(id=2, T=30, D=28, L=2, C=(2, 2, 2))
    v_lo = MCTask(id=3, T=30, D=20, L=1, C=(2, 2, 2))
    wt = {(1, 1): 2, (1, 2): 2, (1, 3): 6, (2, 1): 4, (2, 2): 4, (3, 1): 6}
    trace = run([a, v_mid, v_lo], 3, 1, {1: 1, 2: 2, 3: 3}, wt,
                30, {1: (0,), 2: (0,), 3: (0,)}, {1: (5,), 2: (2,), 3: (2,)},
                protocol="naive")
    # one job trips straight through two levels (equal budgets)
    be = trace.kind("budget_exceeded")
    assert [(e[1], e[2]) for e in be] == [(2, 2), (2, 3)]
    rem_comps = [(e[3], e[1]) for e in trace.kind("complete") if e[8]]
    assert rem_comps == [(2, 7), (3, 9)]


def test_wcet_reclaim_ghost_carries_unused_budget():
    a = MCTask(id=1, T=30, D=30, L=2, C=(2, 6))
    v = MCTask(id=2, T=30, D=30, L=1, C=(3, 3))
    wt = {(1, 1): 2, (1, 2): 6, (2, 1): 5}
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, wt,
                30, {1: (0,), 2: (0,)}, {1: (4,), 2: (3,)},
                protocol="wcet-reclaim")
    # unused budget 6 - 4 = 2 hosts the rem-job for exactly two ticks
    assert slots_of(trace) == [
        (0, 2, (("J", 1, 1),)),
        (2, 4, (("J", 1, 1),)),
        (4, 6, (("G", 1, 1, 2, 1),)),
        (6, 7, (("R", 2, 1),)),
        (7, 30, ()),
    ]
    comp_v = [e for e in trace.kind("complete") if e[3] == 2][0]
    assert (comp_v[1], comp_v[8]) == (7, 1)


def test_wcrt_simulate_ghost_occupies_response_window():
    a = MCTask(id=1, T=30, D=30, L=2, C=(2, 6))
    v = MCTask(id=2, T=30, D=30, L=1, C=(5, 5))
    wt = {(1, 1): 2, (1, 2): 8, (2, 1): 7}
    # finished at 5 with c = 5: the unused budget 6 - 5 ends the ghost at 6,
    # before the window's end r + R(2) = 0 + 8, as under wcet-reclaim
    for protocol in ("wcrt-simulate", "wcet-reclaim"):
        trace = run([a, v], 2, 1, {1: 1, 2: 2}, wt,
                    30, {1: (0,), 2: (0,)}, {1: (5,), 2: (5,)},
                    protocol=protocol)
        assert slots_of(trace) == [
            (0, 2, (("J", 1, 1),)),
            (2, 5, (("J", 1, 1),)),
            (5, 6, (("G", 1, 1, 2, 1),)),
            (6, 10, (("R", 2, 1),)),
            (10, 30, ()),
        ], protocol
    # finished at 3 with c = 3 under a table with R(2) = 5: the window ends
    # the wcrt-simulate ghost at 5, before its unused budget 6 - 3 runs out
    wt[1, 2] = 5
    ghost_end = {"wcrt-simulate": 5, "wcet-reclaim": 6}
    for protocol, end in ghost_end.items():
        trace = run([a, v], 2, 1, {1: 1, 2: 2}, wt,
                    30, {1: (0,), 2: (0,)}, {1: (3,), 2: (5,)},
                    protocol=protocol)
        assert slots_of(trace) == [
            (0, 2, (("J", 1, 1),)),
            (2, 3, (("J", 1, 1),)),
            (3, end, (("G", 1, 1, 2, 1),)),
            (end, 8, (("R", 2, 1),)),
            (8, 30, ()),
        ], protocol


def test_ghost_goes_before_its_own_tasks_newer_head():
    # out of contract: task 1's arrivals are 5 apart with D = 20, so the
    # ghost of job 1 (budget 6 - 4) is live when job 2 arrives at 5; the two
    # share task 1's rank, and the older one, the ghost, runs first
    a = MCTask(id=1, T=20, D=20, L=2, C=(2, 6))
    v = MCTask(id=2, T=20, D=20, L=1, C=(5, 5))
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, {(1, 1): 2, (1, 2): 10, (2, 1): 7},
                30, {1: (0, 5), 2: (0,)}, {1: (4, 1), 2: (5,)},
                protocol="wcet-reclaim")
    assert slots_of(trace) == [
        (0, 2, (("J", 1, 1),)),
        (2, 4, (("J", 1, 1),)),
        (4, 6, (("G", 1, 1, 2, 1),)),
        (6, 7, (("J", 1, 2),)),
        (7, 10, (("G", 1, 2, 2, 1),)),
        (10, 30, ()),
    ]


def test_nested_overrun_kills_ghosts_and_merges_pools():
    a = MCTask(id=1, T=30, D=30, L=3, C=(2, 4, 6))
    e = MCTask(id=2, T=30, D=30, L=2, C=(3, 5, 5))
    v = MCTask(id=3, T=30, D=30, L=1, C=(6, 6, 6))
    wt = {(1, 1): 2, (1, 2): 4, (1, 3): 6, (2, 1): 8, (2, 2): 10, (3, 1): 15}
    trace = run([a, e, v], 3, 2, {1: 1, 2: 2, 3: 3}, wt,
                30, {1: (0,), 2: (0,), 3: (0,)}, {1: (5,), 2: (3,), 3: (6,)},
                protocol="wcet-reclaim")
    be = trace.kind("budget_exceeded")
    assert [(e2[1], e2[2], e2[3]) for e2 in be] == [(2, 2, 1), (4, 3, 1)]
    # the ghost (unused budget 2) hosts the rem-job for one tick only:
    # the nested transition at t=4 kills it with budget remaining
    assert slots_of(trace) == [
        (0, 2, (("J", 1, 1), ("J", 2, 1))),
        (2, 3, (("J", 1, 1), ("J", 2, 1))),
        (3, 4, (("J", 1, 1), ("G", 2, 1, 3, 1))),
        (4, 5, (("J", 1, 1), ("R", 3, 1))),
        (5, 9, (("R", 3, 1),)),
        (9, 30, ()),
    ]
    comp_v = [e2 for e2 in trace.kind("complete") if e2[3] == 3][0]
    assert (comp_v[1], comp_v[8]) == (9, 1)


def test_unfilled_ghost_slot_is_retired():
    # ghost and the pool's only rem-job are dispatched together: the ghost
    # finds no job to host and is retired; no ghost slot ever appears
    a = MCTask(id=1, T=30, D=30, L=2, C=(2, 6))
    v = MCTask(id=2, T=30, D=30, L=1, C=(6, 6))
    wt = {(1, 1): 2, (1, 2): 6, (2, 1): 8}
    trace = run([a, v], 2, 2, {1: 1, 2: 2}, wt,
                30, {1: (0,), 2: (0,)}, {1: (4,), 2: (6,)},
                protocol="wcet-reclaim")
    kinds = [slot[0] for e in trace.kind("sched") for slot in e[4]]
    assert "G" not in kinds
    assert slots_of(trace) == [
        (0, 2, (("J", 1, 1), ("J", 2, 1))),
        (2, 4, (("J", 1, 1), ("R", 2, 1))),
        (4, 6, (("R", 2, 1),)),
        (6, 30, ()),
    ]
    comp_v = [e for e in trace.kind("complete") if e[3] == 2][0]
    assert (comp_v[1], comp_v[8]) == (6, 1)


# ---------------------------------------------------------------------------
# level-decrease requests


def test_one_link_chain_re_enables_at_qualifying_completion():
    a = MCTask(id=1, T=10, D=10, L=2, C=(2, 4))
    v = MCTask(id=2, T=10, D=10, L=1, C=(2, 2))
    wt = {(1, 1): 2, (1, 2): 4, (2, 1): 4}
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, wt,
                20, {1: (0, 10), 2: (0, 10)}, {1: (3, 2), 2: (1, 1)},
                reqs=((5, 1),))
    assert [(e[1], e[3]) for e in trace.kind("dmcr_requested")] == [(5, 1)]
    assert [(e[1], e[3], e[4]) for e in trace.kind("chain_advance")] == [(12, 1, 2)]
    re_en = trace.kind("re_enabled")
    assert [(e[1], e[2], e[3]) for e in re_en] == [(12, 1, (2,))]
    assert compute_l_intervals(trace) == [(0, 2, 1), (2, 12, 2), (12, 20, 1)]


def test_two_link_chain_walks_priority_order():
    h1 = MCTask(id=1, T=10, D=10, L=2, C=(2, 4))
    h2 = MCTask(id=2, T=12, D=12, L=2, C=(3, 3))
    v = MCTask(id=3, T=8, D=8, L=1, C=(1, 1))
    wt = {(1, 1): 2, (1, 2): 4, (2, 1): 5, (2, 2): 7, (3, 1): 8}
    trace = run([h1, h2, v], 2, 1, {1: 1, 2: 2, 3: 3}, wt,
                20, {1: (0, 10), 2: (0, 12), 3: (0, 8, 16)},
                {1: (3, 2), 2: (3, 3), 3: (1, 1, 1)},
                reqs=((4, 1),))
    # second-ranked task completed at 6, before the first-ranked qualified:
    # the chain must not advance out of order
    advances = [(e[1], e[3]) for e in trace.kind("chain_advance")]
    assert advances == [(12, 1), (15, 2)]
    assert [(e[1], e[3]) for e in trace.kind("re_enabled")] == [(15, (3,))]
    drops = [(e[1], e[3], e[5]) for e in trace.kind("job_dropped")]
    assert (8, 3, "suspended_arrival") in drops
    # the re-enabled task's next arrival is released normally
    rel_v = [e for e in trace.kind("release") if e[3] == 3]
    assert [(e[1], e[2]) for e in rel_v] == [(0, 1), (16, 1)]


def test_chain_aborts_on_overrun_and_request_is_not_retried():
    a = MCTask(id=1, T=15, D=15, L=3, C=(2, 3, 5))
    b = MCTask(id=2, T=12, D=12, L=2, C=(2, 2, 2))
    v = MCTask(id=3, T=10, D=10, L=1, C=(1, 1, 1))
    wt = {(1, 1): 2, (1, 2): 3, (1, 3): 5, (2, 1): 4, (2, 2): 4, (3, 1): 6}
    trace = run([a, b, v], 3, 1, {1: 1, 2: 2, 3: 3}, wt,
                24, {1: (0, 15), 2: (0, 12), 3: (0, 10, 20)},
                {1: (3, 4), 2: (2, 2), 3: (1, 1, 1)},
                reqs=((6, 1),))
    assert [(e[1], e[2], e[3]) for e in trace.kind("chain_aborted")] == [(18, 3, 0)]
    assert trace.kind("re_enabled") == []
    assert trace.kind("chain_advance") == []
    assert compute_l_intervals(trace) == [(0, 2, 1), (2, 18, 2), (18, 24, 3)]


def test_request_intake_deferred_while_rem_pool_nonempty():
    # the request at 4 finds the rem-job of task 2 queued. Task 1's job 2
    # completes at 7 within R_1(1), while that rem-job still waits: a chain
    # taken up at 4 would advance and re-enable at 7. Taken up once the pool
    # drains at 8, it advances at task 1's next completion, at 13.
    a = MCTask(id=1, T=6, D=6, L=2, C=(2, 4))
    v = MCTask(id=2, T=12, D=12, L=1, C=(4, 4))
    wt = {(1, 1): 2, (1, 2): 4, (2, 1): 6}
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, wt,
                24, {1: (0, 6, 12), 2: (0,)}, {1: (3, 1, 1), 2: (4,)},
                reqs=((4, 1),), protocol="naive")
    assert [(e[1], e[3]) for e in trace.kind("dmcr_requested")] == [(4, 1)]
    assert [(e[1], e[3], e[4], e[8]) for e in trace.kind("complete")] == [
        (3, 1, 1, 0), (7, 1, 2, 0), (8, 2, 1, 1), (13, 1, 3, 0)]
    assert [(e[1], e[3], e[4]) for e in trace.kind("chain_advance")] == [
        (13, 1, 3)]
    assert [(e[1], e[2]) for e in trace.kind("re_enabled")] == [(13, 1)]


def test_request_targeting_current_or_higher_level_is_discarded():
    a = MCTask(id=1, T=10, D=10, L=2, C=(2, 2))
    wt = {(1, 1): 2, (1, 2): 2}
    trace = run([a], 2, 1, {1: 1}, wt,
                20, {1: (0, 10)}, {1: (2, 2)}, reqs=((5, 1),))
    assert len(trace.kind("dmcr_requested")) == 1
    assert trace.kind("chain_advance") == []
    assert trace.kind("re_enabled") == []
    assert compute_l_intervals(trace) == [(0, 20, 1)]


# ---------------------------------------------------------------------------
# suspended arrivals: dropped at their own instant, in same-instant order


def at(trace, t):
    return [e for e in trace.events if e[1] == t and e[0] != "sched"]


def test_suspended_arrival_before_enabled_one_at_one_instant():
    # s is suspended from 2; s and e both arrive at 7, s first in task order
    s = MCTask(id=1, T=10, D=10, L=1, C=(1, 1))
    e = MCTask(id=2, T=10, D=10, L=2, C=(1, 1))
    h = MCTask(id=3, T=20, D=20, L=2, C=(2, 4))
    wt = {(1, 1): 4, (2, 1): 3, (2, 2): 5, (3, 1): 2, (3, 2): 4}
    trace = run([s, e, h], 2, 1, {3: 1, 2: 2, 1: 3}, wt,
                20, {1: (0, 7), 2: (7,), 3: (0,)}, {1: (1, 1), 2: (1,), 3: (3,)})
    assert at(trace, 7) == [("job_dropped", 7, 2, 1, 2, "suspended_arrival"),
                            ("release", 7, 2, 2, 1, 17)]


def test_suspended_arrival_at_a_completion_comes_after_it():
    a = MCTask(id=1, T=10, D=10, L=2, C=(2, 5))
    v = MCTask(id=2, T=4, D=4, L=1, C=(1, 1))
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, {(1, 1): 2, (1, 2): 5, (2, 1): 3},
                10, {1: (0,), 2: (0, 4)}, {1: (4,), 2: (1, 1)})
    assert at(trace, 4) == [("complete", 4, 2, 1, 1, 4, 0, 10, 0),
                            ("job_dropped", 4, 2, 2, 2, "suspended_arrival")]


def test_arrival_at_an_overrun_is_dropped_at_the_new_level():
    # the overrun at 2 raises the level to 3 and suspends u as it arrives;
    # v, suspended since the overrun at 1, arrives then too
    v = MCTask(id=1, T=10, D=10, L=1, C=(1, 1, 1))
    u = MCTask(id=2, T=10, D=10, L=2, C=(1, 1, 1))
    h = MCTask(id=3, T=20, D=20, L=3, C=(1, 2, 6))
    wt = {(1, 1): 3, (2, 1): 2, (2, 2): 3, (3, 1): 1, (3, 2): 2, (3, 3): 6}
    trace = run([v, u, h], 3, 1, {3: 1, 2: 2, 1: 3}, wt,
                20, {1: (0, 2), 2: (2,), 3: (0,)}, {1: (1, 1), 2: (1,), 3: (5,)})
    assert at(trace, 2) == [("budget_exceeded", 2, 3, 3, 1),
                            ("job_dropped", 2, 3, 1, 2, "suspended_arrival"),
                            ("job_dropped", 2, 3, 2, 1, "suspended_arrival")]


def test_arrival_at_a_re_enable_is_released():
    a = MCTask(id=1, T=10, D=10, L=2, C=(2, 4))
    v = MCTask(id=2, T=10, D=10, L=1, C=(2, 2))
    wt = {(1, 1): 2, (1, 2): 4, (2, 1): 4}
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, wt,
                20, {1: (0, 10), 2: (0, 12)}, {1: (3, 2), 2: (1, 1)},
                reqs=((5, 1),))
    assert at(trace, 12) == [("complete", 12, 2, 1, 2, 2, 10, 20, 0),
                             ("chain_advance", 12, 2, 1, 2),
                             ("re_enabled", 12, 1, (2,)),
                             ("release", 12, 1, 2, 2, 22)]


def test_suspended_arrivals_at_and_past_the_horizon():
    # the completion at the horizon comes first; the arrival at 25 is
    # never seen
    a = MCTask(id=1, T=10, D=10, L=2, C=(2, 4))
    v = MCTask(id=2, T=10, D=10, L=1, C=(1, 1))
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, {(1, 1): 2, (1, 2): 4, (2, 1): 3},
                20, {1: (0, 17), 2: (0, 20, 25)}, {1: (3, 3), 2: (1, 1, 1)})
    assert at(trace, 20) == [("complete", 20, 2, 1, 2, 3, 17, 27, 0),
                             ("job_dropped", 20, 2, 2, 2, "suspended_arrival")]
    assert max(e[1] for e in trace.events) == 20


# ---------------------------------------------------------------------------
# deadline misses


def test_same_instant_misses_in_task_order_then_k():
    # listed 3, 1, 2 but ranked 1, 2, 3: at t=4 the jobs of tasks 3 and 2
    # miss together, and task 3's two jobs (a duplicated arrival) in k order
    tasks = [MCTask(id=i, T=20, D=4, L=1, C=(3,)) for i in (3, 1, 2)]
    trace = run(tasks, 1, 1, {1: 1, 2: 2, 3: 3},
                {(1, 1): 3, (2, 1): 6, (3, 1): 12},
                12, {1: (0,), 2: (0,), 3: (0, 0)},
                {1: (3,), 2: (3,), 3: (3, 3)})
    misses = [(e[1], e[3], e[4]) for e in trace.kind("deadline_miss")]
    assert misses == [(4, 3, 1), (4, 3, 2), (4, 2, 1)]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_suspended_job_never_misses(protocol):
    # v's job is dropped or relegated at t=2 and still unfinished at its
    # deadline 6; the high task's job, enabled throughout, misses at 3
    a = MCTask(id=1, T=20, D=3, L=2, C=(2, 4))
    v = MCTask(id=2, T=20, D=6, L=1, C=(5, 5))
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, {(1, 1): 2, (1, 2): 4, (2, 1): 7},
                20, {1: (0,), 2: (0,)}, {1: (4,), 2: (5,)}, protocol=protocol)
    assert [(e[1], e[3]) for e in trace.kind("deadline_miss")] == [(3, 1)]
    fate = [(e[1], e[0]) for e in trace.events
            if e[0] in ("job_dropped", "complete") and e[3] == 2]
    assert fate == ([(2, "job_dropped")] if protocol == "drop"
                    else [(9, "complete")])


def test_re_enabled_task_misses_only_for_jobs_released_after():
    # v's first job (deadline 15) is dropped at 2; the chain re-enables v
    # at 12; its second job, released at 20, waits behind the high task
    # and misses at 35
    a = MCTask(id=1, T=10, D=10, L=2, C=(2, 4))
    v = MCTask(id=2, T=15, D=15, L=1, C=(14, 14))
    trace = run([a, v], 2, 1, {1: 1, 2: 2}, {(1, 1): 2, (1, 2): 4, (2, 1): 16},
                40, {1: (0, 10, 20, 30), 2: (0, 20)},
                {1: (3, 2, 2, 2), 2: (14, 14)}, reqs=((5, 1),))
    assert [(e[1], e[3]) for e in trace.kind("re_enabled")] == [(12, (2,))]
    assert [(e[1], e[3], e[4]) for e in trace.kind("job_dropped")] == [
        (2, 2, 1)]
    misses = [(e[1], e[3], e[4]) for e in trace.kind("deadline_miss")]
    assert misses == [(35, 2, 2)]


# ---------------------------------------------------------------------------
# input validation


def test_invalid_request_target_rejected():
    a = MCTask(id=1, T=10, D=10, L=2, C=(2, 2))
    with pytest.raises(InconsistentInputs,
                       match=r"target level 2 not in \[1, 1\]"):
        run([a], 2, 1, {1: 1}, {(1, 1): 2, (1, 2): 2},
            20, {1: (0,)}, {1: (2,)}, reqs=((5, 2),))


def test_incomplete_response_table_rejected():
    a = MCTask(id=1, T=10, D=10, L=2, C=(2, 2))
    with pytest.raises(InconsistentInputs):
        run([a], 2, 1, {1: 1}, {(1, 1): 2}, 20, {1: (0,)}, {1: (2,)})


@pytest.mark.parametrize("horizon, arrivals, execs, message", [
    (40, (30, 10), (2, 2), "non-decreasing"),
    (40, (-1, 10), (2, 2), "non-negative"),
    (40, (0, 10, 20), (2, 2), "3 arrivals but 2 exec_times"),
    (-1, (0,), (2,), "negative horizon"),
])
def test_unvalidated_scenario_rejected(horizon, arrivals, execs, message):
    a = MCTask(id=1, T=10, D=10, L=1, C=(2,))
    with pytest.raises(InconsistentInputs, match=message):
        run([a], 1, 1, {1: 1}, {(1, 1): 2}, horizon, {1: arrivals},
            {1: execs})


def test_assignment_must_cover_taskset():
    a = MCTask(id=1, T=10, D=10, L=1, C=(2,))
    b = MCTask(id=2, T=10, D=10, L=1, C=(2,))
    with pytest.raises(InconsistentInputs):
        run([a, b], 1, 1, {1: 1}, {(1, 1): 2, (2, 1): 4},
            20, {1: (0,), 2: (0,)}, {1: (2,), 2: (2,)})


# ---------------------------------------------------------------------------
# trace serialization


def rich_trace():
    a = MCTask(id=1, T=30, D=30, L=3, C=(2, 4, 6))
    e = MCTask(id=2, T=30, D=30, L=2, C=(3, 5, 5))
    v = MCTask(id=3, T=30, D=30, L=1, C=(6, 6, 6))
    wt = {(1, 1): 2, (1, 2): 4, (1, 3): 6, (2, 1): 8, (2, 2): 10, (3, 1): 15}
    return run([a, e, v], 3, 2, {1: 1, 2: 2, 3: 3}, wt,
               30, {1: (0,), 2: (0,), 3: (0,)}, {1: (5,), 2: (3,), 3: (6,)},
               protocol="wcet-reclaim")


def test_jsonl_roundtrip_preserves_events():
    trace = rich_trace()
    back = trace_from_jsonl(trace.to_jsonl())
    assert back.events == trace.events
    assert (back.horizon, back.m, back.levels) == (30, 2, 3)
    assert (back.protocol, back.rem_order) == ("wcet-reclaim", "crit-edf")


# every line boundary of str.splitlines() but "\n", which ends the pieces
OTHER_BOUNDARIES = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@given(text=st.text("\n" + OTHER_BOUNDARIES + "ab", max_size=40),
       size=st.integers(1, 6))
@example(text="a\r\n\r\n\n\r\r\nb\r", size=1)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_reader_pieces_split_lines_as_splitlines(text, size):
    """The reader cuts its text into pieces just after a "\n" and splits
    each on its own. Pieces of a few characters put every other boundary,
    and both halves of "\r\n", at and around the cuts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_READ_CHARS", size)
        pieces = list(sim._text_pieces(text))
    assert "".join(pieces) == text
    assert all(piece.endswith("\n") for piece in pieces[:-1])
    assert [line for piece in pieces
            for line in piece.splitlines()] == text.splitlines()


def test_simulation_is_deterministic():
    t1 = rich_trace()
    t2 = rich_trace()
    assert t1.to_jsonl() == t2.to_jsonl()


def test_shorter_horizon_runs_a_prefix_of_the_schedule():
    """The horizon-prefix relation: with the scenario's horizon cut to some
    H1 < H, the events before H1 are the full run's, its sched spans
    clipped at H1. A step that the next-event computation skips or adds
    shows as a difference."""
    clipped = changes = 0
    sets = schedulable_sets(_sweep_params, range(1, 1000))
    for seed, ts, platform, res in islice(sets, 45):
        rng = SplitMix64(seed)
        for sc in islice(_sweep_scenarios(seed, ts), 4):
            h1 = rng.randint(1, sc.horizon - 1)
            for protocol in PROTOCOLS:
                full, head = (simulate(ts, platform, res.assignment,
                                       res.wcrt_table, s,
                                       ProtocolConfig(protocol)).events
                              for s in (sc, replace(sc, horizon=h1)))
                want = [e[:3] + (min(e[3], h1),) + e[4:]
                        if e[0] == "sched" else e
                        for e in full if e[1] < h1]
                assert [e for e in head if e[1] < h1] == want
                clipped += any(e[0] == "sched" and e[3] > h1 for e in full
                               if e[1] < h1)
                changes += any(e[0] == "budget_exceeded" for e in want)
    # in over half of the 720 runs the cut falls inside a span, and after
    # a level change
    assert clipped > 360 and changes > 360


# ---------------------------------------------------------------------------
# integration: simulated traces satisfy the independent checkers


def overrun_scenarios(seed, ts):
    horizon = 15 * max(t.T for t in ts.tasks)
    for i in range(5):
        yield gen_scenario(ts, horizon, child_seed(seed, i),
                           exec_model="overrun")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_checkers_hold_on_generated_runs(protocol):
    params = GenParams(n_tasks=4, levels=2, total_util=0.6,
                       period_range=(8, 16), ensure_overrunnable=True)
    sets = schedulable_sets(lambda _: params, range(1, 100))
    stats = run_slice(islice(sets, 3), overrun_scenarios, (protocol,))
    assert stats.runs == 15
    reports = ["feasibility", "periodicity", "response"]
    if protocol in ("wcet-reclaim", "wcrt-simulate"):
        reports.append("reclaim")
    assert stats.violations == {name: [] for name in reports}
    assert stats.checked["feasibility"] > 0


AWKWARD_IDS = ['say "hi"', "back\\slash", "bell\x07", "naïve 任务", 7, 12, "0"]
SLOT_CODES = {"drop": {"J"}, "naive": {"J", "R"},
              "wcet-reclaim": {"J", "R", "G"}, "wcrt-simulate": {"J", "R", "G"}}


def ref_jsonl(trace):
    """The records of Trace.to_jsonl built as dicts and encoded one by one
    with json.dumps: the writer's templates must reproduce these bytes."""
    def dumps(rec):
        return json.dumps(rec, separators=(",", ":"))

    meta = {"t": 0, "kind": "meta"}
    meta.update((f, getattr(trace, f)) for f in META_FIELDS)
    out = [dumps(meta)]
    for ev in trace.events:
        if ev[0] != "sched":
            fields = EVENT_FIELDS[ev[0]]
            names = ("t", "mode") + tuple(f for f in fields if f != "mode")
            values = dict(zip(names, ev[1:]))
            rec = {"t": ev[1], "kind": ev[0]}
            rec.update((f, values[f]) for f in fields)
            out.append(dumps(rec))
            continue
        _, t0, mode, t1, slots = ev
        for proc, slot in enumerate(slots):
            tid, k = slot[3:] if slot[0] == "G" else slot[1:]
            rec = {"t": t0, "kind": "dispatch", "task": tid, "k": k,
                   "proc": proc, "mode": mode, "until": t1,
                   "rem": 0 if slot[0] == "J" else 1}
            if slot[0] == "G":
                rec["ghost_task"] = slot[1]
                rec["ghost_k"] = slot[2]
            out.append(dumps(rec))
        if len(slots) < trace.m:
            out.append(dumps({"t": t0, "kind": "idle", "mode": mode,
                              "until": t1, "procs": trace.m - len(slots)}))
    return out


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_jsonl_lines_match_dict_encoding_with_awkward_ids(protocol):
    params = GenParams(n_tasks=len(AWKWARD_IDS), levels=3, total_util=1.2,
                       m=2, period_range=(8, 16), ensure_overrunnable=True)
    seed = 0
    while True:
        seed += 1
        try:
            ts, platform = gen_taskset(params, seed)
        except Infeasible:
            continue
        ts = TaskSet(tasks=tuple(replace(t, id=tid)
                                 for t, tid in zip(ts.tasks, AWKWARD_IDS)),
                     levels=ts.levels)
        res = opa_assign(ts, platform.m)
        if res.schedulable:
            break
    sc = gen_scenario(ts, 400, seed, exec_model="overrun",
                      dmcr_plan=tuple((t, 1 + t % 2) for t in range(40, 400, 40)))
    trace = simulate(ts, platform, res.assignment, res.wcrt_table, sc,
                     ProtocolConfig(protocol))
    kinds = {ev[0] for ev in trace.events}
    assert {"re_enabled", "budget_exceeded", "release", "complete"} <= kinds
    codes = {slot[0] for ev in trace.kind("sched") for slot in ev[4]}
    assert codes == SLOT_CODES[protocol]
    text = trace.to_jsonl()
    assert text.splitlines() == ref_jsonl(trace)
    assert text.endswith("\n")
    assert trace_from_jsonl(text).events == trace.events
