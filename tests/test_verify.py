import gc
import os
import random
import statistics
import subprocess
import sys
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcsched
from mcsched.experiment import prepare_run
from mcsched.gen import GenParams, Infeasible, gen_scenario, gen_taskset
from mcsched.model import MCTask, Scenario, TaskSet
from mcsched.sim import PROTOCOLS, ProtocolConfig, Trace, simulate
from mcsched.verify import (ReclaimReport, check_feasibility,
                            check_periodicity, check_response_bounds,
                            check_run, compute_l_intervals, metrics)
import long_run
from oracles import (ParameterTooLarge, brute_force_workload,
                     count_basic_scenarios, enumerate_basic_scenarios,
                     ref_feasibility, ref_periodicity, ref_reclaim,
                     ref_response_bounds)
from slices import schedulable_sets


def lo(tid, T, D, C, L=1, levels=1):
    cs = (C,) * levels if L == 1 else None
    return MCTask(id=tid, T=T, D=D, L=L, C=cs)


def mk_trace(events, horizon=50, m=1, levels=2):
    return Trace(list(events), horizon, m, levels, "drop", "crit-edf")


def two_crit_set():
    tasks = (
        MCTask(id=1, T=10, D=10, L=2, C=(2, 4)),
        MCTask(id=2, T=10, D=10, L=1, C=(3, 3)),
    )
    return TaskSet(tasks=tasks, levels=2)


# ---------------------------------------------------------------------------
# level timeline


def test_checkers_import_none_of_the_simulator():
    # verify names sim.Trace only in annotations, so the checkers cannot
    # come to share code with the simulator they judge
    src = Path(mcsched.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mcsched.verify; print("
         "[name in sys.modules for name in ('mcsched.verify', 'mcsched.sim')])"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[True, False]\n"


def test_l_intervals_example_three_spans():
    trace = mk_trace([
        ("budget_exceeded", 7, 2, 1, 1),
        ("re_enabled", 30, 1, (2,)),
    ], horizon=50)
    assert compute_l_intervals(trace) == [(0, 7, 1), (7, 30, 2), (30, 50, 1)]


def test_l_intervals_collapse_same_instant_cascade():
    trace = mk_trace([
        ("budget_exceeded", 7, 2, 1, 1),
        ("budget_exceeded", 7, 3, 2, 1),
    ], horizon=20, levels=3)
    assert compute_l_intervals(trace) == [(0, 7, 1), (7, 20, 3)]


def test_l_intervals_no_transitions():
    trace = mk_trace([], horizon=15)
    assert compute_l_intervals(trace) == [(0, 15, 1)]


# ---------------------------------------------------------------------------
# feasibility


def test_feasibility_clean_trace():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("complete", 2, 1, 1, 1, 2, 0, 10, 0),
        ("complete", 5, 1, 2, 1, 3, 0, 10, 0),
    ], horizon=10)
    rep = check_feasibility(trace, ts)
    assert rep.ok
    assert rep.checked == 2


def test_feasibility_flags_late_completion():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("complete", 12, 1, 2, 1, 3, 0, 10, 0),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert [v[0] for v in rep.violations] == ["DeadlineMiss"]


def test_feasibility_flags_unfinished_job():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert [v[0] for v in rep.violations] == ["DeadlineMiss"]


def test_feasibility_spanning_job_not_judged():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 15, 1, 2, 1, 25),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert rep.ok
    assert rep.spanning == 1


def test_feasibility_rem_job_exempt_when_suspension_is_real():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("budget_exceeded", 3, 2, 1, 1),
        ("complete", 14, 2, 2, 1, 3, 0, 10, 1),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert rep.ok
    assert rep.exempt_rem == 1


def test_feasibility_rejects_fabricated_rem_flag():
    # rem-flagged completion, yet the level never rose: the flag is a lie
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("complete", 14, 1, 2, 1, 3, 0, 10, 1),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert [v[0] for v in rep.violations] == ["RemFlagInconsistent"]


def test_feasibility_rejects_missing_rem_flag():
    # the task was suspended mid-job but the completion claims otherwise
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("budget_exceeded", 3, 2, 1, 1),
        ("complete", 8, 2, 2, 1, 3, 0, 10, 0),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert [v[0] for v in rep.violations] == ["RemFlagInconsistent"]


def test_feasibility_completion_at_suspension_instant_is_not_rem():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("complete", 3, 1, 2, 1, 3, 0, 10, 0),
        ("budget_exceeded", 3, 2, 1, 1),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert rep.ok


def test_feasibility_incomplete_relegated_job_exempt():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("budget_exceeded", 4, 2, 1, 1),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert rep.ok
    assert rep.exempt_rem == 1


def test_feasibility_dropped_job_exempt():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("budget_exceeded", 4, 2, 1, 1),
        ("job_dropped", 4, 2, 2, 1, "imcr"),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert rep.ok
    assert rep.exempt_dropped == 1


def test_feasibility_completion_without_release():
    ts = two_crit_set()
    trace = mk_trace([
        ("complete", 5, 1, 2, 1, 3, 0, 10, 0),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert "CompletionWithoutRelease" in [v[0] for v in rep.violations]


def test_feasibility_drop_without_release():
    ts = two_crit_set()
    trace = mk_trace([
        ("budget_exceeded", 4, 2, 1, 1),
        ("job_dropped", 4, 2, 2, 1, "imcr"),
    ], horizon=20)
    rep = check_feasibility(trace, ts)
    assert rep.violations == [("DropWithoutRelease", 2, 1,
                               "imcr-dropped but never released")]
    assert check_run(trace, ts)["feasibility"] == rep
    assert ref_feasibility(trace, ts) == rep


# ---------------------------------------------------------------------------
# periodicity


def periodic_scenario(ts, horizon=20):
    return Scenario(horizon=horizon,
                    arrivals={1: (0, 10), 2: (0, 10)},
                    exec_times={1: (2, 2), 2: (3, 3)},
                    dmcr_requests=())


def test_periodicity_clean():
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("release", 10, 1, 1, 2, 20),
        ("release", 10, 1, 2, 2, 20),
    ], horizon=20)
    rep = check_periodicity(trace, ts, sc)
    assert rep.ok
    assert rep.checked == 4


def test_periodicity_flags_release_delayed_one_tick():
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("release", 11, 1, 1, 2, 21),
        ("release", 10, 1, 2, 2, 20),
    ], horizon=20)
    rep = check_periodicity(trace, ts, sc)
    assert [v[0] for v in rep.violations] == ["ShiftedRelease"]


def test_periodicity_flags_missing_release():
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("release", 10, 1, 1, 2, 20),
    ], horizon=20)
    rep = check_periodicity(trace, ts, sc)
    assert [v[0] for v in rep.violations] == ["ArrivalMultiplicity"]


def test_periodicity_flags_release_while_suspended():
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("budget_exceeded", 5, 2, 1, 1),
        ("release", 10, 2, 1, 2, 20),
        ("release", 10, 2, 2, 2, 20),  # task 2 has L=1 < level 2
    ], horizon=20)
    rep = check_periodicity(trace, ts, sc)
    assert [v[0] for v in rep.violations] == ["ReleaseWhileSuspended"]


def test_periodicity_flags_drop_while_enabled():
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("release", 10, 1, 1, 2, 20),
        ("job_dropped", 10, 1, 2, 2, "suspended_arrival"),
    ], horizon=20)
    rep = check_periodicity(trace, ts, sc)
    assert [v[0] for v in rep.violations] == ["DropWhileEnabled"]


def test_periodicity_flags_fabricated_release():
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("release", 10, 1, 1, 2, 20),
        ("release", 10, 1, 2, 2, 20),
        ("release", 15, 1, 2, 7, 25),
    ], horizon=20)
    rep = check_periodicity(trace, ts, sc)
    assert [v[0] for v in rep.violations] == ["FabricatedRelease"]


def test_periodicity_accepts_drop_during_suspension():
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("budget_exceeded", 5, 2, 1, 1),
        ("release", 10, 2, 1, 2, 20),
        ("job_dropped", 10, 2, 2, 2, "suspended_arrival"),
    ], horizon=20)
    rep = check_periodicity(trace, ts, sc)
    assert rep.ok


# ---------------------------------------------------------------------------
# response bounds


def test_response_bounds_within_single_interval():
    ts = two_crit_set()
    wt = {(1, 1): 4, (1, 2): 6, (2, 1): 7}
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("complete", 6, 1, 2, 1, 3, 0, 10, 0),
    ], horizon=20)
    rep = check_response_bounds(trace, wt, ts)
    assert rep.ok
    assert rep.checked == 1


def test_response_bounds_flags_exceedance():
    ts = two_crit_set()
    wt = {(1, 1): 4, (1, 2): 6, (2, 1): 5}
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("complete", 6, 1, 2, 1, 3, 0, 10, 0),
    ], horizon=20)
    rep = check_response_bounds(trace, wt, ts)
    assert [v[0] for v in rep.violations] == ["ResponseBoundExceeded"]


def test_response_bounds_skips_jobs_spanning_level_changes():
    ts = two_crit_set()
    wt = {(1, 1): 4, (1, 2): 6, (2, 1): 7}
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("budget_exceeded", 3, 2, 1, 1),
        ("complete", 6, 2, 1, 1, 4, 0, 10, 0),
    ], horizon=20)
    rep = check_response_bounds(trace, wt, ts)
    assert rep.ok
    assert rep.spanning == 1
    assert rep.checked == 0


def test_response_bounds_completion_at_transition_counts_inside():
    ts = two_crit_set()
    wt = {(1, 1): 4, (1, 2): 6, (2, 1): 7}
    trace = mk_trace([
        ("release", 0, 1, 2, 1, 10),
        ("complete", 3, 1, 2, 1, 3, 0, 10, 0),
        ("budget_exceeded", 3, 2, 1, 1),
    ], horizon=20)
    rep = check_response_bounds(trace, wt, ts)
    assert rep.ok
    assert rep.checked == 1


# ---------------------------------------------------------------------------
# reclaim budget
#
# task 1 completes job 1 at level 2 after running c=4 of its budget C(2)=6,
# so its ghost slot may host rem-jobs for two ticks


def reclaim_trace(ghost_until=6, ghost_k=1, protocol="wcet-reclaim"):
    return Trace([
        ("release", 0, 1, 1, 1, 30),
        ("release", 0, 1, 2, 1, 30),
        ("sched", 0, 1, 4, (("J", 1, 1),)),
        ("budget_exceeded", 2, 2, 1, 1),
        ("complete", 4, 2, 1, 1, 4, 0, 30, 0),
        ("sched", 4, 2, ghost_until, (("G", 1, ghost_k, 2, 1),)),
        ("complete", 7, 2, 2, 1, 3, 0, 30, 1),
    ], 30, 1, 2, protocol, "crit-edf")


def reclaim(trace, ts):
    return check_run(trace, ts)["reclaim"]


def reclaim_set():
    return TaskSet(tasks=(MCTask(id=1, T=30, D=30, L=2, C=(2, 6)),
                          MCTask(id=2, T=30, D=30, L=1, C=(3, 3))), levels=2)


def test_reclaim_ghost_within_unused_budget():
    rep = reclaim(reclaim_trace(), reclaim_set())
    assert rep == ReclaimReport(violations=[], checked=1)


def test_reclaim_flags_stretched_ghost():
    rep = reclaim(reclaim_trace(ghost_until=7), reclaim_set())
    assert rep.violations == [("ReclaimOverBudget", 1, 1,
                               "ran 4 + hosted 3 > budget 6 at level 2")]


def test_reclaim_flags_ghost_of_job_never_completed():
    ts = reclaim_set()
    rep = reclaim(reclaim_trace(ghost_k=9), ts)
    assert rep.violations == [("UnfundedGhost", 1, 9, "ghost hosted 2 ticks "
                               "but its job never completed")]
    unknown = TaskSet(tasks=(ts.tasks[1],), levels=2)
    assert [v[0] for v in reclaim(reclaim_trace(), unknown).violations] \
        == ["UnfundedGhost"]


def test_reclaim_budget_is_that_of_the_completion_level():
    # task 1 (L=3) completes at level 2: its ghost may spend C(2) - c = 1
    ts = TaskSet(tasks=(MCTask(id=1, T=30, D=30, L=3, C=(2, 5, 8)),
                        MCTask(id=2, T=30, D=30, L=1, C=(3, 3, 3))), levels=3)
    trace = reclaim_trace(ghost_until=5)
    assert reclaim(trace, ts).ok
    trace.events[5] = ("sched", 4, 2, 6, (("G", 1, 1, 2, 1),))
    assert reclaim(trace, ts).violations == [
        ("ReclaimOverBudget", 1, 1, "ran 4 + hosted 2 > budget 5 at level 2")]


@pytest.mark.parametrize("first_c, last_c, violations", [
    (4, 5, [("ReclaimOverBudget", 1, 1,
             "ran 5 + hosted 2 > budget 6 at level 2")]),
    (5, 4, []),
])
def test_reclaim_follows_the_last_completion_of_a_hosting_job(
        first_c, last_c, violations):
    # job (1, 1) completes with c=first_c, its ghost hosts for two ticks,
    # and it completes again at 6 with c=last_c: the budget left is judged
    # by the last completion, as the reference does
    trace = reclaim_trace()
    trace.events[4] = ("complete", 4, 2, 1, 1, first_c, 0, 30, 0)
    trace.events.insert(6, ("complete", 6, 2, 1, 1, last_c, 0, 30, 0))
    ts = reclaim_set()
    rep = reclaim(trace, ts)
    assert rep == ReclaimReport(violations=violations, checked=1)
    assert rep == ref_reclaim(trace, ts)


def test_check_run_picks_the_reports_that_apply():
    ts = reclaim_set()
    sc = Scenario(horizon=30, arrivals={1: (0,), 2: (0,)},
                  exec_times={1: (4,), 2: (3,)}, dmcr_requests=())
    wt = {(1, 1): 2, (1, 2): 6, (2, 1): 5}
    trace = reclaim_trace()
    assert list(check_run(trace, ts)) == ["feasibility", "reclaim"]
    assert list(check_run(trace, ts, wt, sc)) == [
        "feasibility", "periodicity", "response", "reclaim"]
    naive = reclaim_trace(protocol="naive")
    assert list(check_run(naive, ts, wt, sc)) == [
        "feasibility", "periodicity", "response"]
    assert check_run(trace, ts, wt, sc) == {
        "feasibility": check_feasibility(trace, ts),
        "periodicity": check_periodicity(trace, ts, sc),
        "response": check_response_bounds(trace, wt, ts),
        "reclaim": ReclaimReport(violations=[], checked=1)}
    assert all(rep.ok for rep in check_run(trace, ts, wt, sc).values())


# ---------------------------------------------------------------------------
# brute-force workload oracle


def test_oracle_frozen_values():
    t = lo(1, T=10, D=10, C=3)
    assert brute_force_workload(t, 25, 1, carry_in=False) == 9
    assert brute_force_workload(t, 12, 1, carry_in=True) == 6
    assert brute_force_workload(t, 2, 1, carry_in=False) == 2
    assert brute_force_workload(t, 2, 1, carry_in=True) == 2
    assert brute_force_workload(t, 0, 1) == 0


def test_oracle_guard():
    t = lo(1, T=10, D=10, C=3)
    with pytest.raises(ParameterTooLarge):
        brute_force_workload(t, 65, 1)


def enum_max(lo_r, delta, T, D, C):
    # literal recursion over every legal release pattern
    best = 0
    for r in range(lo_r, delta):
        w = min(C, max(0, min(r + D, delta) - max(r, 0)))
        best = max(best, w + enum_max(r + T, delta, T, D, C))
    return best


def test_oracle_matches_literal_enumeration():
    for T in (2, 3, 5):
        for D in range(1, T + 1):
            for C in range(1, D + 1):
                task = lo(1, T=T, D=D, C=C)
                for delta in range(0, 11):
                    expect_nc = enum_max(0, delta, T, D, C)
                    assert brute_force_workload(task, delta, 1) == expect_nc
                    expect_ci = expect_nc
                    for r0 in range(-T, 0):
                        w = min(C, max(0, min(r0 + D, delta)))
                        expect_ci = max(expect_ci,
                                        w + enum_max(r0 + T, delta, T, D, C))
                    got = brute_force_workload(task, delta, 1, carry_in=True)
                    assert got == expect_ci, (T, D, C, delta)


# ---------------------------------------------------------------------------
# basic-scenario enumeration


def test_enumerate_counts_example():
    # one job at criticality 1 and two jobs at criticality 3: 1 * 3^2
    tasks = (MCTask(id=1, T=10, D=10, L=1, C=(2, 2, 2)),
             MCTask(id=2, T=10, D=10, L=3, C=(1, 2, 3)))
    ts = TaskSet(tasks=tasks, levels=3)
    arrivals = {1: (0,), 2: (0, 10)}
    scenarios = list(enumerate_basic_scenarios(ts, 20, arrivals))
    assert len(scenarios) == 9
    assert count_basic_scenarios(ts, {1: 1, 2: 2}) == 9
    seen = {(s.exec_times[1], s.exec_times[2]) for s in scenarios}
    assert len(seen) == 9
    assert all(c in (1, 2, 3) for s in scenarios for c in s.exec_times[2])


def test_enumerate_single_level_is_singleton():
    ts = TaskSet(tasks=(MCTask(id=1, T=5, D=5, L=1, C=(2,)),), levels=1)
    scenarios = list(enumerate_basic_scenarios(ts, 10))
    assert len(scenarios) == 1
    assert scenarios[0].exec_times[1] == (2, 2)


def test_enumerate_guard_on_job_count():
    ts = TaskSet(tasks=(MCTask(id=1, T=2, D=2, L=1, C=(1,)),), levels=1)
    with pytest.raises(ParameterTooLarge):
        list(enumerate_basic_scenarios(ts, 100))


# ---------------------------------------------------------------------------
# metrics


def test_metrics_counts():
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("budget_exceeded", 2, 2, 1, 1),
        ("complete", 6, 2, 1, 1, 4, 0, 10, 0),
        ("complete", 9, 2, 2, 1, 3, 0, 10, 1),
        ("deadline_miss", 10, 2, 1, 2, 2),
        ("re_enabled", 12, 1, (2,)),
        ("sched", 0, 1, 9, (("J", 1, 1),)),
        ("sched", 9, 1, 20, ()),
    ], horizon=20)
    m = metrics(trace, ts)
    assert m["misses_enabled"] == 1
    assert m["misses_hi"] == 1
    assert m["rem_completed"] == 1
    assert m["enabled_completed"] == 1
    assert m["max_tardiness"] == 0
    assert m["mean_tardiness"] == 0.0
    assert m["mean_rem_response"] == 9.0
    assert m["mean_susp_delay"] == 10.0
    assert m["susp_episodes"] == 1
    assert m["idle_time"] == 11
    assert m["busy_time"] == 9


# ---------------------------------------------------------------------------
# corrupted traces, judged by the linear-scan references
#
# Each row of CORRUPTIONS holds an edit of an event list that keeps it in
# time order within its horizon, as the walk requires; the report that flags
# the edit alone on a clean run with that report; and why the edit can go
# unseen, if it can. A row with no report leaves the run's meaning as it was.


def retrace(trace, events):
    """trace with these events in place of its own."""
    return Trace(events, trace.horizon, trace.m, trace.levels, trace.protocol,
                 trace.rem_order)


def in_time(events, ev):
    """events with ev inserted after every event at or before its instant."""
    at = next((j for j, e in enumerate(events) if e[1] > ev[1]), len(events))
    return events[:at] + [ev] + events[at:]


def one(test, new=None, keep=False):
    """The edit of a random event ev that passes test, if one does: ev taken
    out (or kept), and new(ev, rng, horizon), unless None, put in time."""
    def edit(events, rng, horizon):
        if not (where := [i for i, ev in enumerate(events) if test(ev)]):
            return events
        i = rng.choice(where)
        ev, events = events[i], events[:i + keep] + events[i + 1:]
        return in_time(events, new(ev, rng, horizon)) if new else events
    return edit


def of(kind):
    return lambda ev: ev[0] == kind


def arrival_drop(ev):
    return ev[0] == "job_dropped" and ev[5] == "suspended_arrival"


def later(ev, rng, horizon):
    """ev 1 to 40 ticks later, at most at the horizon."""
    return ev[:1] + (min(horizon, ev[1] + rng.randint(1, 40)),) + ev[2:]


def again(ev, rng, horizon):
    """ev at its own instant or later."""
    return ev if rng.random() < 0.5 else later(ev, rng, horizon)


def shifted(ev, rng, horizon):
    """ev one tick earlier or later (later only at 0)."""
    return ev[:1] + (ev[1] + (rng.choice((-1, 1)) if ev[1] else 1),) + ev[2:]


def renumbered(ev, rng, horizon):
    return ev[:4] + (max(1, ev[4] + rng.choice((-2, -1, 1, 2, 50))),) + ev[5:]


def many(events, rng, horizon):
    """About 30% of the events of one job kind each repeated in place."""
    kind = rng.choice(("release", "complete", "job_dropped"))
    return [e for ev in events for e in (
        (ev, ev) if ev[0] == kind and rng.random() < 0.3 else (ev,))]


def hosting_complete_again(events, rng, horizon):
    """A completion of a job whose ghost hosted, repeated 1 to 40 ticks
    later with GHOST_STRETCH more ticks run: a rule that reads the first
    completion finds the job within its budget, one that reads the last
    finds it over."""
    hosts = {slot[1:3] for ev in events if ev[0] == "sched"
             for slot in ev[4] if slot[0] == "G"}
    return one(lambda ev: ev[0] == "complete" and ev[3:5] in hosts,
               lambda ev, rng, horizon: later(
                   ev[:5] + (ev[5] + GHOST_STRETCH,) + ev[6:], rng, horizon),
               True)(events, rng, horizon)


def lone_level_change_last(events, rng, horizon):
    """A level change, the only one at its instant, moved after the other
    events of that instant."""
    times = [ev[1] for ev in events if ev[0] in LEVEL_CHANGES]
    return one(lambda ev: ev[0] in LEVEL_CHANGES and times.count(ev[1]) == 1,
               lambda ev, *_: ev)(events, rng, horizon)


LEVEL_CHANGES = ("budget_exceeded", "re_enabled")
GHOST_STRETCH = 16  # ticks: no budget exceeds it when periods are at most 16
ON_TIME = "a job is judged by its last completion, and one by its deadline " \
    "that crosses no suspension of its task leaves the verdict as it was"
RELEGATED = "a job need not complete if its deadline is past the horizon " \
    "or its task is suspended before it"
CORRUPTIONS = {
    "repeat-release": (one(of("release"), again, True), "periodicity", None),
    "repeat-complete": (one(of("complete"), again, True), "feasibility",
                        ON_TIME),
    "dup-arrival-drop": (one(arrival_drop, again, True), "periodicity", None),
    "move-release": (one(of("release"), later), "periodicity", None),
    "move-complete": (one(of("complete"), later), "feasibility", ON_TIME),
    "move-arrival-drop": (one(arrival_drop, later), "periodicity", None),
    "shift-release": (one(of("release"), shifted), "periodicity", None),
    "delete-release": (one(of("release")), "periodicity", None),
    "delete-complete": (one(of("complete")), "feasibility", RELEGATED),
    "delete-other": (one(lambda ev: ev[0] not in ("sched", "release",
                                                  "complete")),
                     "periodicity", "no checker reads requests or chain "
                     "records, a job stays relegated without its imcr drop, "
                     "and a level change can change no verdict"),
    "k-release": (one(of("release"), renumbered), "periodicity", None),
    "k-complete": (one(of("complete"), renumbered), "feasibility",
                   RELEGATED + ", and a job is judged by its last completion"),
    "many": (many, "periodicity", "completions and imcr drops repeated in "
             "place leave their jobs' verdicts as they were"),
    "flip-rem": (one(of("complete"), lambda ev, *_: ev[:8] + (1 - ev[8],)),
                 "feasibility", None),
    "hosting-complete-again": (hosting_complete_again, "reclaim", None),
    "stretch-ghost": (one(lambda ev: ev[0] == "sched" and any(
        slot[0] == "G" for slot in ev[4]),
        lambda ev, *_: ev[:3] + (ev[3] + GHOST_STRETCH,) + ev[4:]),
                      "reclaim", None),
    "woken-short": (one(lambda ev: ev[0] == "re_enabled" and ev[3],
                        lambda ev, *_: ev[:3] + (ev[3][1:],)),
                    "feasibility", None),
    "level-change-last": (lone_level_change_last, None, "a level change "
                          "counts at its instant, wherever it sits in it"),
}


EQUIV_PARAMS = GenParams(n_tasks=5, levels=3, total_util=1.0, m=2,
                         period_range=(8, 16), ensure_overrunnable=True)
EQUIV_HORIZON = 600


@cache
def equiv_set(seed):
    """A schedulable generated set, its platform and its analysis, by seed:
    the first of the draws seed + 1000, seed + 2000, ... that the analysis
    accepts."""
    draws = range(seed + 1000, seed + 100_000, 1000)
    return next(schedulable_sets(lambda _: EQUIV_PARAMS, draws))[1:]


def equiv_run(set_seed, sc_seed, protocol, plan):
    """equiv_set(set_seed)'s set and analysis, an overrun scenario with
    these decrease requests, and its clean trace under protocol."""
    ts, platform, res = equiv_set(set_seed)
    sc = gen_scenario(ts, EQUIV_HORIZON, sc_seed, exec_model="overrun",
                      overrun_prob=0.5, dmcr_plan=plan)
    return ts, res, sc, simulate(ts, platform, res.assignment, res.wcrt_table,
                                 sc, ProtocolConfig(protocol))


# single-processor sets, where ghost slots host rem-jobs most often
GHOST_PARAMS = GenParams(n_tasks=4, levels=2, total_util=0.6, m=1,
                         period_range=(8, 16), ensure_overrunnable=True)


# walk_set's seeds: the first WALK_SETS give multiprocessor sets, the next
# GHOST_WALK_SETS single-processor ones, so that the reclaim rule is also
# judged on corrupted traces whose ghost slots host
WALK_SETS, GHOST_WALK_SETS = 20, 8


@cache
def walk_set(seed):
    """A generated set, its platform, and the analysis's priorities and
    bounds, or the deadline-monotonic fallback's where the analysis refuses
    the set: 3-8 tasks on 2-3 processors with 2-3 levels for a seed below
    WALK_SETS, and a set in GHOST_PARAMS's shape for any other."""
    rng = random.Random(seed)
    while True:
        m, levels = rng.randint(2, 3), rng.randint(2, 3)
        params = GHOST_PARAMS if seed >= WALK_SETS else GenParams(
            n_tasks=rng.randint(3, 8), levels=levels, total_util=0.5 * m,
            m=m, period_range=(8, 16), ensure_overrunnable=True)
        try:
            ts, platform = gen_taskset(params, rng.randrange(10**6))
        except Infeasible:
            continue
        return ts, platform, *prepare_run(ts, platform, True, True)[:2]


def references(trace, ts, wt=None, sc=None):
    """The reports check_run(trace, ts, wt, sc) must give, in its order."""
    refs = {"feasibility": ref_feasibility(trace, ts)}
    if sc is not None:
        refs["periodicity"] = ref_periodicity(trace, ts, sc)
    if wt is not None:
        refs["response"] = ref_response_bounds(trace, wt, ts)
    if trace.protocol == "wcet-reclaim":
        refs["reclaim"] = ref_reclaim(trace, ts)
    return refs


def walk_run(set_seed, sc_seed, protocol, horizon, gap):
    """walk_set(set_seed)'s set and bounds, an overrun scenario with a
    decrease request every `gap` ticks, and its clean trace under
    protocol."""
    ts, platform, pa, wt = walk_set(set_seed)
    plan = tuple((t, 1 + (t // gap) % (ts.levels - 1))
                 for t in range(gap, horizon, gap))
    sc = gen_scenario(ts, horizon, sc_seed, exec_model="overrun",
                      overrun_prob=0.5, dmcr_plan=plan)
    return ts, wt, sc, simulate(ts, platform, pa, wt, sc,
                                ProtocolConfig(protocol))


def assert_matches_references(set_seed, sc_seed, protocol, horizon, gap,
                              seed, rows):
    """One walk, alone or in check_run, gives the references' reports on
    walk_set(set_seed)'s run with the table's `rows` applied in order."""
    ts, wt, sc, clean = walk_run(set_seed, sc_seed, protocol, horizon, gap)
    rng, events = random.Random(seed), clean.events
    for name in rows:
        events = CORRUPTIONS[name][0](list(events), rng, horizon)
    trace = retrace(clean, events)
    refs = references(trace, ts, wt, sc)
    assert list(check_run(trace, ts, wt, sc).items()) == list(refs.items())
    assert list(check_run(trace, ts).items()) == list(
        references(trace, ts).items())
    assert check_feasibility(trace, ts) == refs["feasibility"]
    assert check_periodicity(trace, ts, sc) == refs["periodicity"]
    assert check_response_bounds(trace, wt, ts) == refs["response"]


def rows_of(*names, min_size=0, max_size=8):
    """Lists of the table's rows, drawn from `names` or from all of it."""
    return st.lists(st.sampled_from(list(names or CORRUPTIONS)),
                    min_size=min_size, max_size=max_size)


# a cached set in walk_set's shapes, an overrun scenario with decrease
# requests every `gap` ticks, a protocol and a seed for the rows' picks
RUNS = dict(set_seed=st.integers(0, WALK_SETS + GHOST_WALK_SETS - 1),
            sc_seed=st.integers(0, 10**6),
            protocol=st.sampled_from(PROTOCOLS),
            horizon=st.integers(150, 400), gap=st.integers(8, 30),
            seed=st.integers(0, 10**6))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(**RUNS, rows=rows_of("shift-release", "flip-rem", "delete-complete",
                            "dup-arrival-drop", "repeat-release",
                            "stretch-ghost", "woken-short", max_size=1))
def test_checkers_match_linear_scan_references(set_seed, sc_seed, protocol,
                                               horizon, gap, seed, rows):
    # a clean run, or one release shifted or repeated, one completion's rem
    # flipped or dropped, one arrival drop repeated, one ghost stretched or
    # one woken list a task short
    assert_matches_references(set_seed, sc_seed, protocol, horizon, gap,
                              seed, rows)


HOSTING_RUNS = 8


@cache
def hosting_runs():
    """walk_run's arguments for the first HOSTING_RUNS wcet-reclaim runs, on
    walk_set's single-processor sets and scenario seeds 0, 1, ..., in
    which a ghost slot hosts a rem-job."""
    runs = []
    for sc_seed, set_seed in product(range(100), range(
            WALK_SETS, WALK_SETS + GHOST_WALK_SETS)):
        run = dict(set_seed=set_seed, sc_seed=sc_seed,
                   protocol="wcet-reclaim", horizon=300, gap=20)
        if any(slot[0] == "G" for ev in walk_run(**run)[3].kind("sched")
               for slot in ev[4]):
            runs.append(run)
            if len(runs) == HOSTING_RUNS:
                return runs
    raise AssertionError(f"{len(runs)} hosting runs, {HOSTING_RUNS} wanted")


def hosting_run(i, seed):
    """The i-th of hosting_runs(), with this seed for the rows' picks."""
    return dict(hosting_runs()[i], seed=seed)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(run=st.one_of(st.fixed_dictionaries(RUNS), st.builds(
    hosting_run, st.integers(0, HOSTING_RUNS - 1), st.integers(0, 10**6))),
       rows=rows_of("repeat-release", "repeat-complete",
                    "hosting-complete-again", min_size=1, max_size=3))
def test_checkers_judge_a_job_by_its_last_repeated_event(run, rows):
    # jobs released or completed again later, in their place in time: each
    # checker judges a job by its last such event, as the references do,
    # on walk_set's runs and on wcet-reclaim runs whose ghosts host, where
    # a hosting job's last completion can carry another c than its first
    assert_matches_references(**run, rows=rows)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(**RUNS, rows=rows_of("move-release", "move-complete",
                            "move-arrival-drop", min_size=1, max_size=3))
def test_checkers_match_references_on_late_events_in_time_order(
        set_seed, sc_seed, protocol, horizon, gap, seed, rows):
    # releases, completions and arrival drops moved later, after the events
    # of their new instant: the walk has judged many jobs and arrivals by
    # then, as a trace read from a file would have it
    assert_matches_references(set_seed, sc_seed, protocol, horizon, gap,
                              seed, rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(**RUNS, rows=rows_of())
def test_checkers_match_references_on_many_anomalies_in_time_order(
        set_seed, sc_seed, protocol, horizon, gap, seed, rows):
    # any of the table's rows, in any number up to 8 and any order: the same
    # job is often hit again after its verdict was taken back
    assert_matches_references(set_seed, sc_seed, protocol, horizon, gap,
                              seed, rows)


def test_each_corruption_alone_is_flagged_by_its_report():
    # each row edits clean runs of every protocol and a run whose ghosts
    # host: its report, where the run has it, flags every edit, or at least
    # one if the row says why an edit can go unseen; a row with no report
    # changes no report
    plan = tuple((t, 1 + (t // 15) % 2) for t in range(15, EQUIV_HORIZON, 15))
    runs = [(ts, res.wcrt_table, sc, clean) for protocol in PROTOCOLS
            for ts, res, sc, clean in (equiv_run(1, 7, protocol, plan),
                                       equiv_run(2, 11, protocol, plan))]
    ts, _, clean, _ = next(run for run in ghost_runs("wcet-reclaim") if run[3])
    runs.append((ts, None, None, clean))
    for name, (edit, report, unseen) in CORRUPTIONS.items():
        seen = []  # per edit, whether it was flagged
        for ts, wt, sc, clean in runs:
            before = check_run(clean, ts, wt, sc)
            assert all(rep.ok for rep in before.values())
            for seed in range(3):
                events = edit(list(clean.events), random.Random(seed),
                              clean.horizon)
                after = check_run(retrace(clean, events), ts, wt, sc)
                if events != clean.events and report in (None, *after):
                    seen.append(after != before if report is None
                                else not after[report].ok)
        assert seen and (not any(seen) if report is None else
                         any(seen) if unseen else all(seen)), (name, seen)


def test_check_run_stays_linear_when_every_event_of_a_kind_repeats():
    # the long run of tests/long_run.py at horizon 10,000, about 12k events:
    # with every release, every completion or every drop repeated in place,
    # check_run takes at most 20 times its time on the clean trace (median
    # of 3 each; a walk that rebuilt a job or arrival from the events before
    # each repeat took hundreds of times), and gives the references' reports
    ts, platform, pa, wt, sc = long_run.inputs(10_000)
    clean = simulate(ts, platform, pa, wt, sc, ProtocolConfig("naive"))
    assert len(clean.events) > 10_000
    base = statistics.median(long_run.timed(check_run, clean, ts, wt, sc)
                             for _ in range(3))
    for kind in ("release", "complete", "job_dropped"):
        trace = retrace(clean, long_run.repeated(clean.events, kind))
        assert len(trace.events) > len(clean.events) + 1000
        took = statistics.median(long_run.timed(check_run, trace, ts, wt, sc)
                                 for _ in range(3))
        assert took <= 20 * base, (kind, took, base)
        assert check_run(trace, ts, wt, sc) == references(trace, ts, wt, sc)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_checkers_leave_no_reference_cycles(protocol):
    # what a walk holds is freed when it returns: a cycle (a closure that
    # refers to itself, say) would keep it until the cyclic collector ran,
    # and make that collector run more often
    plan = tuple((t, 1 + (t // 15) % 2) for t in range(15, EQUIV_HORIZON, 15))
    ts, res, sc, clean = equiv_run(2, 11, protocol, plan)
    events = list(clean.events)
    ev = next(ev for ev in events if ev[0] == "complete")
    late = retrace(clean, in_time(events, ev[:1] + (ev[1] + 20,) + ev[2:]))
    gc.collect()
    gc.disable()
    try:
        for trace in (clean, late):
            check_run(trace, ts, res.wcrt_table, sc)
            check_feasibility(trace, ts)
            check_periodicity(trace, ts, sc)
            check_response_bounds(trace, res.wcrt_table, ts)
        assert gc.collect() == 0
    finally:
        gc.enable()



@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_woken_list_missing_a_task_fails_feasibility(protocol):
    plan = tuple((t, 1 + (t // 20) % 2) for t in range(20, EQUIV_HORIZON, 20))
    ts, _, _, clean = equiv_run(1, 7, protocol, plan)
    assert check_feasibility(clean, ts).ok
    where = [i for i, ev in enumerate(clean.events)
             if ev[0] == "re_enabled" and ev[3]]
    assert len(where) >= 3
    for i in (where[0], where[-1]):
        events = list(clean.events)
        ev = events[i]
        events[i] = ev[:3] + (ev[3][1:],)
        trace = retrace(clean, events)
        rep = check_feasibility(trace, ts)
        assert rep.violations == [(
            "WrongWokenList", None, None, f"re-enabled {list(ev[3][1:])} at "
            f"{ev[1]}, expected {list(ev[3])}")]
        assert rep == ref_feasibility(trace, ts)
        assert check_run(trace, ts)["feasibility"] == rep


def ghost_runs(protocol, hosting_runs=8):
    """(set, analysis, trace, whether a ghost slot hosted a rem-job) of
    generated single-processor runs under `protocol`, until `hosting_runs`
    runs had a hosting ghost; fails the test if the seeds run out first."""
    hosting = 0
    for _, ts, platform, res in schedulable_sets(lambda _: GHOST_PARAMS,
                                                 range(1, 200)):
        horizon = 20 * max(t.T for t in ts.tasks)
        for sc_seed in range(10):
            sc = gen_scenario(ts, horizon, sc_seed, exec_model="basic")
            trace = simulate(ts, platform, res.assignment, res.wcrt_table, sc,
                             ProtocolConfig(protocol))
            hosts = any(slot[0] == "G" for ev in trace.kind("sched")
                        for slot in ev[4])
            hosting += hosts
            yield ts, res, trace, hosts
        if hosting >= hosting_runs:
            return


def test_stretched_ghost_fails_reclaim():
    for ts, _, clean, hosts in ghost_runs("wcet-reclaim"):
        rep = reclaim(clean, ts)
        assert rep.ok, rep.violations
        assert bool(rep.checked) == hosts
        if not hosts:
            continue
        for pick in range(3):
            trace = retrace(clean, CORRUPTIONS["stretch-ghost"][0](
                list(clean.events), random.Random(pick), clean.horizon))
            rep = reclaim(trace, ts)
            assert rep.violations, pick
            assert {v[0] for v in rep.violations} == {"ReclaimOverBudget"}


def test_wcrt_simulate_ghosts_host_within_their_windows():
    # a wcrt-simulate ghost of job (task, k), completed at f in mode lv,
    # hosts only within [f, r + R_task(lv)); no checker judges this window.
    # A ghost seldom still hosts when its window ends (first in the 17th
    # run with a hosting ghost), so the search goes on past 8 such runs
    for ts, res, trace, _ in ghost_runs("wcrt-simulate", 32):
        done = {(ev[3], ev[4]): ev for ev in trace.kind("complete")}
        for ev in trace.kind("sched"):
            for slot in ev[4]:
                if slot[0] != "G":
                    continue
                comp = done[slot[1], slot[2]]
                end = comp[6] + res.wcrt_table[(slot[1], comp[2])]
                assert comp[1] <= ev[1] and ev[3] <= end, (ev, comp, end)


def test_periodicity_counts_repeats_like_reference():
    # job (1, 1) is released twice, (2, 1) released and dropped, (2, 2)
    # dropped twice; (1, 7) and (2, 9) have no arrival, (1, 7) is seen twice
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("job_dropped", 0, 1, 2, 1, "suspended_arrival"),
        ("release", 0, 1, 2, 1, 10),
        ("release", 0, 1, 1, 1, 10),
        ("job_dropped", 3, 1, 2, 9, "suspended_arrival"),
        ("release", 5, 1, 1, 7, 15),
        ("job_dropped", 5, 1, 1, 7, "suspended_arrival"),
        ("budget_exceeded", 5, 2, 1, 1),
        ("release", 10, 2, 1, 2, 20),
        ("job_dropped", 10, 2, 2, 2, "suspended_arrival"),
        ("job_dropped", 10, 2, 2, 2, "suspended_arrival"),
    ], horizon=20)
    rep = check_periodicity(trace, ts, sc)
    assert rep == ref_periodicity(trace, ts, sc)
    assert rep.violations == [
        ("ArrivalMultiplicity", 1, 1, "2 releases and 0 arrival drops"),
        ("ArrivalMultiplicity", 2, 1, "1 releases and 1 arrival drops"),
        ("ArrivalMultiplicity", 2, 2, "0 releases and 2 arrival drops"),
        ("FabricatedRelease", 1, 7, "release without a scenario arrival"),
        ("FabricatedDrop", 2, 9, "arrival drop without a scenario arrival"),
        ("FabricatedDrop", 1, 7, "arrival drop without a scenario arrival"),
    ]


def test_periodicity_counts_release_then_arrival_drop():
    # job (2, 1) is released, then its arrival is dropped as well
    ts = two_crit_set()
    trace = mk_trace([
        ("release", 0, 1, 1, 1, 10),
        ("release", 0, 1, 2, 1, 10),
        ("job_dropped", 0, 1, 2, 1, "suspended_arrival"),
        ("release", 10, 1, 1, 2, 20),
        ("release", 10, 1, 2, 2, 20),
    ], horizon=20)
    sc = periodic_scenario(ts)
    rep = check_periodicity(trace, ts, sc)
    assert rep == ref_periodicity(trace, ts, sc)
    assert rep.violations == [("ArrivalMultiplicity", 2, 1,
                               "1 releases and 1 arrival drops")]



@pytest.mark.parametrize("events, violations", [
    # job (2, 2) is released twice before (2, 1) is sighted at all
    ([("release", 0, 1, 1, 1, 10), ("release", 10, 1, 1, 2, 20),
      ("release", 10, 1, 2, 2, 20), ("release", 10, 1, 2, 2, 20)],
     [("ArrivalMultiplicity", 2, 1, "0 releases and 0 arrival drops"),
      ("ArrivalMultiplicity", 2, 2, "2 releases and 0 arrival drops")]),
    # job (2, 2) is released at 10, then an overrun at 10 suspends task 2
    ([("release", 0, 1, 1, 1, 10), ("release", 0, 1, 2, 1, 10),
      ("release", 10, 1, 1, 2, 20), ("release", 10, 1, 2, 2, 20),
      ("budget_exceeded", 10, 2, 1, 2)],
     [("ReleaseWhileSuspended", 2, 2, "released at 10 at level 2 > L=1")]),
], ids=["number-sighted-twice-out-of-order", "suspended-after-release"])
def test_periodicity_hand_traces_match_the_reference(events, violations):
    ts = two_crit_set()
    sc = periodic_scenario(ts)
    trace = mk_trace(events, horizon=20)
    assert list(check_run(trace, ts, sc=sc).items()) == list(
        references(trace, ts, sc=sc).items())
    assert check_periodicity(trace, ts, sc).violations == violations


@pytest.mark.parametrize("horizon", [0, 10, 20, 25])
def test_checkers_match_references_at_interval_boundaries(horizon):
    # task 2 (L=1) is suspended over [10, 20); task 1 never is
    ts = two_crit_set()
    wt = {(1, 1): 4, (1, 2): 6, (2, 1): 7}
    level_changes = [("budget_exceeded", 10, 2, 1, 9),
                     ("re_enabled", 20, 1, (2,))]
    for tid, r, rel_d, f, rem in product(
            (1, 2), range(8, 23), (1, 2, 3, 12), (None, 0, 1, 2, 10, 13),
            (0, 1)):
        d = r + rel_d
        events = level_changes + [("release", r, 1, tid, 1, d)]
        if f is not None:
            events.append(("complete", r + f, 1, tid, 1, f, r, d, rem))
        trace = mk_trace(events, horizon=horizon)
        sc = Scenario(horizon=horizon, arrivals={tid: (r,)},
                      exec_times={tid: (1,)}, dmcr_requests=())
        case = (tid, r, d, f, rem)
        assert check_feasibility(trace, ts) == ref_feasibility(trace, ts), case
        assert (check_periodicity(trace, ts, sc)
                == ref_periodicity(trace, ts, sc)), case
        assert (check_response_bounds(trace, wt, ts)
                == ref_response_bounds(trace, wt, ts)), case
