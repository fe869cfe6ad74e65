import gc
import statistics
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsched.gen import GenParams, gen_scenario
from mcsched.model import MCTask, Scenario, TaskSet, id_key
from mcsched.sim import PROTOCOLS, ProtocolConfig, Trace, simulate
from mcsched.verify import (FeasibilityReport, PeriodicityReport,
                            ReclaimReport, ResponseReport,
                            check_feasibility, check_periodicity,
                            check_response_bounds, check_run,
                            compute_l_intervals, metrics)
import long_run
from oracles import (ParameterTooLarge, brute_force_workload,
                     count_basic_scenarios, enumerate_basic_scenarios)
from slices import schedulable_sets
from walk_diff import in_time


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
# the bisecting checkers against linear-scan references
#
# The references below keep the original per-job scans over every level
# interval; the checkers must produce the same reports, violation order and
# counters included, on clean and on corrupted traces.


def ref_level_at(intervals, t):
    for s, e, lv in reversed(intervals):
        if t >= s:
            return lv
    return intervals[0][2]


def _suspension_starts(intervals, crit):
    """Instants, in increasing order, at which a task with criticality crit
    becomes suspended."""
    starts = []
    prev = 1
    for s, e, lv in intervals:
        if lv > crit >= prev:
            starts.append(s)
        prev = lv
    return starts


def ref_feasibility(trace, ts):
    rep = FeasibilityReport()
    intervals = compute_l_intervals(trace)
    by_id = {t.id: t for t in ts.tasks}
    releases, completes, dropped = {}, {}, {}
    for ev in trace.events:
        if ev[0] == "release":
            releases[(ev[3], ev[4])] = ev
        elif ev[0] == "complete":
            completes[(ev[3], ev[4])] = ev
        elif ev[0] == "job_dropped":
            dropped[(ev[3], ev[4])] = ev[5]
    for key, ev in completes.items():
        if key not in releases:
            rep.violations.append(("CompletionWithoutRelease", key[0], key[1],
                                   f"completed at {ev[1]} but never released"))
    for key, why in dropped.items():
        if why == "imcr" and key not in releases:
            rep.violations.append(("DropWithoutRelease", key[0], key[1],
                                   "imcr-dropped but never released"))
    level = 1
    for ev in trace.events:
        if ev[0] == "re_enabled":
            woken = tuple(sorted((t.id for t in ts.tasks
                                  if ev[2] <= t.L < level), key=id_key))
            if ev[3] != woken:
                rep.violations.append((
                    "WrongWokenList", None, None, f"re-enabled {list(ev[3])} "
                    f"at {ev[1]}, expected {list(woken)}"))
        if ev[0] in ("budget_exceeded", "re_enabled"):
            level = ev[2]
    for (tid, k), rel in releases.items():
        task = by_id.get(tid)
        if task is None:
            rep.violations.append(("UnknownTask", tid, k, "release of unknown task"))
            continue
        r, d = rel[1], rel[5]
        comp = completes.get((tid, k))
        starts = _suspension_starts(intervals, task.L)
        if comp is not None:
            f, rem = comp[1], comp[8]
            suspended_within = any(r < u < f for u in starts)
            rep.checked += 1
            if rem:
                if not suspended_within:
                    rep.violations.append((
                        "RemFlagInconsistent", tid, k,
                        f"flagged rem but task never suspended in ({r}, {f})"))
                else:
                    rep.exempt_rem += 1
            elif suspended_within:
                rep.violations.append((
                    "RemFlagInconsistent", tid, k,
                    f"task suspended inside [{r}, {f}) but job not flagged rem"))
            elif f > d:
                rep.violations.append((
                    "DeadlineMiss", tid, k, f"completed at {f}, deadline {d}"))
            continue
        if (tid, k) in dropped:
            rep.exempt_dropped += 1
        elif d > trace.horizon:
            rep.spanning += 1
        else:
            rep.checked += 1
            if any(r < u <= d for u in starts):
                rep.exempt_rem += 1
            else:
                rep.violations.append((
                    "DeadlineMiss", tid, k,
                    f"released at {r}, deadline {d}, never completed"))
    return rep


def ref_periodicity(trace, ts, sc):
    rep = PeriodicityReport()
    intervals = compute_l_intervals(trace)
    by_id = {t.id: t for t in ts.tasks}
    releases, arrival_drops = {}, {}
    for ev in trace.events:
        if ev[0] == "release":
            releases.setdefault((ev[3], ev[4]), []).append(ev)
        elif ev[0] == "job_dropped" and ev[5] == "suspended_arrival":
            arrival_drops.setdefault((ev[3], ev[4]), []).append(ev)
    expected = set()
    for tid, arrivals in sc.arrivals.items():
        task = by_id.get(tid)
        if task is None:
            continue
        for k, a in enumerate(arrivals, 1):
            if a > sc.horizon:
                continue
            expected.add((tid, k))
            rep.checked += 1
            rels = releases.get((tid, k), [])
            drops = arrival_drops.get((tid, k), [])
            if len(rels) + len(drops) != 1:
                rep.violations.append((
                    "ArrivalMultiplicity", tid, k,
                    f"{len(rels)} releases and {len(drops)} arrival drops"))
                continue
            lv = ref_level_at(intervals, a)
            if rels:
                ev = rels[0]
                if ev[1] != a:
                    rep.violations.append((
                        "ShiftedRelease", tid, k,
                        f"released at {ev[1]}, arrival at {a}"))
                elif ev[5] != a + task.D:
                    rep.violations.append((
                        "WrongDeadline", tid, k,
                        f"deadline {ev[5]}, expected {a + task.D}"))
                elif task.L < lv:
                    rep.violations.append((
                        "ReleaseWhileSuspended", tid, k,
                        f"released at {a} at level {lv} > L={task.L}"))
            else:
                ev = drops[0]
                if ev[1] != a:
                    rep.violations.append((
                        "ShiftedDrop", tid, k,
                        f"arrival drop at {ev[1]}, arrival at {a}"))
                elif task.L >= lv:
                    rep.violations.append((
                        "DropWhileEnabled", tid, k,
                        f"arrival dropped at {a} at level {lv} <= L={task.L}"))
    for key in releases:
        if key not in expected:
            rep.violations.append((
                "FabricatedRelease", key[0], key[1],
                "release without a scenario arrival"))
    for key in arrival_drops:
        if key not in expected:
            rep.violations.append((
                "FabricatedDrop", key[0], key[1],
                "arrival drop without a scenario arrival"))
    return rep


def ref_response_bounds(trace, wt, ts):
    rep = ResponseReport()
    intervals = compute_l_intervals(trace)
    by_id = {t.id: t for t in ts.tasks}
    for ev in trace.events:
        if ev[0] != "complete" or ev[8]:
            continue
        tid, k, f, r = ev[3], ev[4], ev[1], ev[6]
        task = by_id.get(tid)
        if task is None:
            continue
        span = None
        for s, e, lv in intervals:
            if s <= r < e:
                span = (s, e, lv)
                break
        if span is None or f > span[1]:
            rep.spanning += 1
            continue
        bound = wt.get((tid, span[2]))
        if bound is None or span[2] > task.L:
            rep.unscoped += 1
            continue
        rep.checked += 1
        if f - r > bound:
            rep.violations.append((
                "ResponseBoundExceeded", tid, k,
                f"response {f - r} > bound {bound} at level {span[2]}"))
    return rep


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


def retrace(trace, events):
    """trace with these events in place of its own."""
    return Trace(events, trace.horizon, trace.m, trace.levels, trace.protocol,
                 trace.rem_order)


GHOST_STRETCH = 16  # ticks: no budget exceeds it when periods are at most 16


def corrupt(events, how, pick):
    """A copy of events with one corruption of the job `pick` selects: its
    release moved one tick (later for pick >= 0, earlier otherwise), its
    completion's rem flag flipped, its completion dropped, its release
    (pick >= 0) or arrival drop (otherwise, if there is one) duplicated, or
    a sched record holding its ghost slot stretched by GHOST_STRETCH."""
    events = list(events)
    if how == "none":
        return events
    if how == "stretch":
        where = [i for i, ev in enumerate(events) if ev[0] == "sched"
                 and any(slot[0] == "G" for slot in ev[4])]
        i = where[abs(pick) % len(where)]
        ev = events[i]
        events[i] = ev[:3] + (ev[3] + GHOST_STRETCH,) + ev[4:]
        return events
    if how == "dup":
        where = [i for i, ev in enumerate(events)
                 if ev[0] == "job_dropped" and ev[5] == "suspended_arrival"]
        if pick >= 0 or not where:
            where = [i for i, ev in enumerate(events) if ev[0] == "release"]
        i = where[abs(pick) % len(where)]
        events.insert(i + 1, events[i])
        return events
    kind = "release" if how == "shift" else "complete"
    where = [i for i, ev in enumerate(events) if ev[0] == kind]
    i = where[abs(pick) % len(where)]
    ev = events[i]
    if how == "shift":
        events[i] = ev[:1] + (ev[1] + (1 if pick >= 0 else -1),) + ev[2:]
    elif how == "flip":
        events[i] = ev[:8] + (1 - ev[8],)
    else:
        del events[i]
    return events


@settings(derandomize=True, max_examples=160, deadline=None)
@given(set_seed=st.integers(1, 12), sc_seed=st.integers(0, 10**6),
       protocol=st.sampled_from(PROTOCOLS), gap=st.integers(8, 30),
       how=st.sampled_from(["none", "shift", "flip", "drop", "dup"]),
       pick=st.integers(-10**6, 10**6))
def test_checkers_match_linear_scan_references(set_seed, sc_seed, protocol,
                                               gap, how, pick):
    plan = tuple((t, 1 + (t // gap) % (EQUIV_PARAMS.levels - 1))
                 for t in range(gap, EQUIV_HORIZON, gap))
    ts, res, sc, clean = equiv_run(set_seed, sc_seed, protocol, plan)
    trace = retrace(clean, corrupt(clean.events, how, pick))
    # dozens of level intervals, so that bisection has work to do
    assert len(compute_l_intervals(trace)) >= 12
    feas = check_feasibility(trace, ts)
    per = check_periodicity(trace, ts, sc)
    resp = check_response_bounds(trace, res.wcrt_table, ts)
    assert feas == ref_feasibility(trace, ts)
    assert per == ref_periodicity(trace, ts, sc)
    assert resp == ref_response_bounds(trace, res.wcrt_table, ts)
    # every shift and dup fails periodicity, every flip feasibility; a drop
    # can go unseen (a spanning or relegated job), a clean run passes
    if how in ("shift", "dup"):
        assert not per.ok
    elif how == "flip":
        assert not feas.ok
    elif how == "none":
        assert feas.ok and per.ok and resp.ok
    # one shared index gives the same reports
    reports = {"feasibility": feas, "periodicity": per, "response": resp}
    got = check_run(trace, ts, res.wcrt_table, sc)
    assert (got.pop("reclaim", None) is None) == (protocol != "wcet-reclaim")
    assert got == reports and list(got) == list(reports)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(set_seed=st.integers(1, 12), sc_seed=st.integers(0, 10**6),
       protocol=st.sampled_from(PROTOCOLS),
       kind=st.sampled_from(["release", "complete"]),
       pick=st.integers(0, 10**6), later=st.integers(17, 40))
def test_checkers_judge_a_job_by_its_last_repeated_event(
        set_seed, sc_seed, protocol, kind, pick, later):
    # a job released or completed twice, the second time `later` ticks on
    # (a re-release with its deadline at the first release, a completion
    # past any deadline): each checker, alone or in check_run, judges the
    # job by that second event, as the references do
    ts, res, sc, clean = equiv_run(set_seed, sc_seed, protocol,
                                   ((EQUIV_HORIZON // 2, 1),))
    events = list(clean.events)
    where = [i for i, ev in enumerate(events) if ev[0] == kind]
    i = where[pick % len(where)]
    ev = events[i]
    again = ev[:1] + (ev[1] + later,) + ev[2:]
    if kind == "release":
        again = again[:5] + (ev[1],)
    events.insert(i + 1, again)
    trace = retrace(clean, events)
    feas = check_feasibility(trace, ts)
    per = check_periodicity(trace, ts, sc)
    assert feas == ref_feasibility(trace, ts)
    assert per == ref_periodicity(trace, ts, sc)
    got = check_run(trace, ts, res.wcrt_table, sc)
    assert got["feasibility"] == feas and got["periodicity"] == per
    assert got["response"] == check_response_bounds(trace, res.wcrt_table, ts)
    if protocol == "wcet-reclaim":
        # the repeat changes only the completion's time, which the reclaim
        # rule does not read
        assert got["reclaim"] == check_run(clean, ts)["reclaim"]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(set_seed=st.integers(1, 12), sc_seed=st.integers(0, 10**6),
       protocol=st.sampled_from(PROTOCOLS),
       kind=st.sampled_from(["release", "complete", "job_dropped"]),
       move=st.booleans(), pick=st.integers(0, 10**6),
       later=st.integers(2, 40))
def test_checkers_match_references_on_late_events_in_time_order(
        set_seed, sc_seed, protocol, kind, move, pick, later):
    # an event `later` ticks on, moved there or repeated there, in its place
    # in time, after the events of its new instant: a release after its
    # arrival, a completion or drop of a job closed long before. The walk
    # has judged many jobs and arrivals by then, as a trace read from a file
    # would have it
    plan = tuple((t, 1 + (t // 15) % 2) for t in range(15, EQUIV_HORIZON, 15))
    ts, res, sc, clean = equiv_run(set_seed, sc_seed, protocol, plan)
    events = list(clean.events)
    where = [i for i, ev in enumerate(events) if ev[0] == kind]
    i = where[pick % len(where)]
    ev = events[i]
    if move:
        del events[i]
    events = in_time(events, ev[:1] + (ev[1] + later,) + ev[2:])
    assert [e[1] for e in events] == sorted(e[1] for e in events)
    assert len(events) > 500
    trace = retrace(clean, events)
    feas = check_feasibility(trace, ts)
    per = check_periodicity(trace, ts, sc)
    resp = check_response_bounds(trace, res.wcrt_table, ts)
    assert feas == ref_feasibility(trace, ts)
    assert per == ref_periodicity(trace, ts, sc)
    assert resp == ref_response_bounds(trace, res.wcrt_table, ts)
    if kind == "release":
        assert not per.ok
    got = check_run(trace, ts, res.wcrt_table, sc)
    got.pop("reclaim", None)
    assert got == {"feasibility": feas, "periodicity": per, "response": resp}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(set_seed=st.integers(1, 12), sc_seed=st.integers(0, 10**6),
       protocol=st.sampled_from(PROTOCOLS), base=st.integers(0, 10**6),
       edits=st.lists(st.tuples(
           st.sampled_from(["release", "complete", "job_dropped"]),
           st.booleans(), st.integers(0, 20), st.integers(0, 40)),
           min_size=2, max_size=30))
def test_checkers_match_references_on_many_anomalies_in_time_order(
        set_seed, sc_seed, protocol, base, edits):
    # 2-30 events of neighbouring jobs, each repeated or moved `later` ticks
    # on, in its place in time: the same job is often hit again after its
    # verdict was taken back, and several verdicts are taken back at once
    plan = tuple((t, 1 + (t // 15) % 2) for t in range(15, EQUIV_HORIZON, 15))
    ts, res, sc, clean = equiv_run(set_seed, sc_seed, protocol, plan)
    events = list(clean.events)
    for kind, move, near, later in edits:
        where = [i for i, ev in enumerate(events) if ev[0] == kind]
        if not where:
            continue
        i = where[(base + near) % len(where)]
        ev = events[i]
        if move:
            del events[i]
        events = in_time(events, ev[:1] + (min(ev[1] + later, EQUIV_HORIZON),)
                         + ev[2:])
    assert [e[1] for e in events] == sorted(e[1] for e in events)
    trace = retrace(clean, events)
    feas = check_feasibility(trace, ts)
    per = check_periodicity(trace, ts, sc)
    resp = check_response_bounds(trace, res.wcrt_table, ts)
    assert feas == ref_feasibility(trace, ts)
    assert per == ref_periodicity(trace, ts, sc)
    assert resp == ref_response_bounds(trace, res.wcrt_table, ts)
    got = check_run(trace, ts, res.wcrt_table, sc)
    got.pop("reclaim", None)
    assert got == {"feasibility": feas, "periodicity": per, "response": resp}


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
        assert check_run(trace, ts, wt, sc) == {
            "feasibility": ref_feasibility(trace, ts),
            "periodicity": ref_periodicity(trace, ts, sc),
            "response": ref_response_bounds(trace, wt, ts)}


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


# single-processor sets, where ghost slots host rem-jobs most often
GHOST_PARAMS = GenParams(n_tasks=4, levels=2, total_util=0.6, m=1,
                         period_range=(8, 16), ensure_overrunnable=True)


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
        for pick in (0, 5, -2):
            trace = retrace(clean, corrupt(clean.events, "stretch", pick))
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
