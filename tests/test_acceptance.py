"""Acceptance gate: ten end-to-end properties tying the analysis, the
simulator, the checkers, and the generators together.

The heavy soundness sweep (500 schedulable task sets x 100 scenarios x 4
protocols) runs once as a session fixture; the response-bound, ghost
accounting, and protocol-benefit criteria read its aggregates. The tests
that read it are marked `slow`, so `pytest -m "not slow"` skips the sweep.
conftest.py prints one PASS/FAIL line per criterion at the end of the run.
"""

import io
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import islice

import pytest

from mcsched.analysis import opa_assign, wcrt
from mcsched.experiment import CSV_HEADER, run_experiment
from mcsched.gen import (GenParams, Infeasible, SplitMix64, child_seed,
                         gen_scenario, gen_taskset)
from mcsched.model import MCTask
from mcsched.sim import PROTOCOLS, ProtocolConfig, simulate
from mcsched.verify import check_feasibility, check_run, compute_l_intervals
from oracles import (brute_force_workload, count_basic_scenarios,
                     enumerate_basic_scenarios, uniprocessor_rta, workload_ci,
                     workload_nc)

MAX_SAMPLES = 5  # violations kept for the failure message


# ---------------------------------------------------------------------------
# shared soundness sweep (criteria 3, 5, 6, 10)

N_SETS = 500
N_SCENARIOS = 100


@dataclass
class SweepStats:
    sets: int = 0
    runs: int = 0
    trips: int = 0
    checked: Counter = field(default_factory=Counter)  # per report name
    violations: dict = field(default_factory=dict)  # report name -> samples
    rem_sum: Counter = field(default_factory=Counter)  # per protocol
    rem_count: Counter = field(default_factory=Counter)


def _sweep_params(idx):
    n = (3, 4, 5, 6, 7, 8)[idx % 6]
    m = 2 + (idx % 2)
    levels = (2, 3, 4)[idx % 3]
    per_proc = (0.40, 0.45, 0.50, 0.55)[idx % 4]
    return GenParams(n_tasks=n, levels=levels, total_util=per_proc * m, m=m,
                     period_range=(8, 12), ensure_overrunnable=True)


def _schedulable_sets(params_of, stall):
    """(seed, set, platform, analysis) for each seed below stall whose set,
    generated from params_of(seed), the analysis accepts."""
    for seed in range(1, stall):
        try:
            ts, platform = gen_taskset(params_of(seed), seed)
        except Infeasible:
            continue
        res = opa_assign(ts, platform.m)
        if res.schedulable:
            yield seed, ts, platform, res
    pytest.fail("task set generation stalled")


@pytest.fixture(scope="session")
def sweep():
    stats = SweepStats()
    cfgs = {p: ProtocolConfig(protocol=p) for p in PROTOCOLS}
    for draw, ts, platform, res in islice(
            _schedulable_sets(_sweep_params, 20 * N_SETS), N_SETS):
        stats.sets += 1
        horizon = 20 * max(t.T for t in ts.tasks)
        for i in range(N_SCENARIOS):
            model = "overrun" if i % 2 else "uniform"
            plan = ((horizon // 2, 1),) if i % 3 == 0 else ()
            sc = gen_scenario(ts, horizon, child_seed(draw, i),
                              exec_model=model, dmcr_plan=plan)
            for protocol in PROTOCOLS:
                trace = simulate(ts, platform, res.assignment,
                                 res.wcrt_table, sc, cfgs[protocol])
                stats.runs += 1
                reports = check_run(trace, ts, res.wcrt_table, sc)
                for name, rep in reports.items():
                    stats.checked[name] += rep.checked
                    samples = stats.violations.setdefault(name, [])
                    if not rep.ok and len(samples) < MAX_SAMPLES:
                        samples.append(((draw, i, protocol), rep.violations[:3]))
                for ev in trace.events:  # one scan for trips and rem-jobs
                    kind = ev[0]
                    if kind == "budget_exceeded":
                        stats.trips += 1
                    elif kind == "complete" and ev[8]:
                        stats.rem_sum[protocol] += ev[1] - ev[6]
                        stats.rem_count[protocol] += 1
    return stats


# ---------------------------------------------------------------------------
# criterion 1: closed-form workload bounds dominate the brute-force oracle


def test_criterion_01_oracle_dominance():
    rng = SplitMix64(20260819)
    for _ in range(200):
        T = rng.randint(2, 12)
        D = rng.randint(1, T)
        L = rng.randint(1, 3)
        cs = [rng.randint(1, D)]
        for _ in range(1, L):
            cs.append(min(cs[-1] + rng.randint(0, 3), D))
        cs += [cs[-1]] * (3 - L)
        task = MCTask(id=1, T=T, D=D, L=L, C=tuple(cs))
        for level in range(1, L + 1):
            for delta in range(0, 41):
                nc = workload_nc(task, delta, level)
                ci = workload_ci(task, delta, level)
                assert nc >= brute_force_workload(task, delta, level,
                                                  carry_in=False), \
                    (task, delta, level)
                assert ci >= brute_force_workload(task, delta, level,
                                                  carry_in=True), \
                    (task, delta, level)


# ---------------------------------------------------------------------------
# criterion 2: m=1 bounds coincide with the classical uniprocessor recurrence


def test_criterion_02_uniprocessor_degeneration():
    def lo(tid, T, D, C):
        return MCTask(id=tid, T=T, D=D, L=1, C=(C,))

    cases = [
        (lo(9, 10, 10, 3), [lo(1, 10, 10, 2)], 5),
        (lo(9, 40, 40, 3), [lo(1, 3, 3, 1), lo(2, 5, 5, 2)], 14),
        (lo(9, 12, 12, 1), [lo(1, 4, 4, 2)], 3),
    ]
    for task, hp, expected in cases:
        ours = wcrt(task, hp, 1, 1)
        classical = uniprocessor_rta(task, hp, 1)
        assert ours == classical == expected, (task.id, ours, classical)


# ---------------------------------------------------------------------------
# criteria 3, 5, 6, 10: the big sweep and its read-outs


@pytest.mark.slow
def test_criterion_03_soundness_sweep(sweep):
    assert sweep.sets >= N_SETS
    assert sweep.runs >= N_SETS * N_SCENARIOS * 4
    assert sweep.trips > 1000, "sweep exercised almost no budget overruns"
    assert sweep.violations["feasibility"] == []
    assert sweep.violations["periodicity"] == []


@pytest.mark.slow
def test_criterion_05_response_bound_preservation(sweep):
    assert sweep.violations["response"] == []


@pytest.mark.slow
def test_criterion_06_reclaim_budget_accounting(sweep):
    assert sweep.checked["reclaim"] > 250, "too few ghost slots hosted rem-jobs"
    assert sweep.violations["reclaim"] == []


@pytest.mark.slow
def test_criterion_10_protocol_benefit_report(sweep):
    means = {}
    for protocol in ("naive", "wcet-reclaim", "wcrt-simulate"):
        count = sweep.rem_count[protocol]
        assert count > 1000, f"{protocol} completed too few rem-jobs"
        means[protocol] = sweep.rem_sum[protocol] / count
    assert means["wcet-reclaim"] <= means["naive"], means
    assert means["wcrt-simulate"] <= means["naive"], means


# ---------------------------------------------------------------------------
# criterion 4: exhaustive basic scenarios on tiny schedulable sets


def test_criterion_04_exhaustive_basic_scenarios():
    def tiny(seed):
        return GenParams(n_tasks=2 + (seed % 2), levels=2 + (seed % 2),
                         total_util=0.5 * (1 + seed % 2), m=1 + (seed % 2),
                         period_range=(4, 8), ensure_overrunnable=True)

    sets = []
    for _, ts, platform, res in _schedulable_sets(tiny, 2000):
        horizon = 2 * max(t.T for t in ts.tasks)
        arrivals = {t.id: tuple(range(0, horizon, t.T)) for t in ts.tasks}
        counts = {tid: len(v) for tid, v in arrivals.items()}
        if sum(counts.values()) > 12:
            continue
        if count_basic_scenarios(ts, counts) > 729:
            continue
        sets.append((ts, platform, res, horizon))
        if len(sets) == 50:
            break

    checked = 0
    for ts, platform, res, horizon in sets:
        for sc in enumerate_basic_scenarios(ts, horizon):
            for protocol in PROTOCOLS:
                trace = simulate(ts, platform, res.assignment,
                                 res.wcrt_table, sc,
                                 ProtocolConfig(protocol=protocol))
                for name, rep in check_run(trace, ts, res.wcrt_table,
                                           sc).items():
                    assert rep.ok, (name, ts, sc, protocol)
                checked += 1
    assert checked >= 4000


# ---------------------------------------------------------------------------
# criterion 7: level-decrease chains re-enable safely or abort


def _dmcr_sets(want=20):
    params = GenParams(n_tasks=5, levels=3, total_util=1.0, m=2,
                       period_range=(8, 14), ensure_overrunnable=True)
    # group B needs a task able to trip level 2 -> 3
    sets = ((ts, platform, res, seed) for seed, ts, platform, res
            in _schedulable_sets(lambda seed: params, 2000)
            if any(t.L == 3 and t.C[2] > t.C[1] for t in ts.tasks))
    return list(islice(sets, want))


def _with_request(ts, platform, res, base):
    """Place the decrease request right after the scenario's first trip."""
    dry = simulate(ts, platform, res.assignment, res.wcrt_table, base,
                   ProtocolConfig(protocol="drop"))
    trips = dry.kind("budget_exceeded")
    t_req = trips[0][1] + 1 if trips else base.horizon // 3
    return t_req, replace(base, dmcr_requests=((t_req, 1),))


def _check_dmcr_trace(trace, ts):
    re_ev = trace.kind("re_enabled")
    ab_ev = trace.kind("chain_aborted")
    assert len(re_ev) <= 1 and len(ab_ev) <= 1
    assert not (re_ev and ab_ev), "one chain resolved twice"
    be_times = [e[1] for e in trace.kind("budget_exceeded")]
    for ab in ab_ev:
        assert ab[1] in be_times, "abort without an IMCR at that instant"
    if re_ev:
        t_re, target, woken = re_ev[0][1], re_ev[0][2], set(re_ev[0][3])
        first_adv = min(e[1] for e in trace.kind("chain_advance"))
        assert not any(first_adv <= t < t_re for t in be_times), \
            "IMCR crossed an active chain without aborting it"
        if not any(t > t_re for t in be_times):
            ends = [iv for iv in compute_l_intervals(trace) if iv[1] == t_re]
            assert len(ends) == 1
            h = ends[0][2]
            assert h > target
            for miss in trace.kind("deadline_miss"):
                assert not (miss[3] in woken and miss[1] >= t_re), \
                    (miss, "re-enabled task missed after re-enable")
                assert miss[5] < h, (miss, "task above h missed a deadline")
    return bool(re_ev), bool(ab_ev)


def test_criterion_07_dmcr_validity():
    sets = _dmcr_sets()
    scenarios = 0
    re_enabled_a = aborted_b = 0
    for ts, platform, res, seed in sets:
        horizon = 20 * max(t.T for t in ts.tasks)
        # group A: one overrun, then calm demand, then the request
        for i in range(8):
            base = gen_scenario(ts, horizon, child_seed(seed, i),
                                exec_model="overrun-then-calm")
            _, sc = _with_request(ts, platform, res, base)
            cfg = ProtocolConfig(protocol=PROTOCOLS[i % 4])
            trace = simulate(ts, platform, res.assignment, res.wcrt_table,
                             sc, cfg)
            assert check_feasibility(trace, ts).ok
            fired, _ = _check_dmcr_trace(trace, ts)
            re_enabled_a += fired
            scenarios += 1
        # group B: same shape plus a second overrun timed to cross the chain
        for i in range(4):
            base = gen_scenario(ts, horizon, child_seed(seed, 100 + i),
                                exec_model="overrun-then-calm")
            t_req, sc = _with_request(ts, platform, res, base)
            crosser = next(
                ((t, k) for t in ts.tasks
                 if t.L == 3 and t.C[2] > t.C[1]
                 for k, a in enumerate(base.arrivals[t.id]) if a > t_req),
                None)
            if crosser is None:
                continue
            task, k = crosser
            times = list(sc.exec_times[task.id])
            times[k] = task.wcet(3)
            sc = replace(sc, exec_times={**sc.exec_times, task.id: tuple(times)})
            trace = simulate(ts, platform, res.assignment, res.wcrt_table,
                             sc, ProtocolConfig(protocol="drop"))
            assert check_feasibility(trace, ts).ok
            _, aborted = _check_dmcr_trace(trace, ts)
            aborted_b += aborted
            scenarios += 1
    assert scenarios >= 200
    assert re_enabled_a >= 100, "too few chains completed to be meaningful"
    assert aborted_b >= 40, "too few chains were crossed by an IMCR"


# ---------------------------------------------------------------------------
# criterion 8: the assignment verdict ignores candidate order


def test_criterion_08_opa_order_independence():
    built = 0
    seed = 0
    verdicts_seen = set()
    while built < 100:
        seed += 1
        assert seed < 1000
        m = 1 + (seed % 3)
        try:
            ts, platform = gen_taskset(GenParams(
                n_tasks=3 + (seed % 5), levels=1 + (seed % 3),
                total_util=(0.45 + 0.08 * (seed % 4)) * m, m=m,
                period_range=(8, 16)), seed)
        except Infeasible:
            continue
        built += 1
        ids = [t.id for t in ts.tasks]
        verdicts = set()
        shuffler = random.Random(child_seed(9000, seed))
        for _ in range(20):
            order = ids[:]
            shuffler.shuffle(order)
            verdicts.add(opa_assign(ts, platform.m, order=order).schedulable)
        assert len(verdicts) == 1, (seed, ts)
        verdicts_seen |= verdicts
    assert verdicts_seen == {True, False}, \
        "order-independence checked only one verdict kind"


# ---------------------------------------------------------------------------
# criterion 9: byte-identical traces and CSV on re-run


def test_criterion_09_byte_determinism():
    ts, platform = gen_taskset(GenParams(
        n_tasks=5, levels=3, total_util=1.0, m=2, period_range=(8, 14),
        ensure_overrunnable=True), seed=11)
    res = opa_assign(ts, platform.m)
    assert res.schedulable
    horizon = 20 * max(t.T for t in ts.tasks)
    sc = gen_scenario(ts, horizon, seed=5, exec_model="overrun",
                      dmcr_plan=((horizon // 2, 1),))
    cfg = ProtocolConfig(protocol="wcrt-simulate", rem_order="srpt")
    first = simulate(ts, platform, res.assignment, res.wcrt_table, sc, cfg)
    second = simulate(ts, platform, res.assignment, res.wcrt_table, sc, cfg)
    assert first.to_jsonl() == second.to_jsonl()

    spec = {"gen": {"n_tasks": 5, "levels": 3, "total_util": 1.0, "m": 2,
                    "period_range": [8, 14], "ensure_overrunnable": True},
            "scenarios": 5, "seed": 11, "exec_model": "overrun"}
    buf1, buf2 = io.StringIO(), io.StringIO()
    run_experiment(dict(spec), buf1)
    run_experiment(dict(spec), buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 * 5
