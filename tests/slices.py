"""The runner behind the tests that simulate and judge generated runs.

`generated_sets` draws task sets by seed, `schedulable_sets` keeps those
the analysis accepts, and `run_slice` simulates every scenario of every set
under every protocol and judges each trace with `verify.check_run`, keeping
the tallies the tests assert on. A new slice of generated runs is one
`run_slice` call.
"""

from collections import Counter
from dataclasses import dataclass, field

import pytest

from mcsched.analysis import opa_assign
from mcsched.gen import Infeasible, gen_taskset
from mcsched.sim import PROTOCOLS, ProtocolConfig, simulate
from mcsched.verify import check_run

MAX_SAMPLES = 5  # violations kept per report for the failure message


@dataclass
class SweepStats:
    sets: int = 0
    runs: int = 0
    trips: int = 0
    checked: Counter = field(default_factory=Counter)  # per report name
    violations: dict = field(default_factory=dict)  # report name -> samples
    rem_sum: Counter = field(default_factory=Counter)  # per protocol
    rem_count: Counter = field(default_factory=Counter)


def generated_sets(params_of, seeds):
    """(seed, set, platform) for each seed whose set, generated from
    params_of(seed), exists; fails the test when the seeds run out."""
    for seed in seeds:
        try:
            ts, platform = gen_taskset(params_of(seed), seed)
        except Infeasible:
            continue
        yield seed, ts, platform
    pytest.fail("task set generation stalled")


def schedulable_sets(params_of, seeds):
    """(seed, set, platform, analysis) for each generated set the analysis
    accepts; fails the test when the seeds run out."""
    for seed, ts, platform in generated_sets(params_of, seeds):
        res = opa_assign(ts, platform.m)
        if res.schedulable:
            yield seed, ts, platform, res


def run_slice(sets, scenarios_of, protocols=PROTOCOLS) -> SweepStats:
    """Simulate each scenario of scenarios_of(seed, ts) under each protocol
    for each (seed, set, platform, analysis) of sets, and judge every trace
    with check_run. Violation samples are keyed (seed, scenario index,
    protocol)."""
    stats = SweepStats()
    cfgs = {p: ProtocolConfig(protocol=p) for p in protocols}
    for seed, ts, platform, res in sets:
        stats.sets += 1
        for i, sc in enumerate(scenarios_of(seed, ts)):
            for protocol in protocols:
                trace = simulate(ts, platform, res.assignment,
                                 res.wcrt_table, sc, cfgs[protocol])
                stats.runs += 1
                reports = check_run(trace, ts, res.wcrt_table, sc)
                for name, rep in reports.items():
                    stats.checked[name] += rep.checked
                    samples = stats.violations.setdefault(name, [])
                    if not rep.ok and len(samples) < MAX_SAMPLES:
                        samples.append(((seed, i, protocol),
                                        rep.violations[:3]))
                for ev in trace.events:  # one scan for trips and rem-jobs
                    kind = ev[0]
                    if kind == "budget_exceeded":
                        stats.trips += 1
                    elif kind == "complete" and ev[8]:
                        stats.rem_sum[protocol] += ev[1] - ev[6]
                        stats.rem_count[protocol] += 1
    return stats
