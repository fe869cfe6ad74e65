"""Golden digests: fixed inputs must keep producing byte-identical traces
and experiment CSVs.

Each case generates a task set and a scenario from fixed seeds, simulates
it, and compares the sha256 of `Trace.to_jsonl()` with the stored digest.
Together the cases exercise every protocol and rem order, level-decrease
requests with chain aborts and stalls, rem-jobs and ghost slots, and forced
runs of unschedulable sets that miss deadlines. The QUEUE_CASES aim at the
simulator's arrival, deadline and dispatch queues: several tasks arriving
at one instant, arrivals exactly at the horizon, more processors than
tasks, forced constrained-deadline runs whose deadlines fall on suspension
and re-enable instants, and runs of the bench roundtrip's size (n=12, m=4,
~10k events); `test_queue_cases_hit_their_targets` checks that they still
do. A refactor must leave every digest unchanged; a change meant to alter
the bytes regenerates them and says why.
"""

import hashlib
import io

import pytest

from mcsched import cli, gen, sim
from mcsched.model import Scenario, validate_scenario

HORIZON = 400
REQUESTS = {
    "none": (),
    "one": ((200, 1),),
    "to2": ((100, 2), (150, 1), (300, 2)),
    "every20": tuple((t, 1) for t in range(20, HORIZON, 20)),
}
SCHEDULABLE = gen.GenParams(n_tasks=6, levels=3, total_util=1.0, m=2,
                            period_range=(8, 16), ensure_overrunnable=True)
FORCED = gen.GenParams(n_tasks=6, levels=2, total_util=1.8, m=2,
                       period_range=(8, 16), ensure_overrunnable=True)

# (set seed, scenario seed, protocol, rem order, requests, exec model,
#  force, sha256 of to_jsonl)
CASES = [
    (8, 56, "drop", "crit-edf", "every20", "uniform", False,
     "65ef03f65a712c670ac45630562bffb191fa0691e0480703b6c554229cead0c1"),
    (8, 56, "drop", "edf", "every20", "uniform", False,
     "d5022be8f2aee186703bccbd0a7998581781ed9b800c91f6de3b6089f3c4bc9f"),
    (8, 56, "drop", "srpt", "every20", "uniform", False,
     "2b38e06056e7af7d7782bb32fcbc8d1d386a4613e468e583da55be1b931232a0"),
    (8, 56, "naive", "crit-edf", "every20", "uniform", False,
     "0374f8230b2ac0dc3151dd4f83f360affe2d1928c0603453576e86819a8d760c"),
    (8, 56, "naive", "edf", "every20", "uniform", False,
     "051b68145bbac2214382f068684c7c0d835410298eabf119b29c408a5113134b"),
    (8, 56, "naive", "srpt", "every20", "uniform", False,
     "ba72aa8e68417b071e638e54c35ba752577725b5ba82ed886b94ae0809e3aac7"),
    (8, 56, "wcet-reclaim", "crit-edf", "every20", "uniform", False,
     "51ae6d0b541a5ea0581b539bcc501f804814b7965bbc7f1ff1429852d8dead56"),
    (8, 56, "wcet-reclaim", "edf", "every20", "uniform", False,
     "2cf4b93a2bfafb0e89b655686375f8117cdc8a7eb8ef61ef4ab8e9606bc057d4"),
    (8, 56, "wcet-reclaim", "srpt", "every20", "uniform", False,
     "7b21faaf4944e21b5c6b773c2c800488b36ac79261067c426c113d7742d908f6"),
    (8, 56, "wcrt-simulate", "crit-edf", "every20", "uniform", False,
     "6231a80a633b00932a148176b6b2aa846d61d4cbb17d29ae0ee2d3f4459936e1"),
    (8, 56, "wcrt-simulate", "edf", "every20", "uniform", False,
     "9e86677e6278145b4c65ddc9773a26465cf1fd16e953fc88c45e74d8d7e4c7c8"),
    (8, 56, "wcrt-simulate", "srpt", "every20", "uniform", False,
     "7f4892b871b2a604aa08688e287dde30f97f1238a73b160eb19814691ee0ae5a"),
    (11, 77, "drop", "crit-edf", "every20", "uniform", False,
     "eb864c203a7bed10ff28f2cd8f36bc46f4e289ae5e63456a96d99f0c16885620"),
    (11, 77, "naive", "edf", "every20", "uniform", False,
     "97262207587009422626da51db4857184fbf81c587ac2ac3173dcf7b224a0983"),
    (11, 77, "wcet-reclaim", "srpt", "every20", "uniform", False,
     "fabd29884e0ee0bab284225b9bace89073511ea321e2a25841cfd00b66e26ef7"),
    (11, 77, "wcrt-simulate", "crit-edf", "every20", "uniform", False,
     "1aa1f9b88cd0157afd481ae5dfe483cae30e68fa45110e0d8d36e6719f36ed29"),
    (1, 7, "drop", "crit-edf", "none", "overrun", False,
     "e8dd72c30b40a0f8d9c3973ee4da65519583a604d7d6f5c5f63d87af3a4a37cf"),
    (1, 8, "naive", "edf", "one", "overrun-then-calm", False,
     "a2da5c195bcce3c84911a2ac85f6cc0c12e4a4a4414fbcd35eb8dad1fbed8b2b"),
    (1, 9, "wcet-reclaim", "srpt", "to2", "basic", False,
     "774892efbf5fff3fe0f5b79b0a666655074d8ef8f01b13ee5650ea81a62ec30b"),
    (1, 10, "wcrt-simulate", "crit-edf", "every20", "uniform", False,
     "11ae4e77310e2116bf304d2866a511b5af9012bfe87a4eb2e389d41e0960d0e5"),
    (3, 21, "naive", "edf", "none", "overrun", False,
     "3a7f118e0d98473542826be46b62e355cfff612cce232178d62853dbd1393a99"),
    (3, 22, "wcet-reclaim", "srpt", "one", "overrun-then-calm", False,
     "18ae44a3ab235005286d483fddc4eeae5c44a800364b62b6cd5231a37f4d4a93"),
    (3, 23, "wcrt-simulate", "crit-edf", "to2", "basic", False,
     "c82fa676b1b44746c35dc8528a1addf0ee9c7de977e49ae78fa27a22a4995434"),
    (3, 24, "drop", "edf", "every20", "uniform", False,
     "e1ee6c25c3753ea7e9dccb9845728da53b100a82379dec88311b93a4fe246c9c"),
    (4, 28, "wcet-reclaim", "srpt", "none", "overrun", False,
     "206f93850811b4d2ba22bd625fcccc5ab96023bd143ab92b1498dac0d20c7418"),
    (4, 29, "wcrt-simulate", "crit-edf", "one", "overrun-then-calm", False,
     "20bf118d9f27ca52ec2956219b05c131489bda531b9eee40ed9eb79e941a3ba3"),
    (4, 30, "drop", "edf", "to2", "basic", False,
     "f9f765965d01012935ffb2ed34d92b7cea074d6c8b3fdf4f6a2231fa8609bca8"),
    (4, 31, "naive", "srpt", "every20", "uniform", False,
     "b8b8cecbbac6f9ed3b97a8f883c650b4086d13140f0ff69adc3381f4ef344471"),
    (10, 70, "wcrt-simulate", "crit-edf", "none", "overrun", False,
     "fae48e29a670f1ba13d9418ed4056591a0c448f41c4e2731fd27b968ab650762"),
    (10, 71, "drop", "edf", "one", "overrun-then-calm", False,
     "9bef33bfb656cccc7ef04dc4dafcce0bcd54ab3d17e44427f5dadda55aca6a66"),
    (10, 72, "naive", "srpt", "to2", "basic", False,
     "3110fa9f56e99181beacffe54f9fa6829fe56a4e505082021920e43dc1c12f99"),
    (10, 73, "wcet-reclaim", "crit-edf", "every20", "uniform", False,
     "2d26100bae1f2a7ed29a4b14c21003441b2de4297b1a4f0e942d51a741e7c55a"),
    (6, 1, "drop", "edf", "every20", "overrun", False,
     "e865e2faedc4635ce795fc31cb318a4c65d091c7bb8c2b46b4c49875624da81b"),
    (6, 2, "naive", "srpt", "every20", "overrun", False,
     "42f5d47e59d7469d723f9cbb54bc5b195638a2ac4dc32a46aaaef74f35ef0e79"),
    (6, 3, "wcet-reclaim", "crit-edf", "every20", "overrun", False,
     "2b291db5551751b84efa7f0aa8472ddcbe31ed9c340e2c7d1f7d7ec115f4abcd"),
    (6, 4, "wcrt-simulate", "edf", "every20", "overrun", False,
     "a43ab858c5e47e4fe6936a758210db2ed8492bfa3270789fab97e4cb5fb56a32"),
    (3, 21, "drop", "srpt", "every20", "overrun", False,
     "e2bd461558140f8fc948bca4b26259c7ed6b9237f22229239de052894946468c"),
    (3, 21, "naive", "crit-edf", "every20", "overrun", False,
     "0d3bd4df0718367d91e0e88bd4c0d4b6b93c2e01e5dc6b4c130f4522e0b8fb95"),
    (3, 21, "wcet-reclaim", "edf", "every20", "overrun", False,
     "56db4cc808f69a6b6ee26044b948c208a95e9f0a9ca1b88fcfd64be52b54e68e"),
    (3, 21, "wcrt-simulate", "srpt", "every20", "overrun", False,
     "9b21de49b150e2bf59b89617f9cf95b8fb59a30d96b7281386bbc77460628564"),
    (1, 1, "naive", "crit-edf", "none", "basic", True,
     "8e62225ae88d9235576f79f51531eb028d9d754b391632db12356018d89d49be"),
    (1, 5, "wcet-reclaim", "edf", "one", "uniform", True,
     "3a492add50ac8d5f7848bccf7e8219b247d2b86d4528dbfe776997bf2c13ec8a"),
    (2, 2, "drop", "crit-edf", "one", "basic", True,
     "ce8da3d3805b83dfb5901478aa78bd46e2b1d38aab5125f402d3514ff5017b56"),
    (2, 4, "wcet-reclaim", "srpt", "every20", "uniform", True,
     "2eab490250e6f2037e95603129938fdaa0a6503f4bcaf2c789d8f998ff07c3c2"),
    (2, 6, "naive", "srpt", "none", "overrun", True,
     "427988577a4f04afffea090b555339e96ae1f5e9e429fa199f55a6ae58da5971"),
    (3, 3, "wcrt-simulate", "edf", "every20", "overrun", True,
     "74a5b1d4a2b6a75ca26d0da2664c3080721e64d083f1ff671192690a9b0b3804"),
]

QUEUE_PARAMS = {
    # periods 8-12: strictly periodic arrivals coincide often
    "periodic": gen.GenParams(n_tasks=6, levels=3, total_util=1.0, m=2,
                              period_range=(8, 12), ensure_overrunnable=True),
    # unschedulable, deadlines down to half the period
    "constrained": gen.GenParams(n_tasks=6, levels=3, total_util=1.9, m=2,
                                 period_range=(8, 16), deadline_factor=0.5,
                                 ensure_overrunnable=True),
    # more processors than tasks
    "idle": gen.GenParams(n_tasks=3, levels=3, total_util=1.2, m=4,
                          period_range=(8, 16), ensure_overrunnable=True),
    # the bench roundtrip's shape
    "roundtrip": gen.GenParams(n_tasks=12, levels=3, total_util=1.6, m=4,
                               ensure_overrunnable=True),
}
QUEUE_REQUESTS = {
    "none": (),
    "every20": REQUESTS["every20"],
    "every13": tuple((t, 1 + (t // 13) % 2) for t in range(13, HORIZON, 13)),
    "every30": tuple((t, 1) for t in range(30, 6000, 30)),
}

# (params, set seed, scenario seed, exec model, requests, arrivals,
#  horizon, force, protocol, rem order, sha256 of to_jsonl); arrivals are
# "sporadic" as generated, "sync" strictly periodic from 0, or "at-horizon"
# strictly periodic with every task's last arrival exactly at the horizon
QUEUE_CASES = [
    ("periodic", 1, 3, "overrun", "every20", "sync", 400, False,
     "wcet-reclaim", "crit-edf",
     "c04c7acc748c99829f3f2dcc3673697b539187f0d5a3ed867bfed210ee14844a"),
    ("periodic", 3, 4, "overrun", "every13", "at-horizon", 400, False,
     "naive", "srpt",
     "131caba67da17e2b28b7bc525d3bfd450f323d5495d8e8564905530942a0c117"),
    ("periodic", 4, 5, "uniform", "every20", "at-horizon", 480, False,
     "wcrt-simulate", "edf",
     "9a5c5ca76a3bdb9055f38d5800c2030b6afd2321c415296450a710f62da35bb6"),
    ("periodic", 1, 6, "basic", "none", "sync", 400, False,
     "drop", "crit-edf",
     "1ebde0aac9c5753c4ded5836639a843bd31e5d4433a4ae39c6189e05524f7664"),
    ("constrained", 2, 1, "basic", "every13", "sporadic", 400, True,
     "drop", "crit-edf",
     "d509cb52e818c433ed6c3d229c31278dee11e41e75cf7387f0a0ccf44d935507"),
    ("constrained", 2, 1, "basic", "every20", "sporadic", 400, True,
     "naive", "edf",
     "43e5fb2ee8129a06ecdd2bffdc03426de9b3ac781813408beb7cef9d83f95015"),
    ("constrained", 2, 14, "basic", "every20", "sporadic", 400, True,
     "drop", "srpt",
     "34817621d439dee5b3c6e9b5af1cc0d923c19fe9bc9e4fa89d0638a5daf486c7"),
    ("constrained", 7, 2, "basic", "every13", "sporadic", 400, True,
     "wcet-reclaim", "crit-edf",
     "9d7cdd2b32d2a30a4cd3428da5f4898d758dca424985619affcc7d1e8827f3e7"),
    ("idle", 1, 1, "overrun", "every20", "sporadic", 400, False,
     "wcet-reclaim", "crit-edf",
     "b996f785f57ff2982873e53eaf7d5b5234671bdfc959df07354c2ebf42ca1f22"),
    ("idle", 2, 2, "overrun", "every13", "sync", 400, False,
     "drop", "edf",
     "376e86b54ea189df15d56dd1bcb26272b7eed4cc02b27916775243f477e1ce77"),
    ("roundtrip", 1, 1, "overrun", "every30", "sporadic", 6000, False,
     "wcet-reclaim", "crit-edf",
     "63f1f58bc784cd9ec9c5ba13c78ae7dfc69c668c52927ecf13a396019778b3c9"),
    ("roundtrip", 2, 2, "overrun", "every30", "sporadic", 6000, False,
     "wcrt-simulate", "srpt",
     "86bd0ef13002da14b08ec1a4e5a9ef47abeb8a9974ce6eebcca8e67bb86246cb"),
    ("roundtrip", 4, 3, "overrun", "every30", "sporadic", 6000, False,
     "naive", "crit-edf",
     "ce04b99cf90e9071b3697f52c4fc969a5757eb1964faadf89074268740cf2f60"),
]


def _periodic(ts, sc, at_horizon):
    """sc with strictly periodic arrivals; execution times cycle through
    sc's."""
    arrivals, execs = {}, {}
    for task in ts.tasks:
        first = sc.horizon % task.T if at_horizon else 0
        times = tuple(range(first, sc.horizon + 1, task.T))
        cs = sc.exec_times[task.id]
        arrivals[task.id] = times
        execs[task.id] = tuple(cs[i % len(cs)] for i in range(len(times)))
    return validate_scenario(
        Scenario(sc.horizon, arrivals, execs, sc.dmcr_requests), ts)


def _queue_trace(params, set_seed, sc_seed, exec_model, requests, arrivals,
                 horizon, force, protocol, rem_order):
    ts, platform = gen.gen_taskset(QUEUE_PARAMS[params], set_seed)
    pa, wt, res = cli._prepare_run(ts, platform, True, force)
    assert res.schedulable != force
    sc = gen.gen_scenario(ts, horizon, sc_seed, exec_model=exec_model,
                          dmcr_plan=QUEUE_REQUESTS[requests])
    if arrivals != "sporadic":
        sc = _periodic(ts, sc, arrivals == "at-horizon")
    return sim.simulate(ts, platform, pa, wt, sc,
                        sim.ProtocolConfig(protocol, rem_order))


EXPERIMENT_SPEC = {
    "gen": {"n_tasks": 5, "levels": 3, "total_util": 1.0, "m": 2,
            "period_range": [8, 16], "ensure_overrunnable": True},
    "scenarios": 4,
    "horizon": 300,
    "seed": 5,
    "exec_model": "overrun",
    "dmcr": [[100, 1], [200, 2], [250, 1]],
}
EXPERIMENT_DIGEST = "677ccc0725df60a9b12dbd4baefcd64f169e60086080083f9c1b2bd9d7513c95"

POINT_KINDS = {"release", "job_dropped", "complete", "budget_exceeded",
               "dmcr_requested", "chain_advance", "chain_aborted",
               "re_enabled", "deadline_miss", "chain_stalled"}


def _trace(set_seed, sc_seed, protocol, rem_order, requests, exec_model,
           force):
    ts, platform = gen.gen_taskset(FORCED if force else SCHEDULABLE, set_seed)
    pa, wt, res = cli._prepare_run(ts, platform, True, force)
    assert res.schedulable != force
    sc = gen.gen_scenario(ts, HORIZON, sc_seed, exec_model=exec_model,
                          dmcr_plan=REQUESTS[requests])
    return sim.simulate(ts, platform, pa, wt, sc,
                        sim.ProtocolConfig(protocol, rem_order))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c[:7])))
def test_trace_bytes_and_roundtrip(case):
    trace = _trace(*case[:7])
    text = trace.to_jsonl()
    assert _digest(text) == case[7]
    assert sim.trace_from_jsonl(text).events == trace.events


@pytest.mark.parametrize("case", QUEUE_CASES,
                         ids=lambda c: "-".join(map(str, c[:10])))
def test_queue_trace_bytes_and_roundtrip(case):
    trace = _queue_trace(*case[:10])
    text = trace.to_jsonl()
    assert _digest(text) == case[10]
    assert sim.trace_from_jsonl(text).events == trace.events


def test_queue_cases_hit_their_targets():
    hit = set()
    for case in QUEUE_CASES:
        trace = _queue_trace(*case[:10])
        ts, _ = gen.gen_taskset(QUEUE_PARAMS[case[0]], case[1])
        ev = trace.events
        per_instant = {}
        for e in ev:
            if e[0] == "release":
                per_instant[e[1]] = per_instant.get(e[1], 0) + 1
        if max(per_instant.values()) >= 3:
            hit.add("same-instant releases")
        if any(e[0] in ("release", "job_dropped") and e[1] == trace.horizon
               for e in ev):
            hit.add("arrival at the horizon")
        if trace.m >= len(ts.tasks) and any(
                e[0] == "sched" and 0 < len(e[4]) < trace.m for e in ev):
            hit.add("idle processors beside busy ones")
        if len(ts.tasks) >= 12 and len(ev) >= 9000:
            hit.add("roundtrip-sized")
        if any(t.D < t.T for t in ts.tasks):
            done = {(e[3], e[4]): e[1] for e in ev if e[0] == "complete"}
            at = {kind: {e[1] for e in ev if e[0] == kind}
                  for kind in ("budget_exceeded", "re_enabled")}
            if any(e[0] == "deadline_miss" and e[1] in at["budget_exceeded"]
                   for e in ev):
                hit.add("miss at a suspension instant")
            if any(e[0] == "release" and e[5] in at["re_enabled"]
                   and done.get((e[3], e[4]), e[5] + 1) > e[5] for e in ev):
                hit.add("unfinished deadline at a re-enable instant")
    assert hit == {"same-instant releases", "arrival at the horizon",
                   "idle processors beside busy ones", "roundtrip-sized",
                   "miss at a suspension instant",
                   "unfinished deadline at a re-enable instant"}


def test_cases_cover_every_event_kind_and_slot_code():
    kinds, codes = set(), set()
    for case in CASES:
        for ev in _trace(*case[:7]).events:
            kinds.add(ev[0])
            if ev[0] == "sched":
                codes.update(slot[0] for slot in ev[4])
    assert kinds == POINT_KINDS | {"sched"}
    assert codes == {"J", "R", "G"}


def test_experiment_csv_bytes():
    out = io.StringIO()
    cli.run_experiment(EXPERIMENT_SPEC, out)
    assert _digest(out.getvalue()) == EXPERIMENT_DIGEST
