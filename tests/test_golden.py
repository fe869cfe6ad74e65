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
do. `test_taskset_bytes` pins `gen_taskset` itself, failed draws included,
and `test_analysis_bytes` pins `opa_assign`. `test_sweep_batch_events`
pins the event lists of a batch shaped like the acceptance sweep, every
protocol and rem order, where suspended tasks' arrivals are dropped at
many instants that hold nothing else. A refactor must leave every
digest unchanged; a change meant to alter the bytes regenerates them and
says why.
"""

import gc
import hashlib
import io
import json
import tracemalloc
from itertools import islice, product

import pytest

from mcsched import analysis, experiment, gen, model, sim, verify
from mcsched.model import Scenario, validate_scenario
from slices import schedulable_sets
from test_acceptance import _sweep_params, _sweep_scenarios

HORIZON = 400
REQUESTS = {
    "none": (),
    "one": ((200, 1),),
    "to2": ((100, 2), (150, 1), (300, 2)),
    "every20": tuple((t, 1) for t in range(20, HORIZON, 20)),
    "every13": tuple((t, 1 + (t // 13) % 2) for t in range(13, HORIZON, 13)),
    "every30": tuple((t, 1) for t in range(30, 6000, 30)),
}

# (set seed, scenario seed, protocol, rem order, requests, exec model,
#  force, sha256 of to_jsonl)
CASES = [
    (8, 56, "drop", "crit-edf", "every20", "uniform", False,
     "e1623c9ae19714561716ab366d3043eef527ad4a8a74d761c8a2bc06c2b9cba4"),
    (8, 56, "drop", "edf", "every20", "uniform", False,
     "66babff030906f795e7cca351b161d43e6f87d0f483bc684d6476d6b6eb4f75e"),
    (8, 56, "drop", "srpt", "every20", "uniform", False,
     "4d504b27013c87c095b511ad13ceb895c3e557000fc1b0574882499751a1d8a3"),
    (8, 56, "naive", "crit-edf", "every20", "uniform", False,
     "0d7260dd85b324ed6af304e2ccfd3eb96d627156a9ec69107493a7c93d462d31"),
    (8, 56, "naive", "edf", "every20", "uniform", False,
     "700b68e8ac832db3287474867c9ed92fb3b78cc28989a860f5e1fc742c1b171c"),
    (8, 56, "naive", "srpt", "every20", "uniform", False,
     "93b3826639a73408e8f5df5c3a91ff72f6d29a59e94197b910a27a167c329ac4"),
    (8, 56, "wcet-reclaim", "crit-edf", "every20", "uniform", False,
     "4337c0fc1ac5d0d85b9a4387b43e7017581ec6e27668df3a8c338c05090cb4fa"),
    (8, 56, "wcet-reclaim", "edf", "every20", "uniform", False,
     "4be9db04f489f712a71672e42b3e7b95846058a4db7f1d2e45d8f0c6d243c6ca"),
    (8, 56, "wcet-reclaim", "srpt", "every20", "uniform", False,
     "ee20748f1b1115a744e9bff1e4f635b85122d216307f8a4abdc03905972131e0"),
    (8, 56, "wcrt-simulate", "crit-edf", "every20", "uniform", False,
     "ab3df08397664cb5d2bdb441a889e5fe4eaff09d0af54eaaf98dad8c7a68cb68"),
    (8, 56, "wcrt-simulate", "edf", "every20", "uniform", False,
     "d9b5b195cb7f4ee2c22d69765281a9516fedcdb955cddc4b290b2aeb63eba323"),
    (8, 56, "wcrt-simulate", "srpt", "every20", "uniform", False,
     "704263decf384cb9daa601b67fc13633201075fd3898f2e680e1d619dd7879a6"),
    (11, 77, "drop", "crit-edf", "every20", "uniform", False,
     "8c0328b77df161cd8bb0abd68813a6b39a4d99baecafe10a849f80581547c49a"),
    (11, 77, "naive", "edf", "every20", "uniform", False,
     "4fb84f2662f3c16a6c845c4e3dc239bcf3f273a921708e8c97ccb39271662a13"),
    (11, 77, "wcet-reclaim", "srpt", "every20", "uniform", False,
     "c93308480a4ce9cad32b936ca8046c803987746c4bb2462099931a877e8b04b7"),
    (11, 77, "wcrt-simulate", "crit-edf", "every20", "uniform", False,
     "bf73b91019ce40d645ca6d8f4f77394d9fb168c04daa107dc53231e2d3697331"),
    (1, 7, "drop", "crit-edf", "none", "overrun", False,
     "e8dd72c30b40a0f8d9c3973ee4da65519583a604d7d6f5c5f63d87af3a4a37cf"),
    (1, 8, "naive", "edf", "one", "overrun-then-calm", False,
     "a2da5c195bcce3c84911a2ac85f6cc0c12e4a4a4414fbcd35eb8dad1fbed8b2b"),
    (1, 9, "wcet-reclaim", "srpt", "to2", "basic", False,
     "9434ae5fbf5172bacb7686fb02fab317e747146e679c48171bec3ad0a3a742fb"),
    (1, 10, "wcrt-simulate", "crit-edf", "every20", "uniform", False,
     "11ae4e77310e2116bf304d2866a511b5af9012bfe87a4eb2e389d41e0960d0e5"),
    (3, 21, "naive", "edf", "none", "overrun", False,
     "3a7f118e0d98473542826be46b62e355cfff612cce232178d62853dbd1393a99"),
    (3, 22, "wcet-reclaim", "srpt", "one", "overrun-then-calm", False,
     "18ae44a3ab235005286d483fddc4eeae5c44a800364b62b6cd5231a37f4d4a93"),
    (3, 23, "wcrt-simulate", "crit-edf", "to2", "basic", False,
     "d7b48869a719100360e94dba45c76f68ce03cbb0d5b3786a2ee3d521e54cd6cb"),
    (3, 24, "drop", "edf", "every20", "uniform", False,
     "689b869e15a9233859e91b180d5a6ea48fbe72ffb466fc9be7e9ac7066b28cf9"),
    (4, 28, "wcet-reclaim", "srpt", "none", "overrun", False,
     "206f93850811b4d2ba22bd625fcccc5ab96023bd143ab92b1498dac0d20c7418"),
    (4, 29, "wcrt-simulate", "crit-edf", "one", "overrun-then-calm", False,
     "5fdf5dce8a1bc5132f2e198bd251fa9938c8577cba9ef288a0a0e05ac9cdf728"),
    (4, 30, "drop", "edf", "to2", "basic", False,
     "062244af4a42defb7a13e63ae9983ef9517086833afb2ca3bba5a5e0dbf3b956"),
    (4, 31, "naive", "srpt", "every20", "uniform", False,
     "b8b8cecbbac6f9ed3b97a8f883c650b4086d13140f0ff69adc3381f4ef344471"),
    (10, 70, "wcrt-simulate", "crit-edf", "none", "overrun", False,
     "81f363bface82901a5083152f5ac9aa2a5e23f84e308ca296510bbedd98ce456"),
    (10, 71, "drop", "edf", "one", "overrun-then-calm", False,
     "cf893ef2c2d5e9ac1a482ff4070409859646ec3a77fc14457a757d3c9a6f7678"),
    (10, 72, "naive", "srpt", "to2", "basic", False,
     "3110fa9f56e99181beacffe54f9fa6829fe56a4e505082021920e43dc1c12f99"),
    (10, 73, "wcet-reclaim", "crit-edf", "every20", "uniform", False,
     "7b5c72dc10f7bb6cb9142908b7591192fb0ac18598e5a952c3da98357c48e278"),
    (6, 1, "drop", "edf", "every20", "overrun", False,
     "f860281041c3fa798ee1fb7f9f1f214d36217d012a4ab881c819301bf93cd849"),
    (6, 2, "naive", "srpt", "every20", "overrun", False,
     "234b37c40ce1fc806a6c362a24dfdbce4229f2015648648fb3f08dd2ddb8f932"),
    (6, 3, "wcet-reclaim", "crit-edf", "every20", "overrun", False,
     "33d8ff826f24e610c8dcc74003b5680cc252f0bc5504b8001b9b57183a0e78f0"),
    (6, 4, "wcrt-simulate", "edf", "every20", "overrun", False,
     "abd7af64824a4bc6949f670910d275e0b024049e68f377d3b14d94e519d3e59f"),
    (3, 21, "drop", "srpt", "every20", "overrun", False,
     "d4014287bac7f21ea4fae73e0a24b291b3502b216450b77dc2adc76f35830db6"),
    (3, 21, "naive", "crit-edf", "every20", "overrun", False,
     "45eb8ae33c5f275e0935cebbfe16f566a848ed529b7fb1cff75042b6b3770a45"),
    (3, 21, "wcet-reclaim", "edf", "every20", "overrun", False,
     "9a0640f97da8e10ec1026f213a6c4c6013ea02f3235266160655511606c55816"),
    (3, 21, "wcrt-simulate", "srpt", "every20", "overrun", False,
     "f893c51273f55057bc3ff34333236696cd585b3b6c9e70ae76b578b2782b41e6"),
    (1, 1, "naive", "crit-edf", "none", "basic", True,
     "73388ef60bda23b76ee876000cecdd157db367fc498634a90a2e392d3bcf41eb"),
    (1, 5, "wcet-reclaim", "edf", "one", "uniform", True,
     "756ef921f7ae2e6b1d1d974cd7635169ca338cec6d081b20a2548c8db8f57d04"),
    (2, 2, "drop", "crit-edf", "one", "basic", True,
     "193f47f6e9d86a6d6988416aa5c21151fe827de9520d3bfaa7385d35ee6f6bd3"),
    (2, 4, "wcet-reclaim", "srpt", "every20", "uniform", True,
     "1799b2380825f099f4cf0bb95d88aa33d0658cb18ddb29adbbffaab1094a370e"),
    (2, 6, "naive", "srpt", "none", "overrun", True,
     "540b76e0feb4f79502aaac2a567e9c1e1f31418a3e160cd1d5bd83999a0e34b6"),
    (3, 3, "wcrt-simulate", "edf", "every20", "overrun", True,
     "df671a50c128bcb3d3da9536a754d8baffca94e0c964a9bf8549f0e8633f36d9"),
]

PARAMS = {
    # the CASES' sets, the analysis accepting or (forced) rejecting them
    "schedulable": gen.GenParams(n_tasks=6, levels=3, total_util=1.0, m=2,
                                 period_range=(8, 16),
                                 ensure_overrunnable=True),
    "forced": gen.GenParams(n_tasks=6, levels=2, total_util=1.8, m=2,
                            period_range=(8, 16), ensure_overrunnable=True),
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
     "0bb7d7baebf07048414de811d31112351fbe0a2cb448fb2943a06077d2f46199"),
    ("periodic", 4, 5, "uniform", "every20", "at-horizon", 480, False,
     "wcrt-simulate", "edf",
     "63f371c690a77812f73580a9ed821b668cf5e12fc34c103a40ec7852ff4f76f8"),
    ("periodic", 1, 6, "basic", "none", "sync", 400, False,
     "drop", "crit-edf",
     "1ebde0aac9c5753c4ded5836639a843bd31e5d4433a4ae39c6189e05524f7664"),
    ("constrained", 2, 1, "basic", "every13", "sporadic", 400, True,
     "drop", "crit-edf",
     "be3afc8f9ee473c7df1e6f8a4c439a6e4689474805c2e7b73c0f9f083c1a122e"),
    ("constrained", 2, 1, "basic", "every20", "sporadic", 400, True,
     "naive", "edf",
     "39909e3866b5b600ecd72cc3e141e20ca749302e739e0d60e70f6cdf58f89e79"),
    ("constrained", 2, 14, "basic", "every20", "sporadic", 400, True,
     "drop", "srpt",
     "462bfd2d7034d06212535569d77ed8c16ec7321593f8dcbee84a995e8c5f64c5"),
    ("constrained", 7, 2, "basic", "every13", "sporadic", 400, True,
     "wcet-reclaim", "crit-edf",
     "26430b9742776d0e66eafcea7538d55f1468c4c078f6dc2dbda0999c2b891df2"),
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
     "87072af76df53f0aa9da3f4a86586330b63734dddbf92693fa8188e4f559255a"),
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
    ts, platform = gen.gen_taskset(PARAMS[params], set_seed)
    pa, wt, res = experiment.prepare_run(ts, platform, True, force)
    assert res.schedulable != force
    sc = gen.gen_scenario(ts, horizon, sc_seed, exec_model=exec_model,
                          dmcr_plan=REQUESTS[requests])
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
    return _queue_trace("forced" if force else "schedulable", set_seed,
                        sc_seed, exec_model, requests, "sporadic", HORIZON,
                        force, protocol, rem_order)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_bytes_and_roundtrip(trace, digest, monkeypatch):
    """The trace's text has the digest, write_jsonl writes the same text,
    and the reader gives the events back; the writer's pieces of one event
    and the reader's of one line each change none of it."""
    text = trace.to_jsonl()
    assert _digest(text) == digest
    out = io.StringIO()
    trace.write_jsonl(out)
    assert out.getvalue() == text
    assert sim.trace_from_jsonl(text).events == trace.events
    monkeypatch.setattr(sim, "_PIECE_EVENTS", 1)
    monkeypatch.setattr(sim, "_READ_CHARS", 1)
    assert trace.to_jsonl() == text
    assert sim.trace_from_jsonl(text).events == trace.events


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c[:7])))
def test_trace_bytes_and_roundtrip(case, monkeypatch):
    _assert_bytes_and_roundtrip(_trace(*case[:7]), case[7], monkeypatch)


@pytest.mark.parametrize("case", QUEUE_CASES,
                         ids=lambda c: "-".join(map(str, c[:10])))
def test_queue_trace_bytes_and_roundtrip(case, monkeypatch):
    _assert_bytes_and_roundtrip(_queue_trace(*case[:10]), case[10],
                                monkeypatch)


def _loosened(text):
    """text as another writer might write it: CRLF line ends, blank and
    whitespace-only lines, padded records, every other record's fields in
    reverse order, and an extra nested field on every third."""
    out = []
    for i, line in enumerate(text.splitlines()):
        rec = json.loads(line)
        if i % 2:
            rec = dict(reversed(rec.items()))
        if i % 3 == 0:
            rec["note"] = {"by": [1, {"kind": "release"}], "t": None}
        out.append((" \t" if i % 5 == 0 else "") + json.dumps(rec)
                   + ("  " if i % 4 == 0 else ""))
        if i % 7 == 0:
            out.append("")
        if i % 11 == 0:
            out.append(" \t ")
    return "\r\n".join(out) + "\r\n"


def _roundtrip_trace():
    return _queue_trace(*next(c for c in QUEUE_CASES
                              if c[0] == "roundtrip")[:10])


def test_reader_tolerance_on_a_roundtrip_trace(monkeypatch):
    """What the README says the reader accepts beyond the writer's bytes
    reads to the same trace, whatever the size of the reader's pieces."""
    trace = _roundtrip_trace()
    text = _loosened(trace.to_jsonl())
    for piece in (sim._READ_CHARS, 1, 3):
        monkeypatch.setattr(sim, "_READ_CHARS", piece)
        back = sim.trace_from_jsonl(text)
        assert back.events == trace.events
        assert [getattr(back, f) for f in sim.META_FIELDS] == [
            getattr(trace, f) for f in sim.META_FIELDS]


def test_writer_text_is_read_a_block_at_a_time():
    """Every piece of the writer's text decodes as one JSON array: the
    reader's per-line decode is only for text another writer wrote."""
    pieces = list(sim._text_pieces(_roundtrip_trace().to_jsonl()))
    assert len(pieces) > 1
    assert all(sim._block_records(piece.splitlines()) is not None
               for piece in pieces)


def test_writer_and_reader_hold_the_text_in_pieces(tmp_path):
    """On the roundtrip case, writing the trace to a file allocates under a
    quarter of its text's length at its peak, and reading the text back
    under half of it beyond the Trace it returns. Whole-text writing and
    reading, which hold the text or its list of lines, peak at several
    times the text."""
    trace = _roundtrip_trace()
    text = trace.to_jsonl()
    size = len(text)
    path = tmp_path / "trace.jsonl"
    # a full collection before each start empties the free lists, whose
    # reuse tracemalloc does not see, so that no peak depends on what ran
    # before
    with open(path, "w", encoding="utf-8") as fh:
        gc.collect()
        tracemalloc.start()
        try:
            trace.write_jsonl(fh)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == text
    gc.collect()
    tracemalloc.start()
    try:
        back = sim.trace_from_jsonl(text)
        held, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.events == trace.events
    assert write_peak < size / 4, (write_peak, size)
    assert read_peak - held < size / 2, (read_peak, held, size)


def test_check_run_holds_little_beside_the_trace():
    """On the roundtrip case's inputs, under each protocol, check_run's
    tracemalloc peak above the Trace stays under a fifth of the Trace's own
    traced size: its walk holds the open jobs, not an index of the trace."""
    params, set_seed, sc_seed, exec_model, requests, _, horizon, force = next(
        c for c in QUEUE_CASES if c[0] == "roundtrip")[:8]
    ts, platform = gen.gen_taskset(PARAMS[params], set_seed)
    pa, wt, _ = experiment.prepare_run(ts, platform, True, force)
    sc = gen.gen_scenario(ts, horizon, sc_seed, exec_model=exec_model,
                          dmcr_plan=REQUESTS[requests])
    for protocol in sim.PROTOCOLS:
        # a full collection empties the free lists, whose reuse tracemalloc
        # does not see, so that the Trace's traced size does not depend on
        # what ran before
        trace = reports = None
        gc.collect()
        tracemalloc.start()
        try:
            trace = sim.simulate(ts, platform, pa, wt, sc,
                                 sim.ProtocolConfig(protocol))
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reports = verify.check_run(trace, ts, wt, sc)
            above = tracemalloc.get_traced_memory()[1] - size
        finally:
            tracemalloc.stop()
        assert all(rep.ok for rep in reports.values()), protocol
        assert above < size / 5, (protocol, above, size)


def test_queue_cases_hit_their_targets():
    hit = set()
    for case in QUEUE_CASES:
        trace = _queue_trace(*case[:10])
        ts, _ = gen.gen_taskset(PARAMS[case[0]], case[1])
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


def _line_kind(line):
    rec = json.loads(line)
    if rec["kind"] != "dispatch":
        return rec["kind"]
    return "ghost" if "ghost_task" in rec else f"dispatch rem {rec['rem']}"


def test_cases_cover_every_event_kind_and_slot_code():
    kinds, codes, lines = set(), set(), set()
    for case in CASES:
        trace = _trace(*case[:7])
        lines.update(map(_line_kind, trace.to_jsonl().splitlines()))
        for ev in trace.events:
            kinds.add(ev[0])
            if ev[0] == "sched":
                codes.update(slot[0] for slot in ev[4])
    assert kinds == POINT_KINDS | {"sched"}
    assert codes == {"J", "R", "G"}
    # every compiled line writer is pinned by a digest
    assert lines == (sim._LINE_FIELDS.keys() - {"dispatch"}
                     | {"dispatch rem 0", "dispatch rem 1"})


# the first BATCH_SETS accepted acceptance-sweep sets x their first
# BATCH_SCENARIOS sweep scenarios x every protocol x every rem order
BATCH_SETS = 48
BATCH_SCENARIOS = 3
BATCH_DIGEST = "f00fbbc380c8017544a3ac500a1ba370af35121e9d8342d46544db0f153e81b7"


def test_sweep_batch_events():
    digest = hashlib.sha256()
    cfgs = [sim.ProtocolConfig(p, o)
            for p in sim.PROTOCOLS for o in sim.REM_ORDERS]
    drop_only = 0  # instants whose only events are suspended-arrival drops
    sets = schedulable_sets(_sweep_params, range(1, 20 * BATCH_SETS))
    for seed, ts, platform, res in islice(sets, BATCH_SETS):
        for sc in islice(_sweep_scenarios(seed, ts), BATCH_SCENARIOS):
            for cfg in cfgs:
                events = sim.simulate(ts, platform, res.assignment,
                                      res.wcrt_table, sc, cfg).events
                digest.update(repr(events).encode())
                only = {}
                for e in events:
                    only[e[1]] = only.get(e[1], True) and (
                        e[0] == "job_dropped" and e[5] == "suspended_arrival")
                drop_only += sum(only.values())
    assert drop_only > 0
    assert digest.hexdigest() == BATCH_DIGEST


def test_experiment_csv_bytes():
    out = io.StringIO()
    experiment.run_experiment(EXPERIMENT_SPEC, out)
    assert _digest(out.getvalue()) == EXPERIMENT_DIGEST


# (levels, utilization per processor): the bench's two opa-large regimes,
# all schedulable and all unschedulable, and one near the boundary
ANALYSIS_REGIMES = ((2, 0.30), (3, 0.80), (3, 0.55))
ANALYSIS_SIZES = (4, 8, 16, 32, 64)  # m = max(1, n / 4)
ANALYSIS_DIGEST = "22cc88827b1b586018b30cad63bd3e4bc1cbdecf89bcf8559fe598278a30afdc"


def _analysis_doc(res):
    ranks = sorted(res.assignment.ranks.items()) if res.schedulable else []
    return [res.schedulable, ranks, sorted(res.wcrt_table.items()),
            list(res.witness)]


def test_analysis_bytes():
    docs = []
    for n in ANALYSIS_SIZES:
        m = max(1, n // 4)
        for levels, per_proc in ANALYSIS_REGIMES:
            params = gen.GenParams(n_tasks=n, levels=levels,
                                   total_util=per_proc * m, m=m)
            for seed in range(3):
                ts, _ = gen.gen_taskset(params, seed)
                for cap in (True, False):
                    docs.append(_analysis_doc(analysis.opa_assign(ts, m, cap)))
    ts, _ = gen.gen_taskset(gen.GenParams(n_tasks=16, levels=3,
                                          total_util=2.2, m=4), 1)
    order = sorted((t.id for t in ts.tasks), key=lambda tid: -tid)
    docs.append(_analysis_doc(analysis.opa_assign(ts, 4, order=order)))
    assert sum(doc[0] for doc in docs) not in (0, len(docs))
    assert _digest(repr(docs)) == ANALYSIS_DIGEST


# n, period range, utilization tolerance and ensure_overrunnable, crossed;
# tolerance 0 with unequal periods mostly fails, so each gets few attempts
TASKSET_AXES = ((1, 2, 128, 256), ((8, 8), (8, 24), (10, 1000)), (0.0, 0.05),
                (False, True))
TASKSET_DIGEST = "dd64893df8ac027647bbb00da9004eb15ff11437c0c98a985de4f51d3a99f715"


def _taskset_params():
    """The bench's opa-large and roundtrip parameters, the acceptance
    sweep's, and the product of TASKSET_AXES."""
    for n in (32, 40, 48, 56, 64):
        for levels, per_proc in ANALYSIS_REGIMES[:2]:
            yield gen.GenParams(n_tasks=n, levels=levels,
                                total_util=per_proc * (n // 4), m=n // 4)
    yield from map(_sweep_params, range(1, 13))
    yield PARAMS["roundtrip"]
    for n, period_range, tol, overrunnable in product(*TASKSET_AXES):
        m = max(1, n // 4)
        yield gen.GenParams(n_tasks=n, levels=3, total_util=0.5 * m, m=m,
                            period_range=period_range, util_tolerance=tol,
                            max_attempts=4, ensure_overrunnable=overrunnable)


def test_taskset_bytes():
    docs = []
    for params in _taskset_params():
        for seed in range(3):
            try:
                docs.append(json.dumps(model.taskset_to_dict(
                    *gen.gen_taskset(params, seed))))
            except gen.Infeasible:
                docs.append("Infeasible")
    assert 0 < docs.count("Infeasible") < len(docs)
    assert _digest("\n".join(docs)) == TASKSET_DIGEST
