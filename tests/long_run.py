"""Time and measure the simulator, the reader and the checkers on the long run.

The long run: n=12, m=4, 3 levels, the set of
`mcsched generate taskset --n 12 --m 4 --levels 3 --util 1.6 --seed 1
--overrunnable`, the scenario of `mcsched generate scenario --horizon H
--seed 1 --exec-model overrun` with a request to level 1 at every k * 995
below H, analysed and simulated as `mcsched simulate` does. `inputs(H)`
builds it for this script and for the tests.

For H = 20,000 and H = 200,000 it prints one row per distinct event list,
naming the protocols that give it, with the event count and the median over
interleaved rounds, in ms, of:

    sim    sim.simulate under the row's first protocol
    read   sim.trace_from_jsonl(trace.to_jsonl())
    run    verify.check_run(trace, ts, wt, sc)
    per    verify.check_periodicity(trace, ts, sc)

The timings take turns within each round, so a change in machine speed
moves all of them alike. It then prints, in MB, the size of the row's event
list, the sys.getsizeof total over the list and each distinct object it
holds, nested ones included, and the tracemalloc peak of check_run on that
trace. A last row,
"naive+rel", times `run` alone on the naive trace with every release
repeated in place, a job and an arrival each seen twice per release, in
the rounds of the row that holds naive.

    PYTHONPATH=src python tests/long_run.py [--rounds N] [--horizons H ...]

Standard library and mcsched only; pytest does not collect it, and
tests/test_probes.py runs it at a short horizon.
"""

import argparse
import gc
import statistics
import sys
import time
import tracemalloc

from mcsched import experiment, gen, sim, verify

PARAMS = gen.GenParams(n_tasks=12, levels=3, total_util=1.6, m=4,
                       period_range=(8, 24), ensure_overrunnable=True)
SET_SEED, SCENARIO_SEED, REQUEST_GAP = 1, 1, 995
COLUMNS = ("sim", "read", "run", "per")


def inputs(horizon):
    """(ts, platform, pa, wt, sc) of the long run up to this horizon."""
    ts, platform = gen.gen_taskset(PARAMS, SET_SEED)
    pa, wt, _ = experiment.prepare_run(ts, platform, True, False)
    plan = tuple((t, 1) for t in range(REQUEST_GAP, horizon, REQUEST_GAP))
    sc = gen.gen_scenario(ts, horizon, SCENARIO_SEED, exec_model="overrun",
                          dmcr_plan=plan)
    return ts, platform, pa, wt, sc


def timed(fn, *args):
    """fn(*args)'s wall time, in ms."""
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1e3


def repeated(events, kind):
    """events with each event of this kind repeated in place."""
    return [e for ev in events for e in ((ev, ev) if ev[0] == kind else (ev,))]


def size(events):
    """The sys.getsizeof total of events and each distinct object it holds,
    nested ones included, in MB."""
    sizes, todo = {}, [events]
    while todo:
        if id(obj := todo.pop()) not in sizes:
            sizes[id(obj)] = sys.getsizeof(obj)
            if isinstance(obj, (list, tuple)):
                todo.extend(obj)
    return sum(sizes.values()) / 1e6


def peak(fn, *args):
    """The tracemalloc peak of fn(*args), in MB. A full collection first
    empties the free lists, whose reuse tracemalloc does not see."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--horizons", type=int, nargs="+",
                        default=[20_000, 200_000])
    args = parser.parse_args(argv)
    for horizon in args.horizons:
        ts, platform, pa, wt, sc = inputs(horizon)
        groups = {}  # event list: (the protocols giving it, the first's trace)
        for protocol in sim.PROTOCOLS:
            trace = sim.simulate(ts, platform, pa, wt, sc,
                                 sim.ProtocolConfig(protocol))
            groups.setdefault(tuple(trace.events), ([], trace))[0].append(
                protocol)
        naive = next(tr for ps, tr in groups.values() if "naive" in ps)
        rel = sim.Trace(repeated(naive.events, "release"), *(
            getattr(naive, f) for f in sim.META_FIELDS))
        rel_times = []
        print(f"H={horizon}, {len(sc.dmcr_requests)} requests: median ms of "
              f"{args.rounds} rounds; MB")
        print(f"{'events':>8} " + " ".join(f"{k:>8}" for k in COLUMNS)
              + f" {'trace':>7} {'run peak':>9}  protocols")
        for protocols, trace in groups.values():
            cfg = sim.ProtocolConfig(protocols[0])
            text = trace.to_jsonl()
            times = {k: [] for k in COLUMNS}
            for _ in range(args.rounds):
                times["sim"].append(timed(sim.simulate, ts, platform, pa, wt,
                                          sc, cfg))
                times["read"].append(timed(sim.trace_from_jsonl, text))
                times["run"].append(timed(verify.check_run, trace, ts, wt, sc))
                times["per"].append(timed(verify.check_periodicity, trace, ts,
                                          sc))
                if trace is naive:
                    rel_times.append(timed(verify.check_run, rel, ts, wt, sc))
            print(f"{len(trace.events):>8} " + " ".join(
                f"{statistics.median(times[k]):>8.1f}" for k in COLUMNS)
                + f" {size(trace.events):>7.1f}"
                f" {peak(verify.check_run, trace, ts, wt, sc):>9.2f}  "
                + " ".join(protocols))
        print(f"{len(rel.events):>8} {'':>17} "
              f"{statistics.median(rel_times):>8.1f} {'':>26}  naive+rel")


if __name__ == "__main__":
    main()
