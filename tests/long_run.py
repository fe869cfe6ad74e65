"""Time and measure the checkers on the long run, and on the same run cut short.

The long run: n=12, m=4, 3 levels, the set of
`mcsched generate taskset --n 12 --m 4 --levels 3 --util 1.6 --seed 1
--overrunnable`, the scenario of `mcsched generate scenario --horizon H
--seed 1 --exec-model overrun` with a request to level 1 at every k * 995
below H, analysed and simulated as `mcsched simulate` does. For H = 20,000
and H = 200,000 it prints, per protocol, the event count and the median
over interleaved rounds, in ms, of:

    sim    sim.simulate
    run    verify.check_run(trace, ts, wt, sc)
    per    verify.check_periodicity(trace, ts, sc)

The timings take turns within each round, so a change in machine speed
moves all of them alike. It then prints, in MB, the tracemalloc size of the
Trace that simulate returns and check_run's peak above it.

    PYTHONPATH=src python tests/long_run.py [--rounds N] [--horizons H ...]

Standard library and mcsched only; pytest does not collect it.
"""

import argparse
import gc
import statistics
import time
import tracemalloc

from mcsched import experiment, gen, sim, verify

PARAMS = gen.GenParams(n_tasks=12, levels=3, total_util=1.6, m=4,
                       period_range=(8, 24), ensure_overrunnable=True)
SET_SEED, SCENARIO_SEED, REQUEST_GAP = 1, 1, 995


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1e3


def sizes(run):
    """The tracemalloc size of run()'s Trace, and check_run's peak above it,
    in MB. A full collection first empties the free lists, whose reuse
    tracemalloc does not see."""
    gc.collect()
    tracemalloc.start()
    try:
        trace, check = run()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        check(trace)
        top = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held / 1e6, (top - held) / 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--horizons", type=int, nargs="+",
                        default=[20_000, 200_000])
    args = parser.parse_args()
    ts, platform = gen.gen_taskset(PARAMS, SET_SEED)
    pa, wt, _ = experiment.prepare_run(ts, platform, True, False)
    for horizon in args.horizons:
        plan = tuple((t, 1) for t in range(REQUEST_GAP, horizon, REQUEST_GAP))
        sc = gen.gen_scenario(ts, horizon, SCENARIO_SEED,
                              exec_model="overrun", dmcr_plan=plan)
        print(f"H={horizon}, {len(plan)} requests: median ms of {args.rounds}"
              " rounds; MB")
        print(f"{'protocol':<14} {'events':>8} {'sim':>8} {'run':>8} "
              f"{'per':>8} {'trace':>7} {'run peak':>9}")
        for protocol in sim.PROTOCOLS:
            cfg = sim.ProtocolConfig(protocol)
            trace = sim.simulate(ts, platform, pa, wt, sc, cfg)
            times = {"sim": [], "run": [], "per": []}
            for _ in range(args.rounds):
                times["sim"].append(timed(sim.simulate, ts, platform, pa, wt,
                                          sc, cfg))
                times["run"].append(timed(verify.check_run, trace, ts, wt, sc))
                times["per"].append(timed(verify.check_periodicity, trace, ts,
                                          sc))
            size, peak = sizes(lambda: (
                sim.simulate(ts, platform, pa, wt, sc, cfg),
                lambda tr: verify.check_run(tr, ts, wt, sc)))
            print(f"{protocol:<14} {len(trace.events):>8} " + " ".join(
                f"{statistics.median(times[k]):>8.1f}"
                for k in ("sim", "run", "per")) + f" {size:>7.1f} {peak:>9.2f}")


if __name__ == "__main__":
    main()
