"""Split the trace reader's time into JSON scanning and the work after it.

For the inputs of the golden `roundtrip` case (tests/test_golden.py,
QUEUE_CASES: the bench roundtrip's shape, n=12, m=4, 3 levels, horizon
6000, a request to level 1 every 30 ticks), this simulates the run under
each protocol and prints, per protocol, the trace's line count and the
median over interleaved rounds, in ms, of:

    read   sim.trace_from_jsonl(text)
    scan   text.splitlines() plus json's scanner over every line
    sim    sim.simulate on the same inputs
    post   read - scan, the reader's work after decoding

ROADMAP item 8's bar is post <= sim. The three timings take turns within
each round, so a change in machine speed moves all of them alike.

    PYTHONPATH=src python tests/reader_split.py [--rounds N]

Standard library and mcsched only; pytest does not collect it.
"""

import argparse
import json
import statistics
import time

from mcsched import experiment, gen, sim

# the golden "roundtrip" queue case: set seed 1, scenario seed 1
PARAMS = gen.GenParams(n_tasks=12, levels=3, total_util=1.6, m=4,
                       ensure_overrunnable=True)
SET_SEED, SCENARIO_SEED, HORIZON = 1, 1, 6000
REQUESTS = tuple((t, 1) for t in range(30, HORIZON, 30))


def scan_only(text, scan=json.JSONDecoder().scan_once):
    for line in text.splitlines():
        scan(line, 0)


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--rounds", type=int, default=21)
    rounds = parser.parse_args().rounds
    ts, platform = gen.gen_taskset(PARAMS, SET_SEED)
    pa, wt, _ = experiment.prepare_run(ts, platform, True, False)
    sc = gen.gen_scenario(ts, HORIZON, SCENARIO_SEED, exec_model="overrun",
                          dmcr_plan=REQUESTS)
    print(f"{'protocol':<14} {'lines':>6} {'read':>7} {'scan':>7} "
          f"{'post':>7} {'sim':>7}  (median ms of {rounds} rounds)")
    for protocol in sim.PROTOCOLS:
        cfg = sim.ProtocolConfig(protocol)
        text = sim.simulate(ts, platform, pa, wt, sc, cfg).to_jsonl()
        times = {"read": [], "scan": [], "sim": []}
        for _ in range(rounds):
            times["read"].append(timed(sim.trace_from_jsonl, text))
            times["scan"].append(timed(scan_only, text))
            times["sim"].append(timed(sim.simulate, ts, platform, pa, wt, sc,
                                      cfg))
        read, scan, simulate = (statistics.median(times[k])
                                for k in ("read", "scan", "sim"))
        print(f"{protocol:<14} {text.count(chr(10)):>6} {read:>7.2f} "
              f"{scan:>7.2f} {read - scan:>7.2f} {simulate:>7.2f}")


if __name__ == "__main__":
    main()
