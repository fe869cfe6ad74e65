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

It then prints, per protocol, the text's length and the tracemalloc peak,
in KB, of:

    to_jsonl     trace.to_jsonl()
    write_jsonl  trace.write_jsonl() into a temporary file
    read         sim.trace_from_jsonl(text), less the Trace it returns

    PYTHONPATH=src python tests/reader_split.py [--rounds N]

Standard library and mcsched only; pytest does not collect it.
"""

import argparse
import json
import statistics
import tempfile
import time
import tracemalloc

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


def peak(fn, *args):
    """fn(*args)'s tracemalloc peak, and what it holds on return, its
    result included."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, top = tracemalloc.get_traced_memory()
        del result
    finally:
        tracemalloc.stop()
    return top, held


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
    traces = {}
    for protocol in sim.PROTOCOLS:
        cfg = sim.ProtocolConfig(protocol)
        traces[protocol] = trace = sim.simulate(ts, platform, pa, wt, sc, cfg)
        text = trace.to_jsonl()
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

    print(f"\n{'protocol':<14} {'text':>7} {'to_jsonl':>9} "
          f"{'write_jsonl':>12} {'read':>7}  (KB: length, tracemalloc peaks)")
    for protocol, trace in traces.items():
        text = trace.to_jsonl()
        to_jsonl = peak(trace.to_jsonl)[0]
        with tempfile.TemporaryFile("w", encoding="utf-8") as fh:
            write_jsonl = peak(trace.write_jsonl, fh)[0]
        top, held = peak(sim.trace_from_jsonl, text)
        print(f"{protocol:<14} {len(text) / 1e3:>7.0f} {to_jsonl / 1e3:>9.0f} "
              f"{write_jsonl / 1e3:>12.0f} {(top - held) / 1e3:>7.0f}")


if __name__ == "__main__":
    main()
