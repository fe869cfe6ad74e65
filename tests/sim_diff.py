"""Differential probe: simulate's event lists in this tree against those of
another source tree, on seeded random runs.

Each seed draws one scenario: a task set of gen.gen_taskset (n 2-6, m 1-3,
2-3 levels, periods 4-16, 0.4-0.9 utilization per processor, overrunnable),
the analysis's ranks and table when opa_assign accepts the set and a coin
says so, else dm_fallback's, a horizon in 20-120, arrival gaps that are
sporadic (T to 1.5 T), short (1 to T, or 0 to D - 1) or mixed, execution
times from {1, C(1), C(L)} or uniform in [1, C(L)], and 0-5 requests to
levels below the top. The arrival gaps below T break simulate's contract on
purpose: there a task's ghost can meet its own newer head. Every protocol
x rem order runs on each scenario, in this tree and in SRC, each side in a
subprocess of its own that imports mcsched from its source tree. Both sides
draw the inputs with their own gen and analysis, so the probe is meant for
trees that differ in sim alone.

It prints the run, hosting, raising and differing counts, the first
differing (seed, protocol, rem order), and in how many scenarios
wcrt-simulate gives the same events as wcet-reclaim under every rem order,
split by the table the scenario uses. It exits 1 on any difference.

    python tests/sim_diff.py --against OTHER/src [--seeds N] [--start S]

Standard library and mcsched only; pytest does not collect it, and
tests/test_probes.py runs it against this tree itself on a small batch.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RECLAIMING = ("wcet-reclaim", "wcrt-simulate")


def scenario(seed, gen, analysis, model):
    """(ts, platform, pa, wt, sc, table) of a seed, or None where
    gen_taskset finds no set; table is "analysis" or "dm_fallback"."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    params = gen.GenParams(n_tasks=rng.randint(2, 6), levels=rng.randint(2, 3),
                           total_util=round(rng.uniform(0.4, 0.9) * m, 2), m=m,
                           period_range=(4, 16), ensure_overrunnable=True)
    try:
        ts, platform = gen.gen_taskset(params, seed)
    except gen.Infeasible:
        return None
    res = analysis.opa_assign(ts, m)
    if res.schedulable and rng.random() < 0.5:
        pa, wt, table = res.assignment, res.wcrt_table, "analysis"
    else:
        (pa, wt), table = analysis.dm_fallback(ts, m), "dm_fallback"
    horizon = rng.randint(20, 120)
    gaps = rng.choice(("sporadic", "short", "mixed"))
    execs = rng.choice(("budgets", "uniform"))
    arrivals, exec_times = {}, {}
    for task in ts.tasks:
        times, t = [], rng.randint(0, task.T)
        while t < horizon:
            times.append(t)
            kind = gaps if gaps != "mixed" else rng.choice(("sporadic",
                                                            "short"))
            if kind == "sporadic":
                t += rng.randint(task.T, task.T + task.T // 2)
            elif rng.random() < 0.5:
                t += rng.randint(1, task.T)
            else:
                t += rng.randint(0, task.D - 1)
        top = task.C[task.L - 1]
        arrivals[task.id] = tuple(times)
        exec_times[task.id] = tuple(
            rng.choice((1, task.C[0], top)) if execs == "budgets"
            else rng.randint(1, top) for _ in times)
    requests = tuple(sorted((rng.randint(0, horizon - 1),
                             rng.randint(1, ts.levels - 1))
                            for _ in range(rng.randint(0, 5))))
    sc = model.Scenario(horizon=horizon, arrivals=arrivals,
                        exec_times=exec_times, dmcr_requests=requests)
    return ts, platform, pa, wt, sc, table


def side(start, seeds):
    """With the mcsched on sys.path, print a JSON line [its file, [[protocol,
    rem order] of each run of a scenario]], then one per seed with a
    scenario: [seed, table, [[hosts, raises, digest] of each run]]."""
    import mcsched
    from mcsched import analysis, gen, model, sim
    print(json.dumps([mcsched.__file__, [[p, o] for p in sim.PROTOCOLS
                                          for o in sim.REM_ORDERS]]))
    for seed in range(start, start + seeds):
        drawn = scenario(seed, gen, analysis, model)
        if drawn is None:
            continue
        *inputs, table = drawn
        runs = []
        for protocol in sim.PROTOCOLS:
            for order in sim.REM_ORDERS:
                try:
                    trace = sim.simulate(*inputs,
                                         sim.ProtocolConfig(protocol, order))
                except Exception as exc:  # compared like an event list
                    runs.append([False, True, f"{type(exc).__name__}: {exc}"])
                    continue
                hosts = any(s[0] == "G" for e in trace.events
                            if e[0] == "sched" for s in e[4])
                digest = hashlib.sha256(repr(trace.events).encode())
                runs.append([hosts, False, digest.hexdigest()[:16]])
        print(json.dumps([seed, table, runs]))


def run_side(src, start, seeds):
    """A subprocess running side() with src alone on PYTHONPATH, and the
    file it writes to, so that the two sides run at once."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tempfile.TemporaryFile("w+")
    return subprocess.Popen(
        [sys.executable, __file__, "--side", "--start", str(start), "--seeds",
         str(seeds)], env=env, stdout=out, text=True), out


def lines_of(proc, out, src):
    """The run names and the seed lines of a side of src."""
    with out:
        if proc.wait():
            raise SystemExit(f"the side of {src} exited {proc.returncode}")
        out.seek(0)
        first, *lines = map(json.loads, out)
    where = Path(first[0]).resolve().parents[1]
    if where != Path(src).resolve():
        raise SystemExit(f"the side of {src} imported mcsched from {where}")
    return [tuple(name) for name in first[1]], lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", type=Path)
    parser.add_argument("--seeds", type=int, default=6000)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        side(args.start, args.seeds)
        return 0
    if args.against is None:
        parser.error("--against SRC is required")
    sides = [(*run_side(src, args.start, args.seeds), src)
             for src in (SRC, args.against)]
    try:
        (names, ours), (other_names, theirs) = (lines_of(*s) for s in sides)
    finally:  # stops the other side when one fails
        for proc, _, _ in sides:
            proc.kill()
    if names != other_names or ([a[:2] for a in ours]
                                != [b[:2] for b in theirs]):
        raise SystemExit("the two sides run different protocols or scenarios")
    counts = dict.fromkeys(("runs", "hosting", "raising", "differing"), 0)
    first = None
    # per table: scenarios where wcrt-simulate = wcet-reclaim, scenarios
    same = {"analysis": [0, 0], "dm_fallback": [0, 0]}
    wcet, wcrt = ([i for i, name in enumerate(names) if name[0] == protocol]
                  for protocol in RECLAIMING)
    for (seed, table, runs), (_, _, other) in zip(ours, theirs):
        for name, a, b in zip(names, runs, other):
            counts["runs"] += 1
            counts["hosting"] += a[0]
            counts["raising"] += a[1] or b[1]
            if a != b:
                counts["differing"] += 1
                first = first or (seed,) + name
        same[table][0] += [runs[i] for i in wcet] == [runs[i] for i in wcrt]
        same[table][1] += 1
    print(" ".join(f"{k} {v}" for k, v in counts.items()))
    if first is not None:
        print("first differing: seed %d, %s, %s" % first)
    print("wcrt-simulate = wcet-reclaim in every rem order: " + ", ".join(
        f"{table} table {n} of {of} scenarios"
        for table, (n, of) in same.items()))
    return 1 if counts["differing"] else 0


if __name__ == "__main__":
    sys.exit(main())
