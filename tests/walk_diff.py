"""Compare this tree's checkers with another tree's on corrupted traces.

It loads `src/mcsched/verify.py` of the tree at OTHER as a module beside
this tree's `mcsched`, so both judge the same Trace objects. It then
generates RUNS runs, cycling through every protocol: a set of n 3-8 tasks
on m 2-3 processors with 2-3 levels (simulated as analysed, or by the
deadline-monotonic fallback when the analysis refuses it), an overrun
scenario with decrease requests, and its trace with 0-8 corruptions, each
kept in time order:

    repeat   a job's release, completion or drop again, in place or later
    move     such an event moved later
    delete   an event other than a dispatch span
    k        a job event's job number changed
    flip     a completion's rem flag flipped
    many     about 30% of the events of one job kind each repeated in place

Each trace goes through `check_run` with and without the analysis table and
the scenario, and through each single checker, in both trees. It prints how
many reports it compared and how many differ, with the first few that
differ, and exits 1 if any does. Reports are compared by their class name
and `vars()`, since the classes of two trees are never equal.

    PYTHONPATH=src python tests/walk_diff.py OTHER [--runs N] [--seed S]

Standard library and mcsched only; pytest does not collect it, and
tests/test_probes.py runs it against this tree.
"""

import argparse
import importlib.util
import random
import sys
from pathlib import Path

from mcsched import experiment, gen, sim, verify

JOB_KINDS = ("release", "complete", "job_dropped")
SHOWN = 5  # differing reports printed


def load_other(root):
    """verify.py of the tree at root, as a module of this tree's mcsched."""
    name = "mcsched._other_verify"
    spec = importlib.util.spec_from_file_location(
        name, Path(root) / "src" / "mcsched" / "verify.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def in_time(events, ev):
    """events with ev inserted after every event at or before its instant."""
    at = next((j for j, e in enumerate(events) if e[1] > ev[1]), len(events))
    return events[:at] + [ev] + events[at:]


def corrupt(events, how, rng, horizon):
    """A copy of events with one corruption `how`, in time order."""
    events = list(events)
    if how == "many":
        kind = rng.choice(JOB_KINDS)
        out = []
        for ev in events:
            out.append(ev)
            if ev[0] == kind and rng.random() < 0.3:
                out.append(ev)
        return out
    kinds = ("complete",) if how == "flip" else JOB_KINDS
    where = [i for i, ev in enumerate(events) if ev[0] in kinds
             or how == "delete" and ev[0] != "sched"]
    if not where:
        return events
    i = rng.choice(where)
    ev = events[i]
    if how == "delete":
        del events[i]
    elif how == "flip":
        events[i] = ev[:8] + (1 - ev[8],)
    elif how == "k":
        k = max(1, ev[4] + rng.choice((-2, -1, 1, 2, 50)))
        events[i] = ev[:4] + (k,) + ev[5:]
    elif how == "repeat" and rng.random() < 0.5:
        events.insert(i + 1, ev)
    else:  # repeated or moved later
        if how == "move":
            del events[i]
        later = min(horizon, ev[1] + rng.randint(1, 40))
        events = in_time(events, ev[:1] + (later,) + ev[2:])
    return events


def runs(count, seed):
    """(set, table, scenario, corrupted trace) of `count` generated runs."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n, m, levels = rng.randint(3, 8), rng.randint(2, 3), rng.randint(2, 3)
        params = gen.GenParams(n_tasks=n, levels=levels, total_util=0.5 * m,
                               m=m, period_range=(8, 16),
                               ensure_overrunnable=True)
        try:
            ts, platform = gen.gen_taskset(params, rng.randrange(10**6))
        except gen.Infeasible:
            continue
        pa, wt, _ = experiment.prepare_run(ts, platform, True, True)
        horizon = rng.randint(150, 400)
        gap = rng.randint(8, 30)
        plan = tuple((t, 1 + (t // gap) % (levels - 1))
                     for t in range(gap, horizon, gap))
        sc = gen.gen_scenario(ts, horizon, rng.randrange(10**6),
                              exec_model="overrun", overrun_prob=0.5,
                              dmcr_plan=plan)
        cfg = sim.ProtocolConfig(sim.PROTOCOLS[made % len(sim.PROTOCOLS)])
        trace = sim.simulate(ts, platform, pa, wt, sc, cfg)
        events = trace.events
        for _ in range(rng.randint(0, 8)):
            how = rng.choice(("repeat", "move", "delete", "k", "flip", "many"))
            events = corrupt(events, how, rng, horizon)
        made += 1
        yield ts, wt, sc, sim.Trace(events, trace.horizon, trace.m,
                                    trace.levels, trace.protocol,
                                    trace.rem_order)


def reports(module, trace, ts, wt, sc):
    """Every report module's checkers give on one trace, by name."""
    got = {f"run/{name}": rep
           for name, rep in module.check_run(trace, ts, wt, sc).items()}
    got.update((f"bare/{name}", rep)
               for name, rep in module.check_run(trace, ts).items())
    got["feasibility"] = module.check_feasibility(trace, ts)
    got["periodicity"] = module.check_periodicity(trace, ts, sc)
    got["response"] = module.check_response_bounds(trace, wt, ts)
    return {name: (type(rep).__name__, vars(rep)) for name, rep in got.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("other", help="root of the tree to compare with")
    parser.add_argument("--runs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    other = load_other(args.other)
    compared = differ = 0
    for ts, wt, sc, trace in runs(args.runs, args.seed):
        mine, theirs = (reports(module, trace, ts, wt, sc)
                        for module in (verify, other))
        for name in mine.keys() | theirs.keys():
            compared += 1
            if mine.get(name) != theirs.get(name):
                differ += 1
                if differ <= SHOWN:
                    print(f"differs: {trace.protocol} {name}\n  this:  "
                          f"{mine.get(name)}\n  other: {theirs.get(name)}")
    print(f"{args.runs} runs, {compared} reports compared, {differ} differ")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
