"""Time opa_assign on large task sets and count its kernel passes and fixed
points.

The sets are the bench's opa-large shapes: for each n in --sizes, m = n / 4,
and for each regime LEVELS:UTIL:DRAWS, DRAWS sets of that many levels at
UTIL utilization per processor, drawn by gen.gen_taskset with periods in
--periods LO HI. The defaults are the bench's: regimes 2:0.30:12
(schedulable) and 3:0.80:6 (unschedulable), periods 8 to 24. With them a
seed draws the same sets as the bench's opa-large set-up at that seed.

Each round runs opa_assign once on every set, shape after shape, so a
change in machine speed moves every shape alike. One row per shape prints
its sets, how many are schedulable, the median over the rounds of the
pass's time (the sum over its sets) and of its slowest set's, in ms, and
the kernel passes and fixed points one pass makes. They are counted by
wrapping analysis._bounds and analysis._response for one untimed pass.
--slowest K then lists the K slowest sets by their median.

    PYTHONPATH=src python tests/analysis_probe.py [--seed S] [--rounds N]
        [--sizes N ...] [--regimes LEVELS:UTIL:DRAWS ...]
        [--periods LO HI] [--slowest K]

Standard library and mcsched only; pytest does not collect it, and
tests/test_probes.py runs it on one small shape.
"""

import argparse
import statistics
import time

from mcsched import analysis, gen

SIZES = (32, 40, 48, 56, 64)
REGIMES = ("2:0.30:12", "3:0.80:6")
# draws a set may take before its slot gives up, as in the bench set-up,
# whose slots step the child seed by this much
MAX_DRAWS = 64


def regime(text):
    """(levels, utilization per processor, draws) from LEVELS:UTIL:DRAWS."""
    levels, util, draws = text.split(":")
    if int(draws) < 1:
        raise ValueError(f"a regime needs at least one draw: {text}")
    return int(levels), float(util), int(draws)


def inputs(seed, sizes, regimes, periods=(8, 24)):
    """{(n, levels, util): [(key, ts, m), ...]} in the bench's draw order."""
    shapes, slot = {}, 0
    for n in sizes:
        for levels, util, draws in regimes:
            params = gen.GenParams(n_tasks=n, levels=levels,
                                   total_util=util * (n // 4), m=n // 4,
                                   period_range=tuple(periods))
            sets = shapes[n, levels, util] = []
            for d in range(draws):
                for attempt in range(MAX_DRAWS):
                    try:
                        ts, platform = gen.gen_taskset(params, gen.child_seed(
                            seed, MAX_DRAWS * slot + attempt))
                        break
                    except gen.Infeasible:
                        continue
                else:
                    raise SystemExit(f"no task set for n={n} in "
                                     f"{MAX_DRAWS} draws")
                slot += 1
                sets.append((f"n{n}.L{levels}.u{util}.{d}", ts, platform.m))
    return shapes


def counts(sets):
    """(schedulable, kernel passes, fixed points) of one pass over sets."""
    tally = {"kernel": 0, "fixed": 0}
    bounds, response = analysis._bounds, analysis._response

    def counted_bounds(*args):
        tally["kernel"] += 1
        return bounds(*args)

    def counted_response(*args):
        tally["fixed"] += 1
        return response(*args)

    analysis._bounds, analysis._response = counted_bounds, counted_response
    try:
        schedulable = sum(analysis.opa_assign(ts, m).schedulable
                          for _, ts, m in sets)
    finally:
        analysis._bounds, analysis._response = bounds, response
    return schedulable, tally["kernel"], tally["fixed"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--regimes", type=regime, nargs="+",
                        default=[regime(r) for r in REGIMES])
    parser.add_argument("--periods", type=int, nargs=2, default=[8, 24])
    parser.add_argument("--slowest", type=int, default=0)
    args = parser.parse_args(argv)
    shapes = inputs(args.seed, args.sizes, args.regimes, args.periods)
    times = {key: [] for sets in shapes.values() for key, _, _ in sets}
    for _ in range(args.rounds):
        for sets in shapes.values():
            for key, ts, m in sets:
                t0 = time.perf_counter()
                analysis.opa_assign(ts, m)
                times[key].append((time.perf_counter() - t0) * 1e3)
    ms = {key: statistics.median(t) for key, t in times.items()}
    print(f"seed {args.seed}: median ms of {args.rounds} rounds; "
          "kernel passes and fixed points a pass")
    print(f"{'n':>3} {'levels':>6} {'util':>5} {'sets':>4} {'sched':>5} "
          f"{'pass ms':>8} {'max ms':>7} {'kernel':>7} {'fixed':>7}")
    for (n, levels, util), sets in shapes.items():
        schedulable, kernel, fixed = counts(sets)
        per_round = [sum(times[key][r] for key, _, _ in sets)
                     for r in range(args.rounds)]
        slowest = [max(times[key][r] for key, _, _ in sets)
                   for r in range(args.rounds)]
        print(f"{n:>3} {levels:>6} {util:>5.2f} {len(sets):>4} "
              f"{schedulable:>5} {statistics.median(per_round):>8.2f} "
              f"{statistics.median(slowest):>7.2f} {kernel:>7} {fixed:>7}")
    for key in sorted(ms, key=ms.get, reverse=True)[:args.slowest]:
        print(f"{ms[key]:>8.2f} ms  {key}")


if __name__ == "__main__":
    main()
