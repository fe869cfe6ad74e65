"""Benchmark for mcsched: one workload per process, single-threaded, closed loop.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md): `sweep`, `roundtrip`, `opa-large`. The seed
fixes every input; the program only ever sees the generated inputs. The
report goes to stdout and its last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0  end-to-end metrics from an untraced run, with times scaled to a
           reference core speed measured by a calibration kernel.
--trace 1  per-layer metrics: the same items run untraced and then traced
           (the package's public functions wrapped at runtime), giving per
           function time, self time per module, counts, the unattributed
           time and the tracing overhead.

Exit codes: 0 all outputs checked out, 1 some operation failed (a checker
violation, an exception, a nonzero CLI exit, or an output that differed
between repeats), 2 the package sources are missing or set-up failed.
"""

import time

LAUNCH = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3  # the per-item median needs three passes to drop one outlier
# The speed a shared core gives this process changes by up to 1.8x within a
# fraction of a second and drifts over minutes. A fixed calibration kernel,
# sampled through every round, measures that speed, and each round's times
# are scaled to the speed at which the kernel takes CALIB_REF_S.
CALIB_N = 6000  # kernel loop length
CALIB_EVERY_S = 0.02  # one kernel sample per this much round time
CALIB_TRIM = 0.1  # share of samples dropped at each end of the mean
CALIB_REF_S = 0.002  # reported times are as if the kernel took this long
SHOWN_FAILURES = 5
clock = time.perf_counter

# per-layer metrics of the traced run: (name, unit)
PER_LAYER_TIMES = (
    "sim.simulate", "sim.to_jsonl", "sim.trace_from_jsonl",
    "verify.check_feasibility", "verify.check_periodicity",
    "verify.check_response_bounds", "verify.metrics",
    "analysis.opa_assign", "gen.gen_scenario", "gen.gen_taskset",
    "model.load_taskset", "model.load_scenario", "model.dump_scenario",
    "cli.generate", "cli.simulate", "cli.check",
)
PER_LAYER_COUNTS = (
    "sim.simulate.calls", "sim.simulate.events", "sim.simulate.level_changes",
    "sim.simulate.rem_jobs", "sim.simulate.ghost_slots", "sim.to_jsonl.bytes",
    "sim.trace_from_jsonl.lines", "verify.l_intervals", "verify.jobs_checked",
    "verify.jobs_spanning", "analysis.opa_assign.calls",
    "analysis.opa_assign.schedulable", "analysis.wcrt.calls",
    "analysis.wcrt.divergent", "gen.gen_scenario.jobs", "gen.gen_taskset.calls",
    "gen.gen_taskset.failed", "cli.exit_nonzero",
)
MODULES = ("model", "analysis", "sim", "verify", "gen", "cli")


def import_program():
    """Import mcsched from this checkout's src/, never from anywhere else."""
    init = SRC / "mcsched" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no mcsched sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import mcsched
    if Path(mcsched.__file__).resolve() != init.resolve():
        raise ImportError(f"mcsched imported from {mcsched.__file__}, not {SRC}")


@dataclass
class Tally:
    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    item_s: dict = field(default_factory=dict)  # item index -> seconds per pass
    events: int = 0
    passes: int = 0
    op_ms: dict = field(default_factory=dict)  # (item index, op) -> ms per pass
    scales: list = field(default_factory=list)  # per pass, applied to its times
    failures: list = field(default_factory=list)
    props: list = field(default_factory=list)


def measure(wl, next_inputs, tracer, digests, seconds=0.0, min_passes=1,
            passes=None):
    """Whole passes over the items: `passes` of them, or as many as start
    within `seconds` and at least `min_passes`. Each pass runs on the inputs
    `next_inputs()` returns.

    `digests` maps item index to the digest of its first output and the ops
    that failed then; an item seen again must reproduce the output, and a
    repeat of a failed output fails again. Properties and the checks a
    workload makes only once are collected on first sight.
    """
    t = Tally()
    start = clock()
    while True:
        speed = Speed(tracer)
        speed.sample()
        # no reference to a pass's inputs outlives it, so the next set-up
        # does not build its inputs while the old ones are still held
        run_pass(wl, next_inputs(), tracer, digests, t, speed)
        t.passes += 1
        if passes is not None:
            if t.passes >= passes:
                break
        elif t.passes >= min_passes and clock() - start >= seconds:
            break
    t.wall_s = clock() - start
    return t


def calibration_kernel() -> int:
    """Fixed pure-Python work of the kind mcsched does: dict and integer
    traffic and a sort of tuples. It never touches mcsched, so its time
    follows only the speed of the core."""
    table = {}
    acc = 0
    for i in range(CALIB_N):
        key = (i * 2654435761) % 997
        table[key] = table.get(key, 0) + (i & 7)
        acc += key // 3
    rows = sorted((v, k) for k, v in table.items())
    return acc + rows[0][1]


class Speed:
    """Kernel samples over one round: the set-up and the pass after it."""

    def __init__(self, tracer):
        from tracing import HARNESS, span
        self.guard = lambda: span(tracer, HARNESS)
        self.samples = []
        self.owed_s = 0.0  # round time not yet matched by samples
        self.mark = clock()

    def sample(self) -> None:
        with self.guard():
            t0 = clock()
            calibration_kernel()
            self.mark = clock()
        self.samples.append(self.mark - t0)

    def keep_up(self) -> None:
        """Sample as often as the time since the last sample asks for."""
        now = clock()
        self.owed_s += now - self.mark
        self.mark = now
        while self.owed_s >= CALIB_EVERY_S:
            self.owed_s -= CALIB_EVERY_S
            self.sample()

    def scale(self) -> float:
        """CALIB_REF_S over the trimmed mean kernel time. A mean, not a
        median: the core switches between a fast and a slow speed, and the
        round's times carry the mix of the two."""
        xs = sorted(self.samples)
        cut = int(len(xs) * CALIB_TRIM)
        return CALIB_REF_S / statistics.fmean(xs[cut:len(xs) - cut])


def run_pass(wl, inputs, tracer, digests, t, speed) -> None:
    """One pass over the items, added to the tally `t` at the speed's scale."""
    item_s, op_ms = {}, {}
    for idx, item in enumerate(inputs.items):
        speed.keep_up()
        first = idx not in digests
        try:
            res = wl.run_item(item, tracer, first)
        except Exception:
            t.ops += wl.ops_per_item
            t.failed += wl.ops_per_item
            t.failures.append(f"{item.key}: {traceback.format_exc(limit=-4)}")
            continue
        failed = min(res.ops, len(res.failures))
        if first:
            digests[idx] = (res.digest, failed)
        elif digests[idx][0] != res.digest:
            res.failures.append(f"{item.key}: output differs from its first run")
            failed = res.ops
        else:
            failed = max(failed, digests[idx][1])
        t.ops += res.ops
        t.failed += failed
        item_s[idx] = res.timed_s
        t.events += res.events
        for j, ms in enumerate(res.samples_ms):
            op_ms[(idx, j)] = ms
        t.failures.extend(res.failures)
        t.props.extend(res.props)
    scale = speed.scale()
    t.scales.append(scale)
    for idx, v in item_s.items():
        t.item_s.setdefault(idx, []).append(v * scale)
    for key, v in op_ms.items():
        t.op_ms.setdefault(key, []).append(v * scale)


def pass_seconds(tally) -> float:
    """Seconds one pass takes: each item's median over the passes, summed.

    The median drops the passes a burst of outside load slowed down; the sum
    keeps every item's weight in the mix.
    """
    return sum(statistics.median(v) for v in tally.item_s.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def property_report(wl, inputs, props) -> list:
    """Input properties measured on this workload, one line each."""
    tasks = inputs.tasks_per_set
    lines = [f"tasks per set: mean {statistics.fmean(tasks):.1f}, "
             f"max {max(tasks)}, sets {len(tasks)}"]
    if not props:
        return lines
    if "schedulable" in props[0]:
        sched = sum(p["schedulable"] for p in props)
        lines.append(f"schedulable: {sched} of {len(props)} analyses, each as "
                     f"its regime expects (a run with another verdict fails)")
        return lines
    ivals = [p["l_intervals"] for p in props]
    judged = sum(p["jobs_judged"] for p in props)
    spanning = sum(p["jobs_spanning"] for p in props)
    lines += [
        f"level intervals per run: mean {statistics.fmean(ivals):.1f}, "
        f"max {max(ivals)} ({len(props)} runs)",
        f"jobs spanning a level change: {spanning} of {judged} completed "
        f"enabled-task jobs ({100 * spanning / max(judged, 1):.2f}%)",
        f"rem jobs per run: mean "
        f"{statistics.fmean(p['rem_jobs'] for p in props):.2f}; "
        f"ghost-hosted slots per run: mean "
        f"{statistics.fmean(p['ghost_slots'] for p in props):.3f}",
        f"trace events per run: mean "
        f"{statistics.fmean(p['events'] for p in props):.0f}",
    ]
    if "trace_bytes" in props[0]:
        lines.append(f"trace bytes per run: mean "
                     f"{statistics.fmean(p['trace_bytes'] for p in props):.0f}")
    else:
        lines.append("trace bytes per run: none (nothing is serialized)")
    return lines


def end_to_end(wl, import_s, setups, tally) -> tuple[dict, list]:
    """The gated metrics (generic names) and the report lines (workload names).

    Latency percentiles are taken over the distinct ops, each at its median
    over the passes: the tail is the slowest inputs, not the moments the
    machine was busy elsewhere. Set-up `i` is scaled with pass `i`, which it
    precedes in the same round; the import with the first.
    """
    scales = tally.scales
    setup_s = import_s * scales[0] + statistics.median(
        s * k for s, k in zip(setups, scales))
    per_pass = pass_seconds(tally)
    ops_per_s = tally.ops / tally.passes / per_pass
    op_ms = [statistics.median(v) for v in tally.op_ms.values()]
    n = len(op_ms)
    cuts = statistics.quantiles(op_ms, n=100, method="inclusive")
    p50, p90, p99 = statistics.median(op_ms), cuts[89], cuts[98]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    unit, units = wl.unit, wl.units
    lines = [
        f"speed: times are scaled per round by {CALIB_REF_S * 1e3:g} ms over "
        f"the kernel's mean time; scale median {statistics.median(scales):.3f}"
        f", range {min(scales):.3f}-{max(scales):.3f} over {len(scales)} rounds",
        f"setup_s {setup_s:.4f} s (the import, {import_s:.4f} s unscaled, plus "
        f"the median of {len(setups)} set-ups, one before each pass)",
        f"{units}_per_s {ops_per_s:.2f} 1/s ({tally.ops} {units} in "
        f"{tally.passes} passes of {per_pass:.3f} s, each item's median)",
    ]
    if tally.events:
        lines.append(f"events_per_s {tally.events / tally.passes / per_pass:.0f}"
                     f" 1/s ({tally.events // tally.passes} events per pass)")
    lines.append(f"{unit}_ms_p50 {p50:.4f} ms (n={n} {units}, each at its "
                 f"median over the passes)")
    lines.append(f"{unit}_ms_p90 {p90:.4f} ms (n={n})")
    if n >= 1000:  # ten samples beyond the cut
        lines.append(f"{unit}_ms_p99 {p99:.4f} ms (n={n}, not gated)")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")
    return metrics, lines


def per_layer(tracer, untraced, traced) -> tuple[dict, list]:
    total, own = tracer.times()
    counts = tracer.counts
    wall = total["bench"]
    metrics = {}
    for name in PER_LAYER_TIMES:
        metrics[name + ".s"] = (total.get(name, 0.0), "s")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    sim_s = total.get("sim.simulate", 0.0)
    metrics["sim.simulate.events_per_s"] = (
        counts.get("sim.simulate.events", 0) / sim_s if sim_s else 0.0, "1/s")
    layer_self = {}
    for mod in MODULES:
        layer_self[mod] = sum(v for k, v in own.items() if k.startswith(mod + "."))
        metrics[mod + ".self_s"] = (layer_self[mod], "s")
    metrics["bench.harness_s"] = (own.get("bench.harness", 0.0), "s")
    metrics["bench.traced_wall_s"] = (wall, "s")
    metrics["bench.unattributed_s"] = (
        wall - sum(layer_self.values()) - own.get("bench.harness", 0.0), "s")
    # both loops' wall times at the reference speed, so drift does not count
    metrics["bench.tracing_overhead"] = (
        traced.wall_s * statistics.median(traced.scales)
        / (untraced.wall_s * statistics.median(untraced.scales)), "ratio")
    metrics["bench.ops"] = (traced.ops, "count")

    ranked = sorted(((v, k) for k, v in own.items() if k != "bench"), reverse=True)
    lines = [f"traced wall {wall:.3f} s, set-up and {traced.passes} pass(es) "
             f"over the items; tracing overhead "
             f"{metrics['bench.tracing_overhead'][0]:.3f}x on the timed loop",
             "self time by function:"]
    lines += [f"  {k:32s} {v:9.4f} s {100 * v / wall:5.1f}%" for v, k in ranked]
    lines.append(f"  {'(unattributed)':32s} "
                 f"{metrics['bench.unattributed_s'][0]:9.4f} s")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # a stopped run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    import_s = clock() - LAUNCH

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(wl, args, import_s, workdir, tracing)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run(wl, args, import_s, workdir, tracing) -> int:
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    problems, setups = [], []
    latest = {}  # the first build's digest and the latest inputs

    def set_up(tracer=None):
        """Build the inputs from the seed; every build must be identical."""
        latest.pop("inputs", None)  # free the old inputs before building anew
        t0 = clock()
        inputs = wl.setup(args.seed, workdir, tracer)
        setups.append(clock() - t0)
        if inputs.digest != latest.setdefault("digest", inputs.digest):
            problems.append("set-up from the same seed produced different inputs")
        latest["inputs"] = inputs
        return inputs

    digests: dict = {}
    if args.trace == 0:
        # a fresh set-up before every pass spreads the set-up samples over the
        # run, so a slow spell of the machine weighs on them as on the passes
        tally = measure(wl, set_up, None, digests, seconds=args.seconds,
                        min_passes=MIN_PASSES)
        tallies = [tally]
        if tally.op_ms:
            metrics, lines = end_to_end(wl, import_s, setups, tally)
        else:  # every op raised: nothing to time
            metrics, lines = {}, []
    else:
        inputs = set_up()
        reference = measure(wl, lambda: inputs, None, digests, passes=1)
        untraced = measure(wl, lambda: inputs, None, digests,
                           seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer)
        try:
            root = tracer.begin("bench")
            inputs = set_up(tracer)
            traced = measure(wl, lambda: inputs, tracer, digests,
                             passes=untraced.passes)
            tracer.end(root)
        finally:
            tracing.restore(undo)
        tallies = [reference, untraced, traced]
        metrics, lines = per_layer(tracer, untraced, traced)
    inputs, input_digest = latest["inputs"], latest["digest"]

    attempted = sum(t.ops for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    print("\n".join(lines))
    print("inputs:")
    props = [p for t in tallies for p in t.props]
    for line in property_report(wl, inputs, props):
        print(f"  {line}")
    print(f"input digest {input_digest}")
    print("output digest " + hashlib.sha256(
        "".join(digests[i][0] for i in sorted(digests)).encode()).hexdigest())
    print(f"failed_ratio {failed / attempted:.6f} ({failed} failed of "
          f"{attempted} {wl.units} attempted)")
    for msg in problems + failures[:SHOWN_FAILURES]:
        print(f"FAILED: {msg}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
