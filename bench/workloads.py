"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup` and runs one item at
a time in `run_item`, which times only calls into mcsched and returns the
item's checked outputs. The timed loop in run.py repeats whole passes over
the items, so every run measures the same mix whatever its length.

Parameters are fixed per workload; the seed changes only the random draws.
Task sets that come out unschedulable (or infeasible to generate) are redrawn
with the same parameters, so the parameter mix is identical for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from mcsched import analysis, cli, gen, model, sim, verify

from tracing import HARNESS, span, trace_counts

clock = time.perf_counter
MAX_DRAWS = 64


class SetupError(RuntimeError):
    """The seed produced no usable input within the draw budget."""


@dataclass
class ItemResult:
    """What one item did. `ops` checked operations ran; `failures` names the
    ones that failed, `digest` is taken over the item's checked outputs."""

    ops: int
    timed_s: float
    samples_ms: list
    digest: str
    events: int = 0
    failures: list = field(default_factory=list)
    props: list = field(default_factory=list)  # one dict per run, first pass only


@dataclass
class Inputs:
    items: list
    digest: str  # over the generated inputs, to show the seed reproduces them
    tasks_per_set: list


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _draw_schedulable(params: gen.GenParams, seed: int, slot: int):
    """First schedulable set for one parameter slot: (draw seed, set,
    platform, analysis)."""
    for attempt in range(MAX_DRAWS):
        draw = gen.child_seed(seed, MAX_DRAWS * slot + attempt)
        try:
            ts, platform = gen.gen_taskset(params, draw)
        except gen.Infeasible:
            continue
        res = analysis.opa_assign(ts, platform.m)
        if res.schedulable:
            return draw, ts, platform, res
    raise SetupError(f"no schedulable set for slot {slot} in {MAX_DRAWS} draws")


def run_properties(trace, resp) -> dict:
    """Input properties of one simulated run, for the property report."""
    _, rem, ghost = trace_counts(trace)
    return {
        "l_intervals": len(verify.compute_l_intervals(trace)),
        "jobs_judged": resp.checked + resp.spanning + resp.unscoped,
        "jobs_spanning": resp.spanning,
        "rem_jobs": rem,
        "ghost_slots": ghost,
        "events": len(trace.events),
    }


def _report_row(rep) -> dict:
    return {"ok": rep.ok, "checked": rep.checked,
            "violations": [list(map(str, v)) for v in rep.violations[:3]]}


# ---------------------------------------------------------------------------
# sweep: the acceptance-sweep mix, many short runs


SWEEP_SETS = 192  # a multiple of 12, so every _sweep_params combination is equal
SWEEP_SCENARIOS = 3  # per set; models and requests follow the scenario's overall index


def sweep_params(idx: int) -> gen.GenParams:
    """The generator parameters of tests/test_acceptance.py::_sweep_params."""
    n = (3, 4, 5, 6, 7, 8)[idx % 6]
    m = 2 + (idx % 2)
    levels = (2, 3, 4)[idx % 3]
    per_proc = (0.40, 0.45, 0.50, 0.55)[idx % 4]
    return gen.GenParams(n_tasks=n, levels=levels, total_util=per_proc * m,
                         m=m, period_range=(8, 12), ensure_overrunnable=True)


@dataclass
class SweepItem:
    key: str
    ts: object
    platform: object
    res: object
    horizon: int
    seed: int
    exec_model: str
    plan: tuple


class Sweep:
    name = "sweep"
    unit, units = "run", "runs"
    ops_per_item = len(sim.PROTOCOLS)

    def __init__(self):
        self.cfgs = [sim.ProtocolConfig(protocol=p) for p in sim.PROTOCOLS]

    def setup(self, seed: int, workdir: Path, tracer) -> Inputs:
        items, tasks, desc = [], [], []
        for j in range(SWEEP_SETS):
            draw, ts, platform, res = _draw_schedulable(sweep_params(j + 1),
                                                        seed, j)
            tasks.append(len(ts))
            horizon = 20 * max(t.T for t in ts.tasks)
            desc.append(json.dumps(model.taskset_to_dict(ts, platform)))
            for i in range(SWEEP_SCENARIOS):
                g = len(items)  # as the acceptance sweep's scenario index
                items.append(SweepItem(
                    key=f"{j}.{i}", ts=ts, platform=platform, res=res,
                    horizon=horizon, seed=gen.child_seed(draw, i),
                    exec_model="overrun" if g % 2 else "uniform",
                    plan=((horizon // 2, 1),) if g % 3 == 0 else ()))
        return Inputs(items, _sha("\n".join(desc).encode()), tasks)

    def run_item(self, item: SweepItem, tracer, want_props: bool) -> ItemResult:
        ts, res = item.ts, item.res
        t0 = clock()
        sc = gen.gen_scenario(ts, item.horizon, item.seed,
                              exec_model=item.exec_model, dmcr_plan=item.plan)
        timed = clock() - t0
        out = ItemResult(ops=0, timed_s=0.0, samples_ms=[], digest="")
        rows = []
        for cfg in self.cfgs:
            t0 = clock()
            trace = sim.simulate(ts, item.platform, res.assignment,
                                 res.wcrt_table, sc, cfg)
            feas = verify.check_feasibility(trace, ts)
            per = verify.check_periodicity(trace, ts, sc)
            resp = verify.check_response_bounds(trace, res.wcrt_table, ts)
            met = verify.metrics(trace, ts)
            dt = clock() - t0
            timed += dt
            out.samples_ms.append(dt * 1e3)
            out.ops += 1
            out.events += len(trace.events)
            with span(tracer, HARNESS):
                bad = [name for name, rep in (("feasibility", feas),
                                              ("periodicity", per),
                                              ("response", resp)) if not rep.ok]
                if bad:
                    out.failures.append(
                        f"{item.key} {cfg.protocol}: {', '.join(bad)} violated")
                rows.append([cfg.protocol, met, _report_row(feas),
                             _report_row(per), _report_row(resp)])
                if want_props:
                    out.props.append(run_properties(trace, resp))
        out.timed_s = timed
        with span(tracer, HARNESS):
            out.digest = _sha(json.dumps(rows, sort_keys=True).encode())
        return out


# ---------------------------------------------------------------------------
# roundtrip: the CLI path through files, long runs with many level changes


RT_SETS = 4
RT_TASKS, RT_M, RT_LEVELS, RT_UTIL_PER_PROC = 12, 4, 3, 0.4
RT_JOBS = 4000  # expected releases per run; the horizon is set to give this
RT_REQUESTS = 200  # evenly spaced level-decrease requests per run


@dataclass
class RoundtripItem:
    key: str
    protocol: str
    ts: object
    wt: dict
    ts_path: str
    sc_path: str
    trace_path: str


def run_cli(argv: list, tracer) -> tuple[int, str, str]:
    """`mcsched <argv>` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with span(tracer, "cli." + argv[0]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    if rc != 0 and tracer is not None:
        tracer.counts["cli.exit_nonzero"] += 1
    return rc, out.getvalue(), err.getvalue()


class Roundtrip:
    name = "roundtrip"
    unit, units = "run", "runs"
    ops_per_item = 1

    def setup(self, seed: int, workdir: Path, tracer) -> Inputs:
        items, tasks, blobs = [], [], []
        trace_path = str(workdir / "trace.jsonl")
        for j in range(RT_SETS):
            ts_path = str(workdir / f"taskset{j}.json")
            sc_path = str(workdir / f"scenario{j}.json")
            for attempt in range(MAX_DRAWS):
                draw = gen.child_seed(seed, MAX_DRAWS * j + attempt)
                rc, _, _ = run_cli(
                    ["generate", "taskset", "--n", str(RT_TASKS),
                     "--levels", str(RT_LEVELS),
                     "--util", repr(RT_UTIL_PER_PROC * RT_M), "--m", str(RT_M),
                     "--seed", str(draw), "--overrunnable", "--out", ts_path],
                    tracer)
                if rc != 0:
                    continue
                ts, platform = model.load_taskset(ts_path)
                res = analysis.opa_assign(ts, platform.m)
                if res.schedulable:
                    break
            else:
                raise SetupError(f"no schedulable set {j} in {MAX_DRAWS} draws")
            # generated arrival gaps average T + (T // 2) / 2
            rate = sum(1 / (t.T + (t.T // 2) / 2) for t in ts.tasks)
            horizon = round(RT_JOBS / rate)
            step = horizon // (RT_REQUESTS + 1)
            argv = ["generate", "scenario", "--taskset", ts_path,
                    "--horizon", str(horizon), "--seed", str(draw),
                    "--exec-model", "overrun", "--out", sc_path]
            for k in range(1, RT_REQUESTS + 1):
                argv += ["--dmcr", f"{k * step}:1"]
            rc, _, err = run_cli(argv, tracer)
            if rc != 0:
                raise SetupError(f"generate scenario exited {rc}: {err.strip()}")
            tasks.append(len(ts))
            for path in (ts_path, sc_path):
                blobs.append(Path(path).read_bytes())
            for protocol in sim.PROTOCOLS:
                items.append(RoundtripItem(f"{j}.{protocol}", protocol, ts,
                                           res.wcrt_table, ts_path, sc_path,
                                           trace_path))
        return Inputs(items, _sha(*blobs), tasks)

    def run_item(self, item: RoundtripItem, tracer, want_props: bool) -> ItemResult:
        t0 = clock()
        rc_sim, out_sim, err_sim = run_cli(
            ["simulate", "--taskset", item.ts_path, "--scenario", item.sc_path,
             "--protocol", item.protocol, "--out", item.trace_path], tracer)
        rc_chk, out_chk, err_chk = run_cli(
            ["check", "--trace", item.trace_path, "--taskset", item.ts_path,
             "--scenario", item.sc_path], tracer)
        # `mcsched check` runs no response-bound check; the library does
        with open(item.trace_path, encoding="utf-8") as fh:
            text = fh.read()
        trace = sim.trace_from_jsonl(text)
        resp = verify.check_response_bounds(trace, item.wt, item.ts)
        dt = clock() - t0
        out = ItemResult(ops=1, timed_s=dt, samples_ms=[dt * 1e3], digest="",
                         events=len(trace.events))
        with span(tracer, HARNESS):
            if rc_sim != 0:
                out.failures.append(f"{item.key}: simulate exited {rc_sim} "
                                    f"{err_sim.strip()}")
            if rc_chk != 0:
                out.failures.append(f"{item.key}: check exited {rc_chk} "
                                    f"{' '.join((err_chk or out_chk).split())[:300]}")
            if not resp.ok:
                out.failures.append(f"{item.key}: response bounds violated "
                                    f"{resp.violations[:3]}")
            # hashed piece by piece, so the harness holds no copy of the trace
            h = hashlib.sha256()
            with open(item.trace_path, "rb") as fh:
                while block := fh.read(1 << 16):
                    h.update(block)
            for part in (out_sim, out_chk, json.dumps(_report_row(resp))):
                h.update(b"\0" + part.encode())
            out.digest = h.hexdigest()
            if want_props:
                props = run_properties(trace, resp)
                props["trace_bytes"] = len(text)
                out.props.append(props)
        return out


# ---------------------------------------------------------------------------
# opa-large: priority assignment on large sets


OPA_SIZES = (32, 40, 48, 56, 64)  # m = n / 4
# (draws per size, levels, utilization per processor, expected verdict)
OPA_REGIMES = ((12, 2, 0.30, True), (6, 3, 0.80, False))


@dataclass
class OpaItem:
    key: str
    ts: object
    m: int
    expect: bool


def check_assignment(ts, m: int, res) -> str | None:
    """Re-derive an opa_assign result; None when it holds up.

    A schedulable verdict must rank every task and its table must equal the
    response-time bound against exactly the tasks ranked above. An
    unschedulable verdict's witness must be a set none of whose members fits
    at the lowest priority among the rest.
    """
    by_id = {t.id: t for t in ts.tasks}

    def bounds(task, hp):
        out = {}
        for level in range(1, task.L + 1):
            try:
                out[(task.id, level)] = analysis.wcrt(task, hp, level, m)
            except analysis.Divergent:
                return None
        return out

    if res.schedulable:
        if not res.assignment.covers(ts):
            return "ranks do not cover the task set"
        order = res.assignment.ordered_ids()
        for pos, tid in enumerate(order):
            task = by_id[tid]
            got = bounds(task, [by_id[o] for o in order[:pos]])
            want = {key: r for key, r in res.wcrt_table.items() if key[0] == tid}
            if got != want or any(r > task.D for r in want.values()):
                return f"task {tid}: table {want} but analysis gives {got}"
        return None
    if not res.witness:
        return "unschedulable without a witness"
    for tid in res.witness:
        task = by_id[tid]
        got = bounds(task, [by_id[o] for o in res.witness if o != tid])
        if got is not None and all(r <= task.D for r in got.values()):
            return f"witness task {tid} fits at the lowest priority"
    return None


class OpaLarge:
    name = "opa-large"
    unit, units = "analysis", "analyses"
    ops_per_item = 1

    def setup(self, seed: int, workdir: Path, tracer) -> Inputs:
        items, tasks, desc = [], [], []
        slot = 0
        for n in OPA_SIZES:
            for draws, levels, per_proc, expect in OPA_REGIMES:
                params = gen.GenParams(n_tasks=n, levels=levels,
                                       total_util=per_proc * (n // 4), m=n // 4)
                for d in range(draws):
                    for attempt in range(MAX_DRAWS):
                        try:
                            ts, platform = gen.gen_taskset(
                                params,
                                gen.child_seed(seed, MAX_DRAWS * slot + attempt))
                            break
                        except gen.Infeasible:
                            continue
                    else:
                        raise SetupError(f"no task set for n={n} in {MAX_DRAWS} draws")
                    slot += 1
                    items.append(OpaItem(f"n{n}.L{levels}.{d}", ts, platform.m,
                                         expect))
                    tasks.append(n)
                    desc.append(json.dumps(model.taskset_to_dict(ts, platform)))
        return Inputs(items, _sha("\n".join(desc).encode()), tasks)

    def run_item(self, item: OpaItem, tracer, want_props: bool) -> ItemResult:
        t0 = clock()
        res = analysis.opa_assign(item.ts, item.m)
        dt = clock() - t0
        out = ItemResult(ops=1, timed_s=dt, samples_ms=[dt * 1e3], digest="")
        with span(tracer, HARNESS):
            ranks = sorted(res.assignment.ranks.items()) if res.schedulable else []
            out.digest = _sha(json.dumps([res.schedulable, ranks,
                                          sorted(res.wcrt_table.items()),
                                          list(res.witness)]).encode())
            if want_props:
                problem = check_assignment(item.ts, item.m, res)
                if problem is None and res.schedulable != item.expect:
                    # the mix of schedulable and unschedulable analyses is
                    # part of the workload; a run that drew another fails
                    problem = (f"verdict {res.schedulable}, but its regime "
                               f"expects {item.expect}")
                if problem is not None:
                    out.failures.append(f"{item.key}: {problem}")
                out.props.append({"schedulable": int(res.schedulable)})
        return out


WORKLOADS = {w.name: w for w in (Sweep, Roundtrip, OpaLarge)}
