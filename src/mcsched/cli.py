"""Command-line front end.

Subcommands:
    analyze     priority assignment + response-time bounds for a task set
    simulate    run one scenario and emit the event trace
    check       re-validate a trace against its inputs
    generate    random task sets and scenarios
    experiment  sweep protocols over generated scenarios into a CSV

Exit codes: 0 success, 1 violation found (missed deadline, failed check),
2 invalid input, 3 refused precondition (simulating an unschedulable set
without --force).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, gen, verify
from .model import (FormatError, ValidationError, dump_scenario, dump_taskset,
                    id_key, load_scenario, load_taskset, scenario_to_dict,
                    taskset_to_dict)
from .sim import (PROTOCOLS, REM_ORDERS, InconsistentInputs, InvalidTarget,
                  ModelViolation, ProtocolConfig, simulate, trace_from_jsonl)

CSV_HEADER = ("protocol,seed,scenario_id,misses_hi,misses_enabled,"
              "rem_completed,rem_dropped,mean_tardiness,max_tardiness,"
              "mean_susp_delay,chain_aborts")


def _fail(msg: str, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _analysis_doc(res: analysis.AnalysisResult, m: int) -> dict:
    doc = {"schedulable": res.schedulable, "m": m}
    if res.assignment is not None:
        doc["ranks"] = {str(tid): res.assignment.rank(tid)
                        for tid in res.assignment.ordered_ids()}
        doc["wcrt"] = [{"task": tid, "level": lv, "bound": r}
                       for (tid, lv), r in sorted(
                           res.wcrt_table.items(),
                           key=lambda kv: (id_key(kv[0][0]), kv[0][1]))]
    if not res.schedulable:
        doc["witness"] = list(res.witness)
    return doc


def cmd_analyze(args) -> int:
    try:
        ts, platform = load_taskset(args.taskset)
    except (FormatError, ValidationError, OSError) as exc:
        return _fail(str(exc))
    res = analysis.opa_assign(ts, platform.m, cap=not args.no_cap)
    json.dump(_analysis_doc(res, platform.m), sys.stdout, indent=2)
    print()
    return 0 if res.schedulable else 1


def _prepare_run(ts, platform, cap, force):
    res = analysis.opa_assign(ts, platform.m, cap=cap)
    if res.schedulable:
        return res.assignment, res.wcrt_table, res
    if force:
        return (*analysis.dm_fallback(ts, platform.m, cap), res)
    return None, None, res


def cmd_simulate(args) -> int:
    try:
        ts, platform = load_taskset(args.taskset)
        sc = load_scenario(args.scenario, ts)
    except (FormatError, ValidationError, OSError) as exc:
        return _fail(str(exc))
    cfg = ProtocolConfig(protocol=args.protocol, rem_order=args.rem_order)
    pa, wt, res = _prepare_run(ts, platform, not args.no_cap, args.force)
    if pa is None:
        print("refusing to simulate: task set is not schedulable by the "
              "analysis (use --force to override)", file=sys.stderr)
        return 3
    try:
        trace = simulate(ts, platform, pa, wt, sc, cfg)
    except (InconsistentInputs, InvalidTarget, ModelViolation) as exc:
        return _fail(str(exc))
    text = trace.to_jsonl()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        summary = verify.metrics(trace, ts)
        summary.pop("tardiness_signed", None)
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        sys.stdout.write(text)
    return 1 if trace.kind("deadline_miss") else 0


def cmd_check(args) -> int:
    try:
        ts, platform = load_taskset(args.taskset)
        with open(args.trace, encoding="utf-8") as fh:
            trace = trace_from_jsonl(fh.read())
        sc = load_scenario(args.scenario, ts) if args.scenario else None
    except (FormatError, ValidationError, ValueError, OSError) as exc:
        return _fail(str(exc))
    reports = verify.check_run(trace, ts, sc=sc)
    # each report's fields after "ok" and "checked", in declaration order
    json.dump({name: {"ok": rep.ok, "checked": rep.checked, **vars(rep)}
               for name, rep in reports.items()}, sys.stdout, indent=2)
    print()
    return 0 if all(rep.ok for rep in reports.values()) else 1


def cmd_generate_taskset(args) -> int:
    try:
        params = gen.GenParams(
            n_tasks=args.n, levels=args.levels, total_util=args.util, m=args.m,
            period_range=(args.period_min, args.period_max),
            ensure_overrunnable=args.overrunnable)
        ts, platform = gen.gen_taskset(params, args.seed)
    except (ValueError, gen.Infeasible) as exc:
        return _fail(str(exc))
    if args.out:
        dump_taskset(ts, platform, args.out)
    else:
        json.dump(taskset_to_dict(ts, platform), sys.stdout, indent=2)
        print()
    return 0


def cmd_generate_scenario(args) -> int:
    try:
        ts, _ = load_taskset(args.taskset)
        dmcr = []
        for spec in args.dmcr or []:
            t, _, lv = spec.partition(":")
            dmcr.append((int(t), int(lv)))
        sc = gen.gen_scenario(ts, args.horizon, args.seed,
                              exec_model=args.exec_model, dmcr_plan=dmcr)
    except (FormatError, ValidationError, ValueError, OSError) as exc:
        return _fail(str(exc))
    if args.out:
        dump_scenario(sc, args.out)
    else:
        json.dump(scenario_to_dict(sc), sys.stdout, indent=2)
        print()
    return 0


def _csv_row(protocol, seed, scenario_id, m) -> str:
    return ",".join([
        protocol, str(seed), str(scenario_id),
        str(m["misses_hi"]), str(m["misses_enabled"]),
        str(m["rem_completed"]), str(m["rem_dropped"]),
        f"{m['mean_tardiness']:.6f}", f"{m['max_tardiness']:.6f}",
        f"{m['mean_susp_delay']:.6f}", str(m["chain_aborts"]),
    ])


def _is(kind):
    """A test for values of exactly this JSON type (a bool is no int)."""
    return lambda v: type(v) is kind


_is_int = _is(int)
_is_str = _is(str)


def _is_str_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_str, v))


def _is_request_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(
        isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_int, x))
        for x in v)


_SPEC_TYPES = {
    "taskset": (_is_str, "a path string"),
    "seed": (_is_int, "an integer"),
    "scenarios": (_is_int, "an integer"),
    "horizon": (_is_int, "an integer"),
    "protocols": (_is_str_list, "a list of protocol names"),
    "rem_order": (_is_str, "a string"),
    "exec_model": (_is_str, "a string"),
    "dmcr": (_is_request_list, "a list of [time, level] integer pairs"),
    "force": (_is(bool), "true or false"),
}


def _spec_get(spec: dict, key: str, default):
    value = spec.get(key, default)
    valid, want = _SPEC_TYPES[key]
    if not valid(value):
        raise FormatError(f"experiment spec {key!r} must be {want}, "
                          f"got {value!r}")
    return value


def run_experiment(spec: dict, out_fh) -> dict:
    """Run the sweep described by an experiment spec and stream CSV rows.

    Spec keys: "taskset" (path) or "gen" (GenParams kwargs), "scenarios",
    "horizon", "seed", "protocols", "rem_order", "exec_model", "dmcr",
    "force"; any other key is refused. Rows are ordered by (protocol,
    scenario_id) under the single top-level seed, so reruns are
    byte-identical.
    """
    if not isinstance(spec, dict):
        raise FormatError("experiment spec must be a JSON object")
    unknown = spec.keys() - _SPEC_TYPES.keys() - {"gen"}
    if unknown:
        raise FormatError(f"experiment spec has unknown keys {sorted(unknown)}")
    seed = _spec_get(spec, "seed", 0)
    if "taskset" in spec:
        ts, platform = load_taskset(_spec_get(spec, "taskset", None))
    elif "gen" in spec:
        try:
            kwargs = dict(spec["gen"])
            kwargs["period_range"] = tuple(kwargs.get("period_range", (8, 24)))
            params = gen.GenParams(**kwargs)
        except TypeError as exc:  # unknown, missing or mistyped gen keys
            raise FormatError(f"experiment spec 'gen': {exc}") from None
        ts, platform = gen.gen_taskset(params, seed)
    else:
        raise FormatError("experiment spec needs a 'taskset' or 'gen' entry")
    n_scen = _spec_get(spec, "scenarios", 1)
    horizon = _spec_get(spec, "horizon", 20 * max(t.T for t in ts.tasks))
    protocols = _spec_get(spec, "protocols", list(PROTOCOLS))
    rem_order = _spec_get(spec, "rem_order", "crit-edf")
    exec_model = _spec_get(spec, "exec_model", "uniform")
    dmcr = [tuple(x) for x in _spec_get(spec, "dmcr", [])]
    force = _spec_get(spec, "force", False)

    pa, wt, res = _prepare_run(ts, platform, cap=True, force=force)
    if pa is None:
        raise gen.Infeasible("task set not schedulable; set 'force' to run anyway")

    out_fh.write(CSV_HEADER + "\n")
    totals = {p: {"misses_enabled": 0, "rem_completed": 0, "rem_dropped": 0,
                  "tardiness": 0.0, "chain_aborts": 0} for p in protocols}
    for protocol in protocols:
        cfg = ProtocolConfig(protocol=protocol, rem_order=rem_order)
        for i in range(n_scen):
            sc = gen.gen_scenario(ts, horizon, gen.child_seed(seed, i),
                                  exec_model=exec_model, dmcr_plan=dmcr)
            trace = simulate(ts, platform, pa, wt, sc, cfg)
            m = verify.metrics(trace, ts)
            out_fh.write(_csv_row(protocol, seed, i, m) + "\n")
            agg = totals[protocol]
            for key in ("misses_enabled", "rem_completed", "rem_dropped",
                        "chain_aborts"):
                agg[key] += m[key]
            agg["tardiness"] += m["mean_tardiness"]
    return {"schedulable": res.schedulable, "scenarios": n_scen,
            "protocols": list(protocols), "totals": totals}


def cmd_experiment(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except RecursionError:
                raise FormatError("experiment spec is nested too deep") from None
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                summary = run_experiment(spec, fh)
            json.dump(summary, sys.stdout, indent=2)
            print()
        else:
            run_experiment(spec, sys.stdout)
            sys.stdout.flush()
    except (FormatError, ValidationError, ValueError, OSError) as exc:
        return _fail(str(exc))
    except gen.Infeasible as exc:
        return _fail(str(exc), 3)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mcsched",
        description="Mixed-criticality scheduling: analysis, simulation, "
                    "verification, and experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="priority assignment and response bounds")
    pa.add_argument("--taskset", required=True)
    pa.add_argument("--no-cap", action="store_true",
                    help="disable the per-task interference cap")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="run one scenario")
    ps.add_argument("--taskset", required=True)
    ps.add_argument("--scenario", required=True)
    ps.add_argument("--protocol", choices=PROTOCOLS, default="drop")
    ps.add_argument("--rem-order", choices=REM_ORDERS, default="crit-edf")
    ps.add_argument("--out", help="trace file (default: stdout)")
    ps.add_argument("--force", action="store_true",
                    help="simulate even if the analysis rejects the set")
    ps.add_argument("--no-cap", action="store_true")
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("check", help="re-validate a trace")
    pc.add_argument("--trace", required=True)
    pc.add_argument("--taskset", required=True)
    pc.add_argument("--scenario")
    pc.set_defaults(func=cmd_check)

    pg = sub.add_parser("generate", help="random task sets and scenarios")
    gsub = pg.add_subparsers(dest="what", required=True)
    pgt = gsub.add_parser("taskset")
    pgt.add_argument("--n", type=int, required=True)
    pgt.add_argument("--levels", type=int, required=True)
    pgt.add_argument("--util", type=float, required=True)
    pgt.add_argument("--m", type=int, default=1)
    pgt.add_argument("--seed", type=int, default=0)
    pgt.add_argument("--period-min", type=int, default=8)
    pgt.add_argument("--period-max", type=int, default=24)
    pgt.add_argument("--overrunnable", action="store_true",
                     help="require a task able to exceed its level-1 budget")
    pgt.add_argument("--out")
    pgt.set_defaults(func=cmd_generate_taskset)
    pgs = gsub.add_parser("scenario")
    pgs.add_argument("--taskset", required=True)
    pgs.add_argument("--horizon", type=int, required=True)
    pgs.add_argument("--seed", type=int, default=0)
    pgs.add_argument("--exec-model", choices=gen.EXEC_MODELS, default="uniform")
    pgs.add_argument("--dmcr", action="append", metavar="TIME:LEVEL",
                     help="level-decrease request (repeatable)")
    pgs.add_argument("--out")
    pgs.set_defaults(func=cmd_generate_scenario)

    pe = sub.add_parser("experiment", help="protocol sweep into a CSV")
    pe.add_argument("--spec", required=True, help="experiment spec (JSON)")
    pe.add_argument("--out", help="CSV file (default: stdout)")
    pe.set_defaults(func=cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
