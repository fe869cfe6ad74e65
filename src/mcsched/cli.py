"""Command-line front end.

Subcommands:
    analyze     priority assignment + response-time bounds for a task set
    simulate    run one scenario and emit the event trace
    check       re-validate a trace against its inputs
    generate    random task sets and scenarios
    experiment  sweep protocols over generated scenarios into a CSV

Exit codes: 0 success, 1 violation found (missed deadline, failed check),
2 invalid input, 3 refused precondition (simulating an unschedulable set
without force). `main` alone maps exceptions to codes 2 and 3.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import analysis, gen, verify
from .experiment import Unschedulable, prepare_run, run_experiment
from .model import (dump_json, dump_scenario, dump_taskset, id_key, load_json,
                    load_scenario, load_taskset, open_output)
from .sim import PROTOCOLS, REM_ORDERS, ProtocolConfig, simulate, trace_from_jsonl


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
    ts, platform = load_taskset(args.taskset)
    res = analysis.opa_assign(ts, platform.m, cap=not args.no_cap)
    dump_json(_analysis_doc(res, platform.m), sys.stdout)
    return 0 if res.schedulable else 1


def cmd_simulate(args) -> int:
    ts, platform = load_taskset(args.taskset)
    sc = load_scenario(args.scenario, ts)
    cfg = ProtocolConfig(protocol=args.protocol, rem_order=args.rem_order)
    pa, wt, _ = prepare_run(ts, platform, not args.no_cap, args.force)
    trace = simulate(ts, platform, pa, wt, sc, cfg)
    with open_output(args.out or sys.stdout) as fh:
        trace.write_jsonl(fh)
    if args.out:
        dump_json(verify.metrics(trace, ts), sys.stdout)
    return 1 if trace.kind("deadline_miss") else 0


def cmd_check(args) -> int:
    ts, platform = load_taskset(args.taskset)
    with open(args.trace, encoding="utf-8") as fh:
        trace = trace_from_jsonl(fh.read())
    sc = load_scenario(args.scenario, ts) if args.scenario else None
    if (trace.m, trace.levels) != (platform.m, ts.levels):
        raise ValueError(f"trace meta line has m={trace.m}, levels="
                         f"{trace.levels}; the task set has m={platform.m}, "
                         f"levels={ts.levels}")
    if sc is not None and trace.horizon != sc.horizon:
        raise ValueError(f"trace meta line has horizon={trace.horizon}; the "
                         f"scenario has horizon={sc.horizon}")
    reports = verify.check_run(trace, ts, sc=sc)
    # each report's fields after "ok" and "checked", in declaration order
    dump_json({name: {"ok": rep.ok, "checked": rep.checked, **vars(rep)}
               for name, rep in reports.items()}, sys.stdout)
    return 0 if all(rep.ok for rep in reports.values()) else 1


def cmd_generate_taskset(args) -> int:
    params = gen.GenParams(
        n_tasks=args.n, levels=args.levels, total_util=args.util, m=args.m,
        period_range=(args.period_min, args.period_max),
        ensure_overrunnable=args.overrunnable)
    ts, platform = gen.gen_taskset(params, args.seed)
    dump_taskset(ts, platform, args.out or sys.stdout)
    return 0


def cmd_generate_scenario(args) -> int:
    ts, _ = load_taskset(args.taskset)
    dmcr = []
    for spec in args.dmcr or []:
        t, _, lv = spec.partition(":")
        try:
            dmcr.append((int(t), int(lv)))
        except ValueError:
            raise ValueError(f"--dmcr {spec!r} is not TIME:LEVEL") from None
    sc = gen.gen_scenario(ts, args.horizon, args.seed,
                          exec_model=args.exec_model, dmcr_plan=dmcr)
    dump_scenario(sc, args.out or sys.stdout)
    return 0


def cmd_experiment(args) -> int:
    summary = run_experiment(load_json(args.spec), args.out or sys.stdout)
    if args.out:
        dump_json(summary, sys.stdout)
    else:
        sys.stdout.flush()
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; parsing
    keeps no state in it between calls."""
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
    """Run one subcommand. An input error exits 2 and a refusal 3, each
    with one `error:` line on stderr; any other exception is a bug and
    keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, Unschedulable) else 2


if __name__ == "__main__":
    sys.exit(main())
