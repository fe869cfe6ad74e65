"""Protocol sweeps over generated scenarios, and the run preparation that
every simulation shares.

An experiment spec is the JSON object behind `mcsched experiment --spec`,
read by `model.load_json` like a task set or a scenario.
`run_experiment` checks all of it before it writes anything, then runs
every protocol on every scenario and writes one CSV row per run.
"""

from __future__ import annotations

from dataclasses import MISSING, fields as dataclass_fields
from typing import IO

from . import analysis, gen, verify
from .model import FormatError, load_taskset, open_output
from .sim import PROTOCOLS, REM_ORDERS, ProtocolConfig, simulate

CSV_HEADER = ("protocol,seed,scenario_id,misses_hi,misses_enabled,"
              "rem_completed,rem_dropped,mean_tardiness,max_tardiness,"
              "mean_susp_delay,chain_aborts")


class Unschedulable(ValueError):
    """The analysis rejects the task set and the run is not forced."""


def prepare_run(ts, platform, cap, force):
    """(priority assignment, response-time table, analysis result) for a
    run: the analysis's own when the set is schedulable, and the
    deadline-monotonic fallback's when it is not and `force` is set.
    Raises Unschedulable otherwise."""
    res = analysis.opa_assign(ts, platform.m, cap=cap)
    if res.schedulable:
        return res.assignment, res.wcrt_table, res
    if not force:
        raise Unschedulable("task set is not schedulable by the analysis; "
                            "refusing to simulate it without force")
    return (*analysis.dm_fallback(ts, platform.m, cap), res)


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


def _is_name(names):
    return lambda v: type(v) is str and v in names


def _is_protocol_list(v) -> bool:
    return (isinstance(v, (list, tuple)) and len(v) > 0
            and all(map(_is_name(PROTOCOLS), v)) and len(set(v)) == len(v))


def _is_request_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(
        isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_int, x))
        and x[0] >= 0 for x in v)


def _names(names) -> str:
    return "one of " + ", ".join(names)


_SPEC_TYPES = {
    "taskset": (_is(str), "a path string"),
    "gen": (_is(dict), "an object"),
    "seed": (_is_int, "an integer"),
    "scenarios": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "horizon": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "protocols": (_is_protocol_list,
                  "a non-empty list of distinct protocols, each "
                  + _names(PROTOCOLS)),
    "rem_order": (_is_name(REM_ORDERS), _names(REM_ORDERS)),
    "exec_model": (_is_name(gen.EXEC_MODELS), _names(gen.EXEC_MODELS)),
    "dmcr": (_is_request_list,
             "a list of [time, level] integer pairs with time >= 0"),
    "force": (_is(bool), "true or false"),
}


# GenParams field name -> whether a "gen" object must give it
_GEN_FIELDS = {f.name: f.default is MISSING and f.default_factory is MISSING
               for f in dataclass_fields(gen.GenParams)}


def _spec_get(spec: dict, key: str, default):
    value = spec.get(key, default)
    valid, want = _SPEC_TYPES[key]
    if not valid(value):
        raise FormatError(f"experiment spec {key!r} must be {want}, "
                          f"got {value!r}")
    return value


def run_experiment(spec: dict, out: str | IO[str]) -> dict:
    """Run the sweep described by an experiment spec and write CSV rows to
    a path or an open text file.

    Spec keys: "taskset" (path) or "gen" (GenParams fields), "scenarios",
    "horizon", "seed", "protocols", "rem_order", "exec_model", "dmcr",
    "force"; any other key is refused. Every value, and each request's
    target against the set's levels, is checked before a path is opened or
    a row written. Each scenario is drawn once for all protocols. Rows are
    ordered by (protocol, scenario_id) under the single top-level seed, so
    reruns are byte-identical; they are held until every run is done, so a
    run that fails leaves the header alone.
    """
    if not isinstance(spec, dict):
        raise FormatError("experiment spec must be a JSON object")
    unknown = spec.keys() - _SPEC_TYPES.keys()
    if unknown:
        raise FormatError(f"experiment spec has unknown keys {sorted(unknown)}")
    seed = _spec_get(spec, "seed", 0)
    n_scen = _spec_get(spec, "scenarios", 1)
    protocols = _spec_get(spec, "protocols", list(PROTOCOLS))
    rem_order = _spec_get(spec, "rem_order", "crit-edf")
    exec_model = _spec_get(spec, "exec_model", "uniform")
    dmcr = [tuple(x) for x in _spec_get(spec, "dmcr", [])]
    force = _spec_get(spec, "force", False)
    if ("taskset" in spec) == ("gen" in spec):
        raise FormatError("experiment spec needs one 'taskset' or 'gen' entry")
    if "taskset" in spec:
        path = _spec_get(spec, "taskset", None)
        try:
            ts, platform = load_taskset(path)
        except (ValueError, OSError) as exc:  # format, validity, reading
            raise FormatError(f"experiment spec 'taskset' {path}: {exc}") from None
    else:
        fields = _spec_get(spec, "gen", None)
        unknown = fields.keys() - _GEN_FIELDS.keys()
        if unknown:
            raise FormatError(f"experiment spec 'gen' has unknown keys "
                              f"{sorted(unknown)}")
        missing = [name for name, required in _GEN_FIELDS.items()
                   if required and name not in fields]
        if missing:
            raise FormatError(f"experiment spec 'gen' is missing keys {missing}")
        try:
            params = gen.GenParams(**fields)
        except (TypeError, ValueError) as exc:  # bad types or ranges
            raise FormatError(f"experiment spec 'gen': {exc}") from None
        ts, platform = gen.gen_taskset(params, seed)
    if "horizon" in spec:
        horizon = _spec_get(spec, "horizon", None)
    elif ts.tasks:
        horizon = 20 * max(t.T for t in ts.tasks)
    else:
        raise FormatError("experiment spec 'horizon' must be given for a "
                          "task set with no tasks")
    for when, target in dmcr:
        if not 1 <= target < ts.levels:
            raise FormatError(
                f"experiment spec 'dmcr' target {target} at t={when} is not "
                f"in [1, {ts.levels - 1}] for a {ts.levels}-level set")

    pa, wt, res = prepare_run(ts, platform, cap=True, force=force)
    totals = {p: {"misses_enabled": 0, "rem_completed": 0, "rem_dropped": 0,
                  "tardiness": 0.0, "chain_aborts": 0} for p in protocols}
    rows = {p: [] for p in protocols}
    cfgs = [ProtocolConfig(protocol=p, rem_order=rem_order) for p in protocols]
    with open_output(out, newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        # each scenario is drawn once and run under every protocol; a
        # protocol's totals still add up in scenario order
        for i in range(n_scen):
            sc = gen.gen_scenario(ts, horizon, gen.child_seed(seed, i),
                                  exec_model=exec_model, dmcr_plan=dmcr)
            for cfg in cfgs:
                trace = simulate(ts, platform, pa, wt, sc, cfg)
                m = verify.metrics(trace, ts)
                rows[cfg.protocol].append(_csv_row(cfg.protocol, seed, i, m))
                agg = totals[cfg.protocol]
                for key in ("misses_enabled", "rem_completed", "rem_dropped",
                            "chain_aborts"):
                    agg[key] += m[key]
                agg["tardiness"] += m["mean_tardiness"]
        for protocol in protocols:
            fh.writelines(row + "\n" for row in rows[protocol])
    return {"schedulable": res.schedulable, "scenarios": n_scen,
            "protocols": list(protocols), "totals": totals}
