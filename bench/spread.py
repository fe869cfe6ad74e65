"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/spread.py --workload sweep --seeds 1-10
    python3 bench/spread.py --workload sweep --seeds 1-10 --json out.json

The spread is the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median. A metric
whose spread exceeds its bound in BENCHMARK.json is marked; so is one whose
spread is above a third of the bound, the margin the benchmark aims for.
Each run uses BENCHMARK.json's run_seconds and `--trace 0`. Runs are made
one after another, never in parallel, so they do not disturb each other's
timings.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    ap.add_argument("--json", help="write the summary here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list] = {}
    units: dict[str, str] = {}
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            if k in bounds), flush=True)

    summary = {}
    ok = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "runs": len(vals)}
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            if spread > bound:
                mark, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                mark = "  above a third of the bound"
            mark = f"  (bound {bound}){mark}"
        print(f"{name:34s} median {med:14.6g} {units[name]:6s} "
              f"spread {100 * spread:6.2f}%{mark}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "metrics": summary}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
