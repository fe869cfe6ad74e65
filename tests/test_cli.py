import json
import subprocess
import sys

import pytest

from mcsched.cli import CSV_HEADER, main
from mcsched.model import (MCTask, Platform, Scenario, TaskSet,
                           dump_scenario, dump_taskset, load_taskset)


@pytest.fixture
def sched_ts(tmp_path):
    """A small set the analysis accepts on one processor."""
    ts = TaskSet(tasks=(
        MCTask(id=1, T=8, D=8, L=2, C=(1, 2)),
        MCTask(id=2, T=12, D=12, L=1, C=(2, 2)),
        MCTask(id=3, T=20, D=18, L=2, C=(3, 4)),
    ), levels=2)
    path = tmp_path / "ts.json"
    dump_taskset(ts, Platform(m=1), str(path))
    return ts, str(path)


@pytest.fixture
def heavy_ts(tmp_path):
    """Two heavy tasks that cannot both make their deadlines on m=1."""
    ts = TaskSet(tasks=(
        MCTask(id=1, T=10, D=10, L=1, C=(6,)),
        MCTask(id=2, T=10, D=10, L=1, C=(6,)),
    ), levels=1)
    path = tmp_path / "heavy.json"
    dump_taskset(ts, Platform(m=1), str(path))
    return ts, str(path)


def scenario_file(tmp_path, ts, sc, name="sc.json"):
    path = tmp_path / name
    dump_scenario(sc, str(path))
    return str(path)


def test_analyze_schedulable_reports_full_table(sched_ts, capsys):
    ts, path = sched_ts
    rc = main(["analyze", "--taskset", path])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["schedulable"] is True
    assert set(out["ranks"]) == {"1", "2", "3"}
    levels = {(row["task"], row["level"]) for row in out["wcrt"]}
    assert (1, 1) in levels and (1, 2) in levels and (2, 1) in levels
    for row in out["wcrt"]:
        assert row["bound"] <= ts.by_id(row["task"]).D


def test_analyze_unschedulable_prints_witness(heavy_ts, capsys):
    _, path = heavy_ts
    rc = main(["analyze", "--taskset", path])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["schedulable"] is False
    assert out["witness"] == [1, 2]


def test_analyze_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["analyze", "--taskset", str(bad)])
    capsys.readouterr()
    assert rc == 2


def test_simulate_refuses_unschedulable_without_force(heavy_ts, tmp_path, capsys):
    ts, path = heavy_ts
    sc = Scenario(horizon=20, arrivals={1: (0, 10), 2: (0, 10)},
                  exec_times={1: (6, 6), 2: (6, 6)}, dmcr_requests=())
    sc_path = scenario_file(tmp_path, ts, sc)
    rc = main(["simulate", "--taskset", path, "--scenario", sc_path])
    capsys.readouterr()
    assert rc == 3
    rc = main(["simulate", "--taskset", path, "--scenario", sc_path, "--force"])
    capsys.readouterr()
    assert rc == 1  # the overload misses deadlines


def test_simulate_trace_to_stdout_and_determinism(sched_ts, tmp_path, capsys):
    ts, path = sched_ts
    sc = Scenario(horizon=40,
                  arrivals={1: (0, 8, 16), 2: (0, 12), 3: (2,)},
                  exec_times={1: (1, 1, 1), 2: (2, 2), 3: (3,)},
                  dmcr_requests=())
    sc_path = scenario_file(tmp_path, ts, sc)
    rc = main(["simulate", "--taskset", path, "--scenario", sc_path])
    first = capsys.readouterr().out
    assert rc == 0
    meta = json.loads(first.splitlines()[0])
    assert meta["kind"] == "meta"
    assert meta["horizon"] == 40
    rc = main(["simulate", "--taskset", path, "--scenario", sc_path])
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second


def test_simulate_out_file_prints_metrics(sched_ts, tmp_path, capsys):
    ts, path = sched_ts
    sc = Scenario(horizon=40,
                  arrivals={1: (0, 8), 2: (0,), 3: (0,)},
                  exec_times={1: (1, 2), 2: (2,), 3: (4,)},
                  dmcr_requests=())
    sc_path = scenario_file(tmp_path, ts, sc)
    trace_path = tmp_path / "trace.jsonl"
    rc = main(["simulate", "--taskset", path, "--scenario", sc_path,
               "--protocol", "naive", "--out", str(trace_path)])
    out = capsys.readouterr().out
    assert rc == 0
    metrics = json.loads(out)
    assert metrics["releases"] >= 3
    assert "tardiness_signed" not in metrics
    assert trace_path.read_text().startswith('{"t":0,"kind":"meta"')


def test_drop_and_wcrt_traces_share_releases_but_not_rem_handling(tmp_path, capsys):
    ts = TaskSet(tasks=(
        MCTask(id=1, T=10, D=10, L=2, C=(2, 6)),
        MCTask(id=2, T=10, D=10, L=1, C=(5, 5)),
    ), levels=2)
    ts_path = tmp_path / "ts.json"
    dump_taskset(ts, Platform(m=1), str(ts_path))
    sc = Scenario(horizon=30,
                  arrivals={1: (0, 10, 20), 2: (0, 10, 20)},
                  exec_times={1: (5, 2, 2), 2: (5, 5, 5)},
                  dmcr_requests=())
    sc_path = scenario_file(tmp_path, ts, sc)

    texts = {}
    for protocol in ("drop", "wcrt-simulate"):
        rc = main(["simulate", "--taskset", str(ts_path), "--scenario",
                   sc_path, "--protocol", protocol, "--force"])
        texts[protocol] = capsys.readouterr().out
        assert rc == 0

    def lines_of(kind, text):
        return [ln for ln in text.splitlines() if f'"kind":"{kind}"' in ln]

    assert lines_of("release", texts["drop"]) == \
        lines_of("release", texts["wcrt-simulate"])
    assert len(lines_of("job_dropped", texts["drop"])) > \
        len(lines_of("job_dropped", texts["wcrt-simulate"]))
    assert '"rem":1' not in texts["drop"]
    assert '"rem":1' in texts["wcrt-simulate"]


def simulate_to_file(ts_path, sc_path, out_path, capsys, extra=()):
    rc = main(["simulate", "--taskset", ts_path, "--scenario", sc_path,
               "--out", out_path, *extra])
    capsys.readouterr()
    return rc


def test_check_clean_trace_passes(sched_ts, tmp_path, capsys):
    ts, path = sched_ts
    sc = Scenario(horizon=40,
                  arrivals={1: (0, 8), 2: (0,), 3: (0,)},
                  exec_times={1: (1, 2), 2: (2,), 3: (4,)},
                  dmcr_requests=())
    sc_path = scenario_file(tmp_path, ts, sc)
    trace_path = str(tmp_path / "trace.jsonl")
    assert simulate_to_file(path, sc_path, trace_path, capsys) == 0
    rc = main(["check", "--trace", trace_path, "--taskset", path,
               "--scenario", sc_path])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["feasibility"]["ok"] is True
    assert report["periodicity"]["ok"] is True


def test_check_flags_delayed_release(sched_ts, tmp_path, capsys):
    ts, path = sched_ts
    sc = Scenario(horizon=40,
                  arrivals={1: (0, 8), 2: (0,), 3: (0,)},
                  exec_times={1: (1, 2), 2: (2,), 3: (4,)},
                  dmcr_requests=())
    sc_path = scenario_file(tmp_path, ts, sc)
    trace_path = tmp_path / "trace.jsonl"
    assert simulate_to_file(path, sc_path, str(trace_path), capsys) == 0

    lines = trace_path.read_text().splitlines()
    for i, ln in enumerate(lines):
        rec = json.loads(ln)
        if rec["kind"] == "release" and rec["task"] == 2:
            rec["t"] += 1
            lines[i] = json.dumps(rec, separators=(",", ":"))
            break
    trace_path.write_text("\n".join(lines) + "\n")

    rc = main(["check", "--trace", str(trace_path), "--taskset", path,
               "--scenario", sc_path])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["periodicity"]["ok"] is False
    kinds = [v[0] for v in report["periodicity"]["violations"]]
    assert "ShiftedRelease" in kinds


def test_check_missing_trace_is_input_error(sched_ts, capsys):
    _, path = sched_ts
    rc = main(["check", "--trace", "/nonexistent/trace.jsonl",
               "--taskset", path])
    capsys.readouterr()
    assert rc == 2


META_LINE = ('{"t":0,"kind":"meta","horizon":40,"m":1,"levels":2,'
             '"protocol":"drop","rem_order":"crit-edf"}')


@pytest.mark.parametrize("text", [
    META_LINE + '\n{"t":0,"kind":"release","task":1,"k":1,"mode":1}\n',
    META_LINE + '\n[1,2,3]\n',
    '{"t":0,"kind":"meta","horizon":40,"levels":2,"protocol":"drop",'
    '"rem_order":"crit-edf"}\n',
    META_LINE + '\n{"t":0,"kind":"teleport","mode":1}\n',
    META_LINE + '\n{"t":0,"kind":["release"],"mode":1}\n',
    META_LINE + '\n{"t":0,"kind":"dispatch","task":1,"k":1,"mode":1,'
                '"until":4,"rem":0}\n',
    META_LINE + '\n{"t":0,"kind":"idle","mode":1,"until":4,"procs":1} {}\n',
    META_LINE + '\n{"t":"x","kind":"release","task":1,"k":1,"mode":1,"d":8}\n',
    META_LINE + '\n{"t":0,"kind":"release","task":1,"k":1,"mode":1,"d":"8"}\n',
    META_LINE + '\n{"t":0,"kind":"re_enabled","mode":1,"tasks":[[1]]}\n',
], ids=["release-without-d", "array-line", "meta-without-m", "unknown-kind",
        "unhashable-kind", "dispatch-without-proc", "extra-data",
        "string-time", "string-deadline", "tasks-nested"])
def test_check_malformed_trace_is_input_error(sched_ts, tmp_path, capsys, text):
    _, path = sched_ts
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(text)
    rc = main(["check", "--trace", str(trace_path), "--taskset", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: trace line ")


def test_generate_taskset_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    rc = main(["generate", "taskset", "--n", "4", "--levels", "2",
               "--util", "0.6", "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    ts, platform = load_taskset(str(out))
    assert len(ts.tasks) == 4
    assert platform.m == 1


def test_generate_taskset_rejects_impossible_utilization(capsys):
    rc = main(["generate", "taskset", "--n", "2", "--levels", "2",
               "--util", "1.5", "--m", "1"])
    capsys.readouterr()
    assert rc == 2


def test_generate_scenario_with_requests(tmp_path, sched_ts, capsys):
    _, ts_path = sched_ts
    out = tmp_path / "sc.json"
    rc = main(["generate", "scenario", "--taskset", ts_path,
               "--horizon", "60", "--seed", "5", "--dmcr", "30:1",
               "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["dmcr_requests"] == [{"time": 30, "target_level": 1}]


def test_generate_scenario_bad_request_spec(tmp_path, sched_ts, capsys):
    _, ts_path = sched_ts
    rc = main(["generate", "scenario", "--taskset", ts_path,
               "--horizon", "60", "--dmcr", "abc"])
    capsys.readouterr()
    assert rc == 2


def test_experiment_produces_deterministic_csv(tmp_path, capsys):
    spec = {
        "gen": {"n_tasks": 4, "levels": 2, "total_util": 0.7,
                "period_range": [8, 16], "ensure_overrunnable": True},
        "scenarios": 3,
        "horizon": 200,
        "seed": 1,
        "protocols": ["drop", "naive"],
        "exec_model": "overrun",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    rc = main(["experiment", "--spec", str(spec_path), "--out", str(out1)])
    summary = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert summary["schedulable"] is True
    rc = main(["experiment", "--spec", str(spec_path), "--out", str(out2)])
    capsys.readouterr()
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 3
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[0] in ("drop", "naive")
        assert cells[1] == "1"
        # mean_tardiness is serialized with six decimals
        assert len(cells[7].split(".")[1]) == 6


def test_experiment_refuses_unschedulable_taskset(heavy_ts, tmp_path, capsys):
    _, ts_path = heavy_ts
    spec = {"taskset": ts_path, "scenarios": 1, "horizon": 40, "seed": 0,
            "protocols": ["drop"]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["experiment", "--spec", str(spec_path)])
    capsys.readouterr()
    assert rc == 3


GEN = {"n_tasks": 4, "levels": 2, "total_util": 0.7}


@pytest.mark.parametrize("spec", [
    {"gen": {"n_tasks": 4, "levels": 2, "total_util": 0.7, "colour": "red"}},
    {"gen": {"levels": 2, "total_util": 0.7}},
    [{"gen": {"n_tasks": 4, "levels": 2, "total_util": 0.7}}],
    {"gen": GEN, "seed": [1]},
    {"gen": GEN, "scenarios": "3"},
    {"gen": GEN, "horizon": 200.5},
    {"gen": GEN, "dmcr": [5]},
    {"gen": GEN, "dmcr": [[100, 1, 2]]},
    {"gen": GEN, "protocols": "drop"},
    {"gen": GEN, "protocols": [["drop"]]},
    {"gen": GEN, "rem_order": ["edf"]},
    {"gen": GEN, "exec_model": 1},
    {"taskset": ["ts.json"]},
], ids=["unknown-gen-key", "missing-gen-key", "not-an-object", "list-seed",
        "string-scenarios", "float-horizon", "int-request", "long-request",
        "string-protocols", "nested-protocols", "list-rem-order",
        "int-exec-model", "list-taskset"])
def test_experiment_malformed_spec_is_input_error(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["experiment", "--spec", str(spec_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: experiment spec")


def test_console_script_is_wired(sched_ts):
    _, path = sched_ts
    proc = subprocess.run([sys.executable, "-m", "mcsched.cli", "analyze",
                           "--taskset", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schedulable"] is True
