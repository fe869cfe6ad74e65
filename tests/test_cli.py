import copy
import functools
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsched import experiment, gen, sim, verify
from mcsched.cli import main
from mcsched.experiment import CSV_HEADER, prepare_run, run_experiment
from mcsched.model import (FormatError, MCTask, Platform, Scenario, TaskSet,
                           dump_scenario, dump_taskset, load_taskset)
from mcsched.sim import (META_FIELDS, PROTOCOLS, ProtocolConfig, Trace,
                         simulate, trace_from_jsonl)


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
    by_id = {t.id: t for t in ts.tasks}
    for row in out["wcrt"]:
        assert row["bound"] <= by_id[row["task"]].D


def test_analyze_unschedulable_prints_witness(heavy_ts, capsys):
    _, path = heavy_ts
    rc = main(["analyze", "--taskset", path])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["schedulable"] is False
    assert out["witness"] == [1, 2]


DEEP = "[" * 100_000  # past the JSON decoder's recursion limit


def task_doc(*drop, **fields):
    """A task entry of a task-set file, without the keys in `drop` and
    with these fields set."""
    doc = {"id": 1, "T": 10, "D": 10, "L": 1, "C": [2], **fields}
    return {key: value for key, value in doc.items() if key not in drop}


def ts_doc(*tasks, drop=(), **fields):
    """A task-set document with these task entries (one default task if
    none), without the keys in `drop` and with these fields set."""
    doc = {"criticality_levels": 2, "processors": 1,
           "tasks": list(tasks) or [task_doc()], **fields}
    return {key: value for key, value in doc.items() if key not in drop}


EXPECTED_INT = "expected integer, got"
C_LIST = "C: expected a non-empty list of integers"

# (id, task-set document as a JSON value or as text, error message): one
# row per refusal of the task-set loader, of validate_taskset and of
# Platform
MALFORMED_TASKSETS = [
    ("not-json", "{not json", "bad JSON at line 1 col 2: ..."),
    ("deep-nesting", DEEP, "bad JSON: nested too deep"),
    ("not-an-object", [ts_doc()], "task-set document must be an object"),
    ("repeated-key", json.dumps(ts_doc()).replace('"T": 10', '"T": 10, "T": 8'),
     "bad JSON: repeated key 'T'"),
    ("missing-levels", ts_doc(drop=["criticality_levels"]),
     "task set: missing field 'criticality_levels'"),
    ("string-levels", ts_doc(criticality_levels="2"),
     f"criticality_levels: {EXPECTED_INT} '2'"),
    ("missing-processors", ts_doc(drop=["processors"]),
     "task set: missing field 'processors'"),
    ("float-processors", ts_doc(processors=1.0),
     f"processors: {EXPECTED_INT} 1.0"),
    ("missing-tasks", ts_doc(drop=["tasks"]), "task set: missing field 'tasks'"),
    ("tasks-object", ts_doc(tasks={"1": task_doc()}), "tasks: expected a list"),
    ("entry-not-object", ts_doc(tasks=[[1, 10, 10, 1, [2]]]),
     "tasks[0]: expected an object"),
    ("missing-id", ts_doc(task_doc("id")), "tasks[0]: missing field 'id'"),
    ("float-id", ts_doc(task_doc(id=1.5)),
     "tasks[0]: id must be an integer or string"),
    ("bool-id", ts_doc(task_doc(id=True)),
     "tasks[0]: id must be an integer or string"),
    ("list-id", ts_doc(task_doc(), task_doc(id=[2])),
     "tasks[1]: id must be an integer or string"),
    ("string-T", ts_doc(task_doc(T="10")), f"tasks[0].T: {EXPECTED_INT} '10'"),
    ("bool-D", ts_doc(task_doc(D=True)), f"tasks[0].D: {EXPECTED_INT} True"),
    ("missing-L", ts_doc(task_doc("L")), "tasks[0]: missing field 'L'"),
    ("float-L", ts_doc(task_doc(L=1.0)), f"tasks[0].L: {EXPECTED_INT} 1.0"),
    ("missing-C", ts_doc(task_doc("C")), "tasks[0]: missing field 'C'"),
    ("int-C", ts_doc(task_doc(C=2)), f"tasks[0].{C_LIST}"),
    ("empty-C", ts_doc(task_doc(C=[])), f"tasks[0].{C_LIST}"),
    ("float-in-C", ts_doc(task_doc(L=2, C=[1, 2.5])), f"tasks[0].{C_LIST}"),
    ("C-between-L-and-levels",
     ts_doc(task_doc(C=[2, 2]), criticality_levels=3),
     "tasks[0].C: C must have length L=1 or levels=3, got 2"),
    ("C-past-levels", ts_doc(task_doc(L=2, C=[1, 2, 2])),
     "tasks[0].C: C must have length L=2 or levels=2, got 3"),
    ("C-not-constant-above-L", ts_doc(task_doc(C=[2, 3])),
     "NonConstantWcetAboveL: task 1: C(2) != C(L)"),
    ("L-zero", ts_doc(task_doc(L=0, C=[2, 2])),
     "CriticalityAboveLambda: task 1: L=0, levels=2"),
    ("L-above-levels", ts_doc(task_doc(L=3, C=[1, 2, 3])),
     "CriticalityAboveLambda: task 1: L=3, levels=2"),
    ("levels-zero", ts_doc(criticality_levels=0),
     "InvalidLevels: levels must be >= 1, got 0; "
     "CriticalityAboveLambda: task 1: L=1, levels=0"),
    ("levels-zero-no-tasks", ts_doc(criticality_levels=0, tasks=[]),
     "InvalidLevels: levels must be >= 1, got 0"),
    ("L-above-levels-and-T-zero",
     ts_doc(task_doc(L=3, C=[1, 2, 3]), task_doc(id=2, T=0)),
     "CriticalityAboveLambda: task 1: L=3, levels=2; "
     "InvalidPeriod: task 2: T=0; DeadlineExceedsPeriod: task 2: D=10, T=0"),
    ("m-zero", ts_doc(processors=0), "InvalidPlatform: m must be >= 1, got 0"),
    ("m-zero-and-T-zero", ts_doc(task_doc(T=0), processors=0),
     "InvalidPlatform: m must be >= 1, got 0; InvalidPeriod: task 1: T=0; "
     "DeadlineExceedsPeriod: task 1: D=10, T=0"),
    ("ids-equal-as-strings", ts_doc(task_doc(), task_doc(id="1")),
     "DuplicateId: tasks 1 and '1' are both '1' in a file"),
    ("T-zero", ts_doc(task_doc(T=0)),
     "InvalidPeriod: task 1: T=0; DeadlineExceedsPeriod: task 1: D=10, T=0"),
    ("D-above-T", ts_doc(task_doc(D=11)),
     "DeadlineExceedsPeriod: task 1: D=11, T=10"),
    ("D-zero", ts_doc(task_doc(D=0)),
     "DeadlineExceedsPeriod: task 1: D=0, T=10; "
     "WcetExceedsDeadline: task 1: C(L)=2 > D=0"),
    ("C-zero", ts_doc(task_doc(C=[0])),
     "InvalidWcet: task 1: C=(0, 0) has entries < 1"),
    ("C-decreasing", ts_doc(task_doc(L=2, C=[3, 2])),
     "NonMonotoneWcet: task 1: C(1)=3 > C(2)=2"),
    ("C-above-D", ts_doc(task_doc(D=4, C=[5])),
     "WcetExceedsDeadline: task 1: C(L)=5 > D=4"),
]


def write_doc(path, doc):
    """Write a document given as a JSON value or as text to path."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc, message",
                         [row[1:] for row in MALFORMED_TASKSETS],
                         ids=[row[0] for row in MALFORMED_TASKSETS])
def test_analyze_malformed_taskset_is_input_error(tmp_path, capsys, doc,
                                                  message):
    rc = main(["analyze", "--taskset", write_doc(tmp_path / "ts.json", doc)])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert stdout == ""
    assert_error(err, message)


def test_analyze_malformed_file_is_input_error(tmp_path, capsys):
    """`check` reads its task set as `analyze` does, before the trace."""
    for name, doc, message in MALFORMED_TASKSETS:
        bad = write_doc(tmp_path / f"{name}.json", doc)
        rc = main(["check", "--trace", bad, "--taskset", bad])
        assert rc == 2
        assert_error(capsys.readouterr().err, message)


def sc_doc(drop=(), **fields):
    """A scenario document for `sched_ts`, without the keys in `drop` and
    with these fields set."""
    doc = {"horizon": 20,
           "tasks": {"1": {"arrivals": [0, 8], "exec_times": [1, 2]}},
           "dmcr_requests": [{"time": 10, "target_level": 1}], **fields}
    return {key: value for key, value in doc.items() if key not in drop}


def jobs(arrivals, exec_times, tid="1"):
    """The tasks object of a scenario with one task's jobs."""
    return {tid: {"arrivals": arrivals, "exec_times": exec_times}}


INT_LIST = "expected a list of integers"

# (id, scenario document for `sched_ts` as a JSON value or as text, error
# message): one row per refusal of the scenario loader and of
# validate_scenario
MALFORMED_SCENARIOS = [
    ("not-json", "{not json", "bad JSON at line 1 col 2: ..."),
    ("deep-nesting", DEEP, "bad JSON: nested too deep"),
    ("not-an-object", [sc_doc()], "scenario document must be an object"),
    ("repeated-task-key",
     '{"horizon": 20, "tasks": {"1": {"arrivals": [0], "exec_times": [1]}, '
     '"1": {"arrivals": [8], "exec_times": [2]}}}',
     "bad JSON: repeated key '1'"),
    ("missing-horizon", sc_doc(drop=["horizon"]),
     "scenario: missing field 'horizon'"),
    ("string-horizon", sc_doc(horizon="20"), f"horizon: {EXPECTED_INT} '20'"),
    ("missing-tasks", sc_doc(drop=["tasks"]), "scenario: missing field 'tasks'"),
    ("tasks-list", sc_doc(tasks=[jobs([0], [1])]),
     "scenario tasks: expected an object keyed by task id"),
    ("entry-not-object", sc_doc(tasks={"1": [[0], [1]]}),
     "scenario tasks['1']: expected an object"),
    ("missing-arrivals", sc_doc(tasks={"1": {"exec_times": [1]}}),
     "scenario tasks['1']: missing field 'arrivals'"),
    ("missing-exec-times", sc_doc(tasks={"1": {"arrivals": [0]}}),
     "scenario tasks['1']: missing field 'exec_times'"),
    ("float-arrival", sc_doc(tasks=jobs([0.5], [1])),
     f"scenario tasks['1'].arrivals: {INT_LIST}"),
    ("bool-exec-time", sc_doc(tasks=jobs([0], [True])),
     f"scenario tasks['1'].exec_times: {INT_LIST}"),
    ("int-exec-times", sc_doc(tasks=jobs([0], 1)),
     f"scenario tasks['1'].exec_times: {INT_LIST}"),
    ("requests-object", sc_doc(dmcr_requests={"time": 10, "target_level": 1}),
     "dmcr_requests: expected a list"),
    ("request-pair", sc_doc(dmcr_requests=[[10, 1]]),
     "dmcr_requests[0]: expected an object"),
    ("request-without-time", sc_doc(dmcr_requests=[{"target_level": 1}]),
     "dmcr_requests[0]: missing field 'time'"),
    ("request-string-level",
     sc_doc(dmcr_requests=[{"time": 10, "target_level": "1"}]),
     f"dmcr_requests[0].target_level: {EXPECTED_INT} '1'"),
    ("negative-horizon", sc_doc(horizon=-1, tasks={}, dmcr_requests=[]),
     "InvalidHorizon: horizon=-1"),
    ("unknown-task", sc_doc(tasks=jobs([0], [1], "9")),
     "UnknownTask: task '9' not in task set"),
    ("arrivals-without-exec-times", sc_doc(tasks=jobs([0, 8], [1])),
     "ArrivalExecMismatch: task 1: 2 arrivals, 1 exec_times"),
    ("gap-below-T", sc_doc(tasks=jobs([0, 7], [1, 1])),
     "MinInterArrivalViolated: task 1: gap 0->7 < T=8"),
    ("negative-first-arrival", sc_doc(tasks=jobs([-1], [1])),
     "NegativeArrival: task 1: first arrival -1"),
    ("exec-zero", sc_doc(tasks=jobs([0], [0])),
     "ExecOutOfRange: task 1 job 1: c=0 not in [1, 2]"),
    ("exec-above-top-budget", sc_doc(tasks=jobs([0, 8], [1, 3])),
     "ExecOutOfRange: task 1 job 2: c=3 not in [1, 2]"),
    ("negative-request-time",
     sc_doc(dmcr_requests=[{"time": -1, "target_level": 1}]),
     "InvalidRequestTime: dmcr at t=-1"),
    ("request-to-top-level",
     sc_doc(dmcr_requests=[{"time": 10, "target_level": 2}]),
     "InvalidTargetLevel: dmcr target=2, levels=2"),
]


def test_malformed_rows_edit_valid_documents(sched_ts, tmp_path, capsys):
    """Each row breaks one rule of a document that is accepted as it is."""
    _, path = sched_ts
    rc = main(["analyze", "--taskset", write_doc(tmp_path / "doc.json",
                                                 ts_doc())])
    assert (rc, capsys.readouterr().err) == (0, "")
    rc = main(["simulate", "--taskset", path, "--scenario",
               write_doc(tmp_path / "sc.json", sc_doc())])
    assert (rc, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("doc, message",
                         [row[1:] for row in MALFORMED_SCENARIOS],
                         ids=[row[0] for row in MALFORMED_SCENARIOS])
def test_simulate_malformed_scenario_is_input_error(sched_ts, tmp_path,
                                                    capsys, doc, message):
    _, path = sched_ts
    rc = main(["simulate", "--taskset", path, "--scenario",
               write_doc(tmp_path / "sc.json", doc)])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert stdout == ""
    assert_error(err, message)


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


REFUSAL = ("error: task set is not schedulable by the analysis; refusing "
           "to simulate it without force\n")


@pytest.mark.parametrize("argv, code", [
    ("generate taskset --n 3 --levels 2 --util 0.5 --out {missing}", 2),
    ("generate taskset --n 3 --levels 2 --util 0.5 --out {dir}", 2),
    ("generate scenario --taskset {ts} --horizon 40 --out {missing}", 2),
    ("simulate --taskset {ts} --scenario {sc} --out {missing}", 2),
    ("simulate --taskset {ts} --scenario {sc} --out {dir}", 2),
    ("analyze --taskset {latin1}", 2),
    ("simulate --taskset {latin1} --scenario {sc}", 2),
    ("simulate --taskset {ts} --scenario {latin1}", 2),
    ("experiment --spec {unbuildable}", 2),
    ("generate scenario --taskset {same_key} --horizon 40", 2),
    ("simulate --taskset {ts} --scenario {key_01}", 2),
    ("generate scenario --taskset {ts} --horizon 40 --dmcr 10", 2),
    ("generate scenario --taskset {ts} --horizon 40 --dmcr 10:1:2", 2),
    ("generate scenario --taskset {ts} --horizon 40 --dmcr x:1", 2),
    ("simulate --taskset {heavy} --scenario {heavy_sc}", 3),
    ("experiment --spec {unschedulable}", 3),
], ids=["taskset-out-missing-dir", "taskset-out-dir", "scenario-out-missing-dir",
        "trace-out-missing-dir", "trace-out-dir", "analyze-not-utf8",
        "simulate-taskset-not-utf8", "simulate-scenario-not-utf8",
        "experiment-unbuildable-gen", "scenario-ids-equal-as-strings",
        "scenario-key-not-as-written", "dmcr-no-level", "dmcr-three-fields",
        "dmcr-time-not-int", "simulate-unschedulable", "experiment-unschedulable"])
def test_input_error_exits_2_and_refusal_exits_3(sched_ts, heavy_ts, tmp_path,
                                                 capsys, argv, code):
    """Every command reports an input error (exit 2) or a refusal (exit 3)
    as one `error:` line, and a refusal in the same words everywhere."""
    ts, ts_path = sched_ts
    heavy, heavy_path = heavy_ts
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff\xfe{}")
    same_key = tmp_path / "same_key.json"  # both ids are "1" in a scenario
    same_key.write_text(json.dumps({
        "criticality_levels": 1, "processors": 1,
        "tasks": [{"id": 1, "T": 8, "D": 8, "L": 1, "C": [1]},
                  {"id": "1", "T": 12, "D": 12, "L": 1, "C": [2]}]}))
    key_01 = tmp_path / "key_01.json"  # "01" is not how a file keys task 1
    key_01.write_text(json.dumps({"horizon": 20, "tasks": {
        "1": {"arrivals": [0], "exec_times": [1]},
        "01": {"arrivals": [8], "exec_times": [1]}}}))
    specs = {"unbuildable": {"gen": {"n_tasks": 300, "levels": 2,
                                     "total_util": 0.5, "max_attempts": 1}},
             "unschedulable": {"taskset": heavy_path}}
    for name, spec in specs.items():
        (tmp_path / name).write_text(json.dumps(spec))
    paths = {name: str(tmp_path / name) for name in specs}
    paths.update(
        ts=ts_path, heavy=heavy_path, latin1=str(latin1), dir=str(tmp_path),
        same_key=str(same_key), key_01=str(key_01),
        missing=str(tmp_path / "missing" / "out"),
        sc=scenario_file(tmp_path, ts, Scenario(
            horizon=20, arrivals={1: (0,), 2: (0,), 3: (0,)},
            exec_times={1: (1,), 2: (2,), 3: (3,)}, dmcr_requests=())),
        heavy_sc=scenario_file(tmp_path, heavy, Scenario(
            horizon=20, arrivals={1: (0, 10), 2: (0, 10)},
            exec_times={1: (6, 6), 2: (6, 6)}, dmcr_requests=()), "heavy_sc"))
    rc = main(argv.format(**paths).split())
    stdout, err = capsys.readouterr()
    assert rc == code
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if code == 3:
        assert err == REFUSAL
    if "--dmcr" in argv:  # the error names the option and its value
        assert err == f"error: --dmcr {argv.split()[-1]!r} is not TIME:LEVEL\n"


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


def test_parser_keeps_no_state_between_calls(sched_ts, tmp_path, capsys):
    """main builds its parser once per process. A call that fails argument
    parsing after taking other options leaves nothing behind: the valid
    call after it prints its own trace and exits as that trace says."""
    ts, path = sched_ts
    sc = Scenario(horizon=40,
                  arrivals={1: (0, 8, 16), 2: (0, 12), 3: (2,)},
                  exec_times={1: (2, 1, 2), 2: (2, 2), 3: (4,)},
                  dmcr_requests=((30, 1),))
    sc_path = scenario_file(tmp_path, ts, sc)
    out = tmp_path / "trace.jsonl"
    with pytest.raises(SystemExit) as failed:
        main(["simulate", "--taskset", path, "--scenario", sc_path,
              "--protocol", "wcet-reclaim", "--rem-order", "srpt", "--force",
              "--out", str(out), "--no-such-option"])
    assert failed.value.code == 2
    assert capsys.readouterr().out == ""
    rc = main(["simulate", "--taskset", path, "--scenario", sc_path])
    pa, wt, _ = prepare_run(ts, Platform(m=1), True, False)
    trace = simulate(ts, Platform(m=1), pa, wt, sc, ProtocolConfig())
    assert capsys.readouterr().out == trace.to_jsonl()
    assert rc == (1 if trace.kind("deadline_miss") else 0)
    assert not out.exists()


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
    assert trace_path.read_text().startswith('{"t":0,"kind":"meta"')


@pytest.mark.parametrize("command", [
    "generate taskset --n 4 --levels 2 --util 0.6 --seed 3",
    "generate scenario --taskset {ts} --horizon 60 --seed 5 --dmcr 30:1",
    "simulate --taskset {ts} --scenario {sc} --protocol wcet-reclaim",
    "experiment --spec {spec}",
], ids=["taskset", "scenario", "trace", "csv"])
def test_out_file_holds_the_stdout_bytes_over_any_old_file(
        sched_ts, tmp_path, capsys, command):
    """`--out` overwrites an old file in place and cuts it to length. Over
    no file, one twice as long, a prefix of the new text and a symlink to a
    longer file, the file holds what stdout gets without `--out`; the
    symlink stays one, and a device is written without being cut."""
    ts, ts_path = sched_ts
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"taskset": ts_path, "scenarios": 2,
                                "horizon": 60, "protocols": ["drop", "naive"]}))
    sc = scenario_file(tmp_path, ts, Scenario(
        horizon=60, arrivals={1: (0, 8, 16), 2: (0, 12), 3: (2,)},
        exec_times={1: (1, 2, 1), 2: (2, 2), 3: (3,)},
        dmcr_requests=((20, 1),)))
    argv = command.format(ts=ts_path, sc=sc, spec=spec).split()
    rc = main(argv)
    data = capsys.readouterr().out.encode()
    assert rc == 0 and data
    olds = {"longer": data * 2, "prefix": data[:len(data) // 2],
            "linked": data + b"old tail"}
    for name, old in olds.items():
        (tmp_path / name).write_bytes(old)
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "linked")
    for out in (tmp_path / "new", tmp_path / "longer", tmp_path / "prefix",
                link):
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == data, out.name
    assert link.is_symlink()
    assert main([*argv, "--out", os.devnull]) == 0


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
    assert list(report) == ["feasibility", "periodicity"]  # not wcet-reclaim
    assert list(report["feasibility"]) == [
        "ok", "checked", "violations", "exempt_rem", "exempt_dropped",
        "spanning"]
    assert report["feasibility"]["ok"] is True
    assert report["periodicity"] == {"ok": True, "checked": 4,
                                     "violations": []}


def test_check_flags_delayed_release(sched_ts, tmp_path, capsys):
    ts, path = sched_ts
    sc = Scenario(horizon=40,
                  arrivals={1: (0, 8), 2: (0,), 3: (0,)},
                  exec_times={1: (1, 2), 2: (2,), 3: (4,)},
                  dmcr_requests=())
    sc_path = scenario_file(tmp_path, ts, sc)
    trace_path = tmp_path / "trace.jsonl"
    assert simulate_to_file(path, sc_path, str(trace_path), capsys) == 0

    # delay task 2's release by a tick, moving its line after the others at
    # t=0, since the reader refuses a line whose t is below the line before
    lines = trace_path.read_text().splitlines()
    for i, ln in enumerate(lines):
        rec = json.loads(ln)
        if rec["kind"] == "release" and rec["task"] == 2:
            rec["t"] += 1
            del lines[i]
            at = next(j for j, ln in enumerate(lines)
                      if json.loads(ln)["t"] >= rec["t"])
            lines.insert(at, json.dumps(rec, separators=(",", ":")))
            break
    trace_path.write_text("\n".join(lines) + "\n")

    rc = main(["check", "--trace", str(trace_path), "--taskset", path,
               "--scenario", sc_path])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["periodicity"]["ok"] is False
    kinds = [v[0] for v in report["periodicity"]["violations"]]
    assert "ShiftedRelease" in kinds


@pytest.fixture
def reclaim_run(tmp_path, capsys):
    """A wcet-reclaim trace file in which job (1, 1) completes at level 2
    after 4 of its 6 budget ticks and its ghost slot hosts job (2, 1) over
    [4, 6); the task set and scenario paths come along."""
    ts = TaskSet(tasks=(
        MCTask(id=1, T=30, D=8, L=2, C=(2, 6)),
        MCTask(id=2, T=30, D=30, L=1, C=(3, 3)),
    ), levels=2)
    ts_path = str(tmp_path / "ts.json")
    dump_taskset(ts, Platform(m=1), ts_path)
    sc_path = scenario_file(tmp_path, ts, Scenario(
        horizon=30, arrivals={1: (0,), 2: (0,)}, exec_times={1: (4,), 2: (3,)},
        dmcr_requests=()))
    trace_path = tmp_path / "trace.jsonl"
    assert simulate_to_file(ts_path, sc_path, str(trace_path), capsys,
                            ["--protocol", "wcet-reclaim"]) == 0
    ghost = '"kind":"dispatch","task":2,"k":1,"proc":0,"mode":2,"until":6'
    assert ghost in trace_path.read_text()
    return ts_path, sc_path, trace_path, ghost


def check_out(reclaim_run, capsys, old="", new=""):
    ts_path, sc_path, trace_path, _ = reclaim_run
    trace_path.write_text(trace_path.read_text().replace(old, new))
    rc = main(["check", "--trace", str(trace_path), "--taskset", ts_path,
               "--scenario", sc_path])
    out, err = capsys.readouterr()
    assert err == ""
    return rc, json.loads(out)


def test_check_reports_reclaim_on_wcet_reclaim_trace(reclaim_run, capsys):
    rc, report = check_out(reclaim_run, capsys)
    assert rc == 0
    assert list(report) == ["feasibility", "periodicity", "reclaim"]
    assert report["reclaim"] == {"ok": True, "checked": 1, "violations": []}


def test_check_flags_stretched_ghost(reclaim_run, capsys):
    ghost = reclaim_run[3]
    rc, report = check_out(reclaim_run, capsys, ghost,
                           ghost.replace('"until":6', '"until":9'))
    assert rc == 1
    assert report["feasibility"]["ok"] and report["periodicity"]["ok"]
    assert report["reclaim"]["violations"] == [
        ["ReclaimOverBudget", 1, 1, "ran 4 + hosted 5 > budget 6 at level 2"]]


def test_check_flags_ghost_of_job_never_completed(reclaim_run, capsys):
    rc, report = check_out(reclaim_run, capsys, '"ghost_k":1', '"ghost_k":7')
    assert rc == 1
    assert [v[:3] for v in report["reclaim"]["violations"]] == [
        ["UnfundedGhost", 1, 7]]


def test_check_missing_trace_is_input_error(sched_ts, capsys):
    _, path = sched_ts
    rc = main(["check", "--trace", "/nonexistent/trace.jsonl",
               "--taskset", path])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("key, value", [("processors", 2),
                                        ("criticality_levels", 3)])
def test_check_refuses_trace_of_another_platform(sched_ts, tmp_path, capsys,
                                                 key, value):
    ts, path = sched_ts
    sc_path = scenario_file(tmp_path, ts, Scenario(
        horizon=40, arrivals={1: (0, 8), 2: (0,), 3: (0,)},
        exec_times={1: (1, 2), 2: (2,), 3: (4,)}, dmcr_requests=()))
    trace_path = str(tmp_path / "trace.jsonl")
    assert simulate_to_file(path, sc_path, trace_path, capsys) == 0
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[key] = value
    for task in doc["tasks"]:  # the shape C keeps under any level count
        task["C"] = task["C"][:task["L"]]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    rc = main(["check", "--trace", trace_path, "--taskset", str(other)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: trace meta line has m=1, levels=2; ")


def test_check_refuses_scenario_of_another_horizon(sched_ts, tmp_path,
                                                   capsys):
    ts, path = sched_ts
    arrivals = {1: (0, 8), 2: (0,), 3: (0,)}
    exec_times = {1: (1, 2), 2: (2,), 3: (4,)}
    sc_path = scenario_file(tmp_path, ts, Scenario(
        horizon=40, arrivals=arrivals, exec_times=exec_times))
    trace_path = str(tmp_path / "trace.jsonl")
    assert simulate_to_file(path, sc_path, trace_path, capsys) == 0
    longer = scenario_file(tmp_path, ts, Scenario(
        horizon=80, arrivals=arrivals, exec_times=exec_times), "long.json")
    rc = main(["check", "--trace", trace_path, "--taskset", path,
               "--scenario", longer])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == ("error: trace meta line has horizon=40; the scenario has "
                   "horizon=80\n")


def lines(*records):
    """The text of a trace with these lines."""
    return "".join(record + "\n" for record in records)


def edit(record, **fields):
    """record, a compact JSON object, with these fields set."""
    return json.dumps({**json.loads(record), **fields}, separators=(",", ":"))


META_LINE = ('{"t":0,"kind":"meta","horizon":40,"m":1,"levels":2,'
             '"protocol":"drop","rem_order":"crit-edf"}')
META_M2 = edit(META_LINE, m=2)
DISPATCH_0 = ('{"t":0,"kind":"dispatch","task":1,"k":1,"proc":0,"mode":1,'
              '"until":4,"rem":0}')
DISPATCH_1 = edit(DISPATCH_0, proc=1)
GHOST_0 = ('{"t":0,"kind":"dispatch","task":2,"k":1,"proc":0,"mode":1,'
           '"until":4,"rem":1,"ghost_task":1,"ghost_k":1}')
IDLE_0 = '{"t":0,"kind":"idle","mode":1,"until":4,"procs":1}'
RELEASE_0 = '{"t":0,"kind":"release","task":1,"k":1,"mode":1,"d":8}'
DMCR_0 = '{"t":0,"kind":"dmcr_requested","mode":2,"target":1}'
PREEMPT_0 = '{"t":0,"kind":"preempt","task":1,"k":1,"proc":0,"mode":1}'
NOT_NEXT_SPAN = ("is empty, leaves [0, 40] or does not start after the span "
                 "before it")
BAD_META = ("trace line 1: meta line has t {}, horizon {}, m {}, levels {}; "
            "t must be 0, the horizon >= 0, m and levels >= 1")
NOT_NEXT_PROC = "is not the next free proc of its span"

# (id, trace text, error message): each case is refused by the rule its id
# names
MALFORMED_TRACES = [
    ("release-without-d",
     lines(META_LINE, '{"t":0,"kind":"release","task":1,"k":1,"mode":1}'),
     "trace line 2: release record has no field 'd'"),
    ("array-line", lines(META_LINE, "[1,2,3]"),
     "trace line 2: expected a JSON object"),
    ("array-line-padded", lines(META_LINE, "  [1,2,3]\t"),
     "trace line 2: expected a JSON object"),
    ("meta-without-m", lines(META_LINE.replace('"m":1,', "")),
     "trace line 1: meta record has no field 'm'"),
    ("unknown-kind", lines(META_LINE, '{"t":0,"kind":"teleport","mode":1}'),
     "trace line 2: unknown kind 'teleport'"),
    ("unhashable-kind",
     lines(META_LINE, '{"t":0,"kind":["release"],"mode":1}'),
     "trace line 2: unknown kind ['release']"),
    ("dispatch-without-proc", lines(META_LINE, DISPATCH_0.replace(
        '"proc":0,', "")),
     "trace line 2: dispatch record has no field 'proc'"),
    ("extra-data", lines(META_LINE, IDLE_0 + " {}"),
     "trace line 2: extra data after the record"),
    ("extra-data-padded", lines(META_LINE, " \t" + IDLE_0 + " {} "),
     "trace line 2: extra data after the record"),
    ("string-time", lines(META_LINE, edit(RELEASE_0, t="x")),
     "trace line 2: release record field 't' must be an integer, got 'x'"),
    ("string-deadline", lines(META_LINE, edit(RELEASE_0, d="8")),
     "trace line 2: release record field 'd' must be an integer, got '8'"),
    ("tasks-nested",
     lines(META_LINE, '{"t":0,"kind":"re_enabled","mode":1,"tasks":[[1]]}'),
     "trace line 2: re_enabled record each element of field 'tasks' must "
     "be an integer or a string, got [[1]]"),
    ("deep-nesting", lines(META_LINE, DEEP), "trace line 2: nested too deep"),
    # past Python's integer-string limit: a ValueError of the scanner that
    # is no JSONDecodeError, with Python's own text after the line number
    ("over-long-integer", lines(META_LINE, '{"t":' + "9" * 5000 + "}"),
     "trace line 2: ..."),
    ("proc-taken-twice", lines(META_LINE, DISPATCH_0, GHOST_0),
     f"trace line 3: proc 0 {NOT_NEXT_PROC}"),
    ("span-ends-before-start", lines(META_LINE, edit(IDLE_0, t=4, until=3)),
     f"trace line 2: span [4, 3) {NOT_NEXT_SPAN}"),
    ("span-modes-differ",
     lines(META_LINE, IDLE_0, edit(DISPATCH_0, mode=2)),
     "trace line 3: mode 2 differs from its span's mode 1"),
    ("proc-past-m", lines(META_LINE, DISPATCH_1),
     f"trace line 2: proc 1 {NOT_NEXT_PROC}"),
    ("empty", "", "trace has no meta line"),
    ("blank-lines", "\n \n\t\n  ", "trace has no meta line"),
    ("span-before-meta", lines(IDLE_0, META_LINE),
     "trace line 1: the meta line must come first, and only once"),
    ("second-meta", lines(META_LINE, META_LINE),
     "trace line 2: the meta line must come first, and only once"),
    ("proc-skipped", lines(META_M2, DISPATCH_1, IDLE_0),
     f"trace line 2: proc 1 {NOT_NEXT_PROC}"),
    ("span-without-idle", lines(META_M2, DISPATCH_0),
     "trace line 2: span [0, 4) ends short of m with no idle line"),
    ("idle-procs-wrong", lines(META_M2, DISPATCH_0, edit(IDLE_0, procs=2)),
     "trace line 3: idle line for 2 procs where 1 are free"),
    ("dispatch-after-idle", lines(META_M2, DISPATCH_0, IDLE_0, DISPATCH_1),
     f"trace line 4: proc 1 {NOT_NEXT_PROC}"),
    ("event-before-meta", lines(RELEASE_0, META_LINE),
     "trace line 1: the meta line must come first, and only once"),
    ("event-past-horizon", lines(META_LINE, edit(RELEASE_0, t=41, d=49)),
     "trace line 2: t=41 is outside [0, horizon=40]"),
    ("negative-time", lines(META_LINE, edit(RELEASE_0, t=-1, d=7)),
     "trace line 2: t=-1 is outside [0, horizon=40]"),
    ("event-before-the-line-before",
     lines(META_LINE, edit(RELEASE_0, t=5, d=13), RELEASE_0),
     "trace line 3: t=0 is outside [5, horizon=40]"),
    ("span-before-the-line-before",
     lines(META_LINE, edit(RELEASE_0, t=5, d=13), DISPATCH_0),
     "trace line 3: span [0, 4) starts before t=5"),
    ("until-past-horizon", lines(META_LINE, edit(DISPATCH_0, until=41)),
     f"trace line 2: span [0, 41) {NOT_NEXT_SPAN}"),
    ("empty-span", lines(META_LINE, edit(DISPATCH_0, until=0)),
     f"trace line 2: span [0, 0) {NOT_NEXT_SPAN}"),
    ("span-split",
     lines(META_M2, DISPATCH_0, edit(RELEASE_0, task=2), DISPATCH_1),
     "trace line 2: span [0, 4) ends short of m with no idle line"),
    ("negative-span-start", lines(META_LINE, edit(DISPATCH_0, t=-1)),
     f"trace line 2: span [-1, 4) {NOT_NEXT_SPAN}"),
    ("span-until-differs",
     lines(META_M2, DISPATCH_0, edit(DISPATCH_1, until=5)),
     "trace line 2: span [0, 4) ends short of m with no idle line"),
    ("dispatch-modes-differ",
     lines(META_M2, DISPATCH_0, edit(DISPATCH_1, mode=2)),
     "trace line 3: mode 2 differs from its span's mode 1"),
    ("ghost-kind", lines(META_LINE, edit(GHOST_0, kind="ghost")),
     "trace line 2: unknown kind 'ghost'"),
    ("preempt-without-fields", lines(META_LINE, '{"t":0,"kind":"preempt"}'),
     "trace line 2: unknown kind 'preempt'"),
    ("preempt-string-time", lines(META_LINE, edit(PREEMPT_0, t="0")),
     "trace line 2: unknown kind 'preempt'"),
    ("preempt-past-horizon", lines(META_LINE, edit(PREEMPT_0, t=41)),
     "trace line 2: unknown kind 'preempt'"),
    ("preempt-proc-past-m", lines(META_LINE, edit(PREEMPT_0, proc=1)),
     "trace line 2: unknown kind 'preempt'"),
    ("dispatch-rem-7", lines(META_LINE, edit(DISPATCH_0, rem=7)),
     "trace line 2: rem 7 is not 0 or 1"),
    ("ghost-rem-0", lines(META_LINE, edit(GHOST_0, rem=0)),
     "trace line 2: rem 0 is not 1 on a ghost-hosting dispatch line"),
    ("meta-negative-horizon", lines(edit(META_LINE, horizon=-5)),
     BAD_META.format(0, -5, 1, 2)),
    ("meta-m-0", lines(edit(META_LINE, m=0)),
     BAD_META.format(0, 40, 0, 2)),
    ("meta-levels-0", lines(edit(META_LINE, levels=0)),
     BAD_META.format(0, 40, 1, 0)),
    ("meta-unknown-protocol", lines(edit(META_LINE, protocol="bogus")),
     "trace line 1: unknown protocol 'bogus'"),
    ("meta-unknown-rem-order", lines(edit(META_LINE, rem_order="y")),
     "trace line 1: unknown rem_order 'y'"),
    ("meta-t-not-0", lines(edit(META_LINE, t=7)),
     BAD_META.format(7, 40, 1, 2)),
    ("span-repeated-after-preempt",
     lines(META_LINE, DISPATCH_0, PREEMPT_0, DISPATCH_0),
     "trace line 3: unknown kind 'preempt'"),
    ("span-repeated-after-later-event",
     lines(META_LINE, DISPATCH_0, edit(RELEASE_0, t=2, task=2, d=14),
           DISPATCH_0),
     f"trace line 4: span [0, 4) {NOT_NEXT_SPAN}"),
    ("release-mode-7", lines(META_LINE, edit(RELEASE_0, mode=7)),
     "trace line 2: mode 7 is outside [1, levels=2]"),
    ("dispatch-mode-0", lines(META_LINE, edit(DISPATCH_0, mode=0)),
     "trace line 2: mode 0 is outside [1, levels=2]"),
    # rows that a piece decoded as one JSON array could misread: the cut
    # tasks array merges two lines into one record, and the line of two
    # records makes up the count
    ("tasks-cut-then-two-records",
     lines(META_LINE, '{"t":0,"kind":"re_enabled","mode":1,"tasks":[2', "3]}",
           DMCR_0 + "," + DMCR_0),
     "trace line 2: Expecting ',' delimiter"),
    ("two-records-spaced",
     lines(META_LINE, RELEASE_0 + " , " + edit(RELEASE_0, task=2, d=12)),
     "trace line 2: extra data after the record"),
    ("record-then-comma-1", lines(META_LINE, RELEASE_0 + ",1"),
     "trace line 2: extra data after the record"),
]


def assert_error(err, message):
    """err is the error line for message, whose trailing "..." stands for
    text quoted from Python or the OS, which must be there but may vary."""
    if message.endswith("..."):
        head = "error: " + message[:-3]
        assert err.startswith(head) and err[len(head):].strip(), err
    else:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("text, message",
                         [row[1:] for row in MALFORMED_TRACES],
                         ids=[row[0] for row in MALFORMED_TRACES])
def test_check_malformed_trace_is_input_error(sched_ts, tmp_path, capsys, text,
                                              message):
    _, path = sched_ts
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(text)
    rc = main(["check", "--trace", str(trace_path), "--taskset", path])
    assert rc == 2
    assert_error(capsys.readouterr().err, message)


def test_trace_reader_names_a_line_past_a_full_span():
    for text in (lines(META_LINE, IDLE_0, DISPATCH_0),
                 lines(META_LINE, DISPATCH_0, DISPATCH_0)):
        with pytest.raises(ValueError,
                           match=f"^trace line 3: proc 0 {NOT_NEXT_PROC}$"):
            trace_from_jsonl(text)


def test_trace_reader_errors_do_not_depend_on_its_pieces(monkeypatch):
    """Every MALFORMED_TRACES row read in pieces of a few characters gets
    the message and line number it gets read whole."""
    for name, text, _ in MALFORMED_TRACES:
        with pytest.raises(ValueError) as whole:
            trace_from_jsonl(text)
        for piece in (1, 2, 5):
            monkeypatch.setattr(sim, "_READ_CHARS", piece)
            with pytest.raises(ValueError) as cut:
                trace_from_jsonl(text)
            assert str(cut.value) == str(whole.value), (name, piece)
        monkeypatch.undo()


@functools.lru_cache(maxsize=None)
def fuzz_inputs() -> tuple:
    """A generated set, its analysis table, and one short scenario and
    trace per protocol, with an overrun and a level decrease request, so
    every line kind appears."""
    params = gen.GenParams(n_tasks=4, levels=2, total_util=1.2, m=2,
                           period_range=(8, 12), ensure_overrunnable=True)
    ts, platform = gen.gen_taskset(params, 3)
    pa, wt, _ = prepare_run(ts, platform, True, True)
    scenarios = tuple(gen.gen_scenario(ts, 40, i, exec_model="overrun",
                                       dmcr_plan=((20, 1),))
                      for i in range(len(PROTOCOLS)))
    traces = tuple(simulate(ts, platform, pa, wt, sc,
                            ProtocolConfig(protocol)).to_jsonl()
                   for sc, protocol in zip(scenarios, PROTOCOLS))
    return ts, wt, scenarios, traces


FUZZ_CHARS = '{}[]":,-.0123456789eEtrufalsn \n\\'
FUZZ_VALUES = [None, True, -1, 1.5, 10**20, "x", "", [], [[1]], {}, {"t": 0}]


@st.composite
def fuzzed_trace(draw):
    """A valid or malformed trace with one to three edits: characters
    deleted or inserted, two lines swapped, a field given another JSON type,
    an integer field moved by up to 3, or brackets nested into a line."""
    # half the seeds are generated traces, so that edited ones often parse
    text = draw(st.sampled_from(fuzz_inputs()[3])
                | st.sampled_from([row[1] for row in MALFORMED_TRACES]))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["delete", "insert", "swap", "retype",
                                     "nudge", "nest"]))
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "delete":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        elif edit == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.text(FUZZ_CHARS, min_size=1,
                                             max_size=8)) + text[at:]
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        elif edit in ("retype", "nudge"):
            try:
                rec = json.loads(lines[i])
            except (ValueError, RecursionError):
                continue
            if not isinstance(rec, dict):
                continue
            ints = sorted(k for k, v in rec.items() if type(v) is int)
            if edit == "retype" and rec:
                rec[draw(st.sampled_from(sorted(rec)))] = draw(
                    st.sampled_from(FUZZ_VALUES))
            elif edit == "nudge" and ints:
                rec[draw(st.sampled_from(ints))] += draw(st.integers(-3, 3))
            lines[i] = json.dumps(rec, separators=(",", ":"))
            text = "\n".join(lines)
        else:
            at = draw(st.integers(0, len(lines[i])))
            depth = draw(st.sampled_from([1, 2, 100_000]))
            closing = "]" * depth if draw(st.booleans()) else ""
            lines[i] = lines[i][:at] + "[" * depth + lines[i][at:] + closing
            text = "\n".join(lines)
    return text


@given(text=fuzzed_trace())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_trace_reader_fuzz_raises_only_value_error(text):
    try:
        trace = trace_from_jsonl(text)
    except ValueError:
        return
    assert isinstance(trace, Trace)
    # what the reader accepts, the writer writes back readably and unchanged
    back = trace_from_jsonl(trace.to_jsonl())
    assert back.events == trace.events
    assert [getattr(back, f) for f in META_FIELDS] == [
        getattr(trace, f) for f in META_FIELDS]
    # the reader's contract on what it accepts
    times = [ev[1] for ev in trace.events]
    assert times == sorted(times)
    for ev in trace.events:
        if ev[0] == "sched":
            assert ev[1] < ev[3] <= trace.horizon
            assert len(ev[4]) <= trace.m
        else:
            assert 0 <= ev[1] <= trace.horizon
    # whatever parses goes through every checker without raising, and each
    # checker alone reports what the whole-run check reports
    ts, wt, scenarios, _ = fuzz_inputs()
    sc = scenarios[0]
    alone = {"feasibility": verify.check_feasibility(trace, ts),
             "periodicity": verify.check_periodicity(trace, ts, sc),
             "response": verify.check_response_bounds(trace, wt, ts)}
    reports = verify.check_run(trace, ts, wt, sc)
    reclaim = reports.pop("reclaim", None)
    assert (reclaim is None) == (trace.protocol != "wcet-reclaim")
    assert list(reports) == list(alone)
    for name, rep in reports.items():
        assert rep == alone[name], name
    verify.metrics(trace, ts)


@st.composite
def edited_lines(draw):
    """The text of a fuzz_inputs() trace with one to four edits: a line
    split at an offset, a re_enabled line cut at a comma of its tasks array
    (the comma dropped), two lines joined by "," or " , ", one of { } [ ] ,
    or a raw U+2028 (a line boundary of str.splitlines) inserted, or a line
    blanked. A cut of a record anywhere but between two array elements
    never decodes, even with the comma a block puts in, so the tasks cut is
    what lets a merge and a two-record line meet in one piece; the trace is
    one with such an array."""
    lines = next(text for text in fuzz_inputs()[3]
                 if re.search(r'"tasks":\[\d+,', text)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["split", "cut-tasks", "join", "insert",
                                     "blank"]))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if edit == "split":
            at = draw(st.integers(0, len(line)))
            lines[i:i + 1] = [line[:at], line[at:]]
        elif edit == "cut-tasks":
            cuts = [(j, at) for j, other in enumerate(lines)
                    if '"tasks":[' in other
                    for at in range(other.index('"tasks":['), len(other))
                    if other[at] == ","]
            if cuts:
                j, at = draw(st.sampled_from(cuts))
                lines[j:j + 1] = [lines[j][:at], lines[j][at + 1:]]
        elif edit == "join":
            if i + 1 < len(lines):
                lines[i:i + 2] = [line + draw(st.sampled_from([",", " , "]))
                                  + lines[i + 1]]
        elif edit == "insert":
            at = draw(st.integers(0, len(line)))
            lines[i] = (line[:at] + draw(st.sampled_from(
                ["{", "}", "[", "]", ",", "\u2028"])) + line[at:])
        else:
            lines[i] = ""
    return "\n".join(lines) + "\n"


@given(text=edited_lines())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_block_decode_gives_each_line_its_own_record(text):
    """Whenever the reader decodes a piece as one JSON array, the records
    are those of its lines decoded one at a time."""
    lines = text.splitlines()
    records = sim._block_records(lines)
    if records is not None:
        assert records == [json.loads(line) for line in lines]


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


@pytest.mark.parametrize("m", ["0", "-1"])
def test_generate_taskset_rejects_m_below_1(capsys, m):
    rc = main(["generate", "taskset", "--n", "3", "--levels", "2",
               "--util", "0.5", "--m", m])
    assert rc == 2
    assert capsys.readouterr().err == "error: m must be positive\n"


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


def test_experiment_failing_midway_leaves_only_the_header(tmp_path,
                                                        monkeypatch):
    """A run that raises after some runs have finished leaves the header
    alone: rows are held until every run is done, and none of the longer
    old file's bytes stay after the header."""
    spec = {"gen": {"n_tasks": 4, "levels": 2, "total_util": 0.7,
                    "period_range": [8, 16]},
            "scenarios": 3, "horizon": 200, "seed": 1,
            "protocols": ["drop", "naive"]}
    full = io.StringIO()
    run_experiment(spec, full)
    rows = full.getvalue().splitlines(keepends=True)
    out = tmp_path / "out.csv"
    out.write_text(full.getvalue() * 2)
    real, calls = experiment.simulate, []

    def fail_on_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("simulate failed")
        return real(*args)

    monkeypatch.setattr(experiment, "simulate", fail_on_third)
    with pytest.raises(RuntimeError, match="simulate failed"):
        run_experiment(spec, str(out))
    assert out.read_bytes() == rows[0].encode()


def test_experiment_draws_each_scenario_once(monkeypatch):
    """Every protocol runs on one draw of each scenario, and the CSV is the
    same as with a draw per run."""
    spec = {"gen": {"n_tasks": 4, "levels": 2, "total_util": 0.7,
                    "period_range": [8, 16]},
            "scenarios": 3, "horizon": 200, "seed": 1,
            "protocols": ["drop", "naive", "wcet-reclaim"]}
    real, seeds = gen.gen_scenario, []

    def counted(ts, horizon, seed, **kw):
        seeds.append(seed)
        return real(ts, horizon, seed, **kw)

    monkeypatch.setattr(gen, "gen_scenario", counted)
    buf = io.StringIO()
    run_experiment(spec, buf)
    assert seeds == [gen.child_seed(1, i) for i in range(3)]
    ts, platform = gen.gen_taskset(gen.GenParams(**spec["gen"]), 1)
    pa, wt, _ = prepare_run(ts, platform, cap=True, force=False)
    expected = [CSV_HEADER]
    for protocol in spec["protocols"]:
        cfg = ProtocolConfig(protocol=protocol)
        for i in range(3):
            sc = real(ts, 200, gen.child_seed(1, i))
            m = verify.metrics(simulate(ts, platform, pa, wt, sc, cfg), ts)
            expected.append(experiment._csv_row(protocol, 1, i, m))
    assert buf.getvalue() == "".join(row + "\n" for row in expected)


def test_experiment_refuses_unschedulable_taskset(heavy_ts, tmp_path, capsys):
    _, ts_path = heavy_ts
    spec = {"taskset": ts_path, "scenarios": 1, "horizon": 40, "seed": 0,
            "protocols": ["drop"]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.csv"
    rc = main(["experiment", "--spec", str(spec_path), "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize("horizon", [30, None])
def test_experiment_on_a_set_with_no_tasks(tmp_path, capsys, horizon):
    ts_path = tmp_path / "empty.json"
    ts_path.write_text(json.dumps({"criticality_levels": 2, "processors": 1,
                                   "tasks": []}))
    spec = {"taskset": str(ts_path), "protocols": ["drop"]}
    if horizon is not None:
        spec["horizon"] = horizon
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["experiment", "--spec", str(spec_path)])
    stdout, err = capsys.readouterr()
    if horizon is None:
        assert rc == 2
        assert err.startswith("error: experiment spec 'horizon'")
    else:
        assert rc == 0
        assert stdout.splitlines()[1:] == [
            "drop,0,0,0,0,0,0,0.000000,0.000000,0.000000,0"]


GEN = {"n_tasks": 4, "levels": 2, "total_util": 0.7}
FORCED = {"gen": GEN, "force": True}  # runs past the analysis
PROTOCOL_LIST = ("a non-empty list of distinct protocols, each one of drop, "
                 "naive, wcet-reclaim, wcrt-simulate")
REQUEST_LIST = "a list of [time, level] integer pairs with time >= 0"

# (id, spec, error message), the spec as a JSON value or as text
MALFORMED_SPECS = [
    ("unknown-gen-key",
     {"gen": {"n_tasks": 4, "levels": 2, "total_util": 0.7, "colour": "red"}},
     "experiment spec 'gen' has unknown keys ['colour']"),
    ("missing-gen-key", {"gen": {"levels": 2, "total_util": 0.7}},
     "experiment spec 'gen' is missing keys ['n_tasks']"),
    ("not-an-object",
     [{"gen": {"n_tasks": 4, "levels": 2, "total_util": 0.7}}],
     "experiment spec must be a JSON object"),
    ("list-seed", {"gen": GEN, "seed": [1]},
     "experiment spec 'seed' must be an integer, got [1]"),
    ("string-scenarios", {"gen": GEN, "scenarios": "3"},
     "experiment spec 'scenarios' must be a positive integer, got '3'"),
    ("float-horizon", {"gen": GEN, "horizon": 200.5},
     "experiment spec 'horizon' must be a non-negative integer, got 200.5"),
    ("int-request", {"gen": GEN, "dmcr": [5]},
     f"experiment spec 'dmcr' must be {REQUEST_LIST}, got [5]"),
    ("long-request", {"gen": GEN, "dmcr": [[100, 1, 2]]},
     f"experiment spec 'dmcr' must be {REQUEST_LIST}, got [[100, 1, 2]]"),
    ("string-protocols", {"gen": GEN, "protocols": "drop"},
     f"experiment spec 'protocols' must be {PROTOCOL_LIST}, got 'drop'"),
    ("nested-protocols", {"gen": GEN, "protocols": [["drop"]]},
     f"experiment spec 'protocols' must be {PROTOCOL_LIST}, got [['drop']]"),
    ("list-rem-order", {"gen": GEN, "rem_order": ["edf"]},
     "experiment spec 'rem_order' must be one of crit-edf, edf, srpt, got "
     "['edf']"),
    ("int-exec-model", {"gen": GEN, "exec_model": 1},
     "experiment spec 'exec_model' must be one of uniform, basic, overrun, "
     "overrun-then-calm, got 1"),
    ("list-taskset", {"taskset": ["ts.json"]},
     "experiment spec 'taskset' must be a path string, got ['ts.json']"),
    ("force-string", {"gen": GEN, "force": "no"},
     "experiment spec 'force' must be true or false, got 'no'"),
    ("no-cap", {"gen": GEN, "no_cap": True},
     "experiment spec has unknown keys ['no_cap']"),
    ("unknown-key", {"gen": GEN, "senarios": 3},
     "experiment spec has unknown keys ['senarios']"),
    ("deep-nesting", DEEP, "bad JSON: nested too deep"),
    ("float-n-tasks", {"gen": {**GEN, "n_tasks": 3.5}},
     "experiment spec 'gen': n_tasks must be of type int, got 3.5"),
    ("float-levels", {"gen": {**GEN, "levels": 2.0}},
     "experiment spec 'gen': levels must be of type int, got 2.0"),
    ("float-m", {"gen": {**GEN, "m": 2.0}},
     "experiment spec 'gen': m must be of type int, got 2.0"),
    ("float-period",
     {"gen": {**GEN, "period_range": [8.5, 12]}, "horizon": 40,
      "force": True},
     "experiment spec 'gen': period_range must be of type tuple[int, int], "
     "got [8.5, 12]"),
    ("bool-n-tasks", {"gen": {**GEN, "n_tasks": True}},
     "experiment spec 'gen': n_tasks must be of type int, got True"),
    ("gen-pairs",
     {"gen": [["n_tasks", 4], ["levels", 2], ["total_util", 0.7]],
      "force": True},
     "experiment spec 'gen' must be an object, got [['n_tasks', 4], "
     "['levels', 2], ['total_util', 0.7]]"),
    ("zero-n-tasks", {"gen": {**GEN, "n_tasks": 0}},
     "experiment spec 'gen': n_tasks must be positive"),
    ("zero-max-attempts", {"gen": {**GEN, "max_attempts": 0}},
     "experiment spec 'gen': max_attempts must be positive"),
    ("nan-inflation", {"gen": {**GEN, "inflation": float("nan")}},
     "experiment spec 'gen': inflation must be >= 1"),
    ("nan-util-tolerance", {"gen": {**GEN, "util_tolerance": float("nan")}},
     "experiment spec 'gen': util_tolerance must be >= 0"),
    ("unknown-protocol", {**FORCED, "protocols": ["bogus"]},
     f"experiment spec 'protocols' must be {PROTOCOL_LIST}, got ['bogus']"),
    ("no-protocols", {**FORCED, "protocols": []},
     f"experiment spec 'protocols' must be {PROTOCOL_LIST}, got []"),
    ("repeated-protocol", {**FORCED, "protocols": ["drop", "drop"]},
     f"experiment spec 'protocols' must be {PROTOCOL_LIST}, got ['drop', "
     "'drop']"),
    ("unknown-rem-order", {**FORCED, "rem_order": "bogus"},
     "experiment spec 'rem_order' must be one of crit-edf, edf, srpt, got "
     "'bogus'"),
    ("unknown-exec-model", {**FORCED, "exec_model": "bogus"},
     "experiment spec 'exec_model' must be one of uniform, basic, overrun, "
     "overrun-then-calm, got 'bogus'"),
    ("negative-horizon", {**FORCED, "horizon": -5},
     "experiment spec 'horizon' must be a non-negative integer, got -5"),
    ("negative-scenarios", {**FORCED, "scenarios": -3},
     "experiment spec 'scenarios' must be a positive integer, got -3"),
    ("zero-scenarios", {**FORCED, "scenarios": 0},
     "experiment spec 'scenarios' must be a positive integer, got 0"),
    ("request-above-levels", {**FORCED, "dmcr": [[5, 7]]},
     "experiment spec 'dmcr' target 7 at t=5 is not in [1, 1] for a "
     "2-level set"),
    ("negative-request-time", {**FORCED, "dmcr": [[-1, 1]]},
     f"experiment spec 'dmcr' must be {REQUEST_LIST}, got [[-1, 1]]"),
    ("not-json", "{not json", "bad JSON at line 1 col 2: ..."),
    ("repeated-key", json.dumps({**FORCED, "seed": 1})[:-1] + ', "seed": 2}',
     "bad JSON: repeated key 'seed'"),
    ("taskset-and-gen", {"gen": GEN, "taskset": "ts.json"},
     "experiment spec needs one 'taskset' or 'gen' entry"),
    ("missing-taskset", {"taskset": "/nonexistent/ts.json"},
     "experiment spec 'taskset' /nonexistent/ts.json: ..."),
]


@pytest.mark.parametrize("spec, message",
                         [row[1:] for row in MALFORMED_SPECS],
                         ids=[row[0] for row in MALFORMED_SPECS])
def test_experiment_malformed_spec_is_input_error(tmp_path, capsys, spec,
                                                  message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    out = tmp_path / "out.csv"
    rc = main(["experiment", "--spec", str(spec_path), "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert_error(err, message)
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("doc, why", [
    ({"criticality_levels": 2, "processors": 1,
      "tasks": [{"id": 1, "T": 0, "D": 8, "L": 1, "C": [1]}]},
     "InvalidPeriod"),
    ({"criticality_levels": 2, "processors": 1, "tasks": {}},
     "tasks: expected a list")], ids=["invalid-set", "malformed-set"])
def test_experiment_bad_taskset_file_is_spec_error(tmp_path, capsys, doc, why):
    ts_path = tmp_path / "ts.json"
    ts_path.write_text(json.dumps(doc))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"taskset": str(ts_path)}))
    out = tmp_path / "out.csv"
    rc = main(["experiment", "--spec", str(spec_path), "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith(f"error: experiment spec 'taskset' {ts_path}: {why}")
    assert stdout == ""
    assert not out.exists()


TINY_SPEC = {"gen": {"levels": 2, "n_tasks": 3, "total_util": 0.6, "m": 1,
                     "period_range": [8, 12], "ensure_overrunnable": True},
             "scenarios": 2, "horizon": 40, "seed": 1,
             "protocols": ["drop", "wcet-reclaim"], "rem_order": "edf",
             "exec_model": "overrun", "dmcr": [[20, 1]], "force": True}


@pytest.mark.parametrize("inflation", [1e308, float("inf")])
def test_experiment_runs_with_unbounded_inflation(tmp_path, capsys,
                                                  inflation):
    spec = {**TINY_SPEC, "gen": {**TINY_SPEC["gen"], "inflation": inflation}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["experiment", "--spec", str(spec_path)])
    stdout, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert len(stdout.splitlines()) == 1 + 2 * 2  # 2 protocols x 2 scenarios


SPEC_VALUES = [None, True, False, -1, 0, 2, 1.5, 2.0, "", "x", "drop", [],
               [1], [8.5, 12], [[20, 1]], {}, {"n_tasks": 1}]
SPEC_CHARS = '{}[]":,-.eEtrufalsn \\'  # no digits: numbers only shrink


@st.composite
def fuzzed_spec(draw):
    """A malformed or tiny valid spec as JSON text, with one key's value
    (top-level or in "gen") replaced by a value of another JSON type, or
    with characters deleted or inserted."""
    spec = copy.deepcopy(draw(st.sampled_from(
        [row[1] for row in MALFORMED_SPECS] + [TINY_SPEC])))
    if isinstance(spec, dict) and draw(st.booleans()):
        holder = spec
        if isinstance(spec.get("gen"), dict) and draw(st.booleans()):
            holder = spec["gen"]
        if holder:
            key = draw(st.sampled_from(sorted(holder)))
            holder[key] = draw(st.sampled_from(
                [v for v in SPEC_VALUES if type(v) is not type(holder[key])]))
    text = spec if isinstance(spec, str) else json.dumps(spec)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        else:
            text = text[:at] + draw(st.text(SPEC_CHARS, min_size=1,
                                             max_size=6)) + text[at:]
    return text


@given(text=fuzzed_spec())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_spec_loader_fuzz_raises_only_input_errors(text):
    try:
        spec = json.loads(text)
    except (ValueError, RecursionError):
        return
    if isinstance(spec, dict):  # deletions can join digits: keep runs short
        for key, most in (("scenarios", 2), ("horizon", 60)):
            if type(spec.get(key)) is int:
                spec[key] = min(spec[key], most)
    try:
        run_experiment(spec, io.StringIO())
    except (FormatError, ValueError, gen.Infeasible):
        pass


def test_console_script_is_wired(sched_ts):
    _, path = sched_ts
    env = dict(os.environ, PYTHONPATH=str(Path(experiment.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mcsched.cli", "analyze",
                           "--taskset", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schedulable"] is True
