import ast
import io
import json
import os
import threading
from pathlib import Path

import pytest

from mcsched.model import (FormatError, LevelOutOfRange, MCTask, Platform,
                           Scenario, TaskSet, ValidationError, dump_json,
                           id_key, load_scenario, load_taskset, open_output,
                           scenario_from_dict,
                           scenario_to_dict, taskset_from_dict,
                           taskset_to_dict, validate_scenario,
                           validate_taskset)


def mk_task(tid=1, T=10, D=10, L=1, C=(3,), levels=None):
    if levels is not None and len(C) < levels:
        C = C + (C[-1],) * (levels - len(C))
    return MCTask(id=tid, T=T, D=D, L=L, C=C)


def mk_ts(*tasks, levels=1):
    return TaskSet(tasks=tuple(tasks), levels=levels)


def codes(excinfo):
    return [c for c, _ in excinfo.value.errors]


def test_wcet_plateau_above_criticality():
    t = MCTask(id=1, T=10, D=10, L=2, C=(2, 5, 5))
    assert t.wcet(1) == 2
    assert t.wcet(2) == 5
    assert t.wcet(3) == 5


def test_wcet_level_bounds():
    t = MCTask(id=1, T=10, D=10, L=1, C=(2,))
    with pytest.raises(LevelOutOfRange):
        t.wcet(0)
    with pytest.raises(LevelOutOfRange):
        t.wcet(2)


def test_id_key_orders_ints_before_strings():
    assert id_key(5) < id_key("a")
    assert id_key(2) < id_key(10)
    assert id_key("a") < id_key("b")
    with pytest.raises(TypeError):
        id_key(True)


def test_platform_rejects_zero_processors():
    with pytest.raises(Exception):
        Platform(m=0)


def test_validate_accepts_well_formed_set():
    ts = mk_ts(mk_task(1, T=10, D=8, L=2, C=(2, 4, 4)),
               mk_task(2, T=5, D=5, L=1, C=(1, 1, 1)),
               levels=3)
    validate_taskset(ts)


def test_validate_duplicate_ids():
    ts = mk_ts(mk_task(1), mk_task(1, T=20, D=20), levels=1)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert "DuplicateId" in codes(ei)


def test_validate_ids_equal_as_strings():
    # scenario files and the analysis ranks key tasks by str(id)
    ts = mk_ts(mk_task(1), mk_task("1", T=20, D=20), levels=1)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert ei.value.errors == [("DuplicateId",
                                "tasks 1 and '1' are both '1' in a file")]
    for other in ("01", " 1", "-1", "1.0"):  # another key in a file
        validate_taskset(mk_ts(mk_task(1), mk_task(other, T=20, D=20),
                               levels=1))


def test_validate_deadline_exceeds_period():
    ts = mk_ts(mk_task(1, T=10, D=11), levels=1)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert "DeadlineExceedsPeriod" in codes(ei)


def test_validate_non_monotone_wcet():
    ts = mk_ts(MCTask(id=1, T=10, D=10, L=2, C=(5, 3)), levels=2)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert "NonMonotoneWcet" in codes(ei)


def test_validate_wcet_not_constant_above_criticality():
    ts = mk_ts(MCTask(id=1, T=10, D=10, L=1, C=(3, 4)), levels=2)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert "NonConstantWcetAboveL" in codes(ei)


def test_validate_wcet_exceeds_deadline():
    ts = mk_ts(MCTask(id=1, T=10, D=6, L=2, C=(3, 7)), levels=2)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert "WcetExceedsDeadline" in codes(ei)


def test_validate_criticality_above_lambda():
    ts = mk_ts(MCTask(id=1, T=10, D=10, L=3, C=(1, 2)), levels=2)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert "CriticalityAboveLambda" in codes(ei)


def test_validate_wcet_vector_of_another_length():
    # a file's C is padded to `levels`; a TaskSet built in code may not be
    ts = mk_ts(MCTask(id=1, T=10, D=10, L=1, C=(3,)), levels=2)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert ei.value.errors == [("InvalidWcetVector",
                                "task 1: |C|=1 != levels=2")]


def test_validate_zero_wcet():
    ts = mk_ts(MCTask(id=1, T=10, D=10, L=1, C=(0,)), levels=1)
    with pytest.raises(ValidationError) as ei:
        validate_taskset(ts)
    assert "InvalidWcet" in codes(ei)


TS_DOC = {
    "criticality_levels": 2,
    "processors": 2,
    "tasks": [
        {"id": 1, "T": 10, "D": 8, "L": 2, "C": [2, 4]},
        {"id": 2, "T": 5, "D": 5, "L": 1, "C": [1]},
    ],
}


def test_taskset_from_dict_pads_short_wcet_vectors():
    ts, platform = taskset_from_dict(TS_DOC)
    assert platform.m == 2
    by_id = {t.id: t for t in ts.tasks}
    assert by_id[2].C == (1, 1)
    assert by_id[1].C == (2, 4)


def test_taskset_roundtrip():
    ts, platform = taskset_from_dict(TS_DOC)
    doc = taskset_to_dict(ts, platform)
    ts2, platform2 = taskset_from_dict(doc)
    assert taskset_to_dict(ts2, platform2) == doc


def test_taskset_from_dict_missing_field():
    doc = {"criticality_levels": 1, "processors": 1,
           "tasks": [{"id": 1, "T": 10, "D": 10, "C": [1]}]}
    with pytest.raises(FormatError):
        taskset_from_dict(doc)


def test_taskset_from_dict_rejects_bool_fields():
    doc = {"criticality_levels": 1, "processors": 1,
           "tasks": [{"id": 1, "T": True, "D": 1, "L": 1, "C": [1]}]}
    with pytest.raises(FormatError):
        taskset_from_dict(doc)


def test_load_taskset_reports_json_position():
    bad = io.StringIO('{"criticality_levels": 1,\n  "processors": }')
    with pytest.raises(FormatError) as ei:
        load_taskset(bad)
    assert "line 2" in str(ei.value)


def test_load_taskset_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "ts.json"
    path.write_bytes(b'{"criticality_levels": 1, "processors": 1, "tasks": '
                     b'[{"id": "\xff", "T": 10, "D": 10, "L": 1, "C": [1]}]}')
    with pytest.raises(FormatError, match="^bad JSON: 'utf-8' codec can't "
                                          "decode byte 0xff"):
        load_taskset(str(path))


def test_load_taskset_refuses_an_integer_past_the_digit_limit():
    # Python refuses to read an integer string this long; json.load raises
    # a ValueError that is no JSONDecodeError
    bad = io.StringIO('{"criticality_levels": 1, "processors": '
                      + "1" * 5000 + ', "tasks": []}')
    with pytest.raises(FormatError, match="^bad JSON: .*digits"):
        load_taskset(bad)


def test_dump_json_writes_what_json_dump_and_print_write(tmp_path):
    doc = {"b": [1, {"c": None}], "a": 0.5, "ü": True}
    want = io.StringIO()
    json.dump(doc, want, indent=2)
    print(file=want)
    got = io.StringIO()
    dump_json(doc, got)
    assert got.getvalue() == want.getvalue()
    dump_json(doc, str(tmp_path / "doc.json"))
    assert (tmp_path / "doc.json").read_text() == want.getvalue()


def test_open_output_yields_an_open_file_uncut_and_open():
    fh = io.StringIO("old contents that stay")
    with open_output(fh) as got:
        assert got is fh
        got.write("new")
    assert not fh.closed
    assert fh.getvalue() == "new contents that stay"


def mk_two_task_set():
    return mk_ts(mk_task(1, T=10, D=10, L=2, C=(2, 4)),
                 mk_task(2, T=20, D=20, L=1, C=(5, 5)),
                 levels=2)


def test_scenario_roundtrip():
    ts = mk_two_task_set()
    sc = Scenario(horizon=40,
                  arrivals={1: (0, 10, 25), 2: (3,)},
                  exec_times={1: (2, 1, 4), 2: (5,)},
                  dmcr_requests=((30, 1),))
    validate_scenario(sc, ts)
    doc = scenario_to_dict(sc)
    sc2 = scenario_from_dict(json.loads(json.dumps(doc)), ts)
    assert sc2 == sc


def test_scenario_validation_min_interarrival():
    ts = mk_two_task_set()
    sc = Scenario(horizon=40, arrivals={1: (0, 9)}, exec_times={1: (1, 1)},
                  dmcr_requests=())
    with pytest.raises(ValidationError) as ei:
        validate_scenario(sc, ts)
    assert "MinInterArrivalViolated" in codes(ei)


def test_scenario_validation_exec_exceeds_top_budget():
    ts = mk_two_task_set()
    sc = Scenario(horizon=40, arrivals={1: (0,)}, exec_times={1: (5,)},
                  dmcr_requests=())
    with pytest.raises(ValidationError) as ei:
        validate_scenario(sc, ts)
    assert "ExecOutOfRange" in codes(ei)


def test_scenario_validation_zero_exec():
    ts = mk_two_task_set()
    sc = Scenario(horizon=40, arrivals={1: (0,)}, exec_times={1: (0,)},
                  dmcr_requests=())
    with pytest.raises(ValidationError) as ei:
        validate_scenario(sc, ts)
    assert "ExecOutOfRange" in codes(ei)


def test_scenario_validation_arrival_exec_mismatch():
    ts = mk_two_task_set()
    sc = Scenario(horizon=40, arrivals={1: (0, 12)}, exec_times={1: (1,)},
                  dmcr_requests=())
    with pytest.raises(ValidationError) as ei:
        validate_scenario(sc, ts)
    assert "ArrivalExecMismatch" in codes(ei)


def test_scenario_validation_unknown_task():
    ts = mk_two_task_set()
    sc = Scenario(horizon=40, arrivals={9: (0,)}, exec_times={9: (1,)},
                  dmcr_requests=())
    with pytest.raises(ValidationError) as ei:
        validate_scenario(sc, ts)
    assert "UnknownTask" in codes(ei)


def test_scenario_validation_dmcr_target_range():
    ts = mk_two_task_set()
    # target must leave room below the current top level
    sc = Scenario(horizon=40, arrivals={1: (0,)}, exec_times={1: (1,)},
                  dmcr_requests=((5, 2),))
    with pytest.raises(ValidationError) as ei:
        validate_scenario(sc, ts)
    assert "InvalidTargetLevel" in codes(ei)


def test_scenario_string_ids_from_json(tmp_path):
    doc = {
        "criticality_levels": 1,
        "processors": 1,
        "tasks": [{"id": "a", "T": 10, "D": 10, "L": 1, "C": [2]}],
    }
    ts, _ = taskset_from_dict(doc)
    sc_doc = {"horizon": 20, "tasks": {"a": {"arrivals": [0],
                                             "exec_times": [2]}}}
    sc = scenario_from_dict(sc_doc, ts)
    assert sc.arrivals["a"] == (0,)
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(sc_doc))
    sc2 = load_scenario(str(p), ts)
    assert sc2 == sc


@pytest.mark.parametrize("other", ["01", " 1", "+1"])
def test_scenario_keys_name_only_the_id_a_file_writes(other):
    """A key names a declared id only as `scenario_to_dict` writes it, so a
    second key for task 1 is an unknown id, not an overwrite of its jobs."""
    ts = mk_two_task_set()
    doc = {"horizon": 40, "tasks": {
        "1": {"arrivals": [0, 10, 20], "exec_times": [1, 1, 1]},
        other: {"arrivals": [0], "exec_times": [1]}}}
    with pytest.raises(ValidationError) as ei:
        scenario_from_dict(doc, ts)
    assert ei.value.errors == [("UnknownTask",
                                f"task {other!r} not in task set")]
    string_ids = mk_ts(mk_task("1"), mk_task(other, T=20, D=20), levels=1)
    sc = scenario_from_dict(doc, string_ids)
    assert sc.arrivals == {"1": (0, 10, 20), other: (0,)}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_open_output_writes_a_fifo_without_cutting_it(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    with open_output(str(fifo)) as fh:
        fh.write("line\n" * 1000)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"line\n" * 1000]


# The one writer: every output file is overwritten in place by
# model.open_output, never opened with O_TRUNC (see its docstring).
_WRITE_MODE = set("wax+")
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _name(node):
    """The name a Name or Attribute node refers to, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _stray_writes(source, writer=None):
    """Line numbers in `source` that name O_TRUNC, or open a file for
    writing outside the function named `writer`: builtin, `io.` or
    `os.fdopen` opens and `Path.open` with a write mode or a mode that is
    not a literal, `os.open` with a write flag, and `write_text` or
    `write_bytes`."""
    tree = ast.parse(source)
    exempt = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == writer for n in ast.walk(f)}
    lines = {n.lineno for n in ast.walk(tree) if _name(n) == "O_TRUNC"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = _name(func)
        owner = _name(getattr(func, "value", None))
        if name in ("write_text", "write_bytes"):
            lines.add(node.lineno)
        elif name == "open" and owner == "os":
            flags = {_name(n) for arg in node.args[1:2] for n in ast.walk(arg)}
            if _WRITE_FLAGS & flags:
                lines.add(node.lineno)
        elif name in ("open", "fdopen"):
            at = 0 if isinstance(func, ast.Attribute) and owner not in (
                "io", "os") else 1
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0] if modes else (
                node.args[at] if len(node.args) > at else None)
            if mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and not _WRITE_MODE & set(mode.value)):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source", [
    'open(p, "w")', 'open(p, mode="a", encoding="utf-8")', 'open(p, "r+")',
    'io.open(p, "xb")', 'os.fdopen(fd, "w")', 'Path(p).open("w")',
    'open(p, mode)', 'os.open(p, os.O_WRONLY | os.O_CREAT)',
    'flags = os.O_TRUNC', 'Path(p).write_text(s)',
    'def open_output(p):\n    return os.open(p, os.O_WRONLY | os.O_TRUNC)',
])
def test_write_guard_finds_a_write(source):
    assert _stray_writes(source, "open_output")


@pytest.mark.parametrize("source", [
    'open(p)', 'open(p, "r", encoding="utf-8")', 'open(p, "rb")',
    'Path(p).open()', 'io.open(p, mode="r")', 'os.open(p, os.O_RDONLY)',
    'def open_output(p):\n    fd = os.open(p, os.O_WRONLY | os.O_CREAT)\n'
    '    return open(fd, "w")',
])
def test_write_guard_passes_a_read_or_the_writer(source):
    assert _stray_writes(source, "open_output") == []


def test_package_writes_files_only_through_open_output():
    """A truncating open stalls on ext4 while the file's old contents are
    written back; the package has one writer that never truncates."""
    sources = sorted(Path(__file__).resolve().parent.parent.glob(
        "src/mcsched/*.py"))
    assert sources
    for path in sources:
        writer = "open_output" if path.name == "model.py" else None
        assert _stray_writes(path.read_text(encoding="utf-8"), writer) == [], \
            path.name
