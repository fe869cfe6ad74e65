"""Domain types for mixed-criticality task systems.

A task system runs on m identical processors and is described by a set of
sporadic tasks. Task i is a 4-tuple (T_i, D_i, L_i, C_i) where T_i is the
minimum inter-arrival time, D_i <= T_i the relative deadline, L_i the task's
criticality level, and C_i a vector of worst-case execution time estimates
indexed by criticality level. C_i(l) is non-decreasing up to L_i and constant
beyond it. All times are non-negative integers; one tick is one time unit,
so every check in this package is exact.

A scenario fixes, for one run, each task's arrival times (gaps >= T_i) and
the exact execution time of every job (1 <= c <= C_i(L_i)), plus any
requests to lower the system criticality level ("dmcr requests").
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Any, Iterator

TaskId = int | str


def id_key(tid: TaskId) -> tuple[int, Any]:
    """Total, deterministic sort key over task ids.

    Integer ids sort before string ids; within a kind, natural order. Used
    everywhere a tie must be broken "by task id" so mixed-type id sets still
    compare.
    """
    if isinstance(tid, bool):
        # bool is an int subclass; ids should never be bools
        raise TypeError("task id may not be a bool")
    if isinstance(tid, int):
        return (0, tid)
    return (1, str(tid))


class ValidationError(ValueError):
    """Raised when a task set or scenario violates a model invariant.

    Carries a deterministic list of (code, detail) pairs so callers can
    report every problem at once.
    """

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        lines = "; ".join(f"{code}: {detail}" for code, detail in self.errors)
        super().__init__(lines)


class FormatError(ValueError):
    """Raised when an input file is not well-formed (missing field, bad type,
    JSON syntax). Distinct from ValidationError: the document could not even
    be interpreted as a task set / scenario."""


class LevelOutOfRange(ValueError):
    """Criticality level outside [1, levels]."""


@dataclass(frozen=True)
class Platform:
    """m identical processors."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError([("InvalidPlatform", f"m must be >= 1, got {self.m}")])


@dataclass(frozen=True)
class MCTask:
    """One sporadic mixed-criticality task.

    C is stored padded to the system's level count: C[l-1] is the WCET budget
    at level l, constant from L upward.
    """

    id: TaskId
    T: int
    D: int
    L: int
    C: tuple[int, ...]

    def wcet(self, level: int) -> int:
        """WCET budget at a criticality level (C(l), constant beyond L)."""
        if not 1 <= level <= len(self.C):
            raise LevelOutOfRange(f"level {level} not in [1, {len(self.C)}]")
        return self.C[level - 1]


@dataclass(frozen=True)
class TaskSet:
    """A set of tasks plus the system-wide maximum criticality level."""

    tasks: tuple[MCTask, ...]
    levels: int

    def __len__(self):
        return len(self.tasks)

    def by_id(self, tid: TaskId) -> MCTask:
        for t in self.tasks:
            if t.id == tid:
                return t
        raise KeyError(tid)


def _file_key(tid: TaskId) -> TaskId:
    """Files key tasks by str(id). A string id that is the str() of an int
    is keyed as that int, so 1 and "1" meet without a string per int id."""
    if isinstance(tid, str):
        try:
            as_int = int(tid)
        except ValueError:
            return tid
        if str(as_int) == tid:
            return as_int
    return tid


def validate_taskset(ts: TaskSet) -> TaskSet:
    """Check every rule of the task model; return ts unchanged or raise one
    ValidationError that lists every broken rule.

    The error list is deterministic: tasks are scanned in order and each
    produces its findings in a fixed sequence. A task whose L lies outside
    [1, levels], or whose C does not hold `levels` entries all at least 1,
    gets no further check.
    """
    errors: list[tuple[str, str]] = []
    if ts.levels < 1:
        errors.append(("InvalidLevels", f"levels must be >= 1, got {ts.levels}"))
    seen: dict[TaskId, TaskId] = {}  # by _file_key
    for t in ts.tasks:
        name = f"task {t.id!r}"
        key = _file_key(t.id)
        if key in seen:
            errors.append(("DuplicateId", f"tasks {seen[key]!r} and {t.id!r} "
                                          f"are both {str(t.id)!r} in a file"))
        seen.setdefault(key, t.id)
        if t.T < 1:
            errors.append(("InvalidPeriod", f"{name}: T={t.T}"))
        if not 1 <= t.D <= t.T:
            errors.append(("DeadlineExceedsPeriod", f"{name}: D={t.D}, T={t.T}"))
        if not 1 <= t.L <= ts.levels:
            errors.append(("CriticalityAboveLambda", f"{name}: L={t.L}, levels={ts.levels}"))
            continue
        if len(t.C) != ts.levels:
            errors.append(("InvalidWcetVector", f"{name}: |C|={len(t.C)} != levels={ts.levels}"))
            continue
        if any(c < 1 for c in t.C):
            errors.append(("InvalidWcet", f"{name}: C={t.C} has entries < 1"))
            continue
        for l in range(1, t.L):
            if t.C[l - 1] > t.C[l]:
                errors.append(("NonMonotoneWcet", f"{name}: C({l})={t.C[l-1]} > C({l+1})={t.C[l]}"))
                break
        for l in range(t.L, ts.levels):
            if t.C[l] != t.C[t.L - 1]:
                errors.append(("NonConstantWcetAboveL", f"{name}: C({l+1}) != C(L)"))
                break
        if t.C[t.L - 1] > t.D:
            errors.append(("WcetExceedsDeadline", f"{name}: C(L)={t.C[t.L-1]} > D={t.D}"))
    if errors:
        raise ValidationError(errors)
    return ts


@dataclass(frozen=True)
class Scenario:
    """Exact inputs for one simulation run.

    arrivals / exec_times are parallel per-task sequences; dmcr_requests are
    (time, target_level) pairs asking the system to drop to target_level.
    """

    horizon: int
    arrivals: dict[TaskId, tuple[int, ...]]
    exec_times: dict[TaskId, tuple[int, ...]]
    dmcr_requests: tuple[tuple[int, int], ...] = field(default_factory=tuple)


def validate_scenario(sc: Scenario, ts: TaskSet) -> Scenario:
    """Check scenario invariants against its task set."""
    errors: list[tuple[str, str]] = []
    if sc.horizon < 0:
        errors.append(("InvalidHorizon", f"horizon={sc.horizon}"))
    known = {t.id for t in ts.tasks}
    for tid in sc.arrivals:
        if tid not in known:
            errors.append(("UnknownTask", f"task {tid!r} not in task set"))
    for t in ts.tasks:
        arr = sc.arrivals.get(t.id, ())
        exe = sc.exec_times.get(t.id, ())
        if len(arr) != len(exe):
            errors.append(("ArrivalExecMismatch", f"task {t.id!r}: {len(arr)} arrivals, {len(exe)} exec_times"))
        for k in range(1, len(arr)):
            if arr[k] - arr[k - 1] < t.T:
                errors.append(("MinInterArrivalViolated", f"task {t.id!r}: gap {arr[k-1]}->{arr[k]} < T={t.T}"))
        if arr and arr[0] < 0:
            errors.append(("NegativeArrival", f"task {t.id!r}: first arrival {arr[0]}"))
        cmax = t.C[t.L - 1]
        for k, c in enumerate(exe):
            if not 1 <= c <= cmax:
                errors.append(("ExecOutOfRange", f"task {t.id!r} job {k+1}: c={c} not in [1, {cmax}]"))
    for when, target in sc.dmcr_requests:
        if when < 0:
            errors.append(("InvalidRequestTime", f"dmcr at t={when}"))
        if not 1 <= target < ts.levels:
            # target must leave room to decrease below the top level
            errors.append(("InvalidTargetLevel", f"dmcr target={target}, levels={ts.levels}"))
    if errors:
        raise ValidationError(errors)
    return sc


# ---------------------------------------------------------------------------
# File I/O. One JSON document per file; field order in serialization is fixed
# so identical objects produce identical bytes. Every output file is written
# through open_output.

@contextmanager
def open_output(path: str, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a UTF-8 text file for writing, created if missing, and on exit
    (normal or by exception) cut it at the end of what was written.

    The file is overwritten in place rather than opened with O_TRUNC: on
    ext4, truncating a file to zero and writing it again makes the next
    truncating open wait for the previous contents' writeback, tens of
    milliseconds per rewrite. The bytes left are those a truncating open
    would leave. A symlink is followed; a device or FIFO is written without
    being cut. `newline` is as for open().
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()  # flushes, then cuts at the current position


def _require(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where}: expected integer, got {value!r}")
    return value


def taskset_from_dict(doc: dict) -> tuple[TaskSet, Platform]:
    """Read a task-set document. A missing field, a wrong JSON type or a C
    whose length is neither L nor levels is a FormatError. A C of length
    L < levels is padded with C(L); Platform then refuses m < 1, and
    validate_taskset alone judges every rule of the task model."""
    if not isinstance(doc, dict):
        raise FormatError("task-set document must be an object")
    levels = _as_int(_require(doc, "criticality_levels", "task set"), "criticality_levels")
    m = _as_int(_require(doc, "processors", "task set"), "processors")
    raw_tasks = _require(doc, "tasks", "task set")
    if not isinstance(raw_tasks, list):
        raise FormatError("tasks: expected a list")
    tasks = []
    for i, rt in enumerate(raw_tasks):
        where = f"tasks[{i}]"
        if not isinstance(rt, dict):
            raise FormatError(f"{where}: expected an object")
        tid = _require(rt, "id", where)
        if not isinstance(tid, (int, str)) or isinstance(tid, bool):
            raise FormatError(f"{where}: id must be an integer or string")
        T = _as_int(_require(rt, "T", where), f"{where}.T")
        D = _as_int(_require(rt, "D", where), f"{where}.D")
        L = _as_int(_require(rt, "L", where), f"{where}.L")
        raw_c = _require(rt, "C", where)
        if not isinstance(raw_c, list) or not raw_c or any(isinstance(c, bool) or not isinstance(c, int) for c in raw_c):
            raise FormatError(f"{where}.C: expected a non-empty list of integers")
        if len(raw_c) not in (L, levels):
            raise FormatError(f"{where}.C: C must have length L={L} or "
                              f"levels={levels}, got {len(raw_c)}")
        c = tuple(raw_c) + (raw_c[-1],) * (levels - len(raw_c))
        tasks.append(MCTask(id=tid, T=T, D=D, L=L, C=c))
    platform = Platform(m=m)
    return validate_taskset(TaskSet(tasks=tuple(tasks), levels=levels)), platform


def taskset_to_dict(ts: TaskSet, platform: Platform) -> dict:
    return {
        "criticality_levels": ts.levels,
        "processors": platform.m,
        "tasks": [
            {"id": t.id, "T": t.T, "D": t.D, "L": t.L, "C": list(t.C)}
            for t in ts.tasks
        ],
    }


def scenario_from_dict(doc: dict, ts: TaskSet) -> Scenario:
    if not isinstance(doc, dict):
        raise FormatError("scenario document must be an object")
    horizon = _as_int(_require(doc, "horizon", "scenario"), "horizon")
    raw_tasks = _require(doc, "tasks", "scenario")
    if not isinstance(raw_tasks, dict):
        raise FormatError("scenario tasks: expected an object keyed by task id")
    # JSON object keys are strings: a key names the declared id whose
    # _file_key is its own, and any other key is an unknown id
    by_key = {_file_key(t.id): t.id for t in ts.tasks}
    arrivals: dict[TaskId, tuple[int, ...]] = {}
    exec_times: dict[TaskId, tuple[int, ...]] = {}
    for key, entry in raw_tasks.items():
        tid = by_key.get(_file_key(key), key)
        where = f"scenario tasks[{key!r}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: expected an object")
        arr = _require(entry, "arrivals", where)
        exe = _require(entry, "exec_times", where)
        for name, seq in (("arrivals", arr), ("exec_times", exe)):
            if not isinstance(seq, list) or any(isinstance(x, bool) or not isinstance(x, int) for x in seq):
                raise FormatError(f"{where}.{name}: expected a list of integers")
        arrivals[tid] = tuple(arr)
        exec_times[tid] = tuple(exe)
    raw_reqs = doc.get("dmcr_requests", [])
    if not isinstance(raw_reqs, list):
        raise FormatError("dmcr_requests: expected a list")
    reqs = []
    for i, rr in enumerate(raw_reqs):
        where = f"dmcr_requests[{i}]"
        if not isinstance(rr, dict):
            raise FormatError(f"{where}: expected an object")
        when = _as_int(_require(rr, "time", where), f"{where}.time")
        target = _as_int(_require(rr, "target_level", where), f"{where}.target_level")
        reqs.append((when, target))
    sc = Scenario(horizon=horizon, arrivals=arrivals, exec_times=exec_times,
                  dmcr_requests=tuple(reqs))
    return validate_scenario(sc, ts)


def scenario_to_dict(sc: Scenario) -> dict:
    tasks = {}
    for tid in sorted(sc.arrivals, key=id_key):
        tasks[str(tid) if not isinstance(tid, str) else tid] = {
            "arrivals": list(sc.arrivals[tid]),
            "exec_times": list(sc.exec_times[tid]),
        }
    return {
        "horizon": sc.horizon,
        "tasks": tasks,
        "dmcr_requests": [
            {"time": when, "target_level": target} for when, target in sc.dmcr_requests
        ],
    }


def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, for json.load's object_pairs_hook; an
    object that repeats a key is a FormatError naming it, where json.load
    alone would keep the last value without a word."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"bad JSON: repeated key {key!r}")
            seen.add(key)
    return doc


def _load_json(source: str | IO[str]) -> dict:
    try:
        if hasattr(source, "read"):
            return json.load(source, object_pairs_hook=unique_keys)  # type: ignore[arg-type]
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON at line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise FormatError("bad JSON: nested too deep") from None


def load_taskset(source: str | IO[str]) -> tuple[TaskSet, Platform]:
    """Read and validate a task-set file. Raises FormatError / ValidationError."""
    return taskset_from_dict(_load_json(source))


def _dump_json(doc: dict, target: str | IO[str]) -> None:
    """Write doc as indented JSON to a path or an open text file."""
    text = json.dumps(doc, indent=2) + "\n"
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open_output(target) as fh:
            fh.write(text)


def dump_taskset(ts: TaskSet, platform: Platform, target: str | IO[str]) -> None:
    _dump_json(taskset_to_dict(ts, platform), target)


def load_scenario(source: str | IO[str], ts: TaskSet) -> Scenario:
    """Read and validate a scenario file against its task set."""
    return scenario_from_dict(_load_json(source), ts)


def dump_scenario(sc: Scenario, target: str | IO[str]) -> None:
    _dump_json(scenario_to_dict(sc), target)
