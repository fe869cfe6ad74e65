"""Event-driven simulator for global preemptive static-priority scheduling
of mixed-criticality task systems with budget monitoring and mode changes.

Scheduler rules. At every instant the m highest-priority dispatchable
entities run, one per processor. Dispatchable entities are, from high to
low band: available jobs of enabled tasks and ghost slots (both at the
owning task's rank), then rem-jobs (always below every enabled task).
A task offers one entry to the first band: its oldest pending job (its
head) or its live ghost. It never has both in contract, since a ghost ends
by its owner's deadline r + D_i and the task's next job arrives at
r + T_i >= r + D_i or later (see below), so the band is one rank order
with no tie-break. Where arrival gaps below D_i break the contract, which
simulate does not check, a task's entries go oldest job first: a ghost
before its own task's newer head.
The scheduler is work-conserving over dispatchable entities, with one
deliberate exception: a ghost slot whose rem-job pool ran dry idles for a
single tick while the ghost is retired.

Budget monitoring. A job of a task with L > current level that reaches its
current-level budget without completing raises the system level by one.
Tasks with L below the new level are suspended: their future arrivals are
dropped, and their already-released jobs either vanish (protocol "drop") or
join the rem-job pool to be finished at background priority. Protocols
"wcet-reclaim" and "wcrt-simulate" additionally lend rem-jobs the processor
slots that completed jobs of enabled tasks no longer need. Such a ghost slot
is the completed job itself, holding its task's rank, with a budget and an
expiry; it hosts a rem-job only while t < expiry and budget > 0, and the
time it hosts is spent from its budget. Under both protocols the budget
is the job's unused budget C_i(level) - c and the expiry is its deadline
r + D_i; wcrt-simulate also ends the ghost at the end of the job's
response-time window, r + R_i(level), which is never later for a table the
analysis accepts.

Why a ghost keeps every response bound. The analysis charges each
higher-ranked task, per job, at most C_j(l) of work within [r, r + D_j),
on one processor at a time (the carry-in workload of Guan et al., RTSS
2009). A job and its ghost hold a processor at the owner's rank, one after
the other, for at most c + (C_i(level) - c) = C_i(level) ticks, all before
r + D_i. That includes the dry-ghost tick above: a ghost exists only with
budget left, so the tick its slot idles fits within that budget. The
task's next job is released at r + T_i >= r + D_i or later, so one task
never holds two processors, and a job plus its ghost is a job the analysis
already charges.

Level decreases are requested externally (scenario dmcr_requests). A request
is taken up at the next steady instant, one with no chain open and no rem-job
queued; the system then watches the enabled tasks in priority order, waiting
for each to complete a job within its response bound at the target level,
and re-enables every suspended task with L >= target synchronously when the
last one qualifies. Any budget overrun while the chain is active aborts it.
Invariants: a task is enabled exactly while L >= level, and a job is a
rem-job exactly while its task's L < level, as the level never falls while a
rem-job is queued (only an overrun adds to the pool, and it aborts any
chain). simulate reads both off the level. Jobs keep a pending flag, as
under "drop" a task can be re-enabled before the deadline of a job it lost
at suspension, and the level cannot tell that job from a pending one.

All times are integers. One run is strictly deterministic in its inputs.
simulate expects a validated scenario (model.validate_scenario). Of its
contract it checks only the request targets and what the queues below rely
on: the horizon and each task's arrivals are non-negative, the arrivals do
not decrease, every arrival has an exec_time, and every request targets a
level in [1, levels - 1]; otherwise it raises InconsistentInputs.

Queues. Time jumps from event to event; only a level change or the start
of a decrease chain looks at every task. The arrivals of all tasks are
merged once into one list ordered by time, task order and job index, and
read through a cursor. Each release pushes (deadline, task index, job
index, job) onto a heap. The deadline-miss phase pops the entries due by
t and reports those still pending at their deadline t, in task order,
then job index; a job that completed or was suspended is no longer
pending, and its entry is discarded when it reaches the top. The first
band above, each task's head and the live ghosts (completed jobs that hold
their task's rank), is one list of jobs kept in rank order by insertion on
the right, so a task's older job (a ghost) stays before its newer head with
no tie-break: a release inserts its job if its task had nothing pending,
and a completion leaves the job in place as its ghost, or removes it, then
inserts its task's next pending job. Dispatch reads the m highest entries
off the front of the band.
The next event is the earliest of the next arrival of an enabled task,
the earliest pending deadline, the next request, the hosting ghosts'
expiries, forced ticks, the horizon and the running entities' budget,
ghost-budget and completion boundaries. A live ghost outside the top m
runs nothing and enters the top only at a step, where the cleanup drops it
if it has expired, so its expiry needs no step of its own. A suspended
task's arrivals before the next event are dropped on the way, each at its
own instant and at the level in force. That is exact: the level changes
only at a completion or an overrun, and those, like every other phase
before releases, act only at the boundaries above, so a step at such an
arrival would do nothing but drop it.
An arrival at the next event itself is left to that step's releases phase,
after its completions, overruns and re-enables. A request that waits on a
chain or on rem-jobs adds no steps, since those end only at such boundaries;
one still waiting after a re-enable at t is taken up at t + 1. Events are
emitted in time order: a dispatch span takes its place in the trace when it
opens, after the point events at its start, and is filled in when it ends.

Internal trace events are tuples. A point event is (kind, t, mode, *fields)
with the fields of EVENT_FIELDS[kind] other than "mode", in table order; the
table also fixes each kind's JSONL field order. _LINE_FIELDS declares every
JSONL line kind once, and Trace.to_jsonl and trace_from_jsonl are both
compiled from it. Dispatch spans are
    ("sched", t0, mode, t1, slots)
with one slot per busy processor, in priority order:
    ("J", task, k)                           enabled-task job
    ("R", task, k)                           rem-job on a free processor
    ("G", ghost_task, ghost_k, task, k)      rem-job hosted by a ghost slot
In JSONL a span is one dispatch line per slot ("rem" 0 for "J", 1 for "R"
and "G", which also names its ghost) and an idle line for the free procs.

Same-instant processing order: credit execution, completions (spawning
ghosts), budget-overrun cascade, ghost cleanup, level-decrease intake,
chain qualification, releases, deadline misses, dispatch. A completion at
t therefore qualifies a chain advance at t, and an overrun at t is seen
before any new dispatch at t. One consequence of this order: a level
decrease that leaves some running job already at or past the lower
level's budget raises the follow-up overrun at the next instant, since
the cascade for the decrease instant has already run.
"""

from __future__ import annotations

import json
import re
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, count, repeat
from operator import attrgetter, gt, itemgetter

from .model import Platform, Scenario, TaskSet, id_key
from .analysis import PriorityAssignment

PROTOCOLS = ("drop", "naive", "wcet-reclaim", "wcrt-simulate")
REM_ORDERS = ("crit-edf", "edf", "srpt")


class InconsistentInputs(ValueError):
    """The inputs fail a check of simulate's (see the module docstring)."""


class ModelViolation(ValueError):
    """A job reached its top-level budget without completing; the scenario
    breached the execution-time contract."""


@dataclass(frozen=True)
class ProtocolConfig:
    protocol: str = "drop"
    rem_order: str = "crit-edf"

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.rem_order not in REM_ORDERS:
            raise ValueError(f"unknown rem_order {self.rem_order!r}")


# JSONL field order after "t" and "kind" for every point event kind.
EVENT_FIELDS = {
    "release": ("task", "k", "mode", "d"),
    "job_dropped": ("task", "k", "mode", "why"),  # "imcr" | "suspended_arrival"
    "complete": ("task", "k", "mode", "c", "r", "d", "rem"),
    "budget_exceeded": ("task", "k", "mode"),  # mode is the new level
    "dmcr_requested": ("mode", "target"),
    "chain_advance": ("task", "k", "mode"),
    "chain_aborted": ("mode", "cursor"),
    "re_enabled": ("mode", "tasks"),  # mode is the target level
    "deadline_miss": ("task", "k", "mode", "crit"),
    "chain_stalled": ("mode", "cursor"),
}
META_FIELDS = ("horizon", "m", "levels", "protocol", "rem_order")
_JOB_LINE = ("task", "k", "proc", "mode", "until", "rem")
# Every JSONL line kind with its fields after "t" and "kind", in line order.
# "ghost" is the layout of a dispatch line whose rem-job a ghost slot hosts.
# A line's values come as one tuple: kind, t, then mode and until where the
# line has them, then its other fields in line order; for a point event this
# is its event tuple.
_LINE_FIELDS = {"meta": META_FIELDS, **EVENT_FIELDS, "dispatch": _JOB_LINE,
                "ghost": _JOB_LINE + ("ghost_task", "ghost_k"),
                "idle": ("mode", "until", "procs")}
# JSON types of the trace-line fields that are not integers. A task id is an
# integer or a string; an array field is a tuple in the event, and its
# elements have the types in _ELEMENT_TYPES.
_FIELD_TYPES = {"kind": (str,), "task": (int, str), "ghost_task": (int, str),
                "why": (str,), "tasks": (tuple,), "protocol": (str,),
                "rem_order": (str,)}
_ELEMENT_TYPES = {"tasks": (int, str)}
_TYPE_NAMES = {int: "an integer", str: "a string", tuple: "an array"}


def _is_one_of(types, v):
    return " or ".join(f"type({v}) is {t.__name__}" for t in types)


def _type_check(names):
    """A predicate over a tuple of values of fields `names`, the kind first:
    true when each value after the kind has its field's JSON type (bool is
    not an integer here). The kind goes untested, since the reader found
    the layout by it.

    The predicate is compiled from the table once, as straight-line
    `type(v[i]) is ...` tests: on a trace read, a generic per-line
    `tuple(map(type, values))` lookup costs ~3 times as much.
    """
    tests = []
    for i, name in enumerate(names[1:], 1):
        test = _is_one_of(_FIELD_TYPES.get(name, (int,)), f"v[{i}]")
        if name in _ELEMENT_TYPES:
            test = (f"({test}) and all({_is_one_of(_ELEMENT_TYPES[name], 'x')}"
                    f" for x in v[{i}])")
        tests.append(test)
    return eval("lambda v: (" + ") and (".join(tests) + ")")


def _mistyped(names, values) -> str:
    for name, value in zip(names, values):
        types = _FIELD_TYPES.get(name, (int,))
        if type(value) not in types:
            want = " or ".join(_TYPE_NAMES[t] for t in types)
            return f"field {name!r} must be {want}, got {value!r}"
        elements = _ELEMENT_TYPES.get(name)
        if elements and any(type(x) not in elements for x in value):
            want = " or ".join(_TYPE_NAMES[t] for t in elements)
            return (f"each element of field {name!r} must be {want}, "
                    f"got {list(value)!r}")


def _with_tuples(get):
    return lambda rec: tuple(tuple(v) if type(v) is list else v
                             for v in get(rec))


def _line_writer(kind, fields, names):
    """A function (values, enc) -> the line, compiled once as one
    %-template over the values `names`. Integers are formatted directly;
    any other value is looked up in `enc`, which maps a value to its JSON
    text, because a task id can be any string."""
    parts, args = ['"t":%d', '"kind":' + json.dumps(kind)], ["v[1]"]
    for f in fields:
        value = f"v[{names.index(f)}]"
        if _FIELD_TYPES.get(f, (int,)) == (int,):
            parts.append(f'"{f}":%d')
            args.append(value)
        else:
            parts.append(f'"{f}":%s')
            args.append(f"enc[{value}]")
    template = "{" + ",".join(parts) + "}"
    return eval(f"lambda v, enc: {template!r} % ({', '.join(args)},)")


# A line's part in the trace, which the reader's table marks per layout;
# the layouts not named in _PARTS are point events.
_POINT, _IDLE, _DISPATCH, _GHOST, _META = range(5)
_PARTS = {"idle": _IDLE, "dispatch": _DISPATCH, "ghost": _GHOST, "meta": _META}


def _layouts():
    """Per line kind of _LINE_FIELDS, its writer, and the reader's entry:
    the getter of its values from a decoded record, their type check, the
    line's part and the values' names."""
    writers, readers = {}, {}
    for kind, fields in _LINE_FIELDS.items():
        lead = tuple(f for f in ("mode", "until") if f in fields)
        names = ("kind", "t") + lead + tuple(f for f in fields if f not in lead)
        writers[kind] = _line_writer("dispatch" if kind == "ghost" else kind,
                                     fields, names)
        get = itemgetter(*names)
        if _ELEMENT_TYPES.keys() & set(names):
            get = _with_tuples(get)
        readers[kind] = (get, _type_check(names), _PARTS.get(kind, _POINT),
                         names)
    return writers, readers


_WRITERS, _READERS = _layouts()
# "ghost" is the layout of a dispatch line whose rem-job a ghost slot hosts,
# not a line kind: a line of kind "ghost" is an unknown kind
_GHOST_LINE = _READERS.pop("ghost")
_encode = json.JSONEncoder(separators=(",", ":")).encode
_decoder = json.JSONDecoder()
_scan = _decoder.scan_once
# a line holding two records: "}", blanks, ",", blanks, "{"
_TWO_RECORDS = re.compile(r"}[ \t]*,[ \t]*{").search
_BLANK = object()  # the record of a blank line
# The writer yields the lines of this many events at a time; the reader
# decodes pieces of about this many characters, one block at a time.
_PIECE_EVENTS = 256
_READ_CHARS = 1 << 14


class _Encoded(dict):
    """JSON text of each value looked up, encoded on first use."""

    def __missing__(self, value):
        text = self[value] = _encode(value)
        return text


class Trace:
    """Ordered event log of one run plus the run's frame data."""

    __slots__ = ("events",) + META_FIELDS

    def __init__(self, events, horizon, m, levels, protocol, rem_order):
        self.events = events
        self.horizon = horizon
        self.m = m
        self.levels = levels
        self.protocol = protocol
        self.rem_order = rem_order

    def kind(self, kind: str) -> list:
        return [e for e in self.events if e[0] == kind]

    def to_jsonl(self) -> str:
        """Line-delimited records with a stable field order.

        sched records become dispatch lines (one per slot, span end in
        "until") and idle lines when processors are unoccupied.
        """
        return "".join(_jsonl_pieces(self))

    def write_jsonl(self, fh) -> None:
        """Write the to_jsonl text to the open text file fh, one piece at a
        time, so the whole text is never held at once."""
        fh.writelines(_jsonl_pieces(self))


def _jsonl_pieces(trace: Trace):
    """The JSONL text of trace in pieces of whole lines: the meta line,
    then the lines of each run of up to _PIECE_EVENTS events."""
    enc = _Encoded()
    yield _WRITERS["meta"](("meta", 0) + tuple(
        getattr(trace, f) for f in META_FIELDS), enc) + "\n"
    out = []
    line = out.append
    dispatch, ghost, idle = itemgetter("dispatch", "ghost", "idle")(_WRITERS)
    events, m = trace.events, trace.m
    for at in range(0, len(events), _PIECE_EVENTS):
        for ev in events[at:at + _PIECE_EVENTS]:
            kind = ev[0]
            if kind != "sched":
                line(_WRITERS[kind](ev, enc))
                continue
            _, t0, mode, t1, slots = ev
            for proc, s in enumerate(slots):
                if s[0] == "G":
                    line(ghost(("dispatch", t0, mode, t1, s[3], s[4], proc, 1,
                                s[1], s[2]), enc))
                else:
                    line(dispatch(("dispatch", t0, mode, t1, s[1], s[2], proc,
                                   s[0] != "J"), enc))
            if len(slots) < m:
                line(idle(("idle", t0, mode, t1, m - len(slots)), enc))
        line("")
        yield "\n".join(out)
        out.clear()


def _text_pieces(text: str):
    """text in pieces of about _READ_CHARS cut just after a "\n". A cut
    splits no line boundary of str.splitlines(): "\n" is one of its own,
    and the only two-character boundary, "\r\n", ends in "\n"."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _READ_CHARS) + 1 or len(text)
        yield text[start:cut]
        start = cut


def _records(text: str):
    """The records of text's lines, blank ones as _BLANK, one iterable per
    piece: the piece's block, or else its lines decoded one at a time."""
    lineno = 1
    for piece in _text_pieces(text):
        lines = piece.splitlines()
        yield _block_records(lines) or _line_records(lines, lineno)
        lineno += len(lines)


def _block_records(lines: list):
    """The records of lines from one decode of "[" + ",\n".join(lines) +
    "]", or None unless that decode gives one object per line and no line
    holds two records.

    Then each record is its own line's: the inserted "\n" cannot sit inside
    a JSON string, so each inserted "," either separates two elements or,
    inside a container, merges two lines into one element and costs an
    element. With as many elements as lines, a merge needs a line holding
    two top-level elements, and with objects only that takes "}", blanks,
    ",", blanks, "{", blanks within a line being " " and "\t".

    A piece with an empty line is refused before the join, since its
    decode would fail. A piece with a whitespace-only line is still decoded
    and fails, so the per-line path decodes it a second time."""
    if "" in lines:
        return None
    block = "[" + ",\n".join(lines) + "]"
    try:
        recs, end = _scan(block, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    if (end == len(block) and len(recs) == len(lines)
            and set(map(type, recs)) <= {dict} and not _TWO_RECORDS(block)):
        return recs
    return None


def _line_records(lines: list, lineno: int):
    """The record of each line, the first numbered lineno, decoded on its
    own; a line that does not decode raises ValueError naming it."""
    for lineno, line in enumerate(lines, lineno):
        line = line.strip()
        if not line:
            yield _BLANK
            continue
        try:
            rec, end = _scan(line, 0)
        except StopIteration:  # no value at 0, in raw_decode's words
            raise ValueError(f"trace line {lineno}: Expecting value") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: {exc.msg}") from exc
        except ValueError as exc:  # such as an over-long integer
            raise ValueError(f"trace line {lineno}: {exc}") from None
        except RecursionError:
            raise ValueError(f"trace line {lineno}: nested too deep") from None
        if end < len(line):
            raise ValueError(
                f"trace line {lineno}: extra data after the record")
        yield rec


def _no_layout(rec, exc) -> str:
    """Why the reader found no layout for a decoded line, or no field of
    its layout: `exc` is the KeyError or TypeError of the lookup."""
    if not isinstance(rec, dict):
        return "expected a JSON object"
    kind = rec.get("kind")
    if type(kind) is str and kind in _READERS:
        return f"{kind} record has no field {exc}"
    return f"unknown kind {kind!r}"


def trace_from_jsonl(text: str) -> Trace:
    """Rebuild a Trace from its serialized form in one pass, reading the
    lines in the order `Trace.to_jsonl` writes them: the meta line first,
    every instant within [0, horizon] and not below the line before, every
    mode within [1, levels], and the lines of each span [t, until) together,
    in one mode, as dispatch lines for procs 0, 1, ... and an idle line for
    the procs left over, if any; each span starts after the one before it. A
    span becomes one sched record in the place of its lines; an idle line's
    "procs" is checked, then dropped. Malformed input, a field of the wrong
    JSON type included, raises ValueError naming the line.

    The text is read in pieces of about _READ_CHARS, each decoded in one
    call as a JSON array of its lines where that gives each line's own
    record (_block_records), and a line at a time otherwise, which names
    the line of a fault; every piece of the writer's text takes the one
    call."""
    events = []
    meta = slots = None  # slots: those of the open span, if one is open
    # levels is 0 until the meta line, so every line before it fails the
    # mode test below, where the meta-first rule refuses it
    levels = 0
    for lineno, rec in enumerate(chain.from_iterable(_records(text)), 1):
        try:
            get, check, part, names = _READERS[rec["kind"]]
            if part == _DISPATCH and "ghost_task" in rec:
                get, check, part, names = _GHOST_LINE
            vals = get(rec)
        except (KeyError, TypeError) as exc:
            # a blank line fails the lookup too; skipped here, it costs the
            # other lines nothing
            if rec is _BLANK:
                continue
            raise ValueError(
                f"trace line {lineno}: {_no_layout(rec, exc)}") from None
        if not check(vals):
            raise ValueError(f"trace line {lineno}: {vals[0]} record "
                             f"{_mistyped(names, vals)}")
        if part == _META or not 1 <= vals[2] <= levels:
            if meta is not None and part != _META:
                raise ValueError(f"trace line {lineno}: mode {vals[2]} is "
                                 f"outside [1, levels={levels}]")
            if meta is not None or part != _META:
                raise ValueError(f"trace line {lineno}: the meta line must "
                                 "come first, and only once")
            meta, horizon, m, levels = vals[2:], vals[2], vals[3], vals[4]
            if vals[1] != 0 or horizon < 0 or m < 1 or levels < 1:
                raise ValueError(f"trace line {lineno}: meta line has t "
                                 f"{vals[1]}, horizon {horizon}, m {m}, levels "
                                 f"{levels}; t must be 0, the horizon >= 0, "
                                 "m and levels >= 1")
            try:
                ProtocolConfig(*vals[5:])
            except ValueError as exc:
                raise ValueError(f"trace line {lineno}: {exc}") from None
            start, low = -1, 0  # the start of the last span; the last line's t
            continue
        if slots is not None and (not part or vals[1] != start
                                  or vals[3] != until):
            if free:
                raise ValueError(f"trace line {first}: span [{start}, "
                                 f"{until}) ends short of m with no idle line")
            events.append(("sched", start, span_mode, until, tuple(slots)))
            slots = None
        if not part:
            if not low <= vals[1] <= horizon:
                raise ValueError(f"trace line {lineno}: t={vals[1]} is "
                                 f"outside [{low}, horizon={horizon}]")
            events.append(vals)
            low = vals[1]
            continue
        if slots is None:
            if not start < vals[1] < vals[3] <= horizon:
                raise ValueError(f"trace line {lineno}: span [{vals[1]}, "
                                 f"{vals[3]}) is empty, leaves [0, {horizon}] "
                                 "or does not start after the span before it")
            if vals[1] < low:
                raise ValueError(f"trace line {lineno}: span [{vals[1]}, "
                                 f"{vals[3]}) starts before t={low}")
            start = low = vals[1]
            span_mode, until = vals[2], vals[3]
            slots, free, first = [], m, lineno
        elif vals[2] != span_mode:
            raise ValueError(f"trace line {lineno}: mode {vals[2]} "
                             f"differs from its span's mode {span_mode}")
        if part == _IDLE:
            if not 0 < vals[4] == free:
                raise ValueError(f"trace line {lineno}: idle line for "
                                 f"{vals[4]} procs where {free} are free")
            free = 0
        elif vals[7] != 1 and (vals[7] != 0 or part == _GHOST):
            raise ValueError(f"trace line {lineno}: rem {vals[7]} is not "
                             + ("1 on a ghost-hosting dispatch line"
                                if part == _GHOST else "0 or 1"))
        elif free and vals[6] == len(slots):
            slots.append(("G", vals[8], vals[9], vals[4], vals[5])
                         if part == _GHOST else
                         ("R" if vals[7] else "J", vals[4], vals[5]))
            free -= 1
        else:
            raise ValueError(f"trace line {lineno}: proc {vals[6]} is not "
                             "the next free proc of its span")
    if meta is None:
        raise ValueError("trace has no meta line")
    if slots is not None:
        if free:
            raise ValueError(f"trace line {first}: span [{start}, {until}) "
                             "ends short of m with no idle line")
        events.append(("sched", start, span_mode, until, tuple(slots)))
    return Trace(events, *meta)


class _Job:
    # in the band while its task's head, or after it completes as its own
    # ghost: "budget" is then its hosting time left, and it hosts only
    # before "expiry"
    __slots__ = ("st", "tid", "k", "r", "d", "c", "executed", "pending",
                 "L", "C", "idk", "rank", "budget", "expiry")

    def __init__(self, st, k, r, c):
        task = st.task
        self.st = st
        self.tid = task.id
        self.k = k
        self.r = r
        self.d = r + task.D
        self.c = c
        self.executed = 0  # never passes c: executed == c once complete
        self.pending = True  # in its task's pending list
        self.L = task.L
        self.C = task.C
        self.idk = st.idk
        self.rank = st.rank


class _TaskState:
    __slots__ = ("task", "tid", "rank", "idk", "execs", "pending", "L")

    def __init__(self, task, rank, execs):
        self.task = task
        self.tid = task.id
        self.rank = rank
        self.idk = id_key(task.id)
        self.execs = execs
        self.pending = []  # released, unfinished, not suspended; by k
        self.L = task.L  # enabled exactly while L >= the level


_rank_of = attrgetter("rank")


class _NeverDue:
    """The job in the deadline heap's sentinel entry."""
    pending = True


def _rem_key(order: str):
    """The rem-pool sort key of a rem order."""
    if order == "crit-edf":
        return lambda job: (-job.L, job.d, job.idk, job.k)
    if order == "edf":
        return lambda job: (job.d, job.idk, job.k)
    # srpt on actual remaining
    return lambda job: (job.c - job.executed, job.idk, job.k)


def _arrival_queue(states, sc: Scenario) -> list:
    """(t, task index, k) of every arrival, in the order releases are
    processed, and a sentinel past the horizon at the end."""
    queue = []
    for ti, st in enumerate(states):
        arrivals = sc.arrivals.get(st.tid, ())
        if len(st.execs) < len(arrivals):
            raise InconsistentInputs(
                f"task {st.tid!r}: {len(arrivals)} arrivals but "
                f"{len(st.execs)} exec_times")
        if any(map(gt, arrivals, arrivals[1:])) or (arrivals
                                                    and arrivals[0] < 0):
            raise InconsistentInputs(
                f"task {st.tid!r}: arrivals must be non-negative and "
                "non-decreasing")
        queue += zip(arrivals, repeat(ti), count(1))
    queue.sort(key=itemgetter(0))  # stable: task order, then k, at one t
    queue.append((sc.horizon + 1, -1, 0))
    return queue


def simulate(ts: TaskSet, platform: Platform, pa: PriorityAssignment,
             wt: dict, sc: Scenario, cfg: ProtocolConfig | None = None) -> Trace:
    """Run one scenario to its horizon and return the event trace."""
    if cfg is None:
        cfg = ProtocolConfig()
    m = platform.m
    if not pa.covers(ts):
        raise InconsistentInputs("priority assignment does not cover the task set")
    for task in ts.tasks:
        for level in range(1, task.L + 1):
            if (task.id, level) not in wt:
                raise InconsistentInputs(
                    f"response-time table missing task {task.id!r} level {level}")
    if sc.horizon < 0:
        raise InconsistentInputs(f"negative horizon {sc.horizon}")
    for _, target in sc.dmcr_requests:
        if not 1 <= target < ts.levels:
            raise InconsistentInputs(
                f"target level {target} not in [1, {ts.levels - 1}]")

    horizon = sc.horizon
    states = [_TaskState(t, pa.rank(t.id), sc.exec_times.get(t.id, ()))
              for t in ts.tasks]
    by_rank = sorted(states, key=_rank_of)
    # the arrival, deadline and request queues each end in a sentinel past
    # the horizon, which time never reaches
    arrivals = _arrival_queue(states, sc)
    arr_i = 0
    # heap of (d, task index, k, job), pending or not
    deadlines = [(horizon + 1, -1, 0, _NeverDue)]
    rem_key = _rem_key(cfg.rem_order)
    reclaiming = cfg.protocol in ("wcet-reclaim", "wcrt-simulate")
    drop = cfg.protocol == "drop"
    events: list[tuple] = []
    emit = events.append

    level = 1
    rem_pool: list[_Job] = []
    # each task's head and the live ghosts, by rank; a task's older job first
    band: list[_Job] = []
    n_ghosts = 0  # the live ghosts in the band
    chain = None  # [task ids by rank, cursor, target]
    pending_req = None
    reqs = sorted(sc.dmcr_requests, key=itemgetter(0)) + [(horizon + 1, 0)]
    req_i = 0
    running: list[tuple] = []  # (job, hosting ghost or None) in slot order
    open_rec = None  # [t0, mode, slots, index of its place in events]
    force_tick = False
    t = 0

    while True:
        # ---- completions (execution was credited before the jump here) ----
        completions = None  # task id -> its job completed at t, if any
        for job, _ in running:
            if job.executed < job.c:
                continue
            rem = job.L < level  # its task is suspended: a rem-job
            emit(("complete", t, level, job.tid, job.k, job.c, job.r, job.d,
                  1 if rem else 0))
            if rem:
                rem_pool.remove(job)
                continue
            job.pending = False
            pending = job.st.pending
            pending.remove(job)
            if completions is None:
                completions = {}
            completions[job.tid] = job  # only a task's head runs in a J slot
            if pending:  # the task's next head goes after the job
                insort(band, pending[0], key=_rank_of)
            if reclaiming and rem_pool:
                # a job and its ghost run at most C_i(level), by r + D_i
                budget = job.C[level - 1] - job.c
                expiry = job.d
                if cfg.protocol == "wcrt-simulate":
                    expiry = min(expiry, job.r + wt[(job.tid, level)])
                if budget > 0 and expiry > t:  # it stays as its own ghost
                    job.budget, job.expiry = budget, expiry
                    n_ghosts += 1
                    continue
            band.remove(job)

        # ---- budget-overrun cascade ----
        while True:
            tripped = broken = None
            for job, _ in running:
                if job.executed >= job.c:
                    continue  # completed
                if job.L > level and job.executed >= job.C[level - 1]:
                    tripped = job
                    break
                if broken is None and job.executed >= job.C[job.L - 1]:
                    broken = job
            if tripped is None:
                # no legal transition left; a job at its top budget without
                # completing means the scenario broke the execution contract
                if broken is not None:
                    raise ModelViolation(
                        f"job ({broken.tid!r},{broken.k}) exhausted its "
                        "top-level budget without completing")
                break
            level += 1
            emit(("budget_exceeded", t, level, tripped.tid, tripped.k))
            for st in states:
                if st.L == level - 1:  # enabled until this raise
                    jobs, st.pending = st.pending, []
                    for j in jobs:
                        j.pending = False
                        if drop:
                            emit(("job_dropped", t, level, j.tid, j.k, "imcr"))
                        else:
                            rem_pool.append(j)
            # the suspended heads leave, and so does every ghost: budget
            # guarantees do not carry across levels
            band = [j for j in band if j.pending]
            n_ghosts = 0
            if chain is not None:
                emit(("chain_aborted", t, level, chain[1]))
                chain = None

        # ---- ghost and phase cleanup ----
        if n_ghosts:
            live = [j for j in band if j.pending or rem_pool and j.budget > 0
                    and j.expiry > t]
            n_ghosts -= len(band) - len(live)
            band = live

        # ---- level-decrease intake ----
        while reqs[req_i][0] <= t:
            target = reqs[req_i][1]
            req_i += 1
            emit(("dmcr_requested", t, level, target))
            pending_req = target
        if pending_req is not None and chain is None and not rem_pool:
            target, pending_req = pending_req, None
            if target < level:
                chain = [[st.tid for st in by_rank if st.L >= level], 0,
                         target]

        # ---- chain qualification ----
        if chain is not None:
            tasks_, cursor, target = chain
            while completions is not None and cursor < len(tasks_):
                adv = completions.get(tasks_[cursor])
                if adv is None or t > adv.r + wt[(adv.tid, target)]:
                    break
                emit(("chain_advance", t, level, adv.tid, adv.k))
                cursor += 1
            chain[1] = cursor
            if cursor == len(tasks_):
                woken = [st for st in states if target <= st.L < level]
                emit(("re_enabled", t, target,
                      tuple(sorted((st.tid for st in woken), key=id_key))))
                level = target
                chain = None

        # ---- releases ----
        while arrivals[arr_i][0] == t:
            _, ti, k = arrivals[arr_i]
            arr_i += 1
            st = states[ti]
            if st.L >= level:
                job = _Job(st, k, t, st.execs[k - 1])
                if not st.pending:
                    insort(band, job, key=_rank_of)
                st.pending.append(job)
                heappush(deadlines, (job.d, ti, k, job))
                emit(("release", t, level, st.tid, k, job.d))
            else:
                emit(("job_dropped", t, level, st.tid, k,
                      "suspended_arrival"))

        # ---- deadline misses (completing exactly at d is on time) ----
        while deadlines[0][0] <= t:
            d, _, k, job = heappop(deadlines)
            if d == t and job.pending:
                emit(("deadline_miss", t, level, job.tid, k, job.L))

        if t >= horizon:
            if chain is not None:
                emit(("chain_stalled", t, level, chain[1]))
            break

        # ---- dispatch ----
        # the band's m highest entries, heads and ghosts, then rem-jobs by
        # rem order; the rem-jobs not dispatched directly are the ghosts'
        # hosts
        top = band[:m]
        free = m - len(top)
        rem_eligible = ()
        if rem_pool and (free or n_ghosts):
            front: dict = {}
            # a task's rem-jobs join the pool together, in k order, and only
            # its front runs: its first job in the pool is its front
            for job in rem_pool:
                front.setdefault(job.tid, job)
            rem_eligible = sorted(front.values(), key=rem_key)
        slots = []
        running = []
        hi = free
        for job in top:
            if job.pending:
                slots.append(("J", job.tid, job.k))
                running.append((job, None))
            elif hi < len(rem_eligible):
                host = rem_eligible[hi]
                hi += 1
                slots.append(("G", job.tid, job.k, host.tid, host.k))
                running.append((host, job))
            else:
                # pool ran dry: retire the ghost, its slot idles this tick
                band.remove(job)
                n_ghosts -= 1
                force_tick = True
        for job in rem_eligible[:free]:
            slots.append(("R", job.tid, job.k))
            running.append((job, None))
        slots_t = tuple(slots)
        if open_rec is None or open_rec[2] != slots_t or open_rec[1] != level:
            # a new span takes its place in events now, after the point
            # events at t and before the arrival drops emitted below
            if open_rec is not None:
                t0, mode, prev, i = open_rec
                events[i] = ("sched", t0, mode, t, prev)
            open_rec = [t, level, slots_t, len(events)]
            emit(None)

        # ---- next event ----
        nxt = horizon
        if force_tick:
            nxt = t + 1
            force_tick = False
        if (pending_req is not None and chain is None and not rem_pool
                and t + 1 < nxt):
            # only a re-enable at t leaves a request waiting on a settled
            # system; a chain or the rem pool can only let intake go at a
            # completion or an overrun, and those are event instants
            nxt = t + 1
        for job, g in running:
            delta = job.c - job.executed
            top_left = job.C[job.L - 1] - job.executed
            if top_left < delta:
                delta = top_left  # stop at the contract boundary
            if job.L > level:
                budget_left = job.C[level - 1] - job.executed
                if budget_left < delta:
                    delta = budget_left
            if g is not None:  # a hosting ghost stops at its budget or expiry
                delta = min(delta, g.budget, g.expiry - t)
            if delta < 1:
                # a level decrease can leave a running job already at or past
                # the lower level's budget; that overrun is seen at the next
                # monitoring instant, never by stepping time backward
                delta = 1
            if t + delta < nxt:
                nxt = t + delta
        while not deadlines[0][3].pending:
            heappop(deadlines)  # completed or suspended since its release
        if deadlines[0][0] < nxt:
            nxt = deadlines[0][0]
        if reqs[req_i][0] < nxt:
            nxt = reqs[req_i][0]
        # a suspended task's arrival before nxt changes nothing but the
        # trace: drop it here, at its own instant and the level in force;
        # an enabled task's arrival is the next event
        while arrivals[arr_i][0] < nxt:
            a, ti, k = arrivals[arr_i]
            st = states[ti]
            if st.L >= level:
                nxt = a
                break
            arr_i += 1
            emit(("job_dropped", a, level, st.tid, k, "suspended_arrival"))
        if nxt <= t:  # kept under python -O, where an assert would spin
            raise AssertionError(f"simulation time stalled at {t}")

        span = nxt - t
        for job, g in running:
            job.executed += span
            if g is not None:
                g.budget -= span
        t = nxt

    if open_rec is not None:
        t0, mode, prev, i = open_rec
        events[i] = ("sched", t0, mode, horizon, prev)
    return Trace(events, horizon, m, ts.levels, cfg.protocol, cfg.rem_order)
