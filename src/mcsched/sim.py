"""Event-driven simulator for global preemptive static-priority scheduling
of mixed-criticality task systems with budget monitoring and mode changes.

Scheduler rules. At every instant the m highest-priority dispatchable
entities run, one per processor. Dispatchable entities are, from high to
low band: available jobs of enabled tasks and ghost slots (both at the
owning task's rank), then rem-jobs (always below every enabled task).
The scheduler is work-conserving over dispatchable entities, with one
deliberate exception: a ghost slot whose rem-job pool ran dry idles for a
single tick while the ghost is retired.

Budget monitoring. A job of a task with L > current level that reaches its
current-level budget without completing raises the system level by one.
Tasks with L below the new level are suspended: their future arrivals are
dropped, and their already-released jobs either vanish (protocol "drop") or
join the rem-job pool to be finished at background priority. Protocols
"wcet-reclaim" and "wcrt-simulate" additionally lend rem-jobs the processor
slots that completed jobs of enabled tasks no longer need: a ghost carries
either the completing job's unused budget (C_i(level) - c) or its remaining
response-time window (until r + R_i(level)).

Level decreases are requested externally (scenario dmcr_requests). A request
is taken up at the next steady instant; the system then watches the enabled
tasks in priority order, waiting for each to complete a job within its
response bound at the target level, and re-enables every suspended task with
L >= target synchronously when the last one qualifies. Any budget overrun
while the chain is active aborts it.

All times are integers. One run is strictly deterministic in its inputs.
simulate expects a validated scenario (model.validate_scenario). Of its
contract it checks only what the queues below rely on: the horizon and
each task's arrivals are non-negative, the arrivals do not decrease, and
there is an exec_time for every arrival; otherwise it raises
InconsistentInputs.

Queues. Time jumps from event to event; only a level change or the start
of a decrease chain looks at every task. The arrivals of all tasks are
merged once into one list ordered by time, task order and job index, and
read through a cursor. Each release pushes (deadline, task index, job
index, job) onto a heap. The deadline-miss phase pops the entries due by
t and reports those still pending at their deadline t, in task order,
then job index; a job that completed or was suspended is no longer
pending, and its entry is discarded when it reaches the top. The tasks
with pending jobs are kept in rank order, so dispatch reads the m highest
enabled heads off the front, and it sorts only when ghost slots compete
with them. The next event is the earliest of the next arrival, the
earliest pending deadline, the next request, ghost expiries, forced ticks
and the running entities' budget and completion boundaries.

Internal trace events are tuples. A point event is (kind, t, mode, *fields)
with the fields of EVENT_FIELDS[kind] other than "mode", in table order; the
table also fixes each kind's JSONL field order. Dispatch spans are
    ("sched", t0, mode, t1, slots)
with one slot per busy processor, in priority order:
    ("J", task, k)                           enabled-task job
    ("R", task, k)                           rem-job on a free processor
    ("G", ghost_task, ghost_k, task, k)      rem-job hosted by a ghost slot

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
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, repeat
from operator import attrgetter, gt, itemgetter

from .model import Platform, Scenario, TaskSet, id_key
from .analysis import PriorityAssignment

PROTOCOLS = ("drop", "naive", "wcet-reclaim", "wcrt-simulate")
REM_ORDERS = ("crit-edf", "edf", "srpt")


class InconsistentInputs(ValueError):
    """Priority assignment or response-time table does not cover the task set."""


class ModelViolation(RuntimeError):
    """A job reached its top-level budget without completing; the scenario
    breached the execution-time contract."""


class InvalidTarget(ValueError):
    """Level-decrease request targeting a level outside [1, levels-1]."""


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
    """A predicate over a tuple of values of fields `names`: true when each
    value has its field's JSON type (bool is not an integer here).

    The predicate is compiled from the table once, as straight-line
    `type(v[i]) is ...` tests: on a trace read, a generic per-line
    `tuple(map(type, values))` lookup costs ~3 times as much.
    """
    tests = []
    for i, name in enumerate(names):
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


def _line_writer(kind, fields):
    """A function (event, enc) -> the event's JSONL line, compiled once as
    one %-template. Integers are formatted directly; a task id, "why" or
    "tasks" value is looked up in `enc`, which maps a value to its JSON
    text, because an id can be any string."""
    keys = ("t", "mode") + tuple(f for f in fields if f != "mode")
    parts, args = ['"t":%d', '"kind":' + json.dumps(kind)], ["ev[1]"]
    for f in fields:
        value = f"ev[{1 + keys.index(f)}]"
        if _FIELD_TYPES.get(f, (int,)) == (int,):
            parts.append(f'"{f}":%d')
            args.append(value)
        else:
            parts.append(f'"{f}":%s')
            args.append(f"enc[{value}]")
    template = "{" + ",".join(parts) + "}"
    return eval(f"lambda ev, enc: {template!r} % ({', '.join(args)},)")


def _layouts():
    """Per kind: the line writer; and a getter of the event tuple from a
    record, with the tuple's field names and their type check."""
    writers, from_record = {}, {}
    for kind, fields in EVENT_FIELDS.items():
        writers[kind] = _line_writer(kind, fields)
        names = ("kind", "t", "mode") + tuple(f for f in fields if f != "mode")
        get = itemgetter(*names)
        if _ELEMENT_TYPES.keys() & set(fields):
            get = _with_tuples(get)
        from_record[kind] = (get, names, _type_check(names))
    return writers, from_record


def _span_layouts():
    """Per dispatch or idle line shape: a getter of the fields the reader
    uses, their names and their type check."""
    job = ("t", "until", "mode", "proc", "task", "k", "rem")
    shapes = {"idle": ("t", "until", "mode"), "dispatch": job,
              "ghost": job + ("ghost_task", "ghost_k")}
    return {shape: (itemgetter(*names), names, _type_check(names))
            for shape, names in shapes.items()}


_WRITERS, _FROM_RECORD = _layouts()
_SPAN_LINES = _span_layouts()
_META_OK = _type_check(META_FIELDS)
# span lines: %s fields are JSON-encoded task ids
_DISPATCH = ('{"t":%d,"kind":"dispatch","task":%s,"k":%d,"proc":%d,'
             '"mode":%d,"until":%d,"rem":%d}')
_GHOST_DISPATCH = ('{"t":%d,"kind":"dispatch","task":%s,"k":%d,"proc":%d,'
                   '"mode":%d,"until":%d,"rem":1,"ghost_task":%s,"ghost_k":%d}')
_PREEMPT = '{"t":%d,"kind":"preempt","task":%s,"k":%d,"proc":%d,"mode":%d}'
_IDLE = '{"t":%d,"kind":"idle","mode":%d,"until":%d,"procs":%d}'
_encode = json.JSONEncoder(separators=(",", ":")).encode
_decode = json.JSONDecoder().raw_decode


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
        "until"), preempt lines for entities that stop while incomplete,
        and idle lines when processors are unoccupied.
        """
        meta = {"t": 0, "kind": "meta"}
        meta.update((f, getattr(self, f)) for f in META_FIELDS)
        out = [_encode(meta)]
        line = out.append
        enc = _Encoded()
        completed_at = {(ev[3], ev[4]): ev[1] for ev in self.events
                        if ev[0] == "complete"}
        prev = ()  # (task, k) per processor in the previous span
        for ev in self.events:
            kind = ev[0]
            if kind != "sched":
                line(_WRITERS[kind](ev, enc))
                continue
            _, t0, mode, t1, slots = ev
            now = [(s[3], s[4]) if s[0] == "G" else (s[1], s[2]) for s in slots]
            for proc, (tid, k) in enumerate(prev):
                if (tid, k) not in now and completed_at.get((tid, k)) != t0:
                    line(_PREEMPT % (t0, enc[tid], k, proc, mode))
            for proc, slot in enumerate(slots):
                if slot[0] == "G":
                    line(_GHOST_DISPATCH % (t0, enc[slot[3]], slot[4], proc,
                                            mode, t1, enc[slot[1]], slot[2]))
                else:
                    line(_DISPATCH % (t0, enc[slot[1]], slot[2], proc, mode,
                                      t1, slot[0] != "J"))
            if len(slots) < self.m:
                line(_IDLE % (t0, mode, t1, self.m - len(slots)))
            prev = now
        return "\n".join(out) + "\n"


def trace_from_jsonl(text: str) -> Trace:
    """Rebuild a Trace from its serialized form.

    Dispatch and idle lines sharing (t, until) are regrouped into sched
    records; preempt lines are derived data and are dropped, as is an idle
    line's "procs". Malformed input, a field of the wrong JSON type
    included, raises ValueError naming the line.
    """
    events = []
    meta = None
    groups: dict[tuple[int, int], dict] = {}
    order: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec, end = _decode(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: {exc.msg}") from exc
        if end < len(line):
            raise ValueError(f"trace line {lineno}: extra data after the record")
        if not isinstance(rec, dict):
            raise ValueError(f"trace line {lineno}: expected a JSON object")
        kind = rec.get("kind")
        try:
            layout = _FROM_RECORD.get(kind)
            if layout is not None:
                get, names, well_typed = layout
                ev = get(rec)
                if not well_typed(ev):
                    raise ValueError(f"trace line {lineno}: {kind} record "
                                     f"{_mistyped(names, ev)}")
                events.append(ev)
            elif kind in ("dispatch", "idle"):
                shape = kind
                if kind == "dispatch" and rec.get("ghost_task") is not None:
                    shape = "ghost"
                get, names, well_typed = _SPAN_LINES[shape]
                vals = get(rec)
                if not well_typed(vals):
                    raise ValueError(f"trace line {lineno}: {kind} record "
                                     f"{_mistyped(names, vals)}")
                span = vals[:2]
                g = groups.get(span)
                if g is None:
                    g = groups[span] = {"mode": vals[2], "slots": {}}
                    order.append(span)
                if shape == "ghost":
                    g["slots"][vals[3]] = ("G", vals[7], vals[8], vals[4], vals[5])
                elif shape == "dispatch":
                    g["slots"][vals[3]] = ("R" if vals[6] else "J", vals[4], vals[5])
            elif kind == "meta":
                meta = [rec[f] for f in META_FIELDS]
                if not _META_OK(meta):
                    raise ValueError(f"trace line {lineno}: meta record "
                                     f"{_mistyped(META_FIELDS, meta)}")
            elif kind != "preempt":
                raise ValueError(f"trace line {lineno}: unknown kind {kind!r}")
        except KeyError as exc:
            raise ValueError(
                f"trace line {lineno}: {kind} record has no field {exc}") from None
        except TypeError as exc:  # an unhashable kind
            raise ValueError(f"trace line {lineno}: {exc}") from None
    if meta is None:
        raise ValueError("trace has no meta line")
    for span in order:
        g = groups[span]
        slots = tuple(g["slots"][p] for p in sorted(g["slots"]))
        events.append(("sched", span[0], g["mode"], span[1], slots))
    # stable: point events, all appended before the sched records, stay
    # ahead of a sched record at the same instant
    events.sort(key=itemgetter(1))
    return Trace(events, *meta)


class _Job:
    __slots__ = ("st", "tid", "k", "r", "d", "c", "executed", "f", "rem",
                 "pending", "L", "C", "rank", "idk")

    def __init__(self, st, k, r, c):
        task = st.task
        self.st = st
        self.tid = task.id
        self.k = k
        self.r = r
        self.d = r + task.D
        self.c = c
        self.executed = 0
        self.f = None
        self.rem = False
        self.pending = True  # in its task's pending list
        self.L = task.L
        self.C = task.C
        self.rank = st.rank
        self.idk = st.idk


class _Ghost:
    __slots__ = ("tid", "k", "rank", "kind", "budget", "expiry")

    def __init__(self, tid, k, rank, kind, budget=0, expiry=0):
        self.tid = tid
        self.k = k
        self.rank = rank
        self.kind = kind  # "ur" carries unused budget, "win" a wall-clock window
        self.budget = budget
        self.expiry = expiry


class _TaskState:
    __slots__ = ("task", "tid", "rank", "idk", "execs", "pending", "enabled")

    def __init__(self, task, rank, execs):
        self.task = task
        self.tid = task.id
        self.rank = rank
        self.idk = id_key(task.id)
        self.execs = execs
        self.pending = []  # released, unfinished, not suspended; by k
        self.enabled = True


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
            raise InvalidTarget(
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
    ready: list[_TaskState] = []  # tasks with pending jobs, by rank
    rem_key = _rem_key(cfg.rem_order)
    reclaiming = cfg.protocol in ("wcet-reclaim", "wcrt-simulate")
    drop = cfg.protocol == "drop"
    events: list[tuple] = []
    emit = events.append

    level = 1
    rem_pool: list[_Job] = []
    ghosts: list[_Ghost] = []
    chain = None  # [task ids by rank, cursor, target]
    pending_req = None
    reqs = sorted(sc.dmcr_requests, key=itemgetter(0)) + [(horizon + 1, 0)]
    req_i = 0
    running: list[tuple] = []  # (code, job, ghost_or_None) in slot order
    open_rec = None  # [t0, mode, slots]
    force_tick = False
    t = 0

    while True:
        # ---- completions (execution was credited before the jump here) ----
        completions: dict = {}
        for code, job, ghost in running:
            if job.f is not None or job.executed < job.c:
                continue
            job.f = t
            emit(("complete", t, level, job.tid, job.k, job.c, job.r, job.d,
                  1 if job.rem else 0))
            if job.rem:
                rem_pool.remove(job)
                continue
            job.pending = False
            pending = job.st.pending
            pending.remove(job)
            if not pending:
                ready.remove(job.st)
            completions.setdefault(job.tid, []).append(job)
            if reclaiming and rem_pool:
                budget = job.C[level - 1]
                if cfg.protocol == "wcet-reclaim":
                    if job.c < budget:
                        ghosts.append(_Ghost(job.tid, job.k, job.rank, "ur",
                                             budget=budget - job.c))
                else:
                    end = job.r + wt[(job.tid, level)]
                    if end > t:
                        ghosts.append(_Ghost(job.tid, job.k, job.rank, "win",
                                             expiry=end))

        # ---- budget-overrun cascade ----
        while True:
            tripped = broken = None
            for code, job, ghost in running:
                if job.f is not None:
                    continue
                if (not job.rem and job.L > level
                        and job.executed >= job.C[level - 1]):
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
                if st.enabled and st.task.L < level:
                    st.enabled = False
                    jobs, st.pending = st.pending, []
                    if jobs:
                        ready.remove(st)
                    for j in jobs:
                        j.pending = False
                        if drop:
                            emit(("job_dropped", t, level, j.tid, j.k, "imcr"))
                        else:
                            j.rem = True
                            rem_pool.append(j)
            ghosts.clear()  # budget guarantees do not carry across levels
            if chain is not None:
                emit(("chain_aborted", t, level, chain[1]))
                chain = None

        # ---- ghost and phase cleanup ----
        if ghosts:
            if not rem_pool:
                ghosts.clear()
            else:
                ghosts = [g for g in ghosts
                          if (g.kind == "win" and g.expiry > t)
                          or (g.kind == "ur" and g.budget > 0)]

        # ---- level-decrease intake ----
        while reqs[req_i][0] <= t:
            target = reqs[req_i][1]
            req_i += 1
            emit(("dmcr_requested", t, level, target))
            pending_req = target
        if pending_req is not None and chain is None and not rem_pool:
            target, pending_req = pending_req, None
            if target < level:
                chain = [[st.tid for st in by_rank if st.enabled], 0, target]

        # ---- chain qualification ----
        if chain is not None:
            tasks_, cursor, target = chain
            while cursor < len(tasks_):
                adv = None
                for job in completions.get(tasks_[cursor], ()):
                    if t <= job.r + wt[(tasks_[cursor], target)]:
                        adv = job
                        break
                if adv is None:
                    break
                emit(("chain_advance", t, level, adv.tid, adv.k))
                cursor += 1
            chain[1] = cursor
            if cursor == len(tasks_):
                woken = tuple(sorted(
                    (st.tid for st in states
                     if not st.enabled and st.task.L >= target), key=id_key))
                for st in states:
                    if not st.enabled and st.task.L >= target:
                        st.enabled = True
                emit(("re_enabled", t, target, woken))
                level = target
                chain = None

        # ---- releases ----
        while arrivals[arr_i][0] == t:
            _, ti, k = arrivals[arr_i]
            arr_i += 1
            st = states[ti]
            if st.enabled:
                job = _Job(st, k, t, st.execs[k - 1])
                if not st.pending:
                    insort(ready, st, key=_rank_of)
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
        # the m highest enabled heads and ghosts, then rem-jobs by rem
        # order; the rem-jobs not dispatched directly are the ghosts' hosts
        if ghosts:
            band = [((st.rank, st.pending[0].k, 0), "J", st.pending[0], None)
                    for st in ready[:m]]
            band += [((g.rank, g.k, 1), "G", None, g) for g in ghosts]
            band.sort(key=itemgetter(0))
            selected = [entry[1:] for entry in band[:m]]
        else:
            selected = [("J", st.pending[0], None) for st in ready[:m]]
        free = m - len(selected)
        rem_eligible = ()
        if rem_pool and (free or ghosts):
            front: dict = {}
            for job in rem_pool:
                cur = front.get(job.tid)
                if cur is None or job.k < cur.k:
                    front[job.tid] = job
            rem_eligible = sorted(front.values(), key=rem_key)
        hi = free
        slots = []
        running = []
        for code, job, g in selected:
            if code == "J":
                slots.append(("J", job.tid, job.k))
                running.append(("J", job, None))
            elif hi < len(rem_eligible):
                host = rem_eligible[hi]
                hi += 1
                slots.append(("G", g.tid, g.k, host.tid, host.k))
                running.append(("G", host, g))
            else:
                # pool ran dry: retire the ghost, its slot idles this tick
                ghosts.remove(g)
                force_tick = True
        for job in rem_eligible[:free]:
            slots.append(("R", job.tid, job.k))
            running.append(("R", job, None))

        # ---- next event ----
        nxt = arrivals[arr_i][0]
        if nxt > horizon:
            nxt = horizon
        if force_tick:
            nxt = t + 1
            force_tick = False
        if pending_req is not None and t + 1 < nxt:
            nxt = t + 1  # re-check intake promptly once the system settles
        for code, job, g in running:
            delta = job.c - job.executed
            top_left = job.C[job.L - 1] - job.executed
            if top_left < delta:
                delta = top_left  # stop at the contract boundary
            if code == "J" and job.L > level:
                budget_left = job.C[level - 1] - job.executed
                if budget_left < delta:
                    delta = budget_left
            if g is not None and g.kind == "ur" and g.budget < delta:
                delta = g.budget
            if delta < 1:
                # a level decrease can leave a running job already at or past
                # the lower level's budget; that overrun is seen at the next
                # monitoring instant, never by stepping time backward
                delta = 1
            if t + delta < nxt:
                nxt = t + delta
        for g in ghosts:
            if g.kind == "win" and g.expiry < nxt:
                nxt = g.expiry
        while not deadlines[0][3].pending:
            heappop(deadlines)  # completed or suspended since its release
        if deadlines[0][0] < nxt:
            nxt = deadlines[0][0]
        if reqs[req_i][0] < nxt:
            nxt = reqs[req_i][0]
        assert nxt > t, f"simulation time stalled at {t}"

        slots_t = tuple(slots)
        if open_rec is None or open_rec[2] != slots_t or open_rec[1] != level:
            if open_rec is not None and open_rec[0] < t:
                emit(("sched", open_rec[0], open_rec[1], t, open_rec[2]))
            open_rec = [t, level, slots_t]

        span = nxt - t
        for code, job, g in running:
            job.executed += span
            if g is not None and g.kind == "ur":
                g.budget -= span
        t = nxt

    if open_rec is not None and open_rec[0] < horizon:
        emit(("sched", open_rec[0], open_rec[1], horizon, open_rec[2]))
    # stable: each sched record is emitted after every point event at its
    # start, so those stay ahead of it
    events.sort(key=itemgetter(1))
    return Trace(events, horizon, m, ts.levels, cfg.protocol, cfg.rem_order)
