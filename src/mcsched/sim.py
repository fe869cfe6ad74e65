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
from dataclasses import dataclass
from operator import itemgetter

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
# integer or a string; an array field is a tuple in the event.
_FIELD_TYPES = {"kind": (str,), "task": (int, str), "ghost_task": (int, str),
                "why": (str,), "tasks": (tuple,), "protocol": (str,),
                "rem_order": (str,)}
_ARRAY_FIELDS = {f for f, types in _FIELD_TYPES.items() if types == (tuple,)}
_TYPE_NAMES = {int: "an integer", str: "a string", tuple: "an array"}


def _type_check(names):
    """A predicate over a tuple of values of fields `names`: true when each
    value has its field's JSON type (bool is not an integer here).

    The predicate is compiled from the table once, as straight-line
    `type(v[i]) is ...` tests: on a trace read, a generic per-line
    `tuple(map(type, values))` lookup costs ~3 times as much.
    """
    tests = []
    for i, name in enumerate(names):
        tests.append(" or ".join(f"type(v[{i}]) is {t.__name__}"
                                 for t in _FIELD_TYPES.get(name, (int,))))
    return eval("lambda v: (" + ") and (".join(tests) + ")")


def _mistyped(names, values) -> str:
    for name, value in zip(names, values):
        types = _FIELD_TYPES.get(name, (int,))
        if type(value) not in types:
            want = " or ".join(_TYPE_NAMES[t] for t in types)
            return f"field {name!r} must be {want}, got {value!r}"


def _with_tuples(get):
    return lambda rec: tuple(tuple(v) if type(v) is list else v
                             for v in get(rec))


def _layouts():
    """Per kind: the record keys in line order with a getter of their values
    from the event tuple; and a getter of the event tuple from a record,
    with the tuple's field names and their type check."""
    to_record, from_record = {}, {}
    for kind, fields in EVENT_FIELDS.items():
        keys = ("t", "mode") + tuple(f for f in fields if f != "mode")
        to_record[kind] = (("t", "kind") + fields, itemgetter(
            1, 0, *(1 + keys.index(f) for f in fields)))
        names = ("kind",) + keys
        get = itemgetter(*names)
        if _ARRAY_FIELDS.intersection(fields):
            get = _with_tuples(get)
        from_record[kind] = (get, names, _type_check(names))
    return to_record, from_record


def _span_layouts():
    """Per dispatch or idle line shape: a getter of the fields the reader
    uses, their names and their type check."""
    job = ("t", "until", "mode", "proc", "task", "k", "rem")
    shapes = {"idle": ("t", "until", "mode"), "dispatch": job,
              "ghost": job + ("ghost_task", "ghost_k")}
    return {shape: (itemgetter(*names), names, _type_check(names))
            for shape, names in shapes.items()}


_TO_RECORD, _FROM_RECORD = _layouts()
_SPAN_LINES = _span_layouts()
_META_OK = _type_check(META_FIELDS)
_encode = json.JSONEncoder(separators=(",", ":")).encode
_decode = json.JSONDecoder().raw_decode


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
        completed_at = {(ev[3], ev[4]): ev[1] for ev in self.events
                        if ev[0] == "complete"}
        prev = ()  # (task, k) per processor in the previous span
        for ev in self.events:
            kind = ev[0]
            if kind != "sched":
                keys, values = _TO_RECORD[kind]
                out.append(_encode(dict(zip(keys, values(ev)))))
                continue
            _, t0, mode, t1, slots = ev
            now = [(s[3], s[4]) if s[0] == "G" else (s[1], s[2]) for s in slots]
            for proc, (tid, k) in enumerate(prev):
                if (tid, k) not in now and completed_at.get((tid, k)) != t0:
                    out.append(_encode({"t": t0, "kind": "preempt", "task": tid,
                                        "k": k, "proc": proc, "mode": mode}))
            for proc, (slot, (tid, k)) in enumerate(zip(slots, now)):
                rec = {"t": t0, "kind": "dispatch", "task": tid, "k": k,
                       "proc": proc, "mode": mode, "until": t1,
                       "rem": 0 if slot[0] == "J" else 1}
                if slot[0] == "G":
                    rec["ghost_task"] = slot[1]
                    rec["ghost_k"] = slot[2]
                out.append(_encode(rec))
            if len(slots) < self.m:
                out.append(_encode({"t": t0, "kind": "idle", "mode": mode,
                                    "until": t1, "procs": self.m - len(slots)}))
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
                 "L", "C", "rank", "idk")

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
    __slots__ = ("task", "tid", "rank", "idk", "arrivals", "execs",
                 "next_arr", "pending", "enabled")

    def __init__(self, task, rank, arrivals, execs):
        self.task = task
        self.tid = task.id
        self.rank = rank
        self.idk = id_key(task.id)
        self.arrivals = arrivals
        self.execs = execs
        self.next_arr = 0
        self.pending = []
        self.enabled = True


def _rem_key(job: _Job, order: str):
    if order == "crit-edf":
        return (-job.L, job.d, job.idk, job.k)
    if order == "edf":
        return (job.d, job.idk, job.k)
    return (job.c - job.executed, job.idk, job.k)  # srpt on actual remaining


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
    for _, target in sc.dmcr_requests:
        if not 1 <= target < ts.levels:
            raise InvalidTarget(
                f"target level {target} not in [1, {ts.levels - 1}]")

    states = [_TaskState(t, pa.rank(t.id), sc.arrivals.get(t.id, ()),
                         sc.exec_times.get(t.id, ())) for t in ts.tasks]
    reclaiming = cfg.protocol in ("wcet-reclaim", "wcrt-simulate")
    drop = cfg.protocol == "drop"
    horizon = sc.horizon
    events: list[tuple] = []
    emit = events.append

    level = 1
    rem_pool: list[_Job] = []
    ghosts: list[_Ghost] = []
    chain = None  # [task ids by rank, cursor, target]
    pending_req = None
    reqs = sorted(sc.dmcr_requests, key=lambda r: r[0])
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
            job.st.pending.remove(job)
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
            tripped = None
            for code, job, ghost in running:
                if (job.f is None and not job.rem and job.L > level
                        and job.executed >= job.C[level - 1]):
                    tripped = job
                    break
            if tripped is None:
                # no legal transition left; a job at its top budget without
                # completing means the scenario broke the execution contract
                for code, job, ghost in running:
                    if job.f is None and job.executed >= job.C[job.L - 1]:
                        raise ModelViolation(
                            f"job ({job.tid!r},{job.k}) exhausted its "
                            "top-level budget without completing")
                break
            level += 1
            emit(("budget_exceeded", t, level, tripped.tid, tripped.k))
            for st in states:
                if st.enabled and st.task.L < level:
                    st.enabled = False
                    jobs, st.pending = st.pending, []
                    for j in jobs:
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
        while req_i < len(reqs) and reqs[req_i][0] <= t:
            target = reqs[req_i][1]
            req_i += 1
            emit(("dmcr_requested", t, level, target))
            pending_req = target
        if pending_req is not None and chain is None and not rem_pool:
            target, pending_req = pending_req, None
            if target < level:
                by_rank = sorted((st for st in states if st.enabled),
                                 key=lambda s: s.rank)
                chain = [[st.tid for st in by_rank], 0, target]

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
        for st in states:
            while st.next_arr < len(st.arrivals) and st.arrivals[st.next_arr] == t:
                k = st.next_arr + 1
                c = st.execs[st.next_arr]
                st.next_arr += 1
                if st.enabled:
                    job = _Job(st, k, t, c)
                    st.pending.append(job)
                    emit(("release", t, level, st.tid, k, job.d))
                else:
                    emit(("job_dropped", t, level, st.tid, k,
                          "suspended_arrival"))

        # ---- deadline misses (completing exactly at d is on time) ----
        for st in states:
            if st.enabled:
                for job in st.pending:
                    if job.d == t:
                        emit(("deadline_miss", t, level, st.tid, job.k,
                              st.task.L))

        if t >= horizon:
            if chain is not None:
                emit(("chain_stalled", t, level, chain[1]))
            break

        # ---- dispatch ----
        cands = []
        for st in states:
            if st.enabled and st.pending:
                job = st.pending[0]
                cands.append(((0, st.rank, job.k, 0), "J", job, None))
        rem_eligible = []
        if rem_pool:
            front: dict = {}
            for job in rem_pool:
                cur = front.get(job.tid)
                if cur is None or job.k < cur.k:
                    front[job.tid] = job
            rem_eligible = sorted(front.values(),
                                  key=lambda j: _rem_key(j, cfg.rem_order))
            for job in rem_eligible:
                cands.append(((1,) + _rem_key(job, cfg.rem_order), "R", job,
                              None))
        for g in ghosts:
            cands.append(((0, g.rank, g.k, 1), "G", None, g))
        cands.sort(key=lambda e: e[0])
        selected = cands[:m]

        direct = {id(job) for _, code, job, _ in selected if job is not None}
        hosts = [j for j in rem_eligible if id(j) not in direct]
        hi = 0
        slots = []
        running = []
        for _, code, job, g in selected:
            if code == "J":
                slots.append(("J", job.tid, job.k))
                running.append(("J", job, None))
            elif code == "R":
                slots.append(("R", job.tid, job.k))
                running.append(("R", job, None))
            elif hi < len(hosts):
                host = hosts[hi]
                hi += 1
                slots.append(("G", g.tid, g.k, host.tid, host.k))
                running.append(("G", host, g))
            else:
                # pool ran dry: retire the ghost, its slot idles this tick
                ghosts.remove(g)
                force_tick = True

        # ---- next event ----
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
        for st in states:
            if st.next_arr < len(st.arrivals) and st.arrivals[st.next_arr] < nxt:
                nxt = st.arrivals[st.next_arr]
            if st.enabled:
                for job in st.pending:
                    if t < job.d < nxt:
                        nxt = job.d
        if req_i < len(reqs) and reqs[req_i][0] < nxt:
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
    events.sort(key=lambda e: (e[1], 1 if e[0] == "sched" else 0))
    return Trace(events, horizon, m, ts.levels, cfg.protocol, cfg.rem_order)
