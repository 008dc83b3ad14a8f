"""Traced runs: in-memory spans around each layer's public calls.

:class:`Tracer` wraps the public functions of every layer of the program
(see :meth:`Tracer.install`) for the duration of a traced run and
restores them afterwards; nothing in the program itself changes.  A span
records its name, start, end, parent and job label; a span opened inside
another span's call is its child.  Labels are per run: a run started by
``RunningJob`` carries its job's label, any other run a ``run<k>`` id, and
the spans of a run (iterations, C steps, checkpoint saves, finish) look the
label up from the run's engine, state or checkpoint manager.  A span with
no label of its own takes its parent's, except under
``OptimizationService.submit``, which also advances other jobs' work.
Counters record work done where a span would cost more than the call
itself (``SimClock.advance``, allocations), and a few values read after a
call (fused rounds, demotion reasons).

The spans are written out as Chrome trace-event JSON (``ph: "X"`` spans,
``ph: "C"`` counters; Perfetto and ``chrome://tracing`` load it).  The
per-layer metrics are computed from that file by :func:`layer_metrics`.
Times are stored in integer nanoseconds relative to the tracer's start and
written as microseconds with three decimals, so they read back exactly.

The layer of a span is the prefix of its name before the first dot; the
benchmark's own spans use the prefix ``bench``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict

__all__ = [
    "LAYERS",
    "PER_LAYER",
    "Tracer",
    "layer_metrics",
]

#: The program's layers, in dependency order (span name prefixes).
LAYERS = (
    "serve",
    "reliability",
    "io",
    "batch",
    "dispatch",
    "engine",
    "graph",
    "fastpath",
    "gpusim",
    "functions",
)

#: ``native`` outcomes recorded per run, as ``graph.demotions.<reason>``
#: metrics; any other reason lands in ``graph.demotions.other``.
DEMOTION_REASONS = (
    "host-managed",
    "engine-does-not-support-graphs",
    "disabled-by-env",
    "native-unavailable",
    "parity-mismatch",
)

# (name, unit) of every per-layer metric, in output order.
PER_LAYER = (
    [
        ("serve.submit.n", "count"),
        ("serve.submit.s", "s"),
        ("serve.journal.append.n", "count"),
        ("serve.journal.append.s", "s"),
        ("serve.journal.bytes", "bytes"),
        ("serve.durable.wall_s", "s"),
        ("serve.recover.s", "s"),
        ("serve.disk_bytes_per_job", "bytes"),
        ("serve.virt_p50_s", "s"),
        ("serve.virt_p99_s", "s"),
        ("io.fsync.n", "count"),
        ("io.fsync.s", "s"),
        ("io.atomic_write.n", "count"),
        ("reliability.checkpoint.save.n", "count"),
        ("reliability.checkpoint.save.s", "s"),
        ("dispatch.start.n", "count"),
        ("dispatch.start.s", "s"),
        ("engine.start_run.n", "count"),
        ("engine.start_run.s", "s"),
        ("engine.finish.s", "s"),
        ("graph.ramp.n", "count"),
        ("graph.ramp.s", "s"),
        ("graph.ramp.share", "ratio"),
        ("graph.native.n", "count"),
        ("graph.native.s", "s"),
        ("graph.native.share", "ratio"),
        ("graph.native.overhead_s", "s"),
        ("graph.replay.n", "count"),
        ("graph.replay.s", "s"),
        ("graph.eager.n", "count"),
        ("graph.eager.s", "s"),
        ("graph.native.active", "count"),
    ]
    + [(f"graph.demotions.{r}", "count") for r in DEMOTION_REASONS + ("other",)]
    + [
        ("fastpath.step.n", "count"),
        ("fastpath.step.s", "s"),
        ("fastpath.c_share", "ratio"),
        ("fastpath.verify.s", "s"),
        ("batch.run.s", "s"),
        ("batch.fused.execute.self_s", "s"),
        ("batch.fused.rounds", "count"),
        ("functions.eval.n", "count"),
        ("functions.eval.s", "s"),
        ("gpusim.clock.advance.n", "count"),
        ("gpusim.alloc.n", "count"),
        ("gpusim.alloc.hit_rate", "ratio"),
        ("gpusim.launch.n", "count"),
        ("sim.makespan_s", "s"),
    ]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead", "ratio"),
    ]
)

#: Counters a pass emits (summed into the trace as ``ph: "C"`` events).
COUNTERS = (
    "gpusim.clock.advance.n",
    "gpusim.alloc.n",
    "gpusim.alloc.hits",
    "batch.fused.rounds",
    "graph.native.active",
) + tuple(f"graph.demotions.{r}" for r in DEMOTION_REASONS + ("other",))


def _demotion_counter(reason) -> str | None:
    if reason is None:
        return None
    if reason == "active":
        return "graph.native.active"
    if reason in DEMOTION_REASONS:
        return f"graph.demotions.{reason}"
    return "graph.demotions.other"


class Tracer:
    """Span stack plus counters; :meth:`install` wraps the layer calls."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter_ns()
        #: ``[name, start_ns, end_ns, parent_index, job]`` per span.
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        #: ``(timestamp_ns, {counter: value})`` flushed at each pass end.
        self.counter_events: list[tuple[int, dict]] = []
        #: Spans closed out of stack order (interleaved coroutines).
        self.misnested = 0
        #: ``(span index, label its children inherit)`` of the open spans.
        self._stack: list[tuple[int, object]] = []
        #: ``id(object) -> (object, label)`` for each run's engine, state and
        #: checkpoint manager; the object is kept so its id is not reused.
        self._labels: dict[int, tuple[object, str]] = {}
        #: Service ticket id -> job label, for journal records.
        self._tickets: dict[int, str] = {}
        self._runs = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, job=None, shared=False) -> int:
        """Open a span; a *shared* span's children do not take its label."""
        parent, inherited = self._stack[-1] if self._stack else (-1, None)
        if job is None:
            job = inherited
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns() - self.t0, 0, parent, job])
        self._stack.append((index, inherited if shared else job))
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns() - self.t0
        if self._stack and self._stack[-1][0] == index:
            self._stack.pop()
        else:
            self.misnested += 1
            self._stack = [entry for entry in self._stack if entry[0] != index]

    def label_of(self, obj):
        """The label of the run that owns *obj* (engine, state, manager)."""
        entry = self._labels.get(id(obj))
        return entry[1] if entry is not None else None

    def _start_label(self) -> str:
        """Label for a run being started: the job of an enclosing
        ``RunningJob`` construction, else the next ``run<k>``."""
        if self._stack:
            parent = self.spans[self._stack[-1][0]]
            if parent[0] == "dispatch.start" and parent[4] is not None:
                return parent[4]
        self._runs += 1
        return f"run{self._runs}"

    def _register_run(self, run, label) -> None:
        for obj in (run.engine, run.state, run.checkpoint):
            if obj is not None:
                self._labels[id(obj)] = (obj, label)

    def flush_counters(self) -> None:
        """Record this pass's counters as one trace event and reset them
        (and the run labels, whose objects the pass no longer needs)."""
        values = {name: self.counters[name] for name in COUNTERS}
        self.counter_events.append((time.perf_counter_ns() - self.t0, values))
        self.counters.clear()
        self._labels.clear()
        self._tickets.clear()

    # -- wrapping ------------------------------------------------------------
    def _span_wrapper(self, fn, name, job_of=None, after=None, shared=False):
        """Wrap *fn* in a span; ``after(args, result, label)`` runs after it."""
        tracer = self

        def open_span(args):
            return tracer.open(
                name(args) if callable(name) else name,
                job_of(args) if job_of else None,
                shared,
            )

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                index = open_span(args)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(index)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_span(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result, tracer.spans[index][4])
            return result

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def wrap(
        self, owner, attr: str, name, *, job_of=None, after=None, shared=False
    ) -> None:
        self._patch(
            owner,
            attr,
            lambda fn: self._span_wrapper(fn, name, job_of, after, shared),
        )

    def count(self, owner, attr: str, counter: str) -> None:
        counters = self.counters

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[counter] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer's public calls (see the module docstring)."""
        from repro.batch import dispatch, fused, scheduler
        from repro.core import engine, schema
        from repro.gpusim import alloc, clock, fastpath, graph, launch
        from repro.reliability import checkpoint
        from repro.serve import journal, service

        counters = self.counters

        def job_label(index):
            def of(args):
                job = args[index] if len(args) > index else None
                return getattr(job, "label", None)

            return of

        def run_label(attr=None):
            def of(args):
                obj = args[0] if attr is None else getattr(args[0], attr)
                return self.label_of(obj)

            return of

        # serve: submit also steps earlier tickets' runs, so its label is
        # not passed on to the spans inside it.
        self.wrap(
            service.OptimizationService, "submit", "serve.submit",
            job_of=job_label(1), shared=True,
        )
        self.wrap(service.OptimizationService, "recover", "serve.recover")
        tickets = self._tickets

        def ticket_label(fn):
            @functools.wraps(fn)
            def wrapper(ticket, service_, job_id, tenant, job, *args, **kwargs):
                tickets[job_id] = job.label
                return fn(ticket, service_, job_id, tenant, job, *args, **kwargs)

            return wrapper

        self._patch(service.JobTicket, "__init__", ticket_label)

        def record_label(args):
            # Progress and checkpoint records name their ticket; event
            # records carry it in the event row.
            record = args[1]
            job_id = record.get("job_id", record.get("event", {}).get("job_id"))
            return tickets.get(job_id)

        self.wrap(
            journal.ServiceJournal, "append", "serve.journal.append",
            job_of=record_label,
        )
        # reliability, io
        self.wrap(
            checkpoint.CheckpointManager, "save", "reliability.checkpoint.save",
            job_of=run_label(),
        )
        self.wrap(checkpoint, "atomic_write_bytes", "io.atomic_write")
        self.wrap(os, "fsync", "io.fsync")
        # batch, dispatch

        def fused_rounds(args, result, label):
            counters["batch.fused.rounds"] += args[0].info()["fast_rounds"]

        self.wrap(scheduler.BatchScheduler, "run", "batch.run")
        self.wrap(
            fused.FusedGroupRunner, "execute", "batch.fused.execute",
            after=fused_rounds,
        )
        self.wrap(dispatch.RunningJob, "__init__", "dispatch.start", job_of=job_label(1))
        # engine

        def native_outcome(args, result, label):
            info = getattr(args[0].engine, "graph_info", None) or {}
            counter = _demotion_counter(info.get("native"))
            if counter is not None:
                counters[counter] += 1

        self.wrap(
            engine.Engine, "start_run", "engine.start_run",
            job_of=lambda args: self._start_label(),
            after=lambda args, run, label: self._register_run(run, label),
        )
        self.wrap(
            engine.EngineRun, "finish", "engine.finish",
            job_of=run_label("engine"), after=native_outcome,
        )
        # graph: the tier a run is on when an iteration starts

        def tier(args):
            phase = args[0].phase
            if phase in ("native", "replay", "eager"):
                return f"graph.{phase}"
            return "graph.ramp"

        self.wrap(
            graph.IterationRunner, "run_iteration", tier, job_of=run_label("engine")
        )
        # fastpath
        self.wrap(fastpath.NativePlan, "step", "fastpath.step", job_of=run_label("state"))
        self.wrap(fastpath, "verify_step", "fastpath.verify")
        # gpusim

        def alloc_hits(fn):
            @functools.wraps(fn)
            def wrapper(self_, *args, **kwargs):
                before = self_.stats.pool_hits
                result = fn(self_, *args, **kwargs)
                counters["gpusim.alloc.n"] += 1
                counters["gpusim.alloc.hits"] += self_.stats.pool_hits - before
                return result

            return wrapper

        for cls in (alloc.CachingAllocator, alloc.DirectAllocator):
            self._patch(cls, "alloc", alloc_hits)
        self.count(clock.SimClock, "advance", "gpusim.clock.advance.n")
        self.wrap(launch.Launcher, "launch", "gpusim.launch")
        # functions: the evaluator entry points the engines call, and the
        # fused path's stacked in-place evaluators.
        for cls in (
            schema.BuiltinEvaluation,
            schema.ElementwiseEvaluation,
            schema.ParticleEvaluation,
        ):
            self.wrap(cls, "evaluate", "functions.eval")

        def traced_inplace(make_fn):
            @functools.wraps(make_fn)
            def wrapper(*args, **kwargs):
                fn = make_fn(*args, **kwargs)
                return None if fn is None else self._span_wrapper(fn, "functions.eval")

            return wrapper

        self._patch(fused, "make_inplace_evaluator", traced_inplace)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------
    def write_chrome_trace(self, path, metadata: dict) -> None:
        """Write the spans and counters as Chrome trace-event JSON."""
        events = []
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            args = {"id": index, "parent": parent}
            if job is not None:
                args["job"] = job
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": start / 1000,
                    "dur": (end - start) / 1000,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        for ts, values in self.counter_events:
            for name, value in values.items():
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": ts / 1000,
                        "pid": 1,
                        "tid": 1,
                        "args": {"value": value},
                    }
                )
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {**metadata, "misnested": self.misnested},
                },
                fh,
            )


def _ns(us: float) -> int:
    return round(us * 1000)


def layer_metrics(doc: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from a trace written by :class:`Tracer`.

    Returns ``(metrics, problems)``: *metrics* maps every ``PER_LAYER``
    name to its value per traced pass (the journal, fsync and checkpoint
    metrics: per journaled drill), except the few the caller fills in
    (``trace.overhead`` and the ``serve.*`` values that are not spans);
    *problems* lists nesting or reconciliation failures (empty when the
    trace is sound).

    A span's self time is its duration minus the union of its children's
    intervals.  The reconciliation compares the layer self times plus
    ``trace.unattributed_s`` (the ``bench.pass`` spans' own self time)
    with the pass times the benchmark measured itself, outside the trace
    (``otherData.pass_wall_s``); overlapping or double-counted spans make
    the two differ.
    """
    spans = {}
    children = defaultdict(list)
    for event in doc["traceEvents"]:
        if event["ph"] != "X":
            continue
        args = event["args"]
        start = _ns(event["ts"])
        spans[args["id"]] = (event["name"], start, start + _ns(event["dur"]), args["parent"])
        children[args["parent"]].append(args["id"])

    problems = []
    if doc["otherData"].get("misnested"):
        problems.append(f"{doc['otherData']['misnested']} span(s) closed out of order")
    self_ns: dict[int, int] = {}
    for index, (name, start, end, parent) in spans.items():
        kids = sorted(children.get(index, ()), key=lambda k: spans[k][1])
        covered = 0
        last_end = start
        for k in kids:
            k_start, k_end = spans[k][1], spans[k][2]
            if k_start < last_end or k_end > end:
                problems.append(f"span {k} ({spans[k][0]}) does not nest in {index} ({name})")
            # Union of the child intervals: the part of this child not
            # already covered by an earlier one.
            covered += max(0, k_end - max(k_start, last_end))
            last_end = max(last_end, k_end)
        self_ns[index] = end - start - covered

    def subtree(root_name: str) -> tuple[list[int], set[int]]:
        roots = [i for i, s in spans.items() if s[0] == root_name]
        members: set[int] = set()
        todo = list(roots)
        while todo:
            index = todo.pop()
            members.add(index)
            todo.extend(children.get(index, ()))
        return roots, members

    def tally(members) -> tuple[dict, Counter]:
        busy, count = defaultdict(int), Counter()
        for index in members:
            name, start, end, _ = spans[index]
            busy[name] += end - start
            count[name] += 1
        return busy, count

    passes, in_pass = subtree("bench.pass")
    n_passes = max(1, len(passes))
    busy, count = tally(in_pass)
    # The journaled drill (one per traced run, outside the passes) is where
    # the journal, fsync and checkpoint layers do their work.
    _, in_drill = subtree("bench.durable")
    d_busy, d_count = tally(in_drill)
    layer_self = defaultdict(int)
    fused_self = 0
    for index in in_pass:
        name = spans[index][0]
        layer = name.split(".", 1)[0]
        if layer != "bench":
            layer_self[layer] += self_ns[index]
        if name == "batch.fused.execute":
            fused_self += self_ns[index]

    unattributed_ns = sum(self_ns[i] for i in passes)
    unknown = set(layer_self) - set(LAYERS)
    if unknown:
        problems.append(f"spans outside the known layers: {sorted(unknown)}")
    measured = doc["otherData"]["pass_wall_s"]
    wall_s = sum(measured) / n_passes
    attributed_s = (sum(layer_self.values()) + unattributed_ns) / 1e9 / n_passes
    # The pass timer and the pass span read the clock a few hundred
    # nanoseconds apart; anything beyond that is a fault in the trace.
    if len(measured) != len(passes) or abs(attributed_s - wall_s) > max(
        5e-5, 1e-4 * wall_s
    ):
        problems.append(
            f"layer self times plus unattributed time ({attributed_s:.6f} s) "
            f"do not add up to the measured traced pass time ({wall_s:.6f} s)"
        )

    counters = Counter()
    for event in doc["traceEvents"]:
        if event["ph"] == "C":
            counters[event["name"]] += event["args"]["value"]

    def per_pass_s(ns: int) -> float:
        return ns / 1e9 / n_passes

    def per_pass_n(n: int) -> float:
        return n / n_passes

    recover = sorted(
        s[2] - s[1] for s in spans.values() if s[0] == "serve.recover"
    )
    native_s = per_pass_s(busy["graph.native"])
    step_s = per_pass_s(busy["fastpath.step"])
    allocs = counters["gpusim.alloc.n"]
    metrics = {
        "serve.submit.n": per_pass_n(count["serve.submit"]),
        "serve.submit.s": per_pass_s(busy["serve.submit"]),
        "serve.journal.append.n": d_count["serve.journal.append"],
        "serve.journal.append.s": d_busy["serve.journal.append"] / 1e9,
        "serve.recover.s": recover[len(recover) // 2] / 1e9 if recover else 0.0,
        "io.fsync.n": d_count["io.fsync"],
        "io.fsync.s": d_busy["io.fsync"] / 1e9,
        "io.atomic_write.n": d_count["io.atomic_write"],
        "reliability.checkpoint.save.n": d_count["reliability.checkpoint.save"],
        "reliability.checkpoint.save.s": d_busy["reliability.checkpoint.save"] / 1e9,
        "dispatch.start.n": per_pass_n(count["dispatch.start"]),
        "dispatch.start.s": per_pass_s(busy["dispatch.start"]),
        "engine.start_run.n": per_pass_n(count["engine.start_run"]),
        "engine.start_run.s": per_pass_s(busy["engine.start_run"]),
        "engine.finish.s": per_pass_s(busy["engine.finish"]),
        "graph.native.active": per_pass_n(counters["graph.native.active"]),
        "fastpath.step.n": per_pass_n(count["fastpath.step"]),
        "fastpath.step.s": step_s,
        "fastpath.c_share": step_s / native_s if native_s else 0.0,
        "fastpath.verify.s": per_pass_s(busy["fastpath.verify"]),
        "graph.native.overhead_s": native_s - step_s,
        "batch.run.s": per_pass_s(busy["batch.run"]),
        "batch.fused.execute.self_s": per_pass_s(fused_self),
        "batch.fused.rounds": per_pass_n(counters["batch.fused.rounds"]),
        "functions.eval.n": per_pass_n(count["functions.eval"]),
        "functions.eval.s": per_pass_s(busy["functions.eval"]),
        "gpusim.clock.advance.n": per_pass_n(counters["gpusim.clock.advance.n"]),
        "gpusim.alloc.n": per_pass_n(allocs),
        "gpusim.alloc.hit_rate": counters["gpusim.alloc.hits"] / allocs if allocs else 0.0,
        "gpusim.launch.n": per_pass_n(count["gpusim.launch"]),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": per_pass_s(unattributed_ns),
    }
    for tier in ("ramp", "native", "replay", "eager"):
        metrics[f"graph.{tier}.n"] = per_pass_n(count[f"graph.{tier}"])
        metrics[f"graph.{tier}.s"] = per_pass_s(busy[f"graph.{tier}"])
    metrics["graph.ramp.share"] = metrics["graph.ramp.s"] / wall_s if wall_s else 0.0
    metrics["graph.native.share"] = native_s / wall_s if wall_s else 0.0
    for reason in DEMOTION_REASONS + ("other",):
        name = f"graph.demotions.{reason}"
        metrics[name] = per_pass_n(counters[name])
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = per_pass_s(layer_self[layer])
    return metrics, problems
