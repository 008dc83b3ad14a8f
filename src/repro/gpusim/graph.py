"""Launch-graph capture: the CUDA-Graphs-style iteration fast path.

The idea is the same as CUDA Graphs in production inference stacks: a PSO
iteration launches the same kernels with the same geometry every time, so
after observing one steady-state iteration the host can run the whole
iteration as one fixed step — no kernel dict lookups, no spec hashing, no
config resolution, no per-launch profiler updates.  Here that step is the
native tier (:mod:`repro.gpusim.fastpath`): one C call per iteration plus
one pass over the captured clock charges.

The lifecycle, driven by :class:`IterationRunner`, has two execution
tiers::

    warmup -+-------------------------------> native   (plan-cache hit)
            +-> capture -> validate -+-> native   (verified C step)
                                     +-> eager    (every demotion)

``warmup``
    The first iteration runs eagerly.  It differs from the steady state
    (allocator pool misses, cold launch caches) and is never captured.  A
    run with a plan-cache key (below) traces it: equal to the stored
    plan's warmup record, the run goes native from the next iteration.
``capture``
    The second iteration runs eagerly with the clock trace and the
    launcher's capture sink attached, recording every clock charge
    ``(section, seconds, dynamic)``, every launch ``(kernel, section,
    n_elems, config, cost)``, the RNG block consumption and the allocator
    statistics delta.
``validate``
    The third iteration runs eagerly, traced again.  If its charges and
    launches don't match the capture (outside slots marked *dynamic*, e.g.
    the pbest-copy charge sized by the improved count), the iteration shape
    is data-dependent and the run falls back to eager — by design, not as
    an error.  Promotion happens on this same iteration: the engine builds
    its native step from the capture (see ``Engine._graph_build_native``)
    and runs the traced eager iteration as the trusted reference inside
    :func:`repro.gpusim.fastpath.verify_step`, the C step shadowed on
    copies; every output buffer and the allocator delta must match bitwise.
``native``
    Every further iteration is one C call plus one pass over the captured
    charges (see :func:`repro.gpusim.fastpath.build_native`).
    ``info["native"]`` records ``"active"`` or the demotion reason;
    ``info["replays"]`` counts these iterations.
``eager``
    Every demotion lands here: a run the native tier refuses (an
    unsupported shape, no compiler, ``REPRO_NO_NATIVE_FASTPATH=1``, a
    shadow mismatch), a data-dependent iteration shape, or a run a host
    hands over with :meth:`IterationRunner.demote`.  The iterations already
    run were eager too, so a demoted run is exactly a ``graph=False`` run.

The plan cache is the launch-graph analogue of the paper's pooled
allocator (§3): pay the setup once per shape, not once per run.  A run
that validate promotes stores its capture and its traced warmup in a
process-level LRU cache of :data:`PLAN_CACHE_SIZE` entries, keyed by
everything the capture depends on — the engine's graph-relevant options
(``Engine._graph_plan_key``), the swarm shape, the built-in objective's
name, dimension and bounds, and the parameters with the seed zeroed.  A
later run of that key checks its own warmup against the stored one (the
per-run verification that replaces capture and validate) and builds its
own native step from the stored capture, bound to its own buffers.  A
warmup mismatch, or a native step the run cannot build, sends it through
capture and validate as before.  A key whose validate ever sees a changed
iteration shape is poisoned and never cached again.  Custom objectives,
restored runs and runs that are eager from the start bypass the cache.
``info["plan"]`` records ``"hit"``, ``"miss"`` or ``"bypass:<reason>"``.

The native step is bit-identical because it performs the *same sequence of
float additions* on the clock as eager (the captured charges, in order) and
the same IEEE operations on the swarm.  Profiler statistics are aggregated
per graph — native iterations touch no
:class:`~repro.gpusim.launch.LaunchStats` until :meth:`IterationRunner.finalize`
folds ``replays x captured-cost`` into the launcher's buckets.

Runs that are eager from the start (the graph is simply not used):
``graph=False``, a stop criterion, a callback, a budget, a health guard, an
attached fault injector, ``record_launches=True`` or an engine without
graph support.  Checkpoint *capture* composes with the native tier
(snapshots read state the step keeps current); a *restored* run rebuilds
its runner from scratch, so the graph is re-captured after resume and can
never run stale bindings — and re-promotes to the native tier when
eligible.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable

__all__ = [
    "CapturedLaunch",
    "LaunchGraph",
    "IterationRunner",
    "trace_iteration",
    "PLAN_CACHE_SIZE",
    "clear_plan_cache",
]


#: One recorded launch: (kernel_name, section, n_elems, config, cost).
CapturedLaunch = tuple


@dataclass
class LaunchGraph:
    """The record of one captured steady-state iteration.

    ``trace`` is the clock charge sequence; ``launches`` the kernel launch
    sequence (empty for CPU engines, which charge the clock directly);
    ``rng_blocks`` the Philox blocks one iteration consumes;
    ``alloc_delta`` the change in the device allocator's
    :class:`~repro.gpusim.alloc.AllocatorStats` fields over the iteration
    (``None`` for engines without a device allocator).
    """

    trace: list[tuple[str | None, float, bool]] = field(default_factory=list)
    launches: list[CapturedLaunch] = field(default_factory=list)
    rng_blocks: int = 0
    alloc_delta: tuple[int, ...] | None = None

    def matches(self, other: "LaunchGraph") -> bool:
        """Same charges, launches and RNG consumption as *other*."""
        return (
            self.trace_matches(other.trace)
            and self.launches_match(other.launches)
            and self.rng_blocks == other.rng_blocks
        )

    def trace_matches(
        self, other: list[tuple[str | None, float, bool]]
    ) -> bool:
        """Exact charge-sequence match, wildcarding dynamic slots' seconds."""
        if len(other) != len(self.trace):
            return False
        for (label, seconds, dynamic), (o_label, o_seconds, o_dynamic) in zip(
            self.trace, other
        ):
            if label != o_label or dynamic != o_dynamic:
                return False
            if not dynamic and seconds != o_seconds:
                return False
        return True

    def launches_match(self, other: list[CapturedLaunch]) -> bool:
        """Same kernels, sections, sizes, geometry and cost, in order."""
        if len(other) != len(self.launches):
            return False
        for mine, theirs in zip(self.launches, other):
            name, section, n_elems, config, cost = mine
            o_name, o_section, o_elems, o_config, o_cost = theirs
            if (
                name != o_name
                or section != o_section
                or n_elems != o_elems
                or config != o_config
                or cost.seconds != o_cost.seconds
            ):
                return False
        return True

    def flush_stats(self, stats: dict, replays: int) -> None:
        """Fold *replays* executions of every captured launch into *stats*.

        One :meth:`~repro.gpusim.launch.LaunchStats.add_many` per distinct
        launch — O(graph size), not O(replays x launches).
        """
        if replays <= 0:
            return
        from repro.gpusim.launch import LaunchStats

        for name, section, n_elems, _config, cost in self.launches:
            key = (name, section)
            bucket = stats.get(key)
            if bucket is None:
                bucket = LaunchStats(kernel_name=name, section=section)
                stats[key] = bucket
            bucket.add_many(cost, n_elems, replays)


#: Verified plans kept per process; the least recently used is evicted.
PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class _Plan:
    """A verified plan: the capture that promoted a run to the native tier,
    and that run's traced warmup iteration (the per-run check on a hit)."""

    graph: LaunchGraph
    warmup: LaunchGraph


# The cache is per process, not per engine: serving and batch build a
# fresh engine for every job, and the jobs of one shape share its plan.
#: Plan key -> :class:`_Plan`, in least-recently-used order.
_plans: "OrderedDict[tuple, _Plan]" = OrderedDict()
#: Keys that saw a data-dependent iteration shape; never cached again.
_poisoned: set = set()
#: Guards every update of the two above (runs may share a process's threads).
_lock = threading.Lock()


def clear_plan_cache() -> None:
    """Forget every cached plan and poisoned key."""
    with _lock:
        _plans.clear()
        _poisoned.clear()


def _lookup(key: tuple) -> _Plan | None:
    with _lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
        return plan


def _store(key: tuple, plan: _Plan) -> None:
    with _lock:
        if key in _poisoned:
            return
        _plans[key] = plan
        _plans.move_to_end(key)
        while len(_plans) > PLAN_CACHE_SIZE:
            _plans.popitem(last=False)


def _poison(key: tuple) -> None:
    with _lock:
        _plans.pop(key, None)
        _poisoned.add(key)


def trace_iteration(engine, rng, run_body) -> LaunchGraph:
    """Run one eager iteration (*run_body*) with the clock trace and the
    launcher's capture sink attached, and return what it did."""
    clock = engine.clock
    ctx = getattr(engine, "ctx", None)
    launcher = getattr(ctx, "launcher", None)
    alloc = getattr(ctx, "allocator", None)
    captured: list = []
    if launcher is not None:
        launcher.capture = captured
    stats_before = vars(alloc.stats).copy() if alloc is not None else None
    clock.begin_trace()
    rng_before = rng.position
    try:
        run_body()
    finally:
        trace = clock.end_trace()
        if launcher is not None:
            launcher.capture = None
    return LaunchGraph(
        trace=trace,
        launches=captured,
        rng_blocks=rng.position - rng_before,
        alloc_delta=None
        if alloc is None
        else tuple(v - stats_before[k] for k, v in vars(alloc.stats).items()),
    )


class IterationRunner:
    """Drives one engine's iterations through the capture lifecycle.

    Built once per ``optimize()`` call (and per worker, for multi-GPU).
    :meth:`run_iteration` either runs the eager four-section body or the
    native step; :meth:`finalize` reconciles profiler statistics.
    The runner publishes its state on ``engine.graph_info`` for tests and
    diagnostics.
    """

    __slots__ = (
        "engine",
        "problem",
        "params",
        "state",
        "rng",
        "phase",
        "graph",
        "_native",
        "_launcher",
        "_key",
        "_warmup",
        "info",
    )

    def __init__(
        self,
        engine,
        problem,
        params,
        state,
        rng,
        *,
        eager_reason: str | None = None,
    ) -> None:
        self.engine = engine
        self.problem = problem
        self.params = params
        self.state = state
        self.rng = rng
        self.phase = "eager" if eager_reason is not None else "warmup"
        self.graph: LaunchGraph | None = None
        self._native: Callable[[], None] | None = None
        self._key: tuple | None = None
        self._warmup: LaunchGraph | None = None
        ctx = getattr(engine, "ctx", None)
        self._launcher = getattr(ctx, "launcher", None)
        self.info = {
            "mode": "eager" if eager_reason is not None else "graph",
            "eager_reason": eager_reason,
            "captured_at": None,
            "replays": 0,
            # An eager run can never reach the native tier; record the
            # demotion reason up front so fault drills and health guards
            # leave an auditable trail instead of a silent ``None``.
            "native": eager_reason,
            # Plan-cache outcome: "hit", "miss" or "bypass:<reason>".
            "plan": None if eager_reason is None else f"bypass:{eager_reason}",
        }
        engine.graph_info = self.info

    # -- the eager body ------------------------------------------------------
    def _run_eager(self) -> None:
        engine, clock = self.engine, self.engine.clock
        with clock.section("eval"):
            values = engine._evaluate(self.problem, self.state)
        with clock.section("pbest"):
            engine._update_pbest(self.state, values)
        with clock.section("gbest"):
            engine._update_gbest(self.state)
        with clock.section("swarm"):
            engine._update_swarm(self.problem, self.params, self.state, self.rng)

    # -- lifecycle -----------------------------------------------------------
    def run_iteration(self, t: int) -> None:
        phase = self.phase
        if phase == "native":
            self._native()
            self.info["replays"] += 1
            return
        if phase == "eager":
            self._run_eager()
            return
        if phase == "warmup":
            self._warmup_iteration(t)
            return
        if phase == "capture":
            self.graph = trace_iteration(self.engine, self.rng, self._run_eager)
            self.info["captured_at"] = t
            self.phase = "validate"
            return
        # phase == "validate"
        self._validate()

    def _warmup_iteration(self, t: int) -> None:
        """The warmup iteration, which also consults the plan cache.

        A run with a cache key traces its warmup.  If the key holds a plan
        whose warmup record this one equals (charges, launches, RNG
        consumption and allocator delta), the run builds its own native
        step from the cached capture and goes native from the next
        iteration: the per-run check that replaces capture and validate.
        Otherwise it continues into capture, and a validate that promotes
        it stores its plan.
        """
        key = self._plan_key(t)
        if isinstance(key, str):
            self.info["plan"] = f"bypass:{key}"
            self._run_eager()
            self.phase = "capture"
            return
        seen = trace_iteration(self.engine, self.rng, self._run_eager)
        plan = _lookup(key)
        if (
            plan is not None
            and plan.warmup.matches(seen)
            and plan.warmup.alloc_delta == seen.alloc_delta
        ):
            self.graph = plan.graph
            native = self._build_native()
            if not isinstance(native, str):
                self._promote(native[0])
                self.info["plan"] = "hit"
                return
            self.graph = None
        self.info["plan"] = "miss"
        self._key, self._warmup = key, seen
        self.phase = "capture"

    def _plan_key(self, t: int):
        """The run's plan-cache key, or the reason it bypasses the cache.

        The key holds everything the capture depends on: the engine's
        graph-relevant options (``Engine._graph_plan_key``: class, backend,
        precision, allocator kind, geometry, device spec, cost params), the
        swarm shape, the built-in objective's name, dimension and bounds, and
        the parameters with the seed zeroed.
        """
        from repro.core.schema import BuiltinEvaluation
        from repro.functions.base import is_registered

        if t != 0:
            # Only a restored run starts past iteration 0: its resume pre-warm
            # makes the warmup differ, so it takes the full ramp.
            return "restored"
        problem, state = self.problem, self.state
        evaluator = problem.evaluator
        if not (
            isinstance(evaluator, BuiltinEvaluation)
            and is_registered(evaluator.function)
        ):
            return "custom-objective"
        engine_key = self.engine._graph_plan_key()
        if engine_key is None:
            return "engine-has-no-native-plan"
        key = (
            engine_key,
            state.n_particles,
            evaluator.function.name,
            problem.dim,
            problem.lower_bounds.tobytes(),
            problem.upper_bounds.tobytes(),
            replace(self.params, seed=0),
        )
        return "poisoned" if key in _poisoned else key

    def _promote(self, step: Callable[[], None]) -> None:
        self._native = step
        self.phase = "native"
        self.info["native"] = "active"

    def _validate(self) -> None:
        """The validate iteration, which also gates native promotion.

        A native-eligible run builds its step from the capture first and
        runs this iteration's traced eager body as the trusted reference
        inside the shadow-verifying gate (see
        :func:`repro.gpusim.fastpath.verify_step`); the real trajectory is
        the eager one whichever way the verdict goes.
        """
        native = self._build_native()
        observed: list[LaunchGraph] = []

        def run_reference() -> None:
            observed.append(trace_iteration(self.engine, self.rng, self._run_eager))

        verified = False
        if isinstance(native, str):
            run_reference()
        else:
            verified = native[1](run_reference)
        (seen,) = observed
        graph = self.graph
        key, self._key, warmup, self._warmup = self._key, None, self._warmup, None
        if not graph.matches(seen):
            # Data-dependent iteration shape: stay eager for this run, and
            # never trust a cached plan for this key again.
            if key is not None:
                _poison(key)
            self.demote("iteration-shape-changed")
            return
        if verified and seen.alloc_delta == graph.alloc_delta:
            self._promote(native[0])
            if key is not None:
                _store(key, _Plan(graph, warmup))
            return
        self.demote(native if isinstance(native, str) else "parity-mismatch")

    def _build_native(self):
        """The engine's ``(step, verify)`` native pair, or why there is none.

        Every failure mode is a reason string that demotes the run to
        eager — promotion is strictly best-effort.
        """
        if os.environ.get("REPRO_NO_NATIVE_FASTPATH"):
            return "disabled-by-env"
        try:
            built = self.engine._graph_build_native(
                self.graph, self.problem, self.params, self.state, self.rng
            )
        except Exception:
            return "native-build-failed"
        return built or "engine-has-no-native-plan"

    def demote(self, reason: str) -> None:
        """Run every remaining iteration eagerly, recording *reason*.

        Also the hand-over for hosts that drive the iterations themselves
        (the fused multi-swarm ramp demotes with ``"host-managed"`` before
        the first step).  Call it before the run reaches the native tier:
        a native run's ``replays`` are reconciled from the graph this
        drops.
        """
        self.phase = "eager"
        self.graph = None
        self.info["mode"] = "eager"
        self.info["eager_reason"] = reason
        if self.info["native"] in (None, "active"):
            self.info["native"] = reason
        if self.info["plan"] is None:
            self.info["plan"] = f"bypass:{reason}"

    def finalize(self) -> None:
        """Reconcile aggregated profiling for the native iterations."""
        if (
            self.graph is not None
            and self._launcher is not None
            and self.info["replays"]
        ):
            self.graph.flush_stats(self._launcher.stats, self.info["replays"])
