"""The process-level plan cache of :mod:`repro.gpusim.graph`.

A run whose key holds a verified plan traces its warmup, checks it against
the plan's warmup record and goes native from iteration 1 with its own
:class:`~repro.gpusim.fastpath.NativePlan` built from the cached capture.
The contract under test: a hit is bit-identical to a miss; runs that
differ in any key field never share a plan; custom objectives, restored
runs, fault injectors, launch recording and eager runs bypass the cache; a
data-dependent iteration shape poisons its key; a warmup mismatch falls
back to capture; and the cache never outgrows its cap.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import PAPER_DEFAULTS
from repro.core.problem import Problem
from repro.core.schedules import LinearInertia
from repro.core.schema import BuiltinEvaluation
from repro.core.stopping import StallStop
from repro.devices import make_device
from repro.engines import make_engine
from repro.engines.gpu_elementwise import FastPSOEngine
from repro.functions.base import make_function
from repro.functions.transforms import Shifted
from repro.gpusim import fastpath, graph
from repro.gpusim.alloc import size_class
from repro.gpusim.costmodel import GpuCostParams
from repro.gpusim.fastpath import ENV_GATE

pytestmark = [
    pytest.mark.usefixtures("fresh_plan_cache"),
    pytest.mark.skipif(
        not fastpath.available(),
        reason="native fast path unavailable (no C compiler or disabled)",
    ),
]

N, D, ITERS = 32, 8, 25


@pytest.fixture(autouse=True)
def _clear_env_gate(monkeypatch):
    monkeypatch.delenv(ENV_GATE, raising=False)


def run(name="fastpso", problem=None, *, seed=7, n=N, iters=ITERS, params=None,
        engine=None, engine_class=None, **opts):
    if engine is None:
        engine = engine_class() if engine_class else make_engine(name, **opts)
    params = replace(params if params is not None else PAPER_DEFAULTS, seed=seed)
    result = engine.optimize(
        problem if problem is not None else Problem.from_benchmark("sphere", D),
        n_particles=n,
        max_iter=iters,
        params=params,
        record_history=True,
    )
    return engine, result


def plan_of(engine):
    return engine.graph_info["plan"]


def _pool_order(engine, n, d):
    pools = getattr(engine.ctx.allocator, "_pools", {})
    ids = [b.buffer_id for b in pools.get(size_class(n * d * 4), [])]
    ranks = sorted(ids)
    return [ranks.index(i) for i in ids]


def assert_hit_equals_miss(miss, hit, n=N, d=D):
    """Every observable exact; profile float sums to rounding (a hit folds
    two more iterations into ``replays x cost``)."""
    (engine_m, m), (engine_h, h) = miss, hit
    assert plan_of(engine_m) == "miss" and plan_of(engine_h) == "hit"
    assert m.best_value == h.best_value
    np.testing.assert_array_equal(m.best_position, h.best_position)
    assert m.elapsed_seconds == h.elapsed_seconds
    assert m.setup_seconds == h.setup_seconds
    assert m.step_times == h.step_times
    assert m.peak_device_bytes == h.peak_device_bytes
    assert list(m.history.gbest_values) == list(h.history.gbest_values)
    assert engine_m.clock.section_totals == engine_h.clock.section_totals
    if getattr(engine_m, "ctx", None) is None:
        return
    assert vars(engine_m.ctx.allocator.stats) == vars(engine_h.ctx.allocator.stats)
    assert _pool_order(engine_m, n, d) == _pool_order(engine_h, n, d)
    rows_m = engine_m.profile_report().kernels
    rows_h = engine_h.profile_report().kernels
    assert rows_m.keys() == rows_h.keys()
    for name, km in rows_m.items():
        kh = rows_h[name]
        assert km.launches == kh.launches, name
        assert (
            km.total_seconds,
            km.total_bytes_read,
            km.total_bytes_written,
            km.total_flops,
            km.mean_occupancy,
        ) == pytest.approx(
            (
                kh.total_seconds,
                kh.total_bytes_read,
                kh.total_bytes_written,
                kh.total_flops,
                kh.mean_occupancy,
            ),
            rel=1e-12,
        ), name


def miss_then_hit(name="fastpso", **kwargs):
    graph.clear_plan_cache()
    miss = run(name, **kwargs)
    hit = run(name, **kwargs)
    return miss, hit


class TestHitEqualsMiss:
    @pytest.mark.parametrize("seed", range(50))
    def test_fastpso_seeds(self, seed):
        assert_hit_equals_miss(*miss_then_hit(seed=seed))

    @pytest.mark.parametrize(
        "name",
        [
            "fastpso-nocache",
            "fastpso-fused",
            "fastpso-seq",
            "fastpso-omp",
            "fastpso-mgpu",
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_engines(self, name, seed):
        assert_hit_equals_miss(*miss_then_hit(name, seed=seed))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"clip_positions": True},
            {"velocity_clamp": None},
            {"velocity_clamp": 0.5, "adaptive_velocity": False},
            {"velocity_clamp": 0.5, "final_velocity_fraction": 0.1},
            {"inertia_schedule": LinearInertia(0.9, 0.4)},
        ],
        ids=["clip", "no-clamp", "static-clamp", "adaptive", "schedule"],
    )
    def test_parameter_variants(self, overrides):
        params = replace(PAPER_DEFAULTS, **overrides)
        assert_hit_equals_miss(*miss_then_hit(params=params))

    def test_hit_skips_capture_and_validate(self, monkeypatch):
        run()
        calls = []
        monkeypatch.setattr(
            fastpath, "verify_step", lambda *args: calls.append(args) or False
        )
        engine, _ = run(seed=8)
        info = engine.graph_info
        assert info["plan"] == "hit"
        assert info["native"] == "active"
        assert info["captured_at"] is None
        assert info["replays"] == ITERS - 1
        assert calls == []

    def test_seed_is_not_part_of_the_key(self):
        run(seed=1)
        assert plan_of(run(seed=2)[0]) == "hit"


class _Subclass(FastPSOEngine):
    """Same behaviour as its parent; only the engine class differs."""


#: (first run, second run) that differ in exactly one key field.  Both runs
#: are native-eligible, so each stores a plan of its own.
KEY_FIELDS = {
    "engine-class": ({"engine_class": FastPSOEngine}, {"engine_class": _Subclass}),
    "fuse-update": ({}, {"name": "fastpso-fused"}),
    "allocator-kind": ({}, {"caching": False}),
    "threads-per-block": ({}, {"threads_per_block": 128}),
    "device-spec": ({}, {"device": make_device("a100")}),
    "cost-params": ({}, {"cost_params": GpuCostParams(dram_peak_fraction=0.3)}),
    "cpu-threads": ({"name": "fastpso-omp"}, {"name": "fastpso-omp", "threads": 4}),
    "n": ({}, {"n": N + 1}),
    "d": ({}, {"problem": Problem.from_benchmark("sphere", D + 1)}),
    # Same domain (-5.12, 5.12), different built-in.
    "problem-name": ({}, {"problem": Problem.from_benchmark("rastrigin", D)}),
    "bounds": (
        {},
        {
            "problem": Problem(
                name="sphere",
                dim=D,
                lower_bounds=np.full(D, -4.0),
                upper_bounds=np.full(D, 5.12),
                evaluator=BuiltinEvaluation(make_function("sphere")),
            )
        },
    ),
    "params": ({}, {"params": replace(PAPER_DEFAULTS, cognitive=1.5)}),
}

#: Variants the native tier refuses: they never store a plan, and must not
#: borrow the first run's.
REFUSED_FIELDS = {
    "backend": {"backend": "shared"},
    "precision": {"half_storage": True},
}


class TestKeyFields:
    @pytest.mark.parametrize("field", sorted(KEY_FIELDS))
    def test_runs_differing_in_one_field_never_share_a_plan(self, field):
        first, second = KEY_FIELDS[field]
        engine_a, _ = run(**first)
        engine_b, _ = run(**second)
        assert plan_of(engine_a) == "miss"
        assert plan_of(engine_b) == "miss", field
        assert engine_b.graph_info["native"] == "active"
        assert len(graph._plans) == 2

    @pytest.mark.parametrize("field", sorted(REFUSED_FIELDS))
    def test_refused_variant_never_borrows_a_plan(self, field):
        run()
        engine, _ = run(**REFUSED_FIELDS[field])
        assert plan_of(engine) == "miss"
        assert engine.graph_info["native"].startswith("native-unsupported")
        assert len(graph._plans) == 1


class TestBypass:
    def _assert_bypass(self, engine, reason):
        assert plan_of(engine) == f"bypass:{reason}"
        assert not graph._plans

    def test_custom_objective(self):
        problem = Problem.from_callable(
            lambda x: np.sum(x * x, axis=1), D, (-5.12, 5.12), vectorized=True
        )
        engine, _ = run(problem=problem)
        self._assert_bypass(engine, "custom-objective")
        assert engine.graph_info["native"] == "active"

    def test_wrapped_builtin_is_custom(self):
        fn = Shifted(make_function("sphere"), np.full(D, 0.5))
        engine, _ = run(problem=Problem.from_benchmark(fn, D))
        self._assert_bypass(engine, "custom-objective")

    def test_restored_run(self, tmp_path):
        from repro.reliability import CheckpointManager, read_snapshot

        manager = CheckpointManager(tmp_path, every=1, keep=4)
        make_engine("fastpso").optimize(
            Problem.from_benchmark("sphere", D),
            n_particles=N,
            max_iter=ITERS,
            params=PAPER_DEFAULTS,
            callback=lambda t, state: t + 1 == 6,
            checkpoint=manager,
        )
        engine = make_engine("fastpso")
        engine.optimize(
            Problem.from_benchmark("sphere", D),
            n_particles=N,
            max_iter=ITERS,
            params=PAPER_DEFAULTS,
            restore=read_snapshot(manager.latest_path()),
        )
        self._assert_bypass(engine, "restored")
        assert engine.graph_info["native"] == "active"

    def test_fault_injector(self):
        from repro.reliability.faults import FaultInjector, FaultSpec

        engine = make_engine("fastpso")
        engine.attach_fault_injector(
            FaultInjector([FaultSpec("stall", after=3, stall_seconds=1e-4)])
        )
        run(engine=engine)
        self._assert_bypass(engine, "fault-injector")

    def test_record_launches(self):
        engine, _ = run(record_launches=True)
        self._assert_bypass(engine, "record-launches")

    def test_eager_runs(self):
        engine, _ = run(graph=False)
        self._assert_bypass(engine, "graph=False")
        engine = make_engine("fastpso")
        engine.optimize(
            Problem.from_benchmark("sphere", D),
            n_particles=N,
            max_iter=ITERS,
            stop=StallStop(patience=50),
        )
        self._assert_bypass(engine, "stop-criterion")

    def test_host_managed_hand_over(self):
        engine = make_engine("fastpso")
        run_ = engine.start_run(
            Problem.from_benchmark("sphere", D), n_particles=N, max_iter=ITERS
        )
        run_.runner.demote("host-managed")
        for t in range(ITERS):
            run_.step(t)
        run_.finish()
        self._assert_bypass(engine, "host-managed")

    def test_bypassed_run_equals_eager(self):
        problem = Problem.from_callable(
            lambda x: np.sum(x * x, axis=1), D, (-5.12, 5.12), vectorized=True
        )
        _, bypassed = run(problem=problem)
        _, eager = run(problem=problem, graph=False)
        assert bypassed.elapsed_seconds == eager.elapsed_seconds
        assert bypassed.best_value == eager.best_value


class _ShapeShifter(FastPSOEngine):
    """Charges one extra clock slot in its gbest section at the iterations
    listed in ``extra_at`` — a data-dependent iteration shape."""

    extra_at: tuple = ()

    def _update_gbest(self, state):
        super()._update_gbest(state)
        if self._iteration in self.extra_at:
            self.clock.advance(1e-9)
        self._iteration += 1

    def _initialize(self, *args):
        self._iteration = 0
        return super()._initialize(*args)


class TestPoisoning:
    def test_shape_change_poisons_its_key(self):
        engine = _ShapeShifter()
        engine.extra_at = (2,)  # the validate iteration
        run(engine=engine)
        assert plan_of(engine) == "miss"
        assert engine.graph_info["native"] == "iteration-shape-changed"
        # A poisoned key still runs its own full ramp, and stores nothing.
        healthy = _ShapeShifter()
        run(engine=healthy)
        assert plan_of(healthy) == "bypass:poisoned"
        assert healthy.graph_info["native"] == "active"
        assert healthy.graph_info["captured_at"] == 1
        assert not graph._plans

    def test_shape_change_evicts_a_stored_plan(self):
        run(engine=_ShapeShifter())
        assert len(graph._plans) == 1
        # The extra warmup charge misses the stored plan, so this run takes
        # the ramp, and its validate sees the shape change.
        engine = _ShapeShifter()
        engine.extra_at = (0, 2)
        run(engine=engine)
        assert plan_of(engine) == "miss"
        assert engine.graph_info["native"] == "iteration-shape-changed"
        assert not graph._plans
        assert plan_of(run(engine=_ShapeShifter())[0]) == "bypass:poisoned"


class TestWarmupMismatch:
    def test_reused_engine_falls_back_to_capture(self):
        engine, _ = run()
        # A second run on the same engine starts with a warm allocator
        # pool: its warmup takes pool hits where the stored one missed.
        _, reused = run(engine=engine, seed=8)
        info = engine.graph_info
        assert info["plan"] == "miss"
        assert info["captured_at"] == 1
        assert info["native"] == "active"
        eager_engine, _ = run(graph=False)
        _, eager = run(engine=eager_engine, seed=8)
        assert reused.elapsed_seconds == eager.elapsed_seconds
        assert reused.best_value == eager.best_value

    def test_tampered_warmup_record_falls_back(self):
        run()
        (key, plan), = graph._plans.items()
        graph._plans[key] = graph._Plan(
            plan.graph, replace(plan.warmup, rng_blocks=plan.warmup.rng_blocks + 1)
        )
        engine, result = run(seed=8)
        assert plan_of(engine) == "miss"
        assert engine.graph_info["captured_at"] == 1
        _, eager = run(seed=8, graph=False)
        assert result.elapsed_seconds == eager.elapsed_seconds

    def test_env_gate_on_hit_takes_the_ramp(self, monkeypatch):
        run()
        monkeypatch.setenv(ENV_GATE, "1")
        engine, _ = run(seed=8)
        assert plan_of(engine) == "miss"
        assert engine.graph_info["native"] == "disabled-by-env"
        assert engine.graph_info["captured_at"] == 1


class TestLruCap:
    def test_cap_holds_across_many_keys(self):
        shapes = range(4, 4 + graph.PLAN_CACHE_SIZE + 5)
        for n in shapes:
            run(n=n, iters=5)
        assert len(graph._plans) == graph.PLAN_CACHE_SIZE
        assert plan_of(run(n=shapes[-1], iters=5)[0]) == "hit"
        # The oldest keys were evicted first.
        assert plan_of(run(n=shapes[0], iters=5)[0]) == "miss"
        assert len(graph._plans) == graph.PLAN_CACHE_SIZE


class TestThreads:
    def test_concurrent_runs_share_the_cache_safely(self):
        """More workers than cores, a short switch interval and more shapes
        than the cache holds: every run still equals its eager twin, and
        the cap holds."""
        import sys
        import threading

        shapes = [4 + (i % (graph.PLAN_CACHE_SIZE + 6)) for i in range(90)]
        eager = {n: run(n=n, iters=5, graph=False)[1] for n in set(shapes)}
        errors = []

        def worker(offset):
            try:
                for i, n in enumerate(shapes):
                    if i % 4 == offset:
                        _, result = run(n=n, iters=5)
                        assert result.elapsed_seconds == eager[n].elapsed_seconds
                        assert result.best_value == eager[n].best_value
            except Exception as exc:  # re-raised in the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert len(graph._plans) <= graph.PLAN_CACHE_SIZE
