"""Native iteration tier (:mod:`repro.gpusim.fastpath` / ``_fastpath.c``).

The contract under test: when a run is promoted to the native
one-C-call-per-iteration tier, every observable — trajectory, best value
and position, simulated seconds, per-step breakdown, peak memory — is
bit-identical to eager execution; and every ineligible or degraded
configuration is demoted to eager *silently* on the validate iteration,
with the reason visible on ``engine.graph_info["native"]``.  A demoted run
ran every iteration eagerly, so it matches a ``graph=False`` run exactly,
profile included.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.schedules import LinearInertia
from repro.engines import make_engine
from repro.gpusim import fastpath, native
from repro.gpusim.alloc import CachingAllocator, DirectAllocator, size_class
from repro.gpusim.fastpath import ENV_GATE
from repro.gpusim.graph import IterationRunner

#: Engines whose default configuration is native-eligible (global-memory
#: float32 storage, global topology) across both engine families.
NATIVE_ENGINES = ["fastpso", "fastpso-fused", "fastpso-seq", "fastpso-omp"]

needs_native = pytest.mark.skipif(
    not fastpath.available(),
    reason="native fast path unavailable (no C compiler or disabled)",
)


@pytest.fixture(autouse=True)
def _clear_env_gate(monkeypatch):
    """Each test controls the gate explicitly; an ambient
    ``REPRO_NO_NATIVE_FASTPATH=1`` (e.g. the CI no-native lane) would
    otherwise shadow every refusal reason with ``disabled-by-env``."""
    monkeypatch.delenv(ENV_GATE, raising=False)


@pytest.fixture
def problem():
    return Problem.from_benchmark("sphere", 10)


def run(name, problem, *, iters=20, n=64, params=None, **opts):
    engine = make_engine(name, **opts)
    result = engine.optimize(
        problem,
        n_particles=n,
        max_iter=iters,
        params=params if params is not None else PSOParams(seed=7),
        record_history=True,
    )
    return engine, result


def _pool_order(engine, n, d):
    """The weight size class's free list as allocation ranks (buffer ids
    are process-global, so two runs compare by relative order)."""
    pools = getattr(engine.ctx.allocator, "_pools", {})  # caching only
    ids = [b.buffer_id for b in pools.get(size_class(n * d * 4), [])]
    ranks = sorted(ids)
    return [ranks.index(i) for i in ids]


def _profile_rows(engine):
    return {
        name: (
            k.launches,
            k.total_seconds,
            k.total_bytes_read,
            k.total_bytes_written,
            k.total_flops,
            k.mean_occupancy,
        )
        for name, k in engine.profile_report().kernels.items()
    }


def assert_same_result(a, b):
    """Exact equality on every simulated observable of two results."""
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_position, b.best_position)
    assert a.iterations == b.iterations
    assert a.elapsed_seconds == b.elapsed_seconds
    assert a.setup_seconds == b.setup_seconds
    assert a.step_times == b.step_times
    assert a.peak_device_bytes == b.peak_device_bytes
    assert list(a.history.gbest_values) == list(b.history.gbest_values)


def assert_identical(a, b, *, n=64, d=10, exact_profile=True):
    """:func:`assert_same_result` on two ``(engine, result)`` runs, plus
    the clock's section totals, the device allocator's counters and
    weight-class free list, and the profile rows.

    Native runs fold ``replays x cost`` into the profile in one multiply,
    so against an eager run (``exact_profile=False``) the profile's float
    sums agree to rounding and its launch counts exactly."""
    (engine_a, a), (engine_b, b) = a, b
    assert_same_result(a, b)
    assert engine_a.clock.section_totals == engine_b.clock.section_totals
    if getattr(engine_a, "ctx", None) is None:
        return
    assert vars(engine_a.ctx.allocator.stats) == vars(engine_b.ctx.allocator.stats)
    assert _pool_order(engine_a, n, d) == _pool_order(engine_b, n, d)
    rows_a, rows_b = _profile_rows(engine_a), _profile_rows(engine_b)
    if exact_profile:
        assert rows_a == rows_b
    else:
        assert rows_a.keys() == rows_b.keys()
        for name, row in rows_a.items():
            assert row[0] == rows_b[name][0], name
            assert row[1:] == pytest.approx(rows_b[name][1:], rel=1e-12), name


#: Parameter variants the native step must reproduce bit-identically: the
#: static ones hoist inertia and bounds out of the step, the others
#: resolve them every iteration.
PARAM_VARIANTS = {
    "clip-positions": {"clip_positions": True},
    "no-clamp": {"velocity_clamp": None},
    "static-clamp": {"velocity_clamp": 0.5, "adaptive_velocity": False},
    "adaptive-velocity": {
        "velocity_clamp": 0.5,
        "adaptive_velocity": True,
        "final_velocity_fraction": 0.1,
    },
    "inertia-schedule": {"inertia_schedule": LinearInertia(0.9, 0.4)},
}


def assert_native_matches_eager(name, problem, monkeypatch, **kwargs):
    """Native, env-gated (demoted to eager) and ``graph=False`` runs are
    identical."""
    native_run = run(name, problem, **kwargs)
    assert native_run[0].graph_info["mode"] == "graph"
    assert native_run[0].graph_info["native"] == "active"
    assert native_run[0].graph_info["replays"] > 0
    monkeypatch.setenv(ENV_GATE, "1")
    gated_run = run(name, problem, **kwargs)
    assert gated_run[0].graph_info["mode"] == "eager"
    assert gated_run[0].graph_info["native"] == "disabled-by-env"
    assert gated_run[0].graph_info["replays"] == 0
    monkeypatch.delenv(ENV_GATE)
    eager_run = run(name, problem, graph=False, **kwargs)
    n, d = kwargs.get("n", 64), problem.dim
    assert_identical(gated_run, eager_run, n=n, d=d)
    assert_identical(native_run, eager_run, n=n, d=d, exact_profile=False)
    return native_run


@needs_native
class TestNativeTierParity:
    @pytest.mark.parametrize("name", NATIVE_ENGINES)
    def test_native_matches_replay_and_eager(self, name, problem, monkeypatch):
        assert_native_matches_eager(name, problem, monkeypatch)

    def test_lifecycle_counters(self, problem):
        engine, _ = run("fastpso", problem, iters=20)
        info = engine.graph_info
        # warmup(0) + capture(1) + validate(2), which also shadow-verifies
        # and promotes; the remaining 17 iterations run natively.
        assert info["captured_at"] == 1
        assert info["replays"] == 17
        assert info["native"] == "active"
        assert info["eager_reason"] is None

    def test_odd_tail_shapes(self, monkeypatch):
        """n*d not divisible by 4 exercises the partial final Philox block
        and the SIMD remainder loops."""
        assert_native_matches_eager(
            "fastpso", Problem.from_benchmark("sphere", 7), monkeypatch, n=13
        )

    @pytest.mark.parametrize(
        "overrides", PARAM_VARIANTS.values(), ids=PARAM_VARIANTS.keys()
    )
    def test_parameter_variants(self, problem, overrides, monkeypatch):
        params = replace(PAPER_DEFAULTS, seed=7, **overrides)
        assert_native_matches_eager(
            "fastpso", problem, monkeypatch, params=params
        )

    @pytest.mark.parametrize("name", NATIVE_ENGINES[1:])
    @pytest.mark.parametrize(
        "overrides", PARAM_VARIANTS.values(), ids=PARAM_VARIANTS.keys()
    )
    def test_parameter_variants_across_engines(
        self, name, problem, overrides, monkeypatch
    ):
        params = replace(PAPER_DEFAULTS, seed=7, **overrides)
        assert_native_matches_eager(name, problem, monkeypatch, params=params)

    def test_fold_fallback_on_caching_allocator(self, problem, monkeypatch):
        """With the fold refused on every step, the native step's real
        pool-hit alloc/free calls land in their captured slots."""
        monkeypatch.setattr(CachingAllocator, "fold_hits", lambda *args: False)
        native_run = assert_native_matches_eager("fastpso", problem, monkeypatch)
        assert native_run[0].graph_info["replays"] == 17

    def test_direct_allocator_charges_every_iteration(self, problem, monkeypatch):
        """Table 4's "w/ reallocation" engine: no pool to fold, so the native
        step falls back to real malloc/free calls on every iteration."""
        engine, _ = assert_native_matches_eager(
            "fastpso-nocache", problem, monkeypatch
        )
        stats = engine.ctx.allocator.stats
        assert isinstance(engine.ctx.allocator, DirectAllocator)
        assert engine.graph_info["replays"] == 17
        # 5 persistent swarm buffers plus 2 weight buffers per iteration.
        assert stats.allocs == stats.frees == 5 + 2 * 20
        assert stats.pool_hits == 0

    def test_self_test_known_answer(self):
        lib = fastpath.load()
        assert lib is not None
        # load() already gates on this; assert it directly for a clear
        # failure if the C numerics ever drift from the reference.
        assert fastpath._self_test(lib)


def assert_demoted(engine, reason):
    """The run was captured, refused on validate and finished eagerly."""
    info = engine.graph_info
    assert info["captured_at"] == 1
    assert info["mode"] == "eager"
    assert info["eager_reason"] == reason
    assert info["native"] == reason
    assert info["replays"] == 0


class TestIneligibleConfigurations:
    """Shapes the native tier refuses are demoted to eager with the refusal
    reason recorded — and match a ``graph=False`` run exactly."""

    def test_fp16_storage_refused(self, problem):
        graph_run = run("fastpso-fp16", problem)
        assert_demoted(graph_run[0], "native-unsupported-storage-dtype")
        eager_run = run("fastpso-fp16", problem, graph=False)
        assert_identical(graph_run, eager_run)

    def test_non_global_backend_refused(self, problem):
        graph_run = run("fastpso-shared", problem)
        assert_demoted(graph_run[0], "native-unsupported-backend:shared")
        eager_run = run("fastpso-shared", problem, graph=False)
        assert_identical(graph_run, eager_run)

    def test_ring_topology_refused(self, problem):
        params = replace(PAPER_DEFAULTS, seed=7, topology="ring")
        graph_run = run("fastpso", problem, params=params)
        assert_demoted(graph_run[0], "native-unsupported-topology:ring")
        eager_run = run("fastpso", problem, params=params, graph=False)
        assert_identical(graph_run, eager_run)

    def test_eager_runs_never_consider_native(self, problem):
        from repro.reliability.faults import FaultInjector, FaultSpec

        engine = make_engine("fastpso")
        engine.attach_fault_injector(
            FaultInjector([FaultSpec("stall", after=3, stall_seconds=1e-4)])
        )
        engine.optimize(
            problem, n_particles=32, max_iter=10, params=PSOParams(seed=7)
        )
        assert engine.graph_info["mode"] == "eager"
        assert engine.graph_info["eager_reason"] == "fault-injector"
        # The demotion reason is recorded on the native slot too — an
        # eager run can never reach the native tier, and the drill audit
        # trail should say why rather than show a silent None.
        assert engine.graph_info["native"] == "fault-injector"
        assert engine.graph_info["replays"] == 0


class TestFallbacks:
    def test_env_gate_disables_without_compiler_dependence(
        self, problem, monkeypatch
    ):
        # The env gate is honored before any build attempt, so this holds
        # on machines with and without a compiler.
        monkeypatch.setenv(ENV_GATE, "1")
        engine, _ = run("fastpso", problem)
        assert_demoted(engine, "disabled-by-env")
        assert fastpath.load() is None

    def test_no_compiler_falls_back_silently(
        self, problem, monkeypatch, tmp_path
    ):
        # Point the loader at an empty cache dir too: a previously compiled
        # .so would otherwise load fine without a compiler (by design).
        monkeypatch.setattr(native, "compiler_path", lambda: None)
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        fastpath._MODULE.invalidate()
        try:
            graph_run = run("fastpso", problem)
            assert_demoted(graph_run[0], "native-unavailable")
        finally:
            monkeypatch.undo()
            fastpath._MODULE.invalidate()
        eager_run = run("fastpso", problem, graph=False)
        assert_identical(graph_run, eager_run)

    @needs_native
    def test_verify_mismatch_demotes_to_eager(self, problem, monkeypatch):
        """The gate runs once, on the validate iteration itself (before any
        native step).  A failed gate demotes the run to eager with an
        unchanged trajectory — the gate runs the real iteration through the
        trusted path whichever way the verdict goes."""
        calls = []

        def always_mismatch(plan, run_reference, eval_fn, engine, *args):
            calls.append(
                (engine.graph_info["captured_at"], engine.graph_info["replays"])
            )
            run_reference()
            return False

        monkeypatch.setattr(fastpath, "verify_step", always_mismatch)
        mismatch_run = run("fastpso", problem, iters=20)
        assert calls == [(1, 0)]
        assert_demoted(mismatch_run[0], "parity-mismatch")
        monkeypatch.undo()
        native_run = run("fastpso", problem, iters=20)
        assert_identical(mismatch_run, native_run, exact_profile=False)
        eager_run = run("fastpso", problem, iters=20, graph=False)
        assert_identical(mismatch_run, eager_run)

    def test_host_managed_pin_skips_promotion(self, problem, monkeypatch):
        """Hosts that drive the iterations themselves (the fused
        multi-swarm ramp) hand the runner to eager with
        :meth:`IterationRunner.demote` before the first step; the run never
        captures or installs the native step."""
        orig = IterationRunner.__init__

        def handed_over(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            self.demote("host-managed")

        monkeypatch.setattr(IterationRunner, "__init__", handed_over)
        pinned_run = run("fastpso", problem, iters=20)
        info = pinned_run[0].graph_info
        assert info["mode"] == "eager"
        assert info["eager_reason"] == info["native"] == "host-managed"
        assert info["captured_at"] is None
        assert info["replays"] == 0
        monkeypatch.undo()
        eager_run = run("fastpso", problem, iters=20, graph=False)
        assert_identical(pinned_run, eager_run)


@needs_native
class TestCheckpointResume:
    def test_restored_run_repromotes_to_native(self, tmp_path):
        """A mid-run restore rebuilds its runner from scratch, so the graph
        re-captures *and* re-promotes — and the continuation is still
        bit-identical to the uninterrupted native run."""
        from repro.reliability import CheckpointManager, read_snapshot

        params = replace(PAPER_DEFAULTS, seed=42)
        problem = Problem.from_benchmark("sphere", 6)
        golden = make_engine("fastpso").optimize(
            problem,
            n_particles=32,
            max_iter=16,
            params=params,
            record_history=True,
        )

        manager = CheckpointManager(tmp_path, every=1, keep=16)
        make_engine("fastpso").optimize(
            problem,
            n_particles=32,
            max_iter=16,
            params=params,
            record_history=True,
            callback=lambda t, state: t + 1 == 6,  # "crash" after iter 6
            checkpoint=manager,
        )
        snap = read_snapshot(manager.latest_path())
        engine = make_engine("fastpso")
        resumed = engine.optimize(
            problem,
            n_particles=32,
            max_iter=16,
            params=params,
            record_history=True,
            restore=snap,
        )
        info = engine.graph_info
        assert info["mode"] == "graph"
        assert info["captured_at"] == snap.iteration + 1
        assert info["native"] == "active"
        assert info["replays"] > 0
        assert_same_result(resumed, golden)
