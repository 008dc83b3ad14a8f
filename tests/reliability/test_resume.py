"""Bit-identical resume: the tentpole contract, property-tested.

A run interrupted at *any* checkpoint and resumed must produce exactly the
result of the uninterrupted run — gbest trajectory, final position, the
simulated clock, peak memory.  Exact float equality throughout; any drift
(RNG position, allocator pool state, stop-criterion counters, schedule
progress) shows up as a hard failure here.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parameters import PAPER_DEFAULTS
from repro.core.problem import Problem
from repro.core.stopping import StallStop
from repro.engines import make_engine
from repro.errors import CheckpointError, InvalidParameterError
from repro.gpusim import fastpath
from repro.reliability import CheckpointManager, read_snapshot, resume

# These tests pin each run's ramp (capture, validate, replay counts), so
# every run must miss the process-level plan cache.
pytestmark = pytest.mark.usefixtures("fresh_plan_cache")

ENGINES = ["fastpso", "fastpso-seq"]


def interrupted_then_resumed(engine_name, tmp_path, *, k, iters=16, seed=42):
    """Checkpoint every iteration, 'crash' after k, resume from disk."""
    params = replace(PAPER_DEFAULTS, seed=seed)
    problem = Problem.from_benchmark("sphere", 6)
    manager = CheckpointManager(tmp_path, every=1, keep=iters)

    crashed = {}

    def crash_after(t, state):
        if t + 1 == k:
            crashed["at"] = t
            return True  # stop the run right after iteration k's checkpoint
        return False

    make_engine(engine_name).optimize(
        problem,
        n_particles=32,
        max_iter=iters,
        params=params,
        record_history=True,
        callback=crash_after,
        checkpoint=manager,
    )
    # The callback stops the run *before* iteration k's own checkpoint is
    # written (a stopping iteration never checkpoints), so the newest file
    # on disk is k-1 ... unless k-1 < 1. Resume from whatever is newest —
    # exactly what a real crash recovery does.
    snap_path = manager.latest_path()
    assert snap_path is not None
    return resume(snap_path)


class TestBitIdenticalResume:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(k=st.integers(min_value=2, max_value=15))
    def test_any_interruption_point(
        self, engine_name, k, tmp_path_factory, run_clean, assert_bit_identical
    ):
        tmp_path = tmp_path_factory.mktemp(f"resume-{engine_name}-{k}")
        golden = run_clean(
            engine_name,
            Problem.from_benchmark("sphere", 6),
            replace(PAPER_DEFAULTS, seed=42),
            n=32,
            iters=16,
        )
        resumed = interrupted_then_resumed(engine_name, tmp_path, k=k)
        assert_bit_identical(resumed, golden)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_every_retained_checkpoint_resumes_identically(
        self, engine_name, tmp_path, run_clean, assert_bit_identical
    ):
        """Exhaustive sweep: every snapshot of one run is a valid resume point."""
        params = replace(PAPER_DEFAULTS, seed=7)
        problem = Problem.from_benchmark("griewank", 5)
        golden = run_clean(engine_name, problem, params, n=24, iters=12)
        manager = CheckpointManager(tmp_path, every=1, keep=12)
        checkpointed = make_engine(engine_name).optimize(
            problem,
            n_particles=24,
            max_iter=12,
            params=params,
            record_history=True,
            checkpoint=manager,
        )
        assert_bit_identical(checkpointed, golden)  # checkpointing is free
        files = manager.checkpoints()
        assert len(files) == 11  # iterations 1..11; 12 is the complete run
        for path in files:
            assert_bit_identical(resume(path), golden)

    def test_resume_from_directory_picks_newest(
        self, tmp_path, run_clean, assert_bit_identical
    ):
        golden = run_clean(
            "fastpso",
            Problem.from_benchmark("sphere", 6),
            replace(PAPER_DEFAULTS, seed=42),
            n=32,
            iters=16,
        )
        interrupted_then_resumed("fastpso", tmp_path, k=9)
        assert_bit_identical(resume(tmp_path), golden)

    def test_resume_skips_corrupt_newest_in_directory(
        self, tmp_path, run_clean, assert_bit_identical
    ):
        golden = run_clean(
            "fastpso",
            Problem.from_benchmark("sphere", 6),
            replace(PAPER_DEFAULTS, seed=42),
            n=32,
            iters=16,
        )
        interrupted_then_resumed("fastpso", tmp_path, k=9)
        newest = sorted(tmp_path.glob("*.ckpt"))[-1]
        newest.write_bytes(b"torn write simulation")
        assert_bit_identical(resume(tmp_path), golden)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no readable checkpoint"):
            resume(tmp_path)


class TestVariantConfigResume:
    """Checkpoint/resume parity for the non-default engine configurations.

    ``fuse_update=True`` and ``half_storage=True`` change the kernel table
    and storage dtype, so their resumed runs exercise different replay
    plans and allocator shapes than the pinned default config.
    """

    @pytest.mark.parametrize("engine_name", ["fastpso-fused", "fastpso-fp16"])
    @pytest.mark.parametrize("k", [3, 9])
    def test_variant_resume_bit_identical(
        self, engine_name, k, tmp_path, run_clean, assert_bit_identical
    ):
        golden = run_clean(
            engine_name,
            Problem.from_benchmark("sphere", 6),
            replace(PAPER_DEFAULTS, seed=42),
            n=32,
            iters=16,
        )
        resumed = interrupted_then_resumed(engine_name, tmp_path, k=k)
        assert_bit_identical(resumed, golden)


class TestGraphRecaptureOnRestore:
    def test_restored_run_recaptures_graph(
        self, tmp_path, run_clean, assert_bit_identical
    ):
        """A mid-run restore must re-capture the launch graph, not reuse
        bindings from the pre-interruption run."""
        params = replace(PAPER_DEFAULTS, seed=42)
        problem = Problem.from_benchmark("sphere", 6)
        golden = run_clean("fastpso", problem, params, n=32, iters=16)
        resumed = interrupted_then_resumed("fastpso", tmp_path, k=9)
        assert_bit_identical(resumed, golden)

        # Drive the restore explicitly to inspect the runner lifecycle.
        snap = read_snapshot(
            CheckpointManager(tmp_path, every=1, keep=16).latest_path()
        )
        engine = make_engine("fastpso")
        result = engine.optimize(
            problem,
            n_particles=32,
            max_iter=16,
            params=params,
            record_history=True,
            restore=snap,
        )
        info = engine.graph_info
        # Warm-up at the restored iteration, capture on the next one: the
        # graph is built from post-restore state, never carried over.
        assert info["captured_at"] == snap.iteration + 1
        if fastpath.available():
            assert info["mode"] == "graph"
            assert info["replays"] == 16 - snap.iteration - 3
        else:
            # Demoted to eager on the validate iteration.
            assert info["mode"] == "eager"
            assert info["replays"] == 0
        assert_bit_identical(result, golden)


class TestStopCriterionState:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_stall_counters_survive_resume(self, engine_name, tmp_path):
        """A StallStop's patience window must not reset at the resume point."""
        params = replace(PAPER_DEFAULTS, seed=11)
        problem = Problem.from_benchmark("sphere", 4)
        stop = StallStop(patience=3, min_delta=1e30)  # stalls immediately
        golden = make_engine(engine_name).optimize(
            problem, n_particles=16, max_iter=50, params=params, stop=stop
        )
        assert golden.iterations < 50  # the stop actually fired

        manager = CheckpointManager(tmp_path, every=1, keep=50)
        stop2 = StallStop(patience=3, min_delta=1e30)
        make_engine(engine_name).optimize(
            problem,
            n_particles=16,
            max_iter=50,
            params=params,
            stop=stop2,
            checkpoint=manager,
        )
        snap = read_snapshot(manager.checkpoints()[0])
        resumed = resume(manager.checkpoints()[0])
        assert snap.stop_state is not None
        assert resumed.iterations == golden.iterations
        assert resumed.best_value == golden.best_value

    def test_resume_requires_matching_stop_spec(self, tmp_path):
        params = replace(PAPER_DEFAULTS, seed=11)
        problem = Problem.from_benchmark("sphere", 4)
        manager = CheckpointManager(tmp_path, every=2, keep=5)
        make_engine("fastpso").optimize(
            problem,
            n_particles=16,
            max_iter=10,
            params=params,
            stop=StallStop(patience=5, min_delta=0.0),
            checkpoint=manager,
        )
        snap = read_snapshot(manager.latest_path())
        engine = make_engine("fastpso")
        with pytest.raises(CheckpointError, match="make_stop"):
            engine.optimize(
                problem,
                n_particles=16,
                max_iter=10,
                params=params,
                stop=StallStop(patience=9, min_delta=0.0),  # different spec
                restore=snap,
            )


class TestResumeValidation:
    @pytest.fixture
    def snap_path(self, tmp_path):
        params = replace(PAPER_DEFAULTS, seed=5)
        manager = CheckpointManager(tmp_path, every=2, keep=5)
        make_engine("fastpso").optimize(
            Problem.from_benchmark("sphere", 6),
            n_particles=32,
            max_iter=10,
            params=params,
            checkpoint=manager,
        )
        return manager.latest_path()

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"n_particles": 16}, "32 particles"),
            ({"max_iter": 99}, "budget is 10"),
            ({"record_history": True}, "record_history"),
        ],
    )
    def test_shape_mismatches_rejected(self, snap_path, override, message):
        snap = read_snapshot(snap_path)
        kwargs = dict(
            n_particles=snap.n_particles,
            max_iter=snap.max_iter,
            params=snap.make_params(),
            record_history=False,
        )
        kwargs.update(override)
        with pytest.raises(CheckpointError, match=message):
            make_engine("fastpso").optimize(
                snap.make_problem(), restore=snap, **kwargs
            )

    def test_params_mismatch_rejected(self, snap_path):
        snap = read_snapshot(snap_path)
        with pytest.raises(CheckpointError, match="make_params"):
            make_engine("fastpso").optimize(
                snap.make_problem(),
                n_particles=snap.n_particles,
                max_iter=snap.max_iter,
                params=replace(snap.make_params(), seed=999),
                restore=snap,
            )

    def test_cross_engine_resume_is_allowed_and_identical(
        self, snap_path, run_clean, assert_bit_identical
    ):
        """fastpso <-> fastpso-seq share numerics, so resume crosses engines.

        This is the mechanism behind CPU failover: a GPU run's checkpoint
        restored into the sequential engine continues the same trajectory.
        """
        gpu = resume(snap_path)
        cpu = resume(snap_path, engine="fastpso-seq")
        assert cpu.best_value == gpu.best_value
        assert list(cpu.best_position) == list(gpu.best_position)
        assert cpu.iterations == gpu.iterations

    def test_multi_gpu_engine_rejects_checkpointing(self, tmp_path):
        engine = make_engine("mgpu", n_devices=2)
        with pytest.raises(InvalidParameterError, match="multi-GPU"):
            engine.optimize(
                Problem.from_benchmark("sphere", 4),
                n_particles=8,
                max_iter=4,
                checkpoint=CheckpointManager(tmp_path),
            )

    def test_facade_minimize_and_resume(self, tmp_path, assert_bit_identical):
        from repro import FastPSO

        golden = FastPSO(n_particles=32, seed=42).minimize(
            "sphere", dim=6, max_iter=16, record_history=True
        )
        manager = CheckpointManager(tmp_path, every=1, keep=16)
        checkpointed = FastPSO(n_particles=32, seed=42).minimize(
            "sphere", dim=6, max_iter=16, record_history=True,
            checkpoint=manager,
        )
        assert_bit_identical(checkpointed, golden)
        assert_bit_identical(FastPSO.resume(tmp_path), golden)
