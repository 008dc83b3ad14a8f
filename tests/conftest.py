"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.config import BenchScale
from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.gpusim.context import make_context
from repro.gpusim.device import tesla_v100


@pytest.fixture
def v100():
    return tesla_v100()


@pytest.fixture
def ctx():
    """A fresh simulated V100 context with the caching allocator."""
    return make_context()


@pytest.fixture
def ctx_direct():
    """A context using the direct (cudaMalloc-style) allocator."""
    return make_context(caching=False)


@pytest.fixture
def sphere10():
    return Problem.from_benchmark("sphere", 10)


@pytest.fixture
def griewank8():
    return Problem.from_benchmark("griewank", 8)


@pytest.fixture
def small_params():
    return PSOParams(seed=7)


@pytest.fixture(scope="session")
def tiny_scale():
    """A miniature BenchScale so experiment drivers run in milliseconds."""
    # Timing shapes stay large enough that GPU engines amortise launch
    # overhead (the paper-shape assertions hold); error shapes stay tiny.
    return BenchScale(
        name="tiny",
        timing_particles=2000,
        timing_dim=64,
        timing_iters=40,
        sample_iters=2,
        error_particles=48,
        error_dim=12,
        error_iters=40,
        particle_sweep=(32, 64),
        dim_sweep=(8, 16),
        sweep_fixed_dim=8,
        sweep_fixed_particles=32,
        tune_particles=24,
        tune_iters=6,
    )


@pytest.fixture
def fresh_plan_cache():
    """An empty process-level launch-plan cache for the test, and after it.

    Tests that pin a run's ramp (``captured_at``, ``replays``, the one
    shadow verification on validate) need the run to miss the cache,
    whatever ran before them.
    """
    from repro.gpusim.graph import clear_plan_cache

    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def rng_np():
    return np.random.default_rng(1234)
