"""Fault injection × the native fastpath tier.

A fault injector makes iteration timing data-dependent (stalls, lost
devices), which the captured-graph tiers cannot replay — so an engine
that would otherwise promote to the native one-C-call tier must demote
to eager execution, *record why* on ``graph_info["native"]``, and still
produce recovery trajectories bit-identical to a run pinned to the eager
tier from the start.
"""

from __future__ import annotations

import pytest

from repro.reliability import (
    CheckpointManager,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    run_with_recovery,
)

SPECS = (FaultSpec("device_lost", after=6),)


@pytest.fixture
def run_kwargs(sphere6, seeded_params):
    return dict(
        engine_name="fastpso",
        problem=sphere6,
        n_particles=32,
        max_iter=16,
        params=seeded_params,
        record_history=True,
    )


def _recover(run_kwargs, tmp_path, tag, *, graph):
    options = {} if graph else {"graph": False}
    return run_with_recovery(
        engine_options=options,
        policy=RetryPolicy(max_attempts=3, backoff_seconds=0.5),
        injector=FaultInjector(list(SPECS)),
        checkpoint=CheckpointManager(tmp_path / tag, every=5),
        **run_kwargs,
    )


class TestNativeDemotion:
    def test_faulted_engine_demotes_with_recorded_reason(self, run_kwargs):
        report = run_with_recovery(
            policy=RetryPolicy(max_attempts=2, backoff_seconds=0.5),
            injector=FaultInjector(
                [FaultSpec("stall", after=3, stall_seconds=0.5)]
            ),
            **run_kwargs,
        )
        assert report.succeeded
        for engine in report.engines:
            info = getattr(engine, "graph_info", None)
            if info is None:  # the CPU-fallback attempt has no graph tier
                continue
            assert info["mode"] == "eager"
            assert info["eager_reason"] == "fault-injector"
            # The native slot carries the demotion reason too — never a
            # silent None when the fastpath was ruled out.
            assert info["native"] == "fault-injector"
            assert info["replays"] == 0

    def test_drill_trajectories_match_eager_tier(
        self, run_kwargs, tmp_path, assert_bit_identical
    ):
        graphed = _recover(run_kwargs, tmp_path, "graphed", graph=True)
        eager = _recover(run_kwargs, tmp_path, "eager", graph=False)
        assert graphed.succeeded and eager.succeeded
        assert graphed.attempts == eager.attempts
        assert_bit_identical(graphed.result, eager.result)
        info = graphed.engines[0].graph_info
        assert info["native"] == "fault-injector"

    def test_fault_plan_drill_is_audit_trailed(self, sphere6, seeded_params):
        # The reference drill used by the batch/serve fault lanes: every
        # targeted engine must leave the same audit trail.
        plan = FaultPlan.drill(4, seed=11)
        hit = 0
        for index in range(4):
            specs = plan.specs_for(index)
            if not specs:
                continue
            hit += 1
            report = run_with_recovery(
                engine_name="fastpso",
                problem=sphere6,
                n_particles=32,
                max_iter=12,
                params=seeded_params,
                policy=RetryPolicy(max_attempts=3, backoff_seconds=0.5),
                injector=plan.injector_for(index),
            )
            first = report.engines[0]
            assert first.graph_info["eager_reason"] == "fault-injector"
            assert first.graph_info["native"] == "fault-injector"
        assert hit > 0, "the drill must target at least one job"
