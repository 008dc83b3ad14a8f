"""Fleet-level failover: the 32-job fault drill from the ISSUE acceptance.

A mixed 32-job batch under ``FaultPlan.drill`` (two launch failures, a
device loss, an OOM, a stall and a corruption spread over the fleet) must
complete with every job succeeded under the default retry policy, produce
results bit-identical to the fault-free batch, and surface the recovery
overhead in the scheduler's summary and fleet profile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchScheduler, mixed_workload
from repro.reliability import FaultPlan, RetryPolicy


@pytest.fixture(scope="module")
def drill_batches(tmp_path_factory):
    jobs = mixed_workload(32, base_seed=7)
    clean = BatchScheduler(n_devices=2, streams_per_device=4).run(jobs)
    drilled = BatchScheduler(
        n_devices=2,
        streams_per_device=4,
        retry=RetryPolicy(),
        faults=FaultPlan.drill(32, seed=7),
        checkpoint_dir=tmp_path_factory.mktemp("drill-ckpts"),
        checkpoint_every=5,
    ).run(jobs)
    return clean, drilled


class TestFaultDrill:
    def test_all_jobs_succeed_under_default_retry(self, drill_batches):
        _, drilled = drill_batches
        assert drilled.all_succeeded
        assert drilled.n_failed == 0
        assert drilled.failure_table() == ""

    def test_the_required_faults_actually_fired(self, drill_batches):
        _, drilled = drill_batches
        # Jobs that needed retries are visible in the outcomes; the drill
        # spreads 2 launch failures, 1 device loss, 1 OOM (plus a stall and
        # a corruption, which may or may not force a retry depending on the
        # target job's engine).
        retried = [o for o in drilled.outcomes if o.attempts > 1]
        errors = " | ".join(o.error for o in retried)
        assert drilled.total_retries >= 4
        assert "launch failure" in errors
        assert "device loss" in errors

    def test_results_bit_identical_to_fault_free_batch(self, drill_batches):
        clean, drilled = drill_batches
        assert len(clean.outcomes) == len(drilled.outcomes)
        for a, b in zip(clean.outcomes, drilled.outcomes):
            assert a.job.label == b.job.label
            assert b.result is not None
            assert a.result.best_value == b.result.best_value
            assert np.array_equal(
                a.result.best_position, b.result.best_position
            )
            assert a.result.iterations == b.result.iterations
            if a.result.history is not None:
                assert list(a.result.history.gbest_values) == list(
                    b.result.history.gbest_values
                )

    def test_recovery_overhead_in_summary_and_profile(self, drill_batches):
        _, drilled = drill_batches
        assert drilled.recovery_seconds > 0.0
        assert drilled.lost_seconds >= 0.0
        assert drilled.backoff_seconds > 0.0
        assert "recovery:" in drilled.summary()
        sections = drilled.fleet_profile.sections
        assert "retry_backoff" in sections
        assert "lost_work" in sections

    def test_retries_stretch_the_lanes_not_the_numerics(self, drill_batches):
        clean, drilled = drill_batches
        # Recovery overhead occupies lane time, so the drilled batch can
        # never finish faster than the clean one.
        assert drilled.makespan_seconds >= clean.makespan_seconds
        retried = [o for o in drilled.outcomes if o.attempts > 1]
        for outcome in retried:
            assert outcome.lane_seconds > outcome.solo_seconds

    def test_to_dict_carries_the_recovery_trail(self, drill_batches):
        _, drilled = drill_batches
        payload = drilled.to_dict()
        assert payload["n_failed"] == 0
        assert payload["total_retries"] == drilled.total_retries
        assert payload["recovery_seconds"] == pytest.approx(
            drilled.recovery_seconds
        )
        retried = [j for j in payload["jobs"] if j["attempts"] > 1]
        assert retried and all(j["error"] for j in retried)


class TestExhaustedFleet:
    def test_failed_jobs_reported_not_raised(self):
        jobs = mixed_workload(8, base_seed=7)
        batch = BatchScheduler(
            streams_per_device=2,
            retry=RetryPolicy(max_attempts=1, cpu_fallback=None),
            faults=FaultPlan.drill(8, seed=7),
        ).run(jobs)
        assert not batch.all_succeeded
        assert batch.n_failed >= 1
        table = batch.failure_table()
        assert "attempts" in table and "last error" in table
        assert "FAILED" in batch.summary()
        failed = [j for j in batch.to_dict()["jobs"] if j["status"] == "failed"]
        assert failed and all(j["result"] is None for j in failed)

    def test_reliability_off_keeps_legacy_raise_behavior(self):
        """Without retry/faults/checkpoints, engine errors still propagate."""
        from repro.batch import Job
        from repro.errors import InvalidParameterError

        # One particle cannot be split over the mgpu engine's two devices.
        with pytest.raises(InvalidParameterError):
            BatchScheduler().run(
                [Job("sphere", dim=4, engine="mgpu", n_particles=1)]
            )

    def test_reliability_off_fails_only_the_out_of_memory_job(self):
        """Without any recovery or overload option a retryable device error
        ends its own job as ``failed`` and the rest of the batch completes."""
        from dataclasses import replace

        from repro.batch import Job
        from repro.gpusim.device import tesla_v100

        tiny = replace(tesla_v100(), global_mem_bytes=64 * 1024)
        jobs = [
            Job("sphere", dim=16, n_particles=32, max_iter=10, seed=1),
            Job(
                "sphere",
                dim=16,
                n_particles=256,
                max_iter=10,
                seed=2,
                engine_options={"device": tiny},
            ),
            Job("sphere", dim=16, n_particles=32, max_iter=10, seed=3),
        ]
        batch = BatchScheduler().run(jobs)
        assert [o.status for o in batch.outcomes] == [
            "completed", "failed", "completed",
        ]
        failed = batch.outcomes[1]
        assert failed.result is None and failed.attempts == 1
        assert "out of device memory" in failed.error
