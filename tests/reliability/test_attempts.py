"""One attempt state machine behind both front-ends.

:class:`~repro.reliability.retry.Attempts` decides which engine an attempt
runs on, how it starts and what a failure costs, for
:func:`~repro.reliability.retry.run_with_recovery` and for the serving
layer alike.  These tests drive the same faulted job through both and
require the same attempts, failover, recovery charges and answer, exactly.
"""

import asyncio

import numpy as np
import pytest

from repro.batch import Job
from repro.errors import LaunchFailedError
from repro.reliability import (
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    run_with_recovery,
)
from repro.reliability.retry import Attempts
from repro.serve import OptimizationService

JOB = Job("rastrigin", dim=8, n_particles=64, max_iter=40, seed=3)


def plan_of(*specs):
    return FaultPlan({0: tuple(FaultSpec(k, after=a) for k, a in specs)})


def solo(job, plan, policy, directory):
    return run_with_recovery(
        engine_name=job.engine,
        problem=job.resolved_problem(),
        n_particles=job.n_particles,
        max_iter=job.max_iter,
        params=job.resolved_params,
        policy=policy,
        injector=plan.injector_for(0, job.label),
        checkpoint=CheckpointManager(directory, every=5, keep=3),
    )


def served(job, plan, policy, directory):
    async def main():
        service = OptimizationService(
            retry=policy,
            faults=plan,
            checkpoint_dir=directory,
            checkpoint_every=5,
        )
        ticket = await service.submit(job)
        await service.drain()
        return service, ticket

    service, ticket = asyncio.run(main())
    events = [e for e in service.events if e.job_id == ticket.job_id]
    return ticket, events


@pytest.mark.parametrize(
    "specs, fell_back",
    [
        ((("launch_failure", 60),), False),
        ((("device_lost", 60),), False),
        # The OOM fails attempt 2, so attempt 3 is the CPU fallback.
        ((("launch_failure", 60), ("oom", 60)), True),
        # Fails while the run is still initialising: the lost work is what
        # the failed engine had spent before the fault.
        ((("launch_failure", 1),), False),
    ],
    ids=["launch_failure", "device_lost", "launch_failure+oom", "at_init"],
)
def test_solo_and_served_recover_identically(tmp_path, specs, fell_back):
    policy = RetryPolicy(max_attempts=3)
    report = solo(JOB, plan_of(*specs), policy, tmp_path / "solo")
    ticket, events = served(JOB, plan_of(*specs), policy, tmp_path / "serve")

    retries = [e.detail for e in events if e.kind == "retry"]
    (complete,) = [e.detail for e in events if e.kind == "complete"]
    assert report.succeeded and ticket.status == "completed"
    assert report.fell_back_to_cpu is fell_back
    assert complete.get("cpu_fallback", False) is fell_back
    assert complete["attempts"] == report.attempts == len(retries) + 1
    assert sum(r["lost_seconds"] for r in retries) == report.lost_seconds
    assert sum(r["backoff_seconds"] for r in retries) == report.backoff_seconds
    assert report.lost_seconds > 0
    assert ticket.result.best_value == report.result.best_value
    assert np.array_equal(
        ticket.result.best_position, report.result.best_position
    )


def test_incompatible_snapshot_reruns_from_scratch(tmp_path):
    # The CPU fallback cannot restore the fp16-storage checkpoint the
    # failed attempt banked, so it reruns from scratch on a fresh engine
    # instead of failing on the recovery path.
    job = JOB.with_overrides(engine="fastpso-fp16")
    plan = plan_of(("launch_failure", 60))
    policy = RetryPolicy(max_attempts=2)
    report = solo(job, plan, policy, tmp_path / "solo")
    ticket, events = served(job, plan, policy, tmp_path / "serve")

    assert report.succeeded and report.attempts == 2
    assert [e.name for e in report.engines] == [
        "fastpso-fp16", "fastpso-seq", "fastpso-seq",
    ]
    assert report.fell_back_to_cpu
    (complete,) = [e.detail for e in events if e.kind == "complete"]
    assert ticket.status == "completed"
    assert complete["attempts"] == 2
    assert complete["cpu_fallback"] is True
    assert ticket.result.best_value == report.result.best_value


class TestDecisions:
    def test_health_is_asked_only_when_it_decides(self):
        asked = []

        def healthy():
            asked.append(True)
            return False

        attempts = Attempts(RetryPolicy(max_attempts=2), "fastpso")
        assert attempts.falls_back(healthy) is True
        assert len(asked) == 1
        # Final attempt: the fallback is due whatever the placement says.
        attempts.number = 2
        assert attempts.falls_back(healthy) is True
        assert len(asked) == 1
        # No distinct fallback: nothing to decide, nothing asked.
        same = Attempts(RetryPolicy(max_attempts=2), "fastpso-seq")
        assert same.falls_back(healthy) is False
        assert len(asked) == 1

    def test_failure_costs_lost_work_then_backoff(self):
        attempts = Attempts(RetryPolicy(max_attempts=2), "fastpso")
        exc = LaunchFailedError("boom")
        assert attempts.fail(exc, 0.25) == (0.25, 1.0)
        assert attempts.number == 2
        # Budget spent: lost work is still reported, no further backoff.
        assert attempts.fail(exc, 0.5) == (0.5, None)
        assert attempts.fail(ValueError("bug"), 0.5) is None
