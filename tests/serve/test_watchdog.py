"""Watchdog leases and serve-level retry: stalls detected, attempts retried.

The lease is simulated seconds between progress marks: a run that stops
advancing (injected ``stall`` fault) trips the watchdog, is journaled as
``stalled``, and retries under the service's :class:`RetryPolicy` — with
CPU failover on the final attempt decided by the same
:class:`~repro.reliability.retry.Attempts` object ``run_with_recovery``
drives.  The drill must end with no hung lanes and, thanks
to the fastpso family's bit-identical numerics, the retried job's answer
equal to its un-faulted run.
"""

import asyncio

import pytest

from repro.batch import Job
from repro.errors import InvalidParameterError
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.retry import RetryPolicy
from repro.serve import OptimizationService
from repro.serve.journal import read_journal

JOBS = [
    Job("sphere", dim=8, n_particles=32, max_iter=25, engine="fastpso", seed=s)
    for s in range(3)
]
ARRIVALS = [0.0, 1e-5, 2e-5]

STALL_PLAN = FaultPlan(
    {1: (FaultSpec("stall", after=8, stall_seconds=5e-3),)}, seed=7
)


def drive(service):
    async def main():
        tickets = []
        for job, at in zip(JOBS, ARRIVALS):
            tickets.append(await service.submit(job, at=at))
        await service.drain()
        return tickets

    return asyncio.run(main())


def solo_best(job):
    from repro.engines import make_engine

    result = make_engine("fastpso").optimize(
        job.resolved_problem(),
        n_particles=job.n_particles,
        max_iter=job.max_iter,
        params=job.resolved_params,
    )
    return result.best_value


class TestWatchdog:
    def test_stalled_run_retries_and_completes(self, tmp_path):
        service = OptimizationService(
            n_devices=1,
            streams_per_device=2,
            journal_dir=tmp_path / "wal",
            checkpoint_every=5,
            faults=STALL_PLAN,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=1e-4),
            watchdog_seconds=1e-3,
            breaker=True,
        )
        tickets = drive(service)
        # No hung lanes: drain() returned and every ticket is terminal.
        assert all(t.finished for t in tickets)
        assert [t.status for t in tickets] == ["completed"] * 3

        kinds = [e.kind for e in service.events]
        assert "stalled" in kinds and "retry" in kinds
        stalled = next(e for e in service.events if e.kind == "stalled")
        assert stalled.job_id == 1
        assert "watchdog" in stalled.detail["error"].lower() or (
            "stall" in stalled.detail["error"].lower()
        )
        retry = next(e for e in service.events if e.kind == "retry")
        assert retry.job_id == 1
        assert retry.detail["attempt"] == 1
        assert retry.detail["backoff_seconds"] == 1e-4

        report = service.report()
        assert report.retries == 1
        assert report.stalled == 1
        assert report.to_dict()["retries"] == 1

        # Bit-identical numerics across the retry: the stalled job's
        # answer matches its never-faulted solo run.
        assert tickets[1].result.best_value == solo_best(JOBS[1])

        # The attempt is recorded durably, not just in memory.
        records, _ = read_journal(tmp_path / "wal" / "service.wal")
        journaled = [
            r["event"]["kind"] for r in records if r["type"] == "event"
        ]
        assert "stalled" in journaled and "retry" in journaled
        retry_rec = next(
            r
            for r in records
            if r["type"] == "event" and r["event"]["kind"] == "retry"
        )
        assert retry_rec["extra"]["overhead"] > 0.0
        assert retry_rec["extra"]["injector"] is not None

    def test_stall_without_retry_policy_fails_the_job(self, tmp_path):
        service = OptimizationService(
            n_devices=1,
            streams_per_device=2,
            faults=STALL_PLAN,
            watchdog_seconds=1e-3,
        )
        tickets = drive(service)
        assert [t.status for t in tickets] == [
            "completed",
            "failed",
            "completed",
        ]
        failed = next(e for e in service.events if e.kind == "failed")
        assert failed.job_id == 1
        assert "StalledRunError" in failed.detail["error"]
        kinds = [e.kind for e in service.events]
        assert "stalled" in kinds and "retry" not in kinds

    def test_watchdog_lease_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            OptimizationService(watchdog_seconds=0.0)

    def test_retry_count_shorthand_and_bool_rejection(self):
        service = OptimizationService(retry=2)
        assert service.retry.max_attempts == 2
        with pytest.raises(InvalidParameterError):
            OptimizationService(retry=True)


class TestCpuFailover:
    def test_sticky_device_fault_fails_over_to_cpu(self, tmp_path):
        # A sticky device-lost fault burns every GPU attempt; the final
        # attempt degrades to the CPU substrate and completes with
        # bit-identical numerics.
        plan = FaultPlan({0: (FaultSpec("device_lost", after=6),)}, seed=3)
        service = OptimizationService(
            n_devices=1,
            streams_per_device=2,
            journal_dir=tmp_path / "wal",
            checkpoint_every=5,
            faults=plan,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=1e-4),
            breaker=True,
        )
        tickets = drive(service)
        assert [t.status for t in tickets] == ["completed"] * 3
        complete = next(
            e
            for e in service.events
            if e.kind == "complete" and e.job_id == 0
        )
        assert complete.detail["cpu_fallback"] is True
        assert complete.detail["attempts"] == 2
        assert tickets[0].result.best_value == solo_best(JOBS[0])

    def test_failover_drill_replays_identically(self, tmp_path):
        plan = FaultPlan({0: (FaultSpec("device_lost", after=6),)}, seed=3)
        kw = dict(
            n_devices=1,
            streams_per_device=2,
            checkpoint_every=5,
            faults=plan,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=1e-4),
            breaker=True,
        )
        first = OptimizationService(journal_dir=tmp_path / "a", **kw)
        drive(first)
        second = OptimizationService(journal_dir=tmp_path / "b", **kw)
        drive(second)
        assert first.events_json() == second.events_json()
