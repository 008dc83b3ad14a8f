"""Heterogeneous fleets: ``devices=`` placement, composition rules, pricing.

A ``devices=["v100", "a100"]`` fleet places each job on the device with the
earliest modelled finish time (cost-aware EFT via the placement probe) and
threads the chosen :class:`DeviceSpec` into device-aware engines.  The
determinism contract carries over: placement moves the simulated clock,
never the trajectory bits.
"""

import numpy as np
import pytest

from repro.batch import AdmissionPolicy, BatchScheduler, Job
from repro.devices import resolve_device
from repro.engines import make_engine
from repro.errors import InvalidParameterError, UnknownDeviceError
from repro.reliability import BreakerPolicy, FaultPlan, FaultSpec, RetryPolicy


def seeded_jobs(n=6, max_iter=30):
    return [
        Job(
            "sphere",
            dim=16,
            n_particles=128 * (1 + seed % 2),
            max_iter=max_iter,
            seed=seed,
        )
        for seed in range(n)
    ]


class TestConstruction:
    def test_names_and_specs_resolve(self):
        fleet = BatchScheduler(devices=["v100", resolve_device("a100")])
        assert fleet.n_devices == 2
        assert fleet.device_specs == (
            resolve_device("v100"),
            resolve_device("a100"),
        )

    def test_n_devices_follows_the_fleet(self):
        assert BatchScheduler(devices=["v100", "a100", "h100"]).n_devices == 3
        # An explicit matching n_devices is accepted; a conflicting one is not.
        BatchScheduler(devices=["v100", "a100"], n_devices=2)
        with pytest.raises(InvalidParameterError):
            BatchScheduler(devices=["v100", "a100"], n_devices=3)

    def test_empty_fleet_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            BatchScheduler(devices=[])

    def test_unknown_device_did_you_mean(self):
        with pytest.raises(UnknownDeviceError, match="did you mean"):
            BatchScheduler(devices=["v1000"])

    @pytest.mark.parametrize(
        "kwargs",
        [
            # retry/faults compose with devices=; they do not lift the
            # breaker refusal.
            {"breaker": BreakerPolicy(), "retry": RetryPolicy(max_attempts=2)},
            {"breaker": BreakerPolicy(), "faults": FaultPlan.drill(4, seed=7)},
            {"breaker": BreakerPolicy()},
            {"policy": "fused"},
        ],
    )
    def test_refuses_failover_and_fused_composition(self, kwargs):
        with pytest.raises(InvalidParameterError, match="does not compose"):
            BatchScheduler(devices=["v100", "a100"], **kwargs)

    def test_homogeneous_fleet_unaffected(self):
        fleet = BatchScheduler(n_devices=2, retry=RetryPolicy(max_attempts=2))
        assert fleet.device_specs is None


class TestPlacement:
    def test_every_job_lands_on_a_fleet_device(self):
        result = BatchScheduler(
            devices=["v100", "a100"], streams_per_device=2
        ).run(seeded_jobs())
        assert result.all_succeeded
        assert {o.device_index for o in result.outcomes} == {0, 1}
        for outcome in result.outcomes:
            assert 0 <= outcome.device_index < 2

    def test_eft_prefers_the_faster_device_under_load(self):
        # One stream per device: placement is purely cost-driven.  The A100
        # finishes each probe-priced job faster, so it must take at least
        # half the work.
        result = BatchScheduler(
            devices=["v100", "a100"], streams_per_device=1
        ).run(seeded_jobs(n=8))
        on_a100 = sum(1 for o in result.outcomes if o.device_index == 1)
        assert on_a100 >= 4

    def test_placement_is_deterministic(self):
        jobs = seeded_jobs()
        a = BatchScheduler(devices=["v100", "a100"]).run(jobs)
        b = BatchScheduler(devices=["v100", "a100"]).run(jobs)
        assert [o.device_index for o in a.outcomes] == [
            o.device_index for o in b.outcomes
        ]
        assert a.makespan_seconds == b.makespan_seconds

    def test_trajectories_identical_across_fleet_compositions(self):
        jobs = seeded_jobs(n=4)
        values = {
            fleet: tuple(
                o.result.best_value
                for o in BatchScheduler(devices=list(fleet)).run(jobs).outcomes
            )
            for fleet in (("v100",), ("a100",), ("v100", "a100"))
        }
        assert len(set(values.values())) == 1, values

    def test_fleet_clocks_differ(self):
        jobs = seeded_jobs(n=4)
        slow = BatchScheduler(devices=["v100"]).run(jobs)
        fast = BatchScheduler(devices=["a100"]).run(jobs)
        assert slow.makespan_seconds != fast.makespan_seconds


class TestAdmissionPricing:
    # A tiny memory_fraction keeps the probe job small in *real* bytes
    # while still splitting the fleet: ~7.9 MB of swarm state fits 0.1% of
    # a V100's 16 GiB (17.2 MB) but not 0.1% of the laptop's 4 GiB (4.3 MB).
    POLICY = AdmissionPolicy(memory_fraction=0.001)
    PROBE = Job("sphere", dim=512, n_particles=1024, max_iter=2)

    def test_memory_priced_against_the_smallest_device(self):
        result = BatchScheduler(
            devices=["v100", "laptop"],
            streams_per_device=1,
            admission=self.POLICY,
        ).run([self.PROBE])
        assert result.n_degraded == 1

    def test_same_job_fits_a_fleet_without_the_weak_member(self):
        result = BatchScheduler(
            devices=["v100"], streams_per_device=1, admission=self.POLICY
        ).run([self.PROBE])
        assert result.n_degraded == 0
        assert result.all_succeeded


class TestReliabilityComposition:
    """``devices=`` with checkpoints, faults and retries keeps its specs."""

    def test_checkpoint_dir_keeps_specs_and_placement(self, tmp_path):
        jobs = seeded_jobs(n=4)
        makespans = {}
        for fleet in (["v100"], ["a100"], ["v100", "a100"]):
            plain = BatchScheduler(devices=fleet).run(jobs)
            checkpointed = BatchScheduler(
                devices=fleet, checkpoint_dir=tmp_path / "-".join(fleet)
            ).run(jobs)
            assert checkpointed.makespan_seconds == plain.makespan_seconds
            for a, b in zip(plain.outcomes, checkpointed.outcomes):
                assert b.device_index == a.device_index
                assert b.result.elapsed_seconds == a.result.elapsed_seconds
            makespans[tuple(fleet)] = checkpointed.makespan_seconds
        assert makespans[("v100",)] != makespans[("a100",)]

    def test_faulted_fleet_recovers_on_its_eft_devices(self, tmp_path):
        jobs = seeded_jobs(n=6)
        fleet = ["v100", "a100"]
        plan = FaultPlan(
            {
                0: (FaultSpec("launch_failure", after=1),),
                1: (FaultSpec("device_lost", after=40),),
                # The OOM fails attempt 2, so attempt 3 is the CPU fallback.
                2: (
                    FaultSpec("launch_failure", after=40),
                    FaultSpec("oom", after=60),
                ),
                3: (FaultSpec("launch_failure", after=70),),
            }
        )
        clean = BatchScheduler(devices=fleet).run(jobs)
        drilled = BatchScheduler(
            devices=fleet,
            retry=RetryPolicy(max_attempts=3),
            faults=plan,
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
        ).run(jobs)

        assert drilled.all_succeeded
        assert [o.attempts for o in drilled.outcomes] == [2, 2, 3, 2, 1, 1]
        specs = [resolve_device(d) for d in fleet]
        for a, b in zip(clean.outcomes, drilled.outcomes):
            assert b.device_index == a.device_index
            assert b.result.best_value == a.result.best_value
            assert np.array_equal(b.result.best_position, a.result.best_position)
            if b.fell_back_to_cpu:
                continue
            job = b.job
            solo = make_engine(
                job.engine, device=specs[b.device_index]
            ).optimize(
                job.resolved_problem(),
                n_particles=job.n_particles,
                max_iter=job.max_iter,
                params=job.resolved_params,
            )
            assert b.result.elapsed_seconds == solo.elapsed_seconds
        assert [o.fell_back_to_cpu for o in drilled.outcomes] == [
            False, False, True, False, False, False,
        ]
