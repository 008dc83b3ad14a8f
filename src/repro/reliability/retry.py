"""Retry/failover policy: turn transient faults into completed runs.

:func:`run_with_recovery` wraps one optimization run in an attempt loop.
Each attempt runs on a **fresh engine** — a fresh engine is a fresh
simulated device, which is exactly what failover means here: a sticky
device-lost fault clears when the injector is re-attached to the new
context, an OOM'd allocator is gone with its device, and a corrupted buffer
never existed on the replacement.  Attempts resume from the newest readable
checkpoint, so completed work is kept; a run with no checkpoints restarts
from scratch (correct, just slower).  The decisions inside that loop —
which engine an attempt runs on, how it starts, what a failure costs —
live in :class:`Attempts`, which the serving layer drives too, so solo,
batch and served runs retry and fail over identically.

On the final attempt the policy can *degrade to a CPU engine*
(``cpu_fallback``, default ``fastpso-seq``): the CPU substrate is immune to
the injected GPU faults, and the fastpso family's bit-identical numerics
contract means the trajectory and final gbest are unchanged — only the
simulated timings differ.  The fallback first tries to restore the GPU
checkpoint (same dtypes on both substrates); if the snapshot is
incompatible (e.g. an fp16-storage variant), it reruns from scratch rather
than failing.

Everything the recovery machinery "spends" is accounted in **simulated
time** on a dedicated recovery clock with two sections — ``lost_work``
(simulated seconds computed since the last checkpoint and thrown away with
the failed device) and ``retry_backoff`` (the exponential backoff delays) —
which the batch layer merges into the fleet profile, so recovery overhead
shows up in the same report as kernel time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.results import OptimizeResult
from repro.core.stopping import StopCriterion
from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    GpuSimError,
    InvalidParameterError,
    ReproError,
    StalledRunError,
)
from repro.gpusim.clock import SimClock
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.faults import FaultInjector

__all__ = ["RetryPolicy", "RecoveryReport", "run_with_recovery"]


@dataclass(frozen=True)
class RetryPolicy:
    """How failures are retried: attempts, simulated backoff, CPU fallback.

    ``backoff_seconds`` grows by ``backoff_factor`` per failure (exponential
    backoff), charged to the recovery clock's ``retry_backoff`` section —
    simulated seconds, never wall time.  ``retry_on`` is the tuple of
    exception types considered transient; anything else propagates
    immediately (a bug should crash, not burn retries).
    """

    max_attempts: int = 4
    backoff_seconds: float = 1.0
    backoff_factor: float = 2.0
    cpu_fallback: str | None = "fastpso-seq"
    retry_on: tuple = (GpuSimError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise InvalidParameterError("backoff_seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise InvalidParameterError("backoff_factor must be >= 1")
        if not self.retry_on:
            raise InvalidParameterError("retry_on must name at least one type")

    def backoff_for(self, failure_index: int) -> float:
        """Simulated backoff after the Nth failure (0-based)."""
        return self.backoff_seconds * self.backoff_factor**failure_index

    def fallback_engine(self, engine_name: str) -> str | None:
        """The CPU engine to degrade to, or ``None`` when there is no
        *distinct* fallback (disabled, or the job already runs on it)."""
        if self.cpu_fallback and self.cpu_fallback != engine_name:
            return self.cpu_fallback
        return None


@dataclass
class RecoveryReport:
    """Outcome of :func:`run_with_recovery`: the result plus the price paid."""

    result: OptimizeResult | None
    attempts: int
    engines: tuple = field(repr=False, default=())
    errors: tuple[str, ...] = ()
    fell_back_to_cpu: bool = False
    #: Dedicated clock holding the ``lost_work``/``retry_backoff`` sections.
    recovery_clock: SimClock = field(repr=False, default_factory=SimClock)
    #: Structured ``ReproError.to_row()`` rows, one per failed attempt.
    error_rows: tuple = ()
    #: Simulated device the final attempt ran on (``None`` on CPU fallback
    #: or when no circuit-breaker fleet was supplied).
    device_index: int | None = None

    @property
    def succeeded(self) -> bool:
        return self.result is not None

    @property
    def error(self) -> str | None:
        """Last failure message, or ``None`` for a first-try success."""
        return self.errors[-1] if self.errors else None

    @property
    def engine(self):
        """The engine of the final attempt (its profile covers the result)."""
        return self.engines[-1] if self.engines else None

    @property
    def retries(self) -> int:
        return self.attempts - 1

    @property
    def lost_seconds(self) -> float:
        """Simulated seconds computed and discarded with failed attempts."""
        return self.recovery_clock.total("lost_work")

    @property
    def backoff_seconds(self) -> float:
        """Simulated seconds spent backing off between attempts."""
        return self.recovery_clock.total("retry_backoff")

    @property
    def recovery_seconds(self) -> float:
        """Total simulated recovery overhead (lost work + backoff)."""
        return self.recovery_clock.now


class Attempts:
    """One run's attempts under a :class:`RetryPolicy`, step by step.

    Both front-ends — :func:`run_with_recovery` and the serving layer's
    dispatch loop — make the retry decisions here: which engine an
    attempt runs on (:meth:`falls_back`), how it starts (:meth:`start`)
    and what a failure costs (:meth:`fail`).  Placement, breakers, clocks,
    event logs and the stepping of an attempt stay with the callers.
    *number* lets a recovered service resume its journaled attempt count.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        engine_name: str,
        checkpoint: CheckpointManager | None = None,
        *,
        number: int = 1,
    ) -> None:
        self.policy = policy
        self.checkpoint = checkpoint
        self.number = number
        #: The distinct CPU engine failed-over attempts run on, if any.
        self.fallback = policy.fallback_engine(engine_name)
        #: Exception types retried: the policy's, plus watchdog stalls.
        self.retry_on = (StalledRunError, *policy.retry_on)

    def _latest(self):
        if self.checkpoint is None:
            return None
        return self.checkpoint.load_latest()

    def falls_back(self, healthy=None) -> bool:
        """Whether this attempt degrades to :attr:`fallback`: on the final
        attempt (unless it is also the first), or when the zero-argument
        callable *healthy* says there is no healthy placement.  *healthy*
        is asked only when its answer decides (breaker checks change
        breaker state)."""
        if not self.fallback:
            return False
        if self.number == self.policy.max_attempts and self.number > 1:
            return True
        return healthy is not None and not healthy()

    def start(self, launch, restore=None):
        """Begin the attempt with ``launch(snapshot)`` on a fresh engine.

        *snapshot* is the newest checkpoint, else *restore* (the snapshot
        or path a run was resubmitted from).  A checkpoint that does not
        fit this attempt's engine (a CPU fallback reading an fp16-storage
        snapshot) reruns from scratch, ``launch(None)``, instead of
        failing the recovery path itself.
        """
        banked = self._latest()
        try:
            return launch(banked if banked is not None else restore)
        except CheckpointError:
            if banked is None:
                raise
            return launch(None)

    def fail(
        self, exc: BaseException, spent: float
    ) -> tuple[float, float | None] | None:
        """What the failed attempt costs: ``(lost, backoff)``, or ``None``
        when *exc* is not retryable (the caller lets it end the run).

        *lost* is the simulated work since the newest checkpoint out of
        *spent* seconds on the attempt's clock.  *backoff* is ``None``
        once the attempts are used up; otherwise :attr:`number` moves on.
        """
        if not isinstance(exc, self.retry_on):
            return None
        latest = self._latest()
        banked = 0.0 if latest is None else float(latest.clock_state["now"])
        lost = max(0.0, spent - banked)
        if self.number >= self.policy.max_attempts:
            return lost, None
        backoff = self.policy.backoff_for(self.number - 1)
        self.number += 1
        return lost, backoff


def run_with_recovery(
    *,
    engine_name: str,
    problem: Problem,
    n_particles: int,
    max_iter: int,
    params: PSOParams = PAPER_DEFAULTS,
    stop: StopCriterion | None = None,
    record_history: bool = False,
    engine_options: dict | None = None,
    policy: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    checkpoint: CheckpointManager | None = None,
    budget=None,
    guard=None,
    health=None,
    job_label: str | None = None,
    preferred_device: int | None = None,
    base_now: float = 0.0,
) -> RecoveryReport:
    """Run one optimization under *policy*, retrying transient failures.

    Never raises for exceptions in ``policy.retry_on``: after the attempt
    budget is exhausted the report carries ``result=None`` and the error
    trail.  Other exceptions propagate unchanged.

    With a *checkpoint* manager, every attempt resumes from the newest
    readable snapshot and keeps checkpointing as it goes, so repeated
    faults only ever lose work since the last checkpoint.  The *injector*
    (if any) is re-attached to each fresh engine; its fault ordinals count
    across attempts, so one-shot faults don't re-fire on the retried run.

    ``budget``/``guard`` pass straight through to ``engine.optimize`` —
    a budgeted attempt that expires returns a normal result with a
    ``status`` instead of raising, so it never burns a retry.

    ``health`` (a :class:`~repro.reliability.breaker.FleetHealth`) places
    each attempt on a device whose circuit breaker admits work: failures
    feed the breaker, so a device that keeps failing trips open and stops
    receiving attempts; when *every* breaker is open the run degrades
    straight to the CPU fallback (or fails with
    :class:`~repro.errors.CircuitOpenError` if there is none).  Breaker
    time is ``base_now`` plus this job's simulated recovery overhead, so
    trip/cool-down ordinals are deterministic for a fixed workload.
    """
    # Local import: repro.engines -> core.engine would otherwise complete a
    # cycle through this module when the package initialises.
    from repro.engines import make_engine

    policy = policy or RetryPolicy()
    options = dict(engine_options or {})
    attempts = Attempts(policy, engine_name, checkpoint)
    recovery_clock = SimClock()
    engines: list = []
    errors: list[str] = []
    error_rows: list[dict] = []
    fell_back = False
    device: int | None = None

    def _annotate(exc, attempt):
        if isinstance(exc, ReproError):
            exc.with_context(job=job_label, device=device, attempt=attempt)
            error_rows.append(exc.to_row())

    result = None
    while True:
        attempt = attempts.number
        now = base_now + recovery_clock.now

        def pick():
            return health.pick_device(now=now, preferred=preferred_device)

        on_cpu = attempts.falls_back(
            None if health is None else lambda: pick() is not None
        )
        fell_back = fell_back or on_cpu
        name, opts = (
            (attempts.fallback, {}) if on_cpu else (engine_name, options)
        )
        device = None
        if health is not None and not on_cpu:
            device = pick()  # same ``now``: the device the check above saw
            if device is None:
                # Every breaker is open and there is no CPU fallback.
                exc = CircuitOpenError(
                    f"all {health.n_devices} device breaker(s) open; "
                    "no CPU fallback configured"
                )
                _annotate(exc, attempt)
                errors.append(f"attempt {attempt}: {exc}")
                break

        def launch(restore):
            engine = make_engine(name, **opts)
            engines.append(engine)
            if injector is not None:
                engine.attach_fault_injector(injector)
            return engine.optimize(
                problem,
                n_particles=n_particles,
                max_iter=max_iter,
                params=params,
                stop=stop,
                record_history=record_history,
                checkpoint=checkpoint,
                restore=restore,
                budget=budget,
                guard=guard,
            )

        try:
            result = attempts.start(launch)
        except attempts.retry_on as exc:
            lost, backoff = attempts.fail(exc, engines[-1].clock.now)
            _annotate(exc, attempt)
            errors.append(f"attempt {attempt} [{engines[-1].name}]: {exc}")
            with recovery_clock.section("lost_work"):
                recovery_clock.advance(lost)
            if device is not None:
                health.record_failure(
                    device, now=base_now + recovery_clock.now
                )
            if backoff is None:
                break
            with recovery_clock.section("retry_backoff"):
                recovery_clock.advance(backoff)
            continue
        if device is not None:
            health.record_success(
                device,
                now=base_now + recovery_clock.now + engines[-1].clock.now,
            )
        break

    return RecoveryReport(
        result=result,
        attempts=attempt,
        engines=tuple(engines),
        errors=tuple(errors),
        fell_back_to_cpu=fell_back,
        recovery_clock=recovery_clock,
        error_rows=tuple(error_rows),
        device_index=None if result is None else device,
    )
