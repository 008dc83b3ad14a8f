"""The benchmark's four workloads, driven only through public entry points.

Every workload builds its inputs from one integer seed, runs *passes*
(one pass = the whole workload once, from a fresh engine, service or
scheduler) and hands each pass's jobs and results to the correctness gate
in ``gate.py``.  Host timing of a pass covers exactly the call that does
the work; collecting its results afterwards is untimed.

Each pass is timed in wall and CPU seconds, and :func:`reference_cpu_s`
runs right before and right after it.  The reference is fixed work that
does not use the program, so the ratio of the two CPU times does not
depend on how fast the shared host happens to be (see
``PassResult.norm_cpu_s``).

``SIZES`` holds the full sizes the benchmark measures and the ``tiny``
sizes its self-test uses.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.batch import BatchScheduler
from repro.batch.job import Job
from repro.batch.workload import mixed_workload
from repro.core.problem import Problem
from repro.engines import make_engine
from repro.serve import LoadProfile, OptimizationService, replay
from repro.utils.stats import percentile

__all__ = [
    "SIZES",
    "WORKLOADS",
    "PassResult",
    "make_workload",
    "reference_cpu_s",
    "run_pass",
]

SIZES = {
    "full": {
        "solo-paper": {"runs": 2, "iters": 1000, "n": 2000, "dim": 50, "warm": 20},
        "serve-storm": {"sessions": 400, "warm": 16},
        "batch-mixed": {"jobs": 32, "warm": 8},
    },
    "tiny": {
        "solo-paper": {"runs": 2, "iters": 30, "n": 64, "dim": 8, "warm": 8},
        "serve-storm": {"sessions": 40, "warm": 4},
        "batch-mixed": {"jobs": 8, "warm": 4},
    },
}


#: CPU seconds :func:`reference_cpu_s` takes on an idle development host
#: (2-vCPU VM).  A constant: it only sets the scale of ``norm_cpu_s``.
REFERENCE_S = 0.06
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.random((2000, 50))
_REF_B = _REF_RNG.random((2000, 50))


def reference_cpu_s() -> float:
    """CPU seconds of a fixed mix of interpreter work and numpy array
    work, about as much of each; the program is not involved."""
    t0 = time.process_time()
    acc, table = 0, {}
    for i in range(300_000):
        acc += i * i
        table[i & 255] = acc
    out = np.empty_like(_REF_A)
    for _ in range(200):
        np.multiply(_REF_A, _REF_B, out=out)
        np.add(out, _REF_A, out=out)
        np.minimum(out, _REF_B, out=out)
    return time.process_time() - t0


@dataclass
class PassResult:
    """What one timed pass produced (everything but the times is
    deterministic for a given seed)."""

    #: Wall seconds of the pass.
    wall_s: float
    #: ``(job, OptimizeResult | None)`` per job, in submission order.
    jobs: list
    #: Simulated fleet makespan of the pass.
    makespan_s: float
    #: Jobs that did not complete (failed, shed, refused, cancelled).
    failed: int
    #: Virtual arrival-to-finish latency of each finished served job.
    latencies: list = field(default_factory=list)
    events: str | None = None
    disk_bytes: int = 0
    extra: dict = field(default_factory=dict)
    #: Simulated device-seconds the pass charged (sum over jobs).
    sim_s: float = 0.0
    #: Bytes of every job's best value, best position and simulated
    #: seconds: two passes agree bit for bit iff their digests are equal.
    digest: bytes = b""
    n_jobs: int = 0
    #: Nearest-rank percentiles of ``latencies``.
    virt_p50_s: float = 0.0
    virt_p99_s: float = 0.0
    #: CPU seconds of the pass, and the mean CPU seconds of the reference
    #: run just before and just after it.
    cpu_s: float = 0.0
    reference_s: float = 0.0

    def __post_init__(self) -> None:
        results = [r for _, r in self.jobs if r is not None]
        self.sim_s = sum(r.elapsed_seconds for r in results)
        self.digest = b"".join(result_bytes(r) for _, r in self.jobs)
        self.n_jobs = len(self.jobs)
        if self.latencies:
            self.virt_p50_s = percentile(self.latencies, 50.0)
            self.virt_p99_s = percentile(self.latencies, 99.0)

    @property
    def norm_cpu_s(self) -> float:
        """CPU seconds of the pass scaled to the reference's nominal speed:
        a host that runs everything 1.5x slower leaves it unchanged."""
        return self.cpu_s * REFERENCE_S / self.reference_s

    def drop_detail(self) -> None:
        """Keep only the summary.  Passes after the first need no more, and
        dropping the rest keeps ``peak_rss_mb`` independent of how many
        passes fit in the run."""
        self.jobs = self.latencies = []
        self.extra = {}
        if self.events is not None:
            self.events = hashlib.sha256(self.events.encode()).hexdigest()


def result_bytes(result) -> bytes:
    """The observables the bit-identity contract names, as bytes."""
    if result is None:
        return b"none"
    return (
        np.float64(result.best_value).tobytes()
        + np.asarray(result.best_position).tobytes()
        + np.float64(result.elapsed_seconds).tobytes()
    )


class SoloPaper:
    """``fastpso`` on sphere at the paper's n=2000, d=50 shape, solo runs."""

    name = "solo-paper"

    def __init__(self, seed: int, size: dict, workdir: Path) -> None:
        self.size = size
        self.problem = Problem.from_benchmark("sphere", size["dim"])
        self.jobs = [
            Job(
                problem="sphere",
                dim=size["dim"],
                n_particles=size["n"],
                max_iter=size["iters"],
                seed=seed * 100 + i,
                name=f"solo{i}",
            )
            for i in range(size["runs"])
        ]

    def _run(self, job: Job, max_iter: int):
        return make_engine(job.engine).optimize(
            self.problem,
            n_particles=job.n_particles,
            max_iter=max_iter,
            params=job.resolved_params,
        )

    def warm_up(self) -> None:
        self._run(self.jobs[0], self.size["warm"])

    def work(self):
        return [self._run(job, job.max_iter) for job in self.jobs]

    def collect(self, results, wall: float) -> PassResult:
        return PassResult(
            wall_s=wall,
            jobs=list(zip(self.jobs, results)),
            makespan_s=sum(r.elapsed_seconds for r in results),
            failed=sum(1 for r in results if r.status != "completed"),
        )


class ServeStorm:
    """The default ``LoadProfile`` storm against an autoscaled service.

    Its passes run without a journal.  :meth:`durable_drill` serves the
    same storm once more with the fsynced write-ahead journal (and its
    checkpoints) on, for the correctness gate and the traced run.
    """

    name = "serve-storm"

    def __init__(self, seed: int, size: dict, workdir: Path) -> None:
        self.profile = LoadProfile(n_sessions=size["sessions"], seed=seed)
        self.warm_profile = LoadProfile(n_sessions=size["warm"], seed=seed)
        self.journal_dir = workdir / "journal"

    def _serve(self, profile: LoadProfile, journal_dir=None):
        service = OptimizationService(autoscale=True, journal_dir=journal_dir)
        tickets = asyncio.run(replay(service, profile))
        return service, tickets

    def warm_up(self) -> None:
        self._serve(self.warm_profile)

    def work(self):
        return self._serve(self.profile)

    def collect(self, served, wall: float) -> PassResult:
        service, tickets = served
        report = service.report()
        return PassResult(
            wall_s=wall,
            jobs=[(t.effective_job, t.result) for t in tickets],
            latencies=[
                t.latency_seconds for t in tickets if t.latency_seconds is not None
            ],
            makespan_s=report.makespan_seconds,
            failed=self.profile.n_sessions - report.counts.get("completed", 0),
            events=service.events_json(),
            extra={"status": service.status(), "report": report.to_dict()},
        )

    def durable_drill(self, tracer=None) -> PassResult:
        """Serve the storm once with the journal on, into a fresh directory.

        Not a timed pass: fsync latency on a shared disk drifts too much
        from run to run for an end-to-end bound, so the drill feeds the
        correctness gate and the per-layer split only.
        """
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        span = tracer.open("bench.durable") if tracer is not None else None
        t0 = time.perf_counter()
        served = self._serve(self.profile, self.journal_dir)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        drill = self.collect(served, wall)
        files = [p for p in self.journal_dir.rglob("*") if p.is_file()]
        drill.disk_bytes = sum(p.stat().st_size for p in files)
        drill.extra["journal_bytes"] = sum(
            p.stat().st_size for p in files if p.parent == self.journal_dir
        )
        return drill

    def recover(self) -> OptimizationService:
        """Rebuild the service from the drill's finished journal."""
        return OptimizationService.recover(self.journal_dir, autoscale=True)


class BatchMixed:
    """``mixed_workload`` through the fused batch scheduler."""

    name = "batch-mixed"

    def __init__(self, seed: int, size: dict, workdir: Path) -> None:
        self.jobs = mixed_workload(size["jobs"], base_seed=seed * 1000)
        self.warm_jobs = mixed_workload(size["warm"], base_seed=seed * 1000)

    @staticmethod
    def _scheduler() -> BatchScheduler:
        return BatchScheduler(policy="fused", streams_per_device=4)

    def warm_up(self) -> None:
        self._scheduler().run(self.warm_jobs)

    def work(self):
        return self._scheduler().run(self.jobs)

    def collect(self, batch, wall: float) -> PassResult:
        return PassResult(
            wall_s=wall,
            jobs=[(o.job, o.result) for o in batch.outcomes],
            makespan_s=batch.makespan_seconds,
            failed=sum(1 for o in batch.outcomes if o.status != "completed"),
        )


WORKLOADS = {w.name: w for w in (SoloPaper, ServeStorm, BatchMixed)}


def make_workload(name: str, seed: int, size: str, workdir: Path):
    return WORKLOADS[name](seed, SIZES[size][name], workdir)


def run_pass(workload, tracer=None) -> PassResult:
    """One timed pass between two reference runs; with a tracer, the timed
    region is a ``bench.pass`` span and the pass's counters are flushed
    into the trace after it."""
    gc.collect()
    before = reference_cpu_s()
    span = tracer.open("bench.pass") if tracer is not None else None
    c0 = time.process_time()
    t0 = time.perf_counter()
    raw = workload.work()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if tracer is not None:
        tracer.close(span)
        tracer.flush_counters()
    after = reference_cpu_s()
    result = workload.collect(raw, wall)
    result.cpu_s = cpu
    result.reference_s = (before + after) / 2
    return result
