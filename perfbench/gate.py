"""The correctness gate: runs after the timed passes, never inside them.

Each check is one attempted operation; a check that fails counts as a
failed one (and so into ``error_rate``).  The checks:

* every pass of a seed gives the same results as the first pass (and, on
  ``serve-storm``, a byte-identical ``events_json()``);
* a seeded sample of jobs is bit-identical (best value, best position,
  simulated seconds) to a fresh solo run of the same spec on the eager
  tier (``graph=False``);
* on ``serve-storm``, the journaled drill serves exactly what the
  unjournaled passes served, and the service rebuilt from its journal by
  ``OptimizationService.recover`` reports what the live one reported.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np

from repro.batch.dispatch import effective_engine_options
from repro.engines import make_engine
from workloads import result_bytes

__all__ = ["Gate"]

#: Jobs per workload re-run on the eager tier.
SAMPLE = 3


def eager_solo(job):
    """A fresh solo run of *job*'s spec with launch graphs off."""
    engine = make_engine(job.engine, **effective_engine_options(job, False))
    return engine.optimize(
        job.resolved_problem(),
        n_particles=job.n_particles,
        max_iter=job.max_iter,
        params=job.resolved_params,
    )


def same_result(a, b) -> bool:
    """Bitwise equality of the observables the bit-identity contract names."""
    return a is not None and b is not None and result_bytes(a) == result_bytes(b)


class Gate:
    """Tallies checks; ``failures`` lists what went wrong, by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def run(self, workload, passes, seed: int, drill=None) -> None:
        first = passes[0]
        events = first.events
        if events is not None:
            events = hashlib.sha256(events.encode()).hexdigest()
        for k, other in enumerate(passes[1:], start=1):
            self.check(
                other.digest == first.digest,
                f"pass {k} results differ from pass 0",
            )
            if events is not None:
                self.check(
                    other.events == events,
                    f"pass {k} events_json differs from pass 0",
                )
        rng = np.random.default_rng(seed)
        picks = rng.choice(
            len(first.jobs), size=min(SAMPLE, len(first.jobs)), replace=False
        )
        for i in sorted(int(p) for p in picks):
            job, result = first.jobs[i]
            self.check(
                same_result(result, eager_solo(job)),
                f"job {job.label} differs from its eager solo run",
            )
        if hasattr(workload, "durable_drill"):
            self._check_durable(workload, first, drill)

    def _check_durable(self, workload, live, drill) -> None:
        if drill is None:
            drill = workload.durable_drill()
        self.check(
            drill.digest == live.digest and drill.events == live.events,
            "the journaled drill served different results from the passes",
        )
        recovered = workload.recover()
        self.check(
            recovered.status() == drill.extra["status"]
            and recovered.report().to_dict() == drill.extra["report"]
            and recovered.events_json() == drill.events,
            "the recovered service reports differ from the live one",
        )
        del recovered
        gc.collect()
