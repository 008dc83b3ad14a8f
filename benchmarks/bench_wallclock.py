"""Host wall-clock benchmark for the fast-path work (ISSUE 1 / 4 / 9).

Measures *host* seconds — real time spent running the simulator, not
simulated GPU seconds — for a fixed seeded Table-1-style workload:
``sphere`` in d=50, n=2000 particles, 200 iterations, on ``fastpso`` plus
one CPU baseline (``fastpso-seq``), each in two execution lanes:

* ``<engine>`` — the default configuration: the launch graph promoted to
  the native one-C-call-per-iteration tier (``_fastpath.c``);
* ``<engine>-eager`` — the full eager launch pipeline (``graph=False``).

Each lane performs one untimed warm-up run before the timed repeats (the
first run pays one-off costs — kernel-table construction, cost-model
memoisation, the compiled ``.so`` dlopen — that previously skewed repeat
0 by ~20%) and records ``wall_seconds_min`` as the headline number.

The simulated results (best value, simulated ``elapsed_seconds``) are
recorded alongside so a perf change that accidentally perturbs
trajectories is immediately visible in the JSON diff — and both lanes
are checked *bit-identical* against each other (``--check-parity``, exit
1 on mismatch; CI runs this, which covers native-vs-eager parity).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--out BENCH_wallclock.json]

The committed ``BENCH_wallclock.json`` tracks the perf trajectory from
PR 1 onward; CI runs a smoke version (``--repeats 1``) to keep the signal
alive without slowing the suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.core.problem import Problem
from repro.engines import make_engine
from repro.gpusim.fastpath import ENV_GATE

WORKLOAD = {
    "problem": "sphere",
    "dim": 50,
    "n_particles": 2000,
    "max_iter": 200,
    "seed": 42,
}
ENGINES = ("fastpso", "fastpso-seq")
#: lane suffix -> graph enabled (the default lane runs the native tier)
LANES = {"": True, "-eager": False}
REPEATS = 3

#: Result fields that must be bit-identical across the lanes.
PARITY_FIELDS = ("best_value", "simulated_seconds", "iterations", "trajectory")


def bench_engine(
    name: str,
    *,
    dim: int,
    n_particles: int,
    max_iter: int,
    repeats: int = REPEATS,
    graph: bool = True,
) -> dict:
    """Best-of-*repeats* host wall time for one engine/lane, after one
    untimed warm-up run.  The native gate is cleared for the run, so the
    default lane measures the native tier whatever the environment says."""
    problem = Problem.from_benchmark(WORKLOAD["problem"], dim)
    saved = os.environ.pop(ENV_GATE, None)
    try:
        walls = []
        result = None
        engine = None
        # Warm-up run, untimed: pays the one-off costs (kernel tables,
        # cost-model memoisation, native .so dlopen) that otherwise skew
        # the first timed repeat.
        make_engine(name, graph=graph).optimize(
            problem,
            n_particles=n_particles,
            max_iter=max_iter,
            record_history=True,
        )
        for _ in range(repeats):
            # Fresh engine every repeat: no warm caches carried over.
            engine = make_engine(name, graph=graph)
            t0 = time.perf_counter()
            result = engine.optimize(
                problem,
                n_particles=n_particles,
                max_iter=max_iter,
                record_history=True,
            )
            walls.append(time.perf_counter() - t0)
    finally:
        if saved is not None:
            os.environ[ENV_GATE] = saved
    info = engine.graph_info
    return {
        "wall_seconds_min": min(walls),
        "wall_seconds_all": walls,
        "simulated_seconds": result.elapsed_seconds,
        "best_value": result.best_value,
        "iterations": result.iterations,
        "mode": info["mode"],
        "native": info["native"],
        "trajectory": list(result.history.gbest_values),
    }


def run(max_iter: int, repeats: int) -> dict:
    payload = {
        "workload": {**WORKLOAD, "max_iter": max_iter},
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engines": {},
    }
    for name in ENGINES:
        for suffix, graph in LANES.items():
            key = name + suffix
            payload["engines"][key] = bench_engine(
                name,
                dim=WORKLOAD["dim"],
                n_particles=WORKLOAD["n_particles"],
                max_iter=max_iter,
                repeats=repeats,
                graph=graph,
            )
            e = payload["engines"][key]
            print(
                f"{key:20s} wall={e['wall_seconds_min']:.3f}s "
                f"simulated={e['simulated_seconds']:.6f}s "
                f"best={e['best_value']:.6g} native={e['native']}"
            )
    return payload


def check_parity(payload: dict) -> list[str]:
    """Every lane must agree bit-for-bit on everything simulated."""
    problems = []
    for name in ENGINES:
        base_row = payload["engines"][name]
        for suffix in LANES:
            if not suffix:
                continue
            row = payload["engines"][name + suffix]
            for field in PARITY_FIELDS:
                if base_row[field] != row[field]:
                    problems.append(
                        f"{name}: {field} differs between default and "
                        f"{suffix.lstrip('-')} lanes "
                        f"(default={base_row[field]!r:.80s} "
                        f"{suffix.lstrip('-')}={row[field]!r:.80s})"
                    )
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_wallclock.json", help="output JSON path"
    )
    parser.add_argument(
        "--iters",
        type=int,
        default=WORKLOAD["max_iter"],
        help="iteration count (CI smoke runs use a smaller value)",
    )
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--check-parity",
        action="store_true",
        help="exit 1 unless all lanes (native/eager) are bit-identical",
    )
    args = parser.parse_args()
    payload = run(args.iters, args.repeats)
    mismatches = check_parity(payload)
    # Trajectories are large and redundant once parity is verified; persist
    # only a digest of each.
    for row in payload["engines"].values():
        traj = row.pop("trajectory")
        row["trajectory_len"] = len(traj)
        row["trajectory_last"] = traj[-1] if traj else None
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if mismatches:
        for line in mismatches:
            print(f"PARITY MISMATCH: {line}", file=sys.stderr)
        if args.check_parity:
            sys.exit(1)
    else:
        print("parity: native and eager lanes are bit-identical")


if __name__ == "__main__":
    main()
