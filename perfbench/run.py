"""The repository benchmark: one workload per invocation, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-storm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of several fresh-process set-ups), then timed passes of the
workload for ``--seconds`` seconds (at least three), then the correctness
gate.  Host times are CPU seconds divided by those of a fixed reference
computation run next to them, times the reference's nominal seconds
(``workloads.reference_cpu_s``): the shared host's speed drifts by tens of
percent over minutes, and the ratio cancels that drift (see
``perfbench/README.md``).  ``--trace 1`` runs the workload untraced and
then traced, writes the spans as Chrome trace-event JSON under
``.bench_build/perfbench/`` and reports the per-layer metrics read back
from that file.  The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``; a failed correctness check still
prints it, with ``correct: false``, and exits 1.

Everything the benchmark writes (native build cache, bytecode, journals,
traces) goes under ``.bench_build/`` in the repository root.  The program
is imported from ``src/``; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "perfbench"

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("norm_cpu_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_PASSES = 3
WORKLOAD_NAMES = ("solo-paper", "serve-storm", "batch-mixed")
SETUP_PROBES = {"full": 5, "tiny": 2}
#: Traced passes are capped: every span is kept in memory and written out.
TRACED_PASSES = 2


def _environment() -> None:
    """Pin threads, keep every file the run writes under ``.bench_build``.

    Bytecode is cached there too (even where the environment turns caching
    off), so set-up time measures imports from a populated cache, as it
    does for the native modules.
    """
    os.chdir(ROOT)
    tmp = ROOT / BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
    sys.dont_write_bytecode = False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="workload size; 'tiny' is for the benchmark's self-test",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _workdir(workload: str) -> Path:
    # A fixed relative path: journal records name it, so a per-process or
    # absolute path would change the journal's size from run to run.
    path = BUILD / "work" / workload
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _build() -> None:
    """Compile (or load from cache) the program's native modules and the
    bytecode of everything the workloads import."""
    import workloads  # noqa: F401
    from repro.gpusim import fastpath, philox_native

    fastpath.load()
    philox_native.load()


def _setup_probe(args) -> None:
    """Child process: import, construct, warm up; print the CPU seconds
    taken, scaled by the reference run after them (as pass times are)."""
    from workloads import REFERENCE_S, make_workload, reference_cpu_s

    workdir = _workdir(args.workload)
    make_workload(args.workload, args.seed, args.size, workdir).warm_up()
    setup_cpu = time.process_time()
    reference = (reference_cpu_s() + reference_cpu_s()) / 2
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_cpu * REFERENCE_S / reference}))


def _measure_setup(args) -> float:
    """Median normalised set-up seconds over fresh processes."""
    samples = []
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--size", args.size, "--setup-probe",
    ]
    for _ in range(SETUP_PROBES[args.size]):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise RuntimeError(f"set-up probe exited {out.returncode}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _passes(
    workload, seconds: float, minimum: int, tracer=None, keep_first=True, maximum=None
) -> list:
    """Timed passes for *seconds* (at least *minimum*, at most *maximum*);
    only the first keeps the per-job detail the correctness gate samples."""
    from workloads import run_pass

    passes = []
    t0 = time.perf_counter()
    while len(passes) < minimum or (
        time.perf_counter() - t0 < seconds and len(passes) != maximum
    ):
        result = run_pass(workload, tracer)
        if passes or not keep_first:
            result.drop_detail()
        passes.append(result)
    return passes


def _peak_rss_mb() -> float:
    import resource

    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _traced(args, workload, untraced):
    """Traced passes (and recoveries); per-layer metrics from the trace."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        passes = _passes(
            workload, args.seconds / 2, 1, tracer, keep_first=False,
            maximum=TRACED_PASSES,
        )
        drill = None
        if hasattr(workload, "durable_drill"):
            drill = workload.durable_drill(tracer)
            for _ in range(3):
                workload.recover()
            tracer.counters.clear()
    finally:
        tracer.uninstall()
    path = BUILD / f"trace-{args.workload}.json"
    tracer.write_chrome_trace(
        path,
        {
            "workload": args.workload,
            "seed": args.seed,
            "pass_wall_s": [p.wall_s for p in passes],
        },
    )
    metrics, problems = layer_metrics(json.loads(path.read_text()))
    first = passes[0]
    metrics.update(
        {
            "serve.virt_p50_s": first.virt_p50_s,
            "serve.virt_p99_s": first.virt_p99_s,
            "serve.journal.bytes": drill.extra["journal_bytes"] if drill else 0,
            "serve.durable.wall_s": drill.wall_s if drill else 0.0,
            "serve.disk_bytes_per_job": drill.disk_bytes / drill.n_jobs if drill else 0.0,
            "sim.makespan_s": first.makespan_s,
            "trace.overhead": statistics.median(p.norm_cpu_s for p in passes)
            / statistics.median(p.norm_cpu_s for p in untraced),
        }
    )
    print(f"perfbench: trace written to {path} ({len(passes)} traced pass(es))")
    return metrics, passes, drill, problems


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} is missing)",
            file=sys.stderr,
        )
        return 2
    _environment()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0

    _build()
    setup_s = _measure_setup(args) if not args.trace else None

    from gate import Gate
    from workloads import make_workload

    workdir = _workdir(args.workload)
    workload = make_workload(args.workload, args.seed, args.size, workdir)
    try:
        workload.warm_up()
        if args.trace:
            untraced = _passes(workload, args.seconds / 2, 2)
            layer, traced, drill, problems = _traced(args, workload, untraced)
            passes = untraced + traced
        else:
            passes = _passes(workload, args.seconds, MIN_PASSES)
            peak_rss = _peak_rss_mb()
            drill, problems = None, []
        gate = Gate()
        gate.run(workload, passes, args.seed, drill)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = gate.failures + problems
    jobs = sum(p.n_jobs for p in passes)
    attempted = jobs + gate.attempted
    failed = sum(p.failed for p in passes) + len(failures)
    if args.trace:
        from tracing import PER_LAYER

        units = dict(PER_LAYER)
        values = layer
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": setup_s,
            "norm_cpu_s": statistics.median(p.norm_cpu_s for p in passes),
            "sim_s": passes[0].sim_s,
            "peak_rss_mb": peak_rss,
        }
    walls = sorted(p.wall_s for p in passes)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace} passes={len(passes)} jobs/pass={passes[0].n_jobs} "
        f"pass wall_s min/median/max={walls[0]:.4f}/{statistics.median(walls):.4f}/"
        f"{walls[-1]:.4f} cpu_s median={statistics.median(p.cpu_s for p in passes):.4f} "
        f"reference_s median={statistics.median(p.reference_s for p in passes):.4f} "
        f"error_rate={failed / attempted:.6g} ({failed}/{attempted})"
    )
    for failure in failures:
        print(f"perfbench: FAILED: {failure}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
