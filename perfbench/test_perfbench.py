"""Self-test of the benchmark: a tiny pass of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs at the ``tiny`` size twice untraced (two seeds) and twice
traced.  The test checks that every metric ``BENCHMARK.json`` declares is
printed with its unit, that the correctness gate and the trace
reconciliation pass, that deterministic metrics repeat exactly for one
seed, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics that are a pure function of the seed.
DETERMINISTIC_E2E = ("sim_s",)
#: Per-layer metrics that are a pure function of the seed: counts, bytes,
#: simulated times and ratios of counts.
DETERMINISTIC_LAYER = tuple(
    name
    for name, unit in PER_LAYER
    if unit in ("count", "bytes")
    or name
    in (
        "serve.virt_p50_s",
        "serve.virt_p99_s",
        "sim.makespan_s",
        "gpusim.alloc.hit_rate",
    )
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )
    return out


def result(workload: str, seed: int, trace: int) -> dict:
    out = bench(workload, seed, trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == dict(END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == dict(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_pass(workload):
    first = result(workload, 3, 0)
    again = result(workload, 3, 0)
    other_seed = result(workload, 4, 0)
    for res in (first, again, other_seed):
        assert units(res) == dict(END_TO_END)
        assert all(m["value"] > 0 for m in res["metrics"].values())
    for name in DETERMINISTIC_E2E:
        assert first["metrics"][name] == again["metrics"][name]

    traced = result(workload, 3, 1)
    traced_again = result(workload, 3, 1)
    assert units(traced) == dict(PER_LAYER)
    for name in DETERMINISTIC_LAYER:
        assert traced["metrics"][name] == traced_again["metrics"][name], name
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    layer_sum = sum(v for k, v in metrics.items() if k.startswith("layer."))
    assert layer_sum + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-4, abs=5e-5
    )
    assert metrics["trace.overhead"] > 0

    trace = json.loads(
        (ROOT / ".bench_build" / "perfbench" / f"trace-{workload}.json").read_text()
    )
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all(
        {"name", "ts", "dur", "pid", "tid", "args"} <= set(e) for e in spans
    )
    check_job_labels(workload, spans)


def check_job_labels(workload: str, spans: list) -> None:
    """Every span of a run carries that run's label, and the spans inside
    an iteration carry the iteration's label."""
    by_id = {e["args"]["id"]: e for e in spans}
    per_run = ("graph.", "fastpath.step", "engine.", "dispatch.start")
    for e in spans:
        if e["name"].startswith(per_run):
            assert e["args"].get("job"), e
        parent = by_id.get(e["args"]["parent"])
        if parent is not None and parent["name"].startswith("graph."):
            assert e["args"].get("job") == parent["args"]["job"], (e, parent)
    if workload == "serve-storm":
        # Each served job is started and finished under its own label.
        started = [e["args"]["job"] for e in spans if e["name"] == "dispatch.start"]
        finished = [e["args"]["job"] for e in spans if e["name"] == "engine.finish"]
        assert sorted(started) == sorted(finished)


def test_reconciliation_catches_overlapping_spans():
    from tracing import layer_metrics

    def span(i, name, ts, dur, parent):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                "args": {"id": i, "parent": parent}}

    def doc(second_start):
        return {
            "traceEvents": [
                span(0, "bench.pass", 0.0, 100e3, -1),
                span(1, "engine.start_run", 10e3, 40e3, 0),
                span(2, "engine.finish", second_start, 40e3, 0),
            ],
            "otherData": {"pass_wall_s": [0.1]},
        }

    _, problems = layer_metrics(doc(50e3))
    assert problems == []
    _, problems = layer_metrics(doc(30e3))
    assert any("does not nest" in p for p in problems)
    assert any("do not add up" in p for p in problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("serve-storm", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
