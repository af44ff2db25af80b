"""The benchmark's own tests: ``python3 -m pytest perfbench`` (seconds)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_smoke_all_workloads_pass_their_checks():
    proc = _run("--smoke", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["workloads"]) == set(WORKLOADS)
    for result in summary["workloads"].values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_reports_every_layer_and_passes_fidelity():
    proc = _run("--smoke", "--trace", "1", "--workload", "downstream")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(PER_LAYER)
    assert "check traced pre-training loop matches pretrain(): ok" in proc.stdout
    assert "check traced retrieval matches retrieval_analysis: ok" in proc.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run("--workload", "downstream", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_sums_children_per_parent():
    tr = Tracer()
    for _ in range(2):
        with tr.span("step"):
            with tr.span("a"):
                pass
            with tr.span("a"):
                with tr.span("b"):
                    pass
            tr.count("n", 3)
    assert len(tr.per_parent("step", "a")) == 2
    assert tr.per_parent("step", "b") == [0.0, 0.0]  # b is a grandchild
    assert tr.counts("step", "n") == [3, 3]
