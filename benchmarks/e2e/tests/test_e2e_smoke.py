"""The whole harness at smoke size: all four workloads, both modes of output."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


def _run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def test_smoke_all_workloads_untraced():
    proc = _run("--seed", "11", "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["correct"] and summary["failed"] == 0
    assert [r["workload"] for r in summary["runs"]] == list(WORKLOADS)
    for run in summary["runs"]:
        assert set(run["metrics"]) == {n for n, *_ in END_TO_END}
        for name, unit, _better, _bound in END_TO_END:
            assert run["metrics"][name]["unit"] == unit
            assert run["metrics"][name]["value"] > 0, (run["workload"], name)
    for name, *_ in END_TO_END:
        assert name in proc.stdout  # printed by name, with its unit


@pytest.mark.parametrize("workload", ["gateway_mock_open", "hybrid_conv"])
def test_smoke_traced_contract_line(workload):
    proc = _run("--seed", "12", "--smoke", "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [n for n, _u, _b in PER_LAYER]
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["trace.coverage"] >= 0.95
    # these two workloads never touch the crypto kernels
    assert all(v == 0 for k, v in m.items() if k.startswith(("ckksrns.", "nt.ntt.")))
    if workload == "hybrid_conv":
        assert all(v == 0 for k, v in m.items() if k.startswith(("serving.", "henn.backend.")))
        assert m["nt.crt.compose_centered.calls"] == 1 and m["parallel.executor.map.calls"] == 1
    else:
        assert m["serving.batches"] > 0 and m["henn.protocol.submit.busy_s"] > 0
        # (a third of a second at 900 req/s does not fill the 128-deep queue:
        # the probe only rejects at full size)
    trace = ROOT / "bench_artifacts" / "e2e" / f"trace_{workload}.json"
    assert json.loads(trace.read_text())["spans"]


def test_no_result_without_the_system_under_test(tmp_path):
    """In a directory holding only the manifest and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    (tmp_path / "bench_artifacts" / "e2e").mkdir(parents=True)
    run = [sys.executable, str(tmp_path / "benchmarks" / "e2e" / "run.py")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # may point at this repo's src
    proc = subprocess.run(
        [*run, "--workload", "hybrid_conv", "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
