"""BENCHMARK.json says what the harness declares, within the contract's limits."""

import json
import re
from pathlib import Path

from metrics import END_TO_END, HEADLINE, PER_LAYER, WORKLOADS, manifest

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def test_manifest_file_matches_the_declarations():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == manifest(on_disk["command"], on_disk["paths"], on_disk["run_seconds"])
    assert on_disk["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert on_disk["paths"] == ["benchmarks/e2e", "bench_artifacts/e2e"]


def test_contract_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher") and UNIT.fullmatch(m["unit"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_workload_has_a_headline_latency():
    latencies = {n for n, unit, _b, _bound in END_TO_END if unit == "s"}
    assert set(HEADLINE) == set(WORKLOADS)
    assert set(HEADLINE.values()) <= latencies
    assert len(PER_LAYER) == len({n for n, _u, _b in PER_LAYER})
