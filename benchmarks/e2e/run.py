"""End-to-end benchmark of the CKKS-RNS inference stack: one command.

    python3 benchmarks/e2e/run.py --seed 1                  # all four workloads
    python3 benchmarks/e2e/run.py --seed 1 --workload rns_single --traced
    python3 benchmarks/e2e/run.py --seed 1 --check-repeat
    python3 benchmarks/e2e/run.py --seed 1 --smoke          # < 60 s, for CI

Each workload runs in a fresh subprocess (``worker.py``) with a private,
empty ``REPRO_CACHE``; this process only spawns, collects, prints and
records.  Every metric is printed by name with its unit, every output is
checked against the plaintext model, and the exit code is non-zero when
anything failed.  With ``--workload`` the last line of standard output
is the one JSON object ``BENCHMARK.json``'s contract asks for; see
``README.md`` beside this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ARTIFACTS = ROOT / "bench_artifacts" / "e2e"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, MIN_COVERAGE, PER_LAYER, WORKLOADS  # noqa: E402
from stats import PERCENTILE_RULE  # noqa: E402

SCHEMA = "repro.e2e/1"
#: A child that has not finished by then is killed (the contract allows 180 s).
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 2.0


def default_seconds() -> float:
    """``run_seconds`` of the manifest: the size every comparison uses."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def env_fingerprint() -> dict[str, Any]:
    """Where the numbers were measured; compare like with like."""
    import numpy as np

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg": list(os.getloadavg()),
    }


class ChildFailed(RuntimeError):
    """The worker process crashed or ran out of time: there is no result."""


def run_child(workload: str, seed: int, seconds: float, traced: bool, chrome: bool) -> dict[str, Any]:
    """Run one workload in a fresh process with an empty private cache."""
    scratch = ARTIFACTS / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cache_", dir=scratch)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--traced", str(int(traced)), "--t-start", repr(time.time()),
    ]
    if traced:
        cmd += ["--trace-file", str((ARTIFACTS / f"trace_{workload}.json").relative_to(ROOT))]
        if chrome:
            cmd.append("--chrome-trace")
    try:
        proc = subprocess.run(
            cmd, env={**os.environ, "REPRO_CACHE": cache}, stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"workload {workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"workload {workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_correct(result: dict[str, Any]) -> bool:
    return result["failed"] == 0 and result.get("coverage_ok", True)


def contract_line(result: dict[str, Any]) -> dict[str, Any]:
    """The four-key object the manifest's contract wants as the last line."""
    metrics = result["per_layer"] if result["traced"] else result["end_to_end"]
    return {
        "correct": is_correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }


def print_result(result: dict[str, Any]) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']:g}  {mode} ==")
    print(f"   sizes: {json.dumps(result['sizes'])}")
    if result["traced"]:
        for name, _unit, _better in PER_LAYER:
            m = result["per_layer"][name]
            print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
        verdict = "ok" if result["coverage_ok"] else f"BELOW {MIN_COVERAGE}"
        print(f"   trace.coverage check: {verdict}; spans in {result.get('trace_file')}")
    else:
        for name, _unit, _better, _bound in END_TO_END:
            m = result["end_to_end"][name]
            if m["native"]:
                note = f"({m['samples']} samples, p{m['percentile_used']})" if "samples" in m else ""
            else:
                note = f"= {m['repeats']} (not produced by this workload)"
            print(f"   {name:<28} {m['value']:>12.6g} {m['unit']:<6} {note}")
    print(
        f"   {'failed_fraction':<28} {result['failed_fraction']:>12.6g} ratio  "
        f"({result['failed']} of {result['attempted']}: {json.dumps(result['failures'])})"
    )


def record(results: list[dict[str, Any]], args: argparse.Namespace) -> dict[str, Any]:
    """Self-describing document of one invocation; ends with the claim."""
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "seed": args.seed,
        "seconds": args.seconds,
        "env": env_fingerprint(),
        "percentile_rule": PERCENTILE_RULE,
        "units": {
            "end_to_end": {n: u for n, u, _b, _bound in END_TO_END},
            "per_layer": {n: u for n, u, _b in PER_LAYER},
            "kinds": "unit 'count' = exact counts per request; 's' = seconds; ratios are dimensionless",
        },
        "bounds": {n: bound for n, _u, _b, bound in END_TO_END},
        "results": results,
        "correct": all(is_correct(r) for r in results),
        "claim": None,
    }


def check_repeat(workloads: list[str], args: argparse.Namespace) -> int:
    """Two full sets on the same commit and seed must agree within the bounds."""
    sets = [
        {w: run_child(w, args.seed, args.seconds, False, False) for w in workloads}
        for _ in range(2)
    ]
    bad = 0
    print(f"{'workload':<20}{'metric':<28}{'first':>12}{'second':>12}{'diff':>9}{'bound':>8}")
    for w in workloads:
        first, second = sets[0][w], sets[1][w]
        bad += (not is_correct(first)) + (not is_correct(second))
        for name, _unit, _better, bound in END_TO_END:
            a, b = first["end_to_end"][name], second["end_to_end"][name]
            if not a["native"]:
                continue
            diff = abs(b["value"] - a["value"]) / abs(a["value"])
            flag = "" if diff <= bound else "  <-- beyond bound"
            bad += diff > bound
            print(f"{w:<20}{name:<28}{a['value']:>12.5g}{b['value']:>12.5g}{diff:>8.1%}{bound:>8.0%}{flag}")
    doc = record([r for s in sets for r in s.values()], args)
    (ARTIFACTS / "check_repeat.json").write_text(json.dumps(doc, indent=1))
    print("check-repeat:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True, help="chooses images, arrival schedule, conv inputs")
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all four, one after another")
    parser.add_argument("--seconds", type=float, help="size budget; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
    parser.add_argument("--traced", action="store_const", const="1", dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help=f"tiny counts (--seconds {SMOKE_SECONDS:g})")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run every workload twice, fail if a metric differs by more than its bound")
    parser.add_argument("--chrome-trace", action="store_true", help="write traces in Chrome's traceEvents layout")
    parser.add_argument("--out", type=Path, help="also write the whole record of this invocation there")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else default_seconds()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    ARTIFACTS.mkdir(parents=True, exist_ok=True)

    try:
        if args.check_repeat:
            return check_repeat(workloads, args)
        results = []
        for workload in workloads:
            for traced in {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]:
                result = run_child(workload, args.seed, args.seconds, traced, args.chrome_trace)
                print_result(result)
                results.append(result)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    doc = record(results, args)
    for result in results:
        suffix = "traced" if result["traced"] else "untraced"
        (ARTIFACTS / f"result_{result['workload']}_{suffix}.json").write_text(
            json.dumps({**doc, "results": [result]}, indent=1)
        )
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1))
    if len(results) == 1:
        print(json.dumps(contract_line(results[0])))
    else:
        print(json.dumps({
            "correct": doc["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "runs": [{"workload": r["workload"], "traced": r["traced"], **contract_line(r)} for r in results],
            "claim": None,
        }))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
