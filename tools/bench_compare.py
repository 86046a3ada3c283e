#!/usr/bin/env python
"""Diff current BENCH_*.json benchmark records against a baseline set.

Usage::

    PYTHONPATH=src python tools/bench_compare.py \
        [--baseline bench_artifacts/baselines] [--current bench_artifacts] \
        [--threshold 0.25] [--warn-only] [--markdown] [name ...]

For every ``BENCH_<name>.json`` in the baseline directory (or just the
names given), the matching current record is loaded, both are validated
against the ``repro.bench/1`` schema, and their timing ``results`` are
compared.  Any key that got more than ``threshold`` slower (default
25%) is a regression; schema violations and baselines with no current
counterpart are also failures.

``--markdown`` additionally prints one GitHub-Markdown table row per
compared key (``| name | key | baseline | current | ratio | status |``),
ready to paste into a PR description.

Exit status: 0 clean, 1 regressions or invalid/missing records —
unless ``--warn-only`` (the CI bench-smoke default, since shared
runners make wall-clock noisy), which always exits 0 after printing
the same report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.bench.record import compare_records, load_record, record_path  # noqa: E402


def _fmt_seconds(v: float) -> str:
    return f"{v:.6g}"


def markdown_rows(name: str, diff: dict) -> list[str]:
    """One GitHub-Markdown table row per compared key (see module doc)."""
    rows = []
    for row in diff["rows"]:
        status = "regression" if row["regression"] else "ok"
        # Keys carry their own unit (".ms" / ".seconds"), so values are
        # printed bare.
        rows.append(
            f"| {name} | {row['key']} | {_fmt_seconds(row['baseline'])} "
            f"| {_fmt_seconds(row['current'])} | {row['ratio']:.2f}x | {status} |"
        )
    return rows


def compare_pair(
    base_path: Path, cur_path: Path, threshold: float
) -> tuple[bool, list[str], dict | None]:
    """(ok, report lines, diff) for one baseline/current record pair."""
    lines: list[str] = []
    try:
        baseline = load_record(base_path)
    except (ValueError, OSError) as exc:
        return False, [f"  INVALID baseline: {exc}"], None
    if not cur_path.exists():
        return (
            False,
            [f"  MISSING current record {cur_path.name} (benchmark not run?)"],
            None,
        )
    try:
        current = load_record(cur_path)
    except (ValueError, OSError) as exc:
        return False, [f"  INVALID current record: {exc}"], None

    diff = compare_records(baseline, current, threshold=threshold)
    if not diff["env_match"]:
        lines.append(
            "  note: environment fingerprints differ "
            f"(baseline {baseline['env']} vs current {current['env']}) — "
            "timings are not apples-to-apples"
        )
    for row in diff["rows"]:
        marker = "REGRESSION" if row["regression"] else "ok"
        lines.append(
            f"  {marker:>10}  {row['key']}: "
            f"{_fmt_seconds(row['baseline'])} -> {_fmt_seconds(row['current'])} "
            f"({row['ratio']:.2f}x)"
        )
    for key in diff["missing"]:
        lines.append(f"  {'MISSING':>10}  {key}: present in baseline only")
    ok = not diff["regressions"] and not diff["missing"]
    return ok, lines, diff


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        help="benchmark names (default: every BENCH_*.json in the baseline dir)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO / "bench_artifacts" / "baselines",
        help="directory holding the committed baseline records",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=REPO / "bench_artifacts",
        help="directory holding the freshly emitted records",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed slowdown fraction before a key counts as a regression",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="print the full report but always exit 0",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="also print a GitHub-Markdown comparison table (PR-ready)",
    )
    args = parser.parse_args(argv)

    if args.names:
        pairs = [(record_path(args.baseline, n), record_path(args.current, n)) for n in args.names]
    else:
        pairs = [
            (p, args.current / p.name) for p in sorted(args.baseline.glob("BENCH_*.json"))
        ]
    if not pairs:
        print(f"no baseline records under {args.baseline}")
        return 0 if args.warn_only else 1

    failures = 0
    md_lines: list[str] = []
    for base_path, cur_path in pairs:
        name = base_path.stem.removeprefix("BENCH_")
        ok, lines, diff = compare_pair(base_path, cur_path, args.threshold)
        status = "OK" if ok else "FAIL"
        print(f"{status}  {name}")
        print("\n".join(lines))
        failures += 0 if ok else 1
        if args.markdown and diff is not None:
            md_lines.extend(markdown_rows(name, diff))

    if args.markdown and md_lines:
        print("\n| benchmark | key | baseline | current | ratio | status |")
        print("|---|---|---|---|---|---|")
        print("\n".join(md_lines))

    print(
        f"\n{len(pairs) - failures}/{len(pairs)} benchmark records within "
        f"{args.threshold:.0%} of baseline"
    )
    if failures and args.warn_only:
        print("warn-only: regressions reported but not failing the run")
    return 0 if (args.warn_only or not failures) else 1


if __name__ == "__main__":
    sys.exit(main())
