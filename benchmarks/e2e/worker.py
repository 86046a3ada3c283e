"""Child process of the benchmark: runs one workload, prints one JSON line.

Started by ``run.py`` with a private, empty ``REPRO_CACHE``; the parent
passes its own wall-clock reading at spawn time, so ``setup_s`` counts
interpreter start-up and imports too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]


def _jsonable(value: object) -> object:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t-start", type=float, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--chrome-trace", action="store_true")
    args = parser.parse_args(argv)

    import workloads  # builds on repro: imported late so --help works anywhere

    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.traced), args.t_start,
        trace_path=args.trace_file, chrome=args.chrome_trace,
    )
    print(json.dumps(result, default=_jsonable), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
