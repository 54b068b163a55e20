"""Benchmark of the gicnof gap pipeline: one command, one workload per run.

    python3 perfbench/run.py --workload gap_random --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  Every operation is a call
into the public API from this one process and thread, after a warm-up.
The timed phase repeats whole rounds of the workload's operations until
--seconds have passed.  All outputs are then checked, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each operation
untraced and then recomposed layer by layer, reports the per-layer metrics
and trace.overhead_ms, and writes the spans to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("gap_random", "surface_40db", "gap_dense")


def import_program() -> float:
    """Import gicnof from this checkout and return the import time in seconds."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    start = time.perf_counter()
    import gicnof
    elapsed = time.perf_counter() - start
    if Path(gicnof.__file__).resolve().parent != ROOT / "src" / "gicnof":
        raise ImportError(f"gicnof came from {gicnof.__file__}, not from {ROOT / 'src'}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import harness

    print(json.dumps(harness.bench(args.workload, args.seed, args.seconds,
                                   bool(args.trace), import_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
