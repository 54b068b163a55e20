"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/bench_pairs.py --rev HEAD~1 --workload surface_40db \
        --seed 31 --pairs 10 --seconds 30 --out BENCH_<n>.json

The base revision is exported with `git archive <rev> | tar -x` into a
temporary directory.  Each pair runs the benchmark command of both trees,
`python3 perfbench/run.py --workload W --seed S --seconds T`, one after the
other: pair k uses seed S + k on both sides, and the side that runs first
alternates, the base first in even pairs.  Each tree runs its own
perfbench/ on its own src/.

The output file holds every run's result and, per metric, each side's
median and quartiles, the pairs the change won (ties count for neither)
and whether that is a gain: at least nine tenths of the pairs won, and the
medians apart by more than the base's interquartile distance, the better
way.  Which way is better comes from BENCHMARK.json.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def quantile(values, q: float) -> float:
    """The q-quantile of the values, interpolated linearly between the order
    statistics at position q * (n - 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def summarize(pairs: list[dict], better: dict) -> dict:
    """Per metric named in better ("higher" or "lower") and measured in
    every run: each side's median and quartiles over the pairs, the pairs
    the change won, and whether that is a gain.

    pairs holds one {"base": metrics, "change": metrics} per pair, metrics
    mapping a metric name to its value.
    """
    out = {}
    for name, way in better.items():
        if not all(name in pair[side] for pair in pairs for side in SIDES):
            continue
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        sign = 1.0 if way == "higher" else -1.0
        stats = {side: {"median": quantile(v, 0.5), "q1": quantile(v, 0.25),
                        "q3": quantile(v, 0.75)} for side, v in values.items()}
        wins = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
        spread = stats["base"]["q3"] - stats["base"]["q1"]
        ahead = sign * (stats["change"]["median"] - stats["base"]["median"])
        out[name] = {**stats, "better": way, "pairs": len(values["base"]),
                     "change_wins": wins,
                     "gain": wins >= 0.9 * len(values["base"]) and ahead > spread}
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the tree's benchmark command; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def export(rev: str, into: Path) -> str:
    """Write the tree of rev into the directory; return rev's commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="the base revision, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs, pairs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        commit = export(args.rev, Path(tmp))
        trees = {"base": Path(tmp), "change": ROOT}
        for k in range(args.pairs):
            seed = args.seed + k
            pair = {}
            for order, side in enumerate(SIDES if k % 2 == 0 else SIDES[::-1]):
                result = run_bench(trees[side], args.workload, seed, args.seconds)
                runs.append({"pair": k, "seed": seed, "side": side, "order": order, **result})
                pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
                print(f"pair {k} seed {seed} {side}: "
                      + ", ".join(f"{name} {v:.4g}" for name, v in pair[side].items()),
                      file=sys.stderr)
            pairs.append(pair)

    record = {
        "base_rev": args.rev,
        "base_commit": commit,
        "change": "working tree",
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "system": platform.system()},
        "summary": summarize(pairs, better),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
