"""Alternating benchmark runs of two checkouts of orbitlab.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seed 3001] [--seconds 25]

PARENT and CHANGE are repository roots.  Each pair runs each checkout's own
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once, in a
process of its own, and reads the JSON object on the last line of its
output; which side runs first alternates from pair to pair, so that drifts
of the machine's speed fall on both alike.  The runs write no bytecode.

Per metric it prints, per side, the lower quartile, median and upper
quartile over the pairs, then the change/parent ratio of the medians and
the number of pairs in which the change read lower.  It exits 1 when a run
fails or reports `"correct": false`.

The benchmark's workers import orbitlab without writing bytecode, so a tree
that holds `src/orbitlab/__pycache__` from an earlier test run imports
faster than one that does not, which shows in `setup_s`.  The tool warns
when exactly one of the two trees holds it; it deletes nothing.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, args) -> dict:
    """The last-line JSON object of one benchmark run of the checkout root."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit code {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: the run is not correct ({result['failed']} of {result['attempted']} failed)")
    return result["metrics"]


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3001)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    cached = [side for side, root in roots.items() if (root / "src" / "orbitlab" / "__pycache__").is_dir()]
    if len(cached) == 1:
        print(f"warning: only the {cached[0]} tree holds src/orbitlab/__pycache__, so setup_s compares"
              " a cached import with a compiled one", file=sys.stderr)
    metrics = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                metrics[side].append(run(roots[side], args))
            except RuntimeError as exc:
                print(f"{side} run {i + 1}: {exc}", file=sys.stderr)
                return 1
    print(f"{args.workload}, seed {args.seed}, --seconds {args.seconds:g}, {args.pairs} pairs: q1, median, q3")
    for name, unit in ((k, v["unit"]) for k, v in metrics["parent"][0].items()):
        a = [m[name]["value"] for m in metrics["parent"]]
        b = [m[name]["value"] for m in metrics["change"]]
        for side, xs in (("parent", a), ("change", b)):
            print(f"{name:<12} {side:<7}" + "".join(f"{x:>12.4g}" for x in quartiles(xs)) + f" {unit}")
        lower = sum(y < x for x, y in zip(a, b))
        ratio = statistics.median(b) / statistics.median(a)
        print(f"{name:<12} ratio {ratio:.3f}, change lower in {lower}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
