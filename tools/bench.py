"""Interleaved measurement of two checkouts of orbitlab.

    python3 tools/bench.py PARENT CHANGE MODE [MODE ...] [--only a,b] [--rounds 10]
                           [--seed 3001] [--seconds 25] [--json BENCH_label.json]

PARENT and CHANGE are repository roots.  Each MODE is one of:

  layers     the call sets of `call_sets`, with each checkout's src/orbitlab
             loaded in this one process as a package of its own:
             microseconds per call, each side's run repeated to at least
             MIN_RUN seconds.  A set's first run compares the two sides'
             outputs; a difference beyond a rounding (1e-12 relative, as when
             a sum's terms are added in another order) is a problem.
  workloads  each checkout's own `perfbench/run.py --workload W --seed S
             --seconds T --trace 0`: the metrics of the JSON object on the
             last line of its output.  A run that is not `correct` is a
             problem; a run that fails stops the tool.
  readme     the README's commands at reduced sizes (README_RUNS), each at
             --workers 1 and 2 in a fresh directory: the wall time and the
             command's own peak RSS (os.wait4, through LAUNCH).  Every run of a command,
             on either side, at either worker count and in every round, must
             exit with code 0, and its stdout and each file it wrote must
             have the SHA-256 they had in the command's first run; any other
             run is a problem.  The first run's hashes are the command's
             `check`.

`--only` keeps the names it lists, in every mode.  Each round runs every
name on both sides, and which side runs first alternates from round to
round, so that drifts of the machine's speed fall on both alike.  Per
metric the tool prints each side's lower quartile, median and upper
quartile over the rounds, the change/parent ratio of the medians and the
number of rounds in which the change read lower, then every problem; it
exits 1 when there is one.  `--json PATH` writes the same to PATH, with
each side's commit and size (tools/src_lines.py) and the machine's state.

Every mode runs on temporary copies of the two checkouts, without their
dot-files and `__pycache__` directories, and its subprocesses run with
PYTHONDONTWRITEBYTECODE=1: both sides compile their own modules in every
process, whatever bytecode the trees hold, while numpy and the standard
library load their installed bytecode, so `setup_s` compares alike imports.
Standard library and numpy only.
"""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
V0 = (1.3, 0.8)
MIN_RUN = 0.05  # seconds per set, side and round: shorter runs read the machine's drift
# The README's command block at reduced sizes, in its order: `replay` reads
# the trace that `approx` wrote in the same round.  The Monte Carlo commands
# take more than one 512-sample chunk, so that --workers 2 starts a pool.
README_RUNS = {
    "enumerate": "enumerate --T 1000000",
    "dump": "enumerate --T 10000 --dump ball.i64",
    "approx": "approx --u 1.41,1.73 --v 1.2,1.5 --budgets 256:1048576:2 --out trace.csv",
    "exponent": "exponent --u 1.41,1.73 --v 1.2,1.5 --budgets 256:134217728:2",
    "replay": "exponent --replay ../approx/trace.csv",
    "survey": "survey --pairs 10 --budgets 65536:18014398509481984:4 --seed 1 --out survey.csv",
    "uniform": "survey --mode uniform --omega 1,2,1,2 --eta 0.15 --kmax 100000 --samples 5",
    "hit-times": "hit-times --eta 0.25 --kmax 100000 --samples 20 --out hits.json",
    "ergodic-variance": "ergodic-variance --delta 0.1 --Ts 64:4096:2 --samples 1100 --out var.csv",
    "miss-rate": "miss-rate --delta 0.2 --Ts 16:4096:2 --samples 1100 --out miss.csv",
    "matcoef": "matcoef --delta 0.1 --ts 1:1024:2 --samples 1100 --out coef.csv",
}

# `LAUNCH + [path, *argv]` runs argv and writes its peak RSS in KiB to path.
# A command started straight from this process would count this process's
# peak as its own (Linux keeps the peak of the image a process replaces), so
# a small launcher forks it, takes its os.wait4 usage and exits as it did.
LAUNCH = [sys.executable, "-S", "-c", "import os, sys; pid = os.fork() or os.execv(sys.argv[2], sys.argv[2:]); "
          "_, status, usage = os.wait4(pid, 0); open(sys.argv[1], 'w').write(str(usage.ru_maxrss)); "
          "sys.exit(os.waitstatus_to_exitcode(status))"]


def load(root: Path, name: str):
    """The package root/src/orbitlab, loaded as the package name."""
    pkg = root / "src" / "orbitlab"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call_sets(ol, reps: np.ndarray, pairs: list) -> dict:
    """name -> (calls, thunk): the thunk makes `calls` calls of the package
    ol and returns their outputs."""
    spec, tall = ol.TargetSpec(*V0, 0.2), ol.TargetSpec(0.1, 3.0, 0.49)
    # the same points as reps[:300], through a non-reduced representative
    reduced, moved = list(reps[:2000]), [np.array([[2.0, 1.0], [1.0, 1.0]]) @ g for g in reps[:300]]
    # traces to 2^40 whose scans carry rows unusually: axis targets, seeds on
    # the axis (every row bears a candidate, and the carry outgrows its cap)
    # and a filter
    edges = [((1.37, 1.61), (1.5, 0.0), "full"), ((-1.83, 1.14), (0.0, -1.2), "full"), ((1.3, 0.0), (1.303, 0.796), "full"),
             ((1.3, 0.0), (0.0, 0.7), "full"), ((1.41, 1.73), (1.2, 1.5), "gamma0:3")]
    near = [((-0.1, 1.6), (1.1, 0.6), "gamma:2"), ((0.3, 0.6), (-0.3, -1.8), "full")]
    return {
        "member": (len(reduced), lambda: [ol.in_quotient_target(g, spec) for g in reduced]),
        "bump": (len(reduced), lambda: [ol.target_bump(g, spec) for g in reduced]),
        "member-tall": (len(reduced), lambda: [ol.in_quotient_target(g, tall) for g in reduced]),
        "bump-tall": (len(reduced), lambda: [ol.target_bump(g, tall) for g in reduced]),
        "nonreduced": (len(moved), lambda: [ol.in_quotient_target(g, spec) for g in moved]),
        "nonreduced-hit-set": (len(moved), lambda: [ol.hit_set(g, spec, 16) for g in moved]),
        "hit-set": (300, lambda: [ol.hit_set(g, spec, 16) for g in reduced[:300]]),
        "report": (64, lambda: [ol.shrinking_hit_report(0.25, g, 3 * 10**4, V0) for g in reduced[:64]]),
        "miss-rate": (1, lambda: ol.miss_rate_curve([16, 64, 256], 0.1, V0, 512, seed=1)),
        # uniform grids, whose slices of many targets pair a round's many hits
        # with many windows; at eta = 0.7 every level misses in its first slice
        "grid": (2, lambda: [ol.uniform_grid_experiment((1.0, 2.0, 1.0, 2.0), 0.15, g, 10**5) for g in reduced[:2]]),
        "grid-fine": (1, lambda: ol.uniform_grid_experiment((1.0, 2.0, 1.0, 2.0), 0.7, reduced[0], 10**4)),
        "best-approx": (len(pairs), lambda: [ol.best_approx(u, v, 11_000) for u, v in pairs]),
        "trace": (5, lambda: [ol.approx_trace(u, v, [4.0**k for k in range(8, 23)]).records for u, v in pairs[:5]]),
        # the README survey grid to 2^54, whose deep scans have rows beyond 2^22
        "deep-trace": (2, lambda: [ol.approx_trace(u, v, [4.0**k for k in range(8, 28)]).records for u, v in pairs[:2]]),
        "trace-edge": (len(edges), lambda: [ol.approx_trace(u, v, [4.0**k for k in range(8, 21)], ol.SubgroupFilter.parse(f)).records
                                            for u, v, f in edges]),
        # v = gamma*u in decimals: the best distance falls to a float rounding
        "near-hit": (len(near), lambda: [ol.approx_trace(u, v, [4.0**k for k in range(2, 13)], ol.SubgroupFilter.parse(f)).records
                                         for u, v, f in near]),
        # one 512-sample chunk of ergodic-variance at delta = 0.1, T = 64 .. 4096
        "variance": (1, lambda: ol.variance_curve(ol.TargetSpec(*V0, 0.1), [2**k for k in range(6, 13)], 512, seed=1)),
        "elements": (2, lambda: [ol.elements_array(2 * 10**4, ol.SubgroupFilter.parse(f)) for f in ("full", "gamma0:3")]),
        "count": (1, lambda: ol.count(10**5)),
        "count-gamma0": (2, lambda: [ol.count(5 * 10**4, ol.SubgroupFilter.gamma0(n)) for n in (3, 97)]),
        "count-gamma": (1, lambda: ol.count(5 * 10**4, ol.SubgroupFilter.gamma(2))),
    }


def leaves(x) -> list:
    """The values of an output in order, with the keys and field names that
    hold them, so that outputs of the two packages compare by value."""
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    x = [v for item in x.items() for v in item] if isinstance(x, dict) else x
    return [v for y in x for v in leaves(y)] if isinstance(x, (list, tuple, np.ndarray)) else [x]


def layers(roots: dict, args) -> tuple:
    sides = {side: load(root, f"orbitlab_{side}") for side, root in roots.items()}
    pairs = [(tuple(u), tuple(v)) for u, v in np.random.default_rng(11).uniform(1.0, 2.0, (20, 2, 2))]
    reps = sides["parent"].homogeneous._haar_reps(2000, seed=7)
    sets = {side: call_sets(ol, reps, pairs) for side, ol in sides.items()}
    repeats, checks = {}, {}

    def measure(name: str, side: str, r: int) -> tuple:
        calls, thunk = sets[side][name]
        if name not in repeats:  # compare the outputs, and size the runs
            t0 = time.perf_counter()
            a = leaves(thunk())
            repeats[name] = math.ceil(MIN_RUN / (time.perf_counter() - t0))
            b = leaves(sets[SIDES[side == "parent"]][name][1]())
            rel = [abs(x - y) / max(abs(x), abs(y)) if isinstance(x, float) and isinstance(y, float) else math.inf
                   for x, y in zip(a, b) if x != y] + [math.inf] * (len(a) != len(b))
            checks[name] = {"values": len(a), "differ": len(rel), "maxRel": max(rel, default=0.0)}
            print(f"{name:<16} outputs: {len(rel)} of {len(a)} values differ, by at most {checks[name]['maxRel']:.2g} relative")
        t0 = time.perf_counter()
        for _ in range(repeats[name]):
            thunk()
        spent = (time.perf_counter() - t0) / (calls * repeats[name])
        return {"us_per_call": (spent * 1e6, "us")}, ["outputs differ beyond a rounding"] * (checks[name]["maxRel"] > 1e-12)

    return list(sets["parent"]), measure, checks


def workloads(roots: dict, args) -> tuple:
    def measure(name: str, side: str, r: int) -> tuple:
        argv = [sys.executable, "perfbench/run.py", f"--workload={name}", f"--seed={args.seed}", f"--seconds={args.seconds!r}"]
        done = subprocess.run(argv + ["--trace=0"], cwd=roots[side], env=args.env[side], capture_output=True, text=True)
        if done.returncode != 0 or not done.stdout.strip():
            sys.exit(f"workloads {name} {side}: exit code {done.returncode}: {done.stderr.strip()[-500:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed = [f"{side}: {result['failed']} of {result['attempted']} checked results failed"]
        return {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}, failed * (not result["correct"])

    return ["ball", "survey", "shear"], measure, {}


def readme(roots: dict, args) -> tuple:
    first = {}

    def measure(name: str, side: str, r: int) -> tuple:
        metrics, problems = {}, []
        for workers in (1, 2):
            cwd = Path(args.tmp, "runs", f"{side}-{workers}-{r}", name)
            cwd.mkdir(parents=True)
            # ../name.rss from cwd is cwd.with_suffix(".rss")
            argv = [f"../{name}.rss", sys.executable, "-m", "orbitlab.cli", *README_RUNS[name].split(), f"--workers={workers}"]
            with open(cwd / "stdout", "wb") as out:  # hashed with the files the command writes
                t0 = time.perf_counter()
                rc = subprocess.run(LAUNCH + argv, cwd=cwd, env=args.env[side], stdout=out).returncode
                metrics[f"w{workers}_wall_s"] = (time.perf_counter() - t0, "s")
            metrics[f"w{workers}_peak_rss_mb"] = (int(cwd.with_suffix(".rss").read_text()) / 1024, "MiB")
            digest = {"exitCode": rc} | {p.name: sha256(p.read_bytes()).hexdigest() for p in sorted(cwd.iterdir())}
            if rc or digest != first.setdefault(name, digest):
                differ = sorted(k for k in digest.keys() | first[name].keys() if digest.get(k) != first[name].get(k))
                problems.append(f"{side} --workers {workers}: exit code {rc}, differs from the first run in {differ}")
        return metrics, problems

    return list(README_RUNS), measure, first


MODES = {"layers": layers, "workloads": workloads, "readme": readme}


def run(mode: str, names: list, measure, checks: dict, rounds: int) -> dict:
    """Each name's metrics over the rounds, summarised, printed and returned
    with its check and problems; the side that runs first alternates from
    round to round."""
    runs = {(name, side): [] for name in names for side in SIDES}
    for r in range(rounds):
        for name in names:
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                runs[name, side].append(measure(name, side, r))
    print(f"{mode}, {rounds} rounds: parent q1, median, q3 | change q1, median, q3 | median ratio, rounds change lower")
    out = {}
    for name in names:
        problems = dict.fromkeys(p for side in SIDES for _, found in runs[name, side] for p in found)
        out[name] = {"metrics": {}, "check": checks.get(name), "problems": list(problems)}
        for metric, (_, unit) in runs[name, "parent"][0][0].items():
            a, b = ([m[metric][0] for m, _ in runs[name, side]] for side in SIDES)
            row = dict(zip(SIDES, (statistics.quantiles(x if len(x) > 1 else x * 2, n=4, method="inclusive") for x in (a, b))))
            row |= {"unit": unit, "ratio": row["change"][1] / row["parent"][1], "changeLower": sum(y < x for x, y in zip(a, b))}
            q = " | ".join("".join(f"{x:>10.4g}" for x in row[side]) for side in SIDES)
            print(f"{name:<16} {metric:<16} {unit:<4}{q} | {row['ratio']:.3f} {row['changeLower']:>3}/{rounds}")
            out[name]["metrics"][metric] = row
    return out


def checkout(root: Path) -> dict:
    """A checkout's git commit, whether its tracked files differ from it, and
    the size of its package as tools/src_lines.py counts it."""
    from src_lines import counts  # here: the tests load this module without tools/ on sys.path

    head = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"],
                          capture_output=True, text=True).stdout.strip()
    return {"sha": head.removesuffix("-dirty") or None, "dirty": head.endswith("-dirty") if head else None,
            "srcLines": dict(zip(("lines", "code"), counts(root / "src" / "orbitlab")["total"]))}


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("modes", nargs="+", choices=MODES, metavar="MODE")
    ap.add_argument("--only", help="comma-separated names (default: every name of each mode)")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3001, help="workloads: the benchmark's --seed")
    ap.add_argument("--seconds", type=float, default=25.0, help="workloads: the benchmark's --seconds")
    ap.add_argument("--json", type=Path, help="write the results to this path")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    checkouts, load_start = {side: getattr(args, side).resolve() for side in SIDES}, os.getloadavg()
    with tempfile.TemporaryDirectory(prefix="orbitlab-bench-") as args.tmp:
        skip = shutil.ignore_patterns(".*", "__pycache__")
        roots = {side: Path(shutil.copytree(root, Path(args.tmp, side), ignore=skip)) for side, root in checkouts.items()}
        args.env = {s: dict(os.environ, PYTHONPATH=f"{r}/src", PYTHONDONTWRITEBYTECODE="1") for s, r in roots.items()}
        modes = {mode: MODES[mode](roots, args) for mode in args.modes}
        only = args.only.split(",") if args.only else [n for names, _, _ in modes.values() for n in names]
        if unknown := set(only).difference(*(names for names, _, _ in modes.values())):
            ap.error(f"unknown names {sorted(unknown)}")
        results = {m: run(m, [n for n in names if n in only], *rest, args.rounds) for m, (names, *rest) in modes.items()}
    problems = [f"{mode} {name}: {p}" for mode, res in results.items() for name, r in res.items() for p in r["problems"]]
    sys.stderr.write("".join(p + "\n" for p in problems))
    if args.json:
        meta = {side: checkout(root) for side, root in checkouts.items()} | {"loadavg": [load_start, os.getloadavg()]}
        meta |= {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__}
        options = {k: getattr(args, k) for k in ("modes", "only", "rounds", "seed", "seconds")}
        args.json.write_text(json.dumps({"meta": meta | {"options": options}, "modes": results}, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
