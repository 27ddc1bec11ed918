"""Interleaved in-process timing of two checkouts of orbitlab.

    python3 tools/ab_timing.py PARENT CHANGE [--rounds N] [--sets a,b]

PARENT and CHANGE are repository roots.  Each one's src/orbitlab is loaded
as a package of its own (orbitlab_parent, orbitlab_change) in this one
process, without writing bytecode into either tree.  Every call set is built
once on the same seeded inputs and run on both sides; it prints how many
output values differ, and stops when a value differs by more than a
rounding (RTOL relative, as when a sum's terms are added in another order).
Each round times every set on both sides, repeated to at least MIN_RUN
seconds, and which side runs first alternates from round to round, so that
drifts of the machine's speed fall on both alike.

Per set it prints, per side, the best, lower quartile, median and upper
quartile of the time per call over the rounds, then the change/parent
median ratio and the number of rounds in which the change read lower.
Standard library and numpy only; starts no subprocess.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

V0 = (1.3, 0.8)
RTOL = 1e-12
MIN_RUN = 0.05  # seconds per set, side and round: shorter runs read the machine's drift
BUDGETS = [4.0**k for k in range(8, 23)]


def load(root: str, name: str) -> dict:
    """The modules of root/src/orbitlab, loaded as the package name."""
    pkg = Path(root).resolve() / "src" / "orbitlab"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("homogeneous", "ergodic", "approx", "enumeration")}


def call_sets(side: dict, reps: np.ndarray, pairs: list) -> dict:
    """name -> (calls, thunk): the thunk makes `calls` calls of one side and
    returns their outputs."""
    hom, erg, apx, enu = side["homogeneous"], side["ergodic"], side["approx"], side["enumeration"]
    ball_filters = [enu.SubgroupFilter.full(), enu.SubgroupFilter.gamma0(3)]
    spec, tall = hom.TargetSpec(*V0, 0.2), hom.TargetSpec(0.1, 3.0, 0.49)
    word = np.array([[2.0, 1.0], [1.0, 1.0]])  # a non-reduced rep of the same point
    reduced, moved = list(reps[:2000]), [word @ g for g in reps[:300]]
    return {
        "member": (len(reduced), lambda: [hom.in_quotient_target(g, spec) for g in reduced]),
        "bump": (len(reduced), lambda: [hom.target_bump(g, spec) for g in reduced]),
        "member-tall": (len(reduced), lambda: [hom.in_quotient_target(g, tall) for g in reduced]),
        "bump-tall": (len(reduced), lambda: [hom.target_bump(g, tall) for g in reduced]),
        "nonreduced": (len(moved), lambda: [hom.in_quotient_target(g, spec) for g in moved]),
        "nonreduced-hit-set": (len(moved), lambda: [erg.hit_set(g, spec, 16) for g in moved]),
        "hit-set": (300, lambda: [erg.hit_set(g, spec, 16) for g in reduced[:300]]),
        "report": (64, lambda: [erg.shrinking_hit_report(0.25, g, 3 * 10**4, V0) for g in reduced[:64]]),
        "miss-rate": (1, lambda: erg.miss_rate_curve([16, 64, 256], 0.1, V0, 512, seed=1)),
        "best-approx": (len(pairs), lambda: [apx.best_approx(u, v, 11_000) for u, v in pairs]),
        "trace": (5, lambda: [apx.approx_trace(u, v, BUDGETS).records for u, v in pairs[:5]]),
        "elements": (2, lambda: [enu.elements_array(2 * 10**4, f) for f in ball_filters]),
        "count": (1, lambda: enu.count(10**5)),
        "count-gamma0": (2, lambda: [enu.count(5 * 10**4, enu.SubgroupFilter.gamma0(n)) for n in (3, 97)]),
        "count-gamma": (1, lambda: enu.count(5 * 10**4, enu.SubgroupFilter.gamma(2))),
    }


def leaves(x) -> list:
    """The values of an output in order, with the keys and field names that
    hold them, so that outputs of the two packages compare by value."""
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return [v for k, y in x.items() for v in [k, *leaves(y)]]
    if isinstance(x, (list, tuple, np.ndarray)):
        return [v for y in x for v in leaves(y)]
    return [x]


def compare(a, b) -> tuple:
    """(values, values that differ, largest relative difference) of two
    outputs; inf when they differ in shape or in a value that is not a
    float."""
    a, b = leaves(a), leaves(b)
    if len(a) != len(b):
        return len(a), len(a), float("inf")
    diff = [(x, y) for x, y in zip(a, b) if x != y]
    rel = 0.0
    for x, y in diff:
        floats = isinstance(x, float) and isinstance(y, float)
        rel = max(rel, abs(x - y) / max(abs(x), abs(y)) if floats else float("inf"))
    return len(a), len(diff), rel


def quartiles(xs: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return min(xs), q1, q2, q3


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--sets", default=None, help="comma-separated call sets (default: all)")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    sys.dont_write_bytecode = True
    sides = {"parent": load(args.parent, "orbitlab_parent"), "change": load(args.change, "orbitlab_change")}
    reps = sides["parent"]["homogeneous"]._haar_reps(2000, seed=7)
    rng = np.random.default_rng(11)
    pairs = [(tuple(rng.uniform(1.0, 2.0, 2)), tuple(rng.uniform(1.0, 2.0, 2))) for _ in range(20)]
    sets = {name: call_sets(side, reps, pairs) for name, side in sides.items()}
    names = list(sets["parent"]) if args.sets is None else args.sets.split(",")
    unknown = [n for n in names if n not in sets["parent"]]
    if unknown:
        ap.error(f"unknown call sets {unknown}; known: {','.join(sets['parent'])}")
    repeats = {}
    for name in names:
        t0 = time.perf_counter()
        out = sets["parent"][name][1]()
        repeats[name] = math.ceil(MIN_RUN / (time.perf_counter() - t0))
        n, n_diff, rel = compare(out, sets["change"][name][1]())
        print(f"{name:<12} outputs: {n_diff} of {n} values differ" + (f", by at most {rel:.2g} relative" if n_diff else ""))
        if rel > RTOL:
            print(f"{name}: the two sides return different outputs", file=sys.stderr)
            return 1
    times = {(name, side): [] for name in names for side in sides}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name in names:
            for side in order:
                calls, thunk = sets[side][name]
                t0 = time.perf_counter()
                for _ in range(repeats[name]):
                    thunk()
                times[name, side].append((time.perf_counter() - t0) / (calls * repeats[name]) * 1e6)
    print(f"{args.rounds} rounds, us per call: best, q1, median, q3")
    for name in names:
        a, b = times[name, "parent"], times[name, "change"]
        for side, xs in (("parent", a), ("change", b)):
            print(f"{name:<12} {side:<7}" + "".join(f"{x:>12.2f}" for x in quartiles(xs)))
        lower = sum(y < x for x, y in zip(a, b))
        ratio = statistics.median(b) / statistics.median(a)
        print(f"{name:<12} ratio {ratio:.3f}, change lower in {lower}/{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
