"""The benchmark's three workloads: seeded inputs, timed calls and checks.

ball    Ball counting and materialization, then closest-point queries that mix
        filters, horizontal seeds (u2 = 0) and axis targets.  The family walk
        of the enumeration does nearly all the work; the strip search, the box
        kernel and the quotient code stay idle.  Op: one best_approx query.
survey  (u, v) pairs traced over the README budget grid 4^8 .. 4^27, then
        exponent estimates.  The strip search does the work: the direct scan
        up to 2^40, the reduced-basis box kernel beyond, one thin and long
        window per call.  Enumeration runs only at set-up (the phase-1 ball).
        Op: one pair traced over the grid's budgets up to 4^22 = 2^44; a few
        more pairs, not ops, run the whole grid.
shear   The quotient-side Monte Carlo.  The box kernel serves many tiny-window
        membership calls next to a few wide-window, bump-weighted curve
        calls; the plane side is idle.  Op: one shrinking_hit_report point.

Inputs come only from the workload seed; the program receives the generated
values (sample seeds included), never the workload seed itself.  Every call
that takes ``workers`` gets ``workers=1`` (run.py says why).  Each workload
also runs one README command of the CLI in-process.

Sizes are given for the nominal run length; ``scaled`` multiplies the counts
of repeated calls, so the work done (not the time spent) is fixed by the run
length and both sides of a comparison do the same work.
"""

from __future__ import annotations

import contextlib
import io
import math
from collections import Counter, namedtuple

import numpy as np

import orbitlab as ol
from orbitlab import cli
from orbitlab.ergodic import matcoef_curve, shrinking_hit_report, window_hit_counts
from orbitlab.matrices import lower_shear

from checks import INEXACT_TOL, ball_defects, check_best, check_witness, known_defect

V0 = (1.3, 0.8)  # the README target of the quotient-side commands
WARMUP_SEED = 424242  # throwaway input for the warm-up call; no workload uses it
# check reasons that mean a reported witness does not match its row
WITNESS_REASONS = frozenset(("det", "norm", "budget", "filter", "witness", "not_minimal"))


def geometric(spec: str) -> list:
    """Geometric grid 'lo:hi:ratio', read the way the CLI reads it."""
    lo, hi, ratio = (float(p) for p in spec.split(":"))
    out, t = [], lo
    while t <= hi * (1.0 + 1e-12):
        out.append(t)
        t *= ratio
    return out


def scaled(size: dict, scale: float) -> dict:
    """Sizes with the repeat counts (the keys named in size['repeat']) scaled."""
    out = dict(size)
    for key in size["repeat"]:
        out[key] = max(1, round(size[key] * scale))
    return out


def run_cli(rec, argv: list) -> tuple:
    """One in-process CLI command; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = rec.call("cli.main", cli.main, argv)
    return rc, buf.getvalue()


class Tally:
    """Checked results, failures by reason and by documented defect, and
    rounding error of distances."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.known = Counter()  # failures that show a documented defect exactly
        self.max_rel_err = 0.0
        self.inexact = 0
        self.cli_identical = 0
        self.wrong_witness = 0

    def result(self, reasons, known=None) -> None:
        """Counts one checked result; ``known`` names the documented defect
        its failure shows (checks.known_defect), if any."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)
            self.wrong_witness += bool(WITNESS_REASONS.intersection(reasons))
            if known:
                self.known[known] += 1

    @property
    def unexpected(self) -> int:
        """Failures that show no documented defect: these make a run incorrect."""
        return self.failed - sum(self.known.values())

    def rounding(self, reasons, err: float) -> None:
        # a wrong witness is a failure; only right witnesses measure rounding
        if "witness" not in reasons:
            self.max_rel_err = max(self.max_rel_err, err)
            self.inexact += err > INEXACT_TOL

    def cli(self, first: tuple, argv: list) -> None:
        """Checks the exit code, and a rerun of the command for byte identity."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        same = first[0] == 0 and rc == 0 and buf.getvalue() == first[1]
        self.cli_identical += same
        self.result([] if same else ["cli_rerun"])


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

BALL = {
    "repeat": ("rounds",),
    "rounds": 5,
    "queries": 20,  # per round
    "count_T": (100_000, 50_000, 50_000),  # round r counts count_T[r % 3] under filter r % 3
    "ball_T": 20_000,
    "query_T": (10_000, 12_000),
    "cli_T": 2_000,
}
# Every filter a query may carry, each level once.  The cost of a query
# depends on the level (gamma:2 ran about a fifth slower than gamma:3 at
# T = 1.1e4), so a level drawn per seed would make the median op depend on
# the draw; cycling through all of them gives every seed the same mix.
QUERY_FILTERS = (("full", 1), ("gamma0", 2), ("gamma0", 3), ("gamma0", 4), ("gamma0", 5), ("gamma", 2), ("gamma", 3))
BALL_PROBE = dict(BALL, rounds=1, queries=3, count_T=(3_000,), ball_T=3_000, query_T=(2_000, 2_500), cli_T=200)


def ball_inputs(seed: int, size: dict) -> dict:
    rng = np.random.default_rng([seed, 1])
    filters = [("full", 1), ("gamma0", int(rng.integers(2, 6))), ("gamma", int(rng.integers(2, 4)))]
    rounds = []
    for r in range(size["rounds"]):
        T = size["count_T"][r % len(size["count_T"])]
        count = (float(math.floor(T * rng.uniform(0.95, 1.0))), filters[r % 3])
        queries = []
        for i in range(size["queries"]):
            # i % 4 picks a generic seed, a horizontal seed (u2 = 0) or an
            # axis target, (i + 3 r) % 7 the filter, so every combination recurs
            kind = i % 4
            u = (float(rng.uniform(1, 2) * rng.choice((-1.0, 1.0))), 0.0 if kind == 1 else float(rng.uniform(1, 2)))
            v = rng.uniform(-2, 2, 2)
            if kind == 2:
                v[(i // 4) % 2] = 0.0
            T = float(math.floor(rng.uniform(*size["query_T"])))
            queries.append((u, (float(v[0]), float(v[1])), T, QUERY_FILTERS[(i + 3 * r) % len(QUERY_FILTERS)]))
        rounds.append((count, queries))
    cli_T = size["cli_T"] + int(rng.integers(0, 100))
    return {
        "ball_T": float(size["ball_T"]),
        "rounds": rounds,
        "cli": ["enumerate", "--T", str(cli_T), "--workers", "1"],
    }


def ball_run(inp: dict, rec) -> dict:
    out = {"counts": [], "queries": []}
    rec.phase = "materialize"
    T = inp["ball_T"]
    out["ball_count"] = rec.call("enumeration.count", ol.count, T, workers=1)
    out["ball"] = rec.call("enumeration.elements_array", ol.elements_array, T)
    rec.count("elems_counted", out["ball_count"] or 0)
    rec.count("rows_materialized", 0 if out["ball"] is None else len(out["ball"]))
    # rounds interleave counting and queries, so each kind of call samples
    # the whole run and not one stretch of a machine whose speed drifts
    for (T, (kind, level)), queries in inp["rounds"]:
        rec.phase = "count"
        n = rec.call("enumeration.count", ol.count, T, ol.SubgroupFilter(kind, level), workers=1)
        rec.count("elems_counted", n or 0)
        out["counts"].append(n)
        rec.phase = "query"
        for u, v, T, (kind, level) in queries:
            with rec.op():
                r = rec.call("approx.best_approx", ol.best_approx, u, v, T, ol.SubgroupFilter(kind, level), workers=1)
            out["queries"].append(r)
    rec.phase = "cli"
    out["cli"] = run_cli(rec, inp["cli"])
    return out


def ball_check(inp: dict, out: dict) -> Tally:
    t = Tally()
    for n in out["counts"]:
        t.result([] if isinstance(n, int) and n > 0 else ["raised"])
    ball, n_ball = out["ball"], out["ball_count"]
    if ball is None or n_ball is None:
        t.result(["raised"])
    else:
        t.result(ball_defects(ball, inp["ball_T"]) + ([] if n_ball == len(ball) else ["count_mismatch"]))
    queries = [q for _, round_queries in inp["rounds"] for q in round_queries]
    for (u, v, T, (kind, level)), r in zip(queries, out["queries"]):
        if r is None or ball is None:
            t.result(["raised"])
            continue
        reasons, err = check_best(T, r.dist, r.gamma_norm, r.gamma.entries(), u, v, ball, kind, level)
        t.result(reasons, known_defect(reasons, r.dist, r.gamma.entries(), u, v, kind))
        t.rounding(reasons, err)
    t.cli(out["cli"], inp["cli"])
    return t


def ball_warm_up() -> None:
    ol.count(2_000, workers=1)
    ol.best_approx((1.13, 1.71), (0.37, -0.41), 2_000, workers=1)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

SURVEY = {
    "repeat": ("pairs", "deep_pairs"),
    # A pair over the whole README grid costs 0.8 to 3 s, as its orbit
    # happens to approximate v well or badly at the deep budgets: the 15 or
    # so such pairs a run has room for left the median op 0.15 to 0.25 apart
    # between seeds.  Ops therefore stop at 2^44 (the direct scan and the
    # first box-kernel budgets; 0.5 to 0.9 s a pair), and a few deep pairs
    # run the whole grid, where the rounding error of deep budgets shows.
    "pairs": 30,
    "grid": "65536:17592186044416:4",
    "deep_pairs": 4,
    "deep_grid": "65536:18014398509481984:4",
    "cli_grid": "65536:1073741824:4",
}
SURVEY_PROBE = dict(
    SURVEY, pairs=1, grid="4096:17592186044416:4", deep_pairs=0, cli_grid="16:1048576:2"
)


def survey_inputs(seed: int, size: dict) -> dict:
    rng = np.random.default_rng([seed, 2])
    # Latin hypercube over (u1, u2, v1, v2) in [1, 2]^4: each coordinate has
    # one pair in each of n equal slices, so the cost of a run, which follows
    # the size of u, varies less from seed to seed than with i.i.d. pairs
    n, m = size["pairs"], size["deep_pairs"]
    cube = 1.0 + (np.array([rng.permutation(n + m) for _ in range(4)]).T + rng.uniform(0, 1, (n + m, 4))) / (n + m)
    deep = set()
    if m:  # deep pairs sit evenly among the ops, so both sample the whole run
        step = (n + m) // m
        deep = set(range(step // 2, n + m, step)[:m])
    pairs = [(tuple(row[:2]), tuple(row[2:]), i in deep) for i, row in enumerate(cube.tolist())]
    cli_seed = int(rng.integers(0, 2**31))
    return {
        "budgets": geometric(size["grid"]),
        "deep_budgets": geometric(size["deep_grid"]),
        "pairs": pairs,
        "cli": ["survey", "--pairs", "1", "--budgets", size["cli_grid"], "--seed", str(cli_seed), "--workers", "1"],
    }


def _estimate(trace):
    try:
        return ol.estimate_exponents(trace)
    except ol.ExactHit:  # a documented outcome, not an error
        return "exact-hit"


def survey_run(inp: dict, rec) -> dict:
    out = {"traces": []}
    for u, v, deep in inp["pairs"]:
        rec.phase = "deep_pair" if deep else "pair"
        with contextlib.nullcontext() if deep else rec.op():
            tr = rec.call("approx.approx_trace", ol.approx_trace, u, v, inp["deep_budgets" if deep else "budgets"])
            est = None if tr is None else rec.call("approx.estimate_exponents", _estimate, tr)
        out["traces"].append((tr, est))
        if tr is not None:
            d = tr.dists()
            rec.count("budgets_resolved", len(d))
            rec.count("budgets_scanned", len(d) - 1)
            rec.count("budgets_improved", int(np.sum(d[1:] < d[:-1])))
    rec.phase = "cli"
    out["cli"] = run_cli(rec, inp["cli"])
    return out


def survey_check(inp: dict, out: dict) -> Tally:
    t = Tally()
    for (u, v, _), (tr, est) in zip(inp["pairs"], out["traces"]):
        if tr is None:
            t.result(["raised"])
            continue
        t.result([] if est is not None else ["raised"])
        for T, dist, norm, a, b, c, d in tr.rows():
            reasons, err, _ = check_witness(T, dist, norm, (a, b, c, d), u, v)
            t.result(reasons, known_defect(reasons, dist, (a, b, c, d), u, v))
            t.rounding(reasons, err)
    t.cli(out["cli"], inp["cli"])
    return t


def survey_warm_up() -> None:
    # fills the phase-1 ball cache the README grid starts from
    ol.approx_trace((1.17, 1.61), (1.43, 1.29), [65536.0, 262144.0])


# ---------------------------------------------------------------------------
# shear
# ---------------------------------------------------------------------------

SHEAR = {
    "repeat": ("rounds",),
    "rounds": 6,
    # per round:
    "membership": 400,
    "bump": 60,
    "dual": 8,
    "dual_K": 64,
    "variance": 60,
    "variance_Ts": "64:16384:2",
    "miss": 100,
    "miss_Ts": "16:4096:2",
    "matcoef": 100,
    "matcoef_ts": "16:4096:2",
    "windows": 4,
    "window_kmax": 100_000,
    "grid_points": 1,
    "grid_kmax": 10_000,
    "reports": 36,
    "report_kmax": 30_000,
    "cli_samples": 200,
}
SHEAR_PROBE = dict(
    SHEAR, rounds=1, membership=64, bump=8, dual=2, dual_K=16, variance=8, miss=16, matcoef=8,
    windows=2, window_kmax=1_000, grid_kmax=256, reports=8, report_kmax=1_000, cli_samples=16,
)


def shear_inputs(seed: int, size: dict) -> dict:
    rng = np.random.default_rng([seed, 3])
    rounds = []
    for _ in range(size["rounds"]):
        seeds = [int(s) for s in rng.integers(0, 2**31, 4)]
        dual = [
            (float(rng.uniform(0.7, 2.0) * rng.choice((-1.0, 1.0))), float(rng.uniform(0.6, 2.0)), float(rng.uniform(0.05, 0.3)))
            for _ in range(size["dual"])
        ]
        rounds.append({"sample_seed": seeds[0], "curve_seeds": seeds[1:], "dual": dual})
    n_points = max(size[k] for k in ("membership", "bump", "dual", "windows", "grid_points", "reports"))
    return {
        "size": size,
        "n_points": n_points,
        "rounds": rounds,
        "cli": [
            "miss-rate", "--delta", "0.2", "--Ts", "16:256:4", "--samples", str(size["cli_samples"]),
            "--seed", str(int(rng.integers(0, 2**31))), "--workers", "1",
        ],
    }


def shear_round(rnd: dict, size: dict, rec, out: dict) -> None:
    """One round: every kind of call once, on the round's own sample."""
    rec.phase = "sample"
    pts = rec.call("homogeneous.haar_sample", ol.haar_sample, size["n_points"], rnd["sample_seed"]) or []
    out["n_points"].append(len(pts))

    rec.phase = "membership"
    specs = [ol.TargetSpec(*V0, delta) for delta in (0.2, 0.1, 0.05)]
    for p in pts[: size["membership"]]:
        row = [rec.call("homogeneous.in_quotient_target", ol.in_quotient_target, p, s) for s in specs]
        rec.count("membership_hits", sum(x is True for x in row))
        out["member"].append(row)

    rec.phase = "bump"
    spec = ol.TargetSpec(*V0, 0.1)
    out["bump"] += [rec.call("homogeneous.target_bump", ol.target_bump, p, spec) for p in pts[: size["bump"]]]

    rec.phase = "duality"
    K = size["dual_K"]
    for p, target in zip(pts, rnd["dual"]):
        tspec = ol.TargetSpec(*target)
        hs = rec.call("ergodic.hit_set", ol.hit_set, p, tspec, K)
        brute = set()
        for k in range(-K, K + 1):
            q = rec.call("homogeneous.reduce_point", ol.reduce_point, p.rep @ lower_shear(k))
            hit = q is not None and rec.call("homogeneous.in_quotient_target", ol.in_quotient_target, q[0], tspec)
            rec.count("membership_hits", hit is True)
            if hit:
                brute.add(k)
        rec.count("hits_total", 0 if hs is None else len(hs))
        out["dual"].append((hs, brute))

    rec.phase = "curves"
    s_var, s_miss, s_mc = rnd["curve_seeds"]
    Ts = [int(T) for T in geometric(size["variance_Ts"])]
    out["variance"].append(rec.call("ergodic.variance_curve", ol.variance_curve, spec, Ts, size["variance"], s_var, workers=1))
    Ts = [int(T) for T in geometric(size["miss_Ts"])]
    out["miss"].append(rec.call("ergodic.miss_rate_curve", ol.miss_rate_curve, Ts, 0.2, V0, size["miss"], s_miss, workers=1))
    ts = geometric(size["matcoef_ts"])
    out["matcoef"].append(rec.call("ergodic.matcoef_curve", matcoef_curve, spec, ts, size["matcoef"], s_mc, workers=1))

    rec.phase = "windows"
    for p in pts[: size["windows"]]:
        w = rec.call("ergodic.window_hit_counts", window_hit_counts, p, V0, 0.25, size["window_kmax"])
        rec.count("hits_total", 0 if w is None else sum(x["count"] for x in w))
        out["windows"].append(w)

    rec.phase = "uniform_grid"
    out["grid"] += [
        rec.call("ergodic.uniform_grid_experiment", ol.uniform_grid_experiment, (1.0, 2.0, 1.0, 2.0), 0.15, p, size["grid_kmax"])
        for p in pts[: size["grid_points"]]
    ]

    rec.phase = "report"
    for p in pts[: size["reports"]]:
        with rec.op():
            r = rec.call("ergodic.shrinking_hit_report", shrinking_hit_report, 0.25, p, size["report_kmax"], V0)
        rec.count("hits_total", 0 if r is None else sum(lv["hit"] for lv in r["levels"]))
        out["reports"].append(r)


def shear_run(inp: dict, rec) -> dict:
    out = {k: [] for k in ("n_points", "member", "bump", "dual", "variance", "miss", "matcoef", "windows", "grid", "reports")}
    size = dict(inp["size"], n_points=inp["n_points"])
    # rounds spread each kind of call over the whole run (see ball_run)
    for rnd in inp["rounds"]:
        shear_round(rnd, size, rec, out)
    rec.phase = "cli"
    out["cli"] = run_cli(rec, inp["cli"])
    return out


def _certified(T0, k_max) -> bool:
    return T0 is None or (T0 >= 1 and T0 & (T0 - 1) == 0 and T0 <= k_max / 2)


def shear_check(inp: dict, out: dict) -> Tally:
    size = inp["size"]
    t = Tally()
    for n in out["n_points"]:
        t.result([] if n == inp["n_points"] else ["raised"])
    for row in out["member"]:
        if any(x is None for x in row):
            t.result(["raised"])
        else:
            # the boxes are nested: a hit at delta = 0.05 is a hit at 0.1 and 0.2
            t.result([] if row[0] >= row[1] >= row[2] else ["nesting"])
    for b in out["bump"]:
        t.result([] if b is not None and math.isfinite(b) and b >= 0.0 else ["bump"])
    for hs, brute in out["dual"]:
        t.result(["raised"] if hs is None else ([] if set(hs.ks) == brute else ["duality"]))
    for var in out["variance"]:
        t.result([] if var is not None and all(math.isfinite(x) and x >= 0.0 for x in var.values) else ["variance"])
    for miss in out["miss"]:
        fr = [] if miss is None else [m.fraction for m in miss]
        monotone = all(0.0 <= x <= 1.0 for x in fr) and all(b <= a for a, b in zip(fr, fr[1:]))
        t.result([] if miss is not None and monotone else ["miss_monotone"])
    for mc in out["matcoef"]:
        t.result([] if mc is not None and all(math.isfinite(x) for x in mc[0]) else ["matcoef"])
    for w in out["windows"]:
        t.result([] if w is not None and all(x["count"] >= 0 for x in w) else ["windows"])
    for g in out["grid"]:
        t.result([] if g is not None and _certified(g.T0, size["grid_kmax"]) else ["uniform_grid"])
    for r in out["reports"]:
        t.result([] if r is not None and _certified(r["T0"], size["report_kmax"]) else ["report"])
    t.cli(out["cli"], inp["cli"])
    return t


def shear_warm_up() -> None:
    # the first Philox block, the bump normalizer quadrature and the box kernel
    pts = ol.haar_sample(8, WARMUP_SEED)
    ol.bump(0.0)
    spec = ol.TargetSpec(*V0, 0.2)
    for p in pts:
        ol.in_quotient_target(p, spec)
        ol.target_bump(p, spec)


Workload = namedtuple("Workload", "warm_up size probe_size inputs run check")
WORKLOADS = {
    "ball": Workload(ball_warm_up, BALL, BALL_PROBE, ball_inputs, ball_run, ball_check),
    "survey": Workload(survey_warm_up, SURVEY, SURVEY_PROBE, survey_inputs, survey_run, survey_check),
    "shear": Workload(shear_warm_up, SHEAR, SHEAR_PROBE, shear_inputs, shear_run, shear_check),
}
