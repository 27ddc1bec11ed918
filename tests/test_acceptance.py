"""End-to-end acceptance gates.

Each test exercises one contract of the library at full desk scale and prints
a single PASS/FAIL line (run with ``pytest -s`` to see them).  Statistical
gates use fixed seeds and the stated tolerances; nothing is calibrated at run
time.
"""

import math
import os
import time

import numpy as np

from conftest import brute_min_dist
from orbitlab.approx import approx_trace, best_approx, estimate_exponents
from orbitlab.cli import main as cli_main
from orbitlab.enumeration import count, enumerate_ball
from orbitlab.ergodic import (
    hit_set,
    miss_rate_curve,
    shrinking_hit_report,
    variance_curve,
    window_hit_counts,
)
from orbitlab.errors import ExactHit
from orbitlab.homogeneous import (
    TargetSpec,
    Y_MAX,
    _haar_coords,
    _haar_reps,
    in_quotient_target,
    reduce_point,
    target_measure,
)
from orbitlab.matrices import iwasawa_decompose, lower_shear, udl_decompose
from test_homogeneous import sample_box_members
from test_matrices import random_group_elements

V0 = (1.3, 0.8)


def _report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}  {name}: {detail}  [{time.time()-t0:.1f}s]")
    return ok


def test_criterion_01_enumeration_exactness():
    t0 = time.time()
    m = math.isqrt(50)
    rng = range(-m, m + 1)
    brute = {}
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 1:
                        n = a * a + b * b + c * c + d * d
                        if n <= 50:
                            brute.setdefault(n, set()).add((a, b, c, d))
    bad = []
    for T in range(2, 51):
        want = set().union(*(s for n, s in brute.items() if n <= T)) if brute else set()
        got = {g.entries() for g in enumerate_ball(T)}
        if got != want:
            bad.append(T)
    ok = not bad
    assert _report(1, "enumeration exactness T=2..50", ok, f"mismatches at T={bad}" if bad else "exact at all 49 budgets", t0)


def test_criterion_02_enumeration_scaling():
    t0 = time.time()
    ratios = [count(T) / T for T in (10**4, 10**5, 10**6)]
    spread = (max(ratios) - min(ratios)) / min(ratios)
    ok = spread < 0.10
    assert _report(2, "count(T)/T stability", ok, f"ratios={[f'{r:.4f}' for r in ratios]} spread={spread:.2%}", t0)


def test_criterion_03_best_approximation_oracle(ball_1e4):
    t0 = time.time()
    rng = np.random.default_rng(20260301)
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(1, 2, 2)
        v = rng.uniform(1, 2, 2)
        rec = best_approx(u, v, 10_000)
        oracle = brute_min_dist(ball_1e4, u, v, 10_000)
        worst = max(worst, abs(rec.dist - oracle) / oracle)
    ok = worst <= 1e-9
    assert _report(3, "closest-point search vs brute force", ok, f"100 pairs, worst rel err {worst:.2e}", t0)


def test_criterion_04_exponent_window():
    t0 = time.time()
    # synthetic power laws pin the estimator exactly (trace-norm convention)
    from test_approx import synthetic_trace

    for s in (1.0 / 3.0, 0.5):
        est = estimate_exponents(synthetic_trace(s))
        assert abs(est.mu_hat - s) <= 1e-9
    # Statistical window over seeded random pairs.  The classical window
    # [1/3, 1/2] lives in the root-norm convention (trace-norm exponents are
    # exactly half), so budgets 2^8..2^27 are root-norm ball radii (trace
    # budgets 4^8..4^27) and the widened gate [0.25, 0.65] applies to the
    # root-norm slope.  Both readings are reported.
    rng = np.random.default_rng(20260302)
    budgets = [4.0**k for k in range(8, 28)]
    tr_slopes = []
    for _ in range(100):
        u = rng.uniform(1, 2, 2)
        v = rng.uniform(1, 2, 2)
        trace = approx_trace(u, v, budgets)
        try:
            tr_slopes.append(estimate_exponents(trace, tail_fraction=1.0).mu_hat)
        except ExactHit:
            tr_slopes.append(math.inf)
    tr_slopes = np.array(tr_slopes)
    frob = 2.0 * tr_slopes
    frac_frob = float(np.mean((frob >= 0.25) & (frob <= 0.65)))
    frac_trace = float(np.mean((tr_slopes >= 0.25) & (tr_slopes <= 0.65)))
    ok = frac_frob >= 0.90
    assert _report(
        4,
        "exponent estimates in the widened window",
        ok,
        f"synthetic exact; in [0.25,0.65]: root-norm {frac_frob:.0%} (trace-norm reading "
        f"{frac_trace:.0%}), median root-norm {np.median(frob):.3f}",
        t0,
    )


def test_criterion_05_hit_set_duality():
    t0 = time.time()
    rng = np.random.default_rng(20260303)
    K = 1000
    mismatches = 0
    reps = _haar_reps(50, seed=20260304)
    for i in range(50):
        spec = TargetSpec(
            rng.uniform(0.7, 2.0) * rng.choice([-1.0, 1.0]),
            rng.uniform(0.6, 2.0),
            rng.uniform(0.05, 0.3),
        )
        ks = set(hit_set(reps[i], spec, K).ks)
        brute = {
            k
            for k in range(-K, K + 1)
            if in_quotient_target(reduce_point(reps[i] @ lower_shear(k))[0], spec)
        }
        if ks != brute:
            mismatches += 1
    ok = mismatches == 0
    assert _report(5, "orbit-time duality, 50 configs K=1000", ok, f"{mismatches} mismatching hit sets", t0)


def test_criterion_06_target_measure():
    t0 = time.time()
    n = 10**6
    reps = _haar_reps(n, seed=20260305)
    details = []
    ok = True
    for delta in (0.2, 0.1, 0.05):
        spec = TargetSpec(*V0, delta)
        hits = sum(in_quotient_target(reps[i], spec) for i in range(n))
        frac = hits / n
        p = target_measure(spec, probe=64, seed=1)
        se = math.sqrt(p * (1.0 - p) / n)
        z = (frac - p) / se
        ok = ok and abs(z) <= 3.0
        details.append(f"d={delta}: mc={frac:.5f} analytic={p:.5f} z={z:+.2f}")
    assert _report(6, "box-target measure vs Monte Carlo", ok, "; ".join(details), t0)


def test_criterion_07_target_stability():
    t0 = time.time()
    spec = TargetSpec(*V0, 0.2)
    rng = np.random.default_rng(20260306)
    members = sample_box_members(spec, 1000, seed=20260307)
    failures = 0
    for pt in members:
        vv = (
            spec.v1 + rng.uniform(-spec.delta / 2, spec.delta / 2),
            spec.v2 + rng.uniform(-spec.delta / 2, spec.delta / 2),
        )
        if not in_quotient_target(pt, TargetSpec(vv[0], vv[1], 2 * spec.delta)):
            failures += 1
    ok = failures == 0
    assert _report(7, "target stability under center perturbation", ok, f"{failures}/1000 failures", t0)


def test_criterion_08_mean_ergodic_decay():
    t0 = time.time()
    spec = TargetSpec(*V0, 0.1)
    Ts = [2**k for k in range(6, 15)]
    curve = variance_curve(spec, Ts, 10**4, seed=20260308)
    x = np.log(np.array(Ts, dtype=float))
    y = np.log(np.array(curve.values))
    slope = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
    ok = slope <= -0.6
    assert _report(8, "orbit-average variance decay", ok, f"log-log slope {slope:.3f} (gate -0.6)", t0)


def test_criterion_09_missing_set_decay():
    t0 = time.time()
    Ts = [2**k for k in range(4, 13)]
    rates = miss_rate_curve(Ts, 0.2, V0, 10**4, seed=20260309)
    fr = np.array([m.fraction for m in rates])
    monotone = bool(np.all(np.diff(fr) <= 0))
    mask = (fr > 0) & (fr <= 0.5)
    x = np.log(np.array(Ts, dtype=float)[mask])
    y = np.log(fr[mask])
    slope = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
    ok = monotone and slope <= -0.5
    assert _report(
        9,
        "missing-orbit fraction decay",
        ok,
        f"slope {slope:.3f} over {int(mask.sum())} sub-0.5 points; exactly monotone: {monotone}",
        t0,
    )


def test_criterion_10_shrinking_target_regimes():
    t0 = time.time()
    k_max = 10**5
    reps = _haar_reps(50, seed=20260310)
    found = sum(
        1
        for i in range(50)
        if (T0 := shrinking_hit_report(0.25, reps[i], k_max, V0)["T0"]) is not None and T0 <= k_max / 2
    )
    frac_found = found / 50
    # fast-shrinking regime: aggregated late-window hit counts taper to zero
    n7 = 20_000
    reps7 = _haar_reps(n7, seed=20260311)
    agg = None
    for i in range(n7):
        cs = np.array([w["count"] for w in window_hit_counts(reps7[i], V0, 0.7, k_max)])
        agg = cs if agg is None else agg + cs
    last3 = agg[-3:]
    taper = bool(last3[0] >= last3[1] >= last3[2]) and last3[2] / n7 <= 0.01
    ok = frac_found >= 0.95 and taper
    assert _report(
        10,
        "shrinking-target regimes",
        ok,
        f"slow regime: T0 found {found}/50; fast regime last windows {last3.tolist()} "
        f"(rate {last3[2]/n7:.4f})",
        t0,
    )


def test_criterion_11_charts_and_sampler():
    t0 = time.time()
    mats = random_group_elements(100_000, seed=20260312)
    worst_iw = worst_ud = 0.0
    for g in mats:
        scale = np.abs(g).max()
        worst_iw = max(worst_iw, np.abs(iwasawa_decompose(g).recompose() - g).max() / scale)
        if abs(g[1, 1]) >= 0.01:
            worst_ud = max(worst_ud, np.abs(udl_decompose(g).recompose() - g).max() / scale)
    from scipy.integrate import quad

    x, y, th = _haar_coords(10**6, seed=20260313)
    area, _ = quad(lambda t: 2.0 * (1.0 / math.sqrt(1 - t * t) - 1.0 / Y_MAX), 0.0, 0.5)
    inv_y, _ = quad(lambda t: 2.0 * 0.5 * (1.0 / (1 - t * t) - 1.0 / Y_MAX**2), 0.0, 0.5)
    z1 = ((1.0 / y).mean() - inv_y / area) / ((1.0 / y).std() / math.sqrt(y.size))
    p2 = (0.5 - 1.0 / Y_MAX) / area
    z2 = ((y > 2.0).mean() - p2) / math.sqrt(p2 * (1 - p2) / y.size)
    ok = worst_iw <= 1e-12 and worst_ud <= 1e-12 and abs(z1) <= 3 and abs(z2) <= 3
    assert _report(
        11,
        "chart roundtrips and sampler moments",
        ok,
        f"roundtrip err {max(worst_iw, worst_ud):.2e}; moment z-scores {z1:+.2f}, {z2:+.2f}",
        t0,
    )


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.time()
    commands = [
        ("enumerate", "--T", "40", "--out", "OUT"),
        ("approx", "--u", "1.41,1.73", "--v", "1.2,1.5", "--budgets", "16:1024:2", "--out", "OUT"),
        ("exponent", "--u", "1.31,1.77", "--v", "1.5,1.25", "--budgets", "256:262144:2", "--out", "OUT"),
        ("survey", "--pairs", "2", "--budgets", "256:65536:2", "--seed", "9", "--out", "OUT"),
        ("hit-times", "--eta", "0.3", "--kmax", "1024", "--samples", "2", "--seed", "4", "--out", "OUT"),
        ("ergodic-variance", "--delta", "0.15", "--Ts", "16:256:4", "--samples", "400", "--seed", "2", "--out", "OUT"),
        ("miss-rate", "--delta", "0.2", "--Ts", "16:256:4", "--samples", "400", "--seed", "2", "--out", "OUT"),
        ("matcoef", "--delta", "0.15", "--ts", "1:64:4", "--samples", "400", "--seed", "2", "--out", "OUT"),
    ]
    bad = []
    for i, argv in enumerate(commands):
        p1 = str(tmp_path / f"{i}_a.out")
        p2 = str(tmp_path / f"{i}_b.out")
        rc1 = cli_main([x if x != "OUT" else p1 for x in argv] + ["--workers", "1"])
        rc2 = cli_main([x if x != "OUT" else p2 for x in argv] + ["--workers", "1"])
        # an empty output is no evidence of a deterministic run
        if rc1 != 0 or rc2 != 0 or open(p1, "rb").read() != open(p2, "rb").read() or os.path.getsize(p1) == 0:
            bad.append(argv[0])
    ok = not bad
    assert _report(12, "CLI rerun byte-identity", ok, f"nondeterministic: {bad}" if bad else "8/8 commands byte-identical", t0)
