import math

import numpy as np
import pytest

import orbitlab.ergodic as ergodic_mod
import orbitlab.homogeneous as homogeneous_mod
from orbitlab.ergodic import (
    _certified_T0,
    _delta_cap,
    _dyadic_levels,
    _hit_times,
    hit_set,
    matcoef_curve,
    matrix_coefficient,
    miss_rate,
    miss_rate_curve,
    orbit_average,
    shrinking_hit_experiment,
    shrinking_hit_report,
    uniform_grid_experiment,
    variance_curve,
    window_hit_counts,
)
from orbitlab.homogeneous import (
    HomPoint,
    TargetSpec,
    _box_candidates,
    _haar_reps,
    bump_mean,
    haar_sample,
    in_quotient_target,
    reduce_point,
    target_bump,
)
from orbitlab.matrices import lower_shear

V0 = (1.3, 0.8)
SPEC = TargetSpec(*V0, 0.2)


def test_orbit_average_constant_and_range():
    pts = haar_sample(5, seed=1)
    for pt in pts:
        assert orbit_average(lambda q: 1.0, pt, 7) == pytest.approx(1.0, rel=1e-15)
        assert orbit_average(lambda q: 0.25, pt, 0) == 0.25
        vals = [target_bump(reduce_point(pt.rep @ lower_shear(k))[0], SPEC) for k in range(-9, 10)]
        avg = orbit_average(lambda q: target_bump(q, SPEC), pt, 9)
        assert min(vals) - 1e-12 <= avg <= max(vals) + 1e-12


def test_orbit_average_linear():
    pt = haar_sample(1, seed=2)[0]
    spec2 = TargetSpec(1.1, 0.9, 0.15)
    f = lambda q: target_bump(q, SPEC)
    g = lambda q: target_bump(q, spec2)
    lhs = orbit_average(lambda q: 2.0 * f(q) - 3.0 * g(q), pt, 12)
    rhs = 2.0 * orbit_average(f, pt, 12) - 3.0 * orbit_average(g, pt, 12)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


def test_fast_average_matches_literal_operator():
    # the candidate-kernel computation of the orbit average of the bump must
    # equal the literal translate-reduce-evaluate sum
    spec = TargetSpec(*V0, 0.25)
    reps = _haar_reps(40, seed=3)
    curve = variance_curve(spec, [13], 40, seed=3)
    m = bump_mean(spec)
    acc = 0.0
    for i in range(40):
        beta = orbit_average(lambda q: target_bump(q, spec), HomPoint(reps[i]), 13)
        acc += (beta - m) ** 2
    assert curve.values[0] == pytest.approx(acc / 40, rel=1e-9)


def test_hit_set_center_and_reverification():
    g = np.array(
        [[(1.0 + V0[0] * 0.0) / V0[1], V0[0]], [0.0, V0[1]]]
    )  # second column exactly at the target, shear 0
    hs = hit_set(g, SPEC, 50)
    assert 0 in hs.ks
    pt = haar_sample(1, seed=5)[0]
    hs = hit_set(pt, SPEC, 300)
    for k in hs.ks:
        assert in_quotient_target(reduce_point(pt.rep @ lower_shear(k))[0], SPEC)


def test_hit_set_nested_and_empty():
    pt = haar_sample(1, seed=6)[0]
    a = hit_set(pt, SPEC, 100)
    b = hit_set(pt, SPEC, 400)
    assert set(a.ks) <= set(b.ks)
    tiny = TargetSpec(5.0, 5.0, 1e-5)
    assert hit_set(pt, tiny, 100).ks == ()


def test_hit_set_matches_translate_brute_force():
    # duality: kernel-side hit times equal membership of each translate
    reps = _haar_reps(10, seed=7)
    K = 200
    for i in range(10):
        ks = set(hit_set(reps[i], SPEC, K).ks)
        brute = {
            k
            for k in range(-K, K + 1)
            if in_quotient_target(reduce_point(reps[i] @ lower_shear(k))[0], SPEC)
        }
        assert ks == brute


def test_variance_curve_reproducible_and_worker_stable():
    spec = TargetSpec(*V0, 0.1)
    a = variance_curve(spec, [16, 64], 600, seed=8)
    b = variance_curve(spec, [16, 64], 600, seed=8)
    assert a.values == b.values and a.stderrs == b.stderrs
    c = variance_curve(spec, [16, 64], 600, seed=8, workers=2)
    assert c.values == a.values  # fixed chunking makes sums identical


def test_variance_contracts_toward_mean():
    spec = TargetSpec(*V0, 0.25)
    curve = variance_curve(spec, [0, 4096], 3000, seed=9)
    v0, vT = curve.values
    s0, sT = curve.stderrs
    assert vT < v0 - 3 * math.hypot(s0, sT)


def test_matcoef_zero_time_matches_variance():
    spec = TargetSpec(*V0, 0.1)
    v0 = matcoef_curve(spec, [0.0], 5000, seed=10)[0][0]
    vc = variance_curve(spec, [0], 5000, seed=10)
    assert v0 == vc.values[0]
    assert v0 > 0.0
    assert matrix_coefficient(spec, 0.0, 2000, seed=11) > 0.0


def test_matcoef_decays_from_peak():
    spec = TargetSpec(*V0, 0.1)
    vals, errs = matcoef_curve(spec, [0.0, 16.0, 1024.0], 50_000, seed=12)
    # spec'd comparison with a noise cushion
    assert abs(vals[2]) <= abs(vals[1]) + 3 * math.hypot(errs[1], errs[2])
    # the correlation collapses by two orders of magnitude after one shear step
    assert abs(vals[1]) <= 0.05 * vals[0]
    assert abs(vals[2]) <= 0.05 * vals[0]


def test_matcoef_orbit_window_agrees():
    spec = TargetSpec(*V0, 0.1)
    plain, _ = matcoef_curve(spec, [4.0], 20_000, seed=13)
    windowed, _ = matcoef_curve(spec, [4.0], 20_000, seed=13, orbit_window=64)
    # same estimand; windowed averaging only reduces variance
    assert abs(plain[0] - windowed[0]) <= 5e-5


def test_miss_rate_monotone_and_vanishing():
    rates = miss_rate_curve([16, 64, 256, 1024, 4096], 0.2, V0, 2000, seed=14)
    fr = [m.fraction for m in rates]
    assert all(b <= a for a, b in zip(fr, fr[1:]))  # exact under common samples
    assert fr[-1] <= 0.005
    for m in rates:
        assert 0.0 <= m.ci_lo <= m.fraction <= m.ci_hi <= 1.0
    single = miss_rate(64, 0.2, V0, 2000, seed=14)
    assert single.fraction == fr[1]


def test_miss_rate_worker_stable():
    a = miss_rate_curve([32, 256], 0.2, V0, 1200, seed=30)
    b = miss_rate_curve([32, 256], 0.2, V0, 1200, seed=30, workers=2)
    assert [m.fraction for m in a] == [m.fraction for m in b]


def test_miss_rate_smaller_targets_harder():
    big = miss_rate(128, 0.2, V0, 2000, seed=15)
    small = miss_rate(128, 0.1, V0, 2000, seed=15)
    assert small.fraction >= big.fraction  # exact: same samples, nested boxes


def test_shrinking_recurrent_at_constant_size():
    # eta = 0: fixed-size target, hits recur in every desk-scale dyadic window
    reps = _haar_reps(5, seed=16)
    for i in range(5):
        wins = window_hit_counts(reps[i], V0, 0.0, 2**13)
        for w in wins:
            if 64 <= w["lo"] <= 2**12:
                assert w["count"] > 0


def test_shrinking_certifies_threshold():
    reps = _haar_reps(10, seed=17)
    found = 0
    for i in range(10):
        T0 = shrinking_hit_experiment(0.25, reps[i], 2**14, V0)
        if T0 is not None:
            assert T0 <= 2**13
            found += 1
    assert found >= 9
    rep = shrinking_hit_report(0.25, reps[0], 2**14, V0)
    assert rep["levels"] and all(set(l) == {"horizon", "delta", "hit"} for l in rep["levels"])


@pytest.mark.parametrize("v", [(0.0, 0.8), (1.3, 0.0), (1.3, -0.8)])
def test_shrinking_runs_validate_target(v):
    # the TargetSpec contract: off both axes, v2 > 0 (pass -v for a target below)
    rep = _haar_reps(1, seed=17)[0]
    match = "use -v" if v[1] < 0 else "off the coordinate axes"
    with pytest.raises(ValueError, match=match):
        shrinking_hit_report(0.25, rep, 64, v)
    with pytest.raises(ValueError, match=match):
        window_hit_counts(rep, v, 0.25, 64)


def test_shrinking_fast_targets_taper():
    reps = _haar_reps(300, seed=18)
    agg = None
    for i in range(300):
        wins = window_hit_counts(reps[i], V0, 0.7, 2**14)
        cs = np.array([w["count"] for w in wins])
        agg = cs if agg is None else agg + cs
    assert agg[-1] <= agg[3]  # late windows much emptier than early ones
    assert agg[-1] <= 0.05 * 300


def report_one_window(eta, rep, k_max, v) -> dict:
    """Oracle: shrinking_hit_report as one search with the largest target
    over all |k| <= k_max, the levels then picked out by the flag test."""
    v1, v2 = v
    levels = _dyadic_levels(eta, k_max, v2)
    hw = 0.5 * max(d for _, d in levels)
    *_, p1, tau, s = _box_candidates(rep, v1 - hw, v1 + hw, v2 - hw, v2 + hw, -k_max - 0.5, k_max + 0.5)
    k, r = _hit_times(s)
    hit = np.abs(r) < 0.5
    ak, p1, tau = np.abs(k[hit]), p1[hit], tau[hit]
    horizon = np.array([lv[0] for lv in levels])[:, None]
    half = 0.5 * np.array([lv[1] for lv in levels])[:, None]
    flags = np.any((ak <= horizon) & (np.abs(p1 - v1) <= half) & (np.abs(tau - v2) <= half), axis=1)
    return {
        "eta": eta,
        "kMax": k_max,
        "T0": _certified_T0(flags, k_max),
        "levels": [{"horizon": h, "delta": d, "hit": bool(f)} for (h, d), f in zip(levels, flags)],
    }


def window_counts_one_window(rep, v, eta, k_max) -> list:
    """Oracle: window_hit_counts with one search per window over all
    |k| <= hi, the times below the window dropped after the search."""
    v1, v2 = v
    cap = _delta_cap(v2)
    out = []
    j = 0
    while 2**j <= k_max:
        lo, hi = 2**j, min(2 ** (j + 1) - 1, k_max)
        hwv = 0.5 * (cap if eta == 0.0 else min(cap, float(lo) ** (-eta)))
        *_, p1, tau, s = _box_candidates(rep, v1 - hwv, v1 + hwv, v2 - hwv, v2 + hwv, -hi - 0.5, hi + 0.5)
        k, r = _hit_times(s)
        ak = np.abs(k)
        hit = (lo <= ak) & (ak <= hi) & (np.abs(r) < 0.5)
        k, ak, p1, tau = k[hit], ak[hit], p1[hit], tau[hit]
        dk = np.array([cap if eta == 0.0 else min(cap, float(a) ** (-eta)) for a in ak.tolist()])
        inside = (np.abs(p1 - v1) <= 0.5 * dk) & (np.abs(tau - v2) <= 0.5 * dk)
        out.append({"lo": lo, "hi": hi, "count": int(np.unique(k[inside]).size)})
        j += 1
    return out


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.7])
def test_shell_searches_match_one_window(eta):
    # one search per dyadic shell, each with its own target, against one
    # search with the largest target over the whole orbit
    reps = _haar_reps(3, seed=24)
    for k_max in (2, 3, 4096, 30_000, 100_000):
        for v in ((1.3, 0.8), (-1.3, 0.8), (-0.45, 1.7)):
            for rep in reps:
                assert shrinking_hit_report(eta, rep, k_max, v) == report_one_window(eta, rep, k_max, v)
                assert window_hit_counts(rep, v, eta, k_max) == window_counts_one_window(rep, v, eta, k_max)


def test_shell_search_visits_a_quarter_of_the_points(monkeypatch):
    # cost claim of shrinking_hit_report: a spy on the lattice-point search
    # counts the points it yields
    search = homogeneous_mod._lattice_points
    visited = []

    def spy(gs, windows):
        for block in search(gs, windows):
            visited[-1] += block[1].size
            yield block

    monkeypatch.setattr(homogeneous_mod, "_lattice_points", spy)
    shells = one = 0
    for rep in _haar_reps(8, seed=25):
        visited.append(0)
        report = shrinking_hit_report(0.25, rep, 30_000, V0)
        visited.append(0)
        assert report == report_one_window(0.25, rep, 30_000, V0)
        one += visited.pop()
        shells += visited.pop()
    assert shells < one / 4


def test_uniform_grid_single_point_reduces_to_single_target():
    pt = haar_sample(1, seed=19)[0]
    v = (1.4, 1.2)
    rep = uniform_grid_experiment((v[0], v[0], v[1], v[1]), 0.2, pt, 2**12)
    T0 = shrinking_hit_experiment(0.2, pt, 2**12, v)
    assert rep.T0 == T0
    assert all(l["nGrid"] == 1 for l in rep.levels)


def test_uniform_grid_small_box():
    pts = haar_sample(3, seed=20)
    found = 0
    for pt in pts:
        rep = uniform_grid_experiment((1.0, 1.5, 1.0, 1.5), 0.15, pt, 2**12)
        if rep.T0 is not None:
            found += 1
    assert found >= 2


def test_uniform_grid_validation():
    pt = haar_sample(1, seed=21)[0]
    with pytest.raises(ValueError):
        uniform_grid_experiment((-1.0, 1.0, 0.5, 1.0), 0.2, pt, 64)  # straddles an axis
    with pytest.raises(ValueError):
        uniform_grid_experiment((1.0, 2.0, 0.0, 1.0), 0.2, pt, 64)


def test_grid_refinement_consistent_with_stability():
    # refining the target grid never loses certified hits: a hit of a size-d
    # fine target implies a hit of the doubled coarse target whose center is
    # within d/2 per coordinate (the perturbation bound, exact)
    pts = haar_sample(3, seed=22)
    delta, K = 0.2, 256
    rng = np.random.default_rng(23)
    for pt in pts:
        for _ in range(10):
            v = (rng.uniform(1.0, 1.5), rng.uniform(1.0, 1.5))
            vf = (
                v[0] + rng.uniform(-delta / 2, delta / 2),
                v[1] + rng.uniform(-delta / 2, delta / 2),
            )
            fine = set(hit_set(pt, TargetSpec(vf[0], vf[1], delta), K).ks)
            coarse = set(hit_set(pt, TargetSpec(v[0], v[1], 2 * delta), K).ks)
            assert fine <= coarse


def test_window_ends_imply_the_time_cap():
    # a closed s window [-K - 1/2, K + 1/2] needs no |k| <= K test: its end
    # points land at |r| = 1/2, no hit, and the floats just inside them hit
    # at |k| <= K
    Ks = np.array(sorted({K for j in range(41) for K in (2**j - 1, 2**j, 2**j + 1) if 1 <= K <= 2**40}))
    for sign in (-1.0, 1.0):
        ends = sign * (Ks + 0.5)
        _, r = _hit_times(ends)
        assert np.all(np.abs(r) == 0.5)
        k, r = _hit_times(np.nextafter(ends, 0.0))
        assert np.all(np.abs(r) < 0.5) and np.all(np.abs(k) <= Ks)


def test_drivers_make_one_kernel_call(monkeypatch):
    # one batched search per shrinking report, per window count and per
    # uniform-grid level
    kernel = ergodic_mod._box_candidates_batch
    calls = []

    def spy(reps, bounds):
        calls.append(len(bounds))
        return kernel(reps, bounds)

    monkeypatch.setattr(ergodic_mod, "_box_candidates_batch", spy)
    rep = _haar_reps(1, seed=31)[0]
    shrinking_hit_report(0.25, rep, 30_000, V0)
    assert len(calls) == 1 and calls[0] > 1
    window_hit_counts(rep, V0, 0.7, 30_000)
    assert len(calls) == 2 and calls[1] == 2 * 15  # two shells per dyadic window
    report = uniform_grid_experiment((1.2, 1.4, 0.7, 0.9), 0.1, rep, 512)
    assert len(calls) == 2 + len(report.levels)
    assert calls[2:] == [lv["nGrid"] for lv in report.levels]
