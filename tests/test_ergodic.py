import math

import numpy as np
import pytest

from orbitlab.ergodic import (
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
