import math
from fractions import Fraction

import numpy as np
import pytest

import orbitlab.approx as approx_mod
from conftest import brute_best, brute_min_dist
from orbitlab.approx import (
    ApproxRecord,
    ApproxTrace,
    approx_trace,
    best_approx,
    estimate_exponents,
    orbit_point,
    survey_exponents,
)
from orbitlab.enumeration import SubgroupFilter
from orbitlab.errors import BudgetOverflow, EmptyBudget, ExactHit, InsufficientData
from orbitlab.matrices import IDENTITY, LatticeElement


def test_orbit_point_examples():
    np.testing.assert_allclose(orbit_point(IDENTITY, (0.3, 0.7)), [0.3, 0.7])
    np.testing.assert_allclose(orbit_point(LatticeElement(1, 1, 0, 1), (0, 1)), [1, 1])
    np.testing.assert_allclose(orbit_point(LatticeElement(2, 1, 1, 1), (1, 0)), [2, 1])


def test_best_approx_examples():
    rec = best_approx((0, 1), (1, 1), 3)
    assert rec.dist == 0.0
    np.testing.assert_allclose(orbit_point(rec.gamma, (0, 1)), [1, 1])
    rec = best_approx((0, 1), (0.5, 0.5), 100)
    assert rec.dist == pytest.approx(math.sqrt(0.5), rel=1e-15)
    u = (1.3, 0.72)
    rec = best_approx(u, u, 2)
    assert rec.dist == 0.0 and rec.gamma == IDENTITY


def test_best_approx_empty_budget():
    with pytest.raises(EmptyBudget):
        best_approx((1.0, 1.0), (2.0, 2.0), 1.5)


def test_best_approx_matches_brute_force(ball_1e4):
    rng = np.random.default_rng(99)
    for _ in range(20):
        u = rng.uniform(1, 2, 2)
        v = rng.uniform(1, 2, 2)
        rec = best_approx(u, v, 10_000)
        oracle = brute_min_dist(ball_1e4, u, v, 10_000)
        assert rec.dist == pytest.approx(oracle, rel=1e-9)
        assert rec.gamma_norm <= 10_000


def test_best_approx_worker_determinism():
    u, v = (1.21, 1.88), (1.63, 1.09)
    base = best_approx(u, v, 3000)
    for w in (2, 4):
        rec = best_approx(u, v, 3000, workers=w)
        assert rec == base


def test_best_approx_axis_seed(ball_1e4):
    # u on the horizontal axis: per-family orbit points are shift-independent
    u, v = (1.0, 0.0), (1.45, 0.83)
    rec = best_approx(u, v, 10_000)
    oracle = brute_min_dist(ball_1e4, u, v, 10_000)
    assert rec.dist == pytest.approx(oracle, rel=1e-9)


def test_best_approx_with_filter(ball_1e4):
    n = 2
    flt = SubgroupFilter.gamma0(n)
    u, v = (1.37, 1.52), (1.9, 1.2)
    rec = best_approx(u, v, 10_000, subgroup=flt)
    mask = ball_1e4[:, 2] % n == 0
    arr = ball_1e4[mask]
    oracle = brute_min_dist(arr, u, v, 10_000)
    assert rec.gamma.c % n == 0
    assert rec.dist == pytest.approx(oracle, rel=1e-9)


def test_best_approx_horizontal_seed_tie_rule():
    # u2 = 0: the distance depends on the first column only, and the
    # minimal-norm completion passing the filter must win the tie
    rec = best_approx((1.3, 0.0), (-1.8786, -1.5084), 5000, subgroup=SubgroupFilter.gamma(2))
    assert rec.gamma == LatticeElement(-1, 0, -2, -1)
    assert rec.gamma_norm == 6


def test_best_approx_horizontal_seeds_follow_tie_order(ball_1e4):
    rng = np.random.default_rng(2718)
    filters = [SubgroupFilter.gamma0(n) for n in (2, 3, 4, 5)] + [SubgroupFilter.gamma(n) for n in (2, 3)]
    for flt in filters:
        rows = ball_1e4[[flt.passes(*row) for row in ball_1e4.tolist()]]
        for i in range(4):
            u = (float(rng.uniform(1, 2) * rng.choice((-1.0, 1.0))), 0.0)
            v = [float(x) for x in rng.uniform(-2, 2, 2)]
            if i == 3:
                v[i % 2] = 0.0  # axis target
            for T in (3000, 10_000):
                rec = best_approx(u, v, T, subgroup=flt)
                assert rec.gamma.entries() == brute_best(rows, u, v, T), (flt, u, v, T)


def test_trace_monotone_and_matches_best_approx(ball_1e4):
    u, v = (1.93, 1.21), (1.08, 1.33)
    budgets = [2**k for k in range(4, 14)]
    tr = approx_trace(u, v, budgets)
    d = tr.dists()
    assert np.all(np.diff(d) <= 0)
    for T, rec in zip(budgets, tr.records):
        assert rec.gamma_norm <= T
        if T <= 10_000:
            assert rec.dist == pytest.approx(brute_min_dist(ball_1e4, u, v, T), rel=1e-12)


def test_trace_strip_phase_cross_validates():
    # phase-2 strips against the independent family search at a larger budget
    u, v = (1.37, 1.81), (1.11, 1.62)
    tr = approx_trace(u, v, [2**10, 2**15])
    rec = best_approx(u, v, 2**15)
    assert tr.records[-1].dist == pytest.approx(rec.dist, rel=1e-12)


def test_trace_strip_phase_matches_brute_force(ball_1e4):
    # strip-phase budget checked against the materialized ball, witness included
    rng = np.random.default_rng(31337)
    for _ in range(10):
        u = rng.uniform(1, 2, 2)
        v = rng.uniform(-2, 2, 2)
        tr = approx_trace(u, v, [2**10, 10_000])
        rec = tr.records[-1]
        assert rec.dist == pytest.approx(brute_min_dist(ball_1e4, u, v, 10_000), rel=1e-12)
        assert rec.gamma.entries() == brute_best(ball_1e4, u, v, 10_000)


def _exact_dist(g, u, v) -> float:
    u1, u2, v1, v2 = (Fraction(float(x)) for x in (*u, *v))
    e1 = g.a * u1 + g.b * u2 - v1
    e2 = g.c * u1 + g.d * u2 - v2
    return math.sqrt(e1 * e1 + e2 * e2)


@pytest.mark.parametrize("flt", ["full", "gamma0:2", "gamma0:3", "gamma:2", "gamma:3"])
def test_trace_witnesses_reproduce_distances(flt):
    # every row's matrix must reproduce the row's distance, in both phases
    flt = SubgroupFilter.parse(flt)
    seeds = [(1.37, 1.61), (-1.83, 1.14), (1.3, 0.0), (-1.71, 0.0)]
    targets = [(1.5, 0.0), (0.0, -1.2), (1.21, -0.67)]
    budgets = [16, 64, 256, 1024, 4096, 16384]
    for u in seeds:
        for v in targets:
            tr = approx_trace(u, v, budgets, subgroup=flt)
            for T, rec in zip(budgets, tr.records):
                g = rec.gamma
                assert g.a * g.d - g.b * g.c == 1 and flt.passes(*g.entries())
                assert rec.gamma_norm == g.a**2 + g.b**2 + g.c**2 + g.d**2 <= T
                assert rec.dist == pytest.approx(_exact_dist(g, u, v), rel=1e-9, abs=1e-12), (u, v, T, g)


@pytest.mark.parametrize("flt", ["full", "gamma0:3", "gamma:2"])
def test_deep_strip_matches_direct_scan(flt, monkeypatch):
    # the two strip searches return the same key on both sides of the handover,
    # including targets below the axis, where the kernel scans the mirror window
    flt = SubgroupFilter.parse(flt)
    limit = approx_mod._DIRECT_STRIP_LIMIT
    sides = [limit // 4, limit, 4 * limit]
    cases = [
        ((1.37, 1.61), (1.5, 0.7), sides),
        ((-1.83, 1.14), (1.21, -0.67), sides),
        ((1.17, -1.9), (-0.4, -1.3), sides),
        # decimal seed and target: from 2^13 on every budget's best lies at
        # distance 1/100 up to rounding, on the edge of the next budget's
        # window, deep enough that the kernel's scaled coordinates lose digits
        ((1.41, 1.73), (1.2, 1.5), sides + [2**37]),
        ((1.41, 1.73), (-1.2, -1.5), sides + [2**37]),
    ]
    improved = 0
    for u, v, budgets in cases:
        for T in budgets:
            prev = approx_trace(u, v, [T // 4], subgroup=flt).records[0]
            g = prev.gamma
            e1 = g.a * u[0] + g.b * u[1] - v[0]
            e2 = g.c * u[0] + g.d * u[1] - v[1]
            best = (e1 * e1 + e2 * e2, prev.gamma_norm, g.a, g.c, g.b, g.d)
            eps = math.sqrt(best[0]) * (1.0 + 1e-12)
            deep = approx_mod._deep_strip_improve(u, v, T, eps, flt, best)
            with monkeypatch.context() as m:
                m.setattr(approx_mod, "_DIRECT_STRIP_LIMIT", 2**62)
                direct = approx_mod._strip_improve(u, v, T, eps, flt, best)
            assert deep == direct == approx_mod._strip_improve(u, v, T, eps, flt, best), (u, v, T)
            improved += direct < best
    assert improved >= 3  # the searches find new witnesses, not only the seed


def test_no_ball_beyond_phase1_cap(monkeypatch):
    built = []
    real = approx_mod.elements_array
    monkeypatch.setattr(approx_mod, "elements_array", lambda T: built.append(T) or real(T))
    approx_mod._cached_ball.cache_clear()
    best_approx((1.37, 1.52), (1.9, 1.2), 1e5)
    approx_trace((1.41, 1.73), (1.2, 1.5), [65536.0, 262144.0])
    assert built and max(built) <= 4096


def test_trace_single_budget_self_target():
    u = (1.0, 1.0)
    tr = approx_trace(u, u, [2])
    assert tr.records[0].dist == 0.0 and tr.records[0].gamma == IDENTITY


def test_trace_validation():
    with pytest.raises(ValueError):
        approx_trace((1, 1), (1, 2), [4, 4])
    with pytest.raises(ValueError):
        approx_trace((1, 1), (1, 2), [1.5, 4])
    with pytest.raises(ValueError):
        approx_trace((0, 0), (1, 2), [4, 8])


def test_trace_rejects_nan_budgets():
    for budgets in ([16, math.nan], [math.nan], [math.nan, 16]):
        with pytest.raises(ValueError):
            approx_trace((1.4, 1.7), (1.2, 1.9), budgets)
    with pytest.raises(BudgetOverflow):
        approx_trace((1.4, 1.7), (1.2, 1.9), [16, math.inf])


def test_trace_csv_roundtrip():
    tr = approx_trace((1.4, 1.7), (1.2, 1.9), [16, 64, 256])
    text = tr.to_csv()
    back = ApproxTrace.from_csv(text, u=tr.u, v=tr.v)
    assert back.budgets == tr.budgets
    assert [r.dist for r in back.records] == [r.dist for r in tr.records]
    assert [r.gamma for r in back.records] == [r.gamma for r in tr.records]


def synthetic_trace(s, c=1.0, n=16):
    budgets = [2.0 ** (8 + i) for i in range(n)]
    records = [
        ApproxRecord(IDENTITY, 2, c * T ** (-s)) for T in budgets
    ]
    return ApproxTrace(u=(0.0, 0.0), v=(0.0, 0.0), budgets=budgets, records=records)


@pytest.mark.parametrize("s", [0.1, 1.0 / 3.0, 0.5, 1.0])
def test_estimator_recovers_power_laws(s):
    est = estimate_exponents(synthetic_trace(s))
    assert est.mu_hat == pytest.approx(s, abs=1e-9)
    est = estimate_exponents(synthetic_trace(s, c=7.3))  # scale invariance
    assert est.mu_hat == pytest.approx(s, abs=1e-9)
    assert est.as_dict()["muHatFrobenius"] == pytest.approx(2 * s, abs=1e-9)


def test_estimator_insufficient_data():
    with pytest.raises(InsufficientData):
        estimate_exponents(synthetic_trace(0.5, n=16), tail_fraction=0.1)


def test_estimator_exact_hit():
    u = (1.3625, 1.7125)
    gam = LatticeElement(2, 1, 1, 1)
    v = tuple(orbit_point(gam, u))
    tr = approx_trace(u, v, [2**k for k in range(4, 14)])
    with pytest.raises(ExactHit) as err:
        estimate_exponents(tr)
    assert err.value.record.dist == 0.0


def test_group_translate_invariance_of_slope():
    # same orbit after translating the seed: estimates agree at finite scale
    budgets = [2.0**k for k in range(8, 28)]
    g0 = LatticeElement(1, 1, 0, 1) @ LatticeElement(1, 0, 1, 1)
    for (u, v) in [((1.23, 1.91), (1.51, 1.17)), ((1.77, 1.31), (1.05, 1.89))]:
        m1 = estimate_exponents(approx_trace(u, v, budgets)).mu_hat
        m2 = estimate_exponents(approx_trace(tuple(g0.apply(u)), v, budgets)).mu_hat
        assert abs(m1 - m2) <= 0.1


def test_survey_deterministic():
    budgets = [2.0**k for k in range(8, 18)]
    rows1 = survey_exponents(5, budgets, seed=42)
    rows2 = survey_exponents(5, budgets, seed=42)
    assert rows1 == rows2
    fixed = survey_exponents(3, budgets, seed=7, fixed_v=(1.3, 0.8))
    assert all(r["v1"] == 1.3 and r["v2"] == 0.8 for r in fixed)
