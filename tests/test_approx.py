import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    # a strip seeded from a smaller budget against a one-budget trace
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
    # every row's matrix must reproduce the row's distance, below and above 4096
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


# Strip-scan cases at and around 2^22, the budget where closest-point queries
# once switched from a direct (c, d) scan to the box kernel, and deeper.
SIDES = [2**20, 2**22, 2**24]
STRIP_CASES = [
    ((1.37, 1.61), (1.5, 0.7), SIDES),
    ((-1.83, 1.14), (1.21, -0.67), SIDES),
    ((1.17, -1.9), (-0.4, -1.3), SIDES),
    # decimal seed and target: from 2^13 on every budget's best lies at
    # distance 1/100 up to rounding, on the edge of the next budget's
    # window, deep enough that the search's scaled coordinates lose digits
    ((1.41, 1.73), (1.2, 1.5), SIDES + [2**37]),
    ((1.41, 1.73), (-1.2, -1.5), SIDES + [2**37]),
]
# (case, T, entries, norm, dist) of the row at T of approx_trace(u, v, [T // 4, T]),
# recorded from the two strip searches this one replaced
STRIP_PINS = {
    "full": [
        (0, 2**20, (-496, 423, -231, 197), 517115, 0.009999999999990905),
        (0, 2**22, (-496, 423, -231, 197), 517115, 0.009999999999990905),
        (0, 2**24, (-496, 423, -231, 197), 517115, 0.009999999999990905),
        (1, 2**20, (289, 465, -156, -251), 387083, 0.022360679774926766),
        (1, 2**22, (289, 465, -156, -251), 387083, 0.022360679774926766),
        (1, 2**24, (1847, 2966, -992, -1593), 15730278, 0.022360679774774243),
        (2, 2**20, (-101, -62, -360, -221), 192486, 0.030000000000009686),
        (2, 2**22, (-369, -227, -1120, -689), 1916811, 0.0300000000000068),
        (2, 2**24, (607, 374, 1920, 1183), 5594214, 0.010000000000081832),
        (3, 2**20, (-101, 83, -129, 106), 44967, 0.02236067977498769),
        (3, 2**22, (-766, 625, -967, 789), 2534991, 0.009999999999945386),
        (3, 2**24, (-766, 625, -967, 789), 2534991, 0.009999999999945386),
        (3, 2**37, (153923, -125451, 193685, -157858), 101863270719, 0.009999999951105565),
        (4, 2**20, (101, -83, 129, -106), 44967, 0.02236067977498769),
        (4, 2**22, (766, -625, 967, -789), 2534991, 0.009999999999945386),
        (4, 2**24, (766, -625, 967, -789), 2534991, 0.009999999999945386),
        (4, 2**37, (-153923, 125451, -193685, 157858), 101863270719, 0.009999999951105565),
    ],
    "gamma0:3": [
        (0, 2**20, (-496, 423, -231, 197), 517115, 0.009999999999990905),
        (0, 2**22, (-496, 423, -231, 197), 517115, 0.009999999999990905),
        (0, 2**24, (-496, 423, -231, 197), 517115, 0.009999999999990905),
        (1, 2**20, (289, 465, -156, -251), 387083, 0.022360679774926766),
        (1, 2**22, (289, 465, -156, -251), 387083, 0.022360679774926766),
        (1, 2**24, (289, 465, -156, -251), 387083, 0.022360679774926766),
        (2, 2**20, (-101, -62, -360, -221), 192486, 0.030000000000009686),
        (2, 2**22, (-101, -62, -360, -221), 192486, 0.030000000000009686),
        (2, 2**24, (607, 374, 1920, 1183), 5594214, 0.010000000000081832),
        (3, 2**20, (-101, 83, -129, 106), 44967, 0.02236067977498769),
        (3, 2**22, (-101, 83, -129, 106), 44967, 0.02236067977498769),
        (3, 2**24, (-1285, 1048, -1632, 1331), 7184514, 0.01414213562384668),
        (3, 2**37, (-178583, 145551, -221742, 180727), 134908744583, 0.009999999951105565),
        (4, 2**20, (101, -83, 129, -106), 44967, 0.02236067977498769),
        (4, 2**22, (101, -83, 129, -106), 44967, 0.02236067977498769),
        (4, 2**24, (1285, -1048, 1632, -1331), 7184514, 0.01414213562384668),
        (4, 2**37, (178583, -145551, 221742, -180727), 134908744583, 0.009999999951105565),
    ],
    "gamma:2": [
        (0, 2**20, (-187, 160, -90, 77), 74598, 0.0948683298050271),
        (0, 2**22, (1275, -1084, 514, -437), 3255846, 0.09055385138138466),
        (0, 2**24, (1691, -1438, 782, -665), 5981074, 0.01414213562384668),
        (1, 2**20, (-129, -206, 62, 99), 72722, 0.07280109889279618),
        (1, 2**22, (-803, -1288, 452, 725), 3033682, 0.041231056256058565),
        (1, 2**24, (1847, 2966, -992, -1593), 15730278, 0.022360679774774243),
        (2, 2**20, (-101, -62, -360, -221), 192486, 0.030000000000009686),
        (2, 2**22, (-101, -62, -360, -221), 192486, 0.030000000000009686),
        (2, 2**24, (607, 374, 1920, 1183), 5594214, 0.010000000000081832),
        (3, 2**20, (175, -142, 228, -185), 136998, 0.13038404810407692),
        (3, 2**22, (-777, 634, -940, 767), 2477574, 0.0509901951359707),
        (3, 2**24, (-1285, 1048, -1632, 1331), 7184514, 0.01414213562384668),
        (3, 2**37, (86307, -70342, 107704, -87781), 31702550790, 0.014142135603974646),
        (4, 2**20, (-175, 142, -228, 185), 136998, 0.13038404810407692),
        (4, 2**22, (777, -634, 940, -767), 2477574, 0.0509901951359707),
        (4, 2**24, (1285, -1048, 1632, -1331), 7184514, 0.01414213562384668),
        (4, 2**37, (-86307, 70342, -107704, 87781), 31702550790, 0.014142135603974646),
    ],
}


@pytest.mark.parametrize("flt", ["full", "gamma0:3", "gamma:2"])
def test_strip_scans_match_recorded_outputs(flt, ball_1e4):
    # one scan seeded from T // 4, below and above 2^22 and for targets below
    # the axis, against recorded outputs and, at 10^4, against brute force
    pins = {(k, T): tuple(rest) for k, T, *rest in STRIP_PINS[flt]}
    flt = SubgroupFilter.parse(flt)
    rows = ball_1e4[flt.mask(ball_1e4)]
    improved = 0
    for k, (u, v, budgets) in enumerate(STRIP_CASES):
        rec = approx_trace(u, v, [2500, 10_000], subgroup=flt).records[1]
        assert rec.gamma.entries() == brute_best(rows, u, v, 10_000), (u, v)
        for T in budgets:
            prev, rec = approx_trace(u, v, [T // 4, T], subgroup=flt).records
            assert (rec.gamma.entries(), rec.gamma_norm, rec.dist) == pins.pop((k, T)), (u, v, T)
            improved += rec.dist < prev.dist
    assert not pins
    assert improved >= 3  # the scans find new witnesses, not only the seed


@pytest.mark.parametrize(
    "u, v, T, flt, entries, norm, dist",
    [
        ((1.41, 1.73), (1.2, 0.0), 2**30, "full", (23827, -19419, -200, 163), 944890059, 0.009999999999990905),
        ((1.37, 1.61), (0.0, -0.9), 2**28, "gamma0:3", (-47, 40, 4116, -3503), 29216274, 0.014142135623631655),
        ((1.5, 1.0), (0.7, 0.3), 2**26, "gamma:2", (-1, 2, -2, 3), 18, 0.3605551275463989),
        ((-1.83, 1.14), (0.0, 0.0), 2**32, "full", (-17931, -28784, 38, 61), 1150044582, 0.02999999999155989),
        ((1.17, -1.9), (-0.4, -1.3), 2**34, "gamma0:2", (-30553, -18814, -96880, -59657), 14232144454, 0.00999999999621648),
    ],
)
def test_best_approx_pins_deep_budgets(u, v, T, flt, entries, norm, dist):
    # recorded outputs of the earlier searches: axis, zero and rational targets
    rec = best_approx(u, v, T, subgroup=SubgroupFilter.parse(flt))
    assert (rec.gamma.entries(), rec.gamma_norm, rec.dist) == (entries, norm, dist)


FILTERS = ["full", "gamma0:2", "gamma0:3", "gamma0:4", "gamma0:5", "gamma:2", "gamma:3"]
_coord = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 3))
_nonzero = _coord.filter(lambda x: x != 0.0)
_seeds = st.one_of(
    st.tuples(_coord, _nonzero),
    st.tuples(_nonzero, st.just(0.0)),  # horizontal seeds
    st.sampled_from([(1.5, 1.0), (3.0, -2.0), (1.0, 1.0)]),  # strip rows with tau == 0
)
_budgets = st.lists(
    st.one_of(st.floats(2.0, 1e4), st.sampled_from([2.0, 4096.0, 4097.0, 1e4])),
    min_size=1,
    max_size=4,
    unique=True,
).map(sorted)


@given(
    u=_seeds,
    target=st.one_of(
        st.tuples(_coord, _coord),
        st.tuples(_coord, st.just(0.0)),
        st.tuples(st.just(0.0), _coord),
        st.sampled_from(["origin", "seed"]),
    ),
    budgets=_budgets,
    flt=st.sampled_from(FILTERS),
)
def test_trace_rows_match_brute_force(ball_1e4, u, target, budgets, flt):
    # every row of every trace, across the seed budget, is the least
    # (dist, norm, a, c, b, d) over the filtered ball
    v = {"origin": (0.0, 0.0), "seed": u}.get(target, target)
    flt = SubgroupFilter.parse(flt)
    rows = ball_1e4[flt.mask(ball_1e4)]
    tr = approx_trace(u, v, budgets, subgroup=flt)
    for T, rec in zip(budgets, tr.records):
        assert rec.gamma.entries() == brute_best(rows, u, v, T), (u, v, T)


@pytest.mark.parametrize(
    "u, v, T, flt, entries, norm, dist",
    [
        ((1.37, 1.61), (1.5, 0.0), 2**30, "full", (16939, -14413, -114, 97), 494686695, 0.009999999999990905),
        ((-1.83, 1.14), (0.0, -1.2), 2**28, "gamma0:3", (-71, -114, -2802, -4499), 28110242, 0.029999999999972715),
        ((1.3, 0.0), (1.21, 0.0), 2**26, "gamma:2", (1, 0, 0, 1), 2, 0.09000000000000008),
        ((1.5, 1.0), (0.7, 0.0), 2**24, "full", (1, -1, -2, 3), 15, 0.19999999999999996),
    ],
)
def test_best_approx_pins_above_direct_limit(u, v, T, flt, entries, norm, dist):
    # beyond brute force: recorded outputs, three of them from the direct scan
    # of an axis target
    rec = best_approx(u, v, T, subgroup=SubgroupFilter.parse(flt))
    assert (rec.gamma.entries(), rec.gamma_norm, rec.dist) == (entries, norm, dist)


def test_shift_window_of_a_residue_row_holds_the_least_norm_witness():
    # the row (c, d) = (141, 50) of u = (0.7, -1.974) has c*u1 + d*u2 = 0 in
    # exact decimals, so its float tau is a rounding residue (about 1e-14);
    # its shift window must carry the float error of the first coordinate
    # over tau, or (-3071, -1089, -141, -50), of the same float dist2 but
    # norm 10,639,343, wins the tie
    rec = best_approx((0.7, -1.974), (0.0, 0.0), 20481105.323350403, SubgroupFilter.gamma0(3))
    assert (rec.gamma.entries(), rec.gamma_norm, rec.dist) == ((-2992, -1061, 141, 50), 10100166, 0.013999999999668944)

    def dist2(a, b, c, d):
        e1, e2 = a * 0.7 + b * -1.974, c * 0.7 + d * -1.974
        return e1 * e1 + e2 * e2

    assert dist2(-3071, -1089, -141, -50) == dist2(-2992, -1061, 141, 50) == 0.00019599999999073042


def test_scan_plan_merges_and_seeds(monkeypatch):
    # a query whose strip predicts at most _SCAN_POINTS points is one scan
    # from the identity; a deep one-budget query with a far target first
    # makes seed scans that each predict at most _SCAN_POINTS points and at
    # least double, and their rows are dropped
    scans = []
    real = approx_mod._strip_improve

    def spy(u, v, budgets, eps, *args):
        w = approx_mod._scan_target(v)[1]
        scans.append((list(budgets), approx_mod._predicted_points(u, w, budgets[-1], eps)))
        return real(u, v, budgets, eps, *args)

    monkeypatch.setattr(approx_mod, "_strip_improve", spy)
    u = (1.37, 1.52)
    best_approx(u, (1.9, 1.2), 11_000)
    assert [b for b, _ in scans] == [[11_000]]
    assert scans[0][1] <= approx_mod._SCAN_POINTS
    scans.clear()
    tr = approx_trace(u, (-1.9, 1.2), [2**40])
    *seeds, (last, _) = scans
    assert last == [2**40] and len(tr.records) == 1
    Ts = [b[0] for b, _ in seeds]
    assert len(Ts) >= 2 and [b for b, _ in seeds] == [[T] for T in Ts]
    assert all(pred <= approx_mod._SCAN_POINTS for _, pred in seeds)
    assert all(t2 >= 2 * t1 for t1, t2 in zip(Ts, Ts[1:])) and Ts[-1] < 2**40
    # recorded output of the earlier search, which scanned 4096 and then 2^40
    rec = tr.records[0]
    assert (rec.gamma.entries(), rec.gamma_norm, rec.dist) == (
        (315737, -284580, -198368, 178793), 251992429842, 0.009999999916181057
    )


def test_strip_scans_cost_what_the_docstring_says(monkeypatch):
    # approx_trace: a generic pair over 4^8 .. 4^22 makes at most 8 scans,
    # and a scan visits at most 2 * (predicted points + reduced-lattice rows)
    import orbitlab.homogeneous as hom_mod

    scans, points, rows = [], [], []
    real_improve, real_points = approx_mod._strip_improve, approx_mod._lattice_points
    real_rows = hom_mod._window_rows

    def improve(u, v, budgets, eps, *args):
        scans.append(approx_mod._predicted_points(u, approx_mod._scan_target(v)[1], budgets[-1], eps))
        return real_improve(u, v, budgets, eps, *args)

    def lattice_points(gs, windows):
        points.append(0)
        for block in real_points(gs, windows):
            points[-1] += block[1].size
            yield block

    def window_rows(*args):
        s = real_rows(*args)
        rows.append(s[1] if s else 0)
        return s

    monkeypatch.setattr(approx_mod, "_strip_improve", improve)
    monkeypatch.setattr(approx_mod, "_lattice_points", lattice_points)
    monkeypatch.setattr(hom_mod, "_window_rows", window_rows)
    budgets = [4.0**k for k in range(8, 23)]
    rng = np.random.default_rng(42)  # the first pairs of survey_exponents(seed=42)
    for _ in range(3):
        u, v = tuple(rng.uniform(1, 2, 2)), tuple(rng.uniform(1, 2, 2))
        scans.clear(), points.clear(), rows.clear()
        approx_trace(u, v, budgets)
        assert 1 <= len(scans) <= 8, (u, v, len(scans))
        assert len(points) == len(rows) == len(scans)
        for pts, pred, n_rows in zip(points, scans, rows):
            assert pts <= 2 * (pred + n_rows), (u, v, pts, pred, n_rows)


def test_axis_target_of_horizontal_seed_expands_few_shifts(monkeypatch):
    # u = (1.3, 0), v = (1.21, 0): the best stays the identity at 0.09 and
    # the strip holds only the rows (0, +-1), whose image coordinate is 0, so
    # every top-row shift ties on distance; only the shifts around the
    # norm's vertex reach the selection, not all ~2*sqrt(T) of them
    seen = []
    real = approx_mod._least_key
    monkeypatch.setattr(approx_mod, "_least_key", lambda a, *args: seen.append(a.size) or real(a, *args))
    budgets = [4.0**k for k in range(2, 23)]
    tr = approx_trace((1.3, 0.0), (1.21, 0.0), budgets)
    assert [(rec.gamma.entries(), rec.gamma_norm, rec.dist) for rec in tr.records] == [
        ((1, 0, 0, 1), 2, 0.09000000000000008)
    ] * len(budgets)
    assert seen and max(seen) <= 6  # two rows, at most three shifts each


_cut_seeds = st.one_of(
    st.tuples(_nonzero, _nonzero).filter(lambda u: min(map(abs, u)) >= 0.05),  # decimal seeds
    st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),  # generic seeds
    st.tuples(_nonzero.filter(lambda x: abs(x) >= 0.05), st.just(0.0)),  # horizontal seeds
)


@given(
    u=_cut_seeds,
    target=st.one_of(
        st.tuples(_coord, _coord),
        st.tuples(_coord, st.just(0.0)),
        st.tuples(st.just(0.0), _coord),
        st.just((0.0, 0.0)),
    ),
    T=st.sampled_from([2, 50, 500, 4096, 10_000]),
    k=st.integers(0, 60),
    wide=st.booleans(),
)
def test_sigma_cut_keeps_every_close_element(ball_1e4, u, target, T, k, wide):
    # every element of the budget-T ball within eps of v has its scanned row
    # inside the strip window of either frame; eps is the k-th smallest
    # distance (ties on the edge), or at least |w_far| (no cut)
    rows = ball_1e4[(ball_1e4 * ball_1e4).sum(axis=1) <= T].astype(float)
    a, b, c, d = rows.T
    v = target
    u1, u2 = u
    dist = np.hypot(a * u1 + b * u2 - v[0], c * u1 + d * u2 - v[1])
    eps = float(np.sort(dist)[min(k, dist.size - 1)])
    n = u1 * u1 + u2 * u2
    for swap in (False, True):
        w = (v[1], -v[0]) if swap else tuple(v)
        x, y = (-a, -b) if swap else (c, d)  # the bottom row of the frame
        e = max(eps, abs(w[0]) + 0.01) if wide else eps
        tau_lo, tau_hi, sig_lo, sig_hi = approx_mod._strip_window(u, w, T, e)[1]
        close = dist <= e
        sigma = (x * u2 - y * u1) / n
        assert np.all((sig_lo <= sigma[close]) & (sigma[close] <= sig_hi)), (u, v, T, e, swap)


def test_traces_build_no_ball(monkeypatch):
    # every budget is a strip scan: no query materializes any ball
    import orbitlab.enumeration as enum_mod

    built = []
    real = enum_mod._windows
    monkeypatch.setattr(enum_mod, "_windows", lambda *args, **kw: built.append(args) or real(*args, **kw))
    best_approx((1.37, 1.52), (1.9, 1.2), 1e5)
    approx_trace((1.41, 1.73), (1.2, 1.5), [65536.0, 262144.0])
    approx_trace((1.41, 1.73), (1.2, 1.5), [16.0, 256.0, 4096.0, 65536.0])
    assert not built


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
    with pytest.raises(ValueError):
        best_approx((1.4, 1.7), (1.2, 1.9), math.nan)
    for T in (math.inf, -math.inf):
        with pytest.raises(BudgetOverflow):
            best_approx((1.4, 1.7), (1.2, 1.9), T)


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


def test_subnormal_seed_coordinate_does_not_warn():
    # a subnormal seed coordinate gives a reduced basis vector of the strip
    # window a subnormal component, which the row bounds must not divide by
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = best_approx((1.0, 2.2250738585072014e-308), (0.3, 0.2), 100)
    assert rec.gamma == LatticeElement(1, 0, 0, 1)
    assert rec.dist == 0.7280109889280517
