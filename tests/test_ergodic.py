import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitlab.ergodic as ergodic_mod
import orbitlab.homogeneous as homogeneous_mod
from orbitlab.ergodic import (
    _CHUNK,
    UniformGridReport,
    _certified_T0,
    _delta_cap,
    _dyadic_levels,
    _first_hits,
    _grid_points,
    _hit_times,
    _miss_chunk,
    _target_size,
    hit_set,
    matcoef_curve,
    miss_rate_curve,
    shrinking_hit_report,
    uniform_grid_experiment,
    variance_curve,
    window_hit_counts,
)
from orbitlab.homogeneous import (
    HomPoint,
    TargetSpec,
    _box_candidates_batch,
    _bump_box,
    _bump_weight,
    _closed_range,
    _haar_reps,
    _rep_of,
    _target_box,
    bump,
    bump_mean,
    haar_sample,
    in_quotient_target,
    reduce_point,
    target_bump,
)
from orbitlab.matrices import lower_shear, upper_shear
from conftest import orbit_hits_brute
from test_kernel import chart_rep

V0 = (1.3, 0.8)
SPEC = TargetSpec(*V0, 0.2)


def orbit_average(fn, point: HomPoint, half_width: int) -> float:
    """The literal averaging operator: the uniform average of fn over the
    2T+1 shear translates of the point, each reduced to the fundamental
    domain before fn sees it.  The reference of the experiment drivers,
    which compute the same numbers through the candidate kernel."""
    total = 0.0
    for k in range(-half_width, half_width + 1):
        q, _ = reduce_point(point.rep @ lower_shear(k))
        total += fn(q)
    return total / (2 * half_width + 1)


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
    assert matcoef_curve(spec, [0.0], 2000, seed=11)[0][0] > 0.0


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
    single = miss_rate_curve([64], 0.2, V0, 2000, seed=14)[0]
    assert single.fraction == fr[1]


def test_miss_rate_worker_stable():
    a = miss_rate_curve([32, 256], 0.2, V0, 1200, seed=30)
    b = miss_rate_curve([32, 256], 0.2, V0, 1200, seed=30, workers=2)
    assert [m.fraction for m in a] == [m.fraction for m in b]


def test_miss_rate_smaller_targets_harder():
    big = miss_rate_curve([128], 0.2, V0, 2000, seed=15)[0]
    small = miss_rate_curve([128], 0.1, V0, 2000, seed=15)[0]
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
        T0 = shrinking_hit_report(0.25, reps[i], 2**14, V0)["T0"]
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
    over all |k| <= k_max, the levels then picked out by the flag test.  The
    search box is the _target_box of the largest target, which holds every
    float the flag test accepts (v -+ delta/2 can lie a float inside)."""
    v1, v2 = v
    levels = _dyadic_levels(eta, k_max, v2)
    box = _target_box(v1, v2, max(d for _, d in levels))
    p1, tau, s, _ = _box_candidates_batch(rep, [box + (-k_max - 0.5, k_max + 0.5)])
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
    |k| <= hi, the times below the window dropped after the search, each
    window searched with the _target_box of its largest target."""
    v1, v2 = v
    cap = _delta_cap(v2)
    out = []
    j = 0
    while 2**j <= k_max:
        lo, hi = 2**j, min(2 ** (j + 1) - 1, k_max)
        box = _target_box(v1, v2, cap if eta == 0.0 else min(cap, float(lo) ** (-eta)))
        p1, tau, s, _ = _box_candidates_batch(rep, [box + (-hi - 0.5, hi + 0.5)])
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


def test_shell_search_visits_a_quarter_of_the_points(search_spy):
    # cost claim of shrinking_hit_report, counted by the shared spy on the
    # lattice-point search
    shells = one = 0
    for rep in _haar_reps(8, seed=25):
        search_spy.points = 0
        report = shrinking_hit_report(0.25, rep, 30_000, V0)
        shells += search_spy.points
        search_spy.points = 0
        assert report == report_one_window(0.25, rep, 30_000, V0)
        one += search_spy.points
    assert shells < one / 4


@pytest.mark.parametrize("eta, k_max, ratio", [(0.25, 30_000, 20), (0.7, 100_000, 100)], ids=["hit", "miss"])
def test_report_levels_stop_at_first_hits(eta, k_max, ratio, search_spy):
    # a level that hits stops at its first hit, and one that misses searches
    # |k| <= 2^j with its own target, against one search of |k| <= k_max with
    # the largest target (measured 1/82 of its points at eta = 0.25, where
    # every level hits early, and 1/700 at eta = 0.7, where late levels miss)
    first = one = 0
    for rep in _haar_reps(8, seed=25):
        search_spy.points = 0
        report = shrinking_hit_report(eta, rep, k_max, V0)
        first += search_spy.points
        search_spy.points = 0
        assert report == report_one_window(eta, rep, k_max, V0)
        one += search_spy.points
    assert first * ratio < one


def test_report_flags_on_the_target_boundary():
    # hits planted on the flag boundary of a level: v moved off a known hit
    # (p1, tau) so that abs(p1 - v1) == delta/2 (or abs(tau - v2)) holds
    # exactly, then one ulp further, where the hit leaves the level.  At eta
    # = 1/2 the levels whose 2^(j+1) is a power of 4 have delta a power of
    # two, so the exact case exists; v1 takes either sign.
    eta, k_max = 0.5, 4096
    flips = 0
    for rep in _haar_reps(2, seed=51):
        for box in ((1.0, 1.6, 0.6, 1.0), (-1.6, -1.0, 0.6, 1.0)):
            p1, tau, s, _ = _box_candidates_batch(rep, [box + (-1024.5, 1024.5)])
            k, r = _hit_times(s)
            hit = np.abs(r) < 0.5
            for x1, x2, ak in list(zip(p1[hit].tolist(), tau[hit].tolist(), np.abs(k[hit]).tolist()))[:6]:
                levels = _dyadic_levels(eta, k_max, x2)
                delta = next(d for h, d in levels if h >= ak and math.frexp(d)[0] == 0.5)
                for axis, x in enumerate((x1, x2)):
                    for sign in (-1.0, 1.0):
                        on = x + sign * 0.5 * delta
                        off = math.nextafter(on, sign * math.inf)
                        assert abs(x - on) == 0.5 * delta < abs(x - off)
                        reports = []
                        for w in (on, off):
                            v = (w, x2) if axis == 0 else (x1, w)
                            reports.append(shrinking_hit_report(eta, rep, k_max, v))
                            assert reports[-1] == report_one_window(eta, rep, k_max, v)
                        flips += reports[0] != reports[1]
    assert flips >= 10  # the boundary decides some levels


def test_report_targets_touching_the_p1_axis():
    # v1 = -+ delta/2 of a level puts an end of its box at 0
    eta, k_max = 0.25, 30_000
    levels = _dyadic_levels(eta, k_max, V0[1])
    for rep in _haar_reps(2, seed=52):
        for _, delta in levels[2::3]:
            for v in ((0.5 * delta, V0[1]), (-0.5 * delta, V0[1])):
                assert shrinking_hit_report(eta, rep, k_max, v) == report_one_window(eta, rep, k_max, v)


def first_hits_one_window(reps, boxes, horizon) -> np.ndarray:
    """Oracle: the least |k| <= horizon at which each window hits (horizon + 1
    where none does), from one search per window over all |k| <= horizon
    (one horizon for all windows or one per window)."""
    horizons = np.broadcast_to(np.asarray(horizon, dtype=np.int64), (len(boxes),))
    bounds = [b + (-h - 0.5, h + 0.5) for b, h in zip(boxes, horizons.tolist())]
    _, _, s, win = homogeneous_mod._box_candidates_batch(reps, bounds)
    k, r = _hit_times(s)
    hit = np.abs(r) < 0.5
    first = horizons + 1
    np.minimum.at(first, win[hit], np.abs(k[hit]))
    return first


def miss_chunk_one_window(args) -> np.ndarray:
    """Oracle: _miss_chunk as one search per sample over all |k| <= max(Ts)."""
    spec, Ts, reps = args
    return first_hits_one_window(reps, [spec.box] * len(reps), max(Ts))


def grid_one_window(omega, eta, point, k_max) -> UniformGridReport:
    """Oracle: uniform_grid_experiment with one search per grid target over
    all |k| <= horizon at every level."""
    levels = []
    for horizon, delta in _dyadic_levels(eta, k_max, omega[2]):
        grid = _grid_points(omega, delta)
        first = first_hits_one_window(point.rep, [_target_box(w1, w2, delta) for w1, w2 in grid], horizon)
        levels.append({"horizon": horizon, "delta": delta, "nGrid": len(grid), "hit": bool((first <= horizon).all())})
    return UniformGridReport(T0=_certified_T0([lv["hit"] for lv in levels], k_max), levels=levels)


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
def test_miss_rates_match_one_window(delta, monkeypatch):
    # first hits searched shell by shell against one search per sample over
    # the whole horizon; horizons 0 and 1 included, two chunks for workers 2
    cases = [(V0, [0, 1, 16, 1024], 300, 41), ((-0.7, 1.6), [1, 4096], 300, 42), (V0, [0], 50, 43)]
    cases += [((-0.7, 1.6), [0, 1, 64, 4096], 700, 44), (V0, [2, 256], 700, 45)]
    for v, Ts, n, seed in cases:
        with monkeypatch.context() as m:
            m.setattr(ergodic_mod, "_miss_chunk", miss_chunk_one_window)
            want = miss_rate_curve(Ts, delta, v, n, seed)
        for workers in (1, 2) if n > 512 else (1,):
            assert miss_rate_curve(Ts, delta, v, n, seed, workers=workers) == want


@pytest.mark.parametrize("eta", [0.0, 0.15, 0.5, 0.7])
def test_uniform_grid_matches_one_window(eta):
    # targets on strips along either axis, on either side of the v2 axis, and
    # a square (whose grid at eta = 0.7 would hold 10^4 targets per level)
    omegas = [(1.2, 1.3, 0.8, 0.8), (-0.75, -0.65, 1.6, 1.6), (1.3, 1.3, 0.7, 0.9)]
    omegas += [(1.2, 1.3, 0.75, 0.85)] if eta <= 0.5 else []
    for pt in haar_sample(2, seed=46):
        for k_max in (2, 3, 4096, 100_000):
            for omega in omegas:
                assert uniform_grid_experiment(omega, eta, pt, k_max) == grid_one_window(omega, eta, pt, k_max)


def test_first_hit_search_visits_a_quarter_of_the_points(search_spy, monkeypatch):
    # the README miss-rate configuration (delta 0.2, Ts 16:4096:2) on two chunks
    Ts = [2**j for j in range(4, 13)]
    search_spy.points = 0
    rates = miss_rate_curve(Ts, 0.2, V0, 1024, seed=26)
    shells = search_spy.points
    monkeypatch.setattr(ergodic_mod, "_miss_chunk", miss_chunk_one_window)
    search_spy.points = 0
    assert miss_rate_curve(Ts, 0.2, V0, 1024, seed=26) == rates
    assert shells < search_spy.points / 4


def test_first_hits_on_shell_edges(monkeypatch):
    # orbits planted to hit the box at the last time of a shell or the first
    # time of the next, where a search that skipped or repeated a time would
    # go wrong.  g = [[(1 + p1*s*tau)/tau, p1], [s*tau, tau]] has chart
    # coordinates (p1, tau, s), and g @ lower_shear(-t) reaches them at k = t.
    hw, horizon = 0.005, 40_000
    box = (V0[0] - hw, V0[0] + hw, V0[1] - hw, V0[1] + hw)
    hits, ends = ergodic_mod._hits, []
    monkeypatch.setattr(ergodic_mod, "_hits", lambda reps, bounds: ends.extend(b[5] for b in bounds) or hits(reps, bounds))
    # the identity's orbit stays at the cusp, where tau is an integer: it
    # never hits, so its search runs through every shell
    assert _first_hits(np.eye(2), [box], horizon).tolist() == [horizon + 1]
    edges = sorted({int(abs(e) - 0.5) for e in ends})  # the last time of each shell
    assert len(edges) >= 3 and edges[-1] == horizon
    times = [t for e in edges[:-1] for t in (e, e + 1)]
    rng = np.random.default_rng(48)
    reps = []
    for t in times:
        for sign in (-1, 1):
            for p1, tau, s in rng.uniform((-0.8, -0.8, -0.4), (0.8, 0.8, 0.4), (4, 3)) * (hw, hw, 1) + (*V0, 0):
                g = np.array([[(1.0 + p1 * s * tau) / tau, p1], [s * tau, tau]])
                reps.append(g @ lower_shear(-sign * t))
    reps = np.array(reps)
    first = _first_hits(reps, [box] * len(reps), horizon)
    assert first.tolist() == first_hits_one_window(reps, [box] * len(reps), horizon).tolist()
    # a random orbit expects one hit within the first shell, so some planted
    # hits at its edge are first hits (later edges meet earlier chance hits)
    planted = np.repeat(times, 8)
    assert set(planted[first == planted].tolist()) >= set(times[:2])


def test_first_hits_stop_at_each_windows_horizon():
    # one horizon per window: each window's answer is that of a search on
    # its own horizon, horizon + 1 where it misses, for one rep per window
    # and for one rep shared by all
    boxes = [(V0[0] - h, V0[0] + h, V0[1] - h, V0[1] + h) for h in (0.1, 0.02, 0.005, 0.001)] * 6
    horizons = [1, 37, 600, 9000] * 6
    reps = _haar_reps(len(boxes), seed=53)
    for shared in (False, True):
        rep = [reps[0]] * len(boxes) if shared else reps
        want = [first_hits_one_window(g, [b], h)[0] for g, b, h in zip(rep, boxes, horizons)]
        assert _first_hits(reps[0] if shared else reps, boxes, horizons).tolist() == want
        assert 0 < sum(f > h for f, h in zip(want, horizons)) < len(want)  # some miss, some hit


def shell_times(bound) -> tuple:
    """The orbit times lo <= |k| <= hi of one shear window of _first_hits:
    a centred shell (-hi - 1/2, hi + 1/2) or either half of a mirror pair."""
    s_lo, s_hi = bound[4], bound[5]
    if s_lo == -s_hi:
        return 0, int(s_hi - 0.5)
    return (int(-s_hi + 0.5), int(-s_lo - 0.5)) if s_hi <= 0.5 else (int(s_lo + 0.5), int(s_hi - 0.5))


@pytest.mark.parametrize("shared", [False, True], ids=["rep-per-window", "one-matrix"])
def test_first_hit_windows_search_each_time_once(shared, monkeypatch):
    # across rounds, each window's own times are disjoint and contiguous from
    # |k| = 0 to the round of its first hit, or to its horizon where it
    # misses.  Matrices [[1/a, x], [0, a]] lie high in the cusp, so the
    # windows of the two small boxes miss for several rounds; the two boxes
    # differ in size, so their shells end apart, and once the big box
    # between them (horizon 5) has left, one cover joins them from
    # different starts
    boxes = [_target_box(1.3, 0.8, 0.01), _target_box(2.3, 0.8, 0.2), _target_box(1.3, 0.8, 0.012)]
    boxes += [_target_box(-1.3, 1.1, 0.01), _target_box(-0.3, 1.1, 0.2), _target_box(-1.3, 1.1, 0.012)]
    horizons = [100_000, 5, 100_000] * 2
    if shared:
        reps = np.array([[5000.0, 0.37], [0.0, 2e-4]])
    else:
        heights = [2e-4, 1e-4, 3e-4, 2e-4, 5e-3, 5e-5]
        reps = np.array([[[1.0 / a, x], [0.0, a]] for a, x in zip(heights, np.linspace(0.1, 0.9, 6))])
    window = {r.tobytes(): i for i, r in enumerate(reps)} if not shared else None
    rounds, hits, covers = [], ergodic_mod._hits, ergodic_mod._covers

    def hits_spy(pick, bounds):
        rounds.append({"bounds": bounds, "times": {}})
        if not shared:  # each kernel window is one window's own shell
            for r, b in zip(pick, bounds):
                times = rounds[-1]["times"].setdefault(window[r.tobytes()], shell_times(b))
                assert times == shell_times(b)  # the two halves of a mirror pair agree
        return hits(pick, bounds)

    def covers_spy(mine, starts, ends):
        runs = covers(mine, starts, ends)
        rounds.append({"runs": runs, "windows": [boxes.index(b) for b in mine], "starts": starts})
        return runs

    monkeypatch.setattr(ergodic_mod, "_hits", hits_spy)
    monkeypatch.setattr(ergodic_mod, "_covers", covers_spy)
    first = _first_hits(reps, boxes, horizons).tolist()
    assert first == first_hits_one_window(reps, boxes, horizons).tolist()
    searched = {i: [] for i in range(len(boxes))}
    if shared:  # a run searches from its least start to its farthest end, its windows theirs to that end
        joined = False
        for plan, kernel in zip(rounds[::2], rounds[1::2]):
            runs, at = plan["runs"], iter(zip(plan["windows"], plan["starts"]))
            assert [b[:4] for b in kernel["bounds"]] == [box for box, lo, *_ in runs for _ in range(2 if lo else 1)]
            assert {shell_times(b) for b in kernel["bounds"]} == {(lo, e) for _, lo, e, _ in runs}
            for _, lo, e, size in runs:
                members = [next(at) for _ in range(size)]
                joined = joined or len({start for _, start in members}) > 1
                assert lo == min(start for _, start in members)
                for i, start in members:
                    searched[i].append((start, min(e, horizons[i])))
        assert joined
    else:
        for kernel in rounds:
            for i, times in kernel["times"].items():
                searched[i].append(times)
    assert max(len(s) for s in searched.values()) >= 3
    for i, spans in searched.items():
        assert spans[0][0] == 0
        assert all(b[0] == a[1] + 1 for a, b in zip(spans, spans[1:]))
        if first[i] <= horizons[i]:
            assert all(hi < first[i] for _, hi in spans[:-1]) and first[i] <= spans[-1][1]
        else:
            assert spans[-1][1] == horizons[i]


@st.composite
def shared_matrix_targets(draw):
    """Boxes and horizons of windows that share one matrix: the nested boxes
    of dyadic levels, grid slices whose boxes overlap their neighbours,
    disjoint boxes (some far apart in p1 at the same tau), or all of them
    shuffled together."""
    kind = draw(st.sampled_from(["nested", "grid", "disjoint", "mixed"]))
    v1 = draw(st.floats(0.3, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    v2 = draw(st.floats(0.4, 2.0))
    delta = draw(st.floats(0.01, 0.25))
    n = draw(st.integers(1, 10))
    nested = [_target_box(v1, v2, delta * draw(st.floats(0.7, 1.0)) ** j) for j in range(n)]
    step = delta * draw(st.floats(0.3, 1.2))
    grid = [_target_box(v1 + i * step, v2 + j * step, delta) for i in range(n) for j in range(3)]
    far = draw(st.sampled_from([3.0, 50.0]))
    disjoint = [_target_box(v1 + far * delta * i, v2 + delta * (i % 2), delta) for i in range(n)]
    boxes = {"nested": nested, "grid": grid, "disjoint": disjoint}.get(kind) or draw(
        st.permutations(nested + grid[:n] + disjoint)
    )
    horizon = st.sampled_from([0, 1, 2, 5, 64, 300, 1500, 6000, 20000])
    horizons = draw(st.lists(horizon, min_size=len(boxes), max_size=len(boxes)))
    return boxes, horizons


@settings(max_examples=120)
@given(shared_matrix_targets(), st.integers(0, 2**16), st.sampled_from([None, 0.01, 0.002]), st.floats(0.1, 0.9))
def test_cover_windows_match_one_window_per_target(targets, seed, cusp, x):
    # windows of one matrix searched in shared covers, each hit given to the
    # windows whose closed box holds it, against one search per window.
    # A matrix [[1/a, x], [0, a]] lies high in the cusp: no primitive row
    # reaches the boxes before |k| of about 1/a, so windows stay pending
    # into later shells.
    boxes, horizons = targets
    rep = _haar_reps(1, seed=seed)[0] if cusp is None else np.array([[1.0 / cusp, x], [0.0, cusp]])
    first = _first_hits(rep, boxes, horizons)
    assert first.tolist() == first_hits_one_window(rep, boxes, horizons).tolist()


def planted_hits(rep, K: int, count: int) -> tuple:
    """The (p1, tau, |k|) of the first count hits of a wide box around V0
    at 0 < |k| <= K, and that box."""
    box = (V0[0] - 0.3, V0[0] + 0.3, V0[1] - 0.3, V0[1] + 0.3)
    p1, tau, s, _ = _box_candidates_batch(rep, [box + (-K - 0.5, K + 0.5)])
    k, r = _hit_times(s)
    hit = (np.abs(r) < 0.5) & (k != 0)
    return list(zip(p1[hit].tolist(), tau[hit].tolist(), np.abs(k[hit]).tolist()))[:count], box


def test_cover_members_decide_hits_on_their_box_ends(search_spy):
    # a hit planted on an end of a small box, and one float outside it; the
    # small boxes share the one cover window of a wide box that holds every
    # hit, so the closed box test after the search decides them.  The wide
    # box's first shell would reach |k| = 76, so at K = 64 every window's
    # first shell ends at K, and the small ones join the wide box's cover
    K = 64
    rep = _haar_reps(1, seed=54)[0]
    hits, wide = planted_hits(rep, K, 6)
    boxes, outside = [wide], []
    for x1, x2, _ in hits:
        for end in range(4):
            for out in (False, True):
                box = [x1 - 1e-3, x1 + 1e-3, x2 - 1e-3, x2 + 1e-3]
                box[end] = (x1, x1, x2, x2)[end]
                if out:
                    box[end] = math.nextafter(box[end], math.inf if end % 2 == 0 else -math.inf)
                boxes.append(tuple(box))
                outside.append(out)
    search_spy.calls = search_spy.windows = 0
    first = _first_hits(rep, boxes, K)
    assert search_spy.calls == search_spy.windows == 1  # one shell, one cover
    assert first.tolist() == first_hits_one_window(rep, boxes, K).tolist()
    outside = np.array(outside)
    assert len(hits) == 6 and (first[1:][~outside] <= K).all() and (first[1:][outside] > K).all()


def test_cover_members_decide_hits_beyond_their_horizon(search_spy):
    # a hit planted inside a small box whose horizon is its time |k| or one
    # less: the cover (a wide box to horizon K, within its first shell)
    # finds it, and only the window whose horizon holds |k| takes it
    K = 64
    rep = _haar_reps(1, seed=55)[0]
    hits, wide = planted_hits(rep, K, 8)
    boxes, horizons = [wide], [K]
    for x1, x2, ak in hits:
        boxes += [(x1 - 1e-3, x1 + 1e-3, x2 - 1e-3, x2 + 1e-3)] * 2
        horizons += [ak, ak - 1]
    search_spy.calls = search_spy.windows = 0
    first = _first_hits(rep, boxes, horizons)
    assert search_spy.calls == search_spy.windows == 1
    assert first.tolist() == first_hits_one_window(rep, boxes, horizons).tolist()
    times = [ak for _, _, ak in hits]
    assert len(times) == 8 and first[1::2].tolist() == times and first[2::2].tolist() == times


@pytest.mark.parametrize("a", [1 / 2000, 1 / 5000])
def test_hits_beyond_a_windows_own_search_wait_for_it(a):
    # a matrix high in the cusp hits a wide box first at |k| = t1 of about
    # 1/a, far beyond the wide box's first shell (|k| <= 125), and again at
    # t2 > t1.  Two tiny boxes around the second hit search to their horizon
    # in a run of their own in the first round and find t2 inside the wide
    # box too; the wide box must not take it, since it has not searched t1
    rep = np.array([[1.0 / a, 0.37], [0.0, a]])
    wide, K = _target_box(1.3, 0.8, 0.4), 20_000
    p1, tau, s, _ = _box_candidates_batch(rep, [wide + (-K - 0.5, K + 0.5)])
    k, r = _hit_times(s)
    hit = np.abs(r) < 0.5
    hits = sorted(zip(np.abs(k[hit]).tolist(), p1[hit].tolist(), tau[hit].tolist()))
    (t1, _, _), (t2, x2, y2) = hits[0], next(h for h in hits if h[0] > hits[0][0])
    tiny = (x2 - 1e-4, x2 + 1e-4, y2 - 1e-4, y2 + 1e-4)
    assert 125 < t1 < t2 and not (tiny[0] <= hits[0][1] <= tiny[1] and tiny[2] <= hits[0][2] <= tiny[3])
    assert _first_hits(rep, [tiny, tiny, wide], K).tolist() == [t2, t2, t1]


@pytest.mark.parametrize(
    "eta, k_max, calls, windows, points",
    [(0.25, 30_000, 9, 160 // 3, 5266), (0.5, 100_000, 8, 136, 8218), (0.7, 100_000, 8, 136, 1187)],
)
def test_report_covers_cut_windows_and_points(eta, k_max, calls, windows, points, search_spy):
    # 8 reports on _haar_reps(8, seed=2024): one window per pending level
    # and shell took 160 / 136 / 136 windows and 5,266 / 8,218 / 1,187
    # lattice points; shared covers measured 18 / 64 / 72 windows and
    # 3,847 / 6,553 / 1,073 points, one kernel call per round.  At eta =
    # 0.25 each level's first shell holds about 100 points of its own box,
    # so 7 of the 8 reports take one call (13 calls when every level shared
    # the first shell of the largest box)
    for rep in _haar_reps(8, seed=2024):
        shrinking_hit_report(eta, rep, k_max, V0)
    assert search_spy.calls == calls
    assert search_spy.windows <= windows and search_spy.points <= points


def test_reports_take_one_kernel_call(search_spy):
    # 216 reports shaped like the benchmark's (eta = 0.25, k_max = 30000):
    # each level's first shell holds about 100 points of its own box, or
    # one expected hit, so nearly every level hits in the first round.
    # Measured 222 calls, 6 reports with more than one; 306 and 81 when
    # every level shared the first shell of the largest box
    many = 0
    for pt in haar_sample(216, seed=4242):
        calls = search_spy.calls
        shrinking_hit_report(0.25, pt, 30_000, V0)
        many += search_spy.calls - calls > 1
    assert search_spy.calls <= 225 and many <= 8


@pytest.mark.parametrize("eta", [0.4, 0.5])
def test_no_hit_windows_visit_no_more_points_than_one_window(eta, search_spy):
    # the grid targets a level misses, searched again alone: their shells
    # visit the one-window points plus the overlaps of the sigma rectangles
    # of adjacent shells, of area 2*(k + 1/2)*delta^2 at a shell edge k
    # against (2*horizon + 1)*delta*tau for the window; the edges grow
    # fourfold below the horizon, so the overlaps come to about
    # (4/3)*delta/tau of the points at most, bounded here by twice delta/tau
    omega = (1.0, 1.5, 1.0, 1.5)
    split = False
    for pt in haar_sample(2, seed=47):
        for horizon, delta in _dyadic_levels(eta, 2048, omega[2]):
            h = 0.5 * delta
            boxes = [(w1 - h, w1 + h, w2 - h, w2 + h) for w1, w2 in _grid_points(omega, delta)]
            missed = [b for b, t in zip(boxes, _first_hits(pt.rep, boxes, horizon)) if t > horizon]
            if not missed:
                continue
            search_spy.points = search_spy.windows = 0
            assert (_first_hits(pt.rep, missed, horizon) > horizon).all()
            shells, split = search_spy.points, split or search_spy.windows > len(missed)
            search_spy.points = 0
            assert (first_hits_one_window(pt.rep, missed, horizon) > horizon).all()
            assert shells <= search_spy.points * (1.0 + 2.0 * delta / omega[2])
    assert split  # some missed targets were searched in more than one shell


def test_uniform_grid_single_point_reduces_to_single_target():
    pt = haar_sample(1, seed=19)[0]
    v = (1.4, 1.2)
    rep = uniform_grid_experiment((v[0], v[0], v[1], v[1]), 0.2, pt, 2**12)
    T0 = shrinking_hit_report(0.2, pt, 2**12, v)["T0"]
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


def flag_range(c: float, half: float) -> tuple:
    """The least and largest floats x with |x - c| <= half in floats (float
    subtraction is monotone in x, so they bound an interval)."""
    lo, hi = c - half, c + half
    while abs(math.nextafter(lo, -math.inf) - c) <= half:
        lo = math.nextafter(lo, -math.inf)
    while abs(lo - c) > half:
        lo = math.nextafter(lo, math.inf)
    while abs(math.nextafter(hi, math.inf) - c) <= half:
        hi = math.nextafter(hi, math.inf)
    while abs(hi - c) > half:
        hi = math.nextafter(hi, -math.inf)
    return lo, hi


def test_window_counts_search_every_counted_float(monkeypatch):
    # the box each window's shells are searched with holds every p1 and tau
    # that the count test |p1 - v1| <= dk/2 accepts at the window's first
    # time, whatever the rounding of v -+ dk/2 (at v = (-0.3, 0.7), eta = 0
    # the float v1 + dk/2 lies below floats that the test accepts)
    hits, seen = ergodic_mod._hits, []
    monkeypatch.setattr(ergodic_mod, "_hits", lambda reps, bounds: seen.append(bounds) or hits(reps, bounds))
    rep = _haar_reps(1, seed=49)[0]
    for v in ((-0.3, 0.7), (1.3, 0.8), (-0.45, 1.7), (0.9, 0.4)):
        for eta in (0.0, 0.25, 0.7):
            seen.clear()
            wins = window_hit_counts(rep, v, eta, 100_000)
            assert len(seen) == 1 and len(seen[0]) == 2 * len(wins)
            for j, w in enumerate(wins):
                half = 0.5 * _target_size(w["lo"], eta, _delta_cap(v[1]))
                (p1_lo, p1_hi), (tau_lo, tau_hi) = flag_range(v[0], half), flag_range(v[1], half)
                for b in seen[0][2 * j : 2 * j + 2]:
                    assert b[0] <= p1_lo and p1_hi <= b[1] and b[2] <= tau_lo and tau_hi <= b[3]


@given(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e-6, 1e-6), st.floats(-1e6, 1e6)),
    st.floats(0.0, 0.25, exclude_min=True),
    st.sampled_from([None, 1.0, -1.0, 0.5, -2.0]),
)
def test_closed_range_is_the_flag_test(v, hw, scale):
    # the ends pass abs(x - v) <= hw and the floats just outside them fail
    # it; with v = scale*hw an end lies at or near 0, where the floats are
    # far finer than the steps of x - v
    v = v if scale is None else scale * hw
    lo, hi = _closed_range(v, hw)
    assert abs(lo - v) <= hw and abs(hi - v) <= hw
    assert abs(math.nextafter(lo, -math.inf) - v) > hw
    assert abs(math.nextafter(hi, math.inf) - v) > hw


def test_grid_levels_search_targets_in_slices(monkeypatch):
    # a level of more than _CHUNK targets is searched a slice at a time, the
    # first slice with a miss ending it, with the verdict of one call on all
    first_hits, calls = ergodic_mod._first_hits, []

    def spy(reps, boxes, horizon):
        first = first_hits(reps, boxes, horizon)
        calls.append((horizon, len(boxes), bool((first > horizon).any())))
        return first

    monkeypatch.setattr(ergodic_mod, "_first_hits", spy)
    pt = haar_sample(1, seed=50)[0]
    sliced = set()
    for omega, eta, k_max in (((1.0, 3.5, 1.0, 3.5), 0.25, 8192), ((1.0, 1.4, 1.0, 1.4), 0.5, 4096)):
        calls.clear()
        report = uniform_grid_experiment(omega, eta, pt, k_max)
        assert max(n for _, n, _ in calls) <= _CHUNK
        for lv in report.levels:
            level = [(n, miss) for h, n, miss in calls if h == lv["horizon"]]
            assert [miss for _, miss in level] == [False] * (len(level) - 1) + [not lv["hit"]]
            assert sum(n for n, _ in level) == lv["nGrid"] or not lv["hit"]
            boxes = [_target_box(w1, w2, lv["delta"]) for w1, w2 in _grid_points(omega, lv["delta"])]
            assert lv["hit"] == bool((first_hits(pt.rep, boxes, lv["horizon"]) <= lv["horizon"]).all())
            if lv["nGrid"] > _CHUNK:
                sliced.add(lv["hit"])
    assert sliced == {True, False}  # levels of several slices, hit and missed


def test_drivers_make_one_kernel_call(monkeypatch):
    # one first-hit search per shrinking report, with one box and one horizon
    # per dyadic level; one batched search per window count; and one
    # first-hit search per uniform-grid level of at most _CHUNK targets
    kernel, first_hits = homogeneous_mod._box_candidates_batch, ergodic_mod._first_hits
    calls, searches = [], []

    def spy(reps, bounds):
        calls.append(len(bounds))
        return kernel(reps, bounds)

    def first_hits_spy(reps, boxes, horizon):
        searches.append((len(boxes), horizon))
        return first_hits(reps, boxes, horizon)

    monkeypatch.setattr(homogeneous_mod, "_box_candidates_batch", spy)
    monkeypatch.setattr(ergodic_mod, "_first_hits", first_hits_spy)
    rep = _haar_reps(1, seed=31)[0]
    report = shrinking_hit_report(0.25, rep, 30_000, V0)
    horizons = [lv["horizon"] for lv in report["levels"]]
    assert searches == [(len(horizons), tuple(horizons))]
    calls.clear()
    window_hit_counts(rep, V0, 0.7, 30_000)
    assert calls == [2 * 15]  # two shells per dyadic window
    searches.clear()
    report = uniform_grid_experiment((1.2, 1.4, 0.7, 0.9), 0.1, rep, 512)
    assert searches == [(lv["nGrid"], lv["horizon"]) for lv in report.levels]


@pytest.mark.parametrize(
    "call",
    [
        lambda rep: shrinking_hit_report(0.5, rep, 100_000, (3e13, 0.8)),
        lambda rep: shrinking_hit_report(0.25, rep, 64, (1.3, math.nan)),
        lambda rep: window_hit_counts(rep, (3e13, 0.8), 0.5, 100_000),
        lambda rep: window_hit_counts(rep, (math.inf, 0.8), 0.5, 64),
        lambda rep: uniform_grid_experiment((1.0, 1e308, 1.0, 2.0), 0.15, rep, 64),
        lambda rep: uniform_grid_experiment((1.0, math.inf, 1.0, 2.0), 0.15, rep, 64),
        lambda rep: uniform_grid_experiment((1.0, 2.0, 1.0, math.nan), 0.15, rep, 64),
        lambda rep: uniform_grid_experiment((3e13, 3e13, 1.0, 1.0), 0.5, rep, 100_000),
    ],
    ids=["report-huge", "report-nan", "counts-huge", "counts-inf", "grid-huge", "grid-inf", "grid-nan", "grid-late"],
)
def test_dyadic_drivers_reject_targets_no_search_can_represent(call, search_spy):
    # the smallest level's box is checked before any level is searched: at
    # v1 = 3e13 the early boxes hold many floats, the level at k_max one
    rep = _haar_reps(1, seed=53)[0]
    with pytest.raises(ValueError, match="finite|single float"):
        call(rep)
    assert search_spy.points == search_spy.windows == 0


@pytest.mark.parametrize("Ts", [[], [-4], [16, -1], [True], [16, 2.5], [100.7], [np.int64(-1)]])
def test_miss_rate_rejects_bad_half_widths(Ts):
    match = "at least one" if not Ts else "must be >= 0"
    with pytest.raises(ValueError, match=match):
        miss_rate_curve(Ts, 0.2, V0, 50, seed=1)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: variance_curve(SPEC, [], 50, seed=1), "at least one orbit half-width"),
        (lambda: variance_curve(SPEC, [16, -1], 50, seed=1), "must be >= 0"),
        (lambda: matcoef_curve(SPEC, [], 50, seed=1), "at least one shear time"),
        (lambda: matcoef_curve(SPEC, [1.0], 50, seed=1, orbit_window=-1), "orbit window must be >= 0"),
        (lambda: matcoef_curve(SPEC, [1.0], 50, seed=1, orbit_window=-3), "orbit window must be >= 0"),
        (lambda: variance_curve(SPEC, [16, 2.5], 50, seed=1), "orbit half-widths must be >= 0"),
        (lambda: variance_curve(SPEC, [100.7], 50, seed=1), "orbit half-widths must be >= 0"),
        (lambda: variance_curve(SPEC, [False, 16], 50, seed=1), "orbit half-widths must be >= 0"),
        (lambda: matcoef_curve(SPEC, [1.0], 50, seed=1, orbit_window=2.5), "orbit window must be >= 0"),
        (lambda: matcoef_curve(SPEC, [1.0], 50, seed=1, orbit_window=True), "orbit window must be >= 0"),
    ],
    ids=["Ts-empty", "Ts-negative", "ts-empty", "window-1", "window-3", "Ts-float", "Ts-float-100.7", "Ts-bool",
         "window-float", "window-bool"],
)
def test_curves_reject_inputs_they_cannot_run(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda rep: hit_set(rep, SPEC, 0), "horizon K"),
        (lambda rep: hit_set(rep, SPEC, 2.5), "horizon K must be >= 1"),
        (lambda rep: hit_set(rep, SPEC, 100.7), "horizon K must be >= 1"),
        (lambda rep: hit_set(rep, SPEC, True), "horizon K must be >= 1"),
        (lambda rep: shrinking_hit_report(0.25, rep, 64.0, V0), "k_max must be >= 2"),
        (lambda rep: shrinking_hit_report(0.25, rep, True, V0), "k_max must be >= 2"),
        (lambda rep: window_hit_counts(rep, V0, 0.25, 0), "k_max must be >= 1"),
        (lambda rep: window_hit_counts(rep, V0, 0.25, 100.7), "k_max must be >= 1"),
        (lambda rep: window_hit_counts(rep, V0, 0.25, True), "k_max must be >= 1"),
        (lambda rep: uniform_grid_experiment((1.2, 1.4, 0.7, 0.9), 0.2, rep, 1), "k_max must be >= 2"),
        (lambda rep: uniform_grid_experiment((1.2, 1.4, 0.7, 0.9), 0.2, rep, 2.5), "k_max must be >= 2"),
        (lambda rep: uniform_grid_experiment((1.2, 1.4, 0.7, 0.9), 0.2, rep, True), "k_max must be >= 2"),
        (lambda rep: shrinking_hit_report(1.0, rep, 64, V0), "shrink exponent"),
        (lambda rep: shrinking_hit_report(math.nan, rep, 64, V0), "shrink exponent"),
        (lambda rep: shrinking_hit_report(0.25, rep, 1, V0), "k_max"),
        (lambda rep: window_hit_counts(rep, V0, 1.5, 64), "shrink exponent"),
        (lambda rep: uniform_grid_experiment((1.2, 1.4, 0.7, 0.9), -0.1, rep, 64), "shrink exponent"),
        # k_max^-eta overflows a float: the exponent is refused before any size is taken
        (lambda rep: shrinking_hit_report(-1000.0, rep, 64, V0), "shrink exponent"),
        (lambda rep: window_hit_counts(rep, V0, -1000.0, 64), "shrink exponent"),
        (lambda rep: uniform_grid_experiment((1.2, 1.4, 0.7, 0.9), -1000.0, rep, 64), "shrink exponent"),
        (lambda rep: uniform_grid_experiment((1.4, 1.2, 0.7, 0.9), 0.2, rep, 64), "ordered"),
        (lambda rep: uniform_grid_experiment((-1.0, 1.0, 0.7, 0.9), 0.2, rep, 64), "off the axes"),
        (lambda rep: uniform_grid_experiment((0.0, 1.0, 0.7, 0.9), 0.2, rep, 64), "off the axes"),
        (lambda rep: uniform_grid_experiment((0.0, 0.0, 0.7, 0.9), 0.2, rep, 64), "off the axes"),
    ],
    ids=[
        "hit-set-K", "hit-set-K-float", "hit-set-K-float-100.7", "hit-set-K-bool", "report-kmax-float",
        "report-kmax-bool", "counts-kmax", "counts-kmax-float", "counts-kmax-bool", "grid-kmax", "grid-kmax-float",
        "grid-kmax-bool", "report-eta-1", "report-eta-nan", "report-kmax", "counts-eta", "grid-eta",
        "report-eta-overflow", "counts-eta-overflow", "grid-eta-overflow", "grid-order", "grid-across-axis",
        "grid-on-axis", "grid-axis-point",
    ],
)
def test_drivers_reject_inputs_they_cannot_run(call, match, search_spy):
    with pytest.raises(ValueError, match=match):
        call(_haar_reps(1, seed=53)[0])
    assert search_spy.points == 0


# Integer words with entries in {-1, 0, 1}: a reduced representative times
# one of them is a representative of the same point that is not reduced.
WORDS = ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]], [[1, 0], [1, 1]], [[1, -1], [1, 0]])

# The letters S, T and T^-1 of the words of oracle_cases.
LETTERS = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)))


def word_matrix(letters) -> np.ndarray:
    """The product of the letters, an integer matrix, as floats."""
    w = np.eye(2, dtype=np.int64)
    for m in letters:
        w = w @ np.array(m, dtype=np.int64)
    return w.astype(float)


@st.composite
def oracle_cases(draw):
    """A representative, a reduced one times a word of up to 20 letters in
    S, T and T^-1 (reduced or not), and a target whose box keeps tau <= 1.5,
    so that the oracle's grid on the representative the queries search (its
    reduced one) stays below a million rows; half the targets lie near a
    translate that the oracle finds at time 0."""
    g = chart_rep(draw(st.floats(-0.5, 0.5)), draw(st.floats(1.0, 2.0)), draw(st.floats(0.0, 2.0 * math.pi)))
    rep = word_matrix(draw(st.lists(st.sampled_from(LETTERS), max_size=20))) @ g
    v1 = draw(st.floats(0.2, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    v2 = draw(st.floats(0.3, 1.3))
    near = [h for h in orbit_hits_brute(_rep_of(rep)[0], 0, (-2.0, 2.0, 0.35, 1.25)) if abs(h[1]) >= 0.1]
    if near and draw(st.booleans()):
        _, p1, tau, _ = draw(st.sampled_from(near))
        v1, v2 = p1 + draw(st.floats(-0.05, 0.05)), tau + draw(st.floats(-0.05, 0.05))
    return rep, TargetSpec(v1, v2, min(draw(st.floats(0.02, 0.4)), 0.9 * v2))


@settings(max_examples=80)
@given(oracle_cases(), st.integers(1, 64))
# reduced reps (z = 1.25i) whose identity translate has s = +-1/2 exactly:
# it hits at no time
@example(case=(np.array([[1.0, -0.5], [0.4, 0.8]]), TargetSpec(-0.5, 0.8, 0.2)), K=4)
@example(case=(np.array([[1.0, 0.5], [-0.4, 0.8]]), TargetSpec(0.5, 0.8, 0.2)), K=4)
def test_quotient_queries_match_the_brute_orbit_oracle(case, K):
    # every query answers as the oracle does on the representative it
    # searches: the rep itself where it is reduced, else its reduced one
    given, spec = case
    rep = _rep_of(given)[0]
    hits = orbit_hits_brute(rep, K, spec.box)
    assert hit_set(given, spec, K).ks == tuple(sorted({k for k, *_ in hits}))
    assert _first_hits(rep, [spec.box], K).tolist() == [min((abs(k) for k, *_ in hits), default=K + 1)]
    assert in_quotient_target(given, spec) == bool(orbit_hits_brute(rep, 0, spec.box))
    _, p1, tau, r = np.array(orbit_hits_brute(rep, 0, _bump_box(spec))).reshape(-1, 4).T
    # the same terms, summed in an order of their own
    assert target_bump(given, spec) == pytest.approx(float((_bump_weight(spec, p1, tau) * bump(r)).sum()), rel=1e-12, abs=0.0)


def test_horizon_edges_match_brute_force():
    # Haar points with brute hits at |k| = K and |k| = K + 1 for a horizon
    # K <= 64: hit_set and window_hit_counts (eta = 0, so every time has the
    # box of the spec) count the first and not the second
    spec = TargetSpec(*V0, _delta_cap(V0[1]))
    cases = 0
    for rep in _haar_reps(40, seed=61):
        hits = orbit_hits_brute(rep, 65, spec.box)
        times = {abs(k) for k, *_ in hits}
        for K in (K for K in range(1, 65) if K in times and K + 1 in times):
            ks = sorted({k for k, *_ in hits if abs(k) <= K})
            assert hit_set(rep, spec, K).ks == tuple(ks) and max(map(abs, ks)) == K
            want = [(lo, min(2 * lo - 1, K)) for lo, _ in _dyadic_levels(0.0, K, V0[1])]
            want = [{"lo": lo, "hi": hi, "count": sum(lo <= abs(k) <= hi for k in ks)} for lo, hi in want]
            assert window_hit_counts(rep, V0, 0.0, K) == want
            cases += 1
    assert cases >= 100


def test_miss_chunks_and_report_levels_match_brute_force():
    # the first hits of a miss chunk (_first_hits on per-sample reps, as
    # _miss_chunk calls it) at horizons K <= 64 with samples whose first
    # brute hit lies at |k| = K and at K + 1: the first is the sample's
    # answer, the second reads K + 1 as no hit does
    reps = _haar_reps(40, seed=61)
    spec = TargetSpec(*V0, 0.2)
    first = [min((abs(k) for k, *_ in orbit_hits_brute(rep, 64, spec.box)), default=65) for rep in reps]
    edges = {"at": 0, "beyond": 0}
    for K in sorted({K for f in first if f <= 64 for K in (f - 1, f) if K >= 0}):
        assert _miss_chunk((spec, [K], reps)).tolist() == [min(f, K + 1) for f in first]
        edges["at"] += first.count(K)
        edges["beyond"] += first.count(K + 1)
    assert min(edges.values()) >= 30
    # each level of a report hits when the level's flag test passes at some
    # |k| <= its horizon 2^j; the oracle searches a box twice the level's
    # size and applies the flag test to its floats
    edges = {"at": 0, "beyond": 0}
    for rep in reps:
        report = shrinking_hit_report(0.25, rep, 64, V0)
        flags = []
        for level in report["levels"]:
            h, d = level["horizon"], level["delta"]
            box = (V0[0] - d, V0[0] + d, V0[1] - d, V0[1] + d)
            hits = [k for k, p1, tau, _ in orbit_hits_brute(rep, h + 1, box) if abs(p1 - V0[0]) <= 0.5 * d and abs(tau - V0[1]) <= 0.5 * d]
            f = min((abs(k) for k in hits), default=h + 2)
            assert level["hit"] == (f <= h)
            flags.append(f <= h)
            edges["at"] += f == h
            edges["beyond"] += f == h + 1
        assert report["T0"] == _certified_T0(flags, 64)
    assert min(edges.values()) >= 10


@pytest.mark.parametrize(
    "x, K, ks",
    [(1e13 + 0.4, 64, (4, 29, 55)), (3e14 + 0.4, 64, (-42, -35, -6, 22, 29, 58)), (1e16, 8, ()), (1e17, 8, ())],
    ids=["1e13", "3e14", "1e16", "1e17"],
)
def test_large_shears_answer_as_their_reduced_coset(x, K, ks):
    # upper_shear(x) and upper_shear(x - round(x)) are one coset.  Searched
    # as given, in a window whose slack grew with the entry, the first
    # returned (4, 29), the second () after 6.5 s, and the last two () in
    # 15 s and not within 60 s
    spec = TargetSpec(*V0, 0.2)
    reduced = upper_shear(x - round(x))
    assert ks == tuple(sorted({k for k, *_ in orbit_hits_brute(reduced, K, spec.box)}))
    assert hit_set(upper_shear(x), spec, K).ks == hit_set(reduced, spec, K).ks == ks
    if not ks:
        assert hit_set(np.eye(2), spec, K).ks == ks
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        hit_set(upper_shear(x), spec, K)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.01


def spec_with_end(point: tuple, end: int, value: float, delta: float):
    """A target of size delta whose box has value as its end number end
    (p1_lo, p1_hi, tau_lo, tau_hi), centred on point in the other
    coordinate, found by stepping the centre a float at a time from
    value -+ delta/2; None where no such centre is near."""
    v = list(point)
    v[end // 2] = value + (0.5 if end % 2 == 0 else -0.5) * delta
    for _ in range(16):
        got = _target_box(*v, delta)[end]
        if got == value:
            return TargetSpec(*v, delta)
        v[end // 2] = math.nextafter(v[end // 2], math.inf if got < value else -math.inf)
    return None


def test_quotient_queries_match_the_brute_oracle_on_planted_box_ends():
    # hits planted on each end of a target box, and one float outside it, for
    # reduced and non-reduced reps: at their time k by hit_set and _first_hits
    # (the boxes of one rep in one call, so they share cover windows), and by
    # in_quotient_target on the rep (whose hits at k = 0 come first) and on
    # its translate rep*lower_shear(k).  A non-reduced rep is searched
    # through its reduced one, so its hits are planted from that rep's
    # floats, and each answer is the oracle's on the rep its query searches
    K = 16
    reps = _haar_reps(8, seed=61)
    planted = 0
    for given in [*reps, *(np.array(w, dtype=float) @ g for w, g in zip(WORDS[1:], reps))]:
        rep = np.array(_rep_of(given)[0])
        specs, inside = [], []
        for k, p1, tau, _ in sorted(orbit_hits_brute(rep, K, (-2.0, 2.0, 0.35, 1.5)), key=lambda h: abs(h[0]))[:3]:
            for end in range(4):
                for out in (False, True):
                    value = (p1, tau)[end // 2]
                    if out:
                        value = math.nextafter(value, math.inf if end % 2 == 0 else -math.inf)
                    spec = spec_with_end((p1, tau), end, value, 0.2)
                    if spec is None:
                        continue
                    hits = orbit_hits_brute(rep, K, spec.box)
                    assert ((k, p1, tau) in {h[:3] for h in hits}) == (not out)
                    assert hit_set(given, spec, K).ks == tuple(sorted({h[0] for h in hits}))
                    for g in (given, rep @ lower_shear(k)):
                        assert in_quotient_target(g, spec) == bool(orbit_hits_brute(_rep_of(g)[0], 0, spec.box))
                    specs.append(spec)
                    inside.append(min((abs(h[0]) for h in hits), default=K + 1))
                    planted += 1
        if specs:
            assert _first_hits(rep, [sp.box for sp in specs], K).tolist() == inside
    assert planted >= 200
