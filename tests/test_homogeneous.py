import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import orbitlab.homogeneous as homogeneous_mod
from orbitlab.enumeration import count, enumerate_ball
from orbitlab.errors import DegenerateCoordinate, InjectivityUnverified, NonConvergence
from orbitlab.homogeneous import (
    COVOLUME,
    HomPoint,
    TargetSpec,
    Y_MAX,
    _haar_coords,
    _haar_reps,
    box_haar_mass,
    bump,
    bump_mean,
    haar_sample,
    in_quotient_target,
    in_target,
    reduce_point,
    target_bump,
    target_measure,
)
from orbitlab.matrices import (
    act_upper_half,
    diag_squeeze,
    lower_shear,
    rotation,
    upper_shear,
)

V0 = (1.3, 0.8)


def center_matrix(spec, s=0.0):
    """Chart matrix whose second column is exactly the target and shear is s."""
    D = spec.v2
    B = spec.v1
    C = s * D
    A = (1.0 + B * C) / D
    return np.array([[A, B], [C, D]])


def test_target_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec(0.0, 0.8, 0.1)
    with pytest.raises(ValueError):
        TargetSpec(1.3, -0.8, 0.1)
    with pytest.raises(ValueError):
        TargetSpec(1.3, 0.8, 0.6)
    with pytest.raises(ValueError):
        TargetSpec(1.3, 0.1, 0.2)  # delta >= v2


def test_bump_profile():
    xs = np.linspace(-0.6, 0.6, 2001)
    vals = bump(xs)
    assert np.all(vals >= 0)
    assert np.all(vals[np.abs(xs) >= 0.5] == 0)
    np.testing.assert_allclose(vals, bump(-xs))  # even
    mass, _ = quad(bump, -0.5, 0.5, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert bump(0.0) > 1.0


def test_reduce_examples():
    pt, gam = reduce_point(np.eye(2))
    assert abs(gam.a) == 1 and gam.b == 0 and gam.c == 0
    pt, gam = reduce_point(upper_shear(2.3))
    z = act_upper_half(pt.rep, 1j)
    assert z.real == pytest.approx(0.3)
    assert (gam.a, gam.b, gam.c, gam.d) in {(1, -2, 0, 1), (-1, 2, 0, -1)}
    g = upper_shear(0.1) @ diag_squeeze(0.1)  # sends i to 0.1 + 0.1i
    pt, gam = reduce_point(g)
    z = act_upper_half(pt.rep, 1j)
    assert abs(z) >= 1.0 - 1e-12 and abs(z.real) <= 0.5 + 1e-12


def test_reduce_idempotent_and_group_invariant():
    rng = np.random.default_rng(5)
    small = [g for g in enumerate_ball(50)]
    for _ in range(25):
        g = upper_shear(rng.uniform(-4, 4)) @ diag_squeeze(math.exp(rng.uniform(-2, 2))) @ rotation(
            rng.uniform(0, 2 * math.pi)
        )
        pt, _ = reduce_point(g)
        pt2, gam2 = reduce_point(pt.rep)
        np.testing.assert_allclose(pt2.rep, pt.rep, atol=1e-12)
        g0 = small[rng.integers(len(small))]
        pt3, _ = reduce_point(g0.as_array() @ g)
        np.testing.assert_allclose(pt3.rep, pt.rep, rtol=1e-9, atol=1e-12)


def test_reduce_rejects_bad_input_and_nonconvergence():
    with pytest.raises(ValueError):
        reduce_point(np.diag([2.0, 1.0]))
    with pytest.raises(NonConvergence):
        reduce_point(upper_shear(1e6) @ diag_squeeze(1e-6), max_steps=1)


def test_haar_deterministic_and_order_independent():
    a = _haar_reps(500, seed=9)
    b = _haar_reps(500, seed=9)
    assert np.array_equal(a, b)
    c = _haar_reps(100, seed=9)
    assert np.array_equal(a[:100], c)  # per-index streams
    assert not np.array_equal(a, _haar_reps(500, seed=10))


def test_hompoint_text_roundtrip():
    pt = haar_sample(1, seed=33)[0]
    back = HomPoint.from_text(pt.to_text())
    assert np.array_equal(back.rep, pt.rep)  # 17 digits round-trip doubles
    with pytest.raises(ValueError):
        HomPoint.from_text("1,2,3")


def test_haar_points_are_reduced():
    for pt in haar_sample(200, seed=4):
        z = act_upper_half(pt.rep, 1j)
        assert abs(z) >= 1.0 - 1e-9 and abs(z.real) <= 0.5 + 1e-9


def test_haar_moments_match_quadrature():
    x, y, th = _haar_coords(200_000, seed=12)
    # truncated-domain quadrature oracles in the half-plane coordinates
    area, _ = quad(lambda t: 2.0 * (1.0 / math.sqrt(1 - t * t) - 1.0 / Y_MAX), 0.0, 0.5)
    inv_y, _ = quad(lambda t: 2.0 * 0.5 * (1.0 / (1 - t * t) - 1.0 / Y_MAX**2), 0.0, 0.5)
    m = inv_y / area
    est = (1.0 / y).mean()
    se = (1.0 / y).std() / math.sqrt(y.size)
    assert abs(est - m) <= 3 * se
    tail, _ = quad(lambda t: 0.5 - 1.0 / Y_MAX, -0.5, 0.5)
    p2 = tail / area
    frac = (y > 2.0).mean()
    se = math.sqrt(p2 * (1 - p2) / y.size)
    assert abs(frac - p2) <= 3 * se
    assert th.min() >= 0.0 and th.max() < 2 * math.pi


def test_in_target_center_and_miss():
    for delta in (0.05, 0.2, 0.4):
        spec = TargetSpec(*V0, delta)
        assert in_target(center_matrix(spec), spec)
    spec = TargetSpec(5.0, 5.0, 0.1)
    assert not in_target(np.eye(2), spec)


def test_in_target_boundary_closed_and_shear_open():
    delta = 0.25
    v2 = 0.75
    spec = TargetSpec(1.3, v2, delta)
    g = center_matrix(spec)
    g[1, 1] = v2 + delta / 2  # second-column condition exactly on the boundary
    g[0, 0] = (1.0 + g[0, 1] * g[1, 0]) / g[1, 1]
    assert in_target(g, spec)
    g2 = center_matrix(spec, s=0.5)  # shear window is open
    assert not in_target(g2, spec)
    g3 = center_matrix(spec, s=0.49999)
    assert in_target(g3, spec)


def test_in_target_negative_chart_and_degenerate():
    spec = TargetSpec(*V0, 0.2)
    assert not in_target(-center_matrix(spec), spec)
    with pytest.raises(DegenerateCoordinate):
        in_target(rotation(math.pi / 2), spec)


def test_in_target_shear_translation_shifts_only_shear():
    spec = TargetSpec(*V0, 0.3)
    g = center_matrix(spec, s=0.3)
    assert in_target(g, spec)
    assert not in_target(g @ lower_shear(1.0), spec)  # shear moves to 1.3
    assert in_target(g @ lower_shear(-0.5), spec)  # shear moves to -0.2


def test_quotient_membership_center_and_invariance():
    spec = TargetSpec(*V0, 0.2)
    g = center_matrix(spec)
    assert in_quotient_target(g, spec)
    assert in_quotient_target(HomPoint(g), spec)
    tiny = TargetSpec(5.0, 5.0, 1e-4)
    assert not in_quotient_target(np.eye(2), tiny)
    rng = np.random.default_rng(8)
    small = [g0 for g0 in enumerate_ball(50)]
    reps = _haar_reps(50, seed=13)
    for i in range(50):
        member = in_quotient_target(reps[i], spec)
        g0 = small[rng.integers(len(small))]
        assert in_quotient_target(g0.as_array() @ reps[i], spec) == member


def test_bump_center_value_and_support():
    spec = TargetSpec(*V0, 0.2)
    g = center_matrix(spec)
    assert target_bump(g, spec) == pytest.approx(bump(0.0) ** 3, rel=1e-12)
    assert target_bump(np.eye(2), TargetSpec(5.0, 5.0, 0.1)) == 0.0
    reps = _haar_reps(3000, seed=14)
    for i in range(3000):
        if target_bump(reps[i], spec) > 0.0:
            assert in_quotient_target(reps[i], spec)


def test_bump_mean_matches_monte_carlo():
    spec = TargetSpec(*V0, 0.2)
    reps = _haar_reps(200_000, seed=15)
    vals = np.array([target_bump(reps[i], spec) for i in range(reps.shape[0])])
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - bump_mean(spec)) <= 3 * se


def test_bump_group_integral_quadrature():
    # unfolded group integral of the product bump = (x-width) * 2*delta*v2
    spec = TargetSpec(*V0, 0.2)
    dx = spec.delta / max(1.0, spec.v2 + spec.delta / 2)
    y_of_w = lambda w: quad(lambda ww: 2.0 * ww * bump((ww - spec.v2) / spec.delta), spec.v2 - spec.delta / 2, spec.v2 + spec.delta / 2)
    val, _ = y_of_w(None)
    assert dx * val == pytest.approx(bump_mean(spec) * COVOLUME, rel=1e-9)


def test_box_mass_quadrature_and_scaling():
    for v in ((1.3, 0.8), (-2.0, 1.4), (0.7, 0.6)):
        spec = TargetSpec(*v, 0.2)
        lo = 1.0 / (spec.v2 + spec.delta / 2) ** 2
        hi = 1.0 / (spec.v2 - spec.delta / 2) ** 2
        mass, _ = quad(lambda y: spec.delta * math.sqrt(y) / (y * y), lo, hi)
        assert mass == pytest.approx(box_haar_mass(spec), rel=1e-10)
    assert box_haar_mass(TargetSpec(*V0, 0.4)) == pytest.approx(4 * box_haar_mass(TargetSpec(*V0, 0.2)))


def test_covolume_against_ball_count():
    # ball volume 2*pi^2*(T-2) against the exact lattice count
    T = 100_000
    vol = 2 * math.pi**2 * (T - 2)
    assert vol / count(T) == pytest.approx(COVOLUME, rel=0.01)


def test_target_measure_and_injectivity_probe():
    spec = TargetSpec(*V0, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = target_measure(spec, probe=64, seed=3)
    assert val == pytest.approx(2 * 0.2**2 / COVOLUME)
    # doubling occurs once delta >= v2 - delta/2: the upper-shear translate of
    # a low-tau box corner lands back inside the box
    wide = TargetSpec(1.3, 0.6, 0.45)
    with pytest.warns(InjectivityUnverified):
        target_measure(wide, probe=64, seed=3)


def test_injectivity_probe_is_one_batched_search(monkeypatch):
    # the 12 corner-and-edge points and the probe points share one kernel call
    kernel = homogeneous_mod._box_candidates_batch
    calls = []

    def spy(reps, bounds):
        calls.append(len(bounds))
        return kernel(reps, bounds)

    monkeypatch.setattr(homogeneous_mod, "_box_candidates_batch", spy)
    target_measure(TargetSpec(*V0, 0.2), probe=128, seed=3)
    assert calls == [12 + 128]
    with pytest.warns(InjectivityUnverified):
        target_measure(TargetSpec(1.3, 0.6, 0.45), probe=64, seed=3)
    assert calls == [12 + 128, 12 + 64]


def test_hit_fraction_matches_measure():
    spec = TargetSpec(*V0, 0.2)
    reps = _haar_reps(100_000, seed=16)
    hits = sum(in_quotient_target(reps[i], spec) for i in range(reps.shape[0]))
    frac = hits / reps.shape[0]
    p = target_measure(spec, probe=0)
    se = math.sqrt(p * (1 - p) / reps.shape[0])
    assert abs(frac - p) <= 3 * se


def sample_box_members(spec, n, seed):
    """Quotient points constructed inside the box, pushed through random words."""
    rng = np.random.default_rng(seed)
    small = [g0.as_array() for g0 in enumerate_ball(50)]
    hw = spec.delta / 2
    out = []
    for _ in range(n):
        q1 = spec.v1 + rng.uniform(-hw, hw)
        q2 = spec.v2 + rng.uniform(-hw, hw)
        s = rng.uniform(-0.499, 0.499)
        D = q2
        B = q1
        C = s * D
        A = (1.0 + B * C) / D
        g = small[rng.integers(len(small))] @ np.array([[A, B], [C, D]])
        out.append(reduce_point(g)[0])
    return out


def test_stability_of_targets_under_perturbation():
    # members of the size-delta target stay in the size-2*delta target around
    # any center within the per-coordinate delta/2 box
    spec = TargetSpec(*V0, 0.2)
    rng = np.random.default_rng(77)
    members = sample_box_members(spec, 200, seed=78)
    for pt in members:
        assert in_quotient_target(pt, spec)
        vv = (
            spec.v1 + rng.uniform(-spec.delta / 2, spec.delta / 2),
            spec.v2 + rng.uniform(-spec.delta / 2, spec.delta / 2),
        )
        assert in_quotient_target(pt, TargetSpec(vv[0], vv[1], 2 * spec.delta))
