import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

import orbitlab.homogeneous as homogeneous_mod
from orbitlab.enumeration import count, enumerate_ball
from orbitlab.ergodic import hit_set, shrinking_hit_report, uniform_grid_experiment, window_hit_counts
from orbitlab.errors import DegenerateCoordinate, InjectivityUnverified, NonConvergence
from orbitlab.homogeneous import (
    COVOLUME,
    HomPoint,
    TargetSpec,
    Y_MAX,
    _box_candidates_batch,
    _bump_x_width,
    _haar_coords,
    _haar_reps,
    _reduced_candidates,
    _rep_of,
    _target_box,
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
from conftest import orbit_hits_brute
from test_kernel import chart_rep

V0 = (1.3, 0.8)


def as_array(g) -> np.ndarray:
    """The integer element g as a float 2x2 matrix."""
    return np.array(g.entries(), dtype=float).reshape(2, 2)


def center_matrix(spec, s=0.0):
    """Chart matrix whose second column is exactly the target and shear is s."""
    D = spec.v2
    B = spec.v1
    C = s * D
    A = (1.0 + B * C) / D
    return np.array([[A, B], [C, D]])


@pytest.mark.parametrize(
    "v, delta, match",
    [
        ((math.nan, 0.8), 0.2, "finite"),
        ((1.3, math.inf), 0.2, "finite"),
        ((-math.inf, 0.8), 0.2, "finite"),
        ((1.3, 0.8), math.nan, "finite"),
        ((1e15, 0.8), 0.2, "single float"),
        ((-1e18, 0.8), 0.2, "single float"),
        ((1e308, 0.8), 0.2, "single float"),
        ((1.3, 1e18), 0.2, "single float"),
        ((1.3, 0.8), 1e-300, "single float"),
    ],
)
def test_target_spec_rejects_targets_no_search_can_represent(v, delta, match):
    with pytest.raises(ValueError, match=match):
        TargetSpec(*v, delta)


def test_target_spec_box_is_the_flag_test():
    # the spec holds _target_box once, and its ends are the floats of the
    # test abs(x - v) <= delta/2; 1e14 (ulp 1/64) still has a box of floats
    for spec in (TargetSpec(*V0, 0.2), TargetSpec(1e14, 0.8, 0.2), TargetSpec(-0.3, 0.7, 0.499)):
        assert spec.box == _target_box(spec.v1, spec.v2, spec.delta)
        assert spec.box[0] < spec.box[1] and spec.box[2] < spec.box[3]
        for v, lo, hi in ((spec.v1, *spec.box[:2]), (spec.v2, *spec.box[2:])):
            assert abs(lo - v) <= 0.5 * spec.delta < abs(math.nextafter(lo, -math.inf) - v)
            assert abs(hi - v) <= 0.5 * spec.delta < abs(math.nextafter(hi, math.inf) - v)
    assert TargetSpec(*V0, 0.2) == TargetSpec(*V0, 0.2) and "box" not in repr(TargetSpec(*V0, 0.2))


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


def test_bump_normalizer_constant_has_mass_one():
    # the constant QUADPACK gave for 1/integral, kept for bitwise continuity
    assert repr(bump.normalizer) == "4.50456724208717"
    # tanh-sinh: t = tanh(s)/2 with s = (pi/2) sinh(x) makes 1 - 4t^2 = sech^2 s,
    # so the integrand is exp(-cosh^2 s) (pi/4) cosh(x) sech^2(s); h = 1/64 and
    # |x| <= 6 give the integral correctly rounded
    x = np.arange(-384, 385) / 64.0
    c = np.cosh((math.pi / 2) * np.sinh(x))
    integral = float(np.sum(np.exp(-c * c) * (math.pi / 4) * np.cosh(x) / (c * c))) / 64.0
    assert abs(bump.normalizer * integral - 1.0) < 4e-15


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
        pt3, _ = reduce_point(as_array(g0) @ g)
        np.testing.assert_allclose(pt3.rep, pt.rep, rtol=1e-9, atol=1e-12)


def test_reduce_rejects_bad_input_and_nonconvergence():
    with pytest.raises(ValueError):
        reduce_point(np.diag([2.0, 1.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite determinant-one"):
            reduce_point(np.array([[1.0, bad], [0.0, 1.0]]))
    with pytest.raises(NonConvergence):
        reduce_point(upper_shear(1e6) @ diag_squeeze(1e-6), max_steps=1)
    # determinant one, but g*i = 1e-400*i underflows onto the real axis
    with pytest.raises(DegenerateCoordinate):
        reduce_point(np.diag([1e-200, 1e200]))


@pytest.mark.parametrize(
    "g, z",
    [
        # z = -1/2 + 4i exactly: the tie Re z = -1/2 goes to Re z = +1/2
        ([[2.0, -0.25], [0.0, 0.5]], complex(0.5, 4.0)),
        # z = -1e-8 + i, with x^2 + y^2 == 1.0 in floats: the tie on the unit
        # circle with Re z < 0 goes to Re z > 0
        ([[1.0, -1e-8], [0.0, 1.0]], complex(1e-8, 1.0)),
    ],
    ids=["re-half", "unit-circle"],
)
def test_reduce_point_boundary_ties(g, z):
    pt, gamma = reduce_point(np.array(g))
    assert act_upper_half(pt.rep, 1j) == z
    assert np.array_equal(pt.rep, as_array(gamma) @ np.array(g))


@pytest.mark.parametrize("g", [lower_shear(1e30 + 0.3), lower_shear(1e150)], ids=["1e30", "1e150"])
def test_reduce_point_refuses_a_representative_outside_the_domain(g):
    # determinant one exactly (floats this large are integers), so the
    # reduced point is i; z followed in floats lost its digits, and the
    # representatives with x = 1.4e14 and y = 3.0e-269 were returned as
    # reduced, before
    with pytest.raises(DegenerateCoordinate, match="fundamental domain"):
        reduce_point(g)


# Every public entry of a quotient point, on the target of a spec.
QUERIES = {
    "member": in_quotient_target,
    "bump": target_bump,
    "hit-set": lambda g, spec: hit_set(g, spec, 8),
    "in-target": in_target,
    "report": lambda g, spec: shrinking_hit_report(0.25, g, 64, (spec.v1, spec.v2)),
    "counts": lambda g, spec: window_hit_counts(g, (spec.v1, spec.v2), 0.25, 64),
    "grid": lambda g, spec: uniform_grid_experiment((spec.v1, spec.v1, spec.v2, spec.v2), 0.25, g, 64),
}


@pytest.mark.parametrize(
    "g, error",
    [
        (np.zeros((2, 2)), ValueError),
        ([[1.0, 2.0], [2.0, 4.0]], ValueError),
        ([[math.nan, 0.0], [0.0, 1.0]], ValueError),
        ([[1.0, math.inf], [0.0, 1.0]], ValueError),
        ([[2.0, 0.0], [0.0, 1.0]], ValueError),
        # determinant one, but g10^2 + g11^2 underflows: to 0, then to a
        # subnormal whose reciprocal overflows, so z = g*i leaves the floats
        (np.diag([1e200, 1e-200]), DegenerateCoordinate),
        (np.diag([1e160, 1e-160]), DegenerateCoordinate),
    ],
    ids=["zero", "singular", "nan", "inf", "det-2", "n-zero", "n-subnormal"],
)
@pytest.mark.parametrize("query", QUERIES.values(), ids=QUERIES.keys())
def test_quotient_queries_refuse_matrices_outside_the_group(g, error, query, search_spy):
    # a ZeroDivisionError, a NaN-to-integer error, or an answer for a matrix
    # of determinant 2, before; now refused before any lattice point is searched
    match = "finite determinant-one" if error is ValueError else "upper half plane"
    with pytest.raises(error, match=match):
        query(np.array(g, dtype=float), TargetSpec(*V0, 0.2))
    assert search_spy.points == 0


@pytest.mark.parametrize(
    "g, refused",
    [
        # reduces exactly to the identity
        (upper_shear(1e150), {}),
        # its reduction loses z = g*i: refused by reduce_point
        (lower_shear(1e150), dict.fromkeys(("member", "hit-set", "report"), "fundamental domain")),
        # reduces to a cusp point (y = 1e300), as the stretch is one: rows
        # decide membership (no row reaches the box), and the windows of the
        # orbit searches have row indices beyond int64
        (np.diag([1e-150, 1e150]), dict.fromkeys(("hit-set", "report"), "int64")),
        (np.diag([1e150, 1e-150]), dict.fromkeys(("hit-set", "report"), "int64")),
    ],
    ids=["upper-shear", "lower-shear", "squeeze", "stretch"],
)
def test_windows_whose_rows_leave_int64_are_refused(g, refused, search_spy):
    # valid points of the quotient with an entry near 1e150: an
    # OverflowError from numpy, and a search of the given matrix whose
    # window has row indices beyond int64 (about 7e138 for the shears),
    # before.  A refusal comes before any array is built, and every query
    # that answers answers as for the identity coset (no hit, no member)
    spec = TargetSpec(*V0, 0.2)
    for name, match in refused.items():
        with pytest.raises(DegenerateCoordinate, match=match):
            QUERIES[name](g, spec)
    assert search_spy.points == 0
    for name in {"member", "hit-set", "report"} - refused.keys():
        assert QUERIES[name](g, spec) == QUERIES[name](np.eye(2), spec)


def test_haar_deterministic_and_order_independent():
    a = _haar_reps(500, seed=9)
    b = _haar_reps(500, seed=9)
    assert np.array_equal(a, b)
    c = _haar_reps(100, seed=9)
    assert np.array_equal(a[:100], c)  # per-index streams
    assert not np.array_equal(a, _haar_reps(500, seed=10))


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
        assert in_quotient_target(as_array(g0) @ reps[i], spec) == member


def test_bump_center_value_and_support():
    spec = TargetSpec(*V0, 0.2)
    g = center_matrix(spec)
    assert target_bump(g, spec) == pytest.approx(bump(0.0) ** 3, rel=1e-12)
    assert target_bump(np.eye(2), TargetSpec(5.0, 5.0, 0.1)) == 0.0
    reps = _haar_reps(3000, seed=14)
    for i in range(3000):
        if target_bump(reps[i], spec) > 0.0:
            assert in_quotient_target(reps[i], spec)


PATH_SAMPLES = 25_000  # reduced samples per spec against the batched kernel (about 1 s each)

# The specs of the reduced-point path: V0 at three sizes, delta at its caps
# (1/2, and 0.98*v2 for a small v2), the non-injective box, a negative v1,
# v2 near 2, and a tall box whose rows give some points three or more
# translates.
PATH_SPECS = [
    TargetSpec(*V0, 0.2),
    TargetSpec(*V0, 0.1),
    TargetSpec(*V0, 0.05),
    TargetSpec(*V0, 0.499),
    TargetSpec(0.7, 0.25, 0.98 * 0.25),
    TargetSpec(1.3, 0.6, 0.45),
    TargetSpec(-2.0, 1.4, 0.2),
    TargetSpec(-0.9, 2.1, 0.3),
    TargetSpec(0.1, 3.0, 0.49),
]


def spec_id(spec):
    return f"{spec.v1},{spec.v2},{spec.delta:.4g}"


def bump_box(spec):
    hw1 = 0.5 * _bump_x_width(spec) * (spec.v2 + 0.5 * spec.delta)
    hw = 0.5 * spec.delta
    return (spec.v1 - hw1, spec.v1 + hw1, spec.v2 - hw, spec.v2 + hw)


def kernel_terms(reps, box):
    """Per rep, the kernel's (p1, tau, s) in its order, from one batched call."""
    p1, tau, s, win = (col.tolist() for col in _box_candidates_batch(reps, [box + (-0.5, 0.5)] * len(reps)))
    out = [[] for _ in reps]
    for w, *t in zip(win, p1, tau, s):
        out[w].append(tuple(t))
    return out


def check_path_against_kernel(reps, spec, n_bump):
    """On the representative each rep enters as (_rep_of), the reduced-point
    path lists the kernel's candidates with |s| < 1/2 (bitwise, as a
    multiset), and in_quotient_target on the rep follows them; target_bump
    on the rep equals the correctly rounded sum of the kernel's terms
    bitwise on the first n_bump reps.  Returns how many reps took the path
    and how many the entry replaced by another representative."""
    reps = np.asarray(reps, dtype=float)
    entries = [_rep_of(g) for g in reps]
    searched = [e[0] for e in entries]
    box = spec.box
    taken = 0
    for g, entry, terms in zip(reps, entries, kernel_terms(searched, box)):
        fast = _reduced_candidates(*entry, box)
        hits = sorted(t for t in terms if abs(t[2]) < 0.5)
        assert in_quotient_target(g, spec) == bool(hits)
        if fast is not None:
            assert sorted(fast) == hits
            taken += 1
    dx = _bump_x_width(spec)
    for g, terms in zip(reps[:n_bump], kernel_terms(searched[:n_bump], bump_box(spec))):
        p1, tau, s = np.array(terms).reshape(-1, 3).T
        ref = bump((p1 - spec.v1) / (tau * dx)) * bump((tau - spec.v2) / spec.delta) * bump(s)
        assert target_bump(g, spec) == math.fsum(ref.tolist())
    return taken, sum(e != g for e, g in zip(searched, reps.tolist()))


@pytest.mark.parametrize("spec", PATH_SPECS, ids=spec_id)
def test_reduced_path_matches_kernel(spec):
    reps = _haar_reps(PATH_SAMPLES, seed=21)
    assert check_path_against_kernel(reps, spec, PATH_SAMPLES // 5) == (PATH_SAMPLES, 0)


def adversarial_reps(n, seed):
    """Reps whose z lies on the boundary of F (x = +-1/2, |z| = 1, the corners),
    deep in the cusp, at theta near +-pi/2 (g11 near or at 0), and just
    outside F: within the path's 1e-6 margin and beyond it."""
    rng = np.random.default_rng(seed)
    th = lambda: float(rng.uniform(0.0, 2.0 * math.pi))
    xs = lambda: float(rng.uniform(-0.5, 0.5))
    ys = lambda x: math.sqrt(1.0 - x * x) * math.exp(rng.uniform(0.0, 3.5))  # z in F
    reps = []
    for _ in range(n):
        x = xs()
        reps += [chart_rep(0.5, ys(0.5), th()), chart_rep(-0.5, ys(0.5), th()), chart_rep(x, math.sqrt(1.0 - x * x), th())]
        reps += [chart_rep(-0.5, math.sqrt(3.0) / 2.0, th()), chart_rep(0.5, math.sqrt(3.0) / 2.0, th())]
        reps += [chart_rep(xs(), Y_MAX * (1.0 - rng.uniform(0.0, 1e-3)), th())]
        for sign in (1.0, -1.0):
            reps.append(chart_rep(x, ys(x), sign * (0.5 * math.pi + rng.uniform(-1e-9, 1e-9))))
            g = chart_rep(x, ys(x), sign * 0.5 * math.pi)
            g[1, 1] = 0.0
            reps.append(g)
        for eps in (1e-7, 1e-3):  # inside the margin, then beyond it
            reps += [chart_rep(math.copysign(0.5 + eps, x), ys(0.5), th())]
            reps += [chart_rep(x, math.sqrt(1.0 - eps - x * x), th())]
    return reps


def shear_edge_reps(spec):
    """Reduced reps of chart points with s = +-1/2, (p1, tau) at the box
    center, edges and corners; s stays exact where the reduction is an
    upper shear (tau <= 0.89)."""
    hw = 0.5 * spec.delta
    out = []
    for s in (0.5, -0.5):
        for p1 in (spec.v1 - hw, spec.v1, spec.v1 + hw):
            for tau in (spec.v2 - hw, spec.v2, spec.v2 + hw):
                h = np.array([[(1.0 + p1 * s * tau) / tau, p1], [s * tau, tau]])
                out.append(reduce_point(h)[0].rep)
    return out


@pytest.mark.parametrize("spec", PATH_SPECS, ids=spec_id)
def test_reduced_path_adversarial_reps(spec):
    reps = adversarial_reps(300, seed=22) + shear_edge_reps(spec)
    # every rep takes the path; the two reps per round beyond the margin
    # take it on their reduced representative
    assert check_path_against_kernel(reps, spec, len(reps)) == (len(reps), 2 * 300)
    assert any(in_quotient_target(np.array(g), spec) for g in reps)


@st.composite
def planted_targets(draw):
    """(v1, v2, delta, moved): a target whose chart matrices [[1/tau, p1],
    [0, tau]] near its box are reduced (|p1| < tau/2 and tau < 1, so z = g*i
    lies in the fundamental domain and they are searched as given), or with
    moved set lie below the unit circle (tau > 1.1, so the entry searches
    their reduced representatives).  The p1 range reaches across 0 for
    |v1| < delta: there the floats at its ends are finer than those of
    delta/2, and v -+ delta/2 can round inward."""
    moved = draw(st.booleans())
    f = draw(st.floats(1e-6, 1.0, exclude_max=True))
    t = draw(st.floats(-1.0, 1.0).filter(lambda x: x != 0.0))
    if moved:
        delta = 0.5 * f
        return 0.99 * t * delta, draw(st.floats(1.35, 2.5)), delta, True
    v2 = draw(st.floats(0.2, 0.75))
    delta = f * 0.5 * v2
    return 0.99 * t * (0.5 * v2 - 0.75 * delta), v2, delta, False


@given(planted_targets())
@example((0.12121881172106551, 0.81989636041194, 0.357311198985153, False))
def test_in_target_implies_in_quotient_target(target):
    # chart matrices planted at each end of the spec's box and one float
    # outside it, in p1 and in tau (corners included): a reduced matrix in
    # the box lies in its own coset, as searched, so in_target must imply
    # in_quotient_target.  A matrix below the unit circle is searched
    # through its reduced representative, whose translates' floats may move
    # by a few ulps, so membership is the brute oracle's on that rep.  The
    # example is a target whose corner matrix in_target accepted while the
    # coset search, on a box with the rounded ends v -+ delta/2, missed it.
    v1, v2, delta, moved = target
    spec = TargetSpec(v1, v2, delta)
    p1_lo, p1_hi, tau_lo, tau_hi = spec.box
    p1s = (p1_lo, p1_hi, v1, math.nextafter(p1_lo, -math.inf), math.nextafter(p1_hi, math.inf))
    taus = (tau_lo, tau_hi, v2, math.nextafter(tau_lo, -math.inf), math.nextafter(tau_hi, math.inf))
    for i, p1 in enumerate(p1s):
        for j, tau in enumerate(taus):
            g = np.array([[1.0 / tau, p1], [0.0, tau]])
            rep = _rep_of(g)[0]
            assert (rep != g.tolist()) == moved
            inside = in_target(g, spec)
            assert inside == (i < 3 and j < 3)
            if moved:
                assert in_quotient_target(g, spec) == bool(orbit_hits_brute(rep, 0, spec.box))
            else:
                assert in_quotient_target(g, spec) or not inside


def test_reduced_points_skip_the_kernel(monkeypatch):
    kernel = homogeneous_mod._box_candidates_batch
    calls = []

    def spy(reps, bounds):
        calls.append(len(bounds))
        return kernel(reps, bounds)

    monkeypatch.setattr(homogeneous_mod, "_box_candidates_batch", spy)
    spec = TargetSpec(*V0, 0.2)
    reps = _haar_reps(2000, seed=23)
    member = [in_quotient_target(g, spec) for g in reps]
    bumps = [target_bump(g, spec) for g in reps]
    assert calls == [] and any(member) and any(b > 0.0 for b in bumps)
    # a tall box: some reduced points meet it through three or more
    # translates, and their rows still decide them
    tall = TargetSpec(0.1, 3.0, 0.49)
    tall_reps = _haar_reps(4000, seed=7)
    assert max(len(_reduced_candidates(*_rep_of(g), tall.box)) for g in tall_reps) >= 3
    tall_member = [in_quotient_target(g, tall) for g in tall_reps]
    assert any(tall_member)
    assert any([target_bump(g, tall) > 0.0 for g in tall_reps])
    assert calls == []
    # a non-reduced rep of the same coset is reduced where it enters, and its
    # rows decide it too, with the same answers (tau_hi <= 3.5)
    g0 = np.array([[2.0, 1.0], [1.0, 1.0]])
    picks = [i for i in range(2000) if member[i]][:10] + list(range(10))
    for i in picks:
        assert in_quotient_target(g0 @ reps[i], spec) == member[i]
        assert target_bump(g0 @ reps[i], spec) == pytest.approx(bumps[i], rel=1e-9, abs=1e-12)
    assert [in_quotient_target(g0 @ g, tall) for g in tall_reps[:200]] == tall_member[:200]
    assert calls == []
    # only a box the rows cannot bound (k > 16*y, tau_hi above about 3.58)
    # takes the kernel
    in_quotient_target(g0 @ reps[0], TargetSpec(0.1, 3.5, 0.2))
    assert calls == [1]


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
        assert mass == pytest.approx(target_measure(spec, probe=0) * COVOLUME, rel=1e-10)
    assert target_measure(TargetSpec(*V0, 0.4), probe=0) == pytest.approx(4 * target_measure(TargetSpec(*V0, 0.2), probe=0))


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
    small = [as_array(g0) for g0 in enumerate_ball(50)]
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
