"""The lattice-point search and the box-candidate kernel against brute-force (c, d) scans."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from orbitlab.homogeneous import (
    Y_MAX,
    _SCALAR_ROWS,
    _bezout_rows,
    _box_candidates_batch,
    _lattice_points,
)

BOX_LIMIT = 250_000  # (c, d) pairs one brute-force scan may visit


def ext_gcd(a: int, b: int) -> tuple:
    """Extended gcd: returns (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def chart_rep(x, y, theta):
    """The representative of the chart point (x + iy, theta), built as _haar_reps does."""
    r = math.sqrt(y)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[r * c - x * s / r, r * s + x * c / r], [-s / r, c / r]])


def brute_points(g, tau_lo, tau_hi, sig_lo, sig_hi) -> tuple:
    """(c, d, tau, sigma) of every (c, d) with tau in the window, over a box
    one wider than the window on each side, with the kernel's float expressions.

    (sigma, tau) = (c*g00 + d*g10, c*g01 + d*g11) has determinant one, so the
    (c, d) box comes from the corners of the (sigma, tau) window.
    """
    g00, g01, g10, g11 = (float(t) for t in g.ravel())
    corners = [(sg, t) for sg in (sig_lo, sig_hi) for t in (tau_lo, tau_hi)]
    cs = [g11 * sg - g10 * t for sg, t in corners]
    ds = [-g01 * sg + g00 * t for sg, t in corners]
    c_rng = np.arange(math.floor(min(cs)) - 1, math.ceil(max(cs)) + 2)
    d_rng = np.arange(math.floor(min(ds)) - 1, math.ceil(max(ds)) + 2)
    assume(c_rng.size * d_rng.size <= BOX_LIMIT)
    c, d = (m.ravel() for m in np.meshgrid(c_rng, d_rng, indexing="ij"))
    tau = c * g01 + d * g11
    keep = (tau_lo <= tau) & (tau <= tau_hi)
    c, d, tau = c[keep], d[keep], tau[keep]
    return c, d, tau, c * g00 + d * g10


def brute_candidates(g, p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi) -> list:
    """The (p1, tau, s) of every gamma = (a, b, c, d) with gamma*g in the box,
    with the kernel's float expressions.

    Every (c, d) of the brute_points box is tested, and each primitive row
    scans its top-row shifts with a margin of two on both sides.
    """
    g01, g11 = float(g[0, 1]), float(g[1, 1])
    sig_lo = s_lo * (tau_hi if s_lo < 0 else tau_lo)
    sig_hi = s_hi * (tau_hi if s_hi > 0 else tau_lo)
    c, d, tau, sig = brute_points(g, tau_lo, tau_hi, sig_lo, sig_hi)
    s = sig / tau
    keep = (s_lo <= s) & (s <= s_hi)
    out = []
    for cc, dd, t, sv in zip(c[keep].tolist(), d[keep].tolist(), tau[keep].tolist(), s[keep].tolist()):
        if math.gcd(cc, dd) != 1:
            continue
        _, x, y = ext_gcd(dd, cc)
        a0, b0 = x, -y
        w1 = a0 * g01 + b0 * g11
        for m in range(math.floor((p1_lo - w1) / t) - 2, math.ceil((p1_hi - w1) / t) + 3):
            a, b = a0 + m * cc, b0 + m * dd
            p1 = a * g01 + b * g11
            if p1_lo <= p1 <= p1_hi:
                out.append((p1, t, sv))
    return sorted(out)


def kernel_rows(g, *window) -> list:
    """The (p1, tau, s) rows of a one-window kernel call, in its order."""
    cols = _box_candidates_batch(g, [window])
    assert [col.dtype for col in cols] == [np.float64] * 3 + [np.int64]
    assert len({col.size for col in cols}) == 1 and not cols[3].any()
    return list(zip(*(col.tolist() for col in cols[:3])))


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


reps = st.builds(
    chart_rep,
    st.floats(-0.5, 0.5),
    log_uniform(math.sqrt(3.0) / 2.0, Y_MAX),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)


@st.composite
def windows(draw):
    """Boxes from wide to thin, short shear windows to huge ones, either sign of v1."""
    v1 = draw(st.floats(-3.0, 3.0))
    v2 = draw(st.floats(0.1, 3.0))
    hw1 = draw(log_uniform(1e-3, 1.0))
    hw2 = draw(log_uniform(1e-3, 1.0)) * 0.99 * v2
    s_mid = draw(st.floats(-1e4, 1e4))
    s_half = draw(log_uniform(1e-2, 1e4))
    return (v1 - hw1, v1 + hw1, v2 - hw2, v2 + hw2, s_mid - s_half, s_mid + s_half)


@settings(max_examples=300, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(reps, windows())
def test_box_candidates_match_brute_force(g, window):
    rows = kernel_rows(g, *window)
    assert len(set(rows)) == len(rows)
    assert sorted(rows) == brute_candidates(g, *window)


@settings(suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(log_uniform(1e3, Y_MAX), st.floats(0.0, 2.0 * math.pi), windows())
def test_box_candidates_cusp_representatives(y, theta, window):
    # deep in the cusp the (c, d) parallelogram is long and thin
    g = chart_rep(0.3, y, theta)
    assert sorted(kernel_rows(g, *window)) == brute_candidates(g, *window)


@given(reps, windows(), st.sampled_from(["p1", "tau", "s"]))
def test_box_candidates_empty_windows(g, window, side):
    p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi = window
    if side == "p1":
        p1_lo, p1_hi = p1_hi, p1_lo
    elif side == "tau":
        tau_hi = tau_lo
    else:
        s_lo, s_hi = s_hi, s_lo
    assert kernel_rows(g, p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi) == []


def test_box_candidates_order_and_chart_constraint():
    g = chart_rep(0.1, 2.0, 0.7)
    rows = kernel_rows(g, -1.0, 3.0, 0.6, 1.0, -300.0, 300.0)
    assert len(rows) > 10
    # one bottom row's top-row shifts are adjacent, with p1 increasing: a
    # fixed (tau, s) is one bottom row, and p1 steps by tau (a p1 window
    # wider than tau holds several shifts per row)
    assert len({(tau, s) for _, tau, s in rows}) < len(rows) / 2
    for (p1, tau, s), (p1b, tau2, s2) in zip(rows, rows[1:]):
        if (tau, s) == (tau2, s2):
            assert p1b > p1 and p1b - p1 == pytest.approx(tau, rel=1e-9)
    with pytest.raises(ValueError):
        kernel_rows(g, 1.0, 1.6, 0.0, 1.0, -1.0, 1.0)


@st.composite
def batch_windows(draw):
    """One (g, box) pair of a batch: a generic window, or an empty, thin,
    long, huge-shear or cusp one."""
    kind = draw(st.sampled_from(["generic", "empty", "thin", "long", "shear", "cusp"]))
    if kind == "cusp":
        g = chart_rep(draw(st.floats(-0.5, 0.5)), draw(log_uniform(1e3, Y_MAX)), draw(st.floats(0.0, 6.28)))
    else:
        g = draw(reps)
    p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi = draw(windows())
    if kind == "empty":
        p1_lo, p1_hi = p1_hi, p1_lo
    elif kind == "thin":
        v2 = 0.5 * (tau_lo + tau_hi)
        tau_lo, tau_hi = v2 - 1e-4, v2 + 1e-4
        s_lo, s_hi = -0.5, 0.5
    elif kind in ("long", "shear"):
        # a small box keeps the candidate count of a long window moderate
        v1, v2 = 0.5 * (p1_lo + p1_hi), 0.5 * (tau_lo + tau_hi)
        hw = 0.02 * min(1.0, v2)
        p1_lo, p1_hi, tau_lo, tau_hi = v1 - hw, v1 + hw, v2 - hw, v2 + hw
        if kind == "long":
            s_lo, s_hi = -3e4, 3e4
        else:
            s_lo = draw(st.floats(1e5, 1e6))
            s_hi = s_lo + draw(log_uniform(1.0, 1e3))
    return g, (p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi)


def bits(cols) -> list:
    return [(col.dtype, col.tobytes()) for col in cols]


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(batch_windows(), min_size=1, max_size=6))
def test_batch_matches_lone_windows(batch):
    # the batch is the lone windows' results laid end to end, bitwise, plus
    # the window index
    lone = [_box_candidates_batch(g, [box])[:3] for g, box in batch]
    win = np.concatenate([np.full(cols[0].size, k, dtype=np.int64) for k, cols in enumerate(lone)])
    together = _box_candidates_batch(np.array([g for g, _ in batch]), [box for _, box in batch])
    assert bits(together) == bits([np.concatenate(col) for col in zip(*lone)] + [win])


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(batch_windows(), min_size=1, max_size=6))
def test_one_matrix_matches_repeated_matrix(batch):
    # one matrix for every window is that matrix repeated per window, bitwise
    g = batch[0][0]
    boxes = [box for _, box in batch]
    repeated = _box_candidates_batch(np.array([g] * len(boxes)), boxes)
    assert bits(_box_candidates_batch(g, boxes)) == bits(repeated)


def plane_matrix(u1, u2):
    """The matrix of the closest-point search: second column u, determinant one."""
    n = u1 * u1 + u2 * u2
    return np.array([[u2 / n, u1], [-u1 / n, u2]])


_seed_coord = st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 1e-3)
signed_matrices = st.one_of(
    reps,
    st.builds(plane_matrix, _seed_coord, st.floats(-3.0, 3.0)),
    st.builds(plane_matrix, _seed_coord, st.just(0.0)),  # [[0, u1], [-1/u1, 0]]
)


@st.composite
def signed_windows(draw):
    """(tau, sigma) windows that straddle tau = 0, lie below it or above it."""
    tau_mid = draw(st.one_of(st.floats(-3.0, 3.0), st.just(0.0)))
    tau_half = draw(log_uniform(1e-3, 3.0))
    sig_mid = draw(st.floats(-1e3, 1e3))
    sig_half = draw(log_uniform(1e-2, 1e3))
    return (tau_mid - tau_half, tau_mid + tau_half, sig_mid - sig_half, sig_mid + sig_half)


@settings(max_examples=300, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(signed_matrices, signed_windows())
def test_lattice_points_match_brute_force(g, window):
    tau_lo, tau_hi, sig_lo, sig_hi = window
    blocks = list(_lattice_points([g.tolist()], [window]))
    assert all(w == 0 for w, *_ in blocks)
    assert all(col.dtype == np.int64 for block in blocks for col in block[1:3])
    found = [p for _, *cols in blocks for p in zip(*(col.tolist() for col in cols))]
    assert len(set(found)) == len(found)
    brute = list(zip(*(col.tolist() for col in brute_points(g, *window))))
    assert set(found) <= set(brute)
    # every point of the closed window, and outside it only rounding slack
    closed = sorted(p for p in brute if sig_lo <= p[3] <= sig_hi)
    assert sorted(p for p in found if sig_lo <= p[3] <= sig_hi) == closed
    pad = 1e-6 * (sig_hi - sig_lo)
    assert all(sig_lo - pad <= p[3] <= sig_hi + pad and tau_lo <= p[2] <= tau_hi for p in found)


# the (tau, sigma) windows of in_quotient_target
membership_windows = st.builds(
    lambda v2, delta: (v2 - delta / 2, v2 + delta / 2, -0.5 * (v2 + delta / 2), 0.5 * (v2 + delta / 2)),
    st.floats(0.3, 3.0),
    st.floats(1e-3, 0.29),
)


@settings(max_examples=500)
@given(reps, st.one_of(membership_windows, signed_windows()))
def test_lone_window_matches_batch(g, window):
    # a lone window's points are those its copy gives in a batch of two
    g = g.tolist()
    pair = _lattice_points([g, g], [window, window])
    both = [p for w, *cols in pair for p in zip(w.tolist(), *(c.tolist() for c in cols))]
    lone = [p for _, *cols in _lattice_points([g], [window]) for p in zip(*(c.tolist() for c in cols))]
    assert lone == [p[1:] for p in both if p[0] == 0]


def _fibonacci_rows(limit: int) -> list:
    """Consecutive Fibonacci pairs up to limit, in both orders and with every
    sign pattern: the longest runs of the Euclid algorithm for their size."""
    f, rows = [1, 2], []
    while f[-1] + f[-2] <= limit:
        f.append(f[-1] + f[-2])
    for a, b in zip(f, f[1:]):
        rows += [(sa * a, sb * b) for sa in (1, -1) for sb in (1, -1)]
        rows += [(sb * b, sa * a) for sa in (1, -1) for sb in (1, -1)]
    return rows


# the zero and unit rows, non-primitive rows (gcds 2 to 2^31), the ends of the
# range, and the float32 / float64 switch of _bezout_rows at max(|c|, |d|) = 2^22
BEZOUT_EDGES = [(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (2, 4), (-2, 4), (2**31, 1), (1, -(2**31)),
                (2**31, 2**31 - 1), (-(2**31), 2**31), (2**31, 2), (2**22 - 1, 2**22 - 2), (2**22 - 1, -3),
                (2**22, 2**22 - 1), (3, 2**22), (2**22, 2**21), (0, 2**31), (2**31, 0), (2**31, 2**30)]
pairs = st.tuples(st.integers(-(2**31), 2**31), st.integers(-(2**31), 2**31))
# non-primitive rows: a pair times a common factor, within the range
multiples = st.integers(2, 6).flatmap(
    lambda k: st.tuples(st.integers(-(2**31) // k, 2**31 // k), st.integers(-(2**31) // k, 2**31 // k)).map(
        lambda p: (p[0] * k, p[1] * k)))
# rows of a block that float32 holds exactly, and rows near 2^25 that it does not
small_pairs = st.tuples(st.integers(-(2**22), 2**22), st.integers(-(2**22), 2**22))
mid_pairs = st.tuples(st.integers(-(2**26), 2**26), st.integers(-(2**26), 2**26))


def check_bezout_rows(rows: list) -> None:
    """_bezout_rows' contract on rows: prim is gcd == 1, and a primitive row's
    top row completes it with |a0| <= max(|c|, 1).  The rows run as given,
    and repeated to _SCALAR_ROWS or more rows, so that both the Python and
    the float path see them, the float one with the rows' own bound (float32
    below 2^22) and with 2^31 (float64).  A RuntimeWarning (a division by
    zero) fails the test through pyproject's filter."""
    wide = rows * (_SCALAR_ROWS // max(len(rows), 1) + 1)
    for block, bound in ((rows, None), (wide, None), (wide, 2**31)):
        c = np.array([r[0] for r in block], dtype=np.int64)
        d = np.array([r[1] for r in block], dtype=np.int64)
        a0, b0, prim = _bezout_rows(c, d, bound)
        assert [a.dtype for a in (a0, b0, prim)] == [np.int64, np.int64, np.bool_]
        for (cc, dd), x, y, p in zip(block, a0.tolist(), b0.tolist(), prim.tolist()):
            assert p == (math.gcd(cc, dd) == 1), (cc, dd)
            if p:
                assert x * dd - y * cc == 1, (cc, dd)
                assert abs(x) <= max(abs(cc), 1), (cc, dd)


@given(st.lists(st.one_of(pairs, multiples, small_pairs, mid_pairs), min_size=1, max_size=40))
def test_bezout_rows_contract(rows):
    # the drawn rows alone and among the fixed ones
    check_bezout_rows(rows)
    check_bezout_rows(rows + BEZOUT_EDGES)


def test_bezout_rows_fixed_rows():
    for rows in (BEZOUT_EDGES, _fibonacci_rows(2**22 - 1), _fibonacci_rows(2**26), _fibonacci_rows(2**31), []):
        check_bezout_rows(rows)
    for row in BEZOUT_EDGES:  # a block of one repeated row takes the dtype of its size
        check_bezout_rows([row])
