"""The quotient side: fundamental-domain reduction, invariant sampling, box targets.

A point of the quotient is a coset of a determinant-one real matrix g.  The
box target of half-size delta around an off-axes plane point v is the set of
chart matrices whose second column lies within delta/2 of v per coordinate and
whose lower-shear coordinate is inside (-1/2, 1/2); its projection to the
quotient is the shrinking target used by the orbit experiments.  "Within
delta/2" is the float test abs(p1 - v1) <= delta/2 and abs(tau - v2) <=
delta/2: _target_box gives the closed float ranges that pass it (a
TargetSpec holds its own), and every membership test and every search
decides a target by that one box.

Candidate search.  Membership of a coset in a projected box asks for integer
gamma with gamma*g in the box.  Writing gamma = [[a, b], [c, d]], the bottom
row is constrained by two linear strips in (c, d): the second-column condition
tau = c*g01 + d*g11 near v2, and the shear-coordinate window on
sigma = c*g00 + d*g10.  ``_lattice_points`` enumerates the integer points of
that (possibly very thin and long) parallelogram after a Lagrange basis
reduction, so the cost is proportional to the number of points rather than to
the window length.  It takes a batch of windows: each is set up in scalar
floats, and then the (window, row) and (window, row, point) pairs of all of
them are laid end to end and worked through in a fixed number of array
passes.  ``_box_candidates_batch`` completes each primitive bottom row by a
Bezout top row and expands the short integer interval of top-row shifts left
by the first-column condition, and returns the flat arrays (p1, tau, s, win):
the second column and shear coordinate of each candidate, and its window's
index.  The strip scan of ``approx`` is
the other consumer of the same search.

One hit step.  A candidate of the kernel with shear coordinate s lies in
the target at the single orbit time k = round(-s), exactly when r = s + k
has |r| < 1/2 (``_hit_times``); ``_hits`` keeps the candidates of one
kernel call that hit, and every orbit experiment of ``ergodic`` reads the
kernel through it.

Membership.  ``in_quotient_target`` and ``target_bump`` ask for the
translates of a coset in a box at time 0 through one path, ``_box_hits``:
the point's reduced representative is decided from the few bottom rows with
|cz + d|^2 <= 1.25*tau_hi^2*y (``_reduced_candidates``), by the kernel's
own float expressions, so with the kernel's translates bitwise, wherever
those rows can bound the box (k <= 16*y); a taller box takes the hit step,
as the injectivity probe's batch does.  ``target_bump`` is the correctly
rounded sum (math.fsum) of its terms, so their order does not matter.

One entry.  A point enters the quotient side once per query, through
``_rep_of`` (every query of ``ergodic``, ``in_quotient_target`` and
``target_bump``), which is also its one check and its one reduction.  The
check, ``matrices._chart``, refuses a matrix outside the determinant-one
group (a non-finite entry, or |det - 1| > 1e-6) with ValueError, and one
whose z = g*i is not a finite point of the upper half plane in floats with
DegenerateCoordinate; ``reduce_point`` and ``in_target`` make it too.  A
point whose z lies in the fundamental domain widened by 1e-6 (every
invariant sample) is searched exactly as given; any other is searched
through the representative of ``reduce_point``, which refuses a point it
cannot bring into that domain.  The answers are properties of the coset,
and for a non-reduced matrix (p1, tau, s) may move by a few ulps.  The
kernel checks nothing: every matrix it sees entered there or was built by
the package (the probe's chart matrices).  A window whose rows leave int64
(a cusp point, y near 1e300) is refused with DegenerateCoordinate by
``_window_rows``.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCoordinate, InjectivityUnverified, NonConvergence
from .matrices import LatticeElement, _chart, hs_norm

__all__ = [
    "COVOLUME",
    "Y_MAX",
    "TargetSpec",
    "BumpProfile",
    "bump",
    "HomPoint",
    "reduce_point",
    "haar_sample",
    "in_target",
    "in_quotient_target",
    "target_bump",
    "bump_mean",
    "target_measure",
]

# Total invariant volume of the quotient in the dx dy dtheta / y**2 chart with
# theta of period 2*pi.  The hyperbolic fundamental domain has area pi/3, and
# the rotation fiber of the quotient has effective length pi (not 2*pi): the
# central element -I lies in the integer group and identifies rotation(theta)
# with rotation(theta + pi).  Cross-checked numerically against the ball count
# asymptotics |ball(T)| ~ vol(ball(T)) / COVOLUME.
COVOLUME = math.pi**2 / 3.0

# Cusp cutoff for the invariant sampler; the excluded mass is < 2e-6, far
# below every Monte Carlo tolerance used in the experiments.
Y_MAX = 1.0e6

_Y_FLOOR = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class TargetSpec:
    """An off-axes plane target v = (v1, v2) with box half-size delta.

    Requires finite v1, v2 and delta, and v2 > 0: the chart second column has
    positive lower entry, and the central element identifies the target with
    its negative, so a target below the horizontal axis should be passed as
    -v.  delta must satisfy 0 < delta < 1/2 and delta < v2 so the box is well
    defined.  box is the target box _target_box(v1, v2, delta), built once;
    a target whose box holds a single float in a coordinate (where the floats
    around v1 or v2 are spaced wider than delta/2: |v1| or v2 above 2^49 at
    delta = 0.2) is refused, since no search can tell its points apart.
    """

    v1: float
    v2: float
    delta: float
    box: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.v1, self.v2, self.delta)):
            raise ValueError("target v and delta must be finite")
        if self.v1 == 0.0 or self.v2 == 0.0:
            raise ValueError("target must be off the coordinate axes")
        if self.v2 < 0.0:
            raise ValueError("target lies below the horizontal axis; use -v (same quotient target)")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if self.delta >= self.v2:
            raise ValueError("delta must be smaller than v2 for a valid box")
        box = _target_box(self.v1, self.v2, self.delta)
        if box[0] == box[1] or box[2] == box[3]:
            raise ValueError("target box holds a single float in a coordinate: v is too large for delta")
        object.__setattr__(self, "box", box)

    def as_dict(self) -> dict:
        return {"v1": self.v1, "v2": self.v2, "delta": self.delta}


class BumpProfile:
    """The normalized smooth bump exp(-1/(1-(2t)^2)) on |t| < 1/2, zero outside.

    Even, nonnegative, compactly supported, total mass one up to rounding:
    the normalizer is a constant, 1/∫ as QUADPACK's adaptive quadrature gives it.
    """

    # 1/quad(exp(-1/(1-4t^2)), -1/2, 1/2, limit=200) from QUADPACK, 9 ulps above
    # the correctly rounded 1/∫ = 4.504567242087162 (40-digit mpmath), so the
    # mass is 1 + 1.6e-15.  Kept for bitwise continuity of bump-weighted outputs.
    normalizer = 4.50456724208717

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = np.zeros_like(arr)
        inside = np.abs(arr) < 0.5
        ti = arr[inside]
        out[inside] = self.normalizer * np.exp(-1.0 / (1.0 - 4.0 * ti * ti))
        if out.ndim == 0:
            return float(out)
        return out


bump = BumpProfile()


@dataclass
class HomPoint:
    """A point of the quotient, held as a reduced representative matrix."""

    rep: np.ndarray

    def __post_init__(self):
        self.rep = np.asarray(self.rep, dtype=float)


def reduce_point(g, max_steps: int = 10000):
    """Reduce g to the standard fundamental domain; returns (HomPoint, word).

    The returned integer word gamma satisfies rep = +/- gamma @ g, with the
    representative normalized so its image of i has |Re| <= 1/2 and modulus
    >= 1 (ties: Re = +1/2 and, on the unit circle, Re >= 0).  The sign of the
    representative is canonicalized through the central element, which acts
    trivially on the quotient.  z is followed in floats apart from the
    matrix, so the representative's own z = rep*i is checked: one outside
    the fundamental domain widened by 1e-6 (an entry so large that z loses
    its digits, as lower_shear(1e30)) is refused with DegenerateCoordinate.
    """
    g = np.asarray(g, dtype=float)
    x, y, _ = _chart(g.tolist())
    rep, word, _ = _reduce(g, x, y, max_steps)
    return HomPoint(rep), LatticeElement(*word)


def _reduce(m: np.ndarray, x: float, y: float, max_steps: int = 10000) -> tuple:
    """reduce_point's representative of the matrix m with z = m*i = x + iy:
    (rep, (a, b, c, d), (rows, x, y, n)), rows = rep.tolist() and (x, y, n)
    its chart, checked to lie in the fundamental domain widened by 1e-6."""
    z = complex(x, y)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(max_steps):
        n = math.floor(z.real + 0.5)
        if n:
            z = complex(z.real - n, z.imag)
            a, b = a - n * c, b - n * d
        if z.real * z.real + z.imag * z.imag < 1.0:
            z = -1.0 / z
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise NonConvergence(f"reduction did not terminate in {max_steps} steps")
    if z.real == -0.5:
        a, b = a + c, b + d
    elif z.real * z.real + z.imag * z.imag == 1.0 and z.real < 0.0:
        a, b, c, d = -c, -d, a, b
    rep = np.array([[a, b], [c, d]], dtype=float) @ m
    if rep[1, 1] < 0.0 or (rep[1, 1] == 0.0 and rep[1, 0] < 0.0):
        rep, a, b, c, d = -rep, -a, -b, -c, -d
    g = rep.tolist()
    x, y, n = _chart(g)
    if not (abs(x) <= 0.5 + 1e-6 and x * x + y * y >= 1.0 - 1e-6):
        raise DegenerateCoordinate("reduction left the fundamental domain: the matrix is too extreme")
    return rep, (a, b, c, d), (g, x, y, n)


# ---------------------------------------------------------------------------
# Invariant sampling
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16
_ROUNDS = 16  # acceptance ~0.907 per round; 16 rounds fail w.p. ~3e-17


def _haar_coords(n: int, seed: int):
    """n i.i.d. draws of (x, y, theta): z = x+iy density 1/y^2 on the fundamental
    domain (cusp truncated at Y_MAX), theta uniform on [0, 2*pi).

    Randomness is counter-based per 65536-sample block, so the stream position
    of every sample is a function of its index alone: results are reproducible
    and order-independent under parallel generation.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    xs = np.empty(n)
    ys = np.empty(n)
    ths = np.empty(n)
    inv_span = 1.0 / _Y_FLOOR - 1.0 / Y_MAX
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, start], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        # one fixed-size row of draws per sample, so a sample's values depend
        # only on its index, never on how many samples share the request
        u = gen.random((m, _ROUNDS, 3))
        uth = u[:, 0, 2]
        cx = u[:, :, 0] - 0.5
        cy = 1.0 / (1.0 / _Y_FLOOR - u[:, :, 1] * inv_span)
        acc = cx * cx + cy * cy >= 1.0
        idx = np.argmax(acc, axis=1)
        rows = np.arange(m)
        xs[start : start + m] = cx[rows, idx]
        ys[start : start + m] = cy[rows, idx]
        ths[start : start + m] = 2.0 * math.pi * uth
        bad = np.nonzero(~acc[rows, idx])[0]
        for i in bad:  # pragma: no cover - probability ~1e-17 per sample
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(start + int(i), 7))
            g2 = np.random.Generator(np.random.Philox(ss))
            while True:
                xr = g2.random() - 0.5
                yr = 1.0 / (1.0 / _Y_FLOOR - g2.random() * inv_span)
                if xr * xr + yr * yr >= 1.0:
                    xs[start + i], ys[start + i] = xr, yr
                    break
    return xs, ys, ths


def _haar_reps(n: int, seed: int) -> np.ndarray:
    """(n, 2, 2) array of reduced representatives of invariant samples."""
    x, y, th = _haar_coords(n, seed)
    r = np.sqrt(y)
    c, s = np.cos(th), np.sin(th)
    reps = np.empty((n, 2, 2))
    reps[:, 0, 0] = r * c - x * s / r
    reps[:, 0, 1] = r * s + x * c / r
    reps[:, 1, 0] = -s / r
    reps[:, 1, 1] = c / r
    return reps


def haar_sample(n: int, seed: int) -> list:
    """n i.i.d. quotient points under the invariant probability measure."""
    reps = _haar_reps(n, seed)
    return [HomPoint(reps[i]) for i in range(n)]


# ---------------------------------------------------------------------------
# Candidate kernel
# ---------------------------------------------------------------------------

def _gauss_reduce(v1: tuple, v2: tuple):
    """Lagrange-reduce a rank-2 float basis; returns (r1, r2, u1, u2).

    u1, u2 are the exact integer coordinate rows: r1 = u1[0]*v1 + u1[1]*v2 and
    similarly for r2.  Candidate coverage never depends on reduction quality,
    only enumeration cost does, so the iteration cap is safe.
    """
    (x1, y1), (x2, y2) = v1, v2
    a1, b1, a2, b2 = 1, 0, 0, 1
    for _ in range(64):
        n1 = x1 * x1 + y1 * y1
        n2 = x2 * x2 + y2 * y2
        if n2 < n1:
            x1, y1, x2, y2, a1, b1, a2, b2 = x2, y2, x1, y1, a2, b2, a1, b1
            n1 = n2
        mu = round((x1 * x2 + y1 * y2) / n1)
        if mu == 0:
            break
        x2, y2, a2, b2 = x2 - mu * x1, y2 - mu * y1, a2 - mu * a1, b2 - mu * b1
    return (x1, y1), (x2, y2), (a1, b1), (a2, b2)


# (window, row) pairs of the reduced lattices expanded per block, and about
# the most points one pass of a batch of two or more windows expands (a
# longer row is a pass of its own).  A lone window's pass holds every point
# of up to this many rows, so it is bounded in rows, not in points: its
# temporary arrays grow with the window (hit_set's peak tracemalloc reads
# 4.2 MiB at K = 10^5 and 41.8 MiB at 10^6).
_ROW_BLOCK = 1 << 12

# A component of the second reduced vector below this moves a point by less
# than 2^-800 along any row an int64 index can reach, far inside the slack's
# 1e-9 margin, so it counts as constant along the row.  This also keeps every
# row bound finite: dividing by a subnormal component would overflow.
_FLAT = 2.0**-900


# The result of a batch without candidates, shared by every such call (an
# empty array has nothing to overwrite): the columns p1, tau, s and win.
_NO_CANDIDATES = tuple(np.empty(0, dtype=t) for t in (float, float, float, np.int64))


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple:
    """The integer ranges start[k], ..., start[k] + count[k] - 1 laid end to
    end, with the index k each value comes from; counts are nonnegative."""
    first = np.cumsum(count) - count
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(owner.size) + (start - first)[owner]


def _columns(table, dtype=float) -> list:
    """The columns of a table with one row per window, each a scalar when
    every window shares it bitwise, else an array over the windows."""
    if len(table) == 1:
        return list(table[0])
    t = np.array(table, dtype=dtype)
    bits = t.view(np.int64)
    same = (bits == bits[0]).all(axis=0)
    return [t[0, k] if same[k] else t[:, k] for k in range(t.shape[1])]


def _at(cols: list, w) -> list:
    """The columns per element of the window indices w (scalars stay)."""
    return [c[w] if isinstance(c, np.ndarray) else c for c in cols]


# Fewer rows than this are completed in Python integers by _bezout_rows:
# numpy's fixed cost per call dominates a small block.
_SCALAR_ROWS = 96


def _bezout_row(c: int, d: int) -> tuple:
    """(a0, b0) with a0*d - b0*c = 1 for a primitive row of Python
    integers: a0 = d^-1 mod |c| in [0, |c|), or a0 = d for c == 0."""
    a0 = pow(d, -1, abs(c)) if c else d
    return a0, (a0 * d - 1) // c if c else 0


def _bezout_rows(c: np.ndarray, d: np.ndarray, bound=None) -> tuple:
    """(a0, b0, prim) for int64 bottom rows (c, d) with |c|, |d| <= 2^31:
    prim marks the primitive rows, and on them a0*d - b0*c = 1 and
    |a0| <= max(|c|, 1).  bound, when given, is at least every |c| and |d|.

    A block of _SCALAR_ROWS rows or more runs the nearest-integer Euclid
    algorithm on (d, c) (Knuth, TAOCP vol. 2, 4.5.3), on all rows at once in
    floats.  A round takes the last two remainders (r0, r1) to
    (r1, r0 - q*r1), q = rint(r0/r1), and their coefficients x of d
    (r = x*d + y*c) alike.  The last nonzero remainder is +-gcd, so prim
    comes from the same loop, a0 is that remainder's x times its sign, and
    b0 = (a0*d - 1)/c follows in int64 (c == 0 gives 0).  A finished row
    (r1 == 0) divides by 2^40 instead: its quotient is 0 and it only swaps
    its two states, until every row has finished.  A smaller block takes
    _bezout_row's top rows.

    Exactness.  From the second round on |r1| <= |r0|/2, and
    x0*r1 - x1*r0 = +-c gives |x1*r0| <= |c| + |x0*r0'|/4, r0' the remainder
    before r0, so by induction |x1*r0| < 4|c|/3: every coefficient is below
    4|c|/3, and every product q*r1 or q*x1 (a difference of two remainders,
    or of two coefficients) below 3*max(|c|, |d|).  All of them are integers
    that float32 holds exactly when every |c|, |d| < 2^22 (all below 2^24),
    and float64 otherwise.  The float quotient rounds to the nearest integer
    of the exact one: r0/r1, unless it is a half-integer, lies at least
    1/(2|r1|) from every half-integer, beyond its rounding error
    |r0/r1|*2^-24.  The last nonzero remainder, +-1 on a primitive row,
    follows one at least twice as large, hence |a0| <= 2|c|/3 (a0 = 0 for
    c = +-1, a0 = d for c = 0).
    """
    if c.size < _SCALAR_ROWS:
        rows = list(zip(c.tolist(), d.tolist()))
        prim = [math.gcd(x, y) == 1 for x, y in rows]
        top = [_bezout_row(*r) if p else (0, 0) for r, p in zip(rows, prim)]
        return np.array([t[0] for t in top], np.int64), np.array([t[1] for t in top], np.int64), np.array(prim, bool)
    if bound is None:
        bound = max(c.max(), -c.min(), d.max(), -d.min())
    st = np.zeros((2, 2, c.size), np.float32 if bound < 2**22 else float)
    st[0, 0], st[0, 1], st[1, 0] = d, 1.0, c
    old, new = st  # each row's (remainder, coefficient) pairs: r0 and x0, r1 and x1
    while np.count_nonzero(old[0] * new[0]):  # a row is done once a remainder is 0
        q = np.rint(old[0] / np.where(new[0], new[0], 2.0**40))
        old -= q * new
        old, new = new, old
    a0 = (old[1] * old[0] + new[1] * new[0]).astype(np.int64)
    with np.errstate(divide="ignore"):
        return a0, (d * a0 - 1) // c, np.abs(old[0] + new[0]) == 1.0


def _shift_margin(g00, g01, g10, g11, p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi):
    """The margin that widens the p1 range of a box (p1_lo, p1_hi, tau_lo,
    tau_hi, s_lo, s_hi) searched on the matrix g = ((g00, g01), (g10, g11))
    for its top-row shift windows, from Python floats or from arrays over
    the windows of a batch alike: every shift m of a row (c, d) of the box
    with seed (a0, b0), |a0| <= max(|c|, 1), whose float p1 = (a0 + m*c)*g01
    + (b0 + m*d)*g11 lies in [p1_lo, p1_hi] has (p1_lo - e - w1)/tau <= m <=
    (p1_hi + e - w1)/tau in floats, w1 = a0*g01 + b0*g11 and tau = c*g01 +
    d*g11 being the floats of the search.

    Error bound.  Let P = max(|p1_lo|, |p1_hi|), S = max(|s_lo|, |s_hi|),
    Q = |g01*g11| and X = |g10*g01| + |g00*g11|, det g within 1e-6 of one.
    (c, d) = (sigma, tau) @ g^-1 with |sigma| <= S*tau_hi bounds the row's
    |c*g01| + |d*g11| by Et = tau_hi*(2*S*Q + X) and the seed's by E0 =
    Et + |g01| + |g11|; a top row in the box has p0 = (1 + p1*sigma)/tau in
    gamma*g, so (a, b) = (p0, p1) @ g^-1 bounds its |a*g01| + |b*g11| by
    E = 2*Q*(1/tau_lo + P*S) + P*X.  A float sum of two products is off by
    at most 2u times its magnitude (u = 2^-53; 3u for an entry beyond
    2^53).  With |m|*Et <= E + E0, the computed bound lies within
    u*(2*P + 6*E0 + 6*E + W*(1 + 2*Et/tau))/tau, W = p1_hi - p1_lo, of the
    shift where the exact p1 crosses the end less the float p1's own error,
    and e takes 2^-50 = 8u times that sum at tau = tau_lo.  It grows with
    |v1| (P) times the shear window (S): for a Haar sample's matrix, a box
    of width 0.2 at tau 0.7 .. 0.9 and |s| < 64.5, 10^-6 at v1 = 10^7 and
    10 at 10^14 (a dozen shifts more per row), where a margin of 1e-9
    shifts missed hits on the box ends.  An empty range (lo > hi) has no
    candidate, whatever its margin.  For a g whose z lies in the fundamental
    domain widened by 1e-6, Q and X are at most |g0|*|g1| = sqrt(x^2*n^2 +
    D^2) <= 1.155 (y >= 0.866, n = D/y), |g11| <= sqrt(n) < 1.075, and the
    row path's tau_hi <= 3.58 and S = 1/2 make the margin at most 2^-46*(P +
    W + 4 + |g01| + (1 + 2*W)/tau_lo), the bound _reduced_candidates takes.
    """
    # max(|lo|, |hi|) for lo <= hi, as max(-lo, hi), with no call that
    # arrays and floats do not share; the 8u of e covers its rounding
    P, S = (p1_hi - p1_lo + abs(p1_hi + p1_lo)) / 2.0, (s_hi - s_lo + abs(s_hi + s_lo)) / 2.0
    Q, X = abs(g01 * g11), abs(g10 * g01) + abs(g00 * g11)
    e_t = tau_hi * (2.0 * S * Q + X)
    e = 2.0 * P + 6.0 * (e_t + abs(g01) + abs(g11) + 2.0 * Q * (1.0 / tau_lo + P * S) + P * X)
    return 2.0**-50 * (e + (p1_hi - p1_lo) * (1.0 + 2.0 * e_t / tau_lo))


def _window_rows(g, tau_lo, tau_hi, sig_lo, sig_hi, reduced: dict):
    """Scalar set-up of one window of the lattice-point search; reduced maps
    the scaled bases of a batch to their reductions.

    Returns None for a window of zero width, else (i0, n_rows, bounds,
    basis): only rows i0 .. i0 + n_rows - 1 of the Lagrange-reduced lattice
    can hold points, bounds = (r1x, r1y, ox, oy, r2x, r2y, hx, hy, slack)
    are the floats of their bounds and basis = (u1c, u1d, u2c, u2d) the
    integer coordinates of the reduced basis.  Row i holds the points
    i*r1 + j*r2 - o.  Per coordinate the slack square bounds j by
    (-h - base) / r2 and (h - base) / r2, base = i*r1 - o, with h = +-slack
    as the sign of r2 makes these a lower and an upper bound.  A flat
    coordinate (|r2| < _FLAT) is constant along the row: it gets r2 = 1 and
    h = inf, which leaves j free, and the row must hold |base| <= slack.
    """
    (g00, g01), (g10, g11) = g
    hw_t = 0.5 * (tau_hi - tau_lo)
    hw_s = 0.5 * (sig_hi - sig_lo)
    if hw_t <= 0.0 or hw_s <= 0.0:
        return None
    vc = (g01 / hw_t, g00 / hw_s)
    vd = (g11 / hw_t, g10 / hw_s)
    ox, oy = 0.5 * (tau_hi + tau_lo) / hw_t, 0.5 * (sig_hi + sig_lo) / hw_s
    basis = reduced.get((vc, vd))
    if basis is None:
        basis = reduced[vc, vd] = _gauss_reduce(vc, vd)
    (r1x, r1y), (r2x, r2y), u1, u2 = basis
    det = r1x * r2y - r1y * r2x
    # The slack also covers rounding: 64 ulps of the largest terms in the
    # scaled coordinates of a window point, whose |c| and |d| are at most
    # c_max and d_max (the image of the (sig, tau) window under g^-1).  Long
    # windows far from the origin lose digits there, and a window whose best
    # candidates tie on its edge (decimal seeds and targets) would miss them.
    sig_max = max(abs(sig_lo), abs(sig_hi))
    tau_max = max(abs(tau_lo), abs(tau_hi))
    c_max = abs(g11) * sig_max + abs(g10) * tau_max
    d_max = abs(g01) * sig_max + abs(g00) * tau_max
    terms = c_max * (abs(vc[0]) + abs(vc[1])) + d_max * (abs(vd[0]) + abs(vd[1])) + abs(ox) + abs(oy)
    slack = 1.0 + 1e-9 + 64.0 * 2.0**-53 * terms
    # the row index at the corners of the slack square
    lo_x, hi_x, lo_y, hi_y = (ox - slack) * r2y, (ox + slack) * r2y, (oy - slack) * r2x, (oy + slack) * r2x
    corners = ((lo_x - lo_y) / det, (lo_x - hi_y) / det, (hi_x - lo_y) / det, (hi_x - hi_y) / det)
    if not -(2.0**63) < min(corners) <= max(corners) < 2.0**63:
        raise DegenerateCoordinate("matrix too extreme for the lattice-point search: its rows leave int64")
    i0 = math.ceil(min(corners)) - 1
    n_rows = math.floor(max(corners)) + 2 - i0
    hx = math.copysign(slack, r2x) if abs(r2x) >= _FLAT else math.inf
    hy = math.copysign(slack, r2y) if abs(r2y) >= _FLAT else math.inf
    r2x, r2y = (r2x if hx != math.inf else 1.0), (r2y if hy != math.inf else 1.0)
    return i0, n_rows, (r1x, r1y, ox, oy, r2x, r2y, hx, hy, slack), (*u1, *u2)


def _row_runs(k, i: np.ndarray, j_lo: np.ndarray, count: np.ndarray):
    """Rows i of windows k with count points from j_lo on, as one pass.

    The rows of a batch come in runs of about _ROW_BLOCK points (a longer
    row is a run of its own), so that many windows' points never pile up in
    one pass; a lone window (k is None) keeps its rows in one pass, which
    spares a long strip scan a second pass.  That pass is bounded by the
    block's _ROW_BLOCK rows, not by a count of points: it holds every point
    of those rows, however far the window reaches.
    """
    if k is None or count.sum() <= _ROW_BLOCK:
        yield k, i, j_lo, count
        return
    run = (np.cumsum(count) - count) // _ROW_BLOCK
    cuts = [0, *(np.flatnonzero(run[1:] != run[:-1]) + 1).tolist(), count.size]
    for a, b in zip(cuts, cuts[1:]):
        yield k[a:b], i[a:b], j_lo[a:b], count[a:b]


def _array_rows(setups: list):
    """The rows of the windows set up by _window_rows that hold a point of
    their slack squares, per block of _ROW_BLOCK (window, row) pairs, in the
    passes of _row_runs.  Yields arrays (k, i, j_lo, count): the points
    i*r1 + j*r2 - o, j_lo <= j < j_lo + count, of row i of the window at
    position k in setups (None for a lone window)."""
    single = len(setups) == 1
    if single:
        i_off, total = setups[0][:2]
    else:
        i0, n_rows = np.array([s[:2] for s in setups], dtype=np.int64).T
        first = np.cumsum(n_rows) - n_rows
        i_off = i0 - first  # row i of pair p is p + i_off of its window
        total = int(first[-1] + n_rows[-1])
    bounds = _columns([s[2] for s in setups])
    flat = any(math.inf in s[2][6:8] for s in setups)
    for p0 in range(0, total, _ROW_BLOCK):
        p = np.arange(p0, min(p0 + _ROW_BLOCK, total))
        k = None if single else np.searchsorted(first, p, "right") - 1
        i = p + (i_off if single else i_off[k])
        r1x, r1y, ox, oy, r2x, r2y, hx, hy, slack = _at(bounds, k)
        b0 = i * r1x - ox
        b1 = i * r1y - oy
        j_lo = np.ceil(np.maximum((-hx - b0) / r2x, (-hy - b1) / r2y))
        j_hi = np.floor(np.minimum((hx - b0) / r2x, (hy - b1) / r2y))
        ok = j_lo <= j_hi
        if flat:
            ok &= ((hx != math.inf) | (np.abs(b0) <= slack)) & ((hy != math.inf) | (np.abs(b1) <= slack))
        rows = ok.nonzero()[0]
        if not rows.size:
            continue
        # a row with points has a small integer j_lo
        j_lo = j_lo[rows]
        count = (j_hi[rows] - j_lo + 1.0).astype(np.int64)
        yield from _row_runs(None if single else k[rows], i[rows], j_lo.astype(np.int64), count)


def _lattice_points(gs, windows):
    """Integer rows (c, d) whose image (sigma, tau) = (c, d) @ g lies in a
    window, for a batch of windows.

    gs holds one matrix g per window as nested rows of Python floats, and
    windows the tuples (tau_lo, tau_hi, sig_lo, sig_hi).  Yields, per pass of
    _row_runs, flat arrays (w, c, d, tau, sigma): w is the window's index in
    the batch (an int when one window alone has rows), tau = c*g01 + d*g11
    and sigma = c*g00 + d*g10.  The order is (w, i, j): window,
    reduced-lattice row, point along the row, so each window's points come
    as a call on it alone gives them.
    The caller may modify the arrays.  Every point of a closed window comes
    once; tau is filtered exactly, sigma only up to the rounding slack, and no
    gcd is taken: _bezout_rows, which completes the rows, marks the
    primitive ones.  The tau window
    may have either sign.  Cost: a scalar reduction per window plus a fixed
    number of array passes per block, O(points + rows).
    """
    reduced = {}  # mirror windows share a reduced basis
    setups = []
    for w, (g, window) in enumerate(zip(gs, windows)):
        s = _window_rows(g, *window, reduced)
        if s:
            setups.append((w, s))
    if not setups:
        return
    blocks = _array_rows([s for _, s in setups])
    # parameters that every window shares act as scalars
    index = np.array([w for w, _ in setups])
    basis = _columns([s[3] for _, s in setups], np.int64)
    coefs = _columns([(*gs[w][0], *gs[w][1], *windows[w][:2]) for w, _ in setups])
    for k, i, j_lo, count in blocks:
        # (w, i, j) points row by row, j ascending
        row, j = _ranges(j_lo, count)
        i = i[row]
        k = None if k is None else k[row]
        u1c, u1d, u2c, u2d = _at(basis, k)
        g00, g01, g10, g11, tau_lo, tau_hi = _at(coefs, k)
        c = i * u1c + j * u2c
        d = i * u1d + j * u2d
        tau = c * g01 + d * g11
        keep = (tau_lo <= tau) & (tau <= tau_hi)
        c, d, tau = c[keep], d[keep], tau[keep]
        g00, g10 = (x[keep] if isinstance(x, np.ndarray) else x for x in (g00, g10))
        w = int(index[0]) if k is None else index[k[keep]]
        del i, j, row, k, keep  # not held while the caller works on the block
        yield w, c, d, tau, c * g00 + d * g10


def _box_candidates_batch(reps, bounds) -> tuple:
    """Integer gamma with gamma*g in a coordinate box, for a batch of windows.

    bounds is a list of the windows' boxes (p1_lo, p1_hi, tau_lo, tau_hi,
    s_lo, s_hi), rows of Python floats, and reps one matrix g for every
    window (shape (2, 2)) or one per window (shape (n, 2, 2)), each of
    determinant one: checked where it entered (matrices._chart) or built by
    the package.
    Returns four flat arrays (p1, tau, s, win), float, float, float, int64:
    (p1, tau) is the second column of gamma*g, s its
    lower-shear coordinate and win the index of the window.  Windows come in
    batch order, each in (i, j, m) order: reduced-lattice row, point along
    the row, top-row shift, so window k's rows are bitwise those of a call
    on it alone.  All box comparisons are closed; callers impose strict
    shear-window boundaries themselves.  Requires tau_lo > 0 (the chart
    constraint).

    Each block of _lattice_points is cut to the shear windows, and one
    _bezout_rows call completes its rows and marks the primitive ones; a
    non-primitive row gets no top-row shifts.  On one core of a shared
    2-core Xeon (best of 7): about 27 us for a lone window of a delta = 0.1
    box at one orbit time (membership takes the rows), 8 us per window of a
    batch of 512 such windows (their scalar set-up), and 0.15 us per
    lattice point or 0.09 us per candidate of a wide window (14k points,
    23k candidates in 2.1 ms; 0.3 us per point at 700 points).
    """
    reps = np.asarray(reps, dtype=float)
    reps = [reps.tolist()] * len(bounds) if reps.ndim == 2 else reps.tolist()
    if any(b[2] <= 0.0 for b in bounds):
        raise ValueError("tau window must be positive (chart constraint)")
    windows = [
        (t_lo, t_hi, s_lo * (t_hi if s_lo < 0 else t_lo), s_hi * (t_hi if s_hi > 0 else t_lo))
        for _, _, t_lo, t_hi, s_lo, s_hi in bounds
    ]
    parts = []
    s_cols = None
    for w, c, d, tau, s in _lattice_points(reps, windows):
        if s_cols is None:  # window parameters per candidate, shared ones as scalars
            cols = _columns([(*g[0], *g[1], *b) for g, b in zip(reps, bounds)])
            # the margins in one numpy pass over a large batch, else per window in floats
            e = _shift_margin(*cols) if len(bounds) >= 64 else np.array([_shift_margin(*g[0], *g[1], *b) for g, b in zip(reps, bounds)])
            s_cols, p1_cols = cols[8:], [cols[4], cols[5], cols[1], cols[3], e]
        s_lo, s_hi = _at(s_cols, w)
        s /= tau  # sigma to the shear coordinate
        keep = (s_lo <= s) & (s <= s_hi)
        c, d, tau, s = c[keep], d[keep], tau[keep], s[keep]
        if not c.size:
            continue
        many = isinstance(w, np.ndarray)  # else the one window with rows
        w = w[keep] if many else w
        p1_lo, p1_hi, g01, g11, e = _at(p1_cols, w)
        a0, b0, prim = _bezout_rows(c, d)
        w1 = a0 * g01 + b0 * g11
        m_lo = np.ceil((p1_lo - e - w1) / tau)
        m_hi = np.floor((p1_hi + e - w1) / tau)
        n_m = np.maximum(m_hi - m_lo + 1.0, 0.0).astype(np.int64) * prim  # no shifts for a non-primitive row
        if not n_m.any():
            continue
        # top rows (a0, b0) + m*(c, d), m ascending per bottom row
        k, m = _ranges(m_lo.astype(np.int64), n_m)
        w = w[k] if many else w
        p1_lo, p1_hi, g01, g11, _ = _at(p1_cols, w)
        p1 = (a0[k] + m * c[k]) * g01 + (b0[k] + m * d[k]) * g11
        keep = (p1_lo <= p1) & (p1 <= p1_hi)
        w = w[keep] if many else np.full(np.count_nonzero(keep), w)
        parts.append((p1[keep], tau[k][keep], s[k][keep], w))
    if not parts:
        return _NO_CANDIDATES
    if len(parts) == 1:
        return parts[0]
    # column by column, each column's pieces freed once joined
    cols = list(zip(*parts))
    del parts
    return tuple(np.concatenate(cols.pop(0)) for _ in range(4))


def _hit_times(s: np.ndarray, offset: float = 0.0) -> tuple:
    """The one shift k = round(-(s + offset)) per candidate, and where it lands.

    Returns (k, r) with r = s + k + offset the shear coordinate after the
    shift; the candidate hits at k exactly when |r| < 1/2.
    """
    k = np.rint(-s - offset)
    return k.astype(np.int64), s + k + offset


def _hits(reps, bounds: list) -> tuple:
    """The one hit step: arrays (win, k, p1, tau, r) of the candidates of one
    _box_candidates_batch call that hit at their orbit time k (|r| < 1/2).

    reps and bounds are as _box_candidates_batch takes them.  A closed s
    window [-K - 1/2, K + 1/2] needs no time cap of its own: an s inside it
    rounds to |k| <= K, and one at an end gives |r| = 1/2, no hit.
    """
    p1, tau, s, win = _box_candidates_batch(reps, bounds)
    k, r = _hit_times(s)
    hit = np.abs(r) < 0.5
    return win[hit], k[hit], p1[hit], tau[hit], r[hit]


def _reduced_candidates(g: list, x, y, n, box: tuple):
    """(p1, tau, s) of the candidates of _box_candidates_batch(g, [box +
    (-1/2, 1/2)]) with |s| < 1/2, box = (p1_lo, p1_hi, tau_lo, tau_hi), for
    a g whose z = g*i lies in the fundamental domain F widened by 1e-6, as
    _rep_of gives it with its chart (x, y, n); None for a box the rows
    cannot bound.

    A hit has |sigma| <= tau/2 (a float |sigma| > tau/2 rounds to |s| >= 1/2),
    so sigma^2 + tau^2 <= 1.25*tau_hi^2.  For the float g itself, of
    determinant D, sigma^2 + tau^2 = n*|cz + d|^2 with n = g10^2 + g11^2 and
    z = (g00*g10 + g01*g11 + i*D)/n, so only rows with (cx + d)^2 + c^2*y^2
    <= 1.25*tau_hi^2/n can hit (Serre, A Course in Arithmetic, VII.1).
    Rounding: for z in the widened F, c^2|z|^2 + d^2 <= 2.01*|cz + d|^2, so
    the float tau and sigma are within a few ulps of sqrt(n)*|cz + d|, and
    the float x, y and n within a few ulps of |z|, |z| and n, with y >=
    0.86|z|; the margins, 1e-6 relative on the bound and 1e-6 on each end of
    the c and d ranges, cover these many times over.  Each row is decided by
    the kernel's own float expressions, so the result is the kernel's
    bitwise.  Of each pair +-(c, d) the row with tau > 0 is
    tried.  The rows number about 30 at most while k <= 16*y (tau_hi up to
    about 3.5); a larger box gets None.  The top row of a primitive row
    comes from _bezout_row; p1 depends only on the integer top row, not on
    the Bezout solution that seeds the shifts.
    """
    (g00, g01), (g10, g11) = g
    p1_lo, p1_hi, tau_lo, tau_hi = box
    k = 1.25 * tau_hi * tau_hi / n * (1.0 + 1e-6)  # the bound on (cx + d)^2 + c^2*y^2
    if k > 16.0 * y:
        return None
    out, e = [], 0.0  # the shift margin (see _shift_margin), once a row needs it
    for c in range(math.floor(math.sqrt(k) / y + 1e-6) + 1):
        r = math.sqrt(max(k - c * c * y * y, 0.0)) + 1e-6
        for d in range(math.ceil(-c * x - r), math.floor(-c * x + r) + 1) if c else (1,):
            tau = c * g01 + d * g11
            cs, ds = c, d
            if tau < 0.0:  # the row of the pair with tau > 0: negation is exact in floats
                cs, ds, tau = -c, -d, -tau
            if not tau_lo <= tau <= tau_hi:
                continue
            s = (cs * g00 + ds * g10) / tau
            if abs(s) < 0.5 and math.gcd(cs, ds) == 1:
                a0, b0 = _bezout_row(cs, ds)
                w1 = a0 * g01 + b0 * g11
                e = e or 2.0**-46 * (max(-p1_lo, p1_hi) + p1_hi - p1_lo + 4.0 + abs(g01) + (1.0 + 2.0 * (p1_hi - p1_lo)) / tau_lo)
                for m in range(math.ceil((p1_lo - e - w1) / tau), math.floor((p1_hi + e - w1) / tau) + 1):
                    p1 = (a0 + m * cs) * g01 + (b0 + m * ds) * g11
                    if p1_lo <= p1 <= p1_hi:
                        out.append((p1, tau, s))
    return out


def _rep_of(point) -> tuple:
    """The one entry of a quotient point, or a matrix: (g, x, y, n), g the
    rows of the representative every query searches, as Python floats, and
    (x, y, n) its chart (_chart, the point's one check).  A point whose z
    lies in the fundamental domain widened by 1e-6 is used exactly as
    given; any other is replaced by reduce_point's representative
    (_reduce)."""
    m = point.rep if isinstance(point, HomPoint) else np.asarray(point, dtype=float)
    g = m.tolist()
    x, y, n = _chart(g)
    if not (abs(x) <= 0.5 + 1e-6 and x * x + y * y >= 1.0 - 1e-6):  # the test _reduce's result passes
        return _reduce(m, x, y)[2]
    return g, x, y, n


def _box_hits(point, box: tuple) -> list:
    """The (p1, tau, s) of the translates gamma*rep in the box
    (p1_lo, p1_hi, tau_lo, tau_hi) with |s| < 1/2, as a multiset, rep the
    point's representative from _rep_of: from the row path of
    _reduced_candidates wherever it can bound the box, else (k > 16*y) from
    the hit step (_hits) on the box with shear window (-1/2, 1/2), where
    k = 0 and r = s."""
    g, x, y, n = _rep_of(point)
    hits = _reduced_candidates(g, x, y, n, box)
    if hits is None:
        _, _, p1, tau, s = _hits(g, [box + (-0.5, 0.5)])
        hits = list(zip(p1.tolist(), tau.tolist(), s.tolist()))
    return hits


# ---------------------------------------------------------------------------
# Box targets
# ---------------------------------------------------------------------------

def in_target(g, spec: TargetSpec) -> bool:
    """Is the matrix g itself inside the box (as a subset of the group)?

    The second column of a chart matrix is exactly (x/sqrt(y), 1/sqrt(y)), so
    the box conditions reduce to closed entrywise bounds |g[0,1] - v1| <= d/2,
    |g[1,1] - v2| <= d/2 in floats, that is g[0,1] and g[1,1] in the ranges
    of spec.box, together with the strict shear window |g[1,0]/g[1,1]| < 1/2.
    Matrices with negative lower-right entry are outside the chart.  A matrix
    outside the determinant-one group is refused, as by every quotient query
    (_chart); g is not reduced, since the question is about g, not its coset.
    """
    g = np.asarray(g, dtype=float)
    _chart(g.tolist())
    d = g[1, 1]
    if abs(d) < 1e-12 * math.sqrt(hs_norm(g)):
        raise DegenerateCoordinate("lower-right entry too small for the chart")
    if d < 0.0:
        return False
    p1_lo, p1_hi, tau_lo, tau_hi = spec.box
    return p1_lo <= g[0, 1] <= p1_hi and tau_lo <= d <= tau_hi and abs(g[1, 0] / d) < 0.5


# Memoized: the targets of a grid share their coordinates, and every sample
# of a run reuses the boxes of its levels and grids.
@functools.lru_cache(maxsize=1 << 12)
def _closed_range(v: float, hw: float) -> tuple:
    """The least and largest floats x with abs(x - v) <= hw in floats.

    Float subtraction is monotone in x, so these x form a closed interval,
    and the kernel's closed comparisons on a box of such ranges keep exactly
    the candidates that the test abs(p1 - v1) <= hw and abs(tau - v2) <= hw
    keeps.  An exact |x - v| up to hw + g rounds to at most hw, g half the
    gap above hw, so each end lies a float or two from v -+ (hw + g), and
    the test steps it into place (from v -+ hw, where an end lies near 0 as
    for v1 = hw, that could take 2^52 steps: the floats there are finer).
    """
    g = 0.5 * (math.nextafter(hw, math.inf) - hw)
    lo, hi = v - hw - g, v + hw + g
    while abs(lo - v) > hw:
        lo = math.nextafter(lo, math.inf)
    while abs(math.nextafter(lo, -math.inf) - v) <= hw:
        lo = math.nextafter(lo, -math.inf)
    while abs(hi - v) > hw:
        hi = math.nextafter(hi, -math.inf)
    while abs(math.nextafter(hi, math.inf) - v) <= hw:
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _target_box(v1: float, v2: float, delta: float) -> tuple:
    """The (p1_lo, p1_hi, tau_lo, tau_hi) box of the target of size delta
    around v: the floats p1 and tau with abs(p1 - v1) <= delta/2 and
    abs(tau - v2) <= delta/2, the one target test of every search."""
    hw = 0.5 * delta
    return _closed_range(v1, hw) + _closed_range(v2, hw)


def in_quotient_target(point, spec: TargetSpec) -> bool:
    """Does the coset of the point meet the projected box target?"""
    return bool(_box_hits(point, spec.box))


def _bump_x_width(spec: TargetSpec) -> float:
    # First-factor width; shrunk when v2 + delta/2 > 1 so that the product
    # bump is supported inside the box for every valid target.
    return spec.delta / max(1.0, spec.v2 + 0.5 * spec.delta)


def _bump_box(spec: TargetSpec) -> tuple:
    """The (p1_lo, p1_hi, tau_lo, tau_hi) box outside which _bump_weight is zero."""
    dx = _bump_x_width(spec)
    hw1 = 0.5 * dx * (spec.v2 + 0.5 * spec.delta)
    hw = 0.5 * spec.delta
    return (spec.v1 - hw1, spec.v1 + hw1, spec.v2 - hw, spec.v2 + hw)


def _bump_weight(spec: TargetSpec, p1, tau):
    """The two chart factors of the target bump at second columns (p1, tau);
    the shear factor bump(s) multiplies their product."""
    return bump((p1 - spec.v1) / (tau * _bump_x_width(spec))) * bump((tau - spec.v2) / spec.delta)


def target_bump(point, spec: TargetSpec) -> float:
    """Smooth bump on the quotient supported inside the projected box.

    Summed over the group: each candidate translate contributes the product
    of three profile factors in the chart coordinates of gamma * rep, and
    the value is the correctly rounded sum of these terms (math.fsum).
    """
    hits = _box_hits(point, _bump_box(spec))
    if not hits:  # most points: skip three profile evaluations
        return 0.0
    p1, tau, s = np.array(hits).T
    return math.fsum((_bump_weight(spec, p1, tau) * bump(s)).tolist())


def bump_mean(spec: TargetSpec) -> float:
    """Exact quotient mean of target_bump via unfolding.

    The group integral of the product bump is (x-width) * 2*delta*v2: the
    profile has mass one, and the squeeze variable integrates against 2w dw
    after substituting w = 1/sqrt(y), with the odd moment vanishing by
    evenness.  Dividing by the covolume gives the quotient mean.
    """
    return 2.0 * _bump_x_width(spec) * spec.delta * spec.v2 / COVOLUME


def target_measure(spec: TargetSpec, probe: int = 128, seed: int = 0) -> float:
    """Quotient measure of the projected box, assuming the box injects: its
    group volume, exactly 2*delta**2 whatever the target, over COVOLUME.

    Warns with InjectivityUnverified when the empirical probe finds a box
    point whose coset meets the box through more than one group translate
    (large delta); the returned value is then only an upper bound.
    """
    if probe:
        if not _injectivity_probe(spec, probe, seed):
            warnings.warn(
                f"box target delta={spec.delta} v=({spec.v1},{spec.v2}) is not injective; "
                "measure formula is an upper bound",
                InjectivityUnverified,
            )
    return 2.0 * spec.delta * spec.delta / COVOLUME


def _injectivity_probe(spec: TargetSpec, n_probe: int, seed: int) -> bool:
    """Does every probe point of the box meet it through at most one group
    translate?  The 12 corner-and-edge points come first, then n_probe
    uniform ones; one batched search holds them all."""
    rng = np.random.default_rng(seed)
    hw = 0.5 * spec.delta
    pts = list(itertools.product(spec.box[:2], spec.box[2:], (-0.4999, 0.0, 0.4999)))
    for _ in range(n_probe):
        pts.append((spec.v1 + rng.uniform(-hw, hw), spec.v2 + rng.uniform(-hw, hw), rng.uniform(-0.5, 0.5)))
    reps = []
    for p1v, tauv, sv in pts:  # the chart matrix: second column (p1, tau), shear s
        c = sv * tauv
        reps.append([[(1.0 + p1v * c) / tauv, p1v], [c, tauv]])
    win, *_ = _hits(reps, [spec.box + (-0.5, 0.5)] * len(reps))
    return not (np.bincount(win) > 1).any()
