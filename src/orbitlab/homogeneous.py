"""The quotient side: fundamental-domain reduction, invariant sampling, box targets.

A point of the quotient is a coset of a determinant-one real matrix g.  The
box target of half-size delta around an off-axes plane point v is the set of
chart matrices whose second column lies within delta/2 of v per coordinate and
whose lower-shear coordinate is inside (-1/2, 1/2); its projection to the
quotient is the shrinking target used by the orbit experiments.

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
by the first-column condition, and returns flat arrays with a window index
that the drivers in ``ergodic`` reduce; ``_box_candidates`` is its call on one
window.  The strip scan of ``approx`` is the other consumer of the same search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateCoordinate, InjectivityUnverified, NonConvergence
from .matrices import LatticeElement, act_upper_half, det2, frobenius_norm, lower_shear

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
    "box_haar_mass",
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

    Requires v2 > 0: the chart second column has positive lower entry, and the
    central element identifies the target with its negative, so a target below
    the horizontal axis should be passed as -v.  delta must satisfy
    0 < delta < 1/2 and delta < v2 so the box is well defined.
    """

    v1: float
    v2: float
    delta: float

    def __post_init__(self):
        if self.v1 == 0.0 or self.v2 == 0.0:
            raise ValueError("target must be off the coordinate axes")
        if self.v2 < 0.0:
            raise ValueError("target lies below the horizontal axis; use -v (same quotient target)")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if self.delta >= self.v2:
            raise ValueError("delta must be smaller than v2 for a valid box")

    @property
    def v(self) -> np.ndarray:
        return np.array([self.v1, self.v2])

    def as_dict(self) -> dict:
        return {"v1": self.v1, "v2": self.v2, "delta": self.delta}


class BumpProfile:
    """The normalized smooth bump exp(-1/(1-(2t)^2)) on |t| < 1/2, zero outside.

    Even, nonnegative, compactly supported, total mass one (the normalizer is
    fixed by quadrature once per process).
    """

    def __init__(self):
        self._norm: Optional[float] = None

    @property
    def normalizer(self) -> float:
        if self._norm is None:
            from scipy.integrate import quad

            val, _ = quad(lambda t: math.exp(-1.0 / (1.0 - 4.0 * t * t)), -0.5, 0.5, limit=200)
            self._norm = 1.0 / val
        return self._norm

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

    def translate(self, k: float) -> np.ndarray:
        """Representative of the shear translate (not re-reduced)."""
        return self.rep @ lower_shear(k)

    def to_text(self) -> str:
        """Row-major representative as four 17-significant-digit decimals."""
        r = self.rep
        return ",".join(f"{x:.17g}" for x in (r[0, 0], r[0, 1], r[1, 0], r[1, 1]))

    @classmethod
    def from_text(cls, text: str) -> "HomPoint":
        vals = [float(p) for p in text.split(",")]
        if len(vals) != 4:
            raise ValueError(f"expected four comma-separated entries, got {text!r}")
        return cls(np.array(vals).reshape(2, 2))


def reduce_point(g, max_steps: int = 10000):
    """Reduce g to the standard fundamental domain; returns (HomPoint, word).

    The returned integer word gamma satisfies rep = +/- gamma @ g, with the
    representative normalized so its image of i has |Re| <= 1/2 and modulus
    >= 1 (ties: Re = +1/2 and, on the unit circle, Re >= 0).  The sign of the
    representative is canonicalized through the central element, which acts
    trivially on the quotient.
    """
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    if abs(det2(g) - 1.0) > 1e-6:
        raise ValueError(f"matrix is not in the determinant-one group: det={det2(g)!r}")
    z = act_upper_half(g, 1j)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)) or z.imag <= 0.0:
        raise DegenerateCoordinate("matrix does not map i into the upper half plane")
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
    gamma = LatticeElement(a, b, c, d)
    rep = gamma.as_array() @ g
    if rep[1, 1] < 0.0 or (rep[1, 1] == 0.0 and rep[1, 0] < 0.0):
        rep = -rep
        gamma = -gamma
    return HomPoint(rep), gamma


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
# the most points one pass of a batch expands: bounds the temporary arrays of
# one call on huge or many windows, whatever its candidate count.
_ROW_BLOCK = 1 << 12

# A component of the second reduced vector below this moves a point by less
# than 2^-800 along any row an int64 index can reach, far inside the slack's
# 1e-9 margin, so it counts as constant along the row.  This also keeps every
# row bound finite: dividing by a subnormal component would overflow.
_FLAT = 2.0**-900

# A lone window with at most this many rows finds its rows in scalar floats
# (_scalar_rows): most membership windows hold no lattice point and so stop
# before any array pass.
_SCALAR_ROWS = 8


# The result of a batch without candidates, shared by every such call (an
# empty array has nothing to overwrite): the seven columns and the window index.
_NO_CANDIDATES = tuple(np.empty(0, dtype=t) for t in (np.int64,) * 4 + (float,) * 3 + (np.int64,))


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


def _bezout_rows(c: np.ndarray, d: np.ndarray) -> tuple:
    """Top rows (a0, b0) with a0*d - b0*c = 1 for primitive int64 bottom rows.

    The scalar extended Euclid algorithm on (d, c), run on all rows at once.
    Only the coefficient x of d is carried; y follows exactly from
    d*x + c*y = 1.  Integer division by zero
    gives 0 here, so a finished row (one remainder zero, the other the gcd
    +-1) swaps its two states each further round harmlessly, which lets the
    loop test for the end every second round only, and c == 0 yields y = 0.
    Products stay below 2^63 for |c|, |d| <= 2^31.
    """
    old_r, r = d, c
    old_x, x = np.ones(c.size, dtype=np.int64), np.zeros(c.size, dtype=np.int64)
    with np.errstate(divide="ignore"):
        while (old_r * r).any():
            for _ in range(2):
                q = old_r // r
                old_r, r = r, old_r - q * r
                old_x, x = x, old_x - q * x
        x = x * r + old_x * old_r  # the final coefficient times the gcd: gcd normalized to +1
        return x, (d * x - 1) // c  # b0 = -y


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
    i0 = math.ceil(min(corners)) - 1
    n_rows = math.floor(max(corners)) + 2 - i0
    hx = math.copysign(slack, r2x) if abs(r2x) >= _FLAT else math.inf
    hy = math.copysign(slack, r2y) if abs(r2y) >= _FLAT else math.inf
    r2x, r2y = (r2x if hx != math.inf else 1.0), (r2y if hy != math.inf else 1.0)
    return i0, n_rows, (r1x, r1y, ox, oy, r2x, r2y, hx, hy, slack), (*u1, *u2)


def _scalar_rows(i0: int, n_rows: int, bounds: tuple) -> list:
    """The rows of a window that hold a point of its slack square, as
    (i, j_lo, count): the points i*r1 + j*r2 - o, j_lo <= j < j_lo + count.

    The scalar twin of the row bounds of _array_rows, with the same
    operations in the same order, so it finds the same rows.
    """
    r1x, r1y, ox, oy, r2x, r2y, hx, hy, slack = bounds
    rows = []
    for i in range(i0, i0 + n_rows):
        b0 = i * r1x - ox
        b1 = i * r1y - oy
        if (hx == math.inf and abs(b0) > slack) or (hy == math.inf and abs(b1) > slack):
            continue
        j_lo = math.ceil(max((-hx - b0) / r2x, (-hy - b1) / r2y))
        j_hi = math.floor(min((hx - b0) / r2x, (hy - b1) / r2y))
        if j_lo <= j_hi:
            rows.append((i, j_lo, j_hi - j_lo + 1))
    return rows


def _row_runs(k, i: np.ndarray, j_lo: np.ndarray, count: np.ndarray):
    """Rows i of windows k with count points from j_lo on, as one pass.

    The rows of a batch come in runs of about _ROW_BLOCK points (a longer
    row is a run of its own), so that many windows' points never pile up in
    one pass; a lone window (k is None) keeps its rows in one pass, which
    spares a long strip scan a second pass.
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
    passes of _row_runs.  Yields arrays (k, i, j_lo, count) as _scalar_rows
    gives them, k the position of the row's window in setups (None for a
    lone window)."""
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
    gcd is taken, so callers filter before completing rows.  The tau window
    may have either sign.  The rows of a lone window with at most
    _SCALAR_ROWS of them come from _scalar_rows, which most membership
    windows leave empty.  Cost: a scalar reduction per window plus a fixed
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
    if len(gs) == 1 and setups[0][1][1] <= _SCALAR_ROWS:
        rows = _scalar_rows(*setups[0][1][:3])
        if not rows:
            return
        blocks = _row_runs(None, *np.array(rows, dtype=np.int64).T)
    else:
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

    reps holds one matrix g per window (shape (n, 2, 2)) and bounds its box
    (p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi) (shape (n, 6)), each an array
    or a list of rows of Python floats, which is used as it is.  Returns eight
    flat arrays (a, b, c, d, p1, tau, s, win), int64, then float, then int64:
    (p1, tau) is the second column of gamma*g, s its lower-shear coordinate
    and win the index of the window.  Windows come in batch order, each in
    (i, j, m) order: reduced-lattice row, point along the row, top-row
    shift, so window k's rows are bitwise those of a call on it alone.  All
    box comparisons are closed; callers impose strict shear-window
    boundaries themselves.  Requires tau_lo > 0 (the chart constraint).

    Each block of _lattice_points is cut to the shear windows and to
    primitive rows before Bezout completion.  On one core of a shared 2-core
    Xeon (best of 7): about 15 us for a lone membership window (delta = 0.1,
    most without a lattice point), about 8 us per window of a batch of 512
    such windows (their scalar set-up), and 0.2 us per lattice point or 0.4
    us per candidate of a wide window (40k points, 22k candidates in 8 ms).
    """
    if not isinstance(reps, list):
        reps = np.asarray(reps, dtype=float).reshape(-1, 2, 2).tolist()
    if not isinstance(bounds, list):
        bounds = np.asarray(bounds, dtype=float).reshape(-1, 6).tolist()
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
            s_cols = _columns([b[4:] for b in bounds])
            p1_cols = _columns([(b[0], b[1], g[0][1], g[1][1]) for g, b in zip(reps, bounds)])
        s_lo, s_hi = _at(s_cols, w)
        s /= tau  # sigma to the shear coordinate
        keep = (s_lo <= s) & (s <= s_hi) & (np.gcd(c, d) == 1)
        c, d, tau, s = c[keep], d[keep], tau[keep], s[keep]
        if not c.size:
            continue
        many = isinstance(w, np.ndarray)  # else the one window with rows
        w = w[keep] if many else w
        p1_lo, p1_hi, g01, g11 = _at(p1_cols, w)
        a0, b0 = _bezout_rows(c, d)
        w1 = a0 * g01 + b0 * g11
        m_lo = np.ceil((p1_lo - w1) / tau - 1e-9)
        m_hi = np.floor((p1_hi - w1) / tau + 1e-9)
        n_m = np.maximum(m_hi - m_lo + 1.0, 0.0).astype(np.int64)
        if not n_m.any():
            continue
        # top rows (a0, b0) + m*(c, d), m ascending per bottom row
        k, m = _ranges(m_lo.astype(np.int64), n_m)
        c, d, tau, s = c[k], d[k], tau[k], s[k]
        w = w[k] if many else w
        p1_lo, p1_hi, g01, g11 = _at(p1_cols, w)
        a = a0[k] + m * c
        b = b0[k] + m * d
        p1 = a * g01 + b * g11
        keep = (p1_lo <= p1) & (p1 <= p1_hi)
        w = w[keep] if many else np.full(np.count_nonzero(keep), w)
        parts.append((a[keep], b[keep], c[keep], d[keep], p1[keep], tau[keep], s[keep], w))
    if not parts:
        return _NO_CANDIDATES
    if len(parts) == 1:
        return parts[0]
    # column by column, each column's pieces freed once joined
    cols = list(zip(*parts))
    del parts
    return tuple(np.concatenate(cols.pop(0)) for _ in range(8))


def _box_candidates(g, p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi) -> tuple:
    """The seven flat arrays (a, b, c, d, p1, tau, s) of _box_candidates_batch
    for the one window of g: the n = 1 call."""
    g = np.asarray(g, dtype=float).tolist()
    return _box_candidates_batch([g], [(p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi)])[:7]


def _rep_of(point) -> np.ndarray:
    return point.rep if isinstance(point, HomPoint) else np.asarray(point, dtype=float)


# ---------------------------------------------------------------------------
# Box targets
# ---------------------------------------------------------------------------

def in_target(g, spec: TargetSpec) -> bool:
    """Is the matrix g itself inside the box (as a subset of the group)?

    The second column of a chart matrix is exactly (x/sqrt(y), 1/sqrt(y)), so
    the box conditions reduce to closed entrywise bounds |g[0,1] - v1| <= d/2,
    |g[1,1] - v2| <= d/2 together with the strict shear window |g[1,0]/g[1,1]|
    < 1/2.  Matrices with negative lower-right entry are outside the chart.
    """
    g = np.asarray(g, dtype=float)
    d = g[1, 1]
    if abs(d) < 1e-12 * frobenius_norm(g):
        raise DegenerateCoordinate("lower-right entry too small for the chart")
    if d < 0.0:
        return False
    hw = 0.5 * spec.delta
    return (
        abs(g[0, 1] - spec.v1) <= hw
        and abs(d - spec.v2) <= hw
        and abs(g[1, 0] / d) < 0.5
    )


def in_quotient_target(point, spec: TargetSpec) -> bool:
    """Does the coset of the point meet the projected box target?"""
    rep = _rep_of(point)
    hw = 0.5 * spec.delta
    s = _box_candidates(
        rep, spec.v1 - hw, spec.v1 + hw, spec.v2 - hw, spec.v2 + hw, -0.5, 0.5
    )[6]
    return bool(s.size) and bool((np.abs(s) < 0.5).any())


def _bump_x_width(spec: TargetSpec) -> float:
    # First-factor width; shrunk when v2 + delta/2 > 1 so that the product
    # bump is supported inside the box for every valid target.
    return spec.delta / max(1.0, spec.v2 + 0.5 * spec.delta)


def target_bump(point, spec: TargetSpec) -> float:
    """Smooth bump on the quotient supported inside the projected box.

    Summed over the group: each candidate translate contributes the product
    of three profile factors in the chart coordinates of gamma * rep.
    """
    rep = _rep_of(point)
    dx = _bump_x_width(spec)
    hw1 = 0.5 * dx * (spec.v2 + 0.5 * spec.delta)
    hw = 0.5 * spec.delta
    *_, p1, tau, s = _box_candidates(
        rep, spec.v1 - hw1, spec.v1 + hw1, spec.v2 - hw, spec.v2 + hw, -0.5, 0.5
    )
    if not s.size:  # most points: skip three profile evaluations
        return 0.0
    w = bump((p1 - spec.v1) / (tau * dx)) * bump((tau - spec.v2) / spec.delta) * bump(s)
    return float(w.sum())


def bump_mean(spec: TargetSpec) -> float:
    """Exact quotient mean of target_bump via unfolding.

    The group integral of the product bump is (x-width) * 2*delta*v2: the
    profile has mass one, and the squeeze variable integrates against 2w dw
    after substituting w = 1/sqrt(y), with the odd moment vanishing by
    evenness.  Dividing by the covolume gives the quotient mean.
    """
    return 2.0 * _bump_x_width(spec) * spec.delta * spec.v2 / COVOLUME


def box_haar_mass(spec: TargetSpec) -> float:
    """Group volume of the box: exactly 2*delta**2, independent of the target."""
    return 2.0 * spec.delta * spec.delta


def target_measure(spec: TargetSpec, probe: int = 128, seed: int = 0) -> float:
    """Quotient measure of the projected box, assuming the box injects.

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
    return box_haar_mass(spec) / COVOLUME


def _injectivity_probe(spec: TargetSpec, n_probe: int, seed: int) -> bool:
    """Does every probe point of the box meet it through at most one group
    translate?  The 12 corner-and-edge points come first, then n_probe
    uniform ones; one batched search holds them all."""
    rng = np.random.default_rng(seed)
    hw = 0.5 * spec.delta
    pts = []
    for q1 in (spec.v1 - hw, spec.v1 + hw):
        for q2 in (spec.v2 - hw, spec.v2 + hw):
            for s in (-0.4999, 0.0, 0.4999):
                pts.append((q1, q2, s))
    for _ in range(n_probe):
        pts.append(
            (
                spec.v1 + rng.uniform(-hw, hw),
                spec.v2 + rng.uniform(-hw, hw),
                rng.uniform(-0.5, 0.5),
            )
        )
    reps = []
    for p1v, tauv, sv in pts:  # the chart matrix: second column (p1, tau), shear s
        c = sv * tauv
        reps.append([[(1.0 + p1v * c) / tauv, p1v], [c, tauv]])
    box = (spec.v1 - hw, spec.v1 + hw, spec.v2 - hw, spec.v2 + hw, -0.5, 0.5)
    s, win = _box_candidates_batch(reps, [box] * len(reps))[6:]
    return not (np.bincount(win[np.abs(s) < 0.5]) > 1).any()
