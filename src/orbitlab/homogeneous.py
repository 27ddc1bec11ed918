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
sigma = c*g00 + d*g10.  Integer points of that (possibly very thin and long)
parallelogram are enumerated after a Lagrange basis reduction, so the cost is
proportional to the number of candidates rather than to the window length.
Each primitive bottom row is completed by a Bezout top row, and the remaining
top-row freedom is a short integer interval from the first-column condition.
One numpy kernel does all of this: after the scalar reduction, every row of
the reduced lattice, every point, Euclid step and top-row shift is an array
operation, and the kernel returns the candidates as flat arrays.  The
experiment drivers in ``ergodic`` and the deep strip search in ``approx``
reduce those arrays.
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
    r1, r2 = v1, v2
    u1, u2 = (1, 0), (0, 1)
    for _ in range(64):
        n1 = r1[0] * r1[0] + r1[1] * r1[1]
        n2 = r2[0] * r2[0] + r2[1] * r2[1]
        if n2 < n1:
            r1, r2 = r2, r1
            u1, u2 = u2, u1
            n1 = n2
        mu = round((r1[0] * r2[0] + r1[1] * r2[1]) / n1)
        if mu == 0:
            break
        r2 = (r2[0] - mu * r1[0], r2[1] - mu * r1[1])
        u2 = (u2[0] - mu * u1[0], u2[1] - mu * u1[1])
    return r1, r2, u1, u2


# Reduced-lattice rows expanded per block: bounds the temporary arrays of one
# call on huge windows, whatever its candidate count.
_ROW_BLOCK = 1 << 12


# The result of a window without candidates, shared by every such call (an
# empty array has nothing to overwrite).
_NO_CANDIDATES = tuple(np.empty(0, dtype=t) for t in (np.int64,) * 4 + (float,) * 3)


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple:
    """The integer ranges start[k], ..., start[k] + count[k] - 1 laid end to
    end, with the index k each value comes from; counts are nonnegative."""
    first = np.cumsum(count) - count
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(count.sum()) + (start - first)[owner]


def _bezout_rows(c: np.ndarray, d: np.ndarray) -> tuple:
    """Top rows (a0, b0) with a0*d - b0*c = 1 for primitive int64 bottom rows.

    The scalar ``ext_gcd(d, c)`` run on all rows at once: the same Euclid
    steps give the same coefficients.  Only the coefficient x of d is
    carried; y follows exactly from d*x + c*y = 1.  Integer division by zero
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


def _box_candidates(g, p1_lo, p1_hi, tau_lo, tau_hi, s_lo, s_hi) -> tuple:
    """Integer gamma with gamma*g in the coordinate box; see the module docstring.

    Returns seven flat arrays (a, b, c, d, p1, tau, s), int64 then float, in
    (i, j, m) order: reduced-lattice row, point along the row, top-row shift.
    (p1, tau) is the second column of gamma*g and s its lower-shear
    coordinate.  All box comparisons are closed; callers impose strict
    shear-window boundaries themselves.  Requires tau_lo > 0 (the chart
    constraint).

    Cost: a scalar Lagrange reduction plus a fixed number of array passes
    over the rows and lattice points of the window, O(candidates + rows) of
    them; rows are expanded _ROW_BLOCK at a time, so temporary memory stays
    bounded on huge windows.  Euclid rounds grow with log max(|c|, |d|).  On
    one core of a 2-core Xeon: about 30 us for a window without candidates,
    about 0.3 us per lattice point, and 0.8 us per candidate returned by a
    wide window (30k candidates in 24 ms).
    """
    if tau_lo <= 0.0:
        raise ValueError("tau window must be positive (chart constraint)")
    (g00, g01), (g10, g11) = np.asarray(g, dtype=float).tolist()
    sig_lo = s_lo * (tau_hi if s_lo < 0 else tau_lo)
    sig_hi = s_hi * (tau_hi if s_hi > 0 else tau_lo)
    hw_t = 0.5 * (tau_hi - tau_lo)
    hw_s = 0.5 * (sig_hi - sig_lo)
    if hw_t <= 0.0 or hw_s <= 0.0:
        return _NO_CANDIDATES
    mid_t = 0.5 * (tau_hi + tau_lo)
    mid_s = 0.5 * (sig_hi + sig_lo)
    vc = (g01 / hw_t, g00 / hw_s)
    vd = (g11 / hw_t, g10 / hw_s)
    o = (mid_t / hw_t, mid_s / hw_s)
    r1, r2, u1, u2 = _gauss_reduce(vc, vd)
    det = r1[0] * r2[1] - r1[1] * r2[0]
    # The slack also covers rounding: 64 ulps of the largest terms in the
    # scaled coordinates of a window point, whose |c| and |d| are at most
    # c_max and d_max (the image of the (sig, tau) window under g^-1).  Long
    # windows far from the origin lose digits there, and a window whose best
    # candidates tie on its edge (decimal seeds and targets) would miss them.
    sig_max = max(abs(sig_lo), abs(sig_hi))
    c_max = abs(g11) * sig_max + abs(g10) * tau_hi
    d_max = abs(g01) * sig_max + abs(g00) * tau_hi
    terms = c_max * (abs(vc[0]) + abs(vc[1])) + d_max * (abs(vd[0]) + abs(vd[1])) + abs(o[0]) + abs(o[1])
    slack = 1.0 + 1e-9 + 64.0 * 2.0**-53 * terms
    imin, imax = math.inf, -math.inf
    for e1 in (-slack, slack):
        for e2 in (-slack, slack):
            t1, t2 = o[0] + e1, o[1] + e2
            iv = (t1 * r2[1] - t2 * r2[0]) / det
            imin, imax = min(imin, iv), max(imax, iv)
    # Row i holds the points i*r1 + j*r2 - o.  Per coordinate with r2 != 0
    # the slack square bounds j by (off - (i*r1 - o)) / r2, with the offset
    # -slack or +slack as the sign of r2 makes it a lower or upper bound; a
    # coordinate with r2 == 0 is constant along the row.
    free = [comp for comp in (0, 1) if r2[comp] != 0.0]
    fixed = [comp for comp in (0, 1) if r2[comp] == 0.0]
    r1f, of, r2f, hi = np.array([(r1[c], o[c], r2[c], math.copysign(slack, r2[c])) for c in free]).T
    offs = np.array([-hi, hi])
    i_stop = math.floor(imax) + 2
    parts = []
    for i0 in range(math.ceil(imin) - 1, i_stop, _ROW_BLOCK):
        i = np.arange(i0, min(i0 + _ROW_BLOCK, i_stop), dtype=np.int64)
        base = i[:, None] * r1f - of
        bounds = (offs - base[:, None, :]) / r2f
        j_lo = np.ceil(bounds[:, 0].max(axis=1))
        j_hi = np.floor(bounds[:, 1].min(axis=1))
        ok = j_lo <= j_hi
        for comp in fixed:
            base = i * r1[comp] - o[comp]
            ok &= (-slack <= base) & (base <= slack)
        rows = ok.nonzero()[0]
        if not rows.size:
            continue
        # (i, j) points row by row, j ascending; a row with points has a
        # small integer j_lo
        j_lo = j_lo[rows]
        row, j = _ranges(j_lo.astype(np.int64), (j_hi[rows] - j_lo + 1.0).astype(np.int64))
        i = i[rows][row]
        c = i * u1[0] + j * u2[0]
        d = i * u1[1] + j * u2[1]
        tau = c * g01 + d * g11
        keep = (tau_lo <= tau) & (tau <= tau_hi)
        c, d, tau = c[keep], d[keep], tau[keep]
        s = (c * g00 + d * g10) / tau
        keep = (s_lo <= s) & (s <= s_hi) & (np.gcd(c, d) == 1)
        c, d, tau, s = c[keep], d[keep], tau[keep], s[keep]
        if not c.size:
            continue
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
        a = a0[k] + m * c
        b = b0[k] + m * d
        p1 = a * g01 + b * g11
        keep = (p1_lo <= p1) & (p1 <= p1_hi)
        parts.append((a[keep], b[keep], c[keep], d[keep], p1[keep], tau[keep], s[keep]))
    if not parts:
        return _NO_CANDIDATES
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(col) for col in zip(*parts))


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
    for p1v, tauv, sv in pts:
        D = tauv
        B = p1v
        C = sv * tauv
        A = (1.0 + B * C) / D
        g = np.array([[A, B], [C, D]])
        s = _box_candidates(
            g, spec.v1 - hw, spec.v1 + hw, spec.v2 - hw, spec.v2 + hw, -0.5, 0.5
        )[6]
        if np.count_nonzero(np.abs(s) < 0.5) > 1:
            return False
    return True
