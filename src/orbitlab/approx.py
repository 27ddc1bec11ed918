"""Best approximation of plane targets by finite orbit pieces, and exponent estimates.

Every closest-point query is a budget trace, and every budget of a trace is
one bottom-row strip scan seeded with the best distance found so far: any
element beating it has its second row (c, d) inside an explicit strip of
width twice that distance, which shrinks rapidly as budgets grow.  The first
scan starts from the identity, which has norm 2 and lies in every filter.
The rows of the strip inside the norm disk come from the quotient side's
lattice-point search, whose cost follows the rows rather than sqrt(budget),
and one selection computes every distance and breaks ties by (dist, norm, a,
c, b, d).  No ball is ever materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .enumeration import SubgroupFilter, _budget_int
from .errors import EmptyBudget, ExactHit, InsufficientData
from .homogeneous import _bezout_rows, _lattice_points, _ranges
from .matrices import LatticeElement

__all__ = [
    "ApproxRecord",
    "ApproxTrace",
    "ExponentEstimate",
    "orbit_point",
    "best_approx",
    "approx_trace",
    "estimate_exponents",
    "survey_exponents",
]

TRACE_CSV_HEADER = "T,dist,norm,a,b,c,d"


def orbit_point(gamma: LatticeElement, u) -> np.ndarray:
    """Image of the plane point u under the linear action of gamma."""
    return gamma.apply(u)


@dataclass(frozen=True)
class ApproxRecord:
    """One orbit point: the group element, its trace norm, and |gamma*u - v|_2."""

    gamma: LatticeElement
    gamma_norm: int
    dist: float


@dataclass
class ApproxTrace:
    """Per-budget best approximations d(T) = min over the budget-T ball of |gamma*u - v|."""

    u: tuple
    v: tuple
    budgets: list
    records: list

    def dists(self) -> np.ndarray:
        return np.array([r.dist for r in self.records])

    def rows(self) -> list:
        out = []
        for T, r in zip(self.budgets, self.records):
            g = r.gamma
            out.append((float(T), r.dist, int(r.gamma_norm), g.a, g.b, g.c, g.d))
        return out

    def to_csv(self) -> str:
        lines = [TRACE_CSV_HEADER]
        for T, dist, norm, a, b, c, d in self.rows():
            lines.append(f"{T:.17g},{dist:.17g},{norm},{a},{b},{c},{d}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, u=(0.0, 0.0), v=(0.0, 0.0)) -> "ApproxTrace":
        budgets, records = [], []
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if lines and lines[0].strip() != TRACE_CSV_HEADER:
            raise ValueError("bad trace header")
        for ln in lines[1:]:
            T, dist, norm, a, b, c, d = ln.split(",")
            budgets.append(float(T))
            records.append(
                ApproxRecord(LatticeElement(int(a), int(b), int(c), int(d)), int(norm), float(dist))
            )
        return cls(u=tuple(u), v=tuple(v), budgets=budgets, records=records)


def _record_from_key(key: tuple) -> ApproxRecord:
    dist2, norm, a, c, b, d = key
    return ApproxRecord(LatticeElement(a, b, c, d), norm, math.sqrt(dist2))


def best_approx(
    u,
    v,
    T: float,
    subgroup: SubgroupFilter = SubgroupFilter.full(),
    workers: int = 1,
) -> ApproxRecord:
    """Element of the budget-T ball (after filtering) closest to v on the orbit of u.

    This is the one-budget ``approx_trace``.  Ties resolve by
    (dist, norm, a, c, b, d); ``workers`` is accepted for compatibility and has
    no effect.
    """
    if float(u[0]) == 0.0 and float(u[1]) == 0.0:
        raise ValueError("orbit seed u must be nonzero")
    if math.isnan(float(T)):
        raise ValueError("budget must not be NaN")
    if _budget_int(T) < 2:
        raise EmptyBudget(f"no elements with budget {T} pass filter {subgroup}")
    return approx_trace(u, v, [T], subgroup).records[0]


# ---------------------------------------------------------------------------
# Budget traces
# ---------------------------------------------------------------------------

def _least_key(a, b, c, d, u, v, Tint: int, subgroup: SubgroupFilter, best: tuple) -> tuple:
    """Least key among best and the candidate rows (a, b, c, d) that fit the budget.

    The one place any search computes a distance, a norm or a tie key: rows
    above the budget or outside the filter are dropped, the rest compared by
    the key (dist2, norm, a, c, b, d), squared distance first (same order as
    the distance, cheaper).
    """
    # entries beyond isqrt(Tint) cannot fit the budget; below it each pair of
    # squares fits int64 (a primitive row never has |a| = |b| = 2^31)
    r = math.isqrt(Tint)
    keep = (np.abs(a) <= r) & (np.abs(b) <= r) & (np.abs(c) <= r) & (np.abs(d) <= r)
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    top = a * a + b * b
    bottom = c * c + d * d
    keep = (top <= Tint - bottom) & subgroup.mask(np.stack([a, b, c, d], axis=1))
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    if not a.size:
        return best
    norm = top[keep] + bottom[keep]
    u1, u2 = float(u[0]), float(u[1])
    e1 = a * u1 + b * u2 - float(v[0])
    e2 = c * u1 + d * u2 - float(v[1])
    dist2 = e1 * e1 + e2 * e2
    i = np.lexsort((d, b, c, a, norm, dist2))[0]
    return min((float(dist2[i]), int(norm[i]), int(a[i]), int(c[i]), int(b[i]), int(d[i])), best)


def _strip_improve(u, v, Tint: int, eps: float, subgroup: SubgroupFilter, best: tuple) -> tuple:
    """Least key among best and the elements within eps of v in the budget-Tint ball.

    Any element with distance <= eps has its second row (c, d) in the strip
    |tau - v2| <= eps, tau = c*u1 + d*u2, so the returned key is the exact
    minimum over the whole budget ball whenever eps >= the current best
    distance.  ``homogeneous._lattice_points`` yields the strip's rows in the
    (sigma, tau) coordinates of g = [[u2/n, u1], [-u1/n, u2]], n = |u|^2, with
    |sigma| and |tau| bounded by Cauchy-Schwarz, as c^2 + d^2 <= Tint - 1.
    Primitive rows in that disk are completed to matrices, and the top-row
    shifts that can fit the budget and reach the first-coordinate window are
    expanded as arrays.
    """
    u1, u2 = float(u[0]), float(u[1])
    v1, v2 = float(v[0]), float(v[1])
    n = u1 * u1 + u2 * u2
    g = ((u2 / n, u1), (-u1 / n, u2))
    # the disk bounds, widened far beyond their rounding; the exact test is below
    rad = math.sqrt(Tint - 1) * (1.0 + 1e-9)
    tau_max, sig_max = rad * math.sqrt(n), rad / math.sqrt(n)
    window = (max(v2 - eps, -tau_max), min(v2 + eps, tau_max), -sig_max, sig_max)
    r = math.isqrt(Tint - 1)  # larger entries cannot fit; smaller ones square in int64
    for c, d, tau, _ in _lattice_points(g, *window):
        keep = (np.abs(c) <= r) & (np.abs(d) <= r)
        c, d, tau = c[keep], d[keep], tau[keep]
        keep = (c * c + d * d < Tint) & (np.gcd(c, d) == 1)
        c, d, tau = c[keep], d[keep], tau[keep]
        if not c.size:
            continue
        a0, b0 = _bezout_rows(c, d)  # a0*d - b0*c = 1
        # Shifts m with (a0 + m*c)^2 + (b0 + m*d)^2 <= S = Tint - c^2 - d^2:
        # by the Lagrange identity the discriminant is (c^2 + d^2)*S - 1.  The
        # float roots are widened by one; the exact norm test comes last.
        A = (c * c + d * d).astype(float)
        B = (a0 * c + b0 * d).astype(float)
        root = np.sqrt(np.maximum(A * (Tint - A) - 1.0, 0.0))
        m_lo = np.ceil((-B - root) / A - 1.0)
        m_hi = np.floor((-B + root) / A + 1.0)
        # and the first coordinate within eps of v1; a row with tau == 0 has
        # the same first coordinate for every m
        w1 = a0 * u1 + b0 * u2
        t = tau != 0.0
        q = np.where(t, tau, 1.0)
        lo = (v1 - eps - w1) / q
        hi = (v1 + eps - w1) / q
        w_lo = np.where(t, np.ceil(np.minimum(lo, hi) - 1e-9), m_lo)
        w_hi = np.where(t, np.floor(np.maximum(lo, hi) + 1e-9), m_hi)
        # clipped, so that every start cast to int64 stays in range
        m_lo, m_hi = np.clip(w_lo, m_lo, m_hi + 1.0), np.minimum(w_hi, m_hi)
        n_m = np.maximum(m_hi - m_lo + 1.0, 0.0).astype(np.int64)
        k, m = _ranges(m_lo.astype(np.int64), n_m)
        c, d = c[k], d[k]
        best = _least_key(a0[k] + m * c, b0[k] + m * d, c, d, u, v, Tint, subgroup, best)
    return best


# A trace that reaches beyond four times this budget also scans it (and drops
# its row unless asked for): a deep scan seeded with |u - v| or with a tiny
# budget's distance visits many more candidates.  Up to 4 * 4096 one scan is cheaper.
_SEED_BUDGET = 4096


def approx_trace(
    u,
    v,
    budgets: Sequence[float],
    subgroup: SubgroupFilter = SubgroupFilter.full(),
) -> ApproxTrace:
    """Exact d(T) trace over an increasing budget grid.

    Starts from the identity (norm 2, in every filter) and strip-scans each
    budget in turn, seeded with the previous budget's best distance, which
    cannot miss any improving element.  A grid that reaches beyond
    4 * _SEED_BUDGET also scans _SEED_BUDGET, so a one-budget query makes
    one scan up to 16384 and two beyond.  No ball is ever materialized.
    """
    budgets = [float(T) for T in budgets]
    if any(math.isnan(T) for T in budgets):
        raise ValueError("budgets must not be NaN")
    if not budgets or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    if budgets[0] < 2:
        raise ValueError("first budget must be at least 2")
    if float(u[0]) == 0.0 and float(u[1]) == 0.0:
        raise ValueError("orbit seed u must be nonzero")
    e1, e2 = float(u[0]) - float(v[0]), float(u[1]) - float(v[1])
    best = (e1 * e1 + e2 * e2, 2, 1, 0, 0, 1)  # the identity's key
    scans = sorted({*budgets, float(_SEED_BUDGET)}) if budgets[-1] > 4 * _SEED_BUDGET else budgets
    keys = {}
    for T in scans:
        Tint = _budget_int(T)
        eps = math.sqrt(best[0])
        if eps > 0.0:
            best = _strip_improve(u, v, Tint, eps * (1.0 + 1e-12), subgroup, best)
        keys[T] = best
    records = [_record_from_key(keys[T]) for T in budgets]
    return ApproxTrace(
        u=(float(u[0]), float(u[1])),
        v=(float(v[0]), float(v[1])),
        budgets=budgets,
        records=records,
    )


# ---------------------------------------------------------------------------
# Exponent estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentEstimate:
    """Decay-exponent estimates from a budget trace.

    mu_hat is the least-squares slope of -log d(T) against log T over the tail
    window; mu is the best single approximation there, max of
    log(1/dist)/log(norm).  Exponents are in the trace-norm convention; the
    Frobenius-convention values are exactly twice as large.
    """

    mu_hat: float
    mu: float
    tail_fraction: float
    slope_stderr: float
    n_tail: int

    def as_dict(self) -> dict:
        return {
            "muHat": self.mu_hat,
            "mu": self.mu,
            "muHatFrobenius": 2.0 * self.mu_hat,
            "muFrobenius": 2.0 * self.mu,
            "tailFraction": self.tail_fraction,
            "slopeStderr": self.slope_stderr,
            "nTail": self.n_tail,
        }


def estimate_exponents(trace: ApproxTrace, tail_fraction: float = 0.5) -> ExponentEstimate:
    """Fit the exponent estimates over the tail window of a trace.

    The tail window keeps budgets T >= Tmax**(1 - tail_fraction); early
    small-norm flukes would otherwise dominate both estimates.  Raises ExactHit
    if a tail distance is exactly zero and InsufficientData below 8 tail points.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    budgets = np.asarray(trace.budgets, dtype=float)
    dists = trace.dists()
    cutoff = budgets[-1] ** (1.0 - tail_fraction)
    mask = budgets >= cutoff
    tail_d = dists[mask]
    if np.any(tail_d == 0.0):
        i = int(np.nonzero(mask)[0][int(np.argmax(tail_d == 0.0))])
        raise ExactHit("target lies on the orbit; exponent is +inf", record=trace.records[i])
    if int(mask.sum()) < 8:
        raise InsufficientData(f"only {int(mask.sum())} budgets in the tail window; need 8")
    x = np.log(budgets[mask])
    y = -np.log(tail_d)
    n = x.size
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    resid = y - (ybar + slope * (x - xbar))
    sigma2 = float(np.sum(resid**2)) / max(n - 2, 1)
    stderr = math.sqrt(sigma2 / sxx)
    mu = -math.inf
    for rec in (trace.records[i] for i in np.nonzero(mask)[0]):
        mu = max(mu, math.log(1.0 / rec.dist) / math.log(rec.gamma_norm))
    return ExponentEstimate(
        mu_hat=slope,
        mu=mu,
        tail_fraction=tail_fraction,
        slope_stderr=stderr,
        n_tail=n,
    )


def survey_exponents(
    n_pairs: int,
    budgets: Sequence[float],
    seed: int,
    u_box=((1.0, 2.0), (1.0, 2.0)),
    v_box=((1.0, 2.0), (1.0, 2.0)),
    fixed_v=None,
    tail_fraction: float = 0.5,
    subgroup: SubgroupFilter = SubgroupFilter.full(),
) -> list:
    """Exponent estimates for seeded random (u, v) pairs; one dict per pair."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_pairs):
        u = (rng.uniform(*u_box[0]), rng.uniform(*u_box[1]))
        if fixed_v is not None:
            v = (float(fixed_v[0]), float(fixed_v[1]))
            rng.uniform(0, 1, size=2)  # keep the stream aligned with the random-v mode
        else:
            v = (rng.uniform(*v_box[0]), rng.uniform(*v_box[1]))
        row = {"index": i, "u1": u[0], "u2": u[1], "v1": v[0], "v2": v[1]}
        trace = approx_trace(u, v, budgets, subgroup=subgroup)
        try:
            est = estimate_exponents(trace, tail_fraction)
            row.update(est.as_dict())
            row["exactHit"] = False
        except ExactHit:
            row.update({"muHat": math.inf, "mu": math.inf, "exactHit": True})
        rows.append(row)
    return rows
