"""Best approximation of plane targets by finite orbit pieces, and exponent estimates.

Every closest-point query is a budget trace.  Budgets up to a fixed cap are
resolved exactly on the materialized ball of that norm; larger budgets run a
bottom-row strip scan seeded with the best distance found so far: any element
beating the current best distance has its second row (c, d) inside an explicit
strip of width twice that distance, which shrinks rapidly as budgets grow.
Above 2^22 the strip is searched through the quotient-side box kernel, whose
cost follows the candidates rather than sqrt(budget); targets on an axis keep
the direct scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .enumeration import SubgroupFilter, _budget_int, elements_array, ext_gcd
from .errors import EmptyBudget, ExactHit, InsufficientData
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


# Candidate ordering used by every search path: distance first, then trace
# norm, then entries.  Squared distance is compared (same order, cheaper).
def _cand_key(dist2: float, norm: int, a: int, c: int, b: int, d: int) -> tuple:
    return (dist2, norm, a, c, b, d)


# Largest ball phase 1 of a trace materializes; larger budgets use the strip scan.
_PHASE1_CAP = 4096


@lru_cache(maxsize=4)
def _cached_ball(Tint: int) -> tuple:
    """Shared read-only phase-1 ball and its norms, rows sorted by (norm, a, c, b, d).

    Every consumer copies via fancy indexing.
    """
    arr = elements_array(Tint)
    norms = (arr * arr).sum(axis=1)
    order = np.lexsort((arr[:, 3], arr[:, 1], arr[:, 2], arr[:, 0], norms))
    return arr[order], norms[order]


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
    if _budget_int(T) < 2:
        raise EmptyBudget(f"no elements with budget {T} pass filter {subgroup}")
    return approx_trace(u, v, [T], subgroup).records[0]


# ---------------------------------------------------------------------------
# Budget traces
# ---------------------------------------------------------------------------

def _phase1_records(ball: tuple, u, v, budgets: Sequence[float], subgroup: SubgroupFilter):
    """Exact per-budget minima over a ``_cached_ball`` (rows sorted for ties)."""
    arr, norms = ball
    mask = subgroup.mask(arr)
    arr, norms = arr[mask], norms[mask]
    u1, u2 = float(u[0]), float(u[1])
    v1, v2 = float(v[0]), float(v[1])
    e1 = arr[:, 0] * u1 + arr[:, 1] * u2 - v1
    e2 = arr[:, 2] * u1 + arr[:, 3] * u2 - v2
    dist2 = e1 * e1 + e2 * e2
    out = []
    for T in budgets:
        p = int(np.searchsorted(norms, math.floor(T), side="right"))
        if p == 0:
            raise EmptyBudget(f"no elements with budget {T} pass filter {subgroup}")
        i = int(np.argmin(dist2[:p]))  # first occurrence wins: rows pre-sorted for ties
        row = arr[i]
        out.append(_cand_key(float(dist2[i]), int(norms[i]), int(row[0]), int(row[2]), int(row[1]), int(row[3])))
    return out


def _seed_matrix(u) -> np.ndarray:
    """Determinant-one matrix whose second column is the orbit seed u."""
    u1, u2 = float(u[0]), float(u[1])
    if u2 != 0.0:
        return np.array([[1.0 / u2, u1], [0.0, u2]])
    return np.array([[0.0, u1], [-1.0 / u1, 0.0]])


def _deep_strip_improve(u, v, Tint: int, eps: float, subgroup: SubgroupFilter, best: tuple) -> tuple:
    """Reduced-basis variant of the strip scan for large budgets.

    Enumerates integer candidates with both orbit-point coordinates within eps
    of the target through the quotient-side box kernel, whose cost scales with
    the candidate count rather than with sqrt(budget), and takes the least key
    over their arrays.  Requires the target window [v2 - eps, v2 + eps] to be
    sign-definite.
    """
    from .homogeneous import _box_candidates

    u1, u2 = float(u[0]), float(u[1])
    v1, v2 = float(v[0]), float(v[1])
    flip = v2 < 0.0
    if flip:
        v1, v2 = -v1, -v2  # scan the mirrored window; candidates negate back
    g = _seed_matrix(u)
    G = float(np.sum(g * g))
    tau_lo = v2 - eps
    if tau_lo <= 0.0:
        raise ValueError("deep strip scan needs a sign-definite target window")
    s_bound = math.sqrt(Tint * G) / tau_lo + 1.0
    a, b, c, d, *_ = _box_candidates(g, v1 - eps, v1 + eps, tau_lo, v2 + eps, -s_bound, s_bound)
    if flip:
        a, b, c, d = -a, -b, -c, -d
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
    e1 = a * u1 + b * u2 - v[0]
    e2 = c * u1 + d * u2 - v[1]
    dist2 = e1 * e1 + e2 * e2
    i = np.lexsort((d, b, c, a, norm, dist2))[0]
    cand = _cand_key(float(dist2[i]), int(norm[i]), int(a[i]), int(c[i]), int(b[i]), int(d[i]))
    return min(cand, best)


# The direct scan walks an integer range of length ~2*sqrt(budget); beyond
# this it switches to the reduced-basis kernel.  Measured per budget (median
# of 12 pairs, one core): 0.69 vs 0.67 ms at 2^22, 1.0 vs 0.69 ms at 2^24,
# 89 vs 3.5 ms at 2^40.  Targets on an axis (|v2| <= eps) keep the direct scan.
_DIRECT_STRIP_LIMIT = 2**22


def _shift_interval(a: int, c: int, b0: int, d0: int, S: int):
    """Exact integer interval of k with (b0 + k*a)^2 + (d0 + k*c)^2 <= S, or None."""
    if S < 0:
        return None
    A = a * a + c * c
    B = a * b0 + c * d0
    C = b0 * b0 + d0 * d0
    disc = B * B - A * (C - S)
    if disc < 0:
        return None
    r = math.isqrt(disc)

    def f(k: int) -> int:
        return (b0 + k * a) ** 2 + (d0 + k * c) ** 2

    # isqrt brackets the real roots within one unit of the integer estimates,
    # so two guarded bumps per endpoint reach the exact integer interval; an
    # empty interval (real roots straddle no integer) ends with k_lo > k_hi.
    k_hi = (-B + r) // A
    for _ in range(2):
        if f(k_hi + 1) <= S:
            k_hi += 1
    k_lo = -((B + r + 1) // A)
    for _ in range(2):
        if f(k_lo) > S:
            k_lo += 1
    if k_lo > k_hi or f(k_lo) > S or f(k_hi) > S:
        return None
    return k_lo, k_hi


def _strip_improve(u, v, Tint: int, eps: float, subgroup: SubgroupFilter, best: tuple) -> tuple:
    """Scan second rows (c, d) with |c*u1 + d*u2 - v2| <= eps, norm <= Tint.

    Any element with distance <= eps has its second row in the strip, so the
    returned key is the exact minimum over the whole budget ball whenever
    eps >= the current best distance.
    """
    u1, u2 = float(u[0]), float(u[1])
    v1, v2 = float(v[0]), float(v[1])
    if Tint > _DIRECT_STRIP_LIMIT and abs(v2) > eps:
        return _deep_strip_improve(u, v, Tint, eps, subgroup, best)
    cap = Tint - 1  # top row contributes at least 1 to the norm
    if cap < 0:
        return best
    cmax = math.isqrt(cap)

    def pair_blocks():
        block = 1 << 22
        for c0 in range(-cmax, cmax + 1, block):
            cs = np.arange(c0, min(c0 + block, cmax + 1))
            if u2 != 0.0:
                lo = (v2 - eps - cs * u1) / u2
                hi = (v2 + eps - cs * u1) / u2
                d_lo, d_hi = np.minimum(lo, hi), np.maximum(lo, hi)
                rad = np.sqrt(cap - cs.astype(float) ** 2)
                d_lo = np.ceil(np.maximum(d_lo, -rad) - 1e-9).astype(np.int64)
                d_hi = np.floor(np.minimum(d_hi, rad) + 1e-9).astype(np.int64)
                hits = np.nonzero(d_lo <= d_hi)[0]
                yield from (
                    (int(cs[i]), dd) for i in hits for dd in range(int(d_lo[i]), int(d_hi[i]) + 1)
                )
            else:
                # u on the horizontal axis: the strip constrains c alone.
                keep = np.abs(cs * u1 - v2) <= eps
                yield from (
                    (int(cv), dd)
                    for cv in cs[keep]
                    for dd in range(-math.isqrt(cap - int(cv) ** 2), math.isqrt(cap - int(cv) ** 2) + 1)
                )

    for c, d in pair_blocks():
        if c == 0 and d == 0:
            continue
        if math.gcd(abs(c), abs(d)) != 1:
            continue
        g, x, y = ext_gcd(d, c)
        a0, b0 = x, -y  # a0*d - b0*c = 1
        tau = c * u1 + d * u2
        w1 = a0 * u1 + b0 * u2
        iv = _shift_interval(c, d, a0, b0, Tint - c * c - d * d)
        if iv is None:
            continue
        m_lo, m_hi = iv
        if tau != 0.0:
            lo = (v1 - eps - w1) / tau
            hi = (v1 + eps - w1) / tau
            if lo > hi:
                lo, hi = hi, lo
            m_lo = max(m_lo, math.ceil(lo - 1e-9))
            m_hi = min(m_hi, math.floor(hi + 1e-9))
        for m in range(m_lo, m_hi + 1):
            a, b = a0 + m * c, b0 + m * d
            if not subgroup.passes(a, b, c, d):
                continue
            e1 = a * u1 + b * u2 - v1
            e2 = tau - v2
            dist2 = e1 * e1 + e2 * e2
            cand = _cand_key(dist2, a * a + b * b + c * c + d * d, a, c, b, d)
            if cand < best:
                best = cand
    return best


def approx_trace(
    u,
    v,
    budgets: Sequence[float],
    subgroup: SubgroupFilter = SubgroupFilter.full(),
) -> ApproxTrace:
    """Exact d(T) trace over an increasing budget grid.

    Phase 1 materializes the ball of norm min(_PHASE1_CAP, last budget) and
    resolves every budget up to that norm against it.  Larger budgets run the
    strip scan seeded with the previous budget's best distance (the first of
    them with the minimum over the phase-1 ball), which cannot miss any
    improving element.  No ball above the cap is ever built.
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
    P1 = min(_PHASE1_CAP, budgets[-1])
    n_low = sum(T <= P1 for T in budgets)  # budgets increase: phase 1 is a prefix
    ball = _cached_ball(_budget_int(P1))  # unfiltered; filters applied per trace
    # the minimum over the whole phase-1 ball seeds the strip scan
    *keys, best = _phase1_records(ball, u, v, budgets[:n_low] + [P1], subgroup)
    for T in budgets[n_low:]:
        Tint = _budget_int(T)
        eps = math.sqrt(best[0])
        if eps > 0.0:
            best = _strip_improve(u, v, Tint, eps * (1.0 + 1e-12), subgroup, best)
        keys.append(best)
    records = [_record_from_key(k) for k in keys]
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
