"""Best approximation of plane targets by finite orbit pieces, and exponent estimates.

Every closest-point query is a budget trace, and a trace is a plan of strip
scans seeded with the best distance eps found so far.  Any element within
eps of v has the row of gamma whose coordinate of v is the smaller one in
absolute value inside an explicit strip of width 2*eps (a scan swaps the
rows when that is the top row), and the determinant identity between the
two rows cuts the strip's length to about min(|v1|, |v2|)/|v| of the norm
disk's diameter.  The strip's area predicts the lattice points a scan
visits, so one scan answers every next budget whose strip stays under a
fixed point count, and a deep budget is reached through seed scans that
first shrink eps, each at the budget halved until its strip stays under
that count.  The first scan starts from the identity, which has norm
2 and lies in every filter.  The rows of the strip come from the quotient
side's lattice-point search, whose cost follows the rows rather than
sqrt(budget), and one selection computes every distance and breaks ties by
(dist, norm, a, c, b, d).  No ball is ever materialized.

Exponents come from one estimate: _exponent_row turns a trace into the
fields that `orbitlab exponent` and every survey row report, the fit of
estimate_exponents, or infinite exponents and the witness of an exact hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .enumeration import SubgroupFilter, _budget_int
from .errors import ExactHit, InsufficientData
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
    """Image of the plane point u under the linear action of gamma:
    (a*u1 + b*u2, c*u1 + d*u2)."""
    u1, u2 = float(u[0]), float(u[1])
    return np.array([gamma.a * u1 + gamma.b * u2, gamma.c * u1 + gamma.d * u2])


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

    This is the one-budget ``approx_trace``, and its refusals are that
    call's: ``ValueError`` for a budget below 2 or NaN and for the seed u
    (|u|^2 must be positive in floats), ``BudgetOverflow`` above 2^62.  Ties
    resolve by (dist, norm, a, c, b, d); ``workers`` is accepted for
    compatibility and has no effect.
    """
    return approx_trace(u, v, [T], subgroup).records[0]


# ---------------------------------------------------------------------------
# Budget traces
# ---------------------------------------------------------------------------

def _least_key(a, b, c, d, u, v, budgets: list, subgroup: SubgroupFilter, keys: list) -> list:
    """Per ascending integer budget, the least of its key in keys and the
    keys of the candidate rows (a, b, c, d) that fit it.

    The one place any search computes a distance, a norm or a tie key: rows
    above the largest budget or outside the filter are dropped, the rest
    sorted by the key (dist2, norm, a, c, b, d), squared distance first (same
    order as the distance, cheaper), and each budget takes the first sorted
    key whose norm fits it.
    """
    Tint = budgets[-1]
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
        return keys
    norm = top[keep] + bottom[keep]
    u1, u2 = float(u[0]), float(u[1])
    e1 = a * u1 + b * u2 - float(v[0])
    e2 = c * u1 + d * u2 - float(v[1])
    dist2 = e1 * e1 + e2 * e2
    # keys only fall as budgets grow, so no budget takes a key beyond the
    # squared distance of the smallest one's: only rows up to it are sorted
    fits = norm <= budgets[0]
    bound = min(keys[0][0], dist2[fits].min()) if fits.any() else keys[0][0]
    keep = dist2 <= bound
    a, b, c, d, norm, dist2 = a[keep], b[keep], c[keep], d[keep], norm[keep], dist2[keep]
    order = np.lexsort((d, b, c, a, norm, dist2))
    first = [0]  # every row left fits the largest budget
    if len(budgets) > 1:
        # the first sorted key with norm <= T is where the running minimum
        # of the sorted norms first drops to T
        low = np.minimum.accumulate(norm[order])
        first = np.searchsorted(-low, -np.array(budgets), side="left").tolist()
    out = []
    for k, key in zip(first, keys):
        if k < order.size:
            i = order[k]
            key = min((float(dist2[i]), int(norm[i]), int(a[i]), int(c[i]), int(b[i]), int(d[i])), key)
        out.append(key)
    return out


def _scan_target(v) -> tuple:
    """Whether a scan swaps the rows, and the target w of the scanned frame.

    A scan bounds the rows of J*gamma = [[c, d], [-a, -b]] against the target
    (v2, -v1) when |v1| < |v2|, else those of gamma against v: its strip
    holds the bottom row, and the sigma cut of _strip_window is thinnest when
    the target coordinate of that row is the smaller one.
    """
    v1, v2 = float(v[0]), float(v[1])
    swap = abs(v1) < abs(v2)
    return swap, ((v2, -v1) if swap else (v1, v2))


def _strip_window(u, w, Tint: int, eps: float) -> tuple:
    """(g, window, err) of the strip of the bottom rows (c, d) of the elements
    within eps of the target w in the budget-Tint ball.

    In the coordinates (sigma, tau) = (c, d) @ g, g = [[u2/n, u1], [-u1/n, u2]],
    n = |u|^2, a row's norm is c^2 + d^2 = n*sigma^2 + tau^2/n, tau is its
    image coordinate, and the two rows P = (c, d), Q = (a, b) of an element
    satisfy sigma_P*tau_Q - tau_P*sigma_Q = -1.  The strip is |tau - w2| <= eps,
    |tau| <= sqrt(n*(Tint - 1)).  With A = |w1| - eps > 0, B = |w2| + eps and
    R = sqrt(Tint/n) >= |(sigma_P, sigma_Q)|, the identity gives
    |sigma_P| <= (1 + B*|sigma_Q|)/A, hence |sigma_P| <= B*R/sqrt(A^2 + B^2) + 1/A
    on the norm disk; the window takes the lesser of this and
    sqrt((Tint - 1)/n).  An image coordinate x*u1 + y*u2 with |x|, |y| <=
    sqrt(Tint), and its distance to a coordinate of w, is at most
    M = sqrt(Tint)*(|u1| + |u2|) + |w1| + |w2| and has a float error below
    err = 2^-50*M; A and B are widened by err, the radii by a relative 1e-9,
    far beyond their rounding.  det g = 1, so the window's area predicts its
    lattice points.
    """
    u1, u2 = float(u[0]), float(u[1])
    n = u1 * u1 + u2 * u2
    err = 2.0**-50 * (math.sqrt(Tint) * (abs(u1) + abs(u2)) + abs(w[0]) + abs(w[1]))
    A, B = abs(w[0]) - eps - err, abs(w[1]) + eps + err
    g = ((u2 / n, u1), (-u1 / n, u2))
    rad = math.sqrt(Tint - 1) * (1.0 + 1e-9)
    tau_max, sig_max = rad * math.sqrt(n), rad / math.sqrt(n)
    if A > 0.0:
        R = math.sqrt(Tint / n) * (1.0 + 1e-9)
        sig_max = min(sig_max, (B * R / math.hypot(A, B) + 1.0 / A) * (1.0 + 1e-9))
    w2 = w[1]
    return g, (max(w2 - eps, -tau_max), min(w2 + eps, tau_max), -sig_max, sig_max), err


def _predicted_points(u, w, Tint: int, eps: float) -> float:
    """Expected lattice points of the strip window: its area (det g = 1)."""
    tau_lo, tau_hi, sig_lo, sig_hi = _strip_window(u, w, Tint, eps)[1]
    return max(tau_hi - tau_lo, 0.0) * (sig_hi - sig_lo)


def _strip_improve(u, v, budgets: list, eps: float, subgroup: SubgroupFilter, best: tuple) -> list:
    """Least key among best and the elements within eps of v, per ascending
    integer budget: one strip scan of the largest budget.

    Any element with distance <= eps lies in the strip of _strip_window at
    the largest budget, in the frame of _scan_target, so each returned key is
    the exact minimum over its budget's ball whenever eps >= the current best
    distance.  ``homogeneous._lattice_points``, called on this one window,
    yields the strip's rows.  The rows in the entry square are completed by
    _bezout_rows, which marks the primitive ones, and the primitive rows in
    the disk are kept; the top-row shifts that can fit the budget and reach the
    first-coordinate window are expanded as arrays; the candidates are mapped
    back to the rows of gamma before the one selection, so keys, tie order
    and filters never see the frame.
    """
    u1, u2 = float(u[0]), float(u[1])
    swap, (w1, w2) = _scan_target(v)
    Tint = budgets[-1]
    g, window, err = _strip_window(u, (w1, w2), Tint, eps)
    r = math.isqrt(Tint - 1)  # larger entries cannot fit; smaller ones square in int64
    reach = eps + 3.0 * err  # see the shift window below
    keys = [best] * len(budgets)
    for _, c, d, tau, _ in _lattice_points([g], [window]):
        keep = (np.abs(c) <= r) & (np.abs(d) <= r)
        c, d, tau = c[keep], d[keep], tau[keep]
        a0, b0, prim = _bezout_rows(c, d, r)  # a0*d - b0*c = 1 on the primitive rows
        keep = prim & (c * c + d * d < Tint)
        c, d, tau, a0, b0 = c[keep], d[keep], tau[keep], a0[keep], b0[keep]
        if not c.size:
            continue
        # Shifts m with (a0 + m*c)^2 + (b0 + m*d)^2 <= S = Tint - c^2 - d^2:
        # by the Lagrange identity the discriminant is (c^2 + d^2)*S - 1.  The
        # float roots are widened by one; the exact norm test comes last.
        A = (c * c + d * d).astype(float)
        B = (a0 * c + b0 * d).astype(float)
        root = np.sqrt(np.maximum(A * (Tint - A) - 1.0, 0.0))
        m_lo = np.ceil((-B - root) / A - 1.0)
        m_hi = np.floor((-B + root) / A + 1.0)
        # and the first coordinate within eps of w1.  A row with tau == 0 has
        # about the same first coordinate for every m: all its shifts that fit
        # are candidates, but for a seed on an axis, whose rows (0, +-1) or
        # (+-1, 0) make it the same float for every m, only those of least
        # norm, around the vertex -B/A widened by one, can win
        p1 = a0 * u1 + b0 * u2
        flat = tau == 0.0
        q = np.where(flat, 1.0, tau)
        # The float p1 + m*tau and the exact first coordinate of shift m
        # differ by the errors of p1 and of m*tau (|m*c|, |m*d| <=
        # 2*sqrt(Tint) for a shift that fits), and the float coordinate of
        # _least_key differs from the exact one by a third error.  Each is
        # below the err of _strip_window, so the window reaches 3*err beyond eps:
        # a row whose float tau is a rounding residue spans every shift that fits.
        # A subnormal tau (deeply subnormal seeds) overflows the bounds to +-inf,
        # which is harmless: the clip below cuts them to the shifts that fit
        with np.errstate(over="ignore"):
            lo = (w1 - reach - p1) / q
            hi = (w1 + reach - p1) / q
        w_lo = np.ceil(np.minimum(lo, hi) - 1e-9)
        w_hi = np.floor(np.maximum(lo, hi) + 1e-9)
        if flat.any():
            if u1 == 0.0 or u2 == 0.0:
                vertex = -B[flat] / A[flat]
                w_lo[flat], w_hi[flat] = np.ceil(vertex - 1.0), np.floor(vertex + 1.0)
            else:
                w_lo[flat], w_hi[flat] = m_lo[flat], m_hi[flat]
        # clipped, so that every start cast to int64 stays in range
        m_lo, m_hi = np.clip(w_lo, m_lo, m_hi + 1.0), np.minimum(w_hi, m_hi)
        n_m = np.maximum(m_hi - m_lo + 1.0, 0.0).astype(np.int64)
        k, m = _ranges(m_lo.astype(np.int64), n_m)
        c, d = c[k], d[k]
        a, b = a0[k] + m * c, b0[k] + m * d
        if swap:  # gamma = J^-1 * gamma'
            a, b, c, d = -c, -d, a, b
        keys = _least_key(a, b, c, d, u, v, budgets, subgroup, keys)
    return keys


# Most lattice points a scan of a trace's plan is predicted to visit.  A
# scan costs about 0.13 ms plus 0.17 us per point, so merging budgets into
# one scan pays until its strip holds thousands of points (3000 to 6000 gave
# the benchmark's survey pairs the same time within 4 %, 1500 took 9 % more).
_SCAN_POINTS = 3000


def approx_trace(
    u,
    v,
    budgets: Sequence[float],
    subgroup: SubgroupFilter = SubgroupFilter.full(),
) -> ApproxTrace:
    """Exact d(T) trace over an increasing budget grid.

    Starts from the identity (norm 2, in every filter) and plans strip scans
    by their predicted lattice points (_predicted_points), each seeded with
    the best distance eps found so far, which cannot miss any improving
    element.  One scan answers the longest run of next budgets whose strips
    at eps predict at most _SCAN_POINTS points: the strip of the run's
    largest budget contains those of the others, and each budget takes the
    least key whose norm fits it.  When the next budget alone predicts more
    than twice _SCAN_POINTS, a seed scan shrinks eps first, and its row is
    dropped: the seed budget is the largest ints[i] // 2^k (k >= 1) whose
    strip at eps predicts at most _SCAN_POINTS points, and it is taken only
    when it is at least twice the last budget scanned (and at least 2), else
    the budget is scanned as it is.  Whatever eps >= the best distance a scan
    is seeded with, it keeps every element whose float key is at or below
    the best so far, so the rows do not depend on the plan.  A one-budget
    query is one scan whenever
    4*|u - v|*sqrt(T)/|u| <= _SCAN_POINTS (for example below T = 62500 when
    |v| <= 2|u|), and a generic pair over 4^8 .. 4^22 makes about 5 scans
    (at most 8 over 93 pairs drawn from [1, 2]^4).  A scan costs a fixed
    part plus its lattice points, which are at most
    2 * (predicted points + rows of the reduced lattice).  No ball is ever
    materialized.
    """
    budgets = [float(T) for T in budgets]
    # a NaN budget passes the order checks and is refused by _budget_int
    if not budgets or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    if budgets[0] < 2:
        raise ValueError("first budget must be at least 2")
    if not all(math.isfinite(float(x)) for x in (*u, *v)):
        raise ValueError("u and v must be finite")
    u1, u2 = float(u[0]), float(u[1])
    if not u1 * u1 + u2 * u2 > 0.0:  # |u|^2 scales every strip window
        raise ValueError("|u|^2 must be positive in floats")
    ints = [_budget_int(T) for T in budgets]
    w = _scan_target(v)[1]
    # every coordinate a search computes is at most M = 2^50 * err of the
    # largest budget's window, so every dist^2 is at most 2*M^2
    M = _strip_window(u, w, ints[-1], 0.0)[2] * 2.0**50
    if not 2.0 * M * M < math.inf:
        raise ValueError(f"2*M^2 must be finite in floats, M = sqrt(T)*(|u1| + |u2|) + |v1| + |v2| = {M:g}")
    e1, e2 = u1 - float(v[0]), u2 - float(v[1])
    best = (e1 * e1 + e2 * e2, 2, 1, 0, 0, 1)  # the identity's key
    keys, last = [], 0
    while len(keys) < len(ints):
        i = j = len(keys)
        eps = math.sqrt(best[0]) * (1.0 + 1e-12)
        if not eps > 0.0:  # an exact hit stays
            keys.append(best)
            continue
        while j + 1 < len(ints) and _predicted_points(u, w, ints[j + 1], eps) <= _SCAN_POINTS:
            j += 1
        if j == i and _predicted_points(u, w, ints[i], eps) > 2 * _SCAN_POINTS:
            seed = ints[i] // 2
            while seed >= max(2, 2 * last) and _predicted_points(u, w, seed, eps) > _SCAN_POINTS:
                seed //= 2
            if seed >= max(2, 2 * last):
                best = _strip_improve(u, v, [seed], eps, subgroup, best)[0]
                last = seed
                continue
        keys += _strip_improve(u, v, ints[i : j + 1], eps, subgroup, best)
        best, last = keys[-1], ints[j]
    return ApproxTrace(
        u=(u1, u2),
        v=(float(v[0]), float(v[1])),
        budgets=budgets,
        records=[_record_from_key(key) for key in keys],
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
    # budgets[-1:] is empty for an empty trace, whose tail the 8-point check refuses
    mask = budgets >= budgets[-1:] ** (1.0 - tail_fraction)
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


def _exponent_row(trace: ApproxTrace, tail_fraction: float) -> dict:
    """The exponent fields of a trace: those of estimate_exponents with
    exactHit False, or for an exact hit infinite exponents, exactHit True
    and the hit's gamma as its entries (a, b, c, d)."""
    try:
        return {**estimate_exponents(trace, tail_fraction).as_dict(), "exactHit": False}
    except ExactHit as exc:
        return {"muHat": math.inf, "mu": math.inf, "exactHit": True, "gamma": list(exc.record.gamma.entries())}


def survey_exponents(
    n_pairs: int,
    budgets: Sequence[float],
    seed: int,
    fixed_v=None,
    tail_fraction: float = 0.5,
) -> list:
    """Exponent estimates for seeded random (u, v) pairs, u and v uniform on
    [1, 2]^2 (or v = fixed_v); one dict per pair, its coordinates followed
    by the fields of _exponent_row."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_pairs):
        u = (rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0))
        if fixed_v is not None:
            v = (float(fixed_v[0]), float(fixed_v[1]))
            rng.uniform(0, 1, size=2)  # keep the stream aligned with the random-v mode
        else:
            v = (rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0))
        row = {"index": i, "u1": u[0], "u2": u[1], "v1": v[0], "v2": v[1]}
        row.update(_exponent_row(approx_trace(u, v, budgets), tail_fraction))
        rows.append(row)
    return rows
