"""Discrete shear-orbit experiments on the quotient.

The orbit of a quotient point x under the integer lower-shear flow is
O_K(x) = {x * lower_shear(k): |k| <= K}.  For a box target, a group candidate
gamma with gamma*rep in the (tau, p1)-box hits the target exactly at the
integer shifts k that move its shear coordinate s into (-1/2, 1/2), i.e. at
the single k = round(-s) (boundary shifts contribute nothing: the window is
open and the bump vanishes there).  All experiments below exploit this: one
batched candidate search covers every orbit time at once, and one hit step,
_hits, keeps the candidates that hit.  A Monte Carlo chunk searches one
window per sample point, a grid level one window per grid target, and a
shrinking-target run one window per dyadic shell of orbit times, each
searched with the largest target its times still use.  The correlation
chunks alone keep every candidate, to place it at several shear offsets.

Monte Carlo loops use common random numbers across grid values and accumulate
in fixed-size chunks in index order, so results are bitwise identical for any
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .homogeneous import (
    HomPoint,
    TargetSpec,
    _box_candidates_batch,
    _bump_x_width,
    _haar_reps,
    _rep_of,
    bump,
    bump_mean,
    reduce_point,
)
from .matrices import lower_shear

__all__ = [
    "HitSet",
    "VarianceCurve",
    "MissRate",
    "UniformGridReport",
    "orbit_average",
    "variance_curve",
    "matrix_coefficient",
    "matcoef_curve",
    "hit_set",
    "miss_rate",
    "miss_rate_curve",
    "shrinking_hit_experiment",
    "shrinking_hit_report",
    "window_hit_counts",
    "uniform_grid_experiment",
]

_CHUNK = 512  # fixed Monte Carlo chunk size; keeps summation order worker-independent
_MATCOEF_CELLS = 1 << 18  # per-sample orbit-window entries one matcoef pass holds


def _chunk_map(chunk_fn: Callable, args: tuple, n_samples: int, seed: int, workers: int) -> list:
    """chunk_fn(args + (reps,)) over the invariant samples in _CHUNK-sized
    slices, in index order; the per-chunk results come back in that order
    for any worker count."""
    reps = _haar_reps(n_samples, seed)
    chunks = [args + (reps[i : i + _CHUNK],) for i in range(0, n_samples, _CHUNK)]
    if workers <= 1 or len(chunks) <= 1:
        return [chunk_fn(ch) for ch in chunks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, chunks))


def _moments(parts: list, n_samples: int) -> tuple:
    """Mean and standard error from per-chunk (sum, sum of squares) arrays."""
    s1 = np.zeros_like(parts[0][0])
    s2 = np.zeros_like(parts[0][1])
    for p1, p2 in parts:
        s1 += p1
        s2 += p2
    values = s1 / n_samples
    var = np.maximum(s2 / n_samples - values**2, 0.0)
    return values, np.sqrt(var / n_samples)


def orbit_average(fn: Callable, point: HomPoint, half_width: int) -> float:
    """Uniform average of fn over the 2T+1 shear translates of the point.

    Every translate is re-reduced to the fundamental domain before fn sees it.
    This is the literal averaging operator; the experiment drivers below
    compute the same numbers through the candidate kernel.
    """
    if half_width < 0:
        raise ValueError("half_width must be >= 0")
    rep = _rep_of(point)
    total = 0.0
    for k in range(-half_width, half_width + 1):
        q, _ = reduce_point(rep @ lower_shear(k))
        total += fn(q)
    return total / (2 * half_width + 1)


# ---------------------------------------------------------------------------
# Candidate arrays per sample
# ---------------------------------------------------------------------------

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

    reps holds one representative per window, or is one matrix for all of
    them.  A closed s window [-K - 1/2, K + 1/2] needs no time cap of its
    own: an s inside it rounds to |k| <= K, and one at an end gives
    |r| = 1/2, no hit.
    """
    if np.ndim(reps) == 2:
        reps = [np.asarray(reps, dtype=float).tolist()] * len(bounds)
    p1, tau, s, win = _box_candidates_batch(reps, bounds)[4:]
    k, r = _hit_times(s)
    hit = np.abs(r) < 0.5
    return win[hit], k[hit], p1[hit], tau[hit], r[hit]


def _orbit_box(v1: float, v2: float, hw1: float, hw2: float, K) -> tuple:
    """Kernel bounds of the (p1, tau) box of half-sizes (hw1, hw2) around v
    over the orbit times |k| <= K."""
    return (v1 - hw1, v1 + hw1, v2 - hw2, v2 + hw2, -K - 0.5, K + 0.5)


# ---------------------------------------------------------------------------
# Hit sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HitSet:
    """Orbit times within the horizon at which the target is hit."""

    K: int
    ks: tuple

    def __len__(self) -> int:
        return len(self.ks)


def hit_set(point, spec: TargetSpec, K: int) -> HitSet:
    """All |k| <= K with the k-th shear translate inside the projected box."""
    if K < 1:
        raise ValueError("horizon K must be >= 1")
    hw = 0.5 * spec.delta
    ks = _hits(_rep_of(point), [_orbit_box(spec.v1, spec.v2, hw, hw, K)])[1]
    return HitSet(K=K, ks=tuple(int(k) for k in np.unique(ks)))


# ---------------------------------------------------------------------------
# Mean ergodic variance
# ---------------------------------------------------------------------------

@dataclass
class VarianceCurve:
    Ts: list
    values: list
    stderrs: list

    def rows(self) -> list:
        return list(zip(self.Ts, self.values, self.stderrs))


def _variance_chunk(args):
    v1, v2, delta, Ts, reps = args
    spec = TargetSpec(v1, v2, delta)
    m = bump_mean(spec)
    dx = _bump_x_width(spec)
    box = _orbit_box(v1, v2, 0.5 * dx * (v2 + 0.5 * delta), 0.5 * delta, max(Ts))
    win, ks, p1, tau, r = _hits(reps, [box] * len(reps))
    # bump-weighted hits; win is the index of the sample, ascending
    ws = bump((p1 - v1) / (tau * dx)) * bump((tau - v2) / delta) * bump(r)
    pos = ws > 0.0
    win, aks, ws = win[pos], np.abs(ks[pos]), ws[pos]
    n_t = len(Ts)
    s1 = np.zeros(n_t)
    s2 = np.zeros(n_t)
    # per sample, in index order: its hits are the slice win == n
    ends = np.searchsorted(win, np.arange(len(reps)), "right").tolist()
    for lo, hi in zip([0] + ends, ends):
        ws_n, aks_n = ws[lo:hi], aks[lo:hi]
        for i, T in enumerate(Ts):
            beta = ws_n[aks_n <= T].sum() / (2 * T + 1) if ws_n.size else 0.0
            dev = beta - m
            s1[i] += dev * dev
            s2[i] += dev**4
    return s1, s2


def variance_curve(
    spec: TargetSpec,
    Ts: Sequence[int],
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> VarianceCurve:
    """Monte Carlo estimate of the mean square deviation of the orbit average
    of the target bump from its space mean, over a grid of orbit half-widths.

    The same sample set serves every grid value (common random numbers), which
    sharpens slope estimates by an order of magnitude.
    """
    Ts = [int(T) for T in Ts]
    if any(T < 0 for T in Ts):
        raise ValueError("orbit half-widths must be >= 0")
    parts = _chunk_map(_variance_chunk, (spec.v1, spec.v2, spec.delta, Ts), n_samples, seed, workers)
    values, stderrs = _moments(parts, n_samples)
    return VarianceCurve(Ts=Ts, values=values.tolist(), stderrs=stderrs.tolist())


# ---------------------------------------------------------------------------
# Correlation decay
# ---------------------------------------------------------------------------

def _matcoef_chunk(args):
    v1, v2, delta, ts, W, reps = args
    spec = TargetSpec(v1, v2, delta)
    m = bump_mean(spec)
    t_hi = max(max(ts), 0.0)
    t_lo = min(min(ts), 0.0)
    dx = _bump_x_width(spec)
    hw1 = 0.5 * dx * (v2 + 0.5 * delta)
    hw = 0.5 * delta
    box = (v1 - hw1, v1 + hw1, v2 - hw, v2 + hw, -(W + t_hi) - 0.5, -t_lo + 0.5)
    p1s, taus, ss, win = _box_candidates_batch(reps, [box] * len(reps))[4:]
    wgt = bump((p1s - v1) / (taus * dx)) * bump((taus - v2) / delta)
    s1 = np.zeros(len(ts))
    s2 = np.zeros(len(ts))
    # samples n0 .. n0 + step - 1 at a time, so that a long orbit window
    # keeps the per-sample rows below _MATCOEF_CELLS entries
    step = max(1, _MATCOEF_CELLS // (W + 1))
    for n0 in range(0, len(reps), step):
        lo, hi = np.searchsorted(win, [n0, n0 + step])
        rows, s_n, w_n = win[lo:hi] - n0, ss[lo:hi], wgt[lo:hi]

        def values_at(offset: float) -> np.ndarray:
            # F at the shear offsets j + offset, j = 0..W, one row per
            # sample: each candidate is active at the single integer j
            # nearest to -(s + offset), and adds to its sample's row in
            # candidate order.
            out = np.zeros((min(step, len(reps) - n0), W + 1))
            j, r = _hit_times(s_n, offset)
            ok = (j >= 0) & (j <= W) & (np.abs(r) < 0.5)
            np.add.at(out, (rows[ok], j[ok]), w_n[ok] * bump(r[ok]))
            return out

        base = values_at(0.0) - m
        prods = np.stack([np.mean(base * (values_at(float(t)) - m), axis=1) for t in ts], axis=1)
        for prod in prods:  # the samples in index order
            s1 += prod
            s2 += prod * prod
    return s1, s2


def matcoef_curve(
    spec: TargetSpec,
    ts: Sequence[float],
    n_samples: int,
    seed: int,
    orbit_window: int = 0,
    workers: int = 1,
):
    """Correlation of the centered target bump with its shear translates.

    Returns (values, stderrs) for the given shear times, estimated over common
    random samples.  With orbit_window = W > 0 each sample additionally
    averages the product over W+1 consecutive orbit offsets, an unbiased
    variance reduction that leaves the estimand unchanged by invariance.
    """
    ts = [float(t) for t in ts]
    W = int(orbit_window)
    parts = _chunk_map(_matcoef_chunk, (spec.v1, spec.v2, spec.delta, ts, W), n_samples, seed, workers)
    values, stderrs = _moments(parts, n_samples)
    return values.tolist(), stderrs.tolist()


def matrix_coefficient(spec: TargetSpec, t: float, n_samples: int, seed: int) -> float:
    """Monte Carlo estimate of the centered-bump correlation at shear time t."""
    values, _ = matcoef_curve(spec, [t], n_samples, seed)
    return values[0]


# ---------------------------------------------------------------------------
# Missing-set measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MissRate:
    """Fraction of sample points whose length-T orbit misses the box target."""

    T: int
    delta: float
    fraction: float
    ci_lo: float
    ci_hi: float
    n: int

    @property
    def stderr(self) -> float:
        return math.sqrt(max(self.fraction * (1.0 - self.fraction), 0.0) / self.n)


def _wilson(x: int, n: int, z: float = 1.96) -> tuple:
    if n == 0:
        return 0.0, 1.0
    p = x / n
    den = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / den
    return max(0.0, center - half), min(1.0, center + half)


def _miss_chunk(args):
    v1, v2, delta, Ts, reps = args
    t_max = max(Ts)
    hw = 0.5 * delta
    win, ks = _hits(reps, [_orbit_box(v1, v2, hw, hw, t_max)] * len(reps))[:2]
    first = np.full(len(reps), t_max + 1, dtype=np.int64)
    np.minimum.at(first, win, np.abs(ks))
    return first


def miss_rate_curve(
    Ts: Sequence[int],
    delta: float,
    v,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Miss fractions over a grid of orbit half-widths, common random numbers.

    Sharing samples across the grid makes the curve exactly nonincreasing in T
    (orbits only grow), which is also the statistical content being measured.
    """
    TargetSpec(float(v[0]), float(v[1]), float(delta))  # validate
    Ts = sorted(int(T) for T in Ts)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    parts = _chunk_map(_miss_chunk, (float(v[0]), float(v[1]), float(delta), Ts), n_samples, seed, workers)
    first = np.concatenate(parts)
    out = []
    for T in Ts:
        misses = int(np.sum(first > T))
        lo, hi = _wilson(misses, n_samples)
        out.append(
            MissRate(T=T, delta=float(delta), fraction=misses / n_samples, ci_lo=lo, ci_hi=hi, n=n_samples)
        )
    return out


def miss_rate(T: int, delta: float, v, n_samples: int, seed: int, workers: int = 1) -> MissRate:
    return miss_rate_curve([T], delta, v, n_samples, seed, workers)[0]


# ---------------------------------------------------------------------------
# Shrinking targets
# ---------------------------------------------------------------------------

def _delta_cap(v2: float) -> float:
    # Boxes require delta < min(1/2, v2); the cap only affects small times and
    # leaves the shrinking asymptotics untouched.
    return min(0.499, 0.98 * v2)


def _target_size(t, eta: float, cap: float) -> float:
    """The shrinking target size min(cap, t^-eta) at orbit time t >= 1, with
    the scalar pow, which numpy's array pow does not match bitwise (cap < 1,
    so eta = 0 gives cap)."""
    return min(cap, float(t) ** -eta)


def _dyadic_levels(eta: float, k_max: int, v2: float) -> list:
    """Levels (horizon, delta): horizon 2^j <= k_max with the target size
    taken at the covering interval's far end min(2^(j+1), k_max), so a level
    hit certifies every time in [2^j, min(2^(j+1), k_max)] by monotonicity of
    orbits and targets."""
    cap = _delta_cap(v2)
    levels = []
    horizon = 1
    while horizon <= k_max:
        levels.append((horizon, _target_size(min(2 * horizon, k_max), eta, cap)))
        horizon *= 2
    return levels


def _certified_T0(flags: Sequence[bool], k_max: int) -> Optional[int]:
    """Least dyadic horizon 2^j from which every level hits, or None when it
    exceeds k_max/2."""
    j_star = next((j + 1 for j in range(len(flags) - 1, -1, -1) if not flags[j]), 0)
    T0 = 2**j_star
    return T0 if T0 <= k_max / 2 else None


def _target_v(v) -> tuple:
    """(v1, v2) validated through TargetSpec at the largest size a level uses."""
    v1, v2 = float(v[0]), float(v[1])
    TargetSpec(v1, v2, _delta_cap(v2))  # validate
    return v1, v2


def _shells(lo: int, hi: int) -> tuple:
    """The two shear windows of the orbit times lo <= |k| <= hi (lo >= 1):
    s in [-hi - 1/2, -lo + 1/2] for k > 0 and its mirror for k < 0."""
    return (-hi - 0.5, -lo + 0.5), (lo - 0.5, hi + 0.5)


def _padded_box(v1: float, v2: float, hw: float) -> tuple:
    """The (p1, tau) box of half-size hw around v, widened by a few ulps of its
    far edges: it holds every candidate with |p1 - v1| <= hw and
    |tau - v2| <= hw in floats, whatever the rounding of its own edges."""
    e1 = hw + 2.0**-50 * (abs(v1) + hw)
    e2 = hw + 2.0**-50 * (abs(v2) + hw)
    return (v1 - e1, v1 + e1, v2 - e2, v2 + e2)


def shrinking_hit_report(eta: float, point, k_max: int, v) -> dict:
    """Dyadic certification run for the shrinking-target hit problem.

    Returns per-level hit flags and the certified threshold T0 (least dyadic
    horizon from which every level hits), or None when no T0 <= k_max/2 exists.

    One hit step (_hits) with one shell of orbit times per level of
    _dyadic_levels: shell 0 holds |k| <= 1 and shell j the times
    2^(j-1) < |k| <= 2^j of horizon 2^j that no lower level holds.  Target
    sizes do not grow with j, so a hit of level j in shell i <= j lies in the
    box of level i, and each shell is searched with its own box, padded by a
    few ulps so that the flag test below, not the search, decides every
    level.  The search thus shrinks with the targets and stops at the last
    horizon, not at k_max.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("shrink exponent must lie in [0, 1)")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    v1, v2 = _target_v(v)
    levels = _dyadic_levels(eta, k_max, v2)
    bounds = [_padded_box(v1, v2, 0.5 * levels[0][1]) + (-1.5, 1.5)]
    for horizon, delta in levels[1:]:
        box = _padded_box(v1, v2, 0.5 * delta)
        bounds += [box + sw for sw in _shells(horizon // 2 + 1, horizon)]
    _, k, p1, tau, _ = _hits(_rep_of(point), bounds)
    ak = np.abs(k)
    # one row per level: its horizon and half target size against every hit
    horizon = np.array([lv[0] for lv in levels])[:, None]
    half = 0.5 * np.array([lv[1] for lv in levels])[:, None]
    flags = np.any((ak <= horizon) & (np.abs(p1 - v1) <= half) & (np.abs(tau - v2) <= half), axis=1)
    T0 = _certified_T0(flags, k_max)
    return {
        "eta": eta,
        "kMax": k_max,
        "T0": T0,
        "levels": [
            {"horizon": h, "delta": d, "hit": bool(f)} for (h, d), f in zip(levels, flags)
        ],
    }


def shrinking_hit_experiment(eta: float, point, k_max: int, v) -> Optional[int]:
    """Least certified dyadic T0 with hits at every time in [T0, k_max], else None."""
    return shrinking_hit_report(eta, point, k_max, v)["T0"]


def window_hit_counts(point, v, eta: float, k_max: int) -> list:
    """Distinct hit times per dyadic window with the per-time shrinking target.

    Window j counts times with |k| in [2^j, min(2^(j+1), k_max+1)) for which the
    translate lies in the box of size min(cap, |k|**-eta).  Returns a list of
    dicts {lo, hi, count}.  The windows start at the horizons of
    _dyadic_levels, and one hit step (_hits) searches each window's two
    shells with the window's largest box.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("shrink exponent must lie in [0, 1)")
    v1, v2 = _target_v(v)
    cap = _delta_cap(v2)
    windows = [(lo, min(2 * lo - 1, k_max)) for lo, _ in _dyadic_levels(eta, k_max, v2)]
    bounds = []
    for lo, hi in windows:
        hw = 0.5 * _target_size(lo, eta, cap)  # the window's largest, at its first time
        bounds += [(v1 - hw, v1 + hw, v2 - hw, v2 + hw) + sw for sw in _shells(lo, hi)]
    # one batched search: window j is the shell pair 2j, 2j + 1, and a hit in
    # a shell lies at a time of the shell
    win, k, p1, tau, _ = _hits(_rep_of(point), bounds)
    dk = np.array([_target_size(a, eta, cap) for a in np.abs(k).tolist()])
    inside = (np.abs(p1 - v1) <= 0.5 * dk) & (np.abs(tau - v2) <= 0.5 * dk)
    # a time lies in one window: count the distinct times per window
    _, once = np.unique(k[inside], return_index=True)
    counts = np.bincount(win[inside][once] // 2, minlength=len(windows))
    return [{"lo": lo, "hi": hi, "count": int(n)} for (lo, hi), n in zip(windows, counts)]


# ---------------------------------------------------------------------------
# Uniform grids of targets
# ---------------------------------------------------------------------------

@dataclass
class UniformGridReport:
    T0: Optional[int]
    levels: list


def _grid_points(omega, spacing: float) -> list:
    x0, x1, y0, y1 = omega
    nx = max(1, math.ceil((x1 - x0) / spacing)) if x1 > x0 else 1
    ny = max(1, math.ceil((y1 - y0) / spacing)) if y1 > y0 else 1
    xs = [x0 + (i + 0.5) * (x1 - x0) / nx if x1 > x0 else x0 for i in range(nx)]
    ys = [y0 + (i + 0.5) * (y1 - y0) / ny if y1 > y0 else y0 for i in range(ny)]
    return [(x, y) for x in xs for y in ys]


def uniform_grid_experiment(omega, eta: float, point, k_max: int) -> UniformGridReport:
    """Simultaneous shrinking-target certification over a compact target box.

    omega = (x0, x1, y0, y1) must avoid the axes with y0 > 0.  Per dyadic level
    the box is covered by a grid of spacing equal to the level's target size
    (every point of omega is within that size of a grid point in the box
    norm), and the level passes when every grid target is hit within the
    horizon: one hit step (_hits) per level, one window per grid target.
    Reports the certified uniform T0, or None.
    """
    x0, x1, y0, y1 = (float(t) for t in omega)
    if x0 > x1 or y0 > y1:
        raise ValueError("omega bounds must be ordered")
    if y0 <= 0.0 or x0 * x1 <= 0.0 or (x0 == 0.0 and x1 == 0.0):
        raise ValueError("omega must be compact and off the axes with positive v2")
    if not 0.0 <= eta < 1.0:
        raise ValueError("shrink exponent must lie in [0, 1)")
    rep = _rep_of(point)
    levels = []
    for horizon, delta in _dyadic_levels(eta, k_max, y0):
        grid = _grid_points((x0, x1, y0, y1), delta)
        h = 0.5 * delta
        win = _hits(rep, [_orbit_box(w1, w2, h, h, horizon) for w1, w2 in grid])[0]
        hit = np.unique(win).size == len(grid)
        levels.append({"horizon": horizon, "delta": delta, "nGrid": len(grid), "hit": bool(hit)})
    return UniformGridReport(T0=_certified_T0([lv["hit"] for lv in levels], k_max), levels=levels)
