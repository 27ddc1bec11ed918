"""Discrete shear-orbit experiments on the quotient.

The orbit of a quotient point x under the integer lower-shear flow is
O_K(x) = {x * lower_shear(k): |k| <= K}.  For a box target, a group candidate
gamma with gamma*rep in the (tau, p1)-box hits the target exactly at the
integer shifts k that move its shear coordinate s into (-1/2, 1/2), i.e. at
the single k = round(-s) (boundary shifts contribute nothing: the window is
open and the bump vanishes there).  All experiments below exploit this: one
batched candidate search covers every orbit time at once, and the one hit
step of ``homogeneous``, _hits, keeps the candidates that hit (membership
decides time 0 by the same test).  The variance chunks search one
window per sample point, and the window counts one window per dyadic shell
of orbit times, each with the largest target its times still use.  Miss
rates, grid levels and shrinking-target reports ask only for the first hit
of each sample, grid target or dyadic level: _first_hits gives each window
shells of orbit times of its own, a first one sized by its own box and then
outward from where it stopped, and drops it once it has hit or reached its
own horizon.  Windows of one matrix (the levels of a report, the targets of
a grid slice) share a cover window, the bounding box of consecutive windows
searched from the least of their starts to the farthest of their ends,
wherever it predicts no more kernel work than searching them apart, and
each hit goes to every window of its cover whose closed box and horizon
hold it.  The correlation chunks alone keep every candidate, to place it
at several shear offsets.

Horizons are integers, checked once where they enter a driver (_horizon):
K >= 1 for hit_set, k_max >= 1 for window_hit_counts, k_max >= 2 for the
shrinking-target reports and uniform grids, and half-widths and orbit
windows >= 0 for the curves.

Monte Carlo loops use common random numbers across grid values and accumulate
in fixed-size chunks in index order, so results are bitwise identical for any
worker count.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, Sequence

import numpy as np

from .homogeneous import (
    COVOLUME,
    TargetSpec,
    _box_candidates_batch,
    _bump_box,
    _bump_weight,
    _haar_reps,
    _hit_times,
    _hits,
    _ranges,
    _rep_of,
    _target_box,
    bump,
    bump_mean,
)

__all__ = [
    "HitSet",
    "VarianceCurve",
    "MissRate",
    "UniformGridReport",
    "variance_curve",
    "matcoef_curve",
    "hit_set",
    "miss_rate_curve",
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
    # Imported here: only a pool run needs multiprocessing, so `import orbitlab` skips it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, chunks))


def _horizon(k, least: int, name: str) -> int:
    """The one check of an orbit-time horizon, where it enters a driver: k
    as an int (numpy ints pass), or a ValueError naming it when k is a bool,
    not an integer or below least (a float horizon would search a time
    beyond its integer part)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < least:
        raise ValueError(f"{name} must be >= {least} and an integer, not {k!r}")
    return int(k)


def _nonempty(values: list, what: str) -> list:
    """values, or a ValueError naming what a curve needs at least one of."""
    if not values:
        raise ValueError(f"need at least one {what}")
    return values


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


# ---------------------------------------------------------------------------
# Candidate arrays per sample
# ---------------------------------------------------------------------------

# A window's first shell predicts _FIRST_SHELL_POINTS lattice points, to
# amortise the window's set-up (about 15 us), or one hit of a random orbit if
# that takes longer, so that few windows pay a second set-up; each later
# shell reaches _SHELL_GROWTH times as far as the last.
_FIRST_SHELL_POINTS = 100
_SHELL_GROWTH = 4


def _first_reach(cols: np.ndarray) -> list:
    """The end k of the first shell |k| <= k of each window, from the
    rows (p1_lo, p1_hi, tau_lo, tau_hi) of the windows' box ends.

    Over |k| <= k a box holds about (tau_hi - tau_lo)*(2k + 1)*tau_hi
    lattice points, and a random orbit expects 2k + 1 times the box measure
    2*(p1_hi - p1_lo)*(tau_hi - tau_lo)/COVOLUME hits.
    """
    p1_lo, p1_hi, tau_lo, tau_hi = cols
    area = (tau_hi - tau_lo) * tau_hi
    measure = 2.0 * (p1_hi - p1_lo) * (tau_hi - tau_lo) / COVOLUME
    return np.ceil((np.maximum(_FIRST_SHELL_POINTS / area, 1.0 / measure) - 1.0) / 2.0).astype(np.int64).tolist()


def _covers(boxes: list, starts: list, ends: list) -> list:
    """The pending windows of one round that share one matrix, window i
    searching start_i <= |k| <= end_i, cut into runs that share a cover
    window: (box, start, end, size) per run of size consecutive windows, the
    bounding box of their boxes, the least of their starts and the farthest
    of their ends.

    Per orbit time, a box predicts (tau_hi - tau_lo)*tau_hi lattice points
    and 2*(p1_hi - p1_lo)*(tau_hi - tau_lo)/COVOLUME candidates (a random
    orbit's hits).  Walked in order, a window joins the current run when the
    joint box, searched from the lesser start to the farther end, predicts
    no more points and candidates than the run and the window searched
    apart.
    """
    runs = []
    for box, lo, end in zip(boxes, starts, ends):
        p1_lo, p1_hi, tau_lo, tau_hi = box
        # lo <= |k| <= end holds 2*(end - lo) + 2 times, one fewer for lo = 0
        alone = (tau_hi - tau_lo) * (tau_hi + 2.0 * (p1_hi - p1_lo) / COVOLUME) * (2 * (end - lo) + (2 if lo else 1))
        if runs:
            # the joint box and times (conditionals: min and max cost more here)
            p1_lo = c0 if c0 < p1_lo else p1_lo
            p1_hi = c1 if c1 > p1_hi else p1_hi
            tau_lo = c2 if c2 < tau_lo else tau_lo
            tau_hi = c3 if c3 > tau_hi else tau_hi
            least = least if least < lo else lo
            far = far if far > end else end
            times = 2 * (far - least) + (2 if least else 1)
            joint = (tau_hi - tau_lo) * (tau_hi + 2.0 * (p1_hi - p1_lo) / COVOLUME) * times
            if joint <= work + alone:
                c0, c1, c2, c3, work = p1_lo, p1_hi, tau_lo, tau_hi, joint
                runs[-1] = ((c0, c1, c2, c3), least, far, runs[-1][3] + 1)
                continue
        c0, c1, c2, c3 = box
        least, far, work = lo, end, alone  # the last run's start, end and predicted work
        runs.append((box, lo, end, 1))
    return runs


def _first_hits(reps, boxes: list, horizon) -> np.ndarray:
    """The least |k| <= horizon at which each window hits, horizon + 1 where
    none does.

    reps is one representative per window or one matrix for all, boxes the
    (p1_lo, p1_hi, tau_lo, tau_hi) of each window, and horizon one int for
    all windows or one per window.  Each window searches shells of its own:
    |k| <= its _first_reach, then from where its last search stopped to
    _SHELL_GROWTH times that stop, each cut at its horizon; it leaves the
    search once it has hit or reached that horizon.  Each round is one _hits
    call on the windows still pending, with the centred shell |k| <= end for
    a window that starts at 0 and the mirror pair of _shells(start, end) for
    one that starts later.

    Windows that share one matrix share a cover window where that predicts
    no more work (_covers): runs of consecutive pending windows are searched
    as the bounding box of their boxes, from the least of their starts to
    the farthest of their ends.  Each hit of the round goes to the windows
    of its own run (its cover) whose closed box holds its (p1, tau); one
    beyond a window's horizon leaves its answer at horizon + 1.  A window
    that does not hit goes on from its run's end, so no time is searched
    twice for a window.  A hit has s strictly inside (-k - 1/2, -k + 1/2),
    so it lies in exactly one shell.

    The own-cover rule loses no first hit.  A candidate's (p1, tau, s)
    depends only on its integer row and the matrix, not on the window it
    was found in, and the kernel returns every candidate of a closed box,
    so a window sees the floats of a search on it alone.  A pending
    window's own cover searches a box that holds the window's box over
    every time from the run's least start to its end.  So a hit of the
    window that another cover finds at |k| <= that end is found by its own
    cover too, at the same |k|; one beyond that end waits for the window's
    later rounds, which search the times between first.  And a cover that
    starts below a window's start finds no hit of that window there: the
    window's earlier covers searched every |k| < start in boxes that hold
    its own, and such a hit would have been its answer and ended its
    search.
    """
    reps = np.asarray(reps, dtype=float)
    horizons = [horizon] * len(boxes) if np.isscalar(horizon) else list(horizon)
    first = np.array(horizons, dtype=np.int64) + 1
    cols = np.array(boxes).T  # the box ends, one row each
    starts = [0] * len(boxes)
    ends = [e if e < h else h for e, h in zip(_first_reach(cols), horizons)]
    pending = list(range(len(boxes)))
    while True:
        if reps.ndim == 2:
            runs = _covers([boxes[i] for i in pending], [starts[i] for i in pending], [ends[i] for i in pending])
        else:
            runs = [(boxes[i], starts[i], ends[i], 1) for i in pending]
        shells = [_shells(lo, e) if lo else ((-e - 0.5, e + 0.5),) for _, lo, e, _ in runs]
        run = np.repeat(np.arange(len(runs)), [len(ws) for ws in shells])  # the run of each shell
        at = np.array(pending)
        pick = reps if reps.ndim == 2 else reps[at[run]]
        win, k, p1, tau, _ = _hits(pick, [r[0] + w for r, ws in zip(runs, shells) for w in ws])
        # each hit against the windows of its own run, pending positions first .. first + size - 1
        size = np.array([n for _, _, _, n in runs])
        h, j = _ranges((np.cumsum(size) - size)[run[win]], size[run[win]])
        w, p1, tau = at[j], p1[h], tau[h]
        ok = (cols[0, w] <= p1) & (p1 <= cols[1, w]) & (cols[2, w] <= tau) & (tau <= cols[3, w])
        np.minimum.at(first, w[ok], np.abs(k[h[ok]]))  # a hit beyond a window's horizon leaves it at horizon + 1
        reach = [e for _, _, e, n in runs for _ in range(n)]  # per pending window, its run's end
        # a window that has not hit goes on from its run's end, if that lies below its horizon
        pending, later = [], pending
        for i, e, f in zip(later, reach, first[later].tolist()):
            if f > horizons[i] > e:
                starts[i], ends[i] = e + 1, min(_SHELL_GROWTH * e, horizons[i])
                pending.append(i)
        if not pending:
            return first


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
    K = _horizon(K, 1, "horizon K")
    _, ks, *_ = _hits(_rep_of(point)[0], [spec.box + (-K - 0.5, K + 0.5)])
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
    spec, Ts, reps = args
    m = bump_mean(spec)
    K = max(Ts)
    win, ks, p1, tau, r = _hits(reps, [_bump_box(spec) + (-K - 0.5, K + 0.5)] * len(reps))
    # bump-weighted hits; win is the index of the sample, ascending
    ws = _bump_weight(spec, p1, tau) * bump(r)
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
    Ts = _nonempty([_horizon(T, 0, "orbit half-widths") for T in Ts], "orbit half-width")
    parts = _chunk_map(_variance_chunk, (spec, Ts), n_samples, seed, workers)
    values, stderrs = _moments(parts, n_samples)
    return VarianceCurve(Ts=Ts, values=values.tolist(), stderrs=stderrs.tolist())


# ---------------------------------------------------------------------------
# Correlation decay
# ---------------------------------------------------------------------------

def _matcoef_chunk(args):
    spec, ts, W, reps = args
    m = bump_mean(spec)
    t_hi = max(max(ts), 0.0)
    t_lo = min(min(ts), 0.0)
    box = _bump_box(spec) + (-(W + t_hi) - 0.5, -t_lo + 0.5)
    p1s, taus, ss, win = _box_candidates_batch(reps, [box] * len(reps))
    wgt = _bump_weight(spec, p1s, taus)
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
    ts = _nonempty([float(t) for t in ts], "shear time")
    W = _horizon(orbit_window, 0, "orbit window")
    parts = _chunk_map(_matcoef_chunk, (spec, ts, W), n_samples, seed, workers)
    values, stderrs = _moments(parts, n_samples)
    return values.tolist(), stderrs.tolist()


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
    p = x / n
    den = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / den
    return max(0.0, center - half), min(1.0, center + half)


def _miss_chunk(args):
    spec, Ts, reps = args
    return _first_hits(reps, [spec.box] * len(reps), max(Ts))


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
    spec = TargetSpec(float(v[0]), float(v[1]), float(delta))  # validates v and delta
    Ts = _nonempty(sorted(_horizon(T, 0, "orbit half-widths") for T in Ts), "orbit half-width")
    parts = _chunk_map(_miss_chunk, (spec, Ts), n_samples, seed, workers)
    first = np.concatenate(parts)
    out = []
    for T in Ts:
        misses = int(np.sum(first > T))
        lo, hi = _wilson(misses, n_samples)
        out.append(
            MissRate(T=T, delta=float(delta), fraction=misses / n_samples, ci_lo=lo, ci_hi=hi, n=n_samples)
        )
    return out


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
    orbits and targets.  Refuses a shrink exponent eta outside [0, 1)."""
    if not 0.0 <= eta < 1.0:
        raise ValueError("shrink exponent must lie in [0, 1)")
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


def _target_v(v, eta: float, k_max: int) -> tuple:
    """(v1, v2, levels): the levels of _dyadic_levels, which first refuses
    eta, and (v1, v2) validated through TargetSpec at the smallest size a
    level uses, the size at time k_max, so that every level's box is valid
    and holds more than one float per coordinate."""
    v1, v2 = float(v[0]), float(v[1])
    levels = _dyadic_levels(eta, k_max, v2)
    TargetSpec(v1, v2, _target_size(k_max, eta, _delta_cap(v2)))
    return v1, v2, levels


def _shells(lo: int, hi: int) -> tuple:
    """The two shear windows of the orbit times lo <= |k| <= hi (lo >= 1):
    s in [-hi - 1/2, -lo + 1/2] for k > 0 and its mirror for k < 0."""
    return (-hi - 0.5, -lo + 0.5), (lo - 0.5, hi + 0.5)


@functools.lru_cache(maxsize=1 << 8)
def _report_targets(eta: float, k_max: int, v1: float, v2: float) -> tuple:
    """(levels, boxes, horizons) of a shrinking-target report: the levels of
    _target_v, the _target_box of each and their horizons, built once per
    (eta, k_max, v) and shared by every report of a run (read only)."""
    v1, v2, levels = _target_v((v1, v2), eta, k_max)
    return tuple(levels), tuple(_target_box(v1, v2, d) for _, d in levels), tuple(h for h, _ in levels)


def shrinking_hit_report(eta: float, point, k_max: int, v) -> dict:
    """Dyadic certification run for the shrinking-target hit problem.

    Returns per-level hit flags and the certified threshold T0 (least dyadic
    horizon from which every level hits), or None when no T0 <= k_max/2 exists.

    Level j of _dyadic_levels hits when some |k| <= 2^j puts the translate
    in the target of size delta_j: abs(p1 - v1) <= delta_j/2 and
    abs(tau - v2) <= delta_j/2.  One _first_hits search answers every level:
    one window per level, with the _target_box of that test and the level's
    own horizon, each window stopping at its first hit.  Each level's first
    shell holds about 100 lattice points of its own box, or one expected
    hit, so nearly every level hits in the first round, and the levels'
    boxes are nested, so they share cover windows: 8 reports at eta = 0.25,
    k_max = 3*10^4 take 9 kernel calls with 18 windows and 3,847 lattice
    points, where one window per level and shell took 160 windows and 5,266
    points.  A level that misses searches |k| <= 2^j and no further.  The
    levels and their boxes are built once per (eta, k_max, v)
    (_report_targets).
    """
    k_max = _horizon(k_max, 2, "k_max")
    levels, boxes, horizons = _report_targets(eta, k_max, float(v[0]), float(v[1]))
    flags = [f <= h for f, h in zip(_first_hits(_rep_of(point)[0], boxes, horizons).tolist(), horizons)]
    rows = [{"horizon": h, "delta": d, "hit": bool(f)} for (h, d), f in zip(levels, flags)]
    return {"eta": eta, "kMax": k_max, "T0": _certified_T0(flags, k_max), "levels": rows}


def window_hit_counts(point, v, eta: float, k_max: int) -> list:
    """Distinct hit times per dyadic window with the per-time shrinking target.

    Window j counts times with |k| in [2^j, min(2^(j+1), k_max+1)) for which the
    translate lies in the box of size min(cap, |k|**-eta).  Returns a list of
    dicts {lo, hi, count}.  The windows start at the horizons of
    _dyadic_levels, and one hit step (_hits) searches each window's two
    shells with the _target_box of the window's largest target, which holds
    every float the count test accepts, so that test decides each time.
    """
    k_max = _horizon(k_max, 1, "k_max")
    v1, v2, levels = _target_v(v, eta, k_max)
    cap = _delta_cap(v2)
    windows = [(lo, min(2 * lo - 1, k_max)) for lo, _ in levels]
    bounds = []
    for lo, hi in windows:
        box = _target_box(v1, v2, _target_size(lo, eta, cap))  # the window's largest, at its first time
        bounds += [box + sw for sw in _shells(lo, hi)]
    # one batched search: window j is the shell pair 2j, 2j + 1, and a hit in
    # a shell lies at a time of the shell
    win, k, p1, tau, _ = _hits(_rep_of(point)[0], bounds)
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


def _grid_shape(omega, spacing: float) -> tuple:
    """(nx, ny): the grid coordinates per axis, one per cell of width at most
    spacing, or one where omega is a single point in that axis."""
    x0, x1, y0, y1 = omega
    return tuple(max(1, math.ceil((a1 - a0) / spacing)) if a1 > a0 else 1 for a0, a1 in ((x0, x1), (y0, y1)))


def _grid_points(omega, spacing: float, start: int = 0, stop: Optional[int] = None) -> list:
    """The grid targets start, ..., stop - 1 (all by default) as (x, y), x
    major: the cell midpoints x0 + (i + 1/2)*(x1 - x0)/nx of each axis, the
    same floats for any slice.  Memory is that of the slice, not of the
    grid."""
    (x0, x1, y0, y1), (nx, ny) = omega, _grid_shape(omega, spacing)
    t = np.arange(start, nx * ny if stop is None else min(stop, nx * ny))
    xs = x0 + (t // ny + 0.5) * (x1 - x0) / nx if x1 > x0 else np.full(t.size, x0)
    ys = y0 + (t % ny + 0.5) * (y1 - y0) / ny if y1 > y0 else np.full(t.size, y0)
    return list(zip(xs.tolist(), ys.tolist()))


def uniform_grid_experiment(omega, eta: float, point, k_max: int) -> UniformGridReport:
    """Simultaneous shrinking-target certification over a compact target box.

    omega = (x0, x1, y0, y1) must avoid the axes with y0 > 0.  Per dyadic level
    the box is covered by a grid of spacing equal to the level's target size
    (every point of omega is within that size of a grid point in the box
    norm), and the level passes when every grid target's first hit
    (_first_hits, one call per _CHUNK targets, whose neighbouring targets
    share cover windows where that saves work) lies within the horizon; the
    first slice with a miss ends the level.  A slice walks its targets row
    by row, so that the targets of one row, which share a tau range and so
    the lattice points per orbit time of one box, and whose first shells
    end together, meet in one cover.  Each slice is built from the
    per-axis grid coordinates (_grid_points), so memory is that of a slice
    for any nGrid = nx*ny.  Reports the certified uniform T0, or None.
    """
    k_max = _horizon(k_max, 2, "k_max")
    omega = x0, x1, y0, y1 = tuple(float(t) for t in omega)
    if not all(math.isfinite(t) for t in (x0, x1, y0, y1)):
        raise ValueError("omega bounds must be finite")
    if x0 > x1 or y0 > y1:
        raise ValueError("omega bounds must be ordered")
    if y0 <= 0.0 or x0 <= 0.0 <= x1:
        raise ValueError("omega must be compact and off the axes with positive v2")
    dyadic = _dyadic_levels(eta, k_max, y0)
    # the coarsest floats lie at the corner farthest from the axes, so the
    # smallest level's box there holds more than one float if any target's does
    TargetSpec(max(x0, x1, key=abs), y1, _target_size(k_max, eta, _delta_cap(y0)))
    rep = _rep_of(point)[0]
    levels = []
    for horizon, delta in dyadic:
        nx, ny = _grid_shape(omega, delta)
        slices = (  # each slice row by row: a stable sort on tau_lo
            sorted((_target_box(*w, delta) for w in _grid_points(omega, delta, i, i + _CHUNK)), key=itemgetter(2))
            for i in range(0, nx * ny, _CHUNK)
        )
        hit = all((_first_hits(rep, boxes, horizon) <= horizon).all() for boxes in slices)
        levels.append({"horizon": horizon, "delta": delta, "nGrid": nx * ny, "hit": hit})
    return UniformGridReport(T0=_certified_T0([lv["hit"] for lv in levels], k_max), levels=levels)
