"""Exact enumeration of integer determinant-one matrices in trace-norm balls.

The ball of budget T is the finite set of integer matrices [[a, b], [c, d]]
with ad - bc = 1 and a^2 + b^2 + c^2 + d^2 <= T.  It is enumerated through the
two-squares identity: with p = a+d, q = b-c, r = a-d, s = b+c, the elements of
norm n correspond one-to-one to the pairs of lattice points with
p^2 + q^2 = n + 2 and r^2 + s^2 = n - 2 whose coordinates agree mod 2
(p - r and q - s even).  The norms are taken in windows of ``_WINDOW_NORMS``,
and each window is one annulus of points that holds both sides (``_annuli``).
``elements_array`` and ``enumerate_ball`` pair its points of equal (norm,
parity) key into rows (``_windows``): about 6 * ``_WINDOW_NORMS`` rows plus the
2*sqrt(T) columns of the annulus are in memory at a time, whatever the budget,
congruence subgroups are one vectorized filter on the rows, and one argsort
of an int64 key orders them.  ``count`` builds no row under any filter: it
sums, per norm and residue class, the products of the two sides' point
counts (see ``count``).

The annulus bounds use the floor of a float square root, which is the integer
root for arguments below 2^52, and the coordinates and pairing keys are int64,
so counting is exact for norms below 2^52 - 2.  The row order key fits int64
for budgets up to 2^30 - 1 (``MAX_ROW_BUDGET``); a larger ball, about
6.4 * 10^9 rows, is refused before it is built.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import __version__
from .errors import BudgetOverflow
from .homogeneous import _ranges
from .matrices import LatticeElement

__all__ = [
    "SubgroupFilter",
    "enumerate_ball",
    "count",
    "elements_array",
    "dump_elements",
    "load_elements",
]

# Above this, float budgets stop being integer-faithful.  Counting is exact
# only below 2^52 - 2 (see above); the closest-point search takes budgets up
# to this bound.
MAX_BUDGET = float(2**62)

# The largest budget whose rows ``elements_array`` orders (see there).
MAX_ROW_BUDGET = 2**30 - 1

# Norms per enumeration window.  The ball count grows like 6T, so a window holds
# about 6 * 2^13 = 49k rows (measured 35k to 61k at norms from 10^6 to 10^13).
_WINDOW_NORMS = 1 << 13

DUMP_FORMAT = "orbitlab-ball-v1"


@dataclass(frozen=True)
class SubgroupFilter:
    """Membership predicate for the full group or a congruence subgroup.

    kind is one of "full", "gamma0" (lower-left entry divisible by the level)
    or "gamma" (congruent to the identity modulo the level).
    """

    kind: str = "full"
    level: int = 1

    def __post_init__(self):
        if self.kind not in ("full", "gamma0", "gamma"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if isinstance(self.level, bool):
            raise TypeError("filter level must be an integer, not a bool")
        object.__setattr__(self, "level", operator.index(self.level))  # TypeError for floats
        if self.level < 1:
            raise ValueError("filter level must be a positive integer")
        if self.kind == "full" and self.level != 1:
            raise ValueError("the full filter takes no level")

    @classmethod
    def full(cls) -> "SubgroupFilter":
        return cls("full", 1)

    @classmethod
    def gamma0(cls, level: int) -> "SubgroupFilter":
        return cls("gamma0", level)

    @classmethod
    def gamma(cls, level: int) -> "SubgroupFilter":
        return cls("gamma", level)

    @classmethod
    def parse(cls, text: str) -> "SubgroupFilter":
        """Parse "full", "gamma0:N" or "gamma:N"."""
        text = text.strip()
        if text == "full":
            return cls.full()
        for prefix, kind in (("gamma0:", "gamma0"), ("gamma:", "gamma")):
            if text.startswith(prefix):
                return cls(kind, int(text[len(prefix):]))
        raise ValueError(f"cannot parse subgroup filter {text!r}")

    def mask(self, arr: np.ndarray) -> np.ndarray:
        """Whether each row (a, b, c, d) of an (n, 4) integer array passes the filter.

        The level is clamped to 2^62, so that the remainders stay in int64.
        That is exact while every entry is below 2^62 - 1 in absolute value,
        as row and strip entries are (below 2^31): an entry x is then 0 or 1
        modulo the level exactly when x is 0 or 1.
        """
        if self.kind == "full":
            return np.ones(arr.shape[0], dtype=bool)
        n = min(self.level, 2**62)
        a, b, c, d = arr.T
        if self.kind == "gamma0":
            return c % n == 0
        return (a % n == 1 % n) & (d % n == 1 % n) & (b % n == 0) & (c % n == 0)

    def __str__(self) -> str:
        if self.kind == "full":
            return "full"
        return f"{self.kind}:{self.level}"


def _budget_int(T: float) -> int:
    """The integer budget floor(T) of a norm ball: the one check of a budget,
    ValueError for NaN and BudgetOverflow beyond MAX_BUDGET."""
    T = float(T)
    if math.isnan(T):
        raise ValueError("budget must not be NaN")
    if not math.isfinite(T) or T > MAX_BUDGET:
        raise BudgetOverflow(f"budget {T!r} outside the exact enumeration range")
    return math.floor(T)


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Elementwise integer square root of a nonnegative int64 array below 2^52.

    The floor of the float root is exact there: v converts to float exactly,
    the integer root m is a float, and sqrt(v) < sqrt((m+1)^2 - 1) stays more
    than 2^-27 below m + 1 <= 2^26, beyond half the float spacing there.
    """
    return np.sqrt(v).astype(np.int64)


def _annulus(lo: int, hi: int, x0: int = 0, N: int = 1) -> tuple:
    """Points (x, y) with lo <= x^2 + y^2 < hi (0 <= lo < hi), x = x0 and y = 0 (mod N), as int64 arrays."""
    xmax = math.isqrt(hi - 1)
    x = np.arange(-xmax + (x0 + xmax) % N, xmax + 1, N)
    top = _isqrt(hi - 1 - x * x)
    inner = lo - x * x
    bot = np.where(inner > 0, _isqrt(np.maximum(inner - 1, 0)) + 1, 0)
    top, bot = top // N, -(-bot // N)  # y = N*j with bot <= |y| <= top
    # j runs over [-top, -bot] and [max(bot, 1), top], so j = 0 comes once
    pos = np.maximum(bot, 1)
    start = np.concatenate([-top, pos])
    col, j = _ranges(start, np.maximum(np.concatenate([top - bot, top - pos]) + 1, 0))
    return np.concatenate([x, x])[col], N * j


def _annuli(Tint: int, x0: int = 0, N: int = 1) -> Iterator[tuple]:
    """The lattice points of each window of norms up to Tint, one annulus per window.

    For the window [n0, n1) of element norms it yields (w, x, y, m) with
    w = n1 - n0: the points (x, y) with n0-2 <= x^2+y^2 < n1+2 (those with
    x = x0 and y = 0 mod N) as int64 arrays and m = x^2 + y^2 - (n0 - 2).  The
    pq side of the window is the points with m >= 4 (p^2 + q^2 = n + 2), the rs
    side those with m < w (r^2 + s^2 = n - 2).
    """
    for n0 in range(2, Tint + 1, _WINDOW_NORMS):
        n1 = min(n0 + _WINDOW_NORMS, Tint + 1)
        x, y = _annulus(n0 - 2, n1 + 2, x0, N)
        yield n1 - n0, x, y, x * x + y * y - (n0 - 2)


def _windows(Tint: int) -> Iterator[np.ndarray]:
    """Every element with norm <= Tint as (n, 4) int64 rows (a, b, c, d), window by window.

    Each window of ``_annuli`` pairs its pq points with its rs points on equal
    keys (norm, x mod 2, y mod 2); a pair is the element a = (p+r)/2,
    b = (q+s)/2, c = (s-q)/2, d = (p-r)/2.  Rows within a window come in no
    particular order.
    """
    for w, x, y, m in _annuli(Tint):
        key = 4 * m + 2 * (x & 1) + (y & 1)
        size = np.bincount(key, minlength=4 * (w + 4))
        pq = np.flatnonzero(m >= 4)
        partner = key[pq] - 16  # the key of a pq point's partners, all of them rs points
        i, j = _ranges((np.cumsum(size) - size)[partner], size[partner])
        i, j = pq[i], np.argsort(key)[j]
        p, q, r, s = x[i], y[i], x[j], y[j]
        yield np.stack([(p + r) >> 1, (q + s) >> 1, (s - q) >> 1, (p - r) >> 1], axis=1)


def _classes(x: np.ndarray, y: np.ndarray, m: np.ndarray, x0: int, N: int, w: int) -> np.ndarray:
    """Points per (m, class) of annulus points with x = x0 and y = 0 (mod N), as a (w + 4, 4) array.

    The class of a point is ((x - x0)/N mod 2, y/N mod 2).
    """
    if N > 1:
        x, y = (x - x0) // N, y // N
    return np.bincount(4 * m + 2 * (x & 1) + (y & 1), minlength=4 * (w + 4)).reshape(-1, 4)


def count(T: float, subgroup: SubgroupFilter = SubgroupFilter.full(), workers: int = 1) -> int:
    """Number of budget-T elements passing the filter.

    No element is built.  An element of norm n is a pq point of norm n + 2
    and an rs point of norm n - 2 with p = r and q = s (mod 2).  Under
    ``full`` and ``gamma:N``, a = d = 1, b = c = 0 (mod N) exactly when
    p = 2, q = 0 and r = s = 0 (mod N) and ((p-2)/N, q/N) = (r/N, s/N)
    (mod 2); N = 1 is the parity pairing of the full group.  Each side is the
    sublattice annulus of its congruence, and each window's count is the sum
    over norms and the 4 classes of the product of the two sides' histograms.
    Under ``gamma0:N`` the condition c = (s - q)/2 = 0 (mod N) is
    s = q (mod 2N), which ties the two sides together: every point of the
    window's annulus gets the key (norm, x mod 2, y mod 2N) on each side, the
    keys are sorted once into runs of equal keys, and each run of rs keys
    adds its length times that of the run of the same pq key.
    On one core ``count(10^5)`` takes about 4 ms, ``count(10^7)`` 0.5 to
    0.8 s (3.8 s from rows), ``count(5*10^4, gamma0:N)`` 4 to 6 ms for any N
    (20 ms from rows) and ``count(10^6, gamma:97)`` 12 ms (82 ms when it
    built the whole annulus).
    Memory stays bounded by one window whatever T; exact for T below
    2^52 - 2.  ``workers`` is accepted for compatibility and has no effect.
    """
    Tint = _budget_int(T)
    # coordinates are at most R = isqrt(Tint + 2) in size: a level above R + 2
    # keeps the same points and classes (x = x0, y = 0 only), 2N above 2R
    # exceeds every |s - q|, and the keys stay small
    N, total = min(subgroup.level, math.isqrt(max(Tint, 0) + 2) + 3), 0
    if subgroup.kind == "gamma0":
        for w, x, y, m in _annuli(Tint):
            u, n = np.unique((2 * m + (x & 1)) * (2 * N) + y % (2 * N), return_counts=True)
            rs = np.searchsorted(u, 4 * w * N)  # the runs of rs keys (m < w) come first
            pq = u[:rs] + 16 * N  # the pq key of the same class, 4 norms up
            i = np.minimum(np.searchsorted(u, pq), len(u) - 1)
            total += int((n[:rs] * n[i] * (u[i] == pq)).sum())
        return total
    pq_side = _annuli(Tint, 2, N) if N > 1 else None  # for N = 1 both sides are one annulus
    for w, x, y, m in _annuli(Tint, 0, N):
        rs = _classes(x, y, m, 0, N, w)
        pq = rs if pq_side is None else _classes(*next(pq_side)[1:], 2, N, w)
        total += int((pq[4:] * rs[:w]).sum())
    return total


def _row_budget(T: float) -> int:
    """The integer budget of a ball whose rows ``elements_array`` can order.

    Raises ``BudgetOverflow`` above ``MAX_ROW_BUDGET``.
    """
    Tint = _budget_int(T)
    if Tint > MAX_ROW_BUDGET:
        raise BudgetOverflow(f"budget {T!r} above {MAX_ROW_BUDGET}, the largest ball whose rows can be ordered")
    return Tint


def _order_key(arr: np.ndarray, Tint: int) -> np.ndarray:
    """The int64 key of each row (a, b, c, d) of a budget-Tint ball: the digits
    a^2 + c^2, a, c > 0 and k = (a*b + c*d) // (a^2 + c^2) in mixed radix."""
    R = math.isqrt(max(Tint, 0))
    a, b, c, d = arr.T
    n = a * a + c * c
    k = (a * b + c * d) // n
    return ((n * (2 * R + 1) + a + R) * 2 + (c > 0)) * (2 * R + 2) + k + R + 1


def elements_array(T: float, subgroup: SubgroupFilter = SubgroupFilter.full()) -> np.ndarray:
    """All budget-T elements passing the filter as an (n, 4) int64 array of rows (a, b, c, d).

    Rows are sorted by the first column (a^2 + c^2, a, c), then by the Bezout
    shift k ascending: the elements with first column (a, c) are
    (a, b0 + k*a, c, d0 + k*c), and a*b + c*d = a*b0 + c*d0 + k*(a^2 + c^2)
    rises by a^2 + c^2 per shift, so k = (a*b + c*d) // (a^2 + c^2) orders
    them.  Given a^2 + c^2 and a, c is fixed up to its sign.  So one argsort
    of the unique int64 key ``_order_key`` gives the order: the digits
    a^2 + c^2 in [1, T], a + R in [0, 2R], c > 0 and k + R + 1 in [0, 2R + 1]
    with R = isqrt(T), since |a*b + c*d| / (a^2 + c^2) <= sqrt(T - 1) by
    Cauchy-Schwarz and its floor k lies in [-R - 1, R].  The largest key,
    ((T(2R+1) + 2R)*2 + 1)(2R+2) + 2R + 1, is below 2^63 exactly for
    T <= 2^30 - 1 = ``MAX_ROW_BUDGET``, and a larger budget raises
    ``BudgetOverflow`` before any row is built (such a ball has about
    6.4 * 10^9 rows, 200 GB).  ``elements_array(2*10^4)`` takes about
    14 ms on one core, against 40 ms for one sort on four separate keys.
    """
    Tint = _row_budget(T)
    parts = [np.empty((0, 4), dtype=np.int64)]
    parts += [rows if subgroup.kind == "full" else rows[subgroup.mask(rows)] for rows in _windows(Tint)]
    arr = np.concatenate(parts)
    return arr[np.argsort(_order_key(arr, Tint))]


def enumerate_ball(T: float, subgroup: SubgroupFilter = SubgroupFilter.full()) -> Iterator[LatticeElement]:
    """Yield each budget-T element passing the filter exactly once.

    The rows of ``elements_array`` in its order: by first column
    (a^2 + c^2, a, c), then Bezout shift k ascending; a budget above
    ``MAX_ROW_BUDGET`` raises ``BudgetOverflow``.
    """
    for a, b, c, d in elements_array(T, subgroup).tolist():
        yield LatticeElement(a, b, c, d)


# ---------------------------------------------------------------------------
# Binary dumps: little-endian int64 quadruples plus a JSON sidecar.
# ---------------------------------------------------------------------------

def dump_elements(path: str, T: float, subgroup: SubgroupFilter = SubgroupFilter.full()) -> int:
    """Write the ball to ``path`` (raw <i8 quadruples) with a JSON sidecar.

    A budget above ``MAX_ROW_BUDGET`` raises ``BudgetOverflow`` before any file is written.
    """
    arr = elements_array(T, subgroup)
    arr.astype("<i8").tofile(path)
    sidecar = {
        "T": float(T),
        "filter": str(subgroup),
        "count": int(arr.shape[0]),
        "version": __version__,
        "format": DUMP_FORMAT,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")
    return arr.shape[0]


def load_elements(path: str) -> tuple:
    """Read a dumped ball; returns (array, sidecar dict).  Validates the count."""
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    if sidecar.get("format") != DUMP_FORMAT:
        raise ValueError(f"unrecognized dump format in {path}.json")
    arr = np.fromfile(path, dtype="<i8").reshape(-1, 4).astype(np.int64)
    if arr.shape[0] != sidecar["count"]:
        raise ValueError(f"dump {path} holds {arr.shape[0]} elements, sidecar says {sidecar['count']}")
    return arr, sidecar
