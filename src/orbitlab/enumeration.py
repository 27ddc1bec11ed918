"""Exact enumeration of integer determinant-one matrices in trace-norm balls.

The ball of budget T is the finite set of integer matrices [[a, b], [c, d]]
with ad - bc = 1 and a^2 + b^2 + c^2 + d^2 <= T.  It is enumerated through the
two-squares identity: with p = a+d, q = b-c, r = a-d, s = b+c, the elements of
norm n correspond one-to-one to the pairs of lattice points with
p^2 + q^2 = n + 2 and r^2 + s^2 = n - 2 whose coordinates agree mod 2
(p - r and q - s even).  The norms are taken in windows of ``_WINDOW_NORMS``;
for each window numpy builds the two annuli of such points and pairs the points
of equal (norm, parity) key.  Only one window is in memory at a time: about
6 * ``_WINDOW_NORMS`` rows plus the 2*sqrt(T) columns of its annuli, whatever
the budget.  ``count``, ``elements_array`` and ``enumerate_ball`` all read this
one window generator, and congruence subgroups are one vectorized filter on
its rows.

The annulus bounds use the floor of a float square root, which is the integer
root for arguments below 2^52, and the coordinates and pairing keys are int64,
so enumeration is exact for norms below 2^52 - 2; a ball that size (about
6 * 2^52 elements) could never be materialized anyway.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetOverflow
from .homogeneous import _ranges
from .matrices import LatticeElement

__all__ = [
    "SubgroupFilter",
    "ext_gcd",
    "enumerate_ball",
    "count",
    "elements_array",
    "dump_elements",
    "load_elements",
]

# Above this, float budgets stop being integer-faithful.  The enumeration itself
# is exact only below 2^52 - 2 (see above); the closest-point search takes
# budgets up to this bound.
MAX_BUDGET = float(2**62)

# Norms per enumeration window.  The ball count grows like 6T, so a window holds
# about 6 * 2^13 = 49k rows (measured 35k to 61k at norms from 10^6 to 10^13).
_WINDOW_NORMS = 1 << 13

DUMP_FORMAT = "orbitlab-ball-v1"


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

    def passes(self, a: int, b: int, c: int, d: int) -> bool:
        if self.kind == "full":
            return True
        n = self.level
        if self.kind == "gamma0":
            return c % n == 0
        return a % n == 1 % n and d % n == 1 % n and b % n == 0 and c % n == 0

    def mask(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized ``passes`` over the rows (a, b, c, d) of an (n, 4) integer array."""
        if self.kind == "full":
            return np.ones(arr.shape[0], dtype=bool)
        n = self.level
        a, b, c, d = arr.T
        if self.kind == "gamma0":
            return c % n == 0
        return (a % n == 1 % n) & (d % n == 1 % n) & (b % n == 0) & (c % n == 0)

    def __str__(self) -> str:
        if self.kind == "full":
            return "full"
        return f"{self.kind}:{self.level}"


def _budget_int(T: float) -> int:
    T = float(T)
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


def _annulus(lo: int, hi: int) -> tuple:
    """Integer points (x, y) with lo <= x^2 + y^2 < hi (0 <= lo < hi), as int64 arrays."""
    xmax = math.isqrt(hi - 1)
    x = np.arange(-xmax, xmax + 1)
    top = _isqrt(hi - 1 - x * x)
    inner = lo - x * x
    bot = np.where(inner > 0, _isqrt(np.maximum(inner - 1, 0)) + 1, 0)
    # y runs over [-top, -bot] and [max(bot, 1), top], so y = 0 comes once
    pos = np.maximum(bot, 1)
    start = np.concatenate([-top, pos])
    col, y = _ranges(start, np.maximum(np.concatenate([top - bot, top - pos]) + 1, 0))
    return np.concatenate([x, x])[col], y


def _windows(Tint: int) -> Iterator[np.ndarray]:
    """Every element with norm <= Tint as (n, 4) int64 rows (a, b, c, d), window by window.

    The window [n0, n1) of norms pairs the annulus n0+2 <= p^2+q^2 < n1+2 with
    the annulus n0-2 <= r^2+s^2 < n1-2 on equal keys (norm, x mod 2, y mod 2);
    a pair is the element a = (p+r)/2, b = (q+s)/2, c = (s-q)/2, d = (p-r)/2.
    Rows within a window come in no particular order.
    """
    for n0 in range(2, Tint + 1, _WINDOW_NORMS):
        n1 = min(n0 + _WINDOW_NORMS, Tint + 1)
        p, q = _annulus(n0 + 2, n1 + 2)
        r, s = _annulus(n0 - 2, n1 - 2)
        pq_key = 4 * (p * p + q * q - 2 - n0) + 2 * (p & 1) + (q & 1)
        rs_key = 4 * (r * r + s * s + 2 - n0) + 2 * (r & 1) + (s & 1)
        size = np.bincount(rs_key, minlength=4 * (n1 - n0))
        i, j = _ranges((np.cumsum(size) - size)[pq_key], size[pq_key])
        j = np.argsort(rs_key)[j]
        p, q, r, s = p[i], q[i], r[j], s[j]
        yield np.stack([(p + r) >> 1, (q + s) >> 1, (s - q) >> 1, (p - r) >> 1], axis=1)


def count(T: float, subgroup: SubgroupFilter = SubgroupFilter.full(), workers: int = 1) -> int:
    """Number of budget-T elements passing the filter.

    The sum of ``subgroup.mask`` over the norm windows, so memory stays bounded
    by one window whatever T; exact for T below 2^52 - 2.  Costs about 0.4 s per
    10^6 of budget on one core.  ``workers`` is accepted for compatibility and
    has no effect.
    """
    return sum(int(subgroup.mask(rows).sum()) for rows in _windows(_budget_int(T)))


def elements_array(T: float, subgroup: SubgroupFilter = SubgroupFilter.full()) -> np.ndarray:
    """All budget-T elements passing the filter as an (n, 4) int64 array of rows (a, b, c, d).

    Rows are sorted by the first column (a^2 + c^2, a, c), then by the Bezout
    shift k ascending: the elements with first column (a, c) are
    (a, b0 + k*a, c, d0 + k*c), and a*b + c*d = a*b0 + c*d0 + k*(a^2 + c^2)
    increases with k, so one lexsort on (a^2 + c^2, a, c, a*b + c*d) gives the
    order.  Exact for T below 2^52 - 2.
    """
    parts = [np.empty((0, 4), dtype=np.int64)]
    parts += [rows[subgroup.mask(rows)] for rows in _windows(_budget_int(T))]
    arr = np.concatenate(parts)
    a, b, c, d = arr.T
    return arr[np.lexsort((a * b + c * d, c, a, a * a + c * c))]


def enumerate_ball(
    T: float,
    subgroup: SubgroupFilter = SubgroupFilter.full(),
    workers: int = 1,
) -> Iterator[LatticeElement]:
    """Yield each budget-T element passing the filter exactly once.

    The rows of ``elements_array`` in its order: by first column
    (a^2 + c^2, a, c), then Bezout shift k ascending.  ``workers`` is accepted
    for compatibility and has no effect.
    """
    for a, b, c, d in elements_array(T, subgroup).tolist():
        yield LatticeElement(a, b, c, d)


# ---------------------------------------------------------------------------
# Binary dumps: little-endian int64 quadruples plus a JSON sidecar.
# ---------------------------------------------------------------------------

def dump_elements(path: str, T: float, subgroup: SubgroupFilter = SubgroupFilter.full()) -> int:
    """Write the ball to ``path`` (raw <i8 quadruples) with a JSON sidecar."""
    arr = elements_array(T, subgroup)
    arr.astype("<i8").tofile(path)
    sidecar = {
        "T": float(T),
        "filter": str(subgroup),
        "count": int(arr.shape[0]),
        "version": _version(),
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


def _version() -> str:
    from . import __version__

    return __version__
