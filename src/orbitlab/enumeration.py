"""Exact enumeration of integer determinant-one matrices in trace-norm balls.

The ball of budget T is the finite set of integer matrices [[a, b], [c, d]]
with ad - bc = 1 and a^2 + b^2 + c^2 + d^2 <= T.  Enumeration is organized by
the first column (a, c), which is necessarily primitive: the second columns
compatible with it form the coset (b0 + k*a, d0 + k*c), k in Z, of a Bezout
solution, and the norm budget restricts k to an explicitly computable integer
interval.  This gives O(1) work per element with no rejection sampling.

Congruence subgroups are realized as filters on the full enumeration; counting
uses per-family shortcuts where the filter allows it and never materializes
elements.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetOverflow
from .matrices import LatticeElement

__all__ = [
    "SubgroupFilter",
    "ColumnFamily",
    "ext_gcd",
    "family_iter",
    "enumerate_ball",
    "count",
    "elements_array",
    "dump_elements",
    "load_elements",
    "cache_path",
    "load_cached",
]

# Above this, float budgets stop being integer-faithful and enumeration is
# infeasible anyway (the ball has ~6T elements).
MAX_BUDGET = float(2**62)

CACHE_ENV = "ORBITLAB_CACHE"
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


@dataclass(frozen=True)
class ColumnFamily:
    """All budgeted elements sharing the primitive first column (a, c).

    (b0, d0) is the minimal-norm Bezout solution of a*d0 - c*b0 = 1; the
    elements of the family are [[a, b0 + k*a], [c, d0 + k*c]] for k in the
    inclusive shift interval [k_lo, k_hi].
    """

    a: int
    c: int
    b0: int
    d0: int
    k_lo: int
    k_hi: int

    def __len__(self) -> int:
        return self.k_hi - self.k_lo + 1

    def element(self, k: int) -> LatticeElement:
        return LatticeElement(self.a, self.b0 + k * self.a, self.c, self.d0 + k * self.c)

    def shifts(self) -> range:
        return range(self.k_lo, self.k_hi + 1)


def _budget_int(T: float) -> int:
    T = float(T)
    if not math.isfinite(T) or T > MAX_BUDGET:
        raise BudgetOverflow(f"budget {T!r} outside the exact enumeration range")
    return math.floor(T)


def _bezout_min_norm(a: int, c: int) -> tuple:
    """Minimal-norm particular solution (b0, d0) of a*d0 - c*b0 = 1.

    Ties (the shift quadratic has two equal minima) break toward smaller b0,
    then smaller d0, so the canonical representative is deterministic.
    """
    g, x, y = ext_gcd(a, c)
    # a*x + c*y = 1  ->  d0 = x, b0 = -y
    b0, d0 = -y, x
    A = a * a + c * c
    kstar = -(a * b0 + c * d0) / A
    best = None
    for k in (math.floor(kstar), math.ceil(kstar)):
        b, d = b0 + k * a, d0 + k * c
        cand = (b * b + d * d, b, d)
        if best is None or cand < best:
            best = cand
    return best[1], best[2]


def _shift_interval(a: int, c: int, b0: int, d0: int, S: int) -> Optional[tuple]:
    """Exact integer interval of k with (b0 + k*a)^2 + (d0 + k*c)^2 <= S."""
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


def _column_candidates(Tint: int, a_lo: int, a_hi: int):
    """Primitive first columns (a, c) with a^2 + c^2 <= Tint - 1 and a in [a_lo, a_hi]."""
    cap = Tint - 1
    if cap < 1:
        return
    amax = math.isqrt(cap)
    a_lo, a_hi = max(a_lo, -amax), min(a_hi, amax)
    for a in range(a_lo, a_hi + 1):
        cmax = math.isqrt(cap - a * a)
        cs = np.arange(-cmax, cmax + 1)
        prim = np.gcd(abs(a), np.abs(cs)) == 1
        for c in cs[prim]:
            yield a, int(c)


def _families_in_range(Tint: int, a_lo: int, a_hi: int) -> list:
    out = []
    for a, c in _column_candidates(Tint, a_lo, a_hi):
        b0, d0 = _bezout_min_norm(a, c)
        iv = _shift_interval(a, c, b0, d0, Tint - a * a - c * c)
        if iv is not None:
            out.append(ColumnFamily(a, c, b0, d0, iv[0], iv[1]))
    return out


def family_iter(T: float) -> Iterator[ColumnFamily]:
    """Yield every nonempty column family of the budget-T ball.

    Families are ordered by (a^2 + c^2, a, c); this order is deterministic and
    partitions cleanly for parallel consumption.
    """
    Tint = _budget_int(T)
    fams = _families_in_range(Tint, -Tint, Tint)
    fams.sort(key=lambda f: (f.a * f.a + f.c * f.c, f.a, f.c))
    return iter(fams)


def _count_family(fam: ColumnFamily, flt: SubgroupFilter) -> int:
    """Number of family elements passing the filter, without materializing them."""
    n_all = len(fam)
    if flt.kind == "full":
        return n_all
    n = flt.level
    if flt.kind == "gamma0":
        return n_all if fam.c % n == 0 else 0
    # gamma(N): needs a = 1, c = 0, d0 = 1 mod N and b0 + k*a = 0 mod N.
    if fam.a % n != 1 % n or fam.c % n != 0 or fam.d0 % n != 1 % n:
        return 0
    g, inv_a, _ = ext_gcd(fam.a % n, n)
    if g != 1:
        return 0
    k0 = (-fam.b0 * inv_a) % n
    first = fam.k_lo + ((k0 - fam.k_lo) % n)
    if first > fam.k_hi:
        return 0
    return (fam.k_hi - first) // n + 1


def _count_chunk(args) -> int:
    Tint, filter_text, a_lo, a_hi = args
    flt = SubgroupFilter.parse(filter_text)
    return sum(_count_family(f, flt) for f in _families_in_range(Tint, a_lo, a_hi))


def _expand_chunk(args) -> list:
    Tint, filter_text, a_lo, a_hi = args
    flt = SubgroupFilter.parse(filter_text)
    fams = _families_in_range(Tint, a_lo, a_hi)
    fams.sort(key=lambda f: (f.a * f.a + f.c * f.c, f.a, f.c))
    out = []
    for fam in fams:
        for k in fam.shifts():
            b, d = fam.b0 + k * fam.a, fam.d0 + k * fam.c
            if flt.passes(fam.a, b, fam.c, d):
                out.append((fam.a, b, fam.c, d))
    return out


def _a_chunks(Tint: int, workers: int) -> list:
    amax = math.isqrt(max(Tint - 1, 0))
    n_chunks = max(1, min(4 * workers, 2 * amax + 1))
    edges = np.linspace(-amax, amax + 1, n_chunks + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1] - 1)) for i in range(n_chunks) if edges[i] <= edges[i + 1] - 1]


def count(T: float, subgroup: SubgroupFilter = SubgroupFilter.full(), workers: int = 1) -> int:
    """Number of budget-T elements passing the filter."""
    Tint = _budget_int(T)
    if Tint < 2:
        return 0
    chunks = [(Tint, str(subgroup), lo, hi) for lo, hi in _a_chunks(Tint, workers)]
    if workers <= 1 or len(chunks) <= 1:
        return sum(_count_chunk(ch) for ch in chunks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_chunk, chunks))


def enumerate_ball(
    T: float,
    subgroup: SubgroupFilter = SubgroupFilter.full(),
    workers: int = 1,
) -> Iterator[LatticeElement]:
    """Yield each budget-T element passing the filter exactly once.

    Iteration order is families sorted by (a^2 + c^2, a, c), then the Bezout
    shift k ascending, independent of the worker count.
    """
    Tint = _budget_int(T)
    if Tint < 2:
        return
    if workers <= 1:
        for fam in family_iter(Tint):
            for k in fam.shifts():
                b, d = fam.b0 + k * fam.a, fam.d0 + k * fam.c
                if subgroup.passes(fam.a, b, fam.c, d):
                    yield LatticeElement(fam.a, b, fam.c, d)
        return
    # Parallel expansion: chunks are disjoint a-ranges, so a family lives in
    # exactly one chunk and a stable merge on the family key reproduces the
    # serial stream (chunk-internal k order is already ascending).
    import heapq

    chunks = [(Tint, str(subgroup), lo, hi) for lo, hi in _a_chunks(Tint, workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_expand_chunk, chunks))
    merged = heapq.merge(*results, key=lambda t: (t[0] * t[0] + t[2] * t[2], t[0], t[2]))
    for a, b, c, d in merged:
        yield LatticeElement(a, b, c, d)


def elements_array(T: float, subgroup: SubgroupFilter = SubgroupFilter.full()) -> np.ndarray:
    """All budget-T elements as an (n, 4) int64 array of rows (a, b, c, d).

    Rows follow the ``enumerate_ball`` order.
    """
    fams = np.array(
        [(f.a, f.c, f.b0, f.d0, f.k_lo, len(f)) for f in family_iter(T)], dtype=np.int64
    ).reshape(-1, 6)
    sizes = fams[:, 5]
    a, c, b0, d0, k_lo = np.repeat(fams[:, :5], sizes, axis=0).T
    k = k_lo + np.arange(a.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    arr = np.stack([a, b0 + k * a, c, d0 + k * c], axis=1)
    return arr[subgroup.mask(arr)]


# ---------------------------------------------------------------------------
# Binary dump cache: little-endian int64 quadruples plus a JSON sidecar.
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


def cache_path(T: float, subgroup: SubgroupFilter = SubgroupFilter.full()) -> Optional[str]:
    """Location of the cached dump under $ORBITLAB_CACHE, or None if unset."""
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    slug = str(subgroup).replace(":", "_")
    return os.path.join(root, f"ball_T{_budget_int(T)}_{slug}.i64")


def load_cached(T: float, subgroup: SubgroupFilter = SubgroupFilter.full()) -> Optional[np.ndarray]:
    """Cached ball from $ORBITLAB_CACHE if a matching dump exists, else None."""
    path = cache_path(T, subgroup)
    if path is None or not os.path.exists(path) or not os.path.exists(path + ".json"):
        return None
    arr, sidecar = load_elements(path)
    if sidecar["T"] != float(_budget_int(T)) and sidecar["T"] != float(T):
        return None
    if sidecar["filter"] != str(subgroup):
        return None
    return arr


def _version() -> str:
    from . import __version__

    return __version__
