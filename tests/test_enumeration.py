import hashlib
import json
import math

import numpy as np
import pytest

from orbitlab import enumeration
from orbitlab.enumeration import (
    SubgroupFilter,
    count,
    dump_elements,
    elements_array,
    enumerate_ball,
    load_elements,
)
from orbitlab.errors import BudgetOverflow
from conftest import passes


def test_tiny_budgets():
    assert list(enumerate_ball(1)) == []
    got = {g.entries() for g in enumerate_ball(2)}
    assert got == {(1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, -1, 0), (0, -1, 1, 0)}
    assert count(2) == 4
    assert count(3) == 20


def test_matches_brute_force_up_to_50(brute_ball_50):
    for T in (5, 17, 33, 50):
        got = {g.entries() for g in enumerate_ball(T)}
        want = {t for t in brute_ball_50 if sum(x * x for x in t) <= T}
        assert got == want
        assert count(T) == len(want)


# Counts and sha256 prefixes of elements_array(T, f) as little-endian int64,
# recorded from the column-family enumeration this one replaced.
PINNED_BALLS = [
    (25000, "full", 150276, "bf9ad9b4ca66206a"),
    (25000, "gamma0:3", 37594, "2c637b3f38aa861c"),
    (25000, "gamma:2", 24906, "4dc8a2d3aa9cb990"),
    (25000, "gamma:4", 3065, "ee361d0845a9a4c4"),
    (33333.5, "full", 199812, "8c098fa9a514c3b9"),
    (33333.5, "gamma0:3", 49954, "3a5cf7a415fe7d98"),
    (33333.5, "gamma:2", 33418, "8be6a05346a4e192"),
    (33333.5, "gamma:4", 4225, "bfa64c88ad4b8a6c"),
]


@pytest.mark.parametrize("T, text, n, digest", PINNED_BALLS)
def test_balls_pinned_across_window_seams(T, text, n, digest):
    assert T > 2 + 2 * enumeration._WINDOW_NORMS  # crosses at least two window seams
    flt = SubgroupFilter.parse(text)
    arr = elements_array(T, flt)
    raw = np.ascontiguousarray(arr, dtype="<i8").tobytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == digest
    assert count(T, flt) == len(arr) == n
    a, b, c, d = arr.T
    assert len({tuple(r) for r in arr.tolist()}) == n
    assert (a * d - b * c == 1).all()
    assert ((arr * arr).sum(axis=1) <= T).all()
    assert flt.mask(arr).all()


def test_single_norm_window_without_elements():
    # the last window of budget 8194 is the norm 8194 alone, and no element
    # has that norm: p^2 + q^2 = 8196 = 4 * 3 * 683 has no solution
    assert 8194 == 2 + enumeration._WINDOW_NORMS
    assert count(8194) == count(8193) == len(elements_array(8194))


def test_count_at_1e5():
    assert count(10**5) == 600196


def test_count_at_1e7():
    # the number of rows _windows builds, which count summed before it read histograms
    assert count(10**7) == 60010740


def _index(flt: SubgroupFilter) -> int:
    """[SL2(Z) : the filter's group]: N * prod(1 + 1/p) for gamma0:N and
    N^3 * prod(1 - 1/p^2) for gamma:N, over the primes p dividing N."""
    n = flt.level
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    if flt.kind == "gamma0":
        return math.prod(p + 1 for p in primes) * n // math.prod(primes)
    return math.prod(p * p - 1 for p in primes) * n**3 // math.prod(p * p for p in primes)


# count(10^6, filter), each equal to the number of filtered rows of _windows
COUNTS_1E6 = {
    "full": 6000052,
    "gamma0:2": 1999754,
    "gamma0:3": 1499870,
    "gamma0:11": 500006,
    "gamma0:97": 61234,
    "gamma:2": 999482,
    "gamma:3": 249529,
    "gamma:4": 125133,
}


@pytest.mark.parametrize("text", COUNTS_1E6)
def test_counts_at_1e6_follow_the_index(text):
    # the main term 6(T - 2)/index of a subgroup of finite index: the
    # largest deviation here is 1.9e-3 (gamma:3), and a wrong filter is off
    # by a factor of at least 2
    flt, T, n = SubgroupFilter.parse(text), 10**6, COUNTS_1E6[text]
    assert count(T, flt) == n
    assert abs(n * _index(flt) / (6 * (T - 2)) - 1) <= 0.01


CROSS_FILTERS = [SubgroupFilter.full()] + [
    SubgroupFilter(kind, n) for kind in ("gamma0", "gamma") for n in (1, 2, 3, 4, 5, 6, 7, 12, 97)
] + [SubgroupFilter.gamma0(1000), SubgroupFilter.gamma0(10**18)]


@pytest.mark.parametrize("flt", CROSS_FILTERS, ids=str)
def test_count_matches_rows_across_window_seams(flt, monkeypatch):
    # windows of 7 norms put many seams under small budgets; count builds no
    # row under any filter
    monkeypatch.setattr(enumeration, "_WINDOW_NORMS", 7)
    walks = []
    real = enumeration._windows
    monkeypatch.setattr(enumeration, "_windows", lambda Tint: walks.append(Tint) or real(Tint))
    for T in (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 16, 23, 50, 99, 150, 209, 299.5, 300):
        walks.clear()
        n = count(T, flt)
        assert walks == [], (T, flt)
        assert n == len(elements_array(T, flt)), (T, flt)


@pytest.mark.parametrize("flt", CROSS_FILTERS, ids=str)
def test_rows_in_lexsort_order(flt):
    # the order key gives the order of one lexsort on (a^2 + c^2, a, c, a*b + c*d)
    for T in (0, 2, 3, 50, 1000.5, 3000):
        arr = elements_array(T, flt)
        a, b, c, d = arr.T
        assert np.array_equal(arr, arr[np.lexsort((a * b + c * d, c, a, a * a + c * c))]), (T, flt)


def test_order_key_at_its_bound():
    # the largest key of a budget-T ball, all digits at their top, fits int64
    # exactly up to MAX_ROW_BUDGET
    def top(T):
        R = math.isqrt(T)
        return ((T * (2 * R + 1) + 2 * R) * 2 + 1) * (2 * R + 2) + 2 * R + 1

    T = enumeration.MAX_ROW_BUDGET
    assert top(T) < 2**63 <= top(T + 1)
    # a row with a^2 + c^2 near T, a = isqrt(T) and c > 0, keyed in int64 and in Python ints
    R = math.isqrt(T)
    c = math.isqrt(T - R * R)
    row = (R, -(R - 1), c, -R)
    want = enumeration._order_key(np.array([row], dtype=object), T)[0]
    got = enumeration._order_key(np.array([row], dtype=np.int64), T)
    assert got.dtype == np.int64 and int(got[0]) == want and 0 <= want < 2**63


def test_rows_refused_above_the_order_bound(tmp_path):
    T = enumeration.MAX_ROW_BUDGET + 1
    path = tmp_path / "ball.i64"
    for call in (lambda: elements_array(T), lambda: list(enumerate_ball(T)), lambda: dump_elements(str(path), T)):
        with pytest.raises(BudgetOverflow, match="can be ordered"):
            call()
    assert not path.exists() and not (tmp_path / "ball.i64.json").exists()


def test_isqrt_exact_below_2_52():
    k = np.concatenate([np.arange(0, 2000), np.arange(2**26 - 2000, 2**26)])
    v = np.concatenate([k * k + off for off in (-2, -1, 0, 1, 2)])
    v = v[(v >= 0) & (v < 2**52)]
    assert enumeration._isqrt(v).tolist() == [math.isqrt(x) for x in v.tolist()]


def test_families_disjoint_and_exhaustive(monkeypatch):
    # norm windows: each window holds exactly the elements of its norms, once
    monkeypatch.setattr(enumeration, "_WINDOW_NORMS", 7)
    seen = set()
    for k, rows in enumerate(enumeration._windows(200)):
        n0 = 2 + 7 * k
        norms = (rows * rows).sum(axis=1)
        assert ((n0 <= norms) & (norms < min(n0 + 7, 201))).all()
        for e in map(tuple, rows.tolist()):
            assert e not in seen
            seen.add(e)
    assert k == (200 - 2) // 7
    monkeypatch.undo()
    arr = elements_array(200)
    assert seen == {tuple(r) for r in arr.tolist()}
    assert len(seen) == count(200)
    # column families: the rows of one first column (a, c) are
    # (a, b0 + k*a, c, d0 + k*c) for consecutive shifts k, and follow each other
    a, b, c, d = arr.T
    starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (c[1:] != c[:-1])])
    assert len({(a[i], c[i]) for i in starts}) == len(starts)
    for i, j in zip(starts, np.r_[starts[1:], len(arr)]):
        assert (np.diff(b[i:j]) == a[i]).all() and (np.diff(d[i:j]) == c[i]).all()


def test_closure_under_inverse_and_negation():
    got = {g.entries() for g in enumerate_ball(500)}
    for e in got:
        a, b, c, d = e
        assert (d, -b, -c, a) in got  # the inverse
        assert (-a, -b, -c, -d) in got


def test_no_duplicates_at_1e4(ball_1e4):
    rows = {tuple(r) for r in ball_1e4.tolist()}
    assert len(rows) == ball_1e4.shape[0]


def test_gamma0_filter_matches_elementwise():
    for n in (2, 3, 5):
        full = [g for g in enumerate_ball(100)]
        manual = [g.entries() for g in full if g.c % n == 0]
        filtered = [g.entries() for g in enumerate_ball(100, SubgroupFilter.gamma0(n))]
        assert filtered == manual
        assert count(100, SubgroupFilter.gamma0(n)) == len(manual)


def test_gamma_filter_matches_elementwise():
    for n in (2, 3):
        flt = SubgroupFilter.gamma(n)
        manual = [
            g.entries()
            for g in enumerate_ball(400)
            if g.a % n == 1 % n and g.d % n == 1 % n and g.b % n == 0 and g.c % n == 0
        ]
        filtered = [g.entries() for g in enumerate_ball(400, flt)]
        assert filtered == manual
        assert count(400, flt) == len(manual)


def test_worker_determinism():
    base = [g.entries() for g in enumerate_ball(2000)]
    for w in (2, 8):
        assert count(2000, workers=w) == len(base)


def test_budget_overflow():
    with pytest.raises(BudgetOverflow):
        count(1e19)
    with pytest.raises(BudgetOverflow):
        list(enumerate_ball(float("inf")))
    # a NaN budget is a value error (BudgetOverflow before)
    for call in (count, elements_array):
        with pytest.raises(ValueError, match="NaN"):
            call(float("nan"))


def test_filter_parsing_and_validation():
    assert str(SubgroupFilter.parse("gamma0:7")) == "gamma0:7"
    assert SubgroupFilter.parse("full") == SubgroupFilter.full()
    with pytest.raises(ValueError):
        SubgroupFilter.parse("gamma1:3")
    with pytest.raises(ValueError):
        SubgroupFilter("gamma0", 0)
    with pytest.raises(ValueError, match="unknown filter kind"):
        SubgroupFilter("gamma1", 3)
    with pytest.raises(ValueError, match="takes no level"):
        SubgroupFilter("full", 3)
    # levels are integers: numpy integers are stored as int, bools and floats refused
    flt = SubgroupFilter("gamma", np.int64(3))
    assert type(flt.level) is int and flt == SubgroupFilter.gamma(3) and str(flt) == "gamma:3"
    for kind in ("gamma0", "gamma"):
        for level in (2.5, 3.0, np.float64(2.0), True, False, "3"):
            with pytest.raises((TypeError, ValueError)):
                SubgroupFilter(kind, level)
    with pytest.raises(TypeError, match="not a bool"):
        SubgroupFilter("full", True)


def test_filter_mask_agrees_with_passes():
    arr = elements_array(2000)
    filters = [SubgroupFilter.full()] + [
        SubgroupFilter(kind, n) for kind in ("gamma0", "gamma") for n in (*range(1, 7), 2**62, 2**63, 10**20)
    ]
    for flt in filters:
        expected = [passes(flt, *row) for row in arr.tolist()]
        assert flt.mask(arr).tolist() == expected, flt
    # a level of 2^63 or more, which count answers: an OverflowError before
    big = SubgroupFilter.gamma0(10**20)
    assert len(elements_array(100, big)) == count(100, big) == 38
    # filtered arrays keep the enumerate_ball order
    flt = SubgroupFilter.gamma0(3)
    rows = [g.entries() for g in enumerate_ball(2000, flt)]
    assert elements_array(2000, flt).tolist() == [list(r) for r in rows]


def test_dump_load_roundtrip(tmp_path):
    path = str(tmp_path / "ball.i64")
    n = dump_elements(path, 50, SubgroupFilter.gamma0(2))
    arr, sidecar = load_elements(path)
    assert arr.shape == (n, 4)
    assert sidecar["T"] == 50.0
    assert sidecar["filter"] == "gamma0:2"
    assert sidecar["count"] == n
    direct = elements_array(50, SubgroupFilter.gamma0(2))
    assert np.array_equal(arr, direct)
    # sidecar count mismatch is detected
    with open(path + ".json") as fh:
        doc = json.load(fh)
    doc["count"] = n + 1
    with open(path + ".json", "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError):
        load_elements(path)
    # and so is a sidecar of another format
    doc["format"] = "orbitlab-ball-v0"
    with open(path + ".json", "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="unrecognized dump format"):
        load_elements(path)
