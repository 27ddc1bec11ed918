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
from orbitlab.matrices import LatticeElement


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
        g = LatticeElement(*e)
        assert g.inverse().entries() in got
        assert (-g).entries() in got


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
        assert [g.entries() for g in enumerate_ball(2000, workers=w)] == base
        assert count(2000, workers=w) == len(base)


def test_budget_overflow():
    with pytest.raises(BudgetOverflow):
        count(1e19)
    with pytest.raises(BudgetOverflow):
        list(enumerate_ball(float("inf")))


def test_filter_parsing_and_validation():
    assert str(SubgroupFilter.parse("gamma0:7")) == "gamma0:7"
    assert SubgroupFilter.parse("full") == SubgroupFilter.full()
    with pytest.raises(ValueError):
        SubgroupFilter.parse("gamma1:3")
    with pytest.raises(ValueError):
        SubgroupFilter("gamma0", 0)


def test_filter_mask_agrees_with_passes():
    arr = elements_array(2000)
    filters = [SubgroupFilter.full()] + [
        SubgroupFilter(kind, n) for kind in ("gamma0", "gamma") for n in range(1, 7)
    ]
    for flt in filters:
        expected = [flt.passes(*row) for row in arr.tolist()]
        assert flt.mask(arr).tolist() == expected, flt
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
