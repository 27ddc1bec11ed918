import json
import math

import numpy as np
import pytest

from orbitlab.enumeration import (
    SubgroupFilter,
    cache_path,
    load_cached,
    count,
    dump_elements,
    elements_array,
    enumerate_ball,
    family_iter,
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


def test_family_examples():
    fams = list(family_iter(2))
    assert [(f.a, f.c) for f in fams] == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    unit = next(f for f in fams if (f.a, f.c) == (1, 0))
    assert (unit.b0, unit.d0) == (0, 1)
    assert (unit.k_lo, unit.k_hi) == (0, 0)
    # (2, 1) at budget 7: the shift quadratic (b0+2k)^2 + (d0+k)^2 <= 2 has solutions
    fam = next(f for f in family_iter(7) if (f.a, f.c) == (2, 1))
    assert len(fam) >= 1
    for k in fam.shifts():
        g = fam.element(k)
        assert g.norm <= 7


def test_families_disjoint_and_exhaustive():
    seen = set()
    for fam in family_iter(200):
        for k in fam.shifts():
            e = fam.element(k).entries()
            assert e not in seen
            seen.add(e)
    assert len(seen) == count(200)


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


def test_cache_path_env(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITLAB_CACHE", raising=False)
    assert cache_path(100) is None
    monkeypatch.setenv("ORBITLAB_CACHE", str(tmp_path))
    p = cache_path(100, SubgroupFilter.gamma0(3))
    assert p is not None and p.startswith(str(tmp_path)) and "gamma0_3" in p


def test_load_cached_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("ORBITLAB_CACHE", str(tmp_path))
    assert load_cached(60) is None
    dump_elements(cache_path(60), 60)
    arr = load_cached(60)
    assert arr is not None and np.array_equal(arr, elements_array(60))
    assert load_cached(60, SubgroupFilter.gamma0(2)) is None  # different filter
