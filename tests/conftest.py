import importlib
import math
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import orbitlab
from orbitlab import ergodic, homogeneous
from orbitlab.enumeration import elements_array

# Tier-1 must repeat exactly: property tests draw their examples from a fixed
# seed and neither read nor write an example database.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# Hypothesis also draws some examples from the literals of the local modules
# loaded at the time (test files excepted), so a property test would draw
# different examples when fewer test files, and so fewer orbitlab modules, are
# collected.  Loading every orbitlab module first makes the draws the same in
# every selection.
for _module in pkgutil.walk_packages(orbitlab.__path__, "orbitlab."):
    importlib.import_module(_module.name)


@pytest.fixture
def search_spy(monkeypatch):
    """Counts the lattice points homogeneous._lattice_points yields (.points),
    the calls of _box_candidates_batch (.calls) and the windows they receive
    (.windows) on the quotient side, from the experiments and from test
    oracles alike; a test resets them."""
    spy = SimpleNamespace(points=0, windows=0, calls=0)
    search, batch = homogeneous._lattice_points, homogeneous._box_candidates_batch

    def lattice_points(gs, windows):
        for block in search(gs, windows):
            spy.points += block[1].size
            yield block

    def box_candidates_batch(reps, bounds):
        spy.calls += 1
        spy.windows += len(bounds)
        return batch(reps, bounds)

    monkeypatch.setattr(homogeneous, "_lattice_points", lattice_points)
    for module in (homogeneous, ergodic):
        monkeypatch.setattr(module, "_box_candidates_batch", box_candidates_batch)
    return spy


@pytest.fixture(scope="session")
def ball_1e4():
    """Materialized full ball at budget 10^4, shared across tests."""
    return elements_array(10_000)


@pytest.fixture(scope="session")
def brute_ball_50():
    """Brute-force ball at budget 50 over the entry cube, as a set of tuples."""
    m = math.isqrt(50)
    rng = range(-m, m + 1)
    out = set()
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 1 and a * a + b * b + c * c + d * d <= 50:
                        out.add((a, b, c, d))
    return out


def passes(flt, a: int, b: int, c: int, d: int) -> bool:
    """Oracle: whether the element [[a, b], [c, d]] passes the subgroup
    filter, one element at a time in Python integers, the reference of
    SubgroupFilter.mask."""
    if flt.kind == "full":
        return True
    n = flt.level
    if flt.kind == "gamma0":
        return c % n == 0
    return a % n == 1 % n and d % n == 1 % n and b % n == 0 and c % n == 0


def brute_min_dist(arr: np.ndarray, u, v, T) -> float:
    """Oracle: minimum |gamma*u - v| over the materialized ball rows with norm <= T."""
    norms = (arr * arr).sum(axis=1)
    mask = norms <= T
    a, b, c, d = (arr[mask, i].astype(float) for i in range(4))
    e1 = a * u[0] + b * u[1] - v[0]
    e2 = c * u[0] + d * u[1] - v[1]
    return float(np.sqrt((e1 * e1 + e2 * e2).min()))


def brute_best(arr: np.ndarray, u, v, T) -> tuple:
    """Oracle witness: the row (a, b, c, d) with norm <= T minimizing (dist, norm, a, c, b, d).

    The caller filters the rows; distances use the search's own float formula,
    so exact ties (a horizontal seed makes b and d irrelevant) stay exact.
    """
    norms = (arr * arr).sum(axis=1)
    keep = norms <= T
    rows, norms = arr[keep], norms[keep]
    e1 = rows[:, 0] * u[0] + rows[:, 1] * u[1] - v[0]
    e2 = rows[:, 2] * u[0] + rows[:, 3] * u[1] - v[1]
    i = np.lexsort((rows[:, 3], rows[:, 1], rows[:, 2], rows[:, 0], norms, e1 * e1 + e2 * e2))[0]
    return tuple(int(x) for x in rows[i])


def orbit_hits_brute(rep, K: int, box) -> list:
    """Oracle: the sorted (k, p1, tau, r) of every orbit time |k| <= K and
    integer gamma whose translate gamma*rep*lower_shear(k) lies in the target
    box (p1_lo, p1_hi, tau_lo, tau_hi) with shear coordinate r, |r| < 1/2.

    Shares nothing with the quotient search: every integer bottom row (c, d)
    of a bounding box is scanned with a numpy grid, each primitive row whose
    tau = c*g01 + d*g11 lies in the box (of each pair +-(c, d) the one with
    tau > 0) gets the top row a0 = d^-1 mod |c|, every top-row shift whose
    p1 = a*g01 + b*g11 can reach the box is tried, and each time k is tested
    on its own: the translate at time k has r = s + k, s = sigma/tau with
    sigma = c*g00 + d*g10.  The floats are those of the target test.
    """
    (g00, g01), (g10, g11) = np.asarray(rep, dtype=float).tolist()
    p1_lo, p1_hi, tau_lo, tau_hi = box
    # a hit has |sigma| <= (K + 1/2)*tau_hi, and (c, d) = (sigma, tau) @ g^-1
    # with g^-1 = [[g11, -g01], [-g10, g00]]; one more row covers rounding
    sig = (K + 0.5) * tau_hi
    c_max = math.ceil(sig * abs(g11) + tau_hi * abs(g10)) + 1
    d_max = math.ceil(sig * abs(g01) + tau_hi * abs(g00)) + 1
    c, d = (m.ravel() for m in np.meshgrid(np.arange(-c_max, c_max + 1), np.arange(-d_max, d_max + 1), indexing="ij"))
    tau = c * g01 + d * g11
    keep = (tau_lo <= tau) & (tau <= tau_hi) & (np.gcd(c, d) == 1)
    hits = []
    for cc, dd, t in zip(c[keep].tolist(), d[keep].tolist(), tau[keep].tolist()):
        s = (cc * g00 + dd * g10) / t
        a0 = pow(dd, -1, abs(cc)) if cc else dd  # a0*dd - b0*cc = 1
        b0 = (a0 * dd - 1) // cc if cc else 0
        w1 = a0 * g01 + b0 * g11
        for m in range(math.floor((p1_lo - w1) / t) - 2, math.ceil((p1_hi - w1) / t) + 3):
            p1 = (a0 + m * cc) * g01 + (b0 + m * dd) * g11
            if p1_lo <= p1 <= p1_hi:
                hits += [(k, p1, t, s + k) for k in range(-K, K + 1) if abs(s + k) < 0.5]
    return sorted(hits)
