"""Exact result checks for the benchmark, independent of the code under test.

Every check recomputes what it needs from the reported witness with exact
rational arithmetic (float inputs are dyadic rationals, so ``Fraction`` holds
them exactly) or with a brute-force scan of a materialized ball.  A check
returns the reasons a result is wrong (an empty list when it is right); it
never raises on a wrong result, so one defect cannot hide the rest.

Two wrong results are documented defects of the program (ROADMAP, open item
1), which the benchmark measures and does not fix.  ``known_defect`` tells a
failure that matches one of them exactly from any other failure: both count
in ``failed_frac``, but only the others make a run incorrect.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# A reported distance further than this from the exact distance of its own
# witness is a wrong witness (a transposed matrix is off by about 100 %);
# smaller deviations are rounding, reported as a relative error instead.
WITNESS_TOL = 1e-2
# So is a larger deviation that float evaluation of |g*u - v| can produce:
# one below ROUNDING_ULPS * eps * (|a u1| + |b u2| + |c u1| + |d u2| + |v1| +
# |v2|).  Deep budgets lose digits to cancellation there (the deviations seen
# reach a quarter of that sum times eps), and the distance of a pair that
# happens to come very close to v can then be off by more than WITNESS_TOL.
ROUNDING_ULPS = 4.0
# A row whose relative error exceeds this counts as inexact.
INEXACT_TOL = 1e-12
# Exact distances closer than this (relative) to the exact minimum are
# accepted as minimal: float search cannot separate them.
MINIMAL_TOL = 1e-12


def exact_dist2(g, u, v) -> Fraction:
    """|g*u - v|^2 with no rounding, for integer entries g = (a, b, c, d)."""
    a, b, c, d = (int(x) for x in g)
    u1, u2, v1, v2 = (Fraction(float(x)) for x in (u[0], u[1], v[0], v[1]))
    e1 = a * u1 + b * u2 - v1
    e2 = c * u1 + d * u2 - v2
    return e1 * e1 + e2 * e2


def rel_err(dist: float, d2: Fraction) -> float:
    """Relative error of a reported distance against the exact squared distance."""
    exact = math.sqrt(float(d2))
    if exact == 0.0:
        return abs(float(dist))
    return abs(float(dist) - exact) / exact


def filter_mask(kind: str, level: int, arr: np.ndarray) -> np.ndarray:
    """Congruence-subgroup membership of rows (a, b, c, d), written out
    independently of the program."""
    a, b, c, d = (arr[:, i] for i in range(4))
    if kind == "full":
        return np.ones(arr.shape[0], dtype=bool)
    if kind == "gamma0":
        return c % level == 0
    one = 1 % level
    return (a % level == one) & (d % level == one) & (b % level == 0) & (c % level == 0)


def check_witness(T: float, dist: float, norm: int, g, u, v, kind="full", level=1):
    """Checks one reported (budget, distance, norm, witness) row.

    Returns (reasons, relative error, exact squared distance).  Reasons are
    "det", "norm", "budget", "filter" and "witness" (distance off by more
    than WITNESS_TOL relative and by more than rounding_bound).
    """
    a, b, c, d = (int(x) for x in g)
    reasons = []
    if a * d - b * c != 1:
        reasons.append("det")
    true_norm = a * a + b * b + c * c + d * d
    if int(norm) != true_norm:
        reasons.append("norm")
    if true_norm > math.floor(T):
        reasons.append("budget")
    if not filter_mask(kind, level, np.array([[a, b, c, d]], dtype=np.int64))[0]:
        reasons.append("filter")
    d2 = exact_dist2((a, b, c, d), u, v)
    err = rel_err(dist, d2)
    if err > WITNESS_TOL and abs(float(dist) - math.sqrt(float(d2))) > rounding_bound((a, b, c, d), u, v):
        reasons.append("witness")
    return reasons, err, d2


def rounding_bound(g, u, v) -> float:
    """Largest deviation of a float-evaluated |g*u - v| that is still rounding."""
    a, b, c, d = (abs(int(x)) for x in g)
    u1, u2, v1, v2 = (abs(float(x)) for x in (u[0], u[1], v[0], v[1]))
    return ROUNDING_ULPS * 2.0**-52 * ((a + c) * u1 + (b + d) * u2 + v1 + v2)


def check_best(T: float, dist: float, norm: int, g, u, v, ball: np.ndarray, kind="full", level=1):
    """Checks a closest-point result against a brute-force scan of ``ball``.

    ``ball`` must hold every determinant-one matrix of norm <= T.  Beyond the
    row checks, the witness must have the exact minimal distance over the
    filtered ball ("not_minimal") and, among the matrices at exactly that
    distance, the least (norm, a, c, b, d) key ("tie_order").
    Returns (reasons, relative error).
    """
    reasons, err, d2 = check_witness(T, dist, norm, g, u, v, kind, level)
    norms = (ball * ball).sum(axis=1)
    rows = ball[(norms <= math.floor(T)) & filter_mask(kind, level, ball)]
    e1 = rows[:, 0] * float(u[0]) + rows[:, 1] * float(u[1]) - float(v[0])
    e2 = rows[:, 2] * float(u[0]) + rows[:, 3] * float(u[1]) - float(v[1])
    fd = np.sqrt(e1 * e1 + e2 * e2)
    # float distances are within ~1e-12 of exact at these budgets; the margin
    # keeps every exact minimizer and exact tie among the candidates
    near = rows[fd <= fd.min() + 1e-9]
    exact = [(exact_dist2(r, u, v), int((r * r).sum()), int(r[0]), int(r[2]), int(r[1]), int(r[3])) for r in near]
    best_d2 = min(e[0] for e in exact)
    if d2 > best_d2 * (1 + MINIMAL_TOL):
        reasons.append("not_minimal")
    else:
        ties = [e[1:] for e in exact if e[0] == d2]
        a, b, c, d = (int(x) for x in g)
        if ties and min(ties) != (a * a + b * b + c * c + d * d, a, c, b, d):
            reasons.append("tie_order")
    return reasons, err


def known_defect(reasons, dist: float, g, u, v, kind="full"):
    """The documented defect a failed result shows exactly, or None.

    "transposed" (Bug A): the only fault is the witness, and the reported
    distance is that of its transpose.  "horizontal_tie" (Bug B): the only
    fault is the tie order, for a horizontal seed (u2 = 0) under a congruence
    filter; the witness is at the minimal distance.
    """
    if reasons == ["witness"]:
        a, b, c, d = (int(x) for x in g)
        if rel_err(dist, exact_dist2((a, c, b, d), u, v)) <= WITNESS_TOL:
            return "transposed"
    if reasons == ["tie_order"] and float(u[1]) == 0.0 and kind != "full":
        return "horizontal_tie"
    return None


def ball_defects(ball: np.ndarray, T: float) -> list:
    """Reasons a materialized ball is not a set of distinct budget-T matrices."""
    reasons = []
    a, b, c, d = (ball[:, i] for i in range(4))
    if np.any(a * d - b * c != 1):
        reasons.append("det")
    if np.any((ball * ball).sum(axis=1) > math.floor(T)):
        reasons.append("budget")
    if np.unique(ball, axis=0).shape[0] != ball.shape[0]:
        reasons.append("duplicate")
    return reasons
