"""2x2 matrix algebra: exact integer group elements, coordinate charts, norms.

Conventions used throughout the package:

* the matrix norm is the *trace* norm ``tr(g^t g)``, i.e. the sum of squared
  entries with no square root.  All norm budgets and exponent computations use
  this convention.
* ``upper_shear(x) = [[1, x], [0, 1]]``, ``lower_shear(x) = [[1, 0], [x, 1]]``,
  ``diag_squeeze(y) = [[sqrt(y), 0], [0, 1/sqrt(y)]]`` (y > 0) and
  ``rotation(theta) = [[cos, sin], [-sin, cos]]``.
* determinant-one real matrices act on the upper half plane by fractional
  linear transformations; ``rotation`` fixes ``i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoordinate

__all__ = [
    "LatticeElement",
    "UDLCoords",
    "IwasawaCoords",
    "hs_norm",
    "upper_shear",
    "lower_shear",
    "diag_squeeze",
    "rotation",
    "act_upper_half",
    "udl_decompose",
    "iwasawa_decompose",
]


@dataclass(frozen=True, order=True)
class LatticeElement:
    """Exact integer matrix [[a, b], [c, d]] with determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {(self.a, self.b, self.c, self.d)}")

    @property
    def norm(self) -> int:
        """Trace norm: sum of squared entries (an exact integer, always >= 2)."""
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


def hs_norm(g) -> float:
    """Sum of squared entries (trace of g^t g); *no* square root is taken."""
    if isinstance(g, LatticeElement):
        return g.norm
    arr = np.asarray(g, dtype=float)
    return float(np.sum(arr * arr))


def upper_shear(x: float) -> np.ndarray:
    return np.array([[1.0, float(x)], [0.0, 1.0]])


def lower_shear(x: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [float(x), 1.0]])


def diag_squeeze(y: float) -> np.ndarray:
    if y <= 0:
        raise ValueError("diagonal parameter must be positive")
    r = math.sqrt(y)
    return np.array([[r, 0.0], [0.0, 1.0 / r]])


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def act_upper_half(g, z: complex) -> complex:
    """Fractional linear action of g on a point of the upper half plane."""
    g = np.asarray(g, dtype=float)
    return (g[0, 0] * z + g[0, 1]) / (g[1, 0] * z + g[1, 1])


@dataclass(frozen=True)
class UDLCoords:
    """Coordinates of g = sign * upper_shear(x) @ diag_squeeze(y) @ lower_shear(xp).

    The chart covers matrices with nonzero lower-right entry; ``sign`` records
    whether -g was decomposed (the two differ by a central element, which acts
    trivially on the quotient).
    """

    x: float
    y: float
    xp: float
    sign: int = 1

    def recompose(self) -> np.ndarray:
        r = math.sqrt(self.y)
        s = float(self.sign)
        return s * np.array(
            [
                [r + self.x * self.xp / r, self.x / r],
                [self.xp / r, 1.0 / r],
            ]
        )


def udl_decompose(g) -> UDLCoords:
    """Factor g as upper_shear(x) @ diag_squeeze(y) @ lower_shear(xp).

    Requires the lower-right entry d to be nonzero; the excluded set d = 0 has
    measure zero.  For d < 0 the negated matrix is decomposed and the sign is
    recorded.  Raises DegenerateCoordinate when |d| < 1e-12 * sqrt(hs_norm(g)).
    """
    g = np.asarray(g, dtype=float)
    d = g[1, 1]
    if abs(d) < 1e-12 * math.sqrt(hs_norm(g)):
        raise DegenerateCoordinate(f"lower-right entry too small: {d!r}")
    sign = 1 if d > 0 else -1
    a, b, c, dd = sign * g[0, 0], sign * g[0, 1], sign * g[1, 0], sign * g[1, 1]
    return UDLCoords(x=b / dd, y=1.0 / (dd * dd), xp=c / dd, sign=sign)


@dataclass(frozen=True)
class IwasawaCoords:
    """Coordinates of g = upper_shear(x) @ diag_squeeze(y) @ rotation(theta).

    ``x + i*y`` is the image of ``i`` under g; theta is normalized to [0, 2*pi).
    The invariant volume element is dx dy dtheta / y**2 in these coordinates.
    """

    x: float
    y: float
    theta: float

    def recompose(self) -> np.ndarray:
        r = math.sqrt(self.y)
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array(
            [
                [r * c - self.x * s / r, r * s + self.x * c / r],
                [-s / r, c / r],
            ]
        )


def _chart(g) -> tuple:
    """The one check of a point of the quotient: (x, y, n) for z = g*i = x + iy
    and n = g10^2 + g11^2, from the rows of g as Python floats.

    Refuses a matrix outside the determinant-one group (a non-finite entry,
    or |det - 1| > 1e-6) with ValueError, and one whose z is not a finite
    point of the upper half plane in floats (an entry so large or small
    that n leaves the floats) with DegenerateCoordinate.  The float det is
    off by at most about 2^-52*(|g00*g11| + |g01*g10|) + 2^-53, so where
    that sum exceeds 2^22 the test takes |det - 1| from the entries' exact
    ratios of integers, correctly rounded.
    """
    (g00, g01), (g10, g11) = g
    ad, bc = g00 * g11, g01 * g10
    det = ad - bc
    err = abs(det - 1.0)
    if 2.0**22 < abs(ad) + abs(bc) < math.inf:
        (a, p), (b, q), (c, r), (d, t) = (x.as_integer_ratio() for x in (g00, g01, g10, g11))
        err = abs(a * d * q * r - b * c * p * t - p * t * q * r) / (p * t * q * r)
    if not err <= 1e-6:  # NaN, as a non-finite entry makes it, fails too
        raise ValueError(f"matrix is not a finite determinant-one matrix: |det - 1| = {err!r}")
    n = g10 * g10 + g11 * g11
    x, y = ((g00 * g10 + g01 * g11) / n, det / n) if n else (math.inf, math.inf)
    if not (math.isfinite(x) and 0.0 < y < math.inf):
        raise DegenerateCoordinate("matrix does not map i to a finite point of the upper half plane")
    return x, y, n


def iwasawa_decompose(g) -> IwasawaCoords:
    """Global shear / squeeze / rotation factorization of a determinant-one matrix.

    x + iy is g*i as the one check of a quotient point (_chart) computes it,
    which refuses a matrix outside the group or with z outside the floats.
    """
    g = np.asarray(g, dtype=float).tolist()
    x, y, _ = _chart(g)
    theta = math.atan2(-g[1][0], g[1][1]) % (2.0 * math.pi)
    return IwasawaCoords(x=x, y=y, theta=theta)

