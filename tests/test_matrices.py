import math

import numpy as np
import pytest

from orbitlab.errors import DegenerateCoordinate
from orbitlab.matrices import (
    LatticeElement,
    diag_squeeze,
    hs_norm,
    iwasawa_decompose,
    lower_shear,
    rotation,
    udl_decompose,
    upper_shear,
)


def random_group_elements(n, seed):
    """Determinant-one real matrices from random chart coordinates."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, n)
    y = np.exp(rng.uniform(-3, 3, n))
    th = rng.uniform(0, 2 * math.pi, n)
    out = np.empty((n, 2, 2))
    r = np.sqrt(y)
    c, s = np.cos(th), np.sin(th)
    out[:, 0, 0] = r * c - x * s / r
    out[:, 0, 1] = r * s + x * c / r
    out[:, 1, 0] = -s / r
    out[:, 1, 1] = c / r
    return out


def test_lattice_element_validates_determinant():
    with pytest.raises(ValueError):
        LatticeElement(1, 0, 0, 2)


def test_hs_norm_examples():
    assert hs_norm(LatticeElement(1, 0, 0, 1)) == 2
    assert hs_norm(LatticeElement(1, 1, 0, 1)) == 3
    assert hs_norm(LatticeElement(2, 1, 1, 1)) == 7
    assert hs_norm(np.array([[2.0, 1.0], [1.0, 1.0]])) == 7.0


def test_udl_identity_and_shears():
    c = udl_decompose(np.eye(2))
    assert (c.x, c.y, c.xp, c.sign) == (0.0, 1.0, 0.0, 1)
    c = udl_decompose(upper_shear(2.5))
    assert (c.x, c.y, c.xp) == (2.5, 1.0, 0.0)
    # lower shear: oracle is recomposition of the claimed coordinates
    c = udl_decompose(lower_shear(1.0))
    assert (c.x, c.y, c.xp) == (0.0, 1.0, 1.0)
    np.testing.assert_allclose(c.recompose(), lower_shear(1.0), atol=1e-15)


def test_udl_negative_chart_sign():
    g = -upper_shear(0.7) @ diag_squeeze(2.3) @ lower_shear(-0.4)
    c = udl_decompose(g)
    assert c.sign == -1
    np.testing.assert_allclose(c.recompose(), g, rtol=1e-14, atol=1e-14)


def test_udl_degenerate_raises():
    with pytest.raises(DegenerateCoordinate):
        udl_decompose(rotation(math.pi / 2))  # lower-right entry exactly zero


def test_iwasawa_examples():
    c = iwasawa_decompose(np.eye(2))
    assert (c.x, c.y, c.theta) == (0.0, 1.0, 0.0)
    c = iwasawa_decompose(np.diag([2.0, 0.5]))
    assert (c.x, c.y, c.theta) == (0.0, 4.0, 0.0)
    c = iwasawa_decompose(rotation(math.pi / 2))
    assert c.x == pytest.approx(0.0, abs=1e-15)
    assert c.y == pytest.approx(1.0)
    assert c.theta == pytest.approx(math.pi / 2)


def test_iwasawa_rejects_non_unimodular():
    with pytest.raises(ValueError):
        iwasawa_decompose(np.diag([2.0, 1.0]))
    # NaN or inf coordinates, before: abs(nan - 1) > 1e-6 is False
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite determinant-one"):
            iwasawa_decompose(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateCoordinate):
        iwasawa_decompose(np.diag([1e200, 1e-200]))


def exact_det_error(g) -> float:
    """|det - 1| of the float entries of g, exactly (as a ratio of integers)."""
    (n00, d00), (n01, d01), (n10, d10), (n11, d11) = (float(x).as_integer_ratio() for x in np.ravel(g))
    num = n00 * n11 * d01 * d10 - n01 * n10 * d00 * d11 - d00 * d11 * d01 * d10
    return abs(num) / (d00 * d11 * d01 * d10)


def test_iwasawa_decides_large_entries_on_the_exact_determinant():
    # the float det of lower_shear(x) @ upper_shear(y) rounds x*y + 1, so it
    # can read 1 where the entries' det is off by far more than 1e-6; the
    # check refuses such a matrix with the entries' own figure
    g = lower_shear(1e6 + 0.3) @ upper_shear(0.7e6 + 0.6)
    assert abs(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] - 1.0) <= 1e-6 < exact_det_error(g)
    with pytest.raises(ValueError, match=r"\|det - 1\| = 4\.4\d*e-05"):
        iwasawa_decompose(g)
    refused = set()
    for x in np.geomspace(1e4, 1e8, 400):
        g = lower_shear(x) @ upper_shear(0.7 * x + 0.3)
        try:
            iwasawa_decompose(g)
        except ValueError:
            refused.add(True)
            assert exact_det_error(g) > 1e-6
        else:
            refused.add(False)
            assert exact_det_error(g) <= 1e-6
    assert refused == {True, False}


@pytest.mark.parametrize("y", [0.0, -1.0])
def test_diag_squeeze_rejects_nonpositive(y):
    with pytest.raises(ValueError, match="positive"):
        diag_squeeze(y)


def test_roundtrips_random_elements():
    mats = random_group_elements(20_000, seed=3)
    for g in mats:
        iw = iwasawa_decompose(g)
        assert 0.0 <= iw.theta < 2 * math.pi
        err = np.abs(iw.recompose() - g).max() / np.abs(g).max()
        assert err <= 1e-12
        if abs(g[1, 1]) >= 0.01:
            ud = udl_decompose(g)
            err = np.abs(ud.recompose() - g).max() / np.abs(g).max()
            assert err <= 1e-12


def test_haar_weight_consistency_in_chart_box():
    # Box in (x, y, xp) coordinates: Monte Carlo with weight 1/y^2 against quadrature.
    from scipy.integrate import quad

    x0, x1, y0, y1, p0, p1 = -0.4, 0.7, 0.6, 2.0, -0.3, 0.5
    exact = (x1 - x0) * (p1 - p0) * quad(lambda y: 1.0 / (y * y), y0, y1)[0]
    rng = np.random.default_rng(17)
    n = 200_000
    ys = rng.uniform(y0, y1, n)
    w = 1.0 / (ys * ys)
    vol = (x1 - x0) * (y1 - y0) * (p1 - p0)
    est = w.mean() * vol
    se = w.std() / math.sqrt(n) * vol
    assert abs(est - exact) <= 3 * se
