"""Triangle quadrature: weight normalization, polynomial exactness, and
the one-dimensional rules against ``scipy.special`` and 40-digit values."""

from math import factorial

import numpy as np
import pytest

from numpy.polynomial.legendre import leggauss

from veclap.quadrature import _gauss_jacobi_10, triangle_rule


def monomial_integral(a: int, b: int) -> float:
    # int over the reference triangle of xi^a eta^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 12, 16, 20])
def test_weights_sum_to_half(degree):
    rule = triangle_rule(degree)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("degree", [1, 2, 4, 7, 10, 16])
def test_polynomial_exactness(degree):
    rule = triangle_rule(degree)
    assert rule.degree >= degree
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(np.sum(rule.weights * rule.points[:, 0] ** a
                               * rule.points[:, 1] ** b))
            exact = monomial_integral(a, b)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-15)


def test_points_inside_reference_triangle():
    rule = triangle_rule(9)
    assert np.all(rule.points > 0.0)
    assert np.all(rule.points.sum(axis=1) < 1.0)


def test_invalid_degree():
    with pytest.raises(ValueError):
        triangle_rule(-1)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_dimensional_rules_match_scipy_special(n):
    special = pytest.importorskip("scipy.special")
    s, ws = leggauss(n)
    s_ref, ws_ref = special.roots_legendre(n)
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=2e-15)
    np.testing.assert_allclose(ws, ws_ref, rtol=0, atol=2e-15)
    t, wt = _gauss_jacobi_10(n)
    t_ref, wt_ref = special.roots_jacobi(n, 1.0, 0.0)
    np.testing.assert_allclose(t, t_ref, rtol=0, atol=2e-15)
    # scipy's own n = 9 weights are 5.1e-15 from the exact ones
    np.testing.assert_allclose(wt, wt_ref, rtol=0, atol=6e-15)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_jacobi_weights_equal_40_digit_values(n):
    mpmath = pytest.importorskip("mpmath")
    t, wt = _gauss_jacobi_10(n)
    with mpmath.workdps(40):
        def p(x):
            return mpmath.jacobi(n, 1, 0, x)

        roots = [mpmath.findroot(p, mpmath.mpf(float(x))) for x in t]
        exact = [4 / ((1 - x ** 2) * mpmath.diff(p, x) ** 2) for x in roots]
        np.testing.assert_allclose(t, [float(x) for x in roots], rtol=0, atol=2e-16)
        np.testing.assert_allclose(wt, [float(w) for w in exact], rtol=0, atol=1e-15)
