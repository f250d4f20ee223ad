"""Quadrature on the reference triangle {(xi, eta): xi, eta >= 0, xi+eta <= 1}.

Conical-product rules: Gauss-Legendre in the first direction tensored with
Gauss-Jacobi (weight 1-t) in the second, collapsed onto the triangle.  For n
points per direction the rule is exact for total degree 2n-1, has strictly
interior points and positive weights, and exists for any requested degree.

Gauss-Legendre comes from ``numpy.polynomial.legendre.leggauss``.
Gauss-Jacobi for the weight 1 - t is built here by Golub-Welsch, as the
eigenvalues of the Jacobi matrix of its three-term recurrence, polished by
one Newton step (Golub and Welsch, Math. Comp. 23, 1969); its weights are
4 / ((1 - t^2) P_n'(t)^2), with P_n the Jacobi polynomial P_n^(1,0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureRule", "triangle_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Points (reference coordinates), positive weights, and exactness degree.

    Weights sum to the reference triangle area 1/2.
    """

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)
    degree: int


def _jacobi_p_10(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n^(1,0)(t) and its derivative, by the three-term recurrence."""
    prev, p = np.zeros_like(t), np.ones_like(t)
    for m in range(1, n + 1):
        prev, p = p, ((((2 * m + 1) * (2 * m - 1)) * t + 1.0) * p
                      - ((m - 1) * (2 * m + 1)) * prev) / ((m + 1) * (2 * m - 1))
    dp = (n * (1.0 - (2 * n + 1) * t) * p + (2 * n * (n + 1)) * prev) \
        / ((2 * n + 1) * (1.0 - t * t))
    return p, dp


def _gauss_jacobi_10(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule on [-1, 1] for the weight 1 - t."""
    k = np.arange(1, n)
    diag = -1.0 / ((2.0 * np.arange(n) + 1.0) * (2.0 * np.arange(n) + 3.0))
    off = np.sqrt(k * (k + 1.0)) / (2.0 * k + 1.0)
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p, dp = _jacobi_p_10(n, t)
    t = t - p / dp
    _, dp = _jacobi_p_10(n, t)
    return t, 4.0 / ((1.0 - t * t) * dp ** 2)


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule exact for all polynomials of total degree <= ``degree``."""
    if degree < 0:
        raise ValueError(f"quadrature degree must be >= 0, got {degree}")
    n = max(1, (degree + 2) // 2)  # 2n-1 >= degree

    # Gauss-Legendre on [0,1]
    s, ws = leggauss(n)
    u = 0.5 * (s + 1.0)
    wu = 0.5 * ws
    # Gauss-Jacobi on [0,1] with weight (1-t)
    t, wt = _gauss_jacobi_10(n)
    v = 0.5 * (t + 1.0)
    wv = 0.25 * wt

    # Collapse the square: xi = u (1-v), eta = v; the (1-v) Jacobian is
    # absorbed by the Jacobi weight.
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), vv.ravel()])
    w = np.outer(wu, wv).ravel()
    return QuadratureRule(points=pts, weights=w, degree=2 * n - 1)
