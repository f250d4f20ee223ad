"""Quadrature on the reference triangle {(xi, eta): xi, eta >= 0, xi+eta <= 1}.

Conical-product rules: Gauss-Legendre in the first direction tensored with
Gauss-Jacobi (weight 1-t) in the second, collapsed onto the triangle.  For n
points per direction the rule is exact for total degree 2n-1, has strictly
interior points and positive weights, and exists for any requested degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = ["QuadratureRule", "triangle_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Points (reference coordinates), positive weights, and exactness degree.

    Weights sum to the reference triangle area 1/2.
    """

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)
    degree: int


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule exact for all polynomials of total degree <= ``degree``."""
    if degree < 0:
        raise ValueError(f"quadrature degree must be >= 0, got {degree}")
    n = max(1, (degree + 2) // 2)  # 2n-1 >= degree

    # Gauss-Legendre on [0,1]
    s, ws = roots_legendre(n)
    u = 0.5 * (s + 1.0)
    wu = 0.5 * ws
    # Gauss-Jacobi on [0,1] with weight (1-t)
    t, wt = roots_jacobi(n, 1.0, 0.0)
    v = 0.5 * (t + 1.0)
    wv = 0.25 * wt

    # Collapse the square: xi = u (1-v), eta = v; the (1-v) Jacobian is
    # absorbed by the Jacobi weight.
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), vv.ravel()])
    w = np.outer(wu, wv).ravel()
    return QuadratureRule(points=pts, weights=w, degree=2 * n - 1)
