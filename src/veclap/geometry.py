"""Analytic sphere geometry: closest-point projection and its Jacobian,
normal and Weingarten map, and the rotational Killing fields of the sphere,
given by value and ambient Jacobian at surface points.

Every quantity is evaluated in batched form (arrays with a trailing axis of
length 3) because the assembly loops evaluate them at many quadrature
points at once.  Everything here is a pure function of immutable data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["Sphere", "KillingField", "RADIUS_RANGE"]

# the radii whose area factors, norms of cross products of size r^2 h^2,
# keep their squares inside the normal double range
RADIUS_RANGE = (1e-50, 1e50)


@dataclass(frozen=True)
class Sphere:
    """Sphere of radius ``r`` centered at the origin (unit sphere by default).

    The signed distance is ``d(x) = |x| - r``, taken negative inside; the
    closest-point decomposition ``x = p(x) + d(x) n(x)`` is unique for
    ``|x| > 0``.
    """

    radius: float = 1.0

    def __post_init__(self):
        lo, hi = RADIUS_RANGE
        if not (lo <= self.radius <= hi):
            raise InputError(
                f"sphere radius must lie in [{lo:g}, {hi:g}], got {self.radius}")

    def closest_point(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return self.radius * x / r

    def normal(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return x / r

    def weingarten(self, x):
        # Hessian of |x| - r:  (I - x^ x^T / |x|^2) / |x|
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        n = x / r[..., None]
        eye = np.eye(3)
        return (eye - n[..., :, None] * n[..., None, :]) / r[..., None, None]

    def closest_point_jacobian(self, x):
        """Ambient Jacobian of the closest-point map, ``(r/|x|)(I - x^ x^T)``;
        batched, shape ``(..., 3, 3)`` with ``J[i, j] = d p_i / d x_j``."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        n = x / r[..., None]
        proj = np.eye(3) - n[..., :, None] * n[..., None, :]
        return (self.radius / r)[..., None, None] * proj


_AXES = {"x": np.array([1.0, 0.0, 0.0]),
         "y": np.array([0.0, 1.0, 0.0]),
         "z": np.array([0.0, 0.0, 1.0])}


@dataclass(frozen=True)
class KillingField:
    """Rotational Killing field of a sphere centered at the origin, about a
    coordinate axis: ``u(p) = omega x p`` at surface points p.

    For the z axis this is the field ``(-y, x, 0)``.  On the sphere the field
    is tangential and its tangential symmetric gradient vanishes, which makes
    it an exact eigenvector of the shifted vector-Laplace operator with
    eigenvalue 1.
    """

    axis: str

    def __post_init__(self):
        if self.axis not in _AXES:
            raise InputError(f"axis must be one of x, y, z, got {self.axis!r}")

    @property
    def omega(self):
        return _AXES[self.axis]

    def value(self, p):
        """Field value ``omega x p`` at surface points; batched over leading axes."""
        p = np.asarray(p, dtype=float)
        return np.cross(np.broadcast_to(self.omega, p.shape), p)

    def jacobian(self, p):
        """Ambient Jacobian ``d/dp [omega x p]``, the cross-product matrix of
        ``omega``; the same at every point, so it broadcasts over ``p``'s
        leading axes."""
        ox, oy, oz = self.omega
        return np.array([[0.0, -oz, oy], [oz, 0.0, -ox], [-oy, ox, 0.0]])
