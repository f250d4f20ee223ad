"""Geometry module: closest-point decomposition, normal, Weingarten map,
Killing fields."""

import math

import numpy as np
import pytest

from veclap.errors import InputError
from veclap.geometry import KillingField, Sphere


def random_tubular_points(surface, n, rng):
    """Points with |d| < r/2, uniformly spread in direction."""
    x = rng.standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    delta = 0.5 * surface.radius
    radii = surface.radius + delta * (2.0 * rng.random(n) - 1.0) * 0.98
    return x * radii[:, None]


def central_differences(f, x, step=1e-5):
    """Jacobian ``J[i, j] = d f_i / d x_j`` of f at one point x."""
    J = np.empty((3, 3))
    for c in range(3):
        e = np.zeros(3)
        e[c] = step
        J[:, c] = (f(x + e) - f(x - e)) / (2 * step)
    return J


def scaled_weingarten(surface, x):
    """|x| H(x), which is the tangential projector I - n n^T at x."""
    x = np.asarray(x, dtype=float)
    return np.linalg.norm(x, axis=-1)[..., None, None] * surface.weingarten(x)


class TestSurfaceFrame:
    def test_radial_point(self):
        s = Sphere()
        np.testing.assert_allclose(s.closest_point([2.0, 0.0, 0.0]),
                                   [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(s.normal([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0],
                                   atol=1e-15)

    def test_weingarten_at_pole(self):
        # Hessian of |x| - 1 at the north pole is diag(1, 1, 0)
        H = Sphere().weingarten([0.0, 0.0, 1.0])
        np.testing.assert_allclose(H, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_projector_annihilates_normal(self):
        s = Sphere()
        x = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(scaled_weingarten(s, x) @ s.normal(x), 0.0,
                                   atol=1e-15)

    def test_projector_is_projector(self):
        rng = np.random.default_rng(7)
        s = Sphere(radius=2.5)
        x = random_tubular_points(s, 50, rng)
        for P in scaled_weingarten(s, x):
            np.testing.assert_allclose(P @ P, P, atol=1e-13)
            np.testing.assert_allclose(P, P.T, atol=1e-15)
            assert np.linalg.matrix_rank(P, tol=1e-10) == 2

    def test_weingarten_properties_on_surface(self):
        rng = np.random.default_rng(8)
        s = Sphere(radius=1.7)
        x = rng.standard_normal((40, 3))
        x = s.closest_point(x * 3.0)
        H = s.weingarten(x)
        n = s.normal(x)
        P = np.eye(3) - n[:, :, None] * n[:, None, :]
        # on the surface H = P / r, and H n = 0
        np.testing.assert_allclose(H, P / s.radius, atol=1e-13)
        np.testing.assert_allclose(np.einsum("icd,id->ic", H, n), 0.0, atol=1e-13)

    def test_closest_point_decomposition(self):
        # x = p(x) + d(x) n(x) to machine precision, 1000 random points
        rng = np.random.default_rng(42)
        for radius in (1.0, 0.5, 3.0):
            s = Sphere(radius)
            x = random_tubular_points(s, 1000, rng)
            p = s.closest_point(x)
            d = np.linalg.norm(x, axis=1) - radius
            n = s.normal(x)
            err = np.linalg.norm(x - p - d[:, None] * n, axis=1)
            assert err.max() <= 1e-12
            assert np.abs(np.linalg.norm(p, axis=1) - radius).max() <= 1e-14

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(InputError, match="radius"):
            Sphere(radius)

    def test_closest_point_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        s = Sphere(1.3)
        for x in random_tubular_points(s, 25, rng):
            J = s.closest_point_jacobian(x)
            J_fd = central_differences(s.closest_point, x)
            assert np.abs(J - J_fd).max() <= 1e-6 * max(np.abs(J).max(), 1.0)

    def test_signed_distance_sign(self):
        # d = (x - p(x)) . n(x) is positive outside and negative inside
        s = Sphere(2.0)
        for x, sign in (([3.0, 0.0, 0.0], 1.0), ([1.5, 0.0, 0.0], -1.0)):
            d = np.dot(np.subtract(x, s.closest_point(x)), s.normal(x))
            assert sign * d > 0


class TestKillingField:
    def test_rotation_field_values(self):
        # the z-axis rotation field is (-y, x, 0)
        kf = KillingField("z")
        np.testing.assert_allclose(kf.value([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0],
                                   atol=1e-15)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3)) * 0.3
        x[:, 2] = 0.0
        x += np.array([1.0, 0.0, 0.0])
        x = Sphere().closest_point(x)
        np.testing.assert_allclose(kf.value(x),
                                   np.stack([-x[:, 1], x[:, 0], 0 * x[:, 0]], axis=1),
                                   atol=1e-14)

    def test_pole_of_rotation(self):
        v = KillingField("z").value([0.0, 0.0, 1.0])
        np.testing.assert_allclose(v, 0.0, atol=1e-15)

    def test_invalid_axis(self):
        with pytest.raises(InputError):
            KillingField("w")

    def test_jacobian_matches_finite_differences(self):
        # the chain rule of the constant-normal extension u o p, as the
        # assembly forms it, against differences of u(p(x))
        rng = np.random.default_rng(3)
        s = Sphere(1.3)
        for axis in ("x", "y", "z"):
            kf = KillingField(axis)
            for x in random_tubular_points(s, 25, rng):
                J = kf.jacobian(s.closest_point(x)) @ s.closest_point_jacobian(x)
                J_fd = central_differences(
                    lambda y: kf.value(s.closest_point(y)), x)
                assert np.abs(J - J_fd).max() <= 1e-6 * max(np.abs(J).max(), 1.0)

    def test_tangential_and_killing_on_surface(self):
        # u . n = 0 and the tangential symmetric gradient vanishes on Gamma
        rng = np.random.default_rng(11)
        s = Sphere()
        x = rng.standard_normal((1000, 3))
        x = s.closest_point(x)
        P = scaled_weingarten(s, x)
        n = s.normal(x)
        for axis in ("x", "y", "z"):
            kf = KillingField(axis)
            u = kf.value(x)
            assert np.abs(np.einsum("ic,ic->i", u, n)).max() <= 1e-12
            J = kf.jacobian(x) @ s.closest_point_jacobian(x)
            grad_t = np.einsum("iab,ibc,icd->iad", P, J, P)
            sym = grad_t + np.swapaxes(grad_t, -1, -2)
            assert np.abs(sym).max() <= 1e-10
