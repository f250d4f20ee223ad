"""Mesh module: icosphere hierarchy, parametric lift, element geometry,
areas, OFF."""

import math

import numpy as np
import pytest
from fem_reference import reference_evaluate, reference_jacobians

from veclap.analysis import eoc
from veclap.errors import GeometryError, InputError
from veclap.fem import _PointData, assemble, build_space
from veclap.geometry import Sphere
from veclap.lagrange import NodeNumbering, reference_triangle
from veclap.quadrature import triangle_rule
from veclap.mesh import (
    LinearSurfaceMesh,
    icosphere,
    improved_normal_lift,
    mesh_size,
    parametric_lift,
    surface_area,
    write_off,
)

S = Sphere()


def edge_set(triangles):
    edges = {}
    for t, tri in enumerate(triangles):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((tri[a], tri[b])))
            edges.setdefault(key, []).append((tri[a], tri[b]))
    return edges


class TestIcosphere:
    def test_level0_counts(self):
        m = icosphere(0)
        assert m.n_vertices == 12 and m.n_triangles == 20

    def test_level2_counts(self):
        m = icosphere(2)
        assert m.n_triangles == 320 and m.n_vertices == 162

    def test_vertices_on_sphere(self):
        m = icosphere(3)
        r = np.linalg.norm(m.vertices, axis=1)
        assert np.abs(r - 1.0).max() <= 1e-14

    def test_watertight_and_oriented(self):
        for jitter in (0.0, 0.3):
            m = icosphere(2, jitter=jitter)
            edges = edge_set(m.triangles)
            assert all(len(v) == 2 for v in edges.values())
            # consistent orientation: the two incident directions are opposite
            assert all(d[0] == (d[1][1], d[1][0]) for d in
                       ((dirs[0], dirs[1]) for dirs in edges.values()))
            V, E, F = m.n_vertices, len(edges), m.n_triangles
            assert V - E + F == 2

    def test_level_guard(self):
        with pytest.raises(InputError):
            icosphere(8)
        with pytest.raises(InputError):
            icosphere(-1)

    def test_jitter_reproducible_and_on_surface(self):
        a = icosphere(2, jitter=0.3, seed=5)
        b = icosphere(2, jitter=0.3, seed=5)
        c = icosphere(2, jitter=0.3, seed=6)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        assert np.abs(a.vertices - c.vertices).max() > 0
        assert np.abs(np.linalg.norm(a.vertices, axis=1) - 1.0).max() <= 1e-14

    def test_radius_scaling(self):
        m = icosphere(1, Sphere(2.0))
        assert np.abs(np.linalg.norm(m.vertices, axis=1) - 2.0).max() <= 1e-13


class TestMeshSize:
    def test_level0_value(self):
        # inscribed icosahedron edge: 4 / sqrt(10 + 2 sqrt(5))
        expected = 4.0 / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))
        assert mesh_size(icosphere(0)) == pytest.approx(expected, rel=1e-14)

    def test_monotone_refinement(self):
        hs = [mesh_size(icosphere(lvl)) for lvl in range(5)]
        assert all(hs[i + 1] < hs[i] for i in range(4))

    def test_level3_roughly_h0_over_8(self):
        # re-projection stretches the central child triangles, so three
        # refinements shrink h by 7.98/8 * ... ~ 1.25/8 (measured), not 1/8
        h0 = mesh_size(icosphere(0))
        h3 = mesh_size(icosphere(3))
        assert h3 / (h0 / 8) == pytest.approx(1.2527, abs=0.01)
        # and per-level ratios approach exact halving as curvature resolves
        h4 = mesh_size(icosphere(4))
        assert h3 / h4 == pytest.approx(2.0, abs=0.02)


class TestParametricLift:
    def test_k1_identity_on_flat_mesh(self):
        m = icosphere(2)
        pm = parametric_lift(m, 1, S)
        np.testing.assert_allclose(pm.coeffs, m.vertices, atol=1e-15)

    def test_k2_edge_nodes_projected_midpoints(self):
        m = icosphere(1)
        pm = parametric_lift(m, 2, S)
        flat = pm.numbering.coords
        np.testing.assert_allclose(
            pm.coeffs, flat / np.linalg.norm(flat, axis=1, keepdims=True),
            atol=1e-15)

    def test_interpolation_property_at_nodes(self):
        # evaluating the map at reference nodes returns the lifted nodes
        m = icosphere(1)
        for kg in (2, 3):
            pm = parametric_lift(m, kg, S)
            ref = reference_triangle(kg)
            vals = pm.evaluate(np.arange(m.n_triangles), ref.nodes)
            for e in range(m.n_triangles):
                np.testing.assert_allclose(
                    vals[e], pm.coeffs[pm.numbering.connectivity[e]], atol=1e-13)

    def test_continuity_across_edges(self):
        # shared Lagrange nodes carry identical coefficients by construction
        m = icosphere(1)
        pm = parametric_lift(m, 3, S)
        conn = pm.numbering.connectivity
        assert conn.max() + 1 == pm.coeffs.shape[0]
        # every global node referenced at least once, interior exactly once
        counts = np.bincount(conn.ravel())
        n_int = (3 - 1) * (3 - 2) // 2
        assert np.all(counts[-m.n_triangles * n_int:] == 1)

    def test_degree_guard(self):
        with pytest.raises(InputError):
            parametric_lift(icosphere(0), 5, S)

    def test_higher_degree_area_closer(self):
        m = icosphere(2)
        a1 = surface_area(parametric_lift(m, 1, S), 10)
        a2 = surface_area(parametric_lift(m, 2, S), 10)
        four_pi = 4.0 * math.pi
        assert abs(a2 - four_pi) < abs(a1 - four_pi)


@pytest.mark.parametrize("kg", [1, 2, 3, 4])
class TestMapAgainstReference:
    """The map's single-GEMM points and Jacobians against the einsum reference."""

    def test_evaluate_and_jacobians(self, kg):
        pm = parametric_lift(icosphere(1, S, jitter=0.3), kg, S)
        elements = np.arange(pm.mesh.n_triangles)
        pts = triangle_rule(4 * kg).points  # the assembly's rule at k = k_g
        pairs = ((pm.evaluate(elements, pts), reference_evaluate(pm, elements, pts)),
                 (pm.jacobians(elements, pts), reference_jacobians(pm, elements, pts)))
        for new, ref in pairs:
            assert new.shape == ref.shape
            assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_surface_area(self, kg):
        pm = parametric_lift(icosphere(1, S, jitter=0.3), kg, S)
        rule = triangle_rule(2 * kg + 8)
        jac = reference_jacobians(pm, np.arange(pm.mesh.n_triangles), rule.points)
        mu = np.linalg.norm(np.cross(jac[..., 0], jac[..., 1]), axis=-1)
        ref = float(np.einsum("q,eq->", rule.weights, mu))
        assert surface_area(pm, 2 * kg + 8) == pytest.approx(ref, rel=1e-14, abs=0.0)


def point_data(pm, elements):
    """The assembly's per-quadrature-point geometry of a k_g = 1 map."""
    return _PointData(build_space(pm.mesh, pm, 1), pm, S, np.asarray(elements),
                      triangle_rule(4), improved_normal_lift(pm.mesh, 1, S))


class TestGeomFrame:
    """Element geometry (normal n_h, area factor mu) at quadrature points."""

    def test_unit_simplex_triangle(self):
        # flat triangle with vertices e1, e2, e3: normal (1,1,1)/sqrt(3),
        # area factor sqrt(3)
        eye = np.eye(3)
        mesh = LinearSurfaceMesh(vertices=eye, triangles=np.array([[0, 1, 2]]),
                                 level=0)
        pd = point_data(parametric_lift(mesh, 1, S), [0])
        assert np.abs(pd.n[0] - 1 / math.sqrt(3)).max() <= 1e-14
        np.testing.assert_allclose(pd.mu[0], math.sqrt(3.0), rtol=1e-14)

    def test_affine_frame_constant(self):
        pd = point_data(parametric_lift(icosphere(0), 1, S), [4])
        assert np.abs(pd.n[0] - pd.n[0, 0]).max() <= 1e-14
        assert np.abs(pd.mu[0] - pd.mu[0, 0]).max() <= 1e-13 * pd.mu[0, 0]

    def test_degenerate_element(self):
        # the assembly's point data rejects a zero area factor
        v = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 0]])  # repeated vertex
        mesh = LinearSurfaceMesh(vertices=v, triangles=np.array([[0, 1, 2]]),
                                 level=0)
        pm = parametric_lift(mesh, 1, S)
        with pytest.raises(GeometryError):
            assemble(build_space(mesh, pm, 1), pm, S)

    def test_normal_accuracy_rate(self):
        # max |n_h - n(p(x))| over quadrature points decays ~ h^{k_g}
        kg = 3
        rng_pts = np.array([[0.21, 0.33], [0.11, 0.52], [0.4, 0.17]])
        errs, hs = [], []
        for lvl in (1, 2, 3):
            m = icosphere(lvl)
            pm = parametric_lift(m, kg, S)
            jac = pm.jacobians(np.arange(m.n_triangles), rng_pts)
            x = pm.evaluate(np.arange(m.n_triangles), rng_pts)
            cross = np.cross(jac[..., 0], jac[..., 1])
            n_h = cross / np.linalg.norm(cross, axis=-1, keepdims=True)
            n_exact = S.normal(S.closest_point(x))
            errs.append(np.linalg.norm(n_h - n_exact, axis=-1).max())
            hs.append(mesh_size(m))
        rate = eoc(errs[1], errs[2], hs[1], hs[2])
        assert rate >= kg - 0.4

    def test_orientation_consistency(self):
        # mu > 0 and n_h aligned with the outward exact normal everywhere
        pts = np.array([[0.25, 0.25], [0.6, 0.2], [0.1, 0.7], [1 / 3, 1 / 3]])
        for lvl in (0, 2, 4):
            for kg in (1, 2, 3):
                pm = parametric_lift(icosphere(lvl), kg, S)
                jac = pm.jacobians(np.arange(pm.mesh.n_triangles), pts)
                x = pm.evaluate(np.arange(pm.mesh.n_triangles), pts)
                cross = np.cross(jac[..., 0], jac[..., 1])
                mu = np.linalg.norm(cross, axis=-1)
                assert mu.min() > 0
                n_exact = S.normal(S.closest_point(x))
                dots = np.einsum("eqc,eqc->eq", cross / mu[..., None], n_exact)
                assert dots.min() > 0


class TestSurfaceArea:
    def test_limit_and_rates(self):
        four_pi = 4.0 * math.pi
        for kg, expected, band in ((1, 2.0, 0.25), (2, 4.0, 0.35)):
            errs, hs = [], []
            for lvl in (1, 2, 3, 4):
                m = icosphere(lvl)
                pm = parametric_lift(m, kg, S)
                errs.append(abs(surface_area(pm, 2 * kg + 8) - four_pi))
                hs.append(mesh_size(m))
            assert all(errs[i + 1] < errs[i] for i in range(3))
            rate = eoc(errs[-2], errs[-1], hs[-2], hs[-1])
            assert abs(rate - expected) <= band

    def test_quadrature_degree_insensitivity(self):
        m = icosphere(2)
        # k_g = 1: affine elements, the area factor is exactly integrated
        pm1 = parametric_lift(m, 1, S)
        a_low = surface_area(pm1, 2 * 1 + 1)
        a_high = surface_area(pm1, 12)
        assert abs(a_low - a_high) <= 1e-13 * a_high
        # k_g = 2: the factor is analytic, not polynomial; measured stability
        pm2 = parametric_lift(m, 2, S)
        assert abs(surface_area(pm2, 8) - surface_area(pm2, 16)) <= 1e-9


def test_off_export_roundtrip(tmp_path):
    m = icosphere(1)
    path = tmp_path / "mesh.off"
    write_off(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = (int(x) for x in lines[1].split())
    assert (nv, nf) == (m.n_vertices, m.n_triangles)
    verts = np.array([[float(x) for x in ln.split()] for ln in lines[2:2 + nv]])
    np.testing.assert_allclose(verts, m.vertices, rtol=0, atol=0)
    faces = np.array([[int(x) for x in ln.split()] for ln in lines[2 + nv:]])
    assert np.all(faces[:, 0] == 3)
    np.testing.assert_array_equal(faces[:, 1:], m.triangles)


class TestNodeNumbering:
    def test_scalar_dof_counts(self):
        m = icosphere(0)
        for degree, expected in ((1, 12), (2, 12 + 30), (3, 12 + 2 * 30 + 20)):
            assert NodeNumbering(m.vertices, m.triangles, degree).n_nodes == expected

    def test_shared_edge_nodes_agree(self):
        m = icosphere(1)
        num = NodeNumbering(m.vertices, m.triangles, 3)
        # each edge-interior node is referenced by exactly two triangles
        counts = np.bincount(num.connectivity.ravel(), minlength=num.n_nodes)
        n_edges = m.n_vertices + m.n_triangles - 2  # Euler characteristic 2
        edge_ids = slice(m.n_vertices, m.n_vertices + 2 * n_edges)
        assert np.all(counts[edge_ids] == 2)
