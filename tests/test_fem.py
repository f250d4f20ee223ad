"""FEM module: spaces, assembly, interpolation, analytic-field pairings."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from fem_reference import (
    ReferencePointData,
    reference_a_pattern,
    reference_local_matrices,
    reference_pairings,
    reference_scatter,
)

from veclap import fem
from veclap.analysis import eoc
from veclap.errors import InputError
from veclap.fem import (
    _local_matrices,
    _PointData,
    assemble,
    build_space,
    interpolate,
    write_matrix_market,
)
from veclap.geometry import KillingField, Sphere
from veclap.mesh import (
    icosphere,
    improved_normal_lift,
    mesh_size,
    parametric_lift,
    surface_area,
)
from veclap.quadrature import triangle_rule

S = Sphere()
KF = KillingField("z")


def setup_forms(k, kg, level, jitter=0.0, **kw):
    mesh = icosphere(level, S, jitter=jitter)
    pmap = parametric_lift(mesh, kg)
    space = build_space(pmap, k)
    return space, assemble(space, **kw)


def quad_degree(space):
    """The exactness degree ``assemble`` uses, 2 (k + k_g)."""
    return 2 * (space.degree + space.pmap.degree)


def kernel_inputs(space, eta_coeff=1.0):
    """``(rule, normal_map, eta)`` as ``assemble(space, eta_coeff)`` hands
    them to its per-chunk kernels, for calling those directly."""
    return (triangle_rule(quad_degree(space)), improved_normal_lift(space.pmap),
            eta_coeff / mesh_size(space.mesh) ** 2)


def penalty(space, forms):
    """The penalty k_a of ``forms`` (assembled with ``eta_coeff=1``).

    ``A(eta_coeff=c) = a~ + c / h^2 K``, so ``A(2) - A(1) = K / h^2 = k_a``.
    """
    return assemble(space, eta_coeff=2.0).A - forms.A


def assert_same_pairings(p, q):
    """``p`` and ``q`` are bitwise equal."""
    for name in ("a_vec", "b_vec"):
        np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
    assert p.a_ee == q.a_ee and p.b_ee == q.b_ee


class ZeroField:
    def value(self, p):
        return np.zeros_like(np.asarray(p, dtype=float))

    def jacobian(self, p):
        p = np.asarray(p, dtype=float)
        return np.zeros(p.shape[:-1] + (3, 3))


class TestBuildSpace:
    def test_dof_counts_level0(self):
        mesh = icosphere(0)
        pmap = parametric_lift(mesh, 1)
        sp1 = build_space(pmap, 1)
        assert sp1.n_scalar == 12 and sp1.n_dofs == 36
        sp2 = build_space(pmap, 2)
        assert sp2.n_scalar == 42  # 12 vertices + 30 edges

    def test_dof_counts_level2(self):
        mesh = icosphere(2)
        pmap = parametric_lift(mesh, 1)
        assert build_space(pmap, 1).n_scalar == 162

    def test_degree_guard(self):
        mesh = icosphere(0)
        pmap = parametric_lift(mesh, 1)
        with pytest.raises(InputError):
            build_space(pmap, 5)


class TestAssemble:
    def test_constant_field_mass_equals_area(self):
        for (k, kg) in ((1, 1), (2, 2)):
            space, forms = setup_forms(k, kg, 1)
            c = np.zeros(space.n_dofs)
            c[0::3] = 1.0  # the x component of every node
            area = surface_area(space.pmap, quad_degree(space))
            assert c @ (forms.B @ c) == pytest.approx(area, abs=1e-10)

    def test_symmetry(self):
        space, forms = setup_forms(2, 2, 1)
        for M in (forms.A, forms.B):
            diff = np.abs((M - M.T).toarray()).max()
            assert diff <= 1e-12 * np.abs(M.toarray()).max()

    def test_penalty_parts_psd_and_B_spd(self):
        space, forms = setup_forms(1, 1, 1)
        w = np.linalg.eigvalsh(penalty(space, forms).toarray())
        assert w.min() >= -1e-12 * max(w.max(), 1.0)
        wb = np.linalg.eigvalsh(forms.B.toarray())
        assert wb.min() > 0

    def test_rayleigh_quotient_of_interpolated_killing_field(self):
        space, forms = setup_forms(1, 1, 3)
        x = interpolate(KF.value, space)
        rq = (x @ (forms.A @ x)) / (x @ (forms.B @ x))
        h = mesh_size(space.mesh)
        assert abs(rq - 1.0) <= h**2

    def test_quadrature_sufficiency(self, monkeypatch):
        # doubling the exactness degree moves entries by <= 1e-10 relative
        space, forms = setup_forms(2, 2, 3)
        space1, f1 = setup_forms(1, 1, 2)
        monkeypatch.setattr(fem, "triangle_rule", lambda degree: triangle_rule(2 * degree))
        doubled = assemble(space)
        assert (forms.A != doubled.A).nnz  # the doubled rule was used
        for a, b in ((forms.A, doubled.A), (forms.B, doubled.B)):
            rel = np.abs((a - b).data).max() / np.abs(a.data).max()
            assert rel <= 1e-10
        # with affine geometry the B parts are exactly integrated already
        d1 = assemble(space1)
        assert np.abs((f1.B - d1.B).data).max() <= 1e-14

    def test_eta_scaling(self):
        space, f1 = setup_forms(1, 1, 1)
        f4 = assemble(space, eta_coeff=4.0)
        # A(4) - A(1) = 3 k_a; relative to the largest entry, because the
        # difference cancels a~ where k_a itself is tiny
        k_a = penalty(space, f1).toarray()
        diff = (f4.A - f1.A).toarray() - 3.0 * k_a
        assert np.abs(diff).max() <= 1e-13 * np.abs(3.0 * k_a).max()

    @pytest.mark.parametrize("k, level, n_fields, bound_mb", [
        (4, 2, 0, 45),
        (2, 4, 3, 50),
    ])
    def test_peak_memory(self, k, level, n_fields, bound_mb):
        # the element loop holds a few chunks' temporaries and the outputs;
        # collecting every chunk's blocks and COO triplets peaked at 88 MB
        # and 65 MB here
        mesh = icosphere(level, S, jitter=0.3)
        pmap = parametric_lift(mesh, k)
        space = build_space(pmap, k)
        fields = [KillingField(axis) for axis in "zxy"[:n_fields]]
        tracemalloc.start()
        try:
            assemble(space, fields=fields)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2**20

    @pytest.mark.parametrize("k, level", [(2, 2), (4, 1)])
    def test_csr_matches_coo_reference(self, k, level):
        space, forms = setup_forms(k, k, level, jitter=0.3)
        conn = space.numbering.connectivity
        ne, nk = conn.shape
        rule, normal_map, eta = kernel_inputs(space)
        local = [_local_matrices(_PointData(space, elements, rule, normal_map), eta)
                 for elements in fem._chunks(space, rule)]
        vdofs = (3 * conn[:, :, None] + np.arange(3)).reshape(ne, 3 * nk)
        a_loc = np.concatenate([a for a, _ in local]).transpose(0, 1, 3, 2, 4)
        ref_A = reference_scatter(a_loc.reshape(ne, 3 * nk, 3 * nk), vdofs,
                                  space.n_dofs)
        ref_M = reference_scatter(np.concatenate([m for _, m in local]), conn,
                                  space.n_scalar)
        ref_B = sp.kron(ref_M, sp.identity(3), format="csr")
        # A is node-major CSR: row 3I + c holds the columns 3J, 3J + 1, 3J + 2
        # for each entry (I, J) of row I of M
        assert forms.A.format == "csr"
        blocks = sp.kron(ref_M, np.ones((3, 3)), format="csr")
        np.testing.assert_array_equal(forms.A.indptr, blocks.indptr)
        np.testing.assert_array_equal(forms.A.indices, blocks.indices)
        for new, ref in ((forms.A, ref_A), (forms.B, ref_B)):
            assert new.has_canonical_format
            np.testing.assert_array_equal(new.indptr, ref.indptr)
            np.testing.assert_array_equal(new.indices, ref.indices)
            assert np.abs(new.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_pattern_copies_the_node_rows(self, k):
        # row 3I + c of A is a copy of row I's segment, laid out by scipy's
        # BSR-to-CSR conversion; the arrays are bitwise those of the
        # entry-by-entry scatter
        space = build_space(parametric_lift(icosphere(2, S, jitter=0.3), k), k)
        conn, n = space.numbering.connectivity, space.n_scalar
        pattern = fem._CsrPattern(conn, n)
        m_ones = reference_scatter(np.ones(conn.shape + conn.shape[1:]), conn, n)
        blocks = sp.kron(m_ones, np.ones((3, 3)), format="csr")
        np.testing.assert_array_equal(pattern.a_indptr, blocks.indptr)
        np.testing.assert_array_equal(pattern.a_indices, blocks.indices)
        reference = reference_a_pattern(pattern.m_indptr, pattern.m_indices)
        for new, ref in zip((pattern.a_indptr, pattern.a_indices, pattern.a_offset),
                            reference, strict=True):
            assert new.dtype == ref.dtype and new.shape == ref.shape
            np.testing.assert_array_equal(new, ref)

    def test_pattern_peak_memory(self):
        # the BSR-to-CSR layout peaks at 18.3 MiB here, of which 10.1 MiB
        # are kept; the hand-written offset arithmetic peaked at 26.4 MiB
        space = build_space(parametric_lift(icosphere(4, S, jitter=0.3), 2), 2)
        conn, n = space.numbering.connectivity, space.n_scalar
        tracemalloc.start()
        try:
            fem._CsrPattern(conn, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 22 * 2**20

    def test_geometry_comes_from_the_lift(self):
        # a mesh of the sphere of radius 2 is lifted onto that sphere, with
        # no surface passed to the lift: its nodes sit at radius 2 and its
        # area is 16 pi up to the O(h^4) geometric error of k_g = 2; B
        # integrates the lift's area, and the point data carry that
        # sphere's curvature, tr(H^2) = 2 / r^2
        s2 = Sphere(2.0)
        pmap = parametric_lift(icosphere(2, s2, jitter=0.3), 2)
        assert np.abs(np.linalg.norm(pmap.coeffs, axis=1) - 2.0).max() <= 1e-14
        space = build_space(pmap, 2)
        forms = assemble(space, eta_coeff=4.0)
        area = surface_area(pmap, quad_degree(space))
        assert area == pytest.approx(16.0 * math.pi, rel=1e-3, abs=0.0)
        assert forms.B.sum() / 3 == pytest.approx(area, rel=1e-12, abs=0.0)
        rule, normal_map, _ = kernel_inputs(space)
        pd = _PointData(space, np.arange(space.mesh.n_triangles), rule, normal_map)
        assert np.abs(pd.hh - 2.0 / s2.radius**2).max() <= 1e-12

    def test_no_fields_no_pairings(self):
        assert setup_forms(1, 1, 0)[1].pairings == ()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
class TestAgainstReference:
    """Batched kernels against the per-term einsum reference, k = k_g."""

    def test_local_matrices(self, k):
        space = build_space(parametric_lift(icosphere(1, S, jitter=0.3), k), k)
        elements = np.arange(space.mesh.n_triangles)
        rule, normal_map, eta = kernel_inputs(space)
        a_loc, m_loc = _local_matrices(
            _PointData(space, elements, rule, normal_map), eta)
        a_t, k_a, b_t, k_b = reference_local_matrices(
            ReferencePointData(space, elements, rule, normal_map), eta)
        b_loc = m_loc[:, :, :, None, None] * np.eye(3)
        for new, ref in ((a_loc, a_t + k_a), (b_loc, b_t + k_b)):
            ref = ref.transpose(0, 1, 3, 2, 4)  # (e, i, c, j, d) -> (e, i, j, c, d)
            assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_A_and_B_are_exactly_symmetric(self, k):
        # the CSR arrays of A are then its CSC arrays, which factorize hands
        # to SuperLU as they are
        _, forms = setup_forms(k, k, 1, jitter=0.3)
        for mat in (forms.A, forms.B):
            assert (mat != mat.T).nnz == 0

    def test_B_is_identity_times_scalar_mass(self, k):
        space, forms = setup_forms(k, k, 1, jitter=0.3)
        M = forms.B[0::3, 0::3]
        for c in range(3):
            for d in range(3):
                block = forms.B[c::3, d::3]
                assert (block - M).nnz == 0 if c == d else block.nnz == 0
        assert forms.B.nnz == 3 * M.nnz

    def test_pairings(self, k):
        fields = [KillingField(axis) for axis in "zxy"]
        space, forms = setup_forms(k, k, 1, jitter=0.3, fields=fields)
        elements = np.arange(space.mesh.n_triangles)
        rule, normal_map, eta = kernel_inputs(space)
        for fld, ep in zip(fields, forms.pairings, strict=True):
            a_vec, b_vec, a_ee, b_ee = reference_pairings(
                fld, space, normal_map, eta, rule, elements)
            for new, ref in ((ep.a_vec, a_vec), (ep.b_vec, b_vec)):
                assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()
            assert ep.a_ee == pytest.approx(a_ee, rel=1e-13, abs=0.0)
            assert ep.b_ee == pytest.approx(b_ee, rel=1e-13, abs=0.0)
            single, = assemble(space, fields=[fld]).pairings
            assert_same_pairings(single, ep)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_surface_gradient_of_the_lift_is_the_tangential_projector(k):
    # at k = k_g the lift's coordinates x_l lie in the space, so
    # sum_l x_l (x) grad_Gamma_h phi_l = P_h at every quadrature point: an
    # oracle for the surface gradients that uses no formula for them
    space = build_space(parametric_lift(icosphere(2, S, jitter=0.3), k), k)
    rule, normal_map, _ = kernel_inputs(space)
    elements = np.arange(space.mesh.n_triangles)
    pd = _PointData(space, elements, rule, normal_map)
    x = space.pmap.coeffs[space.numbering.connectivity[elements]]
    grad_x = np.einsum("elc,eqld->eqcd", x, pd.grads)
    assert np.abs(grad_x - pd.P).max() <= 1e-13


class TestSpectralProperties:
    def test_smallest_eigenvalue_bounded_below(self):
        # discrete ellipticity: lambda_1 >= 0.5 (exact value is 1)
        import scipy.linalg as sla
        for (k, kg, lvl) in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1)):
            _, forms = setup_forms(k, kg, lvl)
            w = sla.eigh(forms.A.toarray(), forms.B.toarray(),
                         eigvals_only=True, subset_by_index=[0, 0])
            assert w[0] >= 0.5

    def test_friedrichs_constant_uniform(self):
        # c_F = 1/sqrt(lambda_1) stays bounded along refinement
        import scipy.linalg as sla
        cfs = []
        for lvl in (0, 1, 2):
            _, forms = setup_forms(1, 1, lvl)
            w = sla.eigh(forms.A.toarray(), forms.B.toarray(),
                         eigvals_only=True, subset_by_index=[0, 0])
            cfs.append(1.0 / math.sqrt(w[0]))
        assert max(cfs) <= 1.5


class TestInterpolate:
    def test_constant_reproduced(self):
        space, _ = setup_forms(3, 2, 0)
        const = np.array([0.3, -1.2, 0.7])
        x = interpolate(lambda p: np.broadcast_to(const, p.shape), space)
        for c in range(3):
            np.testing.assert_allclose(x[c::3], const[c], atol=1e-14)

    def test_several_fields_at_once(self):
        # a field of shape (N, 3, c) interpolates to the c columns of the
        # fields one at a time
        space, _ = setup_forms(2, 2, 1)
        axes = [KillingField(a) for a in "xyz"]
        X = interpolate(lambda p: np.stack([f.value(p) for f in axes], axis=-1), space)
        assert X.shape == (space.n_dofs, 3)
        for j, f in enumerate(axes):
            np.testing.assert_array_equal(X[:, j], interpolate(f.value, space))

    def test_energy_norm_interpolation_rate(self):
        # degree-2 fields: energy-norm error of the interpolant decays ~ h^2
        errs, hs = [], []
        for lvl in (2, 3, 4):
            space, forms = setup_forms(2, 1, lvl, jitter=0.3, fields=[KF])
            ep, = forms.pairings
            x = interpolate(KF.value, space)
            errs.append(math.sqrt(max(
                ep.a_ee - 2.0 * (ep.a_vec @ x) + x @ (forms.A @ x), 0.0)))
            hs.append(mesh_size(space.mesh))
        rate = eoc(errs[-2], errs[-1], hs[-2], hs[-1])
        assert abs(rate - 2.0) <= 0.4

    def test_l2_interpolation_rate_k1(self):
        # L2 error decays ~ h^{k+1} = h^2 for k = 1
        errs, hs = [], []
        for lvl in (2, 3, 4):
            space, forms = setup_forms(1, 1, lvl, jitter=0.3, fields=[KF])
            ep, = forms.pairings
            x = interpolate(KF.value, space)
            errs.append(math.sqrt(max(
                ep.b_ee - 2.0 * (ep.b_vec @ x) + x @ (forms.B @ x), 0.0)))
            hs.append(mesh_size(space.mesh))
        rate = eoc(errs[-2], errs[-1], hs[-2], hs[-1])
        assert abs(rate - 2.0) <= 0.4

    def test_penalty_vanishes_on_interpolated_tangential_field(self):
        vals = []
        for lvl in (1, 2, 3):
            space, forms = setup_forms(1, 1, lvl)
            x = interpolate(KF.value, space)
            vals.append(x @ (penalty(space, forms) @ x))
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] <= 1e-4


class TestExtendedPairings:
    def test_killing_diagonal_limits(self):
        # int over the sphere of |u_1|^2 = int (x^2 + y^2) = 8 pi / 3;
        # the energy value converges to the same number since E(u_1) = 0
        target = 8.0 * math.pi / 3.0
        errs_b, errs_a = [], []
        for lvl in (2, 3):
            ep, = setup_forms(1, 1, lvl, fields=[KF])[1].pairings
            errs_b.append(abs(ep.b_ee - target))
            errs_a.append(abs(ep.a_ee - target))
        assert errs_b[1] < errs_b[0] and errs_a[1] < errs_a[0]
        assert errs_b[1] <= 0.05 and errs_a[1] <= 0.05

    def test_zero_field(self):
        ep, = setup_forms(1, 1, 0, fields=[ZeroField()])[1].pairings
        assert ep.a_ee == 0.0 and ep.b_ee == 0.0
        assert np.all(ep.a_vec == 0.0) and np.all(ep.b_vec == 0.0)


def test_matrix_market_export(tmp_path):
    space, forms = setup_forms(1, 1, 0)
    for name, mat in (("A", forms.A), ("B", forms.B)):
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(mat, path, comment="test")
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
        n, m, nnz = (int(x) for x in lines[2].split())
        assert n == m == space.n_dofs
        entries = [ln.split() for ln in lines[3:]]
        assert len(entries) == nnz
        rows = np.array([int(e[0]) for e in entries])
        cols = np.array([int(e[1]) for e in entries])
        assert rows.min() >= 1 and cols.min() >= 1  # 1-based
        assert np.all(rows >= cols)                 # lower triangle
        vals = np.array([float(e[2]) for e in entries])
        low = sp.coo_matrix((vals, (rows - 1, cols - 1)), shape=(n, n)).tocsr()
        # the stored lower triangle reads back exactly
        stored = sp.tril(mat, format="csr")
        assert nnz == stored.nnz
        np.testing.assert_array_equal(low.toarray(), stored.toarray())
        # A and B are exactly symmetric: mirroring the lower triangle gives
        # back the assembled matrix bit for bit
        full = low + sp.tril(low, k=-1).T
        np.testing.assert_array_equal(full.toarray(), mat.toarray())


def test_matrix_market_export_to_an_unopenable_path_raises(tmp_path):
    # scipy.io.mmwrite given such a path writes nothing and raises nothing
    _, forms = setup_forms(1, 1, 0)
    (tmp_path / "A.mtx").mkdir()
    with pytest.raises(IsADirectoryError):
        write_matrix_market(forms.A, tmp_path / "A.mtx")
