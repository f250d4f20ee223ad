"""FEM module: spaces, assembly, interpolation, analytic-field pairings."""

import math
import os

import numpy as np
import pytest
from fem_reference import (
    ReferencePointData,
    reference_local_matrices,
    reference_matrix_market_text,
    reference_pairings,
)

from veclap.analysis import eoc
from veclap.errors import InputError
from veclap.fem import (
    _local_matrices,
    _PointData,
    assemble,
    build_space,
    extended_pairings,
    interpolate,
    write_matrix_market,
)
from veclap.geometry import KillingField, Sphere
from veclap.mesh import icosphere, mesh_size, parametric_lift, surface_area
from veclap.quadrature import triangle_rule
from veclap.runtime import THREADS_ENV

S = Sphere()
KF = KillingField("z", S)


def setup_forms(k, kg, level, jitter=0.0, **kw):
    mesh = icosphere(level, S, jitter=jitter)
    pmap = parametric_lift(mesh, kg, S)
    space = build_space(mesh, pmap, k)
    return space, pmap, assemble(space, pmap, S, **kw)


def penalty(space, pmap, forms):
    """The penalty k_a of ``forms`` (assembled with ``eta_coeff=1``).

    ``A(eta_coeff=c) = a~ + c / h^2 K``, so ``A(2) - A(1) = K / h^2 = k_a``.
    """
    return assemble(space, pmap, S, eta_coeff=2.0).A - forms.A


def assert_same_pairings(p, q):
    """``p`` and ``q`` are bitwise equal."""
    assert p.lam == q.lam
    for name in ("r", "a_vec", "b_vec"):
        np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
    assert p.a_ee == q.a_ee and p.b_ee == q.b_ee


class ZeroField:
    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def extension_jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (3, 3))


class TestBuildSpace:
    def test_dof_counts_level0(self):
        mesh = icosphere(0)
        pmap = parametric_lift(mesh, 1, S)
        sp1 = build_space(mesh, pmap, 1)
        assert sp1.n_scalar == 12 and sp1.n_dofs == 36
        sp2 = build_space(mesh, pmap, 2)
        assert sp2.n_scalar == 42  # 12 vertices + 30 edges

    def test_dof_counts_level2(self):
        mesh = icosphere(2)
        pmap = parametric_lift(mesh, 1, S)
        assert build_space(mesh, pmap, 1).n_scalar == 162

    def test_degree_guard(self):
        mesh = icosphere(0)
        pmap = parametric_lift(mesh, 1, S)
        with pytest.raises(InputError):
            build_space(mesh, pmap, 5)


class TestAssemble:
    def test_constant_field_mass_equals_area(self):
        for (k, kg) in ((1, 1), (2, 2)):
            space, pmap, forms = setup_forms(k, kg, 1)
            c = np.zeros(space.n_dofs)
            c[:space.n_scalar] = 1.0
            area = surface_area(pmap, forms.quad_degree)
            assert c @ (forms.B @ c) == pytest.approx(area, abs=1e-10)

    def test_symmetry(self):
        space, pmap, forms = setup_forms(2, 2, 1)
        for M in (forms.A, forms.B):
            diff = np.abs((M - M.T).toarray()).max()
            assert diff <= 1e-12 * np.abs(M.toarray()).max()

    def test_penalty_parts_psd_and_B_spd(self):
        space, pmap, forms = setup_forms(1, 1, 1)
        w = np.linalg.eigvalsh(penalty(space, pmap, forms).toarray())
        assert w.min() >= -1e-12 * max(w.max(), 1.0)
        wb = np.linalg.eigvalsh(forms.B.toarray())
        assert wb.min() > 0

    def test_rayleigh_quotient_of_interpolated_killing_field(self):
        space, pmap, forms = setup_forms(1, 1, 3)
        x = interpolate(KF.value, space, pmap, S)
        rq = (x @ (forms.A @ x)) / (x @ (forms.B @ x))
        h = mesh_size(space.mesh)
        assert abs(rq - 1.0) <= h**2

    def test_quadrature_degree_guard(self):
        mesh = icosphere(0)
        pmap = parametric_lift(mesh, 2, S)
        space = build_space(mesh, pmap, 2)
        with pytest.raises(InputError):
            assemble(space, pmap, S, quad_degree=5)

    def test_quadrature_sufficiency(self):
        # doubling the exactness degree moves entries by <= 1e-10 relative
        space, pmap, forms = setup_forms(2, 2, 3)
        doubled = assemble(space, pmap, S, quad_degree=2 * forms.quad_degree)
        for a, b in ((forms.A, doubled.A), (forms.B, doubled.B)):
            rel = np.abs((a - b).data).max() / np.abs(a.data).max()
            assert rel <= 1e-10
        # with affine geometry the B parts are exactly integrated already
        space1, pmap1, f1 = setup_forms(1, 1, 2)
        d1 = assemble(space1, pmap1, S, quad_degree=2 * f1.quad_degree)
        assert np.abs((f1.B - d1.B).data).max() <= 1e-14

    def test_eta_scaling(self):
        space, pmap, f1 = setup_forms(1, 1, 1)
        f4 = assemble(space, pmap, S, eta_coeff=4.0)
        assert f4.eta == pytest.approx(4.0 * f1.eta, rel=1e-14)
        # A(4) - A(1) = 3 k_a; relative to the largest entry, because the
        # difference cancels a~ where k_a itself is tiny
        k_a = penalty(space, pmap, f1).toarray()
        diff = (f4.A - f1.A).toarray() - 3.0 * k_a
        assert np.abs(diff).max() <= 1e-13 * np.abs(3.0 * k_a).max()

    def test_thread_count_does_not_change_bits(self):
        # level 2 has two element chunks, so four threads run them at once;
        # the fused pass pairs the fields, and the standalone pass again
        fields = [KillingField(axis, S) for axis in "zxy"]
        old = os.environ.get(THREADS_ENV)
        try:
            os.environ[THREADS_ENV] = "1"
            s1, p1, f1 = setup_forms(2, 2, 2, jitter=0.3, fields=fields)
            e1 = extended_pairings(fields, 1.0, s1, p1, f1) + list(f1.pairings)
            os.environ[THREADS_ENV] = "4"
            s4, p4, f4 = setup_forms(2, 2, 2, jitter=0.3, fields=fields)
            e4 = extended_pairings(fields, 1.0, s4, p4, f4) + list(f4.pairings)
        finally:
            if old is None:
                os.environ.pop(THREADS_ENV, None)
            else:
                os.environ[THREADS_ENV] = old
        for a, b in ((f1.A, f4.A), (f1.B, f4.B)):
            np.testing.assert_array_equal(a.data, b.data)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.indptr, b.indptr)
        assert len(e1) == 6
        for p1_, p4_ in zip(e1, e4, strict=True):
            assert_same_pairings(p1_, p4_)

    def test_no_fields_no_pairings(self):
        assert setup_forms(1, 1, 0)[2].pairings == ()


def _all_elements(space, forms):
    return np.arange(space.mesh.n_triangles), triangle_rule(forms.quad_degree)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
class TestAgainstReference:
    """Batched kernels against the per-term einsum reference, k = k_g."""

    def test_local_matrices(self, k):
        space, pmap, forms = setup_forms(k, k, 1, jitter=0.3)
        elements, rule = _all_elements(space, forms)
        a_loc, m_loc = _local_matrices(
            _PointData(space, pmap, S, elements, rule, forms.normal_map), forms.eta)
        a_t, k_a, b_t, k_b = reference_local_matrices(
            ReferencePointData(space, pmap, S, elements, rule, forms.normal_map),
            forms.eta)
        b_loc = m_loc[:, :, None, :, None] * np.eye(3)[None, None, :, None, :]
        for new, ref in ((a_loc, a_t + k_a), (b_loc, b_t + k_b)):
            assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_B_is_identity_times_scalar_mass(self, k):
        space, _, forms = setup_forms(k, k, 1, jitter=0.3)
        ns = space.n_scalar
        M = forms.B[:ns, :ns]
        for c in range(3):
            for d in range(3):
                block = forms.B[c * ns:(c + 1) * ns, d * ns:(d + 1) * ns]
                assert (block - M).nnz == 0 if c == d else block.nnz == 0
        assert forms.B.nnz == 3 * M.nnz

    def test_pairings(self, k):
        space, pmap, forms = setup_forms(k, k, 1, jitter=0.3)
        elements, rule = _all_elements(space, forms)
        fields = [KillingField(axis, S) for axis in "zxy"]
        pairings = extended_pairings(fields, 1.0, space, pmap, forms)
        for fld, ep in zip(fields, pairings, strict=True):
            a_vec, b_vec, a_ee, b_ee = reference_pairings(
                fld, space, pmap, forms, rule, elements)
            for new, ref in ((ep.a_vec, a_vec), (ep.b_vec, b_vec)):
                assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()
            assert ep.a_ee == pytest.approx(a_ee, rel=1e-13, abs=0.0)
            assert ep.b_ee == pytest.approx(b_ee, rel=1e-13, abs=0.0)
            single, = extended_pairings([fld], 1.0, space, pmap, forms)
            np.testing.assert_array_equal(single.r, ep.r)
            assert (single.a_ee, single.b_ee) == (ep.a_ee, ep.b_ee)

    def test_fused_pairings_match_standalone(self, k):
        fields = [KillingField(axis, S) for axis in "zxy"]
        space, pmap, forms = setup_forms(k, k, 1, jitter=0.3, fields=fields)
        standalone = extended_pairings(fields, 1.0, space, pmap, forms)
        for fused, alone in zip(forms.pairings, standalone, strict=True):
            assert_same_pairings(fused, alone)


class TestSpectralProperties:
    def test_smallest_eigenvalue_bounded_below(self):
        # discrete ellipticity: lambda_1 >= 0.5 (exact value is 1)
        import scipy.linalg as sla
        for (k, kg, lvl) in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1)):
            _, _, forms = setup_forms(k, kg, lvl)
            w = sla.eigh(forms.A.toarray(), forms.B.toarray(),
                         eigvals_only=True, subset_by_index=[0, 0])
            assert w[0] >= 0.5

    def test_friedrichs_constant_uniform(self):
        # c_F = 1/sqrt(lambda_1) stays bounded along refinement
        import scipy.linalg as sla
        cfs = []
        for lvl in (0, 1, 2):
            _, _, forms = setup_forms(1, 1, lvl)
            w = sla.eigh(forms.A.toarray(), forms.B.toarray(),
                         eigvals_only=True, subset_by_index=[0, 0])
            cfs.append(1.0 / math.sqrt(w[0]))
        assert max(cfs) <= 1.5


class TestInterpolate:
    def test_constant_reproduced(self):
        space, pmap, _ = setup_forms(3, 2, 0)
        const = np.array([0.3, -1.2, 0.7])
        x = interpolate(lambda p: np.broadcast_to(const, p.shape), space, pmap, S)
        for c in range(3):
            block = x[c * space.n_scalar:(c + 1) * space.n_scalar]
            np.testing.assert_allclose(block, const[c], atol=1e-14)

    def test_energy_norm_interpolation_rate(self):
        # degree-2 fields: energy-norm error of the interpolant decays ~ h^2
        errs, hs = [], []
        for lvl in (2, 3, 4):
            space, pmap, forms = setup_forms(2, 1, lvl, jitter=0.3)
            ep = extended_pairings([KF], 1.0, space, pmap, forms)[0]
            x = interpolate(KF.value, space, pmap, S)
            errs.append(math.sqrt(max(
                ep.a_ee - 2.0 * (ep.a_vec @ x) + x @ (forms.A @ x), 0.0)))
            hs.append(mesh_size(space.mesh))
        rate = eoc(errs[-2], errs[-1], hs[-2], hs[-1])
        assert abs(rate - 2.0) <= 0.4

    def test_l2_interpolation_rate_k1(self):
        # L2 error decays ~ h^{k+1} = h^2 for k = 1
        errs, hs = [], []
        for lvl in (2, 3, 4):
            space, pmap, forms = setup_forms(1, 1, lvl, jitter=0.3)
            ep = extended_pairings([KF], 1.0, space, pmap, forms)[0]
            x = interpolate(KF.value, space, pmap, S)
            errs.append(math.sqrt(max(
                ep.b_ee - 2.0 * (ep.b_vec @ x) + x @ (forms.B @ x), 0.0)))
            hs.append(mesh_size(space.mesh))
        rate = eoc(errs[-2], errs[-1], hs[-2], hs[-1])
        assert abs(rate - 2.0) <= 0.4

    def test_penalty_vanishes_on_interpolated_tangential_field(self):
        vals = []
        for lvl in (1, 2, 3):
            space, pmap, forms = setup_forms(1, 1, lvl)
            x = interpolate(KF.value, space, pmap, S)
            vals.append(x @ (penalty(space, pmap, forms) @ x))
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] <= 1e-4


class TestExtendedPairings:
    def test_killing_diagonal_limits(self):
        # int over the sphere of |u_1|^2 = int (x^2 + y^2) = 8 pi / 3;
        # the energy value converges to the same number since E(u_1) = 0
        target = 8.0 * math.pi / 3.0
        errs_b, errs_a = [], []
        for lvl in (2, 3):
            space, pmap, forms = setup_forms(1, 1, lvl)
            ep = extended_pairings([KF], 1.0, space, pmap, forms)[0]
            errs_b.append(abs(ep.b_ee - target))
            errs_a.append(abs(ep.a_ee - target))
        assert errs_b[1] < errs_b[0] and errs_a[1] < errs_a[0]
        assert errs_b[1] <= 0.05 and errs_a[1] <= 0.05

    def test_zero_field(self):
        space, pmap, forms = setup_forms(1, 1, 0)
        ep = extended_pairings([ZeroField()], 1.0, space, pmap, forms)[0]
        assert ep.a_ee == 0.0 and ep.b_ee == 0.0
        assert np.all(ep.a_vec == 0.0) and np.all(ep.r == 0.0)

    def test_defect_is_a_minus_lambda_b(self):
        space, pmap, forms = setup_forms(1, 1, 1)
        ep = extended_pairings([KF], 2.5, space, pmap, forms)[0]
        np.testing.assert_allclose(ep.r, ep.a_vec - 2.5 * ep.b_vec, atol=1e-15)


def test_matrix_market_export(tmp_path):
    space, pmap, forms = setup_forms(1, 1, 0)
    path = tmp_path / "A.mtx"
    write_matrix_market(forms.A, path, comment="test")
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
    # reconstruct and compare against the assembled matrix
    import scipy.sparse as sp
    vals = np.array([float(e[2]) for e in entries])
    low = sp.coo_matrix((vals, (rows - 1, cols - 1)), shape=(n, n)).tocsr()
    full = low + low.T - sp.diags(low.diagonal())
    assert np.abs((full - forms.A).toarray()).max() <= 1e-13


def test_matrix_market_bytes_match_line_loop(tmp_path):
    _, _, forms = setup_forms(2, 2, 1, jitter=0.3)
    for name, mat in (("A", forms.A), ("B", forms.B)):
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(mat, path, comment=f"{name}_h, level 1")
        expected = reference_matrix_market_text(mat, comment=f"{name}_h, level 1")
        assert path.read_bytes() == expected.encode("ascii")
