"""Generalized symmetric eigensolver: dense oracle, shift-invert route,
guards, and the dense LAPACK kernels against their scipy.linalg oracle."""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import veclap.eigensolve as es
from veclap.errors import ConvergenceError, InputError, NumericalError
from veclap.eigensolve import full_spectrum, solve_smallest


def random_spd_pencil(rng, n, spread=50.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = q @ np.diag(rng.uniform(0.5, spread, n)) @ q.T
    r = rng.standard_normal((n, n))
    B = r @ r.T + n * np.eye(n)
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


class TestDense:
    def test_diagonal_problem(self):
        ep = full_spectrum(np.diag([3.0, 1.0, 2.0]), np.eye(3))
        np.testing.assert_allclose(ep.eigenvalues[:2], [1.0, 2.0], atol=1e-14)
        # eigenvectors are signed coordinate vectors
        np.testing.assert_allclose(np.abs(ep.vectors[:, :2]),
                                   [[0, 0], [1, 0], [0, 1]], atol=1e-14)

    def test_identity_pencil(self):
        rng = np.random.default_rng(1)
        A, _ = random_spd_pencil(rng, 12)
        ep = full_spectrum(A, A.copy())
        np.testing.assert_allclose(ep.eigenvalues[:3], 1.0, atol=1e-12)

    def test_two_by_two(self):
        ep = full_spectrum(np.array([[2.0, 0.0], [0.0, 8.0]]), 2.0 * np.eye(2))
        np.testing.assert_allclose(ep.eigenvalues, [1.0, 4.0], atol=1e-14)

    def test_b_not_spd(self):
        with pytest.raises(InputError):
            full_spectrum(np.eye(3), np.diag([1.0, -1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            solve_smallest(np.eye(3), np.eye(4), 1)


class TestFullSpectrum:
    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        A, B = random_spd_pencil(rng, 40)
        ep = full_spectrum(A, B)
        tr = np.trace(np.linalg.solve(B, A))
        assert ep.eigenvalues.sum() == pytest.approx(tr, rel=1e-9)

    def test_b_orthonormality(self):
        rng = np.random.default_rng(6)
        A, B = random_spd_pencil(rng, 30)
        ep = full_spectrum(A, B)
        gram = ep.vectors.T @ B @ ep.vectors
        assert np.abs(gram - np.eye(30)).max() <= 1e-10

    def test_size_guard(self):
        n = es.DENSE_LIMIT + 1
        A = sp.eye(n, format="csr")
        with pytest.raises(InputError):
            full_spectrum(A, A)


class TestDenseKernels:
    """Each kernel makes the LAPACK call scipy.linalg makes, so the bytes
    must be equal, not merely close."""

    @staticmethod
    def assert_same(ours, ref):
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", range(17))
    def test_kernels_equal_scipy_linalg(self, n, order):
        rng = np.random.default_rng(100 + n)
        A, B = random_spd_pencil(rng, n)
        A, B = np.array(A, order=order), np.array(B, order=order)
        # a matrix that is not symmetric: only its lower triangle is read
        R = np.array(rng.standard_normal((n, n)), order=order)
        self.assert_same(es.eigvalsh(A), sla.eigvalsh(A))
        self.assert_same(es.eigvalsh(R), sla.eigvalsh(R))
        self.assert_same(es.eigvalsh(R, B), sla.eigvalsh(R, B))
        for ours, ref in zip(es.eigh(A, B), sla.eigh(A, B)):
            self.assert_same(ours, ref)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_qr_and_svd_equal_numpy_linalg(self, order):
        # tall, wide and square shapes, empty ones included
        rng = np.random.default_rng(7)
        shapes = [(m, n) for m in range(18) for n in range(18)]
        shapes += [tuple(rng.integers(1, 60, 2)) for _ in range(40)]
        for m, n in shapes:
            a = np.array(rng.standard_normal((m, n)), order=order)
            # the layout too: a product with a C- or a Fortran-ordered
            # factor can round differently
            for ours, ref in ((es.qr(a), np.linalg.qr(a)[0]),
                              *zip(es.svd(a)[::2], np.linalg.svd(a)[::2])):
                assert ours.flags.c_contiguous == ref.flags.c_contiguous
            self.assert_same(es.qr(a), np.linalg.qr(a)[0])
            for ours, ref in zip(es.svd(a), np.linalg.svd(a, full_matrices=False),
                                 strict=True):
                self.assert_same(ours, ref)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", range(17))
    def test_solve_spd_equals_a_cholesky_solve(self, n, order):
        # dposv is dpotrf then dpotrs, as cho_factor then cho_solve
        rng = np.random.default_rng(200 + n)
        _, B = random_spd_pencil(rng, n)
        B = np.array(B + 1e-15 * rng.standard_normal((n, n)), order=order)
        rhs = np.array(rng.standard_normal((n, 4)), order=order)
        self.assert_same(es.solve_spd(B, rhs),
                         sla.cho_solve(sla.cho_factor(B, lower=True), rhs))

    def test_non_finite_entries_are_input_errors(self):
        bad = np.eye(3)
        bad[1, 0] = np.nan
        calls = [lambda: es.eigvalsh(bad), lambda: es.eigvalsh(np.eye(3), bad),
                 lambda: es.eigh(bad, np.eye(3)),
                 lambda: es.solve_spd(bad, np.ones((3, 1))),
                 lambda: es.solve_spd(np.eye(3), bad), lambda: es.qr(bad),
                 lambda: es.svd(bad), lambda: full_spectrum(bad, np.eye(3))]
        for call in calls:
            with pytest.raises(InputError, match="non-finite"):
                call()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_the_finite_check_survives_an_overflowing_sum(self, order):
        # every entry is finite, but their sum of squares overflows
        huge = np.array(np.full((3, 3), 1e308), order=order)
        assert es._operand(huge) is huge
        for value in (np.nan, np.inf):
            bad = huge.copy()
            bad[2, 1] = value
            with pytest.raises(InputError, match="non-finite"):
                es._operand(bad)

    def test_no_convergence_is_a_convergence_error(self, monkeypatch):
        # dsygvd's 0 < info <= n: the divide and conquer did not converge
        def failing(a, b, **kwargs):
            return np.zeros(a.shape[0]), np.zeros(a.shape), 1

        monkeypatch.setattr(es.lapack, "dsygvd", failing)
        with pytest.raises(ConvergenceError):
            full_spectrum(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        with pytest.raises(ConvergenceError):
            es.eigvalsh(np.eye(3), np.eye(3))

    def test_svd_no_convergence_is_a_convergence_error(self, monkeypatch):
        def failing(a, **kwargs):
            return np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), 1

        monkeypatch.setattr(es.lapack, "dgesdd", failing)
        with pytest.raises(ConvergenceError):
            es.svd(np.eye(2))

    def test_dsyevr_failure_is_a_numerical_error(self, monkeypatch):
        def failing(a, **kwargs):
            return np.zeros(a.shape[0]), np.zeros(a.shape), 0, np.zeros(0), 1

        monkeypatch.setattr(es.lapack, "dsyevr", failing)
        with pytest.raises(NumericalError, match="dsyevr failed internally"):
            es.eigvalsh(np.eye(3))

    @pytest.mark.parametrize("routine,call", [
        ("dsygvd", lambda: es.eigh(np.eye(2), np.eye(2))),
        pytest.param("dsygvd", lambda: es.eigvalsh(np.eye(2), np.eye(2)),
                     id="dsygvd-values"),
        ("dsyevr", lambda: es.eigvalsh(np.eye(2))),
        ("dsyevr_lwork", lambda: es.eigvalsh(np.eye(2))),
        ("dposv", lambda: es.solve_spd(np.eye(2), np.ones((2, 1)))),
        ("dgeqrf_lwork", lambda: es.qr(np.eye(2))),
        ("dgeqrf", lambda: es.qr(np.eye(2))),
        ("dorgqr", lambda: es.qr(np.eye(2))),
        ("dgesdd_lwork", lambda: es.svd(np.eye(2))),
        ("dgesdd", lambda: es.svd(np.eye(2))),
    ])
    def test_illegal_arguments_are_numerical_errors(self, routine, call, monkeypatch):
        real = getattr(es.lapack, routine)

        def illegal(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], -1)

        monkeypatch.setattr(es.lapack, routine, illegal)
        with pytest.raises(NumericalError, match=f"{routine}: illegal value"):
            call()

    def test_factor_failures_are_numerical_errors(self):
        with pytest.raises(NumericalError, match=r"^matrix is not positive definite "
                                                 r"\(leading minor of order 2\)$"):
            es.solve_spd(np.diag([1.0, -1.0]), np.ones((2, 1)))

    def test_shape_errors_are_input_errors(self):
        with pytest.raises(InputError):
            es.eigvalsh(np.ones((2, 3)))
        with pytest.raises(InputError):
            es.eigh(np.eye(2), np.eye(3))
        with pytest.raises(InputError):
            es.solve_spd(np.eye(2), np.ones((3, 1)))
        with pytest.raises(InputError):
            es.solve_spd(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(InputError):
            es.qr(np.ones(3))
        with pytest.raises(InputError):
            es.svd(np.ones((2, 2, 2)))


def fem_matrix(k, level):
    """``A`` from the assembly at k = k_g on the jittered icosphere."""
    from veclap.fem import assemble, build_space
    from veclap.geometry import Sphere
    from veclap.mesh import icosphere, parametric_lift

    mesh = icosphere(level, Sphere(), jitter=0.3)
    return assemble(build_space(parametric_lift(mesh, k), k)).A


class TestFactorize:
    def test_symmetric_ordering_on_fem_matrix(self):
        A = fem_matrix(4, 1)
        lu = es.factorize(A)
        # pivots stay on the diagonal of the symmetrically permuted A
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        # 284,292 against 820,584 for splu's default ordering and pivoting
        plain = spla.splu(sp.csc_matrix(A))
        assert lu.L.nnz + lu.U.nnz < 0.5 * (plain.L.nnz + plain.U.nnz)

    def test_factors_the_fem_matrix_in_its_own_arrays(self, monkeypatch):
        # A is exactly symmetric CSR, so its arrays are those of its CSC
        # form: SuperLU gets A.data itself, and factorize allocates no copy
        A = fem_matrix(2, 3)
        args = []
        splu = spla.splu

        def capturing_splu(arg, *rest, **kwargs):
            args.append(arg)
            return splu(arg, *rest, **kwargs)

        monkeypatch.setattr(spla, "splu", capturing_splu)
        tracemalloc.start()
        try:
            lu = es.factorize(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arg, = args
        assert np.shares_memory(arg.data, A.data)
        assert peak <= 0.1 * A.data.nbytes
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        x = lu.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_leaves_a_non_canonical_input_unchanged(self):
        # unsorted indices and a duplicate entry, which splu would sort and
        # sum in the arrays it is given
        rng = np.random.default_rng(4)
        D, _ = random_spd_pencil(rng, 5)
        data = np.concatenate([[0.5 * r[0], r[4], r[3], r[2], r[1], 0.5 * r[0]]
                               for r in D])
        indices = np.tile([0, 4, 3, 2, 1, 0], 5)
        A = sp.csr_matrix((data, indices, 6 * np.arange(6)), shape=(5, 5))
        assert not A.has_canonical_format
        arrays = [a.copy() for a in (A.data, A.indices, A.indptr)]
        lu = es.factorize(A)
        for new, old in zip((A.data, A.indices, A.indptr), arrays, strict=True):
            np.testing.assert_array_equal(new, old)
        b = rng.standard_normal(5)
        np.testing.assert_allclose(lu.solve(b), np.linalg.solve(D, b),
                                   rtol=1e-12, atol=0.0)


class TestIterative:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(30, 120))
            A, B = random_spd_pencil(rng, n)
            m = int(rng.integers(2, 8))
            dense = full_spectrum(A, B).eigenvalues[:m]
            it = solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), m)
            rel = np.abs(dense - it.eigenvalues) / dense
            assert rel.max() <= 1e-9
            gram = it.vectors.T @ B @ it.vectors
            assert np.abs(gram - np.eye(m)).max() <= 1e-9

    def test_residual_contract(self):
        rng = np.random.default_rng(9)
        A, B = random_spd_pencil(rng, 80)
        ep = solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 4, tol=1e-11)
        assert ep.residuals.max() <= 1e-11
        assert ep.method == "iterative" and ep.iterations > 0

    def test_pair_contracts(self):
        # X^T B X = I and X^T A X = diag(lambda) within 1e-8 scaled
        rng = np.random.default_rng(14)
        A, B = random_spd_pencil(rng, 90)
        ep = solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 5)
        m = ep.eigenvalues.size
        assert np.abs(ep.vectors.T @ B @ ep.vectors - np.eye(m)).max() <= 1e-8
        diag_dev = np.abs(ep.vectors.T @ A @ ep.vectors
                          - np.diag(ep.eigenvalues)).max()
        assert diag_dev <= 1e-8 * ep.eigenvalues[-1]

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(10)
        A, B = random_spd_pencil(rng, 60)
        e1 = solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 3)
        e2 = solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 3)
        np.testing.assert_array_equal(e1.eigenvalues, e2.eigenvalues)
        np.testing.assert_array_equal(e1.vectors, e2.vectors)

    def test_convergence_error_carries_residuals(self, monkeypatch):
        # one Lanczos restart is too few for ARPACK to converge all 5 pairs
        monkeypatch.setattr(es.spla, "eigsh", functools.partial(spla.eigsh, maxiter=1))
        rng = np.random.default_rng(11)
        A, B = random_spd_pencil(rng, 100)
        with pytest.raises(ConvergenceError) as err:
            solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 5, tol=1e-14)
        assert isinstance(err.value.__cause__, spla.ArpackNoConvergence)
        assert err.value.residuals is not None

    def test_residual_gate(self):
        # ARPACK converges, but no residual can meet tol = 0
        rng = np.random.default_rng(11)
        A, B = random_spd_pencil(rng, 100)
        with pytest.raises(ConvergenceError) as err:
            solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 5, tol=0.0)
        assert err.value.residuals.shape == (5,)


class TestInvariants:
    def test_scaling_invariance(self):
        rng = np.random.default_rng(13)
        A, B = random_spd_pencil(rng, 50)
        base = solve_smallest(A, B, 4)
        scaled = solve_smallest(3.7 * A, 3.7 * B, 4)
        rel = np.abs(base.eigenvalues - scaled.eigenvalues) / base.eigenvalues
        assert rel.max() <= 1e-12

    def test_sphere_spectrum_monotone_convergence(self):
        from veclap.fem import assemble, build_space
        from veclap.geometry import Sphere
        from veclap.mesh import icosphere, parametric_lift

        s = Sphere()
        exact = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        max_err = []
        for lvl in (1, 2, 3):
            mesh = icosphere(lvl, s)
            pmap = parametric_lift(mesh, 1)
            space = build_space(pmap, 1)
            forms = assemble(space)
            ep = solve_smallest(forms.A, forms.B, 6)
            max_err.append(np.abs(ep.eigenvalues - exact).max())
        assert max_err[2] < max_err[1] < max_err[0]

    def test_solver_paths_agree_on_fem_problem(self):
        from veclap.fem import assemble, build_space
        from veclap.geometry import Sphere
        from veclap.mesh import icosphere, parametric_lift

        s = Sphere()
        mesh = icosphere(2, s)
        pmap = parametric_lift(mesh, 2)
        space = build_space(pmap, 1)
        forms = assemble(space)
        dense = full_spectrum(forms.A, forms.B).eigenvalues[:6]
        it = solve_smallest(forms.A, forms.B, 6)
        rel = np.abs(dense - it.eigenvalues) / dense
        assert rel.max() <= 1e-8
