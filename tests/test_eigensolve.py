"""Generalized symmetric eigensolver: dense oracle, the preconditioned
LOBPCG route, the inertia count, guards, and the dense LAPACK kernels
against their scipy.linalg oracle."""

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


def fem_forms(k, level):
    """The forms of the assembly at k = k_g on the jittered icosphere."""
    from veclap.fem import assemble, build_space
    from veclap.geometry import Sphere
    from veclap.mesh import icosphere, parametric_lift

    mesh = icosphere(level, Sphere(), jitter=0.3)
    return assemble(build_space(parametric_lift(mesh, k), k))


def fem_matrix(k, level):
    """``A`` from the assembly at k = k_g on the jittered icosphere."""
    return fem_forms(k, level).A


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

    def test_single_precision_factor_copies_only_the_data(self, monkeypatch):
        # SuperLU gets A's index arrays themselves and one float32 copy of
        # the data, scaled as it is cast: no float64 temporary the size of A
        A = fem_matrix(2, 3)
        args = []
        splu = spla.splu

        def capturing_splu(arg, *rest, **kwargs):
            args.append(arg)
            return splu(arg, *rest, **kwargs)

        monkeypatch.setattr(spla, "splu", capturing_splu)
        tracemalloc.start()
        try:
            lu = es.factorize(A, np.float32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arg, = args
        assert arg.data.dtype == np.float32 and lu.U.dtype == np.float32
        assert np.shares_memory(arg.indices, A.indices)
        assert np.shares_memory(arg.indptr, A.indptr)
        assert arg.data.nbytes <= 0.5 * A.data.nbytes
        # beyond the copy, only the cast's buffer of getbufsize() doubles
        # and a few small objects
        assert peak <= 0.5 * A.data.nbytes + 8 * np.getbufsize() + 4096
        # the factor is of A over its largest entry, to single precision
        scale = np.abs(A.data).max()
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        x = lu.solve(b.astype(np.float32)).astype(float)
        assert np.linalg.norm(A @ x / scale - b) <= 1e-3 * np.linalg.norm(b)

    def test_incomplete_factor_copies_only_the_data_and_fills_less(self, monkeypatch):
        # above COMPLETE_FACTOR_MAX_DOFS, the float32 factor is incomplete:
        # it reads the same scaled copy in A's own index arrays as the
        # complete one, with a smaller fill (1.06M against 1.48M at (2,2,3))
        A = fem_matrix(2, 3)
        args = []
        spilu = spla.spilu

        def capturing_spilu(arg, *rest, **kwargs):
            args.append((arg, kwargs))
            return spilu(arg, *rest, **kwargs)

        monkeypatch.setattr(spla, "spilu", capturing_spilu)
        complete = es.factorize(A, np.float32)
        assert not args
        monkeypatch.setattr(es, "COMPLETE_FACTOR_MAX_DOFS", A.shape[0] - 1)
        ilu = es.factorize(A, np.float32)
        (arg, kwargs), = args
        assert arg.data.dtype == np.float32
        assert np.shares_memory(arg.indices, A.indices)
        assert np.shares_memory(arg.indptr, A.indptr)
        assert kwargs["drop_tol"] == es.ILU_DROP_TOL
        assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
        assert kwargs["diag_pivot_thresh"] == 0.0
        assert kwargs["options"] == {"SymmetricMode": True}
        np.testing.assert_array_equal(ilu.perm_r, ilu.perm_c)
        assert ilu.nnz < 0.8 * complete.nnz
        # the float64 factor, which counts inertia, is always complete
        es.factorize(A)
        assert len(args) == 1

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
        # one iteration is too few for LOBPCG to converge all 5 pairs
        monkeypatch.setattr(es, "LOBPCG_MAXITER", 1)
        rng = np.random.default_rng(11)
        A, B = random_spd_pencil(rng, 100)
        with pytest.raises(ConvergenceError, match="LOBPCG residual") as err:
            solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 5, tol=1e-14)
        assert err.value.residuals.shape == (5,)
        assert err.value.residuals.max() > 1e-14

    def test_lobpcg_errors_are_convergence_errors(self):
        # a start block with two equal columns has no B-orthonormal basis,
        # and LOBPCG raises ValueError: a typed error, and no warning
        A, B = random_spd_pencil(np.random.default_rng(11), 40)
        start = np.random.default_rng(12).standard_normal((40, 3))
        start[:, 2] = start[:, 0]
        with pytest.raises(ConvergenceError, match="LOBPCG failed") as err:
            solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 3, start=start)
        assert isinstance(err.value.__cause__, ValueError)

    def test_start_block_must_hold_m_columns(self):
        A, B = random_spd_pencil(np.random.default_rng(11), 40)
        with pytest.raises(InputError, match="start block"):
            solve_smallest(A, B, 3, start=np.ones((40, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_a_non_finite_start_fails_before_the_factor(self, value, blocks,
                                                         monkeypatch):
        # a caller's input error, raised before A is factored, in the first
        # block or a later one
        def no_factor(*args, **kwargs):
            raise AssertionError("factored A for a non-finite start")

        monkeypatch.setattr(es, "factorize", no_factor)
        A, B = random_spd_pencil(np.random.default_rng(11), 40)
        start = np.random.default_rng(12).standard_normal((40, 4))
        start[7, -1] = value
        start = start if blocks == 1 else (start[:, :2], start[:, 2:])
        with pytest.raises(InputError, match="start block has a non-finite entry"):
            solve_smallest(A, B, 3, start=start)

    @pytest.mark.parametrize("start", [
        (np.ones((40, 2)), np.ones(40)),
        (np.ones((40, 2)), np.ones((39, 2))),
        (np.ones((40, 1)), np.ones((40, 1))),
        (),
    ], ids=["one-dimensional", "short", "narrow", "none"])
    def test_malformed_start_blocks_are_input_errors(self, start, monkeypatch):
        monkeypatch.setattr(es, "factorize", None)  # never reached
        A, B = random_spd_pencil(np.random.default_rng(11), 40)
        with pytest.raises(InputError, match="start block of shape .* does not "
                                             "hold 3 columns of length 40"):
            solve_smallest(A, B, 3, start=start)

    def test_the_start_block_is_left_unchanged(self):
        # LOBPCG B-orthonormalizes its start block in place
        A, B = random_spd_pencil(np.random.default_rng(11), 60)
        start = np.random.default_rng(12).standard_normal((60, 4))
        kept = start.copy()
        ep = solve_smallest(A, B, 3, start=start)
        np.testing.assert_array_equal(start, kept)
        dense = full_spectrum(A, B).eigenvalues[:3]
        np.testing.assert_allclose(ep.eigenvalues, dense, rtol=1e-12)

    @pytest.mark.parametrize("complete_max", [10**9, 0], ids=["complete", "incomplete"])
    def test_preconditioner_failures_are_convergence_errors(self, complete_max,
                                                            monkeypatch):
        # a float64 A whose single-precision copy is singular (the entry
        # 1e-50 vanishes in float32), and an A with a non-finite entry, on
        # either route
        monkeypatch.setattr(es, "COMPLETE_FACTOR_MAX_DOFS", complete_max)
        B = sp.identity(60, format="csr")
        tiny = sp.diags(np.r_[1e-50, np.arange(2.0, 61.0)], format="csr")
        huge = sp.diags(np.r_[np.inf, np.arange(2.0, 61.0)], format="csr")
        for A in (tiny, huge):
            with pytest.raises(ConvergenceError, match="single-precision preconditioner"):
                solve_smallest(A, B, 2)

    def test_residual_gate(self):
        # LOBPCG runs to its iteration limit, and no residual can meet tol = 0
        rng = np.random.default_rng(11)
        A, B = random_spd_pencil(rng, 100)
        with pytest.raises(ConvergenceError) as err:
            solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), 5, tol=0.0)
        assert err.value.residuals.shape == (5,)


class TestInertia:
    @pytest.fixture(scope="class")
    def level3(self):
        forms = fem_forms(2, 3)
        return forms, solve_smallest(forms.A, forms.B, 6).eigenvalues

    def test_counts_the_eigenvalues_below_sigma(self, level3):
        # (2,2,3): above the lambda = 2 cluster, inside it, and between the
        # two clusters
        (forms, w) = level3
        assert es.count_below(forms.A, forms.B, 1.02 * w[5]) == 6
        assert es.count_below(forms.A, forms.B, 0.5 * (w[4] + w[5])) == 5
        assert es.count_below(forms.A, forms.B, 0.5 * (w[2] + w[3])) == 3

    def test_certified_solve(self, level3):
        forms, w = level3
        ep = solve_smallest(forms.A, forms.B, 6, certify=True)
        np.testing.assert_allclose(ep.eigenvalues, w, rtol=1e-13)

    def test_a_split_cluster_fails_certification(self):
        # lambda_2 = lambda_3 = 2: two pairs split the cluster, and the count
        # below 2 (1 + 1e-6) is 3
        A = sp.diags(np.r_[1.0, 2.0, 2.0, np.arange(3.0, 60.0)], format="csr")
        B = sp.identity(60, format="csr")
        assert solve_smallest(A, B, 3, certify=True).eigenvalues[-1] == pytest.approx(2.0)
        with pytest.raises(ConvergenceError, match="3 eigenvalues lie below"):
            solve_smallest(A, B, 2, certify=True)

    def test_sigma_at_an_eigenvalue_moves_up(self, monkeypatch):
        # sigma = 2 makes A - sigma B exactly singular, and 2 (1 + 1e-15)
        # leaves a pivot of 4e-16 whose sign round-off decides: both count
        # at a sigma moved up past the eigenvalue 2
        A = sp.diags(np.arange(1.0, 11.0), format="csr")
        B = sp.identity(10, format="csr")
        assert es.count_below(A, B, 2.5) == 2
        assert es.count_below(A, B, 2.0) == 2
        assert es.count_below(A, B, 2.0 * (1.0 + 1e-15)) == 2
        assert es.count_below(A, B, 2.0 * (1.0 - 1e-15)) == 2
        # a sigma clearly below the eigenvalue is not moved past it
        assert es.count_below(A, B, 2.0 * (1.0 - 0.9 * es.CERTIFY_MARGIN)) == 1
        monkeypatch.setattr(es, "SHIFT_TRIES", 0)
        with pytest.raises(NumericalError, match="singular"):
            es.count_below(A, B, 2.0)
        with pytest.raises(NumericalError, match="singular"):
            es.count_below(A, B, 2.0 * (1.0 + 1e-15))


def sphere_start(k, level):
    """The forms at k = k_g on the jittered icosphere, and the study's start
    block of six interpolated eigenfields."""
    from veclap import analysis
    from veclap.fem import assemble, build_space, interpolate
    from veclap.geometry import Sphere
    from veclap.mesh import icosphere, parametric_lift

    space = build_space(parametric_lift(icosphere(level, Sphere(), jitter=0.3), k), k)
    return assemble(space), interpolate(analysis._sphere_eigenfields, space)


class TestRoutes:
    """The preconditioner is the complete float32 factor up to
    ``COMPLETE_FACTOR_MAX_DOFS`` DOFs and the incomplete one above; both
    routes give the same pairs."""

    @staticmethod
    def counting(monkeypatch):
        calls = {"splu": 0, "spilu": 0}
        for name in calls:
            real = getattr(spla, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(spla, name, counted)
        return calls

    @pytest.mark.parametrize("k,level", [(1, 3), (2, 3), (3, 2), (4, 2)])
    def test_the_routes_agree(self, k, level, monkeypatch):
        forms, start = sphere_start(k, level)
        n = forms.A.shape[0]
        calls = self.counting(monkeypatch)
        monkeypatch.setattr(es, "COMPLETE_FACTOR_MAX_DOFS", n)
        complete = solve_smallest(forms.A, forms.B, 6, start=start)
        assert calls == {"splu": 1, "spilu": 0}
        monkeypatch.setattr(es, "COMPLETE_FACTOR_MAX_DOFS", n - 1)
        incomplete = solve_smallest(forms.A, forms.B, 6, start=start)
        assert calls == {"splu": 1, "spilu": 1}
        np.testing.assert_allclose(incomplete.eigenvalues, complete.eigenvalues,
                                   rtol=1e-13, atol=0.0)
        for ep in (complete, incomplete):
            assert ep.residuals.max() <= 0.1 * 1e-10

    def test_the_preconditioner_scales_as_it_casts(self, monkeypatch):
        # each column over its largest entry in magnitude, written straight
        # into float32: bitwise the solve of the float64 quotient, cast
        forms, start = sphere_start(1, 2)
        preconditioners = []
        lobpcg = spla.lobpcg

        def capturing(*args, M, **kwargs):
            preconditioners.append(M)
            return lobpcg(*args, M=M, **kwargs)

        monkeypatch.setattr(spla, "lobpcg", capturing)
        solve_smallest(forms.A, forms.B, 3, start=start[:, :3])
        lu = es.factorize(forms.A, np.float32)
        R = np.random.default_rng(5).standard_normal((forms.A.shape[0], 4))
        R[:, 1] *= 1e-30
        R[:, 2] *= 1e30
        reference = lu.solve((R / np.abs(R).max(axis=0)).astype(np.float32))
        for M in preconditioners:
            ours = M(R)
            assert ours.dtype == np.float64
            np.testing.assert_array_equal(ours, reference.astype(float))

    def test_the_threshold_lies_between_the_measured_sizes(self):
        # the complete factor up to (3,3,3)'s 17,286 DOFs, where the
        # incomplete one saved 8 MB for 27% more time, and the incomplete
        # one from (2,2,4)'s 30,726 on
        assert 17_286 <= es.COMPLETE_FACTOR_MAX_DOFS < 30_726


def clusters(start):
    """The study's start blocks: the Killing fields, then the P e_i fields."""
    return start[:, :3], start[:, 3:]


class TestClusters:
    """A start of one block per cluster is solved a cluster at a time,
    B-orthogonally to the clusters before it, under one factor."""

    @pytest.mark.parametrize("k,level", [(1, 3), (2, 3), (3, 2), (4, 2)])
    def test_the_cluster_route_matches_the_one_block_route(self, k, level,
                                                           monkeypatch):
        forms, start = sphere_start(k, level)
        calls = TestRoutes.counting(monkeypatch)
        whole = solve_smallest(forms.A, forms.B, 6, start=start)
        split = solve_smallest(forms.A, forms.B, 6, start=clusters(start))
        assert sum(calls.values()) == 2  # one factor per solve
        np.testing.assert_allclose(split.eigenvalues, whole.eigenvalues,
                                   rtol=1e-13, atol=0.0)
        assert np.all(np.diff(split.eigenvalues) >= 0.0)
        X = split.vectors
        assert np.abs(X.T @ (forms.B @ X) - np.eye(6)).max() <= 1e-12
        assert split.residuals.max() <= 0.1 * 1e-10
        # (1,1,3) 65 -> 60 column solves, (2,2,3) 48 -> 47, (3,3,2) 57 -> 57,
        # (4,4,2) 44 -> 46
        assert split.iterations <= whole.iterations + 3

    def test_iterations_count_the_solves_of_every_block(self, monkeypatch):
        # the lambda = 2 block runs with the Killing cluster's vectors as
        # its constraint, and both blocks' column solves are counted
        forms, start = sphere_start(2, 2)
        runs = []
        lobpcg = spla.lobpcg

        def counting(*args, M, Y=None, **kwargs):
            run = {"Y": None if Y is None else Y.shape, "solves": 0}
            runs.append(run)

            def counted(R):
                run["solves"] += R.shape[1]
                return M(R)

            return lobpcg(*args, M=counted, Y=Y, **kwargs)

        monkeypatch.setattr(spla, "lobpcg", counting)
        ep = solve_smallest(forms.A, forms.B, 6, start=clusters(start))
        n = forms.A.shape[0]
        assert [run["Y"] for run in runs] == [None, (n, 3)]
        assert all(run["solves"] > 0 for run in runs)
        assert ep.iterations == sum(run["solves"] for run in runs)

    def test_peak_memory(self):
        # (2,2,3): LOBPCG keeps about 17 blocks as wide as its start, so
        # solving the two clusters in turn peaks at 4.1 MiB here, and the
        # one block of six columns at 6.7 MiB.  SuperLU allocates its factor
        # outside numpy's traced memory, so this pins LOBPCG's workspace only
        forms, start = sphere_start(2, 3)
        blocks = clusters(start)
        tracemalloc.start()
        try:
            solve_smallest(forms.A, forms.B, 6, start=blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 2**20

    def test_a_constraint_on_too_small_a_problem_is_a_convergence_error(self):
        # LOBPCG solves a block of p columns on fewer than 5 p free rows
        # densely, which takes no constraint: a typed error
        A = sp.diags(np.arange(1.0, 17.0), format="csr")
        B = sp.identity(16, format="csr")
        start = np.random.default_rng(12).standard_normal((16, 6))
        with pytest.raises(ConvergenceError, match="LOBPCG failed") as err:
            solve_smallest(A, B, 6, start=clusters(start))
        assert isinstance(err.value.__cause__, NotImplementedError)


class TestRelativeStop:
    """LOBPCG's stop is relative to the scale of A x, so the residual gate
    keeps its margin however A and B are scaled."""

    @pytest.fixture(scope="class")
    def level3(self):
        return sphere_start(2, 3)

    def test_a_scaled_pencil_keeps_the_margin(self, level3):
        # scaling A and B by 1e-6 shrinks the residual norms of B-normalized
        # columns by 1e-3; an absolute stop would then end 1e3 times early
        # and fail the relative gate
        forms, start = level3
        base = solve_smallest(forms.A, forms.B, 6, start=start)
        scaled = solve_smallest(1e-6 * forms.A, 1e-6 * forms.B, 6, start=start)
        assert scaled.residuals.max() <= 0.1 * 1e-10
        np.testing.assert_allclose(scaled.eigenvalues, base.eigenvalues,
                                   rtol=1e-13, atol=0.0)

    def test_a_random_start_runs_again_from_its_ritz_vectors(self, level3):
        # a random block's ||A x|| is about 700 times that of the
        # eigenvectors, so the first run's stop is loose, and LOBPCG runs
        # once more from its result
        forms, start = level3
        calls = []
        lobpcg = spla.lobpcg

        def counting(*args, **kwargs):
            calls.append(kwargs["tol"])
            return lobpcg(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spla, "lobpcg", counting)
            random = solve_smallest(forms.A, forms.B, 6)
            assert len(calls) == 2 and calls[1] < 0.01 * calls[0]
            started = solve_smallest(forms.A, forms.B, 6, start=start)
            assert len(calls) == 3
        assert random.residuals.max() <= 0.1 * 1e-10
        np.testing.assert_allclose(random.eigenvalues, started.eigenvalues,
                                   rtol=1e-13, atol=0.0)


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
