"""Smallest eigenpairs of the symmetric positive-definite generalized
problem A x = lambda B x.

``solve_smallest`` has one route: ARPACK's implicitly restarted Lanczos
method in shift-invert mode with shift sigma = 0 (valid because A is SPD)
and B-inner products, applying A^-1 through a sparse LU factor of A.
``full_spectrum`` is the dense LAPACK generalized symmetric solver
(Cholesky reduction of B, tridiagonalization, divide and conquer) for the
complete spectrum of a small pencil; it serves the abstract framework and
is the oracle of the tests.

``factorize`` builds that factor with a symmetric fill-reducing ordering
(minimum degree on A + A^T) and diagonal pivots; elimination without
pivoting is stable because A is SPD.  Both solvers return B-orthonormal
eigenvectors sorted ascending.  The Lanczos start vector is a fixed
function of the problem size, so repeated solves are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, InputError

__all__ = ["EigenPairs", "factorize", "solve_smallest", "full_spectrum"]

DENSE_LIMIT = 3000


@dataclass(frozen=True)
class EigenPairs:
    """Sorted smallest eigenvalues with B-orthonormal coefficient vectors."""

    eigenvalues: np.ndarray   # (m,) ascending
    vectors: np.ndarray       # (n, m), columns B-orthonormal
    residuals: np.ndarray     # (m,) relative residual norms
    method: str
    iterations: int           # shift-invert solves with A (0 for dense)


def _dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def _residuals(A, B, w, X):
    AX = A @ X
    BX = B @ X
    num = np.linalg.norm(AX - BX * w[None, :], axis=0)
    den = np.linalg.norm(AX, axis=0)
    den[den == 0.0] = 1.0
    return num / den


def _check_pencil(A, B, m):
    if A.shape[0] != A.shape[1] or B.shape != A.shape:
        raise InputError(f"pencil shapes do not match: {A.shape} vs {B.shape}")
    if not (1 <= m <= A.shape[0]):
        raise InputError(f"requested {m} pairs from problem of size {A.shape[0]}")


def factorize(A):
    """Sparse LU factor of the SPD matrix A; its ``solve`` applies A^-1.

    The ordering is symmetric minimum degree on A + A^T and the pivots stay
    on the diagonal, so L and U^T share one sparsity pattern, that of a
    Cholesky factor of the permuted A.  On a matrix that is not SPD the
    factor may be inaccurate; ``solve_smallest``'s residual gate catches
    that.
    """
    try:
        return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise InputError("A is singular") from exc


def _dense_solve(A, B) -> tuple[np.ndarray, np.ndarray]:
    Ad, Bd = _dense(A), _dense(B)
    try:
        return sla.eigh(Ad, Bd)
    except sla.LinAlgError as exc:
        raise InputError("B is not symmetric positive definite") from exc


def _shift_invert_solve(A, B, m, lu) -> tuple[np.ndarray, np.ndarray, int]:
    n = A.shape[0]
    if m >= n:
        raise InputError(f"the shift-invert solver needs fewer than {n} pairs, got {m}")
    solves = 0

    def apply_inverse(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    op = spla.LinearOperator(A.shape, matvec=apply_inverse, dtype=float)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)  # fixed: reproducible
    try:
        w, X = spla.eigsh(A, k=m, M=B, sigma=0.0, OPinv=op, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ARPACK converged {exc.eigenvalues.size} of {m} pairs",
            residuals=_residuals(A, B, exc.eigenvalues, exc.eigenvectors)) from exc
    return w, X, solves


def solve_smallest(A, B, m: int, tol: float = 1e-10) -> EigenPairs:
    """Compute the m smallest eigenpairs of A x = lambda B x (A, B SPD).

    A and B are sparse, in any format (or dense), and are used as given:
    the CSC copy that ``factorize`` makes of A, once, here, is the only
    conversion.  Raises ConvergenceError if any relative residual exceeds
    ``tol``.
    """
    _check_pencil(A, B, m)
    w, X, iterations = _shift_invert_solve(A, B, m, factorize(A))
    res = _residuals(A, B, w, X)
    if np.any(res > tol):
        raise ConvergenceError(
            f"shift-invert Lanczos residual {res.max():.3e} exceeds {tol:.1e}",
            residuals=res)
    return EigenPairs(eigenvalues=w, vectors=X, residuals=res,
                      method="iterative", iterations=iterations)


def full_spectrum(A, B) -> EigenPairs:
    """Complete B-orthonormal eigenbasis (dense only, n <= 3000)."""
    _check_pencil(A, B, 1)
    n = A.shape[0]
    if n > DENSE_LIMIT:
        raise InputError(f"full spectrum limited to n <= {DENSE_LIMIT}, got {n}")
    w, X = _dense_solve(A, B)
    return EigenPairs(eigenvalues=w, vectors=X,
                      residuals=_residuals(A, B, w, X), method="dense", iterations=0)
