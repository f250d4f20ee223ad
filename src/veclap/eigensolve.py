"""Smallest eigenpairs of the symmetric positive-definite generalized
problem A x = lambda B x, and the dense LAPACK kernels of the package.

``solve_smallest`` has one route: ARPACK's implicitly restarted Lanczos
method in shift-invert mode with shift sigma = 0 (valid because A is SPD)
and B-inner products, applying A^-1 through a sparse LU factor of A.
``full_spectrum`` is the dense LAPACK generalized symmetric solver
(Cholesky reduction of B, tridiagonalization, divide and conquer) for the
complete spectrum of a small pencil; it serves the abstract framework and
is the oracle of the tests.

``factorize`` builds that factor with a symmetric fill-reducing ordering
(minimum degree on A + A^T) and diagonal pivots; elimination without
pivoting is stable because A is SPD.  It factors A^T, whose CSC arrays are
the CSR arrays of A, so the exactly symmetric CSR ``A`` of the assembly is
factored without a copy.  Both solvers return B-orthonormal
eigenvectors sorted ascending.  The Lanczos start vector is a fixed
function of the problem size, so repeated solves are bitwise reproducible.

Dense kernels.  ``eigvalsh``, ``eigh``, ``solve_spd``, ``qr`` and ``svd``
call ``scipy.linalg.lapack`` directly.  ``qr`` and ``svd`` make the LAPACK
calls of ``numpy.linalg.qr`` and ``numpy.linalg.svd`` (reduced factors) and
return their bytes, in C order like theirs; ``eigvalsh`` and ``eigh`` make
exactly the call that the ``scipy.linalg`` function of the same name picks
for a real float64 array and return its bytes, and ``solve_spd`` returns
those of ``scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True),
b)``.  They keep the results of those functions on empty matrices.  They
exist because the abstract framework makes 56.28 LAPACK calls per
instance, workspace queries included (the mean over exact-mode seeds
0..99; 57.64 over perturbed-mode seeds 500..599), on matrices of order 16
or less, where the wrappers cost several times the LAPACK work.  The
routines are

* ``eigvalsh(a)``: ``dsyevr`` on the lower triangle, with its workspace
  query; ``eigvalsh(a, b)`` and ``eigh(a, b)``: ``dsygvd`` with itype 1
  and the lower triangles;
* ``solve_spd``: ``dposv`` on the lower triangle;
* ``qr``: ``dgeqrf`` then ``dorgqr``, each with its workspace query, for
  the orthonormal factor Q only;
* ``svd``: ``dgesdd`` with its workspace query, for the thin factors.

Every routine and workspace query is called through ``_call``, which
turns LAPACK's ``info`` into the package's errors.  A non-finite entry, a
malformed shape, and a pencil whose B is not positive definite (``dsygvd``
info > n) are ``InputError``.  A routine that does not converge
(``dsygvd`` with 0 < info <= n, ``dgesdd``) raises ``ConvergenceError``; a
non-positive Cholesky pivot (``dposv``), an internal ``dsyevr`` failure
and an illegal argument raise ``NumericalError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ConvergenceError, InputError, NumericalError

__all__ = ["EigenPairs", "factorize", "solve_smallest", "full_spectrum",
           "eigvalsh", "eigh", "solve_spd", "qr", "svd"]

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
    """Sparse LU factor of the transpose of the SPD matrix A; its ``solve``
    applies A^-T, which is A^-1.

    SuperLU reads compressed columns only, and the CSR arrays of A are the
    CSC arrays of A^T.  So a CSR A in canonical format, such as the exactly
    symmetric ``A`` of ``fem.assemble``, is factored in its own arrays with
    no copy; any other input is converted to CSR once.  The ordering is
    symmetric minimum degree on A + A^T and the pivots stay on the diagonal,
    so L and U^T share one sparsity pattern, that of a Cholesky factor of
    the permuted A.  On a matrix that is not SPD the factor may be
    inaccurate; ``solve_smallest``'s residual gate catches that.
    """
    csr = sp.csr_matrix(A)
    if not csr.has_canonical_format:
        csr = csr.copy()  # splu would sort and sum A's own arrays in place
    try:
        return spla.splu(sp.csc_matrix((csr.data, csr.indices, csr.indptr),
                                       shape=csr.shape[::-1]),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise InputError("A is singular") from exc


def solve_smallest(A, B, m: int, tol: float = 1e-10) -> EigenPairs:
    """Compute the m smallest eigenpairs of A x = lambda B x (A, B SPD).

    A and B are sparse, in any format (or dense), and are used as given:
    ``factorize`` makes no copy of a canonical CSR A, such as that of
    ``fem.assemble``, and one CSR conversion of any other.  Raises
    ConvergenceError if any relative residual exceeds ``tol``.
    """
    _check_pencil(A, B, m)
    n = A.shape[0]
    if m >= n:
        raise InputError(f"the shift-invert solver needs fewer than {n} pairs, got {m}")
    lu = factorize(A)
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
    res = _residuals(A, B, w, X)
    if np.any(res > tol):
        raise ConvergenceError(
            f"shift-invert Lanczos residual {res.max():.3e} exceeds {tol:.1e}",
            residuals=res)
    return EigenPairs(eigenvalues=w, vectors=X, residuals=res,
                      method="iterative", iterations=solves)


def full_spectrum(A, B) -> EigenPairs:
    """Complete B-orthonormal eigenbasis (dense only, n <= 3000).

    The pairs come from ``eigh`` (``dsygvd``) and equal those of
    ``scipy.linalg.eigh`` bit for bit.  Raises InputError on a non-finite
    entry or a B that is not SPD, and ConvergenceError if LAPACK does not
    converge.
    """
    _check_pencil(A, B, 1)
    n = A.shape[0]
    if n > DENSE_LIMIT:
        raise InputError(f"full spectrum limited to n <= {DENSE_LIMIT}, got {n}")
    w, X = eigh(_dense(A), _dense(B))
    return EigenPairs(eigenvalues=w, vectors=X,
                      residuals=_residuals(A, B, w, X), method="dense", iterations=0)


# ---------------------------------------------------------------------------
# dense LAPACK kernels
# ---------------------------------------------------------------------------

def _operand(a, square=True) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
        raise InputError(f"expected a {'square ' if square else ''}matrix, "
                         f"got shape {a.shape}")
    # a non-finite entry makes vdot(a, a) non-finite; unlike a.sum(), vdot
    # raises no overflow warning, and a finite a that overflows it is tested in full
    if not math.isfinite(np.vdot(a, a)) and not np.isfinite(a).all():
        raise InputError("matrix has a non-finite entry")
    return a


def _call(routine, *args, failed=None, **kw):
    """Call ``lapack.<routine>``, looked up at each call so that a test can
    replace it, and return its outputs without the trailing ``info`` (the
    one output itself if there is only one).  A negative ``info`` raises
    NumericalError for the illegal argument; a positive one raises
    ``failed(info)``, by default a NumericalError."""
    out = getattr(lapack, routine)(*args, **kw)
    info = out[-1]
    if info < 0:
        raise NumericalError(f"{routine}: illegal value in argument {-info}")
    if info > 0:
        raise (failed(info) if failed else
               NumericalError(f"{routine} failed internally (info {info})"))
    return out[0] if len(out) == 2 else out[:-1]


def _sygvd(a, b, jobz) -> tuple[np.ndarray, np.ndarray]:
    a, b = _operand(a), _operand(b)
    if b.shape != a.shape:
        raise InputError(f"pencil shapes do not match: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n == 0:
        return np.empty(0), np.empty((0, 0))

    def failed(info):
        if info > n:
            return InputError(f"B is not symmetric positive definite (leading "
                              f"minor of order {info - n})")
        return ConvergenceError(f"dsygvd did not converge (info {info})")

    return _call("dsygvd", a, b, itype=1, jobz=jobz, uplo="L", overwrite_a=0,
                 overwrite_b=0, failed=failed)


def eigvalsh(a, b=None) -> np.ndarray:
    """Ascending eigenvalues of the symmetric ``a``, or of the pencil
    (a, b) with b SPD; only the lower triangles are read."""
    if b is not None:
        return _sygvd(a, b, "N")[0]
    a = _operand(a)
    n = a.shape[0]
    if n == 0:
        return np.empty(0)
    work, iwork = _call("dsyevr_lwork", n, lower=1)
    return _call("dsyevr", a, compute_v=0, lower=1, lwork=int(work),
                 liwork=int(iwork), overwrite_a=0)[0]


def eigh(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and b-orthonormal eigenvectors of the pencil
    (a, b) with b SPD; only the lower triangles are read."""
    return _sygvd(a, b, "V")


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a x = b`` for the SPD ``a`` (lower triangle read) and the
    matrix ``b``."""
    a, b = _operand(a), _operand(b, square=False)
    if a.shape[0] != b.shape[0]:
        raise InputError(f"shapes {a.shape} and {b.shape} do not match")
    if b.size == 0:
        return np.empty_like(b)
    return _call("dposv", a, b, lower=1, overwrite_a=0, overwrite_b=0,
                 failed=lambda info: NumericalError(
                     f"matrix is not positive definite (leading minor of "
                     f"order {info})"))[1]


def qr(a) -> np.ndarray:
    """Orthonormal factor Q (m x min(m, n)) of the reduced QR factorization
    of ``a``, C-ordered like ``numpy.linalg.qr``'s; no caller needs R."""
    a = _operand(a, square=False)
    m, n = a.shape
    k = min(m, n)
    if k == 0:
        return np.empty((m, k))
    work = _call("dgeqrf_lwork", m, n)
    packed, tau, _ = _call("dgeqrf", a, lwork=int(work), overwrite_a=0)
    packed = packed[:, :k]
    work = _call("dorgqr", packed, tau, lwork=-1)[1]
    return np.ascontiguousarray(
        _call("dorgqr", packed, tau, lwork=int(work[0]), overwrite_a=1)[0])


def svd(a):
    """Thin factors ``(u, s, vt)`` of ``a`` (m x n), u m x k and vt k x n
    for k = min(m, n), singular values descending, C-ordered like
    ``numpy.linalg.svd``'s."""
    a = _operand(a, square=False)
    m, n = a.shape
    if min(m, n) == 0:
        return np.empty((m, 0)), np.empty(0), np.empty((0, n))
    work = _call("dgesdd_lwork", m, n, compute_uv=1, full_matrices=0)
    u, s, vt = _call("dgesdd", a, compute_uv=1, full_matrices=0, lwork=int(work),
                     overwrite_a=0,
                     failed=lambda info: ConvergenceError("dgesdd did not converge"))
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)
