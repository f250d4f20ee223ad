"""Smallest eigenpairs of the symmetric positive-definite generalized
problem A x = lambda B x, and the dense LAPACK kernels of the package.

``solve_smallest`` has one route: ``scipy.sparse.linalg.lobpcg``, the
locally optimal block preconditioned conjugate gradient method (Knyazev,
SIAM J. Sci. Comput. 23, 2001), on the pencil (A, B), preconditioned by
the solve of a single-precision sparse LU factor of A.  LOBPCG needs only
an approximate inverse, and it ignores the scale of each preconditioned
column, so the factor is of a copy of A scaled to a largest entry of 1 and
cast to float32, and each residual column is scaled the same way as it
is cast, before its solve; the residuals themselves are formed in float64.
Above ``COMPLETE_FACTOR_MAX_DOFS`` unknowns the factor is incomplete
(threshold ILU, drop tolerance ``ILU_DROP_TOL``): its fill grows about as
n, where the complete factor's grows about 5x per 4x in n, so a fine
level's peak memory falls, for more column solves.  The caller may start
the iteration from a block that spans the wanted eigenvectors
approximately, or from one such block per eigenvalue cluster (the FEM
levels start from the interpolated closed-form sphere eigenfields, one
block per cluster); the default start is a seeded random block of m
columns, fixed so that repeated solves are bitwise reproducible.  Cluster
blocks are solved one at a time under one factor, each B-orthogonally to
the clusters before it (LOBPCG's constraint block ``Y``), so LOBPCG's
workspace is one cluster wide.  LOBPCG's stop is relative to the scale of
``A x`` on each block, and every returned pair must pass a float64
relative-residual gate.  On request,
``count_below``'s inertia count certifies that the m pairs are the m
smallest.  ``full_spectrum`` is the dense LAPACK generalized symmetric
solver (Cholesky reduction of B, tridiagonalization, divide and conquer)
for the complete spectrum of a small pencil; it serves the abstract
framework and is the oracle of the tests.

``factorize`` is the package's one sparse LU call site, complete
(``splu``) or incomplete (``spilu``).  It uses a
symmetric fill-reducing ordering (minimum degree on A + A^T) and diagonal
pivots; elimination without pivoting is stable because A is SPD.  It
factors A^T, whose CSC arrays are the CSR arrays of A, so the exactly
symmetric CSR ``A`` of the assembly is factored in its own index arrays,
and in float64 in its own data.  Since perm_r equals perm_c, the signs of
the factor's diagonal give the inertia of a symmetric matrix (Sylvester's
law), which ``count_below`` reads on A - sigma B.  Both eigensolvers
return B-orthonormal eigenvectors sorted ascending.

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
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ConvergenceError, InputError, NumericalError

__all__ = ["EigenPairs", "factorize", "count_below", "solve_smallest",
           "full_spectrum", "eigvalsh", "eigh", "solve_spd", "qr", "svd"]

DENSE_LIMIT = 3000
# LOBPCG stops once the residual norm ||A x - lambda B x|| of every
# B-normalized column is below LOBPCG_TOL_RATIO * tol * s, with s the
# smallest ||A x|| of the block it starts from.  A returned block whose
# smallest ||A x|| fell below s / 2 runs again from itself, so every pair
# meets the relative gate with a margin of 1 / (2 LOBPCG_TOL_RATIO) = 10
LOBPCG_TOL_RATIO = 5e-2
LOBPCG_MAXITER = 200
# LOBPCG's preconditioner is the complete float32 factor of A up to this
# many DOFs, and above it the incomplete one of drop tolerance ILU_DROP_TOL
COMPLETE_FACTOR_MAX_DOFS = 20_000
ILU_DROP_TOL = 3e-4
# certification counts the eigenvalues below lambda_m (1 + CERTIFY_MARGIN)
CERTIFY_MARGIN = 1e-6
# count_below moves sigma up at most SHIFT_TRIES times, while a pivot of
# A - sigma B is below TINY_PIVOT times the largest one in magnitude
SHIFT_TRIES = 4
TINY_PIVOT = 1e-10


@dataclass(frozen=True)
class EigenPairs:
    """Sorted smallest eigenvalues with B-orthonormal coefficient vectors."""

    eigenvalues: np.ndarray   # (m,) ascending
    vectors: np.ndarray       # (n, m), columns B-orthonormal
    residuals: np.ndarray     # (m,) relative residual norms
    method: str
    iterations: int           # preconditioner column solves (0 for dense)


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


def factorize(A, dtype=np.float64):
    """Sparse LU factor of the transpose of the SPD matrix A, in ``dtype``
    (float64 or float32); its ``solve`` applies A^-T, which is A^-1.  A
    float32 factor is a preconditioner: it is that of A divided by its
    largest entry in magnitude, so its solve applies A^-1 up to a positive
    scale, and for more than ``COMPLETE_FACTOR_MAX_DOFS`` unknowns it is
    incomplete: SuperLU's threshold ILU (``spilu``; Li and Shao, ACM TOMS
    37, 2011) drops the entries below ``ILU_DROP_TOL`` relative to their
    column, and its solve applies A^-1 only approximately.

    SuperLU reads compressed columns only, and the CSR arrays of A are the
    CSC arrays of A^T.  So a CSR A in canonical format, such as the exactly
    symmetric ``A`` of ``fem.assemble``, is factored in its own index
    arrays, and in float64 in its own data, with no copy; any other input
    is converted to CSR once.  The float32 data is one copy, which the
    scaling writes into as it casts, so the cast cannot overflow and no
    float64 temporary the size of A is made.  The ordering is symmetric
    minimum degree on A + A^T and the pivots stay on the diagonal, so L and
    U^T share one sparsity pattern, that of a Cholesky factor of the
    permuted A (before any drop).  On a matrix that is not SPD the factor
    may be inaccurate; ``solve_smallest``'s residual gate catches that.
    Raises InputError if A is singular in ``dtype``, or if a float32 copy
    is asked of an A with a non-finite entry or no nonzero one.
    """
    csr = sp.csr_matrix(A)
    if not csr.has_canonical_format:
        csr = csr.copy()  # SuperLU would sort and sum A's own arrays in place
    data, dtype = csr.data, np.dtype(dtype)
    if dtype != data.dtype:
        # min and max allocate nothing, and a nan makes one of them nan
        lo, hi = float(data.min(initial=0.0)), float(data.max(initial=0.0))
        if not (math.isfinite(lo) and math.isfinite(hi) and max(-lo, hi) > 0.0):
            raise InputError(f"A has no finite scale for a {dtype} copy")
        data = np.divide(data, max(-lo, hi), out=np.empty(data.size, dtype),
                         casting="same_kind")
    At = sp.csc_matrix((data, csr.indices, csr.indptr), shape=csr.shape[::-1])
    kw = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    try:
        if dtype == np.float32 and csr.shape[0] > COMPLETE_FACTOR_MAX_DOFS:
            return spla.spilu(At, drop_tol=ILU_DROP_TOL, **kw)
        return spla.splu(At, **kw)
    except RuntimeError as exc:
        raise InputError(f"A is singular in {dtype}") from exc


def count_below(A, B, sigma: float) -> int:
    """The number of eigenvalues of A x = lambda B x (A symmetric, B SPD)
    below ``sigma``.

    By Sylvester's law of inertia it is the number of negative pivots of a
    symmetric factorization of A - sigma B (Grimes, Lewis and Simon, SIAM J.
    Matrix Anal. Appl. 15, 1994).  The float64 ``factorize`` keeps its
    pivots on the diagonal, so they are the diagonal of U.  A pivot whose
    sign round-off can flip, below ``TINY_PIVOT`` times the largest one, or
    an exactly singular A - sigma B means that sigma lies on an eigenvalue
    to working precision: the count is then taken at a sigma moved up in
    steps of ``CERTIFY_MARGIN / 4`` relative, at most ``SHIFT_TRIES`` times,
    so an eigenvalue at sigma is counted.  Raises NumericalError if no such
    sigma gives a clear count.
    """
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    for step in range(SHIFT_TRIES + 1):
        shifted = sigma + step * 0.25 * CERTIFY_MARGIN * abs(sigma)
        try:
            pivots = factorize(A - shifted * B).U.diagonal()
        except InputError:
            continue
        magnitude = np.abs(pivots)
        if magnitude.min() > TINY_PIVOT * magnitude.max():
            return int(np.count_nonzero(pivots < 0.0))
    raise NumericalError(f"A - sigma B is singular near sigma = {sigma:.17g}")


def _block_scale(A, B, X) -> float:
    """The smallest ||A x|| over the columns of X, each B-normalized."""
    return float(np.min(np.linalg.norm(A @ X, axis=0)
                        / np.sqrt(np.einsum("ij,ij->j", X, B @ X))))


def _lobpcg(A, B, blocks, tol):
    """LOBPCG on (A, B) from each block in turn, B-orthogonal to the Ritz
    vectors of the blocks before it (the constraint block ``Y``), all
    preconditioned by the solve of one ``factorize(A, np.float32)``: the
    Ritz values of all blocks ascending with their vectors, and the number
    of column solves.  Each block's stop is relative to its own scale, as
    ``LOBPCG_TOL_RATIO`` says.  A block is copied only when its turn comes,
    as LOBPCG overwrites its start.  The factor is freed on return."""
    try:
        lu = factorize(A, np.float32)
    except InputError as exc:
        raise ConvergenceError(f"single-precision preconditioner: {exc}") from exc
    solves = 0

    def precondition(R):
        nonlocal solves
        solves += R.shape[1]
        # LOBPCG ignores each column's scale; a largest entry of 1 keeps
        # the cast to float32 finite, and the division writes into it
        scale = np.maximum(R.max(axis=0), -R.min(axis=0))
        R = np.divide(R, scale, out=np.empty(R.shape, np.float32),
                      casting="same_kind")
        return lu.solve(R).astype(float)

    values, vectors = [], []
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for X in blocks:
            X = np.array(X, dtype=float)
            Y = np.hstack(vectors) if vectors else None
            scale = _block_scale(A, B, X)
            for _ in range(2):
                try:
                    w, X = spla.lobpcg(A, X, B=B, M=precondition, Y=Y,
                                       tol=LOBPCG_TOL_RATIO * tol * scale,
                                       maxiter=LOBPCG_MAXITER, largest=False)
                # numpy's LinAlgError included; LOBPCG takes no constraint
                # on a problem too small for its iteration
                except (ValueError, NotImplementedError) as exc:
                    raise ConvergenceError(f"LOBPCG failed: {exc}") from exc
                started, scale = scale, _block_scale(A, B, X)
                if scale >= 0.5 * started:
                    break
            values.append(w)
            vectors.append(X)
    w = np.concatenate(values)
    order = np.argsort(w, kind="stable")
    return w[order], np.hstack(vectors)[:, order], solves


def _start_blocks(start, n: int, m: int):
    """The blocks LOBPCG starts from, checked but not yet copied: the
    seeded random block of m columns, fixed so that repeated solves are
    bitwise reproducible, one (n, p) array, or each of a sequence of them."""
    if start is None:
        return [np.random.default_rng(0x5EED).standard_normal((n, m))]
    blocks = [start] if isinstance(start, np.ndarray) else list(start)
    blocks = [np.asarray(X, dtype=float) for X in blocks]
    shapes = [X.shape for X in blocks]
    if (any(len(s) != 2 or s[0] != n for s in shapes)
            or sum(s[1] for s in shapes) < m):
        shown = shapes[0] if len(shapes) == 1 else shapes
        raise InputError(f"a start block of shape {shown} does not hold "
                         f"{m} columns of length {n}")
    if not all(np.isfinite(X).all() for X in blocks):
        raise InputError("a start block has a non-finite entry")
    return blocks


def solve_smallest(A, B, m: int, tol: float = 1e-10, start=None,
                   certify: bool = False) -> EigenPairs:
    """Compute the m smallest eigenpairs of A x = lambda B x (A, B SPD).

    LOBPCG iterates on the block ``start`` (n x p; by default a seeded
    random block of m columns) and returns the m smallest of its p Ritz
    pairs, B-orthonormal and sorted.  A start that approximately spans the
    wanted eigenvectors, and the whole cluster of the m-th, needs far fewer
    iterations.  ``start`` may also be a sequence of such blocks, one per
    eigenvalue cluster, ascending, of p columns in all (p >= m): each block
    is then solved in turn, B-orthogonally to the vectors that the blocks
    before it found (LOBPCG's constraint block ``Y``), so that LOBPCG's
    workspace, some 17 blocks wide, holds the columns of one cluster at a
    time, and the m smallest of all p pairs are returned.  The
    preconditioner is the solve of one ``factorize(A, np.float32)`` for all
    blocks, chosen from n alone: complete for n up to
    ``COMPLETE_FACTOR_MAX_DOFS``, and above it incomplete, with a fill that
    grows more slowly with n; ``iterations`` counts its column solves over
    all blocks.  LOBPCG stops on a block once every residual norm ``||A x -
    lambda B x||`` of a B-normalized column is below ``LOBPCG_TOL_RATIO *
    tol`` times the smallest ``||A x||`` of the block it starts from, and
    runs once more from the returned block if that block's smallest ``||A
    x||`` is less than half as large (as from a random start).  Each
    returned pair must then pass the relative residual gate ``||A x -
    lambda B x|| / ||A x|| <= tol``, formed in float64.  With ``certify``,
    ``count_below`` must find exactly m eigenvalues below ``lambda_m (1 +
    CERTIFY_MARGIN)``, which costs one float64 factorization of A - sigma B.

    A and B are sparse, in any format (or dense), and are used as given;
    the start blocks are left unchanged.  Raises InputError, before any
    factorization, if a start block is not an n-row matrix with finite
    entries or the blocks hold fewer than m columns.  Raises
    ConvergenceError if the single-precision factor is singular or A has
    no finite scale, if LOBPCG raises, if a residual exceeds ``tol``
    (carrying the residuals) or if certification counts other than m
    eigenvalues.  No warning of LOBPCG or of the casts reaches the caller.
    """
    _check_pencil(A, B, m)
    w, X, solves = _lobpcg(A, B, _start_blocks(start, A.shape[0], m), tol)
    w, X = w[:m], X[:, :m]
    with np.errstate(all="ignore"):
        res = _residuals(A, B, w, X)
    if not np.all(res <= tol):
        raise ConvergenceError(
            f"LOBPCG residual {res.max():.3e} exceeds {tol:.1e}", residuals=res)
    if certify:
        sigma = w[-1] * (1.0 + CERTIFY_MARGIN)
        count = count_below(A, B, sigma)
        if count != m:
            raise ConvergenceError(
                f"certification failed: {count} eigenvalues lie below sigma = "
                f"{sigma:.9g}, but {m} pairs were computed", residuals=res)
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
