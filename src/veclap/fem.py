"""Vector Lagrange elements on the lifted surface and assembly of the
penalized bilinear forms.

The discrete space is the degree-k continuous scalar Lagrange space on the
flat mesh pushed through the parametric map, taken component-wise for vector
fields (3 x scalar DOFs, numbered node-major: the three components of a
node are consecutive).  The space carries its parametric map, the map its
flat mesh, and the mesh its exact surface, so every function here takes the
space alone and reads the mesh, the lift ``Gamma_h`` and ``Gamma`` from it;
no call can pair a space with geometry it was not built on.  Assembled
matrices:

* ``A = a~ + k_a``: tangential-symmetric-gradient stiffness plus tangential
  mass, plus the normal-component penalty scaled ``eta = eta_coeff / h^2``.
  Every entry (I, J) of the scalar mass ``M`` carries one dense 3 x 3 block
  of it, so ``A`` is a CSR matrix whose row ``3I + c`` holds the columns
  ``3J, 3J + 1, 3J + 2`` for each entry (I, J) of row I of ``M``: scipy's
  BSR-to-CSR conversion lays it out from ``M``'s pattern;
* ``B = b~ + k_b``: tangential plus normal mass.  Because
  ``P_h + n_h n_h^T = I`` this is the plain L2 vector mass matrix, built as
  ``M (x) I_3`` from the scalar mass matrix ``M``.

For one quadrature point the integrands use, with ``g_i`` the scalar surface
gradient of basis function i, ``t_c`` the c-th column of the tangential
projector ``P_h``, ``m_i`` the basis value, and ``H`` the Weingarten map at
the lifted point:

    tr(E_T(phi_i e_c)^T E_T(phi_j e_d)) =
        1/2 g_i[d] g_j[c] + 1/2 (g_i . g_j) P_h[c,d]
        - m_j n_h[d] (P_h H g_i)[c] - m_i n_h[c] (P_h H g_j)[d]
        + tr(H^2) m_i m_j n_h[c] n_h[d]

which follows from expanding E_T(u) = sym(P_h grad(u) P_h) - (u.n_h) H.

Analytic fields are paired with the basis in the same quadrature and the
same element pass: ``assemble(space, fields=...)`` builds the point data of
each element chunk once and computes the local matrices and the pairings of
every field from it.  A field is given on ``Gamma``; the pairings extend
it by ``u^e = u o p``, with value ``u(p(x))`` and Jacobian ``grad u(p) dp``
at a lifted point x, ``dp`` formed once per chunk for all fields.

The element loop keeps its memory bounded: it runs over the chunks of
``mesh.element_chunks``, sized by the element's largest temporary (at most
256 elements, fewer at high degree), in order on the calling thread, and
each chunk's blocks are added straight into the preallocated ``data``
arrays of ``A`` and ``M``, whose patterns come from the connectivity, as
soon as the chunk is done.

``interpolate`` gives the nodal interpolant of a field on ``Gamma`` (or of
several at once), evaluated at the closest-point lift of each node; the
study starts its eigensolve from the interpolated sphere eigenfields.

``A`` and ``B`` are bitwise symmetric: the local blocks are symmetrized
before they are added, so the entries (Ic, Jd) and (Jd, Ic) receive equal
terms in the same element order.  The CSR arrays of ``A`` are therefore
also its CSC arrays, and ``eigensolve.factorize`` hands them to SuperLU
as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError, InputError
from .lagrange import NodeNumbering, reference_triangle
from .mesh import (
    LinearSurfaceMesh,
    ParametricMap,
    element_chunks,
    improved_normal_lift,
    mesh_size,
)
from .quadrature import triangle_rule

__all__ = [
    "FeSpace",
    "AssembledForms",
    "ExtendedPairings",
    "build_space",
    "node_positions",
    "interpolate",
    "assemble",
    "write_matrix_market",
]

@dataclass(frozen=True)
class FeSpace:
    """Degree-k vector Lagrange space on the lifted surface ``pmap``, which
    also gives the space its flat mesh and its exact surface."""

    pmap: ParametricMap
    degree: int
    numbering: NodeNumbering

    @property
    def mesh(self) -> LinearSurfaceMesh:
        return self.pmap.mesh

    @property
    def n_scalar(self) -> int:
        return self.numbering.n_nodes

    @property
    def n_dofs(self) -> int:
        return 3 * self.numbering.n_nodes

    def vector_dof(self, component, scalar_dof):
        """Global vector DOF of a scalar DOF and component (node-major: a
        coefficient vector is the C-order ravel of an (n_scalar, 3) array);
        broadcasts over arrays of either."""
        return 3 * scalar_dof + component


def build_space(pmap: ParametricMap, k: int) -> FeSpace:
    if not (1 <= k <= 4):
        raise InputError(f"finite element degree k must be in [1, 4], got {k}")
    mesh = pmap.mesh
    return FeSpace(pmap=pmap, degree=k,
                   numbering=NodeNumbering(mesh.vertices, mesh.triangles, k))


def node_positions(space: FeSpace) -> np.ndarray:
    """Lifted positions of the FE nodes, (n_scalar, 3), each from its first
    owning element."""
    conn = space.numbering.connectivity
    ne, nk = conn.shape
    _, first = np.unique(conn.ravel(), return_index=True)
    x = space.pmap.evaluate(np.arange(ne), reference_triangle(space.degree).nodes)
    return x.reshape(ne * nk, 3)[first]


def interpolate(field, space: FeSpace) -> np.ndarray:
    """Componentwise nodal interpolant of the extended field on Gamma_h.

    ``field`` maps points of shape (N, 3) to values of shape (N, 3), or to
    (N, 3, c) for c fields at once; it is evaluated at the closest-point
    lift of the FE nodes onto the space's exact surface, per the
    constant-normal extension.  Returns the node-major coefficients, of
    shape (n_dofs,) or (n_dofs, c).
    """
    p = space.mesh.surface.closest_point(node_positions(space))
    values = np.asarray(field(p), dtype=float)
    return values.reshape(space.n_dofs, *values.shape[2:])


@dataclass(frozen=True)
class ExtendedPairings:
    """Quadrature pairings of an analytic extended field with the FE basis.

    ``a_vec[i] = a_h(u^e, phi_i)`` and ``b_vec[i] = b_h(u^e, phi_i)`` with the
    penalized forms, and ``a_ee``/``b_ee`` are the diagonal values
    ``a_h(u^e, u^e)``, ``b_h(u^e, u^e)``.  The defect functional
    ``d_lam(u^e, .)`` on the space is ``a_vec - lam * b_vec``.
    """

    a_ee: float
    b_ee: float
    a_vec: np.ndarray
    b_vec: np.ndarray


@dataclass(frozen=True)
class AssembledForms:
    """The sparse, bitwise symmetric penalized forms A and B, and the
    pairings of the fields requested from :func:`assemble`.

    Both are CSR matrices with node-major DOFs and sorted indices: ``A``
    holds a dense 3 x 3 block at each entry of the scalar mass ``M``, and
    ``B = M (x) I_3``.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    pairings: tuple[ExtendedPairings, ...] = ()


class _PointData:
    """Per-(element, quadrature point) geometry shared by all integrands,
    on the lift and exact surface of ``space``."""

    __slots__ = ("w", "mu", "basis", "grads", "P", "n", "n_tilde", "QH", "hh",
                 "x", "H")

    def __init__(self, space, elements, rule, normal_map):
        pmap, surface = space.pmap, space.mesh.surface
        ref_fe = reference_triangle(space.degree)
        basis = ref_fe.eval_basis(rule.points)          # (nq, nk)
        fe_grads = ref_fe.eval_grads(rule.points)       # (nq, nk, 2)

        jac = pmap.jacobians(elements, rule.points)     # (ne, nq, 3, 2)
        x = pmap.evaluate(elements, rule.points)        # (ne, nq, 3)
        cross = np.cross(jac[..., 0], jac[..., 1])
        mu = np.linalg.norm(cross, axis=-1)
        if not np.all(mu > 0.0):
            raise GeometryError("degenerate element Jacobian (mu <= 0)")
        n = cross / mu[..., None]

        # scalar surface gradients d_1 phi a_1 + d_2 phi a_2, (ne, nq, nk, 3),
        # with a_1 = t_2 x n / mu and a_2 = n x t_1 / mu the dual basis of
        # the tangents t_r = J e_r, stacked as rows: (ne, nq, 2, 3)
        dual = np.cross(np.stack([jac[..., 1], n], axis=-2),
                        np.stack([n, jac[..., 0]], axis=-2)) / mu[..., None, None]
        grads = fe_grads @ dual

        p_lift = surface.closest_point(x)
        # unit normal of the one-degree-higher lift at the same reference
        # point: accurate to one order beyond n_h
        jac_hi = normal_map.jacobians(elements, rule.points)
        cross_hi = np.cross(jac_hi[..., 0], jac_hi[..., 1])
        n_tilde = cross_hi / np.linalg.norm(cross_hi, axis=-1)[..., None]
        H = surface.weingarten(p_lift)                  # (ne, nq, 3, 3)

        P = np.eye(3) - n[..., :, None] * n[..., None, :]
        self.w = rule.weights
        self.mu = mu
        self.basis = basis
        self.grads = grads
        self.P = P
        self.n = n
        self.n_tilde = n_tilde
        self.QH = grads @ np.swapaxes(P @ H, -1, -2)   # P_h H g_i: (ne, nq, nk, 3)
        self.hh = np.einsum("eqcd,eqcd->eq", H, H)
        self.x = x
        self.H = H


def _local_matrices(pd: _PointData, eta: float):
    """Local ``A = a~ + k_a``, (ne, nk, nk, 3, 3), and scalar mass, (ne, nk, nk).

    Every term is a quadrature sum of a basis product times a 3x3 tensor,
    evaluated as one batched matrix product per term.
    """
    ne, nq, nk, _ = pd.grads.shape
    wmu = pd.w * pd.mu                                   # (ne, nq)
    w = wmu[..., None]
    g = pd.grads.reshape(ne, nq, nk * 3)
    # m_i m_j is the same on every element
    mm = (pd.basis[:, :, None] * pd.basis[:, None, :]).reshape(nq, nk * nk)

    # 1/2 g_i[d] g_j[c], computed as [(i, d), (j, c)]
    t1 = np.swapaxes(0.5 * w * g, 1, 2) @ g
    # m_j n_h[d] (P_h H g_i)[c] as [(i, c), (j, d)], plus its transpose
    mn = (pd.basis[None, :, :, None] * pd.n[:, :, None, :]).reshape(ne, nq, nk * 3)
    t3 = np.swapaxes(w * pd.QH.reshape(ne, nq, nk * 3), 1, 2) @ mn
    # 1/2 (g_i . g_j) P_h + m_i m_j (tr H^2 n n^T + P_h + eta n~ n~^T),
    # both as [(i, j), (c, d)]
    gdot = (pd.grads @ np.swapaxes(pd.grads, -1, -2)).reshape(ne, nq, nk * nk)
    nn = pd.n[..., :, None] * pd.n[..., None, :]
    tt = pd.n_tilde[..., :, None] * pd.n_tilde[..., None, :]
    T = pd.P + pd.hh[..., None, None] * nn + eta * tt
    t2 = (np.swapaxes(gdot, 1, 2) @ (0.5 * w * pd.P.reshape(ne, nq, 9))
          + mm.T @ (w * T.reshape(ne, nq, 9)))

    a_loc = (t1.reshape(ne, nk, 3, nk, 3).transpose(0, 1, 3, 4, 2)
             + t2.reshape(ne, nk, nk, 3, 3)
             - (t3 + np.swapaxes(t3, 1, 2)).reshape(ne, nk, 3, nk, 3)
             .transpose(0, 1, 3, 2, 4))
    m_loc = (wmu @ mm).reshape(ne, nk, nk)
    # exactly symmetric, as the sums above round (i, c, j, d) and
    # (j, d, i, c) differently; so are A and M, which add these blocks
    return (0.5 * (a_loc + a_loc.transpose(0, 2, 1, 4, 3)),
            0.5 * (m_loc + np.swapaxes(m_loc, 1, 2)))


def _field_pairings(pd: _PointData, fields, eta: float, p, dp) -> list[tuple]:
    """Per-element pairings of each field's extension ``u o p`` with the
    basis, in the order of ``fields``, given ``p`` and ``dp`` at ``pd.x``:
    ``(a_el, b_el, a_ee, b_ee)`` with ``a_el``/``b_el`` of shape (ne, nk, 3)
    and the chunk's share of the diagonal values."""
    ne, nq, nk, _ = pd.grads.shape
    wmu = (pd.w * pd.mu)[..., None]                       # (ne, nq, 1)
    g = pd.grads.transpose(0, 2, 1, 3).reshape(ne, nk, nq * 3)
    H = pd.H  # same lifted-point Weingarten approximation as the assembly
    out = []
    for fld in fields:
        # value and ambient Jacobian of the extension at the Gamma_h points
        u = fld.value(p)
        grad_t = pd.P @ (fld.jacobian(p) @ dp) @ pd.P
        uN = np.sum(u * pd.n, axis=-1)
        W = (0.5 * (grad_t + np.swapaxes(grad_t, -1, -2))
             - uN[..., None, None] * H)                     # E_T of the field
        Pu = (pd.P @ u[..., None])[..., 0]
        un_t = np.sum(u * pd.n_tilde, axis=-1)
        trWH = np.sum(W * H, axis=(-2, -1))

        # tr(W S_jd) = (P_h W g_j)[d] - m_j n_h[d] tr(W H), plus the
        # tangential mass and the penalty, all paired with phi_j e_d
        PW = np.swapaxes(wmu[..., None] * (pd.P @ W), -1, -2)
        a_el = g @ PW.reshape(ne, nq * 3, 3)
        a_el += pd.basis.T @ (wmu * (Pu + eta * un_t[..., None] * pd.n_tilde
                                     - trWH[..., None] * pd.n))
        # b-pairing integrand reduces to u itself: P_h u (P_h .) + u_N (n_h .)
        b_el = pd.basis.T @ (wmu * u)
        a_ee = float(np.sum(wmu[..., 0] * (np.sum(W * W, axis=(-2, -1))
                                           + np.sum(Pu * Pu, axis=-1)
                                           + eta * un_t * un_t)))
        b_ee = float(np.sum(wmu * u * u))
        out.append((a_el, b_el, a_ee, b_ee))
    return out


def _chunks(space: FeSpace, rule) -> list[np.ndarray]:
    """The element chunks of the element loop; its largest temporary is
    ``gdot`` of :func:`_local_matrices`, (size, nq, nk^2) doubles."""
    nk = space.numbering.connectivity.shape[1]
    return element_chunks(space.mesh.n_triangles, rule.weights.size * nk * nk)


def _add_at(target: np.ndarray, positions: np.ndarray, values: np.ndarray) -> None:
    """``target[positions] += values`` with repeated positions summed, in
    the C order of ``values``.  Raveled, because ``np.add.at`` has a fast
    path for one-dimensional indices only (about 6x faster on a chunk)."""
    np.add.at(target, positions.ravel(), values.ravel())


class _CsrPattern:
    """CSR patterns of the scalar mass ``M`` and of ``A``, the position of
    every element entry in the ``data`` array of ``M``, and the offsets in
    that of ``A`` of the 3 x 3 block of every entry of ``M``.

    ``M`` holds one dense (nk, nk) block per element at its connectivity,
    and ``A`` one dense 3 x 3 block per entry of ``M``.  scipy's BSR-to-CSR
    conversion of the block matrix on ``M``'s pattern whose entry (p, c, d)
    holds its own number ``9 p + 3 c + d`` gives ``A``'s ``indptr`` and
    ``indices``, and a ``data`` array that names the entry in each CSR slot;
    one scatter inverts it into ``a_offset``.  The element keys, rows and
    columns are freed before the conversion, so its temporaries do not
    stack on theirs.  Both patterns are symmetric, with sorted indices and
    no duplicates.
    """

    def __init__(self, conn: np.ndarray, n: int):
        ne, nk = conn.shape
        keys = (conn[:, :, None].astype(np.int64) * n + conn[:, None, :]).ravel()
        keys, position = np.unique(keys, return_inverse=True)
        self.nnz = nnz = keys.size
        rows, cols = keys // n, keys % n
        # the index dtype scipy picks itself, so A and M keep the arrays
        # without a copy
        idx = np.int32 if 9 * nnz < 2**31 else np.int64
        self.m_position = position.reshape(ne, nk, nk)  # of entry (e, i, j)
        self.m_indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(rows, minlength=n), out=self.m_indptr[1:])
        self.m_indices = cols.astype(idx)
        del keys, rows, cols
        number = np.arange(9 * nnz, dtype=idx)
        layout = sp.bsr_matrix((number.reshape(nnz, 3, 3), self.m_indices,
                                self.m_indptr), shape=(3 * n, 3 * n)).tocsr()
        self.a_indptr, self.a_indices = layout.indptr, layout.indices
        self.a_offset = np.empty(9 * nnz, dtype=idx)
        self.a_offset[layout.data] = number
        self.a_offset = self.a_offset.reshape(nnz, 3, 3)


def assemble(space: FeSpace, eta_coeff: float = 1.0, fields=()) -> AssembledForms:
    """Assemble ``A = a~ + k_a`` and ``B = M (x) I_3``, M the scalar mass,
    on the lifted surface of ``space``, and pair each of ``fields`` against
    the basis in the same element pass, with the triangle rule of degree
    ``2 (k + k_g)``.

    The penalty term uses the unit normal of the degree-``k_g + 1``
    parametric lift as its improved normal, which carries the generic
    one-order-better accuracy.  Each of ``fields`` must provide
    ``value(p)`` and its ambient Jacobian ``jacobian(p)`` at batched points
    p on the exact surface, e.g. a :class:`~veclap.geometry.KillingField`;
    the pairings of their constant-normal extensions are
    ``AssembledForms.pairings`` in the order of ``fields``.
    """
    pmap = space.pmap
    normal_map = improved_normal_lift(pmap)
    rule = triangle_rule(2 * (space.degree + pmap.degree))
    h = mesh_size(space.mesh)
    eta = eta_coeff / h**2
    surface = space.mesh.surface

    def work(elements):
        pd = _PointData(space, elements, rule, normal_map)
        local = _local_matrices(pd, eta)
        if not fields:
            return local + ([],)
        # p is not kept on the point data: holding it through the local
        # matrices raised a k = 4 level's peak RSS 7 MB in half of the runs
        p, dp = surface.closest_point(pd.x), surface.closest_point_jacobian(pd.x)
        return local + (_field_pairings(pd, fields, eta, p, dp),)

    conn = space.numbering.connectivity
    pattern = _CsrPattern(conn, space.n_scalar)
    a_data = np.zeros(9 * pattern.nnz)
    m_data = np.zeros(pattern.nnz)
    # per field: a_vec, b_vec, a_ee, b_ee, summed in chunk order
    sums = [[np.zeros(space.n_dofs), np.zeros(space.n_dofs), 0.0, 0.0]
            for _ in fields]
    chunks = _chunks(space, rule)
    for elements, (a_loc, m_loc, per_field) in zip(chunks, map(work, chunks)):
        position = pattern.m_position[elements]
        _add_at(a_data, np.take(pattern.a_offset, position, axis=0), a_loc)
        _add_at(m_data, position, m_loc)
        dofs = space.vector_dof(np.arange(3), conn[elements][:, :, None])
        for acc, (a_el, b_el, a_ee, b_ee) in zip(sums, per_field, strict=True):
            _add_at(acc[0], dofs, a_el)
            _add_at(acc[1], dofs, b_el)
            acc[2] += a_ee
            acc[3] += b_ee
    n = space.n_scalar
    A = sp.csr_matrix((a_data, pattern.a_indices, pattern.a_indptr),
                      shape=(3 * n, 3 * n))
    M = sp.csr_matrix((m_data, pattern.m_indices, pattern.m_indptr), shape=(n, n))
    if np.any(M.diagonal() <= 0.0):
        raise GeometryError("assembled B has non-positive diagonal entries")
    # b~ + k_b = M (x) I_3 because P_h + n_h n_h^T = I
    B = sp.kron(M, sp.identity(3), format="csr")
    return AssembledForms(A=A, B=B, pairings=tuple(
        ExtendedPairings(a_ee=a_ee, b_ee=b_ee, a_vec=a_vec, b_vec=b_vec)
        for a_vec, b_vec, a_ee, b_ee in sums))


def write_matrix_market(matrix: sp.spmatrix, path, comment: str = "") -> None:
    """Write a symmetric sparse matrix in MatrixMarket coordinate format.

    Stores the lower triangle with 1-based indices, as the symmetric variant
    of the format requires, with 17 significant digits, so the values read
    back exactly.  The file is opened here, as ``scipy.io.mmwrite`` given a
    path that cannot be opened writes nothing and raises nothing.
    """
    import scipy.io  # here, not at the top: it slows `import veclap.cli` by ~20 ms

    with open(path, "wb") as f:
        scipy.io.mmwrite(f, sp.coo_matrix(matrix), comment=comment,
                         symmetry="symmetric", precision=17)
