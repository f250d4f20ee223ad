"""Vector Lagrange elements on the lifted surface and assembly of the
penalized bilinear forms.

The discrete space is the degree-k continuous scalar Lagrange space on the
flat mesh pushed through the parametric map, taken component-wise for vector
fields (3 x scalar DOFs, blocked by component).  Assembled matrices:

* ``A = a~ + k_a``: tangential-symmetric-gradient stiffness plus tangential
  mass, plus the normal-component penalty scaled ``eta = eta_coeff / h^2``;
* ``B = b~ + k_b``: tangential plus normal mass.  Because
  ``P_h + n_h n_h^T = I`` this is the plain L2 vector mass matrix, built as
  ``I_3 (x) M`` from the scalar mass matrix ``M``.

For one quadrature point the integrands use, with ``g_i`` the scalar surface
gradient of basis function i, ``t_c`` the c-th column of the tangential
projector ``P_h``, ``m_i`` the basis value, and ``H`` the Weingarten map at
the lifted point:

    tr(E_T(phi_i e_c)^T E_T(phi_j e_d)) =
        1/2 g_i[d] g_j[c] + 1/2 (g_i . g_j) P_h[c,d]
        - m_j n_h[d] (P_h H g_i)[c] - m_i n_h[c] (P_h H g_j)[d]
        + tr(H^2) m_i m_j n_h[c] n_h[d]

which follows from expanding E_T(u) = sym(P_h grad(u) P_h) - (u.n_h) H.

Analytic extended fields are paired with the basis in the same quadrature:
``assemble(..., fields=...)`` builds the point data of each element chunk
once and computes the local matrices and the pairings of every field from
it, and ``extended_pairings`` runs the same per-chunk kernel on its own.
The element loop runs over fixed-size chunks merged in chunk order, so the
assembled triplets (and therefore the CSR matrices and the pairings) are
bitwise independent of the worker-thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError, InputError
from .geometry import Sphere
from .lagrange import NodeNumbering, reference_triangle
from .mesh import LinearSurfaceMesh, ParametricMap, improved_normal_lift, mesh_size
from .quadrature import triangle_rule
from .runtime import map_ordered

__all__ = [
    "FeSpace",
    "AssembledForms",
    "ExtendedPairings",
    "build_space",
    "assemble",
    "interpolate",
    "extended_pairings",
    "write_matrix_market",
]

_CHUNK = 256  # elements per work item; fixed so chunking never affects output


@dataclass(frozen=True)
class FeSpace:
    """Degree-k vector Lagrange space on the lifted surface."""

    mesh: LinearSurfaceMesh
    degree: int
    numbering: NodeNumbering

    @property
    def n_scalar(self) -> int:
        return self.numbering.n_nodes

    @property
    def n_dofs(self) -> int:
        return 3 * self.numbering.n_nodes

    def vector_dof(self, component, scalar_dof):
        """Global vector DOF of a scalar DOF and component (blocked layout);
        broadcasts over arrays of either."""
        return component * self.n_scalar + scalar_dof


def build_space(mesh: LinearSurfaceMesh, pmap: ParametricMap, k: int) -> FeSpace:
    if not (1 <= k <= 4):
        raise InputError(f"finite element degree k must be in [1, 4], got {k}")
    if pmap.mesh is not mesh:
        raise InputError("parametric map was built for a different mesh")
    return FeSpace(mesh=mesh, degree=k, numbering=NodeNumbering(mesh.vertices, mesh.triangles, k))


@dataclass(frozen=True)
class ExtendedPairings:
    """Quadrature pairings of an analytic extended field with the FE basis.

    ``a_vec[i] = a_h(u^e, phi_i)`` and ``b_vec[i] = b_h(u^e, phi_i)`` with the
    penalized forms; ``r = a_vec - lam * b_vec`` is the defect functional
    ``d_lam(u^e, .)`` on the space, and ``a_ee``/``b_ee`` are the diagonal
    values ``a_h(u^e, u^e)``, ``b_h(u^e, u^e)``.
    """

    lam: float
    r: np.ndarray
    a_ee: float
    b_ee: float
    a_vec: np.ndarray
    b_vec: np.ndarray


@dataclass(frozen=True)
class AssembledForms:
    """The sparse symmetric penalized forms A and B, and the pairings (with
    ``lam = 1``) of the fields requested from :func:`assemble`."""

    surface: Sphere
    A: sp.csr_matrix
    B: sp.csr_matrix
    eta: float
    quad_degree: int
    normal_map: ParametricMap  # degree-(k_g + 1) lift for the penalty normal
    pairings: tuple[ExtendedPairings, ...] = ()


class _PointData:
    """Per-(element, quadrature point) geometry shared by all integrands."""

    __slots__ = ("w", "mu", "basis", "grads", "P", "n", "n_tilde", "QH", "hh",
                 "x", "H")

    def __init__(self, space, pmap, surface, elements, rule, normal_map):
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

        # metric inverse of J^T J (2x2 closed form)
        g11 = np.einsum("eqc,eqc->eq", jac[..., 0], jac[..., 0])
        g12 = np.einsum("eqc,eqc->eq", jac[..., 0], jac[..., 1])
        g22 = np.einsum("eqc,eqc->eq", jac[..., 1], jac[..., 1])
        det = g11 * g22 - g12 * g12
        if not np.all(det > 0.0):
            raise GeometryError("singular metric J^T J")
        ginv = np.empty(jac.shape[:2] + (2, 2))
        ginv[..., 0, 0] = g22 / det
        ginv[..., 1, 1] = g11 / det
        ginv[..., 0, 1] = -g12 / det
        ginv[..., 1, 0] = -g12 / det

        # scalar surface gradients J (J^T J)^-1 grad_ref(phi): (ne, nq, nk, 3)
        grads = fe_grads @ np.swapaxes(jac @ ginv, -1, -2)

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
    """Local ``A = a~ + k_a``, (ne, nk, 3, nk, 3), and scalar mass, (ne, nk, nk).

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

    a_loc = (t1.reshape(ne, nk, 3, nk, 3).transpose(0, 1, 4, 3, 2)
             + t2.reshape(ne, nk, nk, 3, 3).transpose(0, 1, 3, 2, 4)
             - (t3 + np.swapaxes(t3, 1, 2)).reshape(ne, nk, 3, nk, 3))
    m_loc = (wmu @ mm).reshape(ne, nk, nk)
    return a_loc, m_loc


def _field_pairings(pd: _PointData, fields, eta: float) -> list[tuple]:
    """Per-element pairings of each field with the basis, in the order of
    ``fields``: ``(a_el, b_el, a_ee, b_ee)`` with ``a_el``/``b_el`` of shape
    (ne, nk, 3) and the chunk's share of the diagonal values."""
    ne, nq, nk, _ = pd.grads.shape
    wmu = (pd.w * pd.mu)[..., None]                       # (ne, nq, 1)
    g = pd.grads.transpose(0, 2, 1, 3).reshape(ne, nk, nq * 3)
    H = pd.H  # same lifted-point Weingarten approximation as the assembly
    out = []
    for fld in fields:
        # value and ambient Jacobian of the extension at the Gamma_h points
        u = fld.value(pd.x)
        grad_t = pd.P @ fld.extension_jacobian(pd.x) @ pd.P
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


def _chunks(n_items: int, size: int = _CHUNK):
    for start in range(0, n_items, size):
        yield np.arange(start, min(start + size, n_items))


def _scatter(blocks: np.ndarray, dofs: np.ndarray, n: int) -> sp.csr_matrix:
    """The n x n sum of element blocks (ne, p, p) placed at dofs (ne, p)."""
    # in the CSR index dtype, so scipy does not copy the index triplets
    dofs = dofs.astype(np.int32 if n < 2**31 else np.int64)
    rows = np.broadcast_to(dofs[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], blocks.shape).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _gather_pairings(per_chunk, lam: float, space: FeSpace) -> list[ExtendedPairings]:
    """Sum the chunks' :func:`_field_pairings`, in chunk order, per field."""
    conn = space.numbering.connectivity
    dofs = space.vector_dof(np.arange(3), conn[:, :, None]).ravel()

    def scatter(blocks):
        return np.bincount(dofs, np.concatenate([x.ravel() for x in blocks]),
                           minlength=space.n_dofs)

    pairings = []
    for per_field in zip(*per_chunk):
        a_el, b_el, a_ee, b_ee = zip(*per_field)
        a_vec, b_vec = scatter(a_el), scatter(b_el)
        pairings.append(ExtendedPairings(lam=lam, r=a_vec - lam * b_vec,
                                         a_ee=sum(a_ee), b_ee=sum(b_ee),
                                         a_vec=a_vec, b_vec=b_vec))
    return pairings


def assemble(space: FeSpace, pmap: ParametricMap, surface: Sphere,
             eta_coeff: float = 1.0, quad_degree: int | None = None,
             fields=()) -> AssembledForms:
    """Assemble ``A = a~ + k_a`` and ``B = I_3 (x) M``, M the scalar mass,
    and pair each of ``fields`` against the basis in the same element pass.

    The penalty term uses the unit normal of the degree-``k_g + 1``
    parametric lift as its improved normal, which carries the generic
    one-order-better accuracy.  ``fields`` are as in
    :func:`extended_pairings`; their pairings, with ``lam = 1``, are
    ``AssembledForms.pairings`` in the order of ``fields``, and equal
    ``extended_pairings(fields, 1.0, ...)`` bit for bit.
    """
    min_degree = 2 * (space.degree + pmap.degree)
    if quad_degree is None:
        quad_degree = min_degree
    if quad_degree < min_degree:
        raise InputError(
            f"quadrature exactness {quad_degree} below required {min_degree}")
    normal_map = improved_normal_lift(space.mesh, pmap.degree, surface)
    rule = triangle_rule(quad_degree)
    h = mesh_size(space.mesh)
    eta = eta_coeff / h**2

    def work(elements):
        pd = _PointData(space, pmap, surface, elements, rule, normal_map)
        return _local_matrices(pd, eta) + (_field_pairings(pd, fields, eta),)

    results = map_ordered(work, _chunks(space.mesh.n_triangles))
    conn = space.numbering.connectivity
    ne, nk = conn.shape
    vdofs = space.vector_dof(np.arange(3), conn[:, :, None]).reshape(ne, 3 * nk)
    A = _scatter(np.concatenate([a for a, _, _ in results]).reshape(ne, 3 * nk, 3 * nk),
                 vdofs, space.n_dofs)
    M = _scatter(np.concatenate([m for _, m, _ in results]), conn, space.n_scalar)
    if np.any(M.diagonal() <= 0.0):
        raise GeometryError("assembled B has non-positive diagonal entries")
    # b~ + k_b = I_3 (x) M because P_h + n_h n_h^T = I
    B = sp.kron(sp.identity(3), M, format="csr")
    pairings = _gather_pairings([p for _, _, p in results], 1.0, space)
    return AssembledForms(surface=surface, A=A, B=B, eta=eta,
                          quad_degree=quad_degree, normal_map=normal_map,
                          pairings=tuple(pairings))


def extended_pairings(fields, lam: float, space: FeSpace, pmap: ParametricMap,
                      forms: AssembledForms) -> list[ExtendedPairings]:
    """Pair extended fields (value + ambient Jacobian) against the basis.

    Each of ``fields`` must provide ``value(x)`` and
    ``extension_jacobian(x)`` for batched points, e.g. a
    :class:`~veclap.geometry.KillingField`.  One pass over the elements
    pairs all of them; the result is in the order of ``fields``.  It runs
    the per-chunk kernel of ``assemble(..., fields=...)`` on its own, for
    fields not known at assembly time or another ``lam``.
    """
    rule = triangle_rule(forms.quad_degree)

    def work(elements):
        pd = _PointData(space, pmap, forms.surface, elements, rule, forms.normal_map)
        return _field_pairings(pd, fields, forms.eta)

    return _gather_pairings(map_ordered(work, _chunks(space.mesh.n_triangles)),
                            lam, space)


def _node_positions(space: FeSpace, pmap: ParametricMap) -> np.ndarray:
    """Lifted positions of the FE nodes, each from its first owning element."""
    conn = space.numbering.connectivity
    nk = conn.shape[1]
    _, first = np.unique(conn.ravel(), return_index=True)
    owner = first // nk
    local = first % nk
    ref_pts = reference_triangle(space.degree).nodes[local]

    geom_ref = reference_triangle(pmap.degree)
    phi = geom_ref.eval_basis(ref_pts)                       # (n_nodes, n_g)
    coeffs = pmap.coeffs[pmap.numbering.connectivity[owner]]  # (n_nodes, n_g, 3)
    return np.einsum("nl,nlc->nc", phi, coeffs)


def interpolate(field, space: FeSpace, pmap: ParametricMap,
                surface: Sphere) -> np.ndarray:
    """Componentwise nodal interpolation of the extended field on Gamma_h.

    ``field`` is a callable taking points of shape (..., 3) and returning
    values of the same shape; it is evaluated at the closest-point lift of
    the FE nodes, per the constant-normal extension.
    """
    pos = _node_positions(space, pmap)
    values = np.asarray(field(surface.closest_point(pos)), dtype=float)
    coeff = np.empty(space.n_dofs)
    for c in range(3):
        coeff[c * space.n_scalar:(c + 1) * space.n_scalar] = values[:, c]
    return coeff


def write_matrix_market(matrix: sp.spmatrix, path, comment: str = "") -> None:
    """Write a symmetric sparse matrix in MatrixMarket coordinate format.

    Stores the lower triangle with 1-based indices, as the symmetric variant
    of the format requires.
    """
    m = sp.coo_matrix(matrix)
    keep = m.row >= m.col
    rows, cols, data = m.row[keep], m.col[keep], m.data[keep]
    order = np.lexsort((rows, cols))
    entries = np.empty((len(order), 3), dtype=object)
    entries[:, 0] = rows[order] + 1
    entries[:, 1] = cols[order] + 1
    entries[:, 2] = data[order]
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real symmetric\n")
        if comment:
            f.write(f"% {comment}\n")
        f.write(f"{m.shape[0]} {m.shape[1]} {len(data)}\n")
        f.write("%d %d %.17e\n" * len(order) % tuple(entries.ravel()))
