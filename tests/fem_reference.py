"""Per-term einsum reference for the FEM kernels, used only by the tests.

These are the straightforward element integrands of ``veclap.fem`` written
one term at a time: the parametric map's points and Jacobians, the point
data, the four local form parts (``a~``, ``k_a``, ``b~``, ``k_b``) and the
pairing of one extended field with the basis.  ``veclap.mesh`` and
``veclap.fem`` compute the same sums as (batched) matrix products; the
tests compare the two.  The global matrices are summed here from COO
triplets, against which the direct CSR accumulation of ``veclap.fem`` is
checked.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from veclap.lagrange import reference_triangle


def _element_coeffs(pmap, elements):
    return pmap.coeffs[pmap.numbering.connectivity[np.atleast_1d(elements)]]


def reference_evaluate(pmap, elements, ref_points):
    """``ParametricMap.evaluate`` as one einsum: (ne, nq, 3)."""
    phi = reference_triangle(pmap.degree).eval_basis(np.atleast_2d(ref_points))
    return np.einsum("ql,elc->eqc", phi, _element_coeffs(pmap, elements))


def reference_jacobians(pmap, elements, ref_points):
    """``ParametricMap.jacobians`` as one einsum: (ne, nq, 3, 2)."""
    grads = reference_triangle(pmap.degree).eval_grads(np.atleast_2d(ref_points))
    return np.einsum("qlr,elc->eqcr", grads, _element_coeffs(pmap, elements))


class ReferencePointData:
    """Per-(element, quadrature point) geometry, one einsum per quantity."""

    def __init__(self, space, elements, rule, normal_map):
        pmap, surface = space.pmap, space.pmap.surface
        ref_fe = reference_triangle(space.degree)
        basis = ref_fe.eval_basis(rule.points)
        fe_grads = ref_fe.eval_grads(rule.points)

        jac = reference_jacobians(pmap, elements, rule.points)
        x = reference_evaluate(pmap, elements, rule.points)
        cross = np.cross(jac[..., 0], jac[..., 1])
        mu = np.linalg.norm(cross, axis=-1)
        n = cross / mu[..., None]

        g11 = np.einsum("eqc,eqc->eq", jac[..., 0], jac[..., 0])
        g12 = np.einsum("eqc,eqc->eq", jac[..., 0], jac[..., 1])
        g22 = np.einsum("eqc,eqc->eq", jac[..., 1], jac[..., 1])
        det = g11 * g22 - g12 * g12
        ginv = np.empty(jac.shape[:2] + (2, 2))
        ginv[..., 0, 0] = g22 / det
        ginv[..., 1, 1] = g11 / det
        ginv[..., 0, 1] = -g12 / det
        ginv[..., 1, 0] = -g12 / det
        grads = np.einsum("eqcr,eqrs,qis->eqic", jac, ginv, fe_grads)

        p_lift = surface.closest_point(x)
        jac_hi = reference_jacobians(normal_map, elements, rule.points)
        cross_hi = np.cross(jac_hi[..., 0], jac_hi[..., 1])
        n_tilde = cross_hi / np.linalg.norm(cross_hi, axis=-1)[..., None]
        H = surface.weingarten(p_lift)

        P = np.eye(3) - n[..., :, None] * n[..., None, :]
        Hg = np.einsum("eqcd,eqid->eqic", H, grads)
        self.w = rule.weights
        self.mu = mu
        self.basis = basis
        self.grads = grads
        self.P = P
        self.n = n
        self.n_tilde = n_tilde
        self.QH = np.einsum("eqcd,eqid->eqic", P, Hg)
        self.hh = np.einsum("eqcd,eqcd->eq", H, H)
        self.x = x
        self.H = H


def reference_local_matrices(pd: ReferencePointData, eta: float):
    """Local ``a~``, ``k_a``, ``b~``, ``k_b``, each (ne, nk, 3, nk, 3)."""
    wmu = pd.w[None, :] * pd.mu
    m, g = pd.basis, pd.grads

    mass = np.einsum("eq,qi,qj->eqij", wmu, m, m)
    gdot = np.einsum("eqic,eqjc->eqij", g, g)

    t1 = 0.5 * np.einsum("eq,eqid,eqjc->eicjd", wmu, g, g)
    t2 = 0.5 * np.einsum("eqij,eqcd->eicjd", wmu[..., None, None] * gdot, pd.P)
    t3 = np.einsum("eq,eqd,qj,eqic->eicjd", wmu, pd.n, m, pd.QH)
    t3 = t3 + np.einsum("eicjd->ejdic", t3)
    t4 = np.einsum("eqij,eqc,eqd->eicjd", mass * pd.hh[..., None, None], pd.n, pd.n)
    tang_mass = np.einsum("eqij,eqcd->eicjd", mass, pd.P)

    a_loc = t1 + t2 - t3 + t4 + tang_mass
    ka_loc = eta * np.einsum("eqij,eqc,eqd->eicjd", mass, pd.n_tilde, pd.n_tilde)
    kb_loc = np.einsum("eqij,eqc,eqd->eicjd", mass, pd.n, pd.n)
    return a_loc, ka_loc, tang_mass, kb_loc


def reference_pairings(field, space, normal_map, eta, rule, elements):
    """``(a_vec, b_vec, a_ee, b_ee)`` of one field over ``elements``, with
    the improved normal of ``normal_map`` and the penalty ``eta``."""
    pd = ReferencePointData(space, elements, rule, normal_map)
    wmu = pd.w[None, :] * pd.mu
    u = field.value(pd.x)
    Ju = field.extension_jacobian(pd.x)

    grad_t = np.einsum("eqab,eqbc,eqcd->eqad", pd.P, Ju, pd.P)
    E = 0.5 * (grad_t + np.swapaxes(grad_t, -1, -2))
    uN = np.einsum("eqc,eqc->eq", u, pd.n)
    H = pd.H
    W = E - uN[..., None, None] * H
    Pu = np.einsum("eqcd,eqd->eqc", pd.P, u)
    un_t = np.einsum("eqc,eqc->eq", u, pd.n_tilde)

    PWg = np.einsum("eqab,eqbc,eqjc->eqja", pd.P, W, pd.grads)
    trWH = np.einsum("eqcd,eqcd->eq", W, H)
    stiff = PWg - pd.n[:, :, None, :] * (pd.basis[None, :, :, None]
                                         * trWH[..., None, None])
    a_el = np.einsum("eq,eqjd->ejd", wmu, stiff)
    a_el += np.einsum("eq,eqd,qj->ejd", wmu, Pu, pd.basis)
    a_el += eta * np.einsum("eq,eq,eqd,qj->ejd", wmu, un_t, pd.n_tilde, pd.basis)
    b_el = np.einsum("eq,eqd,qj->ejd", wmu, u, pd.basis)

    a_ee = float(np.einsum("eq,eqcd,eqcd->", wmu, W, W)
                 + np.einsum("eq,eqc,eqc->", wmu, Pu, Pu)
                 + eta * np.einsum("eq,eq,eq->", wmu, un_t, un_t))
    b_ee = float(np.einsum("eq,eqc,eqc->", wmu, u, u))

    a_vec = np.zeros(space.n_dofs)
    b_vec = np.zeros(space.n_dofs)
    dofs = 3 * space.numbering.connectivity[elements][:, :, None] + np.arange(3)
    np.add.at(a_vec, dofs.ravel(), a_el.ravel())
    np.add.at(b_vec, dofs.ravel(), b_el.ravel())
    return a_vec, b_vec, a_ee, b_ee


def reference_scatter(blocks, dofs, n):
    """The n x n CSR sum of element blocks (ne, p, p) placed at dofs (ne, p),
    through COO triplets."""
    rows = np.broadcast_to(dofs[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], blocks.shape).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()
