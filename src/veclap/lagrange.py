"""Lagrange reference elements on the triangle and global node numbering.

Both the parametric geometry map (degree k_g) and the finite element space
(degree k) are built from the same two ingredients:

* a reference element with equispaced nodes and a monomial-Vandermonde basis,
* a global continuous numbering of the degree-m node lattice over a
  triangulation (vertices, then edge-interior nodes, then cell-interior
  nodes), with edge nodes parametrized along the canonical edge direction
  (lower vertex index -> higher) so that shared nodes agree across elements.

Local node order per element: the three vertices, then the interior nodes of
the local edges (0,1), (1,2), (2,0) walking from the first to the second
vertex, then cell-interior nodes in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ReferenceTriangle", "reference_triangle", "unique_edges",
           "NodeNumbering"]


def _node_lattice(degree: int) -> np.ndarray:
    """Reference coordinates of the equispaced nodes, in local node order."""
    k = degree
    verts = [(0, 0), (k, 0), (0, k)]
    edges = [((0, 0), (k, 0)), ((k, 0), (0, k)), ((0, k), (0, 0))]
    nodes = list(verts)
    for (a, b) in edges:
        for t in range(1, k):
            nodes.append(((a[0] * (k - t) + b[0] * t) // k, (a[1] * (k - t) + b[1] * t) // k))
    for j in range(1, k):
        for i in range(1, k - j):
            nodes.append((i, j))
    return np.array(nodes, dtype=float) / k


@dataclass(frozen=True)
class ReferenceTriangle:
    """Degree-m Lagrange element with equispaced nodes.

    ``basis_coeffs`` is the inverse Vandermonde matrix of the monomials
    xi^a eta^b (a+b <= m) at the nodes; column j holds the monomial
    coefficients of the nodal basis function phi_j.
    """

    degree: int
    nodes: np.ndarray          # (n_loc, 2)
    exponents: np.ndarray      # (n_loc, 2)
    basis_coeffs: np.ndarray   # (n_loc monomials, n_loc basis fns)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def _monomials(self, pts):
        pts = np.asarray(pts, dtype=float)
        a = self.exponents[:, 0]
        b = self.exponents[:, 1]
        return pts[:, 0:1] ** a[None, :] * pts[:, 1:2] ** b[None, :]

    def eval_basis(self, pts) -> np.ndarray:
        """Basis values, shape (npts, n_loc)."""
        return self._monomials(pts) @ self.basis_coeffs

    def eval_grads(self, pts) -> np.ndarray:
        """Reference gradients, shape (npts, n_loc, 2)."""
        pts = np.asarray(pts, dtype=float)
        a = self.exponents[:, 0].astype(float)
        b = self.exponents[:, 1].astype(float)
        dxi = a * pts[:, 0:1] ** np.maximum(a - 1, 0) * pts[:, 1:2] ** b
        deta = b * pts[:, 1:2] ** np.maximum(b - 1, 0) * pts[:, 0:1] ** a
        return np.stack([dxi @ self.basis_coeffs, deta @ self.basis_coeffs], axis=-1)


@lru_cache(maxsize=None)
def reference_triangle(degree: int) -> ReferenceTriangle:
    if degree < 1:
        raise ValueError(f"Lagrange degree must be >= 1, got {degree}")
    nodes = _node_lattice(degree)
    exps = np.array([(a, b) for s in range(degree + 1) for a in range(s + 1)
                     for b in [s - a]], dtype=int)
    vand = nodes[:, 0:1] ** exps[:, 0][None, :] * nodes[:, 1:2] ** exps[:, 1][None, :]
    return ReferenceTriangle(degree=degree, nodes=nodes, exponents=exps,
                             basis_coeffs=np.linalg.inv(vand))


def unique_edges(triangles):
    """Unique edges of a triangulation, keyed by sorted vertex pair.

    Returns ``edges`` (ne, 2), the pairs (lower, higher vertex) in ascending
    lexicographic order; ``edge_of`` (nt, 3), the edge id of each triangle's
    local edges (0,1), (1,2), (2,0); and ``aligned`` (nt, 3), whether a local
    edge runs from its lower vertex to its higher one.
    """
    nt = triangles.shape[0]
    raw = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                          triangles[:, [2, 0]]], axis=0)
    keys = np.sort(raw, axis=1)
    edges, inverse = np.unique(keys, axis=0, return_inverse=True)
    return edges, inverse.reshape(3, nt).T, (raw[:, 0] == keys[:, 0]).reshape(3, nt).T


class NodeNumbering:
    """Global numbering of the degree-m Lagrange lattice over a triangulation.

    Parameters
    ----------
    vertices : (nv, 3) ndarray
        Flat mesh vertex coordinates.
    triangles : (nt, 3) int ndarray
        Vertex indices, consistently oriented.
    degree : int
        Lattice degree m >= 1.

    Attributes
    ----------
    n_nodes : int
        Total number of global nodes.
    connectivity : (nt, n_loc) int ndarray
        Global node index of each local node.
    coords : (n_nodes, 3) ndarray
        Flat-mesh coordinates of each global node, computed once from its
        canonical owner (vertex / canonical-direction edge / cell) so shared
        nodes are bitwise identical across elements.
    """

    def __init__(self, vertices, triangles, degree: int):
        v = np.asarray(vertices, dtype=float)
        t = np.asarray(triangles, dtype=np.int64)
        m = degree
        if m < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        nv, nt = v.shape[0], t.shape[0]

        edges, edge_of, aligned = unique_edges(t)
        ne = edges.shape[0]

        n_edge = m - 1
        n_int = (m - 1) * (m - 2) // 2
        n_loc = 3 + 3 * n_edge + n_int
        self.degree = m
        self.n_nodes = nv + ne * n_edge + nt * n_int

        conn = np.empty((nt, n_loc), dtype=np.int64)
        conn[:, 0:3] = t
        col = 3
        for le in range(3):
            e = edge_of[:, le]
            al = aligned[:, le]
            for tt in range(1, m):
                # local parameter tt along the local direction maps to
                # canonical parameter tt (aligned) or m-tt (reversed)
                canon = np.where(al, tt, m - tt)
                conn[:, col] = nv + e * n_edge + (canon - 1)
                col += 1
        if n_int:
            base = nv + ne * n_edge
            ids = base + np.arange(nt)[:, None] * n_int + np.arange(n_int)[None, :]
            conn[:, col:] = ids
        self.connectivity = conn

        coords = np.empty((self.n_nodes, 3), dtype=float)
        coords[:nv] = v
        if n_edge:
            a = v[edges[:, 0]]
            b = v[edges[:, 1]]
            ts = np.arange(1, m, dtype=float)[None, :, None] / m
            coords[nv:nv + ne * n_edge] = (a[:, None, :] * (1.0 - ts)
                                           + b[:, None, :] * ts).reshape(-1, 3)
        if n_int:
            ref = reference_triangle(m).nodes[3 + 3 * n_edge:]
            lam = np.column_stack([1.0 - ref.sum(axis=1), ref[:, 0], ref[:, 1]])
            tri_pts = np.einsum("li,tic->tlc", lam, v[t])
            coords[nv + ne * n_edge:] = tri_pts.reshape(-1, 3)
        self.coords = coords
