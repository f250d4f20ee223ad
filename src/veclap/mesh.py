"""Surface meshes: icosahedral refinement of the sphere and the parametric
polynomial lift of the flat triangulation.

The flat mesh ``Gamma^lin`` is built by recursive 4-way subdivision of the
regular icosahedron with every vertex projected exactly onto the surface.
The lift of degree ``k_g`` interpolates the closest-point projection on the
degree-``k_g`` node lattice of every flat triangle, giving a continuous
piecewise-polynomial surface; for ``k_g = 1`` the lift is the identity.
The flat mesh records the surface it was built on, and is the only holder
of it: the lift interpolates that surface, and whatever is built on the lift
(the FE space, the improved normal) reads it from the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import Sphere
from .lagrange import NodeNumbering, reference_triangle
from .quadrature import triangle_rule

__all__ = [
    "LinearSurfaceMesh",
    "ParametricMap",
    "icosphere",
    "parametric_lift",
    "improved_normal_lift",
    "mesh_size",
    "element_chunks",
    "surface_area",
    "write_off",
]

MAX_LEVEL = 7


@dataclass(frozen=True)
class LinearSurfaceMesh:
    """Watertight oriented triangulation with all vertices on ``surface``,
    the exact surface ``Gamma`` it approximates."""

    vertices: np.ndarray   # (nv, 3)
    triangles: np.ndarray  # (nt, 3) int
    surface: Sphere

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class ParametricMap:
    """Degree-``k_g`` interpolant of the closest-point projection onto
    ``mesh.surface``, the exact surface ``Gamma`` it approximates.

    ``coeffs[numbering.connectivity[t, l]]`` is the lifted position of local
    node l of flat triangle t; shared nodes carry identical coefficients, so
    the mapped surface is continuous across edges.
    """

    mesh: LinearSurfaceMesh
    degree: int
    numbering: NodeNumbering
    coeffs: np.ndarray  # (n_nodes, 3) lifted node positions

    def _element_coeffs(self, elements) -> np.ndarray:
        """Node coefficients of each element as rows, shape (ne * 3, nl)."""
        c = self.coeffs[self.numbering.connectivity[np.atleast_1d(elements)]]
        return c.transpose(0, 2, 1).reshape(-1, c.shape[1])

    def evaluate(self, elements, ref_points) -> np.ndarray:
        """Map reference points to the curved surface.

        Parameters
        ----------
        elements : int array, shape (ne,)
        ref_points : float array, shape (nq, 2)

        Returns
        -------
        (ne, nq, 3) array of physical points on Gamma_h.
        """
        phi = reference_triangle(self.degree).eval_basis(np.atleast_2d(ref_points))
        # one GEMM: (ne * 3, nl) @ (nl, nq); contiguous, as field kernels reuse it
        x = self._element_coeffs(elements) @ phi.T
        return np.ascontiguousarray(x.reshape(-1, 3, phi.shape[0]).transpose(0, 2, 1))

    def jacobians(self, elements, ref_points) -> np.ndarray:
        """Jacobians of the map, shape (ne, nq, 3, 2) (a strided view)."""
        grads = reference_triangle(self.degree).eval_grads(np.atleast_2d(ref_points))
        nq, nl, _ = grads.shape
        # one GEMM: (ne * 3, nl) @ (nl, nq * 2)
        jac = self._element_coeffs(elements) @ grads.transpose(1, 0, 2).reshape(nl, nq * 2)
        return jac.reshape(-1, 3, nq, 2).transpose(0, 2, 1, 3)


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    v /= np.linalg.norm(v[0])
    t = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    # enforce outward orientation (convex body centered at the origin)
    tri = v[t]
    nrm = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    flip = np.einsum("tc,tc->t", nrm, tri.mean(axis=1)) < 0
    t[flip] = t[flip][:, [0, 2, 1]]
    return v, t


def icosphere(level: int, surface: Sphere = Sphere(),
              jitter: float = 0.0, seed: int = 0) -> LinearSurfaceMesh:
    """Icosahedral sphere triangulation with 20 * 4^level triangles.

    Every refinement splits each triangle into four by edge midpoints, the
    nodes of its degree-2 Lagrange lattice; all vertices (initial and
    inserted) are projected onto the surface, so the mesh vertices lie
    exactly on Gamma.

    ``jitter > 0`` displaces every vertex of the finished mesh tangentially
    by a seeded pseudo-random fraction (at most ``jitter``) of its shortest
    incident edge, then re-projects, so vertices stay exactly on the
    surface.  The fully symmetric hierarchy makes several error components
    superconvergent; the jittered family behaves like the generic
    unstructured meshes convergence rates are usually reported on, while
    staying reproducible.  The perturbation is drawn independently per
    level, with shape regularity bounded uniformly in the level.
    """
    if not (0 <= level <= MAX_LEVEL):
        raise InputError(f"refinement level must be in [0, {MAX_LEVEL}], got {level}")
    if not (0.0 <= jitter <= 0.4):
        raise InputError(f"jitter must be in [0, 0.4], got {jitter}")
    v, t = _icosahedron()
    v = surface.closest_point(v)
    for _ in range(level):
        # the new vertices: the old ones, then one midpoint per edge
        lattice = NodeNumbering(v, t, 2)
        conn = lattice.connectivity
        t = np.concatenate([conn[:, [0, 3, 5]], conn[:, [3, 1, 4]],
                            conn[:, [5, 4, 2]], conn[:, [3, 4, 5]]], axis=0)
        v = surface.closest_point(lattice.coords)
    if jitter > 0.0:
        rng = np.random.default_rng((seed, level))
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=0)
        lengths = np.linalg.norm(v[pairs[:, 0]] - v[pairs[:, 1]], axis=1)
        scale = np.full(v.shape[0], np.inf)
        for side in (0, 1):
            np.minimum.at(scale, pairs[:, side], lengths)
        direction = rng.standard_normal(v.shape)
        nrm = surface.normal(v)
        direction -= nrm * np.einsum("ic,ic->i", direction, nrm)[:, None]
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        v = v + (jitter * scale * rng.random(v.shape[0]))[:, None] * direction
        v = surface.closest_point(v)
    return LinearSurfaceMesh(vertices=v, triangles=t, surface=surface)


def parametric_lift(mesh: LinearSurfaceMesh, k_g: int) -> ParametricMap:
    """Degree-``k_g`` lift of the flat mesh through the closest-point map
    of its surface."""
    if not (1 <= k_g <= 4):
        raise InputError(f"geometry degree k_g must be in [1, 4], got {k_g}")
    return _lift(mesh, k_g)


def _lift(mesh: LinearSurfaceMesh, degree: int) -> ParametricMap:
    numbering = NodeNumbering(mesh.vertices, mesh.triangles, degree)
    coeffs = mesh.surface.closest_point(numbering.coords)
    return ParametricMap(mesh=mesh, degree=degree, numbering=numbering, coeffs=coeffs)


def improved_normal_lift(pmap: ParametricMap) -> ParametricMap:
    """One-degree-higher lift of ``pmap``'s mesh, whose discrete normal
    serves as the improved penalty normal (one order more accurate than the
    normal of ``pmap``)."""
    return _lift(pmap.mesh, pmap.degree + 1)


def mesh_size(mesh: LinearSurfaceMesh) -> float:
    """Maximum edge length of the flat triangulation."""
    v, t = mesh.vertices, mesh.triangles
    e = np.concatenate([v[t[:, 1]] - v[t[:, 0]],
                        v[t[:, 2]] - v[t[:, 1]],
                        v[t[:, 0]] - v[t[:, 2]]], axis=0)
    return float(np.linalg.norm(e, axis=1).max())


def element_chunks(n_elements: int, doubles_per_element: int) -> list[np.ndarray]:
    """Consecutive runs of element indices that cover ``range(n_elements)``
    in order, for an element loop whose largest temporary holds
    ``doubles_per_element`` doubles per element.  A run has at most 256
    elements, and few enough that the temporary stays under 8 MB; the runs
    depend only on the two arguments."""
    size = min(256, 2**20 // doubles_per_element)
    return [np.arange(start, min(start + size, n_elements))
            for start in range(0, n_elements, size)]


def surface_area(pmap: ParametricMap, quad_degree: int) -> float:
    """Area of the lifted surface, integrated element-wise and summed over
    the runs of :func:`element_chunks`, so its temporaries stay under 8 MB.

    The area factor is not polynomial for ``k_g >= 2``, so the result keeps
    improving (rapidly) with the quadrature degree; pass a degree a few
    orders above ``2 k_g`` when the area itself is the object of study.
    """
    rule = triangle_rule(quad_degree)
    area = 0.0
    # the Jacobians, (size, nq, 3, 2) doubles, are the largest temporary
    for elements in element_chunks(pmap.mesh.n_triangles, 6 * rule.weights.size):
        jac = pmap.jacobians(elements, rule.points)
        mu = np.linalg.norm(np.cross(jac[..., 0], jac[..., 1]), axis=-1)
        area += float(np.einsum("q,eq->", rule.weights, mu))
    return area


def write_off(mesh: LinearSurfaceMesh, path) -> None:
    """Write the flat triangulation in OFF text format."""
    v, t = mesh.vertices, mesh.triangles
    with open(path, "w", encoding="ascii") as f:
        f.write("OFF\n")
        f.write(f"{v.shape[0]} {t.shape[0]} 0\n")
        for p in v:
            f.write(f"{p[0]:.17e} {p[1]:.17e} {p[2]:.17e}\n")
        for tri in t:
            f.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
