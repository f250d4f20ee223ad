"""Penalized surface finite elements for the vector-Laplace eigenproblem.

The package discretizes the tangential vector-Laplace eigenproblem on a
level-set sphere with parametric Lagrange elements and a normal-component
penalty, solves the resulting symmetric generalized eigenproblem, measures
convergence orders against the known sphere spectrum, and verifies the
abstract nonconforming eigenvalue/eigenvector error bounds on synthetic
finite-dimensional instances.
"""

from .geometry import KillingField, Sphere
from .mesh import (
    LinearSurfaceMesh,
    ParametricMap,
    icosphere,
    mesh_size,
    parametric_lift,
    surface_area,
)

__version__ = "0.1.0"
