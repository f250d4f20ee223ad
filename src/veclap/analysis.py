"""Convergence diagnostics: eigenvalue errors and orders, eigenvector
projection errors against the Killing fields, and the area-error study,
with a CSV export of everything a study measures.
``defect_dual_norm`` evaluates the dual norm of a defect functional; no
study level computes it.

The reference spectrum is the unit sphere's: the eigenvalue 1 with
multiplicity 3 (the rotational Killing fields) followed by the eigenvalue 2
with multiplicity 3.  The closed-form reference is not implemented beyond
index 6, so requesting more reference values is an error, and eigenvector
errors are reported for the Killing fields only.  They are projection
errors onto the computed pairs in the Killing cluster's window, which is
the synthetic checker's rule, ``abstract_framework.cluster_windows``,
applied to the whole reference spectrum: [0, 1.5].  A level with fields
solves for at least the cluster's three pairs, so that the window holds
the whole cluster, and reports the first ``num_eigs``.

Each level's eigensolve starts from the nodal interpolants of the
closed-form eigenfields (``_sphere_eigenfields``) of the clusters that the
requested pairs reach, which span them to within the discretization error:
the three Killing fields for up to three pairs, and with the three of
``lambda = 2`` for more.  Each cluster is its own start block:
``solve_smallest`` solves the ``lambda = 2`` block after the Killing one
and B-orthogonally to it, so LOBPCG's workspace is three columns wide, not
six.  One float32 factor of ``A`` preconditions both blocks, complete on
levels of up to ``eigensolve.COMPLETE_FACTOR_MAX_DOFS`` DOFs and
incomplete on finer ones, which holds the peak memory of a fine level
down.  With
``StudyConfig.certify`` the eigensolve certifies its pairs by an inertia
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .abstract_framework import cluster_windows
from .eigensolve import EigenPairs, factorize, solve_smallest
from .errors import InputError
from .fem import (AssembledForms, ExtendedPairings, FeSpace, assemble, build_space,
                  interpolate)
from .geometry import KillingField, Sphere
from .mesh import MAX_LEVEL, icosphere, mesh_size, parametric_lift, surface_area

__all__ = [
    "EigenvectorError",
    "ConvergenceRecord",
    "StudyConfig",
    "exact_sphere_eigenvalues",
    "eigenvector_error",
    "defect_dual_norm",
    "eoc",
    "convergence_study",
    "area_study",
    "records_to_rows",
    "write_csv",
    "CSV_COLUMNS",
]

ITERATIVE_DOF_LIMIT = 200_000
# eta_coeff / h^2 must exceed the largest requested exact eigenvalue by this
# factor, so the penalty's normal modes stay above every requested pair
PENALTY_MARGIN = 1.25
# the largest area quadrature degree: its conical rule has 33^2 points per
# element, far more than the default 2 k_g + 8 <= 16 needs
MAX_QUAD_DEGREE = 64

_REFERENCE = (1.0, 1.0, 1.0, 2.0, 2.0, 2.0)


def exact_sphere_eigenvalues(m: int) -> np.ndarray:
    """First m exact eigenvalues of the shifted operator on the unit sphere."""
    if not (1 <= m <= len(_REFERENCE)):
        raise InputError(
            f"the number of eigenvalues must be in [1, {len(_REFERENCE)}] (the "
            f"reference spectrum has {len(_REFERENCE)} values), got {m}")
    return np.array(_REFERENCE[:m])


@dataclass(frozen=True)
class EigenvectorError:
    """Projection errors of an extended exact eigenvector onto a cluster."""

    energy: float
    l2: float
    energy_sq_raw: float  # pre-clamp squared values, for round-off checks
    l2_sq_raw: float


def eigenvector_error(lo: float, hi: float, pairs: EigenPairs,
                      forms: AssembledForms,
                      pairings: ExtendedPairings) -> EigenvectorError:
    """Errors of the b_h-orthogonal projection onto the eigenvectors whose
    eigenvalues lie in the closed window ``[lo, hi]``.

    The projection coefficients are c_i = b_h(u^e, u~_i); expanding the
    squared norms of u^e - sum c_i u~_i in a_h and b_h gives the energy and
    L2(Gamma_h) errors from quantities that are all available: the diagonal
    pairings, the pairing vectors, and the assembled forms.
    """
    ev = pairs.eigenvalues
    members = np.nonzero((ev >= lo) & (ev <= hi))[0]
    if members.size == 0:
        raise InputError(f"no computed eigenvalue falls in [{lo}, {hi}]")
    X = pairs.vectors[:, members]
    c = X.T @ pairings.b_vec
    a_cross = X.T @ pairings.a_vec
    Aw = X.T @ (forms.A @ X)
    Bw = X.T @ (forms.B @ X)
    e_sq = pairings.a_ee - 2.0 * (c @ a_cross) + c @ (Aw @ c)
    l_sq = pairings.b_ee - 2.0 * (c @ c) + c @ (Bw @ c)
    return EigenvectorError(energy=math.sqrt(max(e_sq, 0.0)),
                            l2=math.sqrt(max(l_sq, 0.0)),
                            energy_sq_raw=float(e_sq), l2_sq_raw=float(l_sq))


def defect_dual_norm(r, A) -> float:
    """Dual norm of a defect functional over the discrete space.

    Computes sqrt(r^T A^-1 r) with one factorization of A and one SPD
    solve; equivalent to the root-sum-square of the functional over an
    a_h-orthonormal eigenbasis.  For a field's pairings ``ep``, the defect
    ``d_lam(u^e, .)`` is ``r = ep.a_vec - lam * ep.b_vec``.
    """
    r = np.asarray(r, dtype=float)
    x = factorize(A).solve(r)
    return math.sqrt(max(float(r @ x), 0.0))


def extended_pairings(fields, space: FeSpace,
                      eta_coeff: float = 1.0) -> list[ExtendedPairings]:
    """The pairings of ``fields`` from ``assemble(space, eta_coeff,
    fields=fields)``.  Nothing calls it: it stays only as a name that
    ``perfbench/run.py`` traces (``SPANNED``), and goes with that trace
    (ROADMAP item 10, step 2)."""
    return list(assemble(space, eta_coeff, fields=fields).pairings)


def eoc(err_coarse: float, err_fine: float, h_coarse: float, h_fine: float) -> float:
    """Estimated order of convergence between two consecutive levels."""
    if err_coarse <= 0.0 or err_fine <= 0.0:
        return math.nan
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


@dataclass
class ConvergenceRecord:
    """Everything measured on one refinement level."""

    level: int
    h: float
    ndof: int
    eigenvalues: np.ndarray
    exact: np.ndarray
    errors: np.ndarray
    area: float
    area_error: float
    fields: list[EigenvectorError] = field(default_factory=list)  # per requested field


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one convergence study on the unit sphere.

    The default mesh jitter breaks the icosphere's symmetry-induced
    superconvergence so the observed orders match the generic theory rates;
    set ``jitter=0`` for the fully symmetric hierarchy.

    The normal penalty is ``eta_coeff / h^2``.  Its normal modes sit near
    that value, so each level must have ``eta_coeff / h^2`` at least
    ``PENALTY_MARGIN`` times the largest requested exact eigenvalue; a level
    below that floor is rejected before assembly.  With the default
    ``eta_coeff`` and jitter, levels 0 and 1 are below it.

    Each of ``fields`` names a distinct Killing axis and fills one CSV row,
    so there are at most ``num_eigs`` of them.

    ``certify`` has every level's eigensolve certify by an inertia count
    that its pairs are the smallest (``eigensolve.solve_smallest``), at the
    cost of one more float64 factorization per level.
    """

    k: int
    k_g: int
    levels: tuple[int, ...]
    num_eigs: int = 6
    eta_coeff: float = 1.0
    fields: tuple[str, ...] = ("z",)
    tol: float = 1e-10
    jitter: float = 0.3
    mesh_seed: int = 0
    certify: bool = False

    def __post_init__(self):
        _check_levels(self.levels)
        if not (1 <= self.k <= 4 and 1 <= self.k_g <= 4):
            raise InputError("k and k_g must be in [1, 4]")
        for axis in self.fields:
            if axis not in ("x", "y", "z"):
                raise InputError(f"unknown Killing field axis {axis!r}")
        if len(set(self.fields)) < len(self.fields):
            raise InputError(f"a Killing field axis is named twice in {self.fields}")
        if len(self.fields) > self.num_eigs:
            raise InputError(
                f"{len(self.fields)} fields need at least as many eigenvalues "
                f"(their CSV rows), got {self.num_eigs}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise InputError(f"tol must be a finite number above 0, got {self.tol}")
        if not (math.isfinite(self.eta_coeff) and self.eta_coeff > 0.0):
            raise InputError(
                f"eta_coeff must be a finite number above 0, got {self.eta_coeff}")
        _check_seed(self.mesh_seed)
        # reject a request beyond the reference spectrum before any meshing
        exact_sphere_eigenvalues(self.num_eigs)


def _check_levels(levels) -> None:
    """Reject no levels, levels outside ``[0, MAX_LEVEL]`` or levels not
    strictly ascending (an EOC needs two distinct mesh sizes), before any
    meshing."""
    levels = list(levels)
    if not levels:
        raise InputError("no refinement levels given")
    if any(not (0 <= lvl <= MAX_LEVEL) for lvl in levels):
        raise InputError(f"refinement levels must be in [0, {MAX_LEVEL}], got {levels}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise InputError(f"levels must be strictly ascending, got {levels}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InputError(f"mesh seed must be non-negative, got {seed}")


def _area_degree(k_g: int) -> int:
    # keep geometric quadrature error far below the h^{k_g+1} area signal
    return 2 * k_g + 8


def _guard_size(n: int) -> None:
    """Reject a level of n DOFs before assembly if it is too large."""
    if n > ITERATIVE_DOF_LIMIT:
        raise InputError(f"problem size {n} exceeds the {ITERATIVE_DOF_LIMIT} DOF guard")


def _guard_penalty(eta_coeff: float, lam_max: float, level: int, h: float) -> None:
    """Reject a level whose penalty eta_h = eta_coeff / h^2 would put normal
    modes among the requested eigenpairs, whose largest exact value is
    lam_max."""
    eta_h = eta_coeff / h**2
    floor = PENALTY_MARGIN * lam_max
    if eta_h < floor:
        smallest = math.ceil(floor * h**2 * 1e3) / 1e3  # rounded up: it passes
        raise InputError(
            f"level {level}: penalty eta_h = {eta_h:.4g} is below {floor:g} "
            f"({PENALTY_MARGIN:g} x the largest requested eigenvalue); "
            f"use --eta {smallest:g} or more, or a finer level")


def _sphere_eigenfields(p) -> np.ndarray:
    """The closed-form eigenfields of the unit sphere's first two clusters
    at surface points p (N, 3), as (N, 3, 6): the Killing fields
    ``e_i x p`` (lambda = 1) and the tangential parts ``P e_i = e_i - (n .
    e_i) n`` of the coordinate directions, with n = p (lambda = 2)."""
    killing = np.stack([KillingField(axis).value(p) for axis in "xyz"], axis=-1)
    tangential = np.eye(3) - p[:, :, None] * p[:, None, :]
    return np.concatenate([killing, tangential], axis=-1)


def _run_level(cfg: StudyConfig, level: int, on_assembled=None) -> ConvergenceRecord:
    mesh = icosphere(level, jitter=cfg.jitter, seed=cfg.mesh_seed)
    h = mesh_size(mesh)
    exact = exact_sphere_eigenvalues(cfg.num_eigs)
    _guard_penalty(cfg.eta_coeff, float(exact.max()), level, h)
    pmap = parametric_lift(mesh, cfg.k_g)
    space = build_space(pmap, cfg.k)
    _guard_size(space.n_dofs)
    forms = assemble(space, eta_coeff=cfg.eta_coeff,
                     fields=[KillingField(axis) for axis in cfg.fields])
    if on_assembled is not None:
        on_assembled(level, mesh, forms)
    # the interpolated eigenfields of the clusters that the solved pairs
    # reach, one block per cluster: the three Killing fields for up to
    # three pairs, then the three of lambda = 2; a level with fields solves
    # the whole Killing cluster it projects onto
    m = max(cfg.num_eigs, 3) if cfg.fields else cfg.num_eigs
    start = interpolate(_sphere_eigenfields, space)
    pairs = solve_smallest(forms.A, forms.B, m, tol=cfg.tol,
                           start=(start[:, :3],) if m <= 3 else
                           (start[:, :3], start[:, 3:]),
                           certify=cfg.certify)
    eigenvalues = pairs.eigenvalues[:cfg.num_eigs]
    area = surface_area(pmap, _area_degree(cfg.k_g))
    exact_area = 4.0 * math.pi
    # the Killing cluster's window on the whole reference spectrum, so it
    # does not depend on how many pairs are requested
    (lo,), (hi,) = cluster_windows(_REFERENCE, 1)
    return ConvergenceRecord(
        level=level, h=h, ndof=space.n_dofs,
        eigenvalues=eigenvalues, exact=exact,
        errors=np.abs(eigenvalues - exact),
        area=area, area_error=abs(area - exact_area),
        fields=[eigenvector_error(lo, hi, pairs, forms, ep) for ep in forms.pairings])


def convergence_study(cfg: StudyConfig, on_assembled=None) -> list[ConvergenceRecord]:
    """Run the study over all levels, in level order; one record per level.

    The optional ``on_assembled(level, mesh, forms)`` hook fires once per
    level, which the CLI uses for mesh and matrix export.
    """
    return [_run_level(cfg, level, on_assembled) for level in cfg.levels]


def area_study(k_g: int, levels, surface: Sphere = Sphere(),
               quad_degree: int | None = None, jitter: float = 0.3,
               mesh_seed: int = 0) -> list[ConvergenceRecord]:
    """Area-error-only records (no assembly or solve)."""
    _check_levels(levels)
    _check_seed(mesh_seed)
    if quad_degree is not None and not (0 <= quad_degree <= MAX_QUAD_DEGREE):
        raise InputError(f"quadrature degree must be in [0, {MAX_QUAD_DEGREE}], "
                         f"got {quad_degree}")
    degree = quad_degree if quad_degree is not None else _area_degree(k_g)
    exact_area = 4.0 * math.pi * surface.radius**2
    records = []
    for level in levels:
        mesh = icosphere(level, surface, jitter=jitter, seed=mesh_seed)
        pmap = parametric_lift(mesh, k_g)
        area = surface_area(pmap, degree)
        records.append(ConvergenceRecord(
            level=level, h=mesh_size(mesh), ndof=0,
            eigenvalues=np.empty(0), exact=np.empty(0), errors=np.empty(0),
            area=area, area_error=abs(area - exact_area)))
    return records


CSV_COLUMNS = ("level", "h", "ndof", "j", "lambda_h", "lambda_exact",
               "ev_err", "ev_eoc", "evec_energy_err", "evec_energy_eoc",
               "evec_l2_err", "evec_l2_eoc", "area_err", "area_eoc")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return ""
    return format(x, ".17e")


def records_to_rows(records: list[ConvergenceRecord]) -> list[dict]:
    """Flatten level records into one row per (level, eigen index).

    EOCs are pairwise between consecutive levels and empty on the first.
    Eigenvector errors of the requested fields occupy rows j = 1, 2, ... in
    request order; the per-level area error is attached to the j = 1 row.
    """
    rows = []
    for li, rec in enumerate(records):
        prev = records[li - 1] if li > 0 else None
        m = rec.eigenvalues.size
        for j in range(m if m else 1):
            row = dict.fromkeys(CSV_COLUMNS)
            row.update(level=rec.level, h=rec.h, ndof=rec.ndof, j=j + 1)
            if m:
                row.update(lambda_h=rec.eigenvalues[j], lambda_exact=rec.exact[j],
                           ev_err=rec.errors[j])
                if prev is not None and prev.eigenvalues.size > j:
                    row["ev_eoc"] = eoc(prev.errors[j], rec.errors[j], prev.h, rec.h)
            if j < len(rec.fields):
                fe = rec.fields[j]
                row.update(evec_energy_err=fe.energy, evec_l2_err=fe.l2)
                if prev is not None and j < len(prev.fields):
                    pf = prev.fields[j]
                    row["evec_energy_eoc"] = eoc(pf.energy, fe.energy, prev.h, rec.h)
                    row["evec_l2_eoc"] = eoc(pf.l2, fe.l2, prev.h, rec.h)
            if j == 0:
                row["area_err"] = rec.area_error
                if prev is not None:
                    row["area_eoc"] = eoc(prev.area_error, rec.area_error,
                                          prev.h, rec.h)
            rows.append(row)
    return rows


def write_csv(records: list[ConvergenceRecord], fileobj) -> None:
    """Write the study as CSV with a fixed schema and full-precision floats."""
    fileobj.write(",".join(CSV_COLUMNS) + "\n")
    for row in records_to_rows(records):
        fileobj.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
