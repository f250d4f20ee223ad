"""Finite-dimensional synthetic instances of the nonconforming eigenproblem
framework, exact computation of its consistency/approximability parameters,
and brute-force verification of every bound.

An instance consists of

* a "continuous" space of dimension N with SPD forms ``a`` and ``b`` whose
  generalized spectrum is prescribed exactly, together with a b-orthonormal
  eigenbasis,
* an "extended" space of dimension N_ex >= N, an injective extension matrix
  E and a left inverse (lifting) L with L E = I,
* perturbed forms  a~ = (L^T (M_a + D_a) L),  b~ = (L^T (M_b + D_b) L)
  whose consistency errors are controlled by declared magnitudes,
* positive semidefinite penalties k_a, k_b supported on a complement of
  range(E) (plus, in perturbed mode, a declared leak of k_a onto range(E)),
* a discretization subspace V_h given by a basis matrix.

All framework parameters (consistency constants, approximability constants,
Friedrichs constant, gap parameters, defect dual norms, projections) are
computed exactly as small dense eigenproblems over the designated
subspaces: the supremum of a symmetric error form over a subspace is the
extreme generalized eigenvalue against the subspace Gram matrix, and a
two-subspace supremum is the top singular value of the Gram-whitened
rectangular block.  Every inequality of the eigenvalue and eigenvector
error theory is then checked with its own hypotheses evaluated first;
checks whose hypotheses fail are reported as skipped, never as failures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .analysis import ClusterWindow
from .eigensolve import full_spectrum
from .errors import InputError

__all__ = [
    "InstanceSpec",
    "SyntheticInstance",
    "FrameworkQuantities",
    "BoundCheck",
    "BoundCheckReport",
    "make_instance",
    "rembest_instance",
    "compute_quantities",
    "verify_bounds",
    "sweep",
    "write_jsonl",
]

# relative numerical slack for checking exact inequalities in floating point
_RTOL = 1e-9
# probe vectors per j for the projection comparison bounds
_N_PROBE = 12


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceSpec:
    """Dimensions and perturbation levels of a synthetic instance.

    ``delta_a``/``delta_b`` bound the realized consistency parameters from
    above; exact-consistency mode is ``delta_a = delta_b = 0`` with
    penalties vanishing identically on range(E).
    """

    n_h: int
    n_cont: int = 8
    n_ex: int = 12
    k_max: int = 3
    spectrum: tuple[float, ...] | None = None
    delta_a: float = 0.0
    delta_b: float = 0.0
    # when set, V_h's leading directions are the extended eigenvectors
    # contaminated with noise of this relative size, so 0.0 means V_h
    # contains them (None = fully random)
    approx_noise: float | None = None

    def __post_init__(self):
        if not (self.n_cont <= self.n_ex):
            raise InputError("need n_cont <= n_ex")
        if not (self.n_h <= self.n_ex):
            raise InputError("need n_h <= n_ex")
        if not (1 <= self.k_max <= min(self.n_cont, self.n_h)):
            raise InputError("need 1 <= k_max <= min(n_cont, n_h)")
        if not (0.0 <= self.delta_a < 0.5 and 0.0 <= self.delta_b < 0.5):
            raise InputError("perturbation magnitudes must lie in [0, 1/2)")
        if self.spectrum is not None:
            lam = self.spectrum
            if len(lam) != self.n_cont:
                raise InputError("spectrum length must equal n_cont")
            if any(l <= 0 for l in lam) or list(lam) != sorted(lam):
                raise InputError("spectrum must be positive and ascending")


@dataclass
class SyntheticInstance:
    spec: InstanceSpec
    seed: int
    lam: np.ndarray          # (N,) prescribed continuous spectrum
    M_a: np.ndarray          # (N, N) continuous a-form
    M_b: np.ndarray          # (N, N) continuous b-form
    U: np.ndarray            # (N, N) b-orthonormal eigenbasis, columns
    E: np.ndarray            # (N_ex, N) extension
    A_e: np.ndarray          # (N_ex, N_ex) pulled-back exact a-form
    B_e: np.ndarray
    A_tilde: np.ndarray      # a~ with declared perturbation
    B_tilde: np.ndarray
    K_a: np.ndarray
    K_b: np.ndarray
    V: np.ndarray            # (N_ex, n_h) basis of V_h
    exact_consistency: bool

    @property
    def G_a(self) -> np.ndarray:
        return self.A_tilde + self.K_a

    @property
    def G_b(self) -> np.ndarray:
        return self.B_tilde + self.K_b

    def extended_eigvecs(self, j: int) -> np.ndarray:
        """Basis of U_j^e (columns E u_1 .. E u_j)."""
        return self.E @ self.U[:, :j]


def _random_spd(rng, n, cond_spread=0.5) -> np.ndarray:
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = 1.0 + cond_spread * rng.random(n)
    return q @ np.diag(d) @ q.T


def _sym(mat) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _scaled_sym_perturbation(rng, metric, delta) -> np.ndarray:
    """Symmetric D with spectral norm of M^-1/2 D M^-1/2 equal to
    delta/(1+delta), so the realized consistency constant is <= delta."""
    n = metric.shape[0]
    if delta == 0.0:
        return np.zeros((n, n))
    raw = _sym(rng.standard_normal((n, n)))
    half = sla.cholesky(metric, lower=True)
    whitened = sla.solve_triangular(half, sla.solve_triangular(
        half, raw.T, lower=True).T, lower=True)
    norm = np.abs(sla.eigvalsh(_sym(whitened))).max()
    return raw * (delta / (1.0 + delta) / norm)


def make_instance(spec: InstanceSpec, seed: int) -> SyntheticInstance:
    """Build a reproducible instance with the prescribed spectrum.

    Exact-consistency mode (zero deltas) satisfies the structural identities
    of the penalized-but-consistent setting: the pulled-back forms agree
    with the continuous ones and both penalties annihilate range(E).  The
    relative penalty scaling is chosen so the a-penalty dominates the
    b-penalty strongly enough for the stability hypotheses to hold.
    """
    rng = np.random.default_rng(seed)
    n, n_ex, n_h = spec.n_cont, spec.n_ex, spec.n_h

    if spec.spectrum is not None:
        lam = np.array(spec.spectrum, dtype=float)
    else:
        gaps = 0.3 + rng.random(n)
        lam = 0.5 + np.cumsum(gaps)
        # plant a multiplicity-2 cluster inside the tracked window
        if spec.k_max >= 2 and rng.random() < 0.5:
            lam[1] = lam[0]
    M_b = _random_spd(rng, n)
    half = sla.cholesky(M_b, lower=True)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    U = sla.solve_triangular(half.T, q, lower=False)
    M_a = _sym(M_b @ U @ np.diag(lam) @ U.T @ M_b)

    # extension with orthonormal columns, lifting via a random weighted
    # pseudo-inverse (a left inverse that is not the adjoint)
    E = np.linalg.qr(rng.standard_normal((n_ex, n)))[0]
    w = 0.5 + 1.5 * rng.random(n_ex)
    E_linv = np.linalg.solve(E.T @ (w[:, None] * E), E.T * w[None, :])

    D_a = _scaled_sym_perturbation(rng, M_a, spec.delta_a)
    D_b = _scaled_sym_perturbation(rng, M_b, spec.delta_b)
    A_e = _sym(E_linv.T @ M_a @ E_linv)
    B_e = _sym(E_linv.T @ M_b @ E_linv)
    A_tilde = _sym(E_linv.T @ (M_a + D_a) @ E_linv)
    B_tilde = _sym(E_linv.T @ (M_b + D_b) @ E_linv)

    # penalties on a complement of range(E)
    comp = sla.null_space(E.T)                    # (n_ex, n_ex - n), orthonormal
    c_dim = comp.shape[1]
    if c_dim:
        R_a = rng.standard_normal((c_dim, c_dim))
        K_a_core = R_a @ R_a.T
        # b-penalty core: bounded multiplicative perturbation of the a-core,
        # so the penalty ratio k_a/k_b is uniform over the complement (the
        # FEM has exactly k_a = eta k_b there).  An unrelated random core
        # can make the ratio collapse in near-null directions of K_a_core,
        # which floods the discrete pencil with huge spurious eigenvalues.
        S = _sym(rng.standard_normal((c_dim, c_dim)))
        S *= 0.5 / max(np.abs(sla.eigvalsh(S)).max(), 1e-300)
        K_b_core = _sym(R_a @ (np.eye(c_dim) + S) @ R_a.T)
        s_a = 1.0 + rng.random()
        # gen-eigs of (K_b_core, K_a_core) lie in [0.5, 1.5]; dominate the
        # b-penalty strongly enough for the stability hypotheses
        margin = 8.0 * lam[spec.k_max - 1]
        s_b = s_a / (1.5 * margin)
        K_a = s_a * _sym(comp @ K_a_core @ comp.T)
        K_b = s_b * _sym(comp @ K_b_core @ comp.T)
    else:
        K_a = np.zeros((n_ex, n_ex))
        K_b = np.zeros((n_ex, n_ex))
    if spec.delta_a > 0.0:
        # declared leak of the a-penalty onto range(E): scaled so its
        # contribution to the consistency error stays below delta_a
        S = E @ rng.standard_normal((n, max(1, n // 2)))
        leak = _sym(S @ S.T)
        z = E @ U[:, :spec.k_max]
        gram = z.T @ A_e @ z
        top = np.abs(sla.eigvalsh(z.T @ leak @ z, gram)).max()
        K_a = K_a + leak * (0.25 * spec.delta_a / top)

    if spec.approx_noise is None:
        raw = rng.standard_normal((n_ex, n_h))
    else:
        lead = E @ U[:, :spec.k_max]
        if spec.approx_noise:
            lead = lead + spec.approx_noise * rng.standard_normal(lead.shape) \
                * np.linalg.norm(lead, axis=0, keepdims=True)
        raw = np.concatenate(
            [lead, rng.standard_normal((n_ex, n_h - spec.k_max))], axis=1)
    V = np.linalg.qr(raw)[0]

    return SyntheticInstance(
        spec=spec, seed=seed, lam=lam, M_a=M_a, M_b=M_b, U=U, E=E,
        A_e=A_e, B_e=B_e, A_tilde=A_tilde, B_tilde=B_tilde, K_a=K_a, K_b=K_b, V=V,
        exact_consistency=(spec.delta_a == 0.0 and spec.delta_b == 0.0))


def rembest_instance(n: int, delta: float, seed: int,
                     spectrum=None) -> SyntheticInstance:
    """The no-discretization-error special case: H = H^ex = V_h, no
    penalties, a~ = (1+delta) a and b~ = (1-delta) b, whose eigenvalues are
    lambda_j (1+delta)/(1-delta) in closed form."""
    spec = InstanceSpec(n_h=n, n_cont=n, n_ex=n, k_max=n, spectrum=spectrum,
                        delta_a=0.0, delta_b=0.0)
    inst = make_instance(spec, seed)
    zero = np.zeros((n, n))
    return SyntheticInstance(
        spec=spec, seed=seed, lam=inst.lam, M_a=inst.M_a, M_b=inst.M_b,
        U=inst.U, E=np.eye(n), A_e=inst.M_a, B_e=inst.M_b,
        A_tilde=(1.0 + delta) * inst.M_a, B_tilde=(1.0 - delta) * inst.M_b,
        K_a=zero, K_b=zero, V=np.eye(n), exact_consistency=(delta == 0.0))


# ---------------------------------------------------------------------------
# subspace algebra
# ---------------------------------------------------------------------------

def _gram(G, Z):
    return _sym(Z.T @ G @ Z)


def _whiten(gram):
    return sla.cholesky(_sym(gram), lower=True)


def sup_bilinear(delta_form, Z1, G1, Z2, G2) -> float:
    """sup over unit u in span(Z1), v in span(Z2) of |u' delta v| with the
    norms induced by G1 and G2."""
    l1 = _whiten(_gram(G1, Z1))
    l2 = _whiten(_gram(G2, Z2))
    block = Z1.T @ delta_form @ Z2
    m = sla.solve_triangular(l1, block, lower=True)
    m = sla.solve_triangular(l2, m.T, lower=True).T
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def sup_quadratic(delta_form, Z, G) -> float:
    """sup over unit v in span(Z) of |v' delta v| in the G-induced norm."""
    vals = sla.eigvalsh(_gram(delta_form, Z), _gram(G, Z))
    return float(np.abs(vals).max()) if vals.size else 0.0


def _projector(G, Z) -> np.ndarray:
    """G-orthogonal projector onto span(Z) as an explicit matrix."""
    gram = _gram(G, Z)
    return Z @ np.linalg.solve(gram, Z.T @ G)


def _orth_union(*bases, tol=1e-11) -> np.ndarray:
    stacked = np.concatenate(bases, axis=1)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    return u[:, s > tol * s[0]]


# ---------------------------------------------------------------------------
# framework quantities
# ---------------------------------------------------------------------------

@dataclass
class FrameworkQuantities:
    theta: np.ndarray          # (k_max,) Theta_{h,j}
    phi: float                 # Phi_{h,k_max}
    alpha_h: float             # tight constant of the combined a-consistency
    beta_h: float
    alpha_tilde: float
    beta_tilde: float
    alpha_hat: float
    beta_hat: float
    c_f: float
    discrete: object           # EigenPairs of (A_h, B_h) on V_h
    defect_dual: np.ndarray    # (k_max,) ||d_{lambda_j}(u_j^e, .)||_{V_h'}
    P_h: np.ndarray            # a_h-orthogonal projector onto V_h
    P_a: list                  # P_{a_h,j} onto U_j^e, j = 1..k_max
    P_b: list
    approximability_ok: bool   # dim(P_h U_{k_max}^e) == k_max and Theta < 1


def compute_quantities(inst: SyntheticInstance) -> FrameworkQuantities:
    spec = inst.spec
    k_max = spec.k_max
    G_a, G_b = inst.G_a, inst.G_b
    Z_full = inst.extended_eigvecs(k_max)

    # consistency: errors of the discrete forms against the pulled-back
    # exact forms, measured over the designated subspaces
    dA_tilde = inst.A_tilde - inst.A_e
    dB_tilde = inst.B_tilde - inst.B_e
    dA = dA_tilde + inst.K_a
    dB = dB_tilde + inst.K_b
    alpha_h = sup_bilinear(dA, Z_full, G_a, Z_full, G_a)
    beta_h = sup_bilinear(dB, Z_full, G_b, Z_full, G_b)
    big = _orth_union(inst.V, Z_full)
    alpha_tilde = sup_bilinear(dA, Z_full, G_a, big, G_a)
    beta_tilde = sup_bilinear(dB, Z_full, G_b, big, G_b)

    A_v = _gram(G_a, inst.V)
    discrete = full_spectrum(A_v, _gram(G_b, inst.V))
    U_disc = inst.V @ discrete.vectors[:, :k_max]
    alpha_hat = sup_quadratic(dA_tilde, U_disc, G_a)
    beta_hat = sup_quadratic(dB_tilde, U_disc, G_b)

    c_f = math.sqrt(max(sla.eigvalsh(_gram(G_b, big), _gram(G_a, big)).max(), 0.0))

    P_h = _projector(G_a, inst.V)
    eye = np.eye(inst.E.shape[0])
    err_gram = _sym((eye - P_h).T @ G_a @ (eye - P_h))
    theta = np.empty(k_max)
    P_a, P_b = [], []
    for j in range(1, k_max + 1):
        Z = inst.extended_eigvecs(j)
        theta[j - 1] = math.sqrt(max(sup_quadratic(err_gram, Z, G_a), 0.0))
        P_a.append(_projector(G_a, Z))
        P_b.append(_projector(G_b, Z))
    err_a = _sym((eye - P_a[-1]).T @ G_a @ (eye - P_a[-1]))
    phi = math.sqrt(max(sup_quadratic(err_a, U_disc, G_a), 0.0))

    # approximability flag: dim(P_h U_{k_max}^e) == k_max
    proj_basis = P_h @ Z_full
    rank = np.linalg.matrix_rank(proj_basis, tol=1e-10)
    approx_ok = bool(rank == k_max and theta[-1] < 1.0)

    defect = np.empty(k_max)
    for j in range(k_max):
        u_e = inst.extended_eigvecs(j + 1)[:, -1]
        r = inst.V.T @ (G_a @ u_e - inst.lam[j] * (G_b @ u_e))
        defect[j] = math.sqrt(max(float(r @ np.linalg.solve(A_v, r)), 0.0))

    return FrameworkQuantities(
        theta=theta, phi=phi, alpha_h=alpha_h, beta_h=beta_h,
        alpha_tilde=alpha_tilde, beta_tilde=beta_tilde,
        alpha_hat=alpha_hat, beta_hat=beta_hat, c_f=c_f, discrete=discrete,
        defect_dual=defect, P_h=P_h, P_a=P_a, P_b=P_b,
        approximability_ok=approx_ok)


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------

@dataclass
class BoundCheck:
    bound: str
    j: int | None
    lhs: float
    rhs: float
    hypotheses_met: bool
    passed: bool | None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass
class BoundCheckReport:
    seed: int
    mode: str
    checks: list = field(default_factory=list)

    def add(self, bound, j, lhs, rhs, hypotheses_met):
        passed = None
        if hypotheses_met:
            tol = _RTOL * max(1.0, abs(lhs), abs(rhs))
            passed = bool(lhs <= rhs + tol)
        self.checks.append(BoundCheck(bound=bound, j=j, lhs=float(lhs),
                                      rhs=float(rhs),
                                      hypotheses_met=hypotheses_met,
                                      passed=passed))

    def violations(self):
        return [c for c in self.checks if c.hypotheses_met and not c.passed]

    def aggregated(self):
        """One record per bound id: worst slack among hypothesis-met checks."""
        by_bound = {}
        for c in self.checks:
            by_bound.setdefault(c.bound, []).append(c)
        out = []
        for bound, items in by_bound.items():
            met = [c for c in items if c.hypotheses_met]
            if not met:
                out.append(BoundCheck(bound=bound, j=None, lhs=math.nan,
                                      rhs=math.nan, hypotheses_met=False,
                                      passed=None))
                continue
            worst = min(met, key=lambda c: c.slack)
            agg = BoundCheck(bound=bound, j=worst.j, lhs=worst.lhs,
                             rhs=worst.rhs, hypotheses_met=True,
                             passed=all(c.passed for c in met))
            out.append(agg)
        return out


def _default_windows(lam, k_max):
    """Closed interval around each tracked eigenvalue: midpoints to the
    neighboring distinct values (0 below the smallest)."""
    windows = []
    for j in range(k_max):
        target = lam[j]
        below = lam[lam < target * (1 - 1e-12)]
        above = lam[lam > target * (1 + 1e-12)]
        lo = 0.0 if below.size == 0 else 0.5 * (below.max() + target)
        hi = 0.5 * (target + above.min()) if above.size else target * 2.0
        windows.append((lo, hi))
    return windows


def _penalty_condition(inst, q, factor) -> bool:
    """factor * k_b(v,v) <= k_a(v,v) for all v in the discrete span
    ~U_{k_max} (checked as a generalized eigenvalue bound)."""
    W = inst.V @ q.discrete.vectors[:, :inst.spec.k_max]
    ka = _gram(inst.K_a, W)
    kb = _gram(inst.K_b, W)
    vals = sla.eigvalsh(_sym(ka - factor * kb))
    scale = max(1.0, np.abs(ka).max(), factor * np.abs(kb).max())
    return bool(vals.min() >= -1e-9 * scale)


def verify_bounds(inst: SyntheticInstance) -> BoundCheckReport:
    """Check every inequality of the framework on one instance.

    The cluster window of each tracked eigenvalue extends to the midpoints
    between distinct exact values.
    """
    spec = inst.spec
    k_max = spec.k_max
    q = compute_quantities(inst)
    report = BoundCheckReport(seed=inst.seed,
                              mode="exact" if inst.exact_consistency else "perturbed")
    lam = inst.lam
    lam_t = q.discrete.eigenvalues
    G_a, G_b = inst.G_a, inst.G_b
    windows = _default_windows(lam, k_max)

    half_params = (q.alpha_h < 0.5 and q.beta_h < 0.5
                   and q.alpha_tilde < 0.5 and q.beta_tilde < 0.5)
    c_hat = (8.0 / math.sqrt(3.0)) * q.c_f * math.sqrt(lam[k_max - 1])

    # two-sided relative eigenvalue bound of the exact-consistency setting
    stab_exact = (inst.exact_consistency and q.approximability_ok
                  and _penalty_condition(
                      inst, q, 2.0 * lam[k_max - 1] / (1.0 - q.theta[-1] ** 2)))
    for j in range(k_max):
        rel = (lam_t[j] - lam[j]) / lam_t[j]
        report.add("ev_relative_error_lower", j + 1, 0.0, rel, stab_exact)
        report.add("ev_relative_error_upper", j + 1, rel, q.theta[j] ** 2, stab_exact)

    # exact eigenvalue bounded below by the discrete one times consistency factors
    for j in range(k_max):
        hyp = half_params and q.approximability_ok and q.theta[j] <= 0.5
        rhs = ((1 - 2 * q.alpha_h) * (1 - 2 * q.beta_h)
               * (1 - q.theta[j] ** 2)
               * (1 - 2 * c_hat * (q.alpha_tilde + q.beta_tilde) * q.theta[j])
               * lam_t[j])
        report.add("ev_lower_bound_consistency", j + 1, rhs, lam[j], hyp)

    # discrete eigenvalue bounded below via consistency on the discrete span
    stab_disc = _penalty_condition(inst, q, 2.0 * lam_t[k_max - 1])
    hyp_upper = stab_disc and q.beta_hat < 0.5 and q.alpha_hat < 1.0
    for j in range(k_max):
        rhs = (1 - 2 * q.beta_hat) / (1 + 2 * q.alpha_hat) * lam[j]
        report.add("ev_upper_bound_discrete_consistency", j + 1, rhs, lam_t[j], hyp_upper)

    # discrete eigenvalue bounded below via the invariant-subspace distance
    m = k_max
    phi = q.phi
    hyp_phi = (half_params and max(phi, q.c_f * lam_t[k_max - 1] * phi) <= 0.5)
    for j in range(m):
        rhs = ((1 - 2 * q.alpha_h) * (1 - 2 * q.beta_h)
               * (1 + c_hat * (q.alpha_tilde + q.beta_tilde) * phi) ** (-2)
               * (1 - q.c_f ** 2 * lam_t[k_max - 1] * phi ** 2) * lam[j])
        report.add("ev_upper_bound_invariant_distance", j + 1, rhs, lam_t[j], hyp_phi)

    # comparison of the two eigenspace projections for probe vectors in V_h.
    # Probes mix projected extended eigenvectors (which satisfy the bound's
    # closeness hypothesis, like the vectors the eigenvalue bounds act on) with
    # plain random members of V_h (mostly skipped by the hypothesis gate).
    rng = np.random.default_rng(inst.seed + 777)
    for j in range(1, k_max + 1):
        P_aj, P_bj = q.P_a[j - 1], q.P_b[j - 1]
        Zj = inst.extended_eigvecs(j)
        near = q.P_h @ (Zj @ rng.standard_normal((j, _N_PROBE - _N_PROBE // 3)))
        far = inst.V @ rng.standard_normal((spec.n_h, _N_PROBE // 3))
        probes = np.concatenate([near, far], axis=1)
        for p in range(probes.shape[1]):
            v = probes[:, p]
            av = math.sqrt(max(v @ (G_a @ v), 0.0))
            ev = v - P_aj @ v
            eps = math.sqrt(max(ev @ (G_a @ ev), 0.0)) / av
            hyp = half_params and eps <= 0.5
            delta_v = c_hat * (q.alpha_tilde + q.beta_tilde) * eps
            pa = P_aj @ v
            pb = P_bj @ v
            na = math.sqrt(max(pa @ (G_b @ pa), 0.0))
            nb = math.sqrt(max(pb @ (G_b @ pb), 0.0))
            report.add("projection_comparison_upper", j, nb, (1 + delta_v) * na, hyp)
            report.add("projection_comparison_lower", j, (1 - delta_v) * na, nb, hyp)

    # --- eigenvector identities and bounds, per tracked eigenpair
    X = q.discrete.vectors          # V_h coordinates, b_h-orthonormal
    n_disc = lam_t.size
    for j in range(k_max):
        lam_j = lam[j]
        lo, hi = windows[j]
        inside = (lam_t >= lo) & (lam_t <= hi)
        gamma = ClusterWindow(lo, hi).gamma(lam_t, lam_j)
        u_e = inst.extended_eigvecs(j + 1)[:, -1]
        norm_b_ue = math.sqrt(max(u_e @ (G_b @ u_e), 0.0))

        bvals = X.T @ (inst.V.T @ (G_b @ u_e))     # b_h(u^e, u~_i)
        avals = X.T @ (inst.V.T @ (G_a @ u_e))     # a_h(u^e, u~_i)
        dvals = avals - lam_j * bvals              # d_lambda(u^e, u~_i)
        dual = math.sqrt(float(np.sum(dvals ** 2 / lam_t)))

        # dual-norm formula consistency (basis sum equals SPD-solve value)
        report.add("dualnorm_formula", j + 1,
                   abs(dual - q.defect_dual[j]),
                   1e-10 * max(1.0, q.defect_dual[j]), True)

        # residual decomposition identity, checked as vectors in H^ex
        Qlam = inst.V @ (X[:, inside] @ (X[:, inside].T @ (inst.V.T @ (G_b @ u_e))))
        res = u_e - Qlam
        denom = np.where(inside, 1.0, lam_t - lam_j)  # inside entries unused
        factors = np.where(inside, 0.0, lam_t / denom)
        e_p = u_e - q.P_h @ u_e
        bvals_ep = X.T @ (inst.V.T @ (G_b @ e_p))
        rhs_vec = inst.V @ (X @ (factors * bvals_ep))
        rhs_vec = rhs_vec + (e_p - inst.V @ (X @ bvals_ep))
        dfac = np.where(inside, 0.0, 1.0 / denom)
        rhs_vec = rhs_vec + inst.V @ (X @ (dfac * dvals))
        idres = rhs_vec - res
        idnorm = math.sqrt(max(idres @ (G_b @ idres), 0.0))
        report.add("projection_identity", j + 1, idnorm, 1e-10 * max(1.0, norm_b_ue), True)

        # eigenvector error bounds in ||.||_h and in energy, with I_{V_h} = P_h
        err_b = math.sqrt(max(res @ (G_b @ res), 0.0))
        err_a = math.sqrt(max(res @ (G_a @ res), 0.0))
        pe_b = math.sqrt(max(e_p @ (G_b @ e_p), 0.0))
        pe_a = math.sqrt(max(e_p @ (G_a @ e_p), 0.0))
        hyp_gamma = math.isfinite(gamma)
        rhs1 = max(1.0, gamma) * pe_b + gamma / math.sqrt(lam_t[0]) * q.defect_dual[j]
        report.add("evec_error_bh_norm", j + 1, err_b, rhs1, hyp_gamma)
        rhs2 = ((gamma + 1.0) * (math.sqrt(lam_t[n_disc - 1]) * pe_b + 3.0 * pe_a)
                + gamma * q.defect_dual[j])
        report.add("evec_error_energy_norm", j + 1, err_a, rhs2, hyp_gamma)

        # defect dual norm bounded by the consistency parameters
        hyp_dl = q.alpha_h <= 0.5
        rhs_dl = math.sqrt(2.0 * lam_j) * (q.alpha_tilde
                                           + lam_j * q.c_f ** 2 * q.beta_tilde)
        report.add("defect_dual_norm_bound", j + 1, q.defect_dual[j], rhs_dl, hyp_dl)

        # record the sharper q-factor next to its dual-norm route bound;
        # whether q is generally the smaller quantity is left open, both
        # values are reported for inspection
        q_val = math.sqrt(float(np.sum((dvals[~inside] / lam_t[~inside]) ** 2)))
        report.add("defect_q_factor_bound", j + 1, q_val,
                   q.defect_dual[j] / math.sqrt(lam_t[0]), True)

    # form-ratio bounds on U_{k_max}^e (exact suprema)
    Z = inst.extended_eigvecs(k_max)
    dA = inst.G_a - inst.A_e
    dB = inst.G_b - inst.B_e
    ratio_a = max(np.abs(sla.eigvalsh(_gram(dA, Z), _gram(inst.A_e, Z))).max(),
                  np.abs(sla.eigvalsh(_gram(dA, Z), _gram(G_a, Z))).max())
    ratio_b = max(np.abs(sla.eigvalsh(_gram(dB, Z), _gram(inst.B_e, Z))).max(),
                  np.abs(sla.eigvalsh(_gram(dB, Z), _gram(G_b, Z))).max())
    report.add("form_ratio_a", None, ratio_a, q.alpha_h / (1 - q.alpha_h), half_params)
    report.add("form_ratio_b", None, ratio_b, q.beta_h / (1 - q.beta_h), half_params)

    # extension/lifting operator norm bounds (exact suprema)
    U_k = inst.U[:, :k_max]
    EU = inst.E @ U_k
    sup_ext_a = math.sqrt(max(sla.eigvalsh(_gram(G_a, EU), _gram(inst.M_a, U_k)).max(), 0.0))
    sup_ext_b = math.sqrt(max(sla.eigvalsh(_gram(G_b, EU), _gram(inst.M_b, U_k)).max(), 0.0))
    report.add("extension_norm_a", None, sup_ext_a, 1.0 + q.alpha_h, half_params)
    report.add("extension_norm_b", None, sup_ext_b, 1.0 + q.beta_h, half_params)
    sup_l_a = math.sqrt(max(sla.eigvalsh(_gram(inst.A_e, EU), _gram(G_a, EU)).max(), 0.0))
    sup_l_b = math.sqrt(max(sla.eigvalsh(_gram(inst.B_e, EU), _gram(G_b, EU)).max(), 0.0))
    report.add("lifting_norm_a", None, sup_l_a, 1.0 + q.alpha_h, half_params)
    report.add("lifting_norm_b", None, sup_l_b, 1.0 + q.beta_h, half_params)

    # --- norm equivalence on U_j^e
    for j in range(1, k_max + 1):
        Zj = inst.extended_eigvecs(j)
        vals = sla.eigvalsh(_gram(G_a, Zj), _gram(G_b, Zj))
        report.add("norm_equivalence_lower", j, 0.25 * lam[0], vals.min(), half_params)
        report.add("norm_equivalence_upper", j, vals.max(), 4.0 * lam[j - 1], half_params)

    # --- fundamental relation P_{a_h,j} = P_{b_h,j} in exact-consistency mode
    if inst.exact_consistency:
        for j in range(1, k_max + 1):
            diff = np.abs(q.P_a[j - 1] - q.P_b[j - 1]).max()
            scale = max(1.0, np.abs(q.P_a[j - 1]).max())
            report.add("projections_coincide", j, diff, 1e-12 * scale, True)

    return report


# ---------------------------------------------------------------------------
# seeded sweeps and the JSONL report
# ---------------------------------------------------------------------------

def _sweep_spec(rng, mode: str) -> InstanceSpec:
    n = int(rng.integers(6, 11))
    n_ex = n + int(rng.integers(2, 7))
    k_max = int(rng.integers(2, 5))
    n_h = int(rng.integers(max(k_max, n - 2), n_ex + 1))
    if mode == "exact":
        da = db = 0.0
    else:
        da = float(rng.uniform(0.005, 0.05))
        db = float(rng.uniform(0.005, 0.05))
    style = rng.random()
    if style < 0.2:
        noise = 0.0
    elif style < 0.85:
        noise = float(rng.uniform(0.05, 0.3))
    else:
        noise = None
    return InstanceSpec(n_h=n_h, n_cont=n, n_ex=n_ex, k_max=k_max,
                        delta_a=da, delta_b=db, approx_noise=noise)


def sweep(trials: int, seed: int, mode: str = "exact") -> list[BoundCheckReport]:
    """Verify the bound suite on ``trials`` seeded random instances.

    Instance ``i`` is fully determined by its seed ``seed + i``.  The
    instances run in seed order on the calling thread: each is a few small
    dense LAPACK calls that hold the GIL, so worker threads only add
    overhead.
    """
    if mode not in ("exact", "perturbed"):
        raise InputError(f"mode must be 'exact' or 'perturbed', got {mode!r}")
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    reports = []
    for inst_seed in range(seed, seed + trials):
        spec = _sweep_spec(np.random.default_rng(inst_seed), mode)
        reports.append(verify_bounds(make_instance(spec, inst_seed)))
    return reports


def write_jsonl(reports, fileobj) -> None:
    """One JSON object per (instance seed, bound id), aggregated over j."""
    for rep in reports:
        for check in rep.aggregated():
            obj = {
                "seed": rep.seed,
                "mode": rep.mode,
                "bound": check.bound,
                "lhs": None if math.isnan(check.lhs) else check.lhs,
                "rhs": None if math.isnan(check.rhs) else check.rhs,
                "slack": None if math.isnan(check.slack) else check.slack,
                "hypotheses_met": check.hypotheses_met,
                "pass": check.passed,
            }
            fileobj.write(json.dumps(obj, sort_keys=True) + "\n")
