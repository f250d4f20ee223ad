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

All framework parameters are computed exactly as small dense problems:
every supremum is the largest |generalized eigenvalue| of a Gram pencil.
Over two subspaces (alpha~, beta~) the pencil is (K' G1^-1 K, G2) for the
block K of the form between the two bases; for Theta_{h,j} and Phi_{h,k}
the numerator is the Gram matrix of the projection residuals, so those
vanish to round-off where V_h contains U_k^e.  The discrete eigenpairs
come from the swapped pencil (B_h, A_h), reduced by the Cholesky factor of
A_h: the tracked pairs are its largest eigenvalues, which that reduction
computes to full relative accuracy however ill conditioned B_h is.
U_j^e is spanned by the leading j columns of Z = E U_{k_max}, so a Gram
matrix on U_j^e is the leading j x j block of the one on Z.  The Gram
matrices on Z and what reads them:

    a_h, b_h              alpha_h, beta_h, Theta_{h,j}, P_{a_h,j}, P_{b_h,j},
                          norm equivalence, extension and lifting norms
    a_h - a, b_h - b      alpha_h, beta_h; form ratios
    a, b                  form ratios, lifting norms
    a_h on (I - P_h) Z    Theta_{h,j}

Every inequality of the error theory is checked with its own hypotheses
evaluated first; checks whose hypotheses fail are skipped, never failed.
A bound's checks for all tracked eigenpairs j = 1..k_max are computed at
once, on the columns of Z, and added to the report as one block.
A report keeps each check as a plain row ``(bound, j, lhs, rhs,
hypotheses_met)`` and judges it when it is read: an inequality within
``_RTOL * max(1, |lhs|, |rhs|)``, and an identity, whose ``rhs`` is its own
tolerance, by ``lhs <= rhs`` alone.  A bound's aggregated record is its
first check whose slack is within that tolerance of the smallest, so
round-off ties among inequality checks do not decide which one is
reported, and an identity reports its worst check.

The bounds of small quantities are functions of keyword-only scalars and
length-k arrays, none of the instance's size, and ``verify_bounds`` is
their synthetic caller:

    eigenvalue_bounds        ev_*: lam, lam_h, Theta_{h,j}, Phi_{h,k}, the
                             consistency parameters, c_f, c_hat and the
                             hypotheses as booleans
    eigenvector_bounds       evec_error_*: gap_parameters, the errors and
                             best-approximation errors in both norms, the
                             defect dual norms, the discrete spectrum's ends
    defect_dual_norm_bound   the defect dual norms, lam, alpha_h, alpha~,
                             beta~, c_f
    norm_equivalence_bounds  norm_equivalence_*: the k x k Gram matrices

The checks that need the instance stay in ``verify_bounds``: the
projection-comparison probes, projection_identity, dualnorm_formula, the
q-factor, the penalty conditions, the form ratios, the extension and
lifting norms and projections_coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .eigensolve import eigvalsh, full_spectrum, qr, solve_spd, svd
from .errors import InputError, NumericalError

__all__ = [
    "InstanceSpec",
    "SyntheticInstance",
    "FrameworkQuantities",
    "BoundCheck",
    "BoundCheckReport",
    "make_instance",
    "rembest_instance",
    "compute_quantities",
    "cluster_windows",
    "gap_parameters",
    "eigenvalue_bounds",
    "eigenvector_bounds",
    "defect_dual_norm_bound",
    "norm_equivalence_bounds",
    "verify_bounds",
    "sweep",
    "write_jsonl",
]

# relative numerical slack for checking exact inequalities in floating point
_RTOL = 1e-9
# identities whose rhs is their own tolerance: judged by lhs <= rhs alone
_SELF_TOLERANCED = frozenset({"projection_identity", "dualnorm_formula",
                              "projections_coincide"})
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


def _sym(mat) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _scaled_sym_perturbation(rng, metric, delta) -> np.ndarray:
    """Symmetric D with spectral norm of M^-1/2 D M^-1/2 equal to
    delta/(1+delta), so the realized consistency constant is <= delta."""
    if delta == 0.0:
        return np.zeros_like(metric)
    raw = _sym(rng.standard_normal(metric.shape))
    return raw * (delta / (1.0 + delta) / _pencil_sup(raw, metric))


def make_instance(spec: InstanceSpec, seed: int) -> SyntheticInstance:
    """Build a reproducible instance with the prescribed spectrum.

    The instance is built from the factors it draws: M_b = Q diag(d) Q'
    from an orthogonal Q, so U = Q diag(d)^-1/2 R is an M_b-orthonormal
    eigenbasis for the orthogonal factor R of a second draw, and E and an
    orthonormal basis of the complement of range(E) are the leading and
    trailing columns of one orthogonal factor.  No matrix is factored
    again to recover what its draw already gives.

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
    Q = qr(rng.standard_normal((n, n)))
    d = 1.0 + 0.5 * rng.random(n)
    M_b = Q @ np.diag(d) @ Q.T
    # U' M_b U = R' R = I for the orthogonal R
    U = (Q / np.sqrt(d)) @ qr(rng.standard_normal((n, n)))
    M_a = _sym(M_b @ U @ np.diag(lam) @ U.T @ M_b)

    # extension with orthonormal columns, and an orthonormal basis of the
    # complement of range(E), from one orthogonal factor; lifting via a
    # random weighted pseudo-inverse (a left inverse that is not the
    # adjoint); E' W E is symmetrized like every Gram matrix here, so no
    # triangle of it is preferred
    full = qr(rng.standard_normal((n_ex, n_ex)))
    E, comp = full[:, :n], full[:, n:]
    w = 0.5 + 1.5 * rng.random(n_ex)
    E_linv = solve_spd(_gram(np.diag(w), E), E.T * w[None, :])

    D_a = _scaled_sym_perturbation(rng, M_a, spec.delta_a)
    D_b = _scaled_sym_perturbation(rng, M_b, spec.delta_b)
    A_e = _sym(E_linv.T @ M_a @ E_linv)
    B_e = _sym(E_linv.T @ M_b @ E_linv)
    A_tilde = _sym(E_linv.T @ (M_a + D_a) @ E_linv)
    B_tilde = _sym(E_linv.T @ (M_b + D_b) @ E_linv)

    # penalties on the complement of range(E)
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
        S *= 0.5 / max(np.abs(eigvalsh(S)).max(), 1e-300)
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
        top = _pencil_sup(z.T @ leak @ z, z.T @ A_e @ z)
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
    V = qr(raw)

    return SyntheticInstance(
        spec=spec, seed=seed, lam=lam, M_a=M_a, M_b=M_b, U=U, E=E,
        A_e=A_e, B_e=B_e, A_tilde=A_tilde, B_tilde=B_tilde, K_a=K_a, K_b=K_b, V=V,
        exact_consistency=(spec.delta_a == 0.0 and spec.delta_b == 0.0))


def rembest_instance(n: int, delta: float, seed: int,
                     spectrum=None) -> SyntheticInstance:
    """The no-discretization-error special case: H = H^ex = V_h, no
    penalties, a~ = (1+delta) a and b~ = (1-delta) b, whose eigenvalues are
    lambda_j (1+delta)/(1-delta) in closed form.  Both forms are SPD
    exactly when |delta| < 1; any other delta raises InputError."""
    if not abs(delta) < 1.0:  # NaN fails this test too
        raise InputError(f"delta must be finite with |delta| < 1, got {delta}")
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


def _pencil_sup(num, den) -> float:
    """sup over v != 0 of |v' num v| / (v' den v); raises NumericalError
    if ``den`` is not positive definite."""
    try:
        vals = eigvalsh(num, den)
    except InputError as exc:  # the Gram matrix is not SPD
        raise NumericalError(f"subspace Gram matrix: {exc}") from exc
    return float(np.abs(vals).max()) if vals.size else 0.0


def sup_bilinear(delta_form, Z1, G1, Z2, G2) -> float:
    """sup over unit u in span(Z1), v in span(Z2) of |u' delta v| with the
    norms induced by G1 and G2, as the square root of the largest
    eigenvalue of (K' G1^-1 K, G2) for the block K = Z1' delta Z2; raises
    NumericalError if a Gram matrix is singular (a basis is not linearly
    independent)."""
    K = Z1.T @ delta_form @ Z2
    return math.sqrt(_pencil_sup(_sym(K.T @ solve_spd(_gram(G1, Z1), K)), _gram(G2, Z2)))


def sup_quadratic(delta_form, Z, G) -> float:
    """sup over unit v in span(Z) of |v' delta v| in the G-induced norm;
    raises NumericalError if the Gram matrix of Z is singular."""
    return _pencil_sup(_gram(delta_form, Z), _gram(G, Z))


def _projector(G, Z, gram) -> np.ndarray:
    """G-orthogonal projector onto span(Z) as an explicit matrix, given
    ``gram = _gram(G, Z)``."""
    return Z @ solve_spd(gram, Z.T @ G)


def _discrete_pairs(A_v, B_v) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of (A_v, B_v), ascending, and their B_v-orthonormal
    vectors, from ``full_spectrum(B_v, A_v)``: mu = 1 / lambda, reduced by
    the Cholesky factor of A_v."""
    swapped = full_spectrum(B_v, A_v)
    lam = 1.0 / swapped.eigenvalues[::-1]
    return lam, swapped.vectors[:, ::-1] * np.sqrt(lam)


def _column_norms(G, Z) -> np.ndarray:
    """G-induced norms of the columns of Z, or of each matrix in a stack Z."""
    return np.sqrt(np.maximum(np.einsum("...ip,...ip->...p", Z, G @ Z), 0.0))


def _orth_union(*bases, tol=1e-11) -> np.ndarray:
    stacked = np.concatenate(bases, axis=1)
    u, s, _ = svd(stacked)
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
    lam_h: np.ndarray          # (n_h,) eigenvalues of (A_h, B_h) on V_h, ascending
    X_h: np.ndarray            # (n_h, n_h) their b_h-orthonormal vectors, V_h coordinates
    defect_dual: np.ndarray    # (k_max,) ||d_{lambda_j}(u_j^e, .)||_{V_h'}
    P_h: np.ndarray            # a_h-orthogonal projector onto V_h
    P_a: np.ndarray            # (k_max, N_ex, N_ex) P_{a_h,j} onto U_j^e, j = 1..k_max
    P_b: np.ndarray
    gram_a: np.ndarray         # (k_max, k_max) a_h Gram matrix of U_{k_max}^e
    gram_b: np.ndarray         # b_h; U_j^e's are their leading j x j blocks
    approximability_ok: bool   # Theta_{h,k_max} < 1, so dim(P_h U_{k_max}^e) == k_max


def compute_quantities(inst: SyntheticInstance) -> FrameworkQuantities:
    k_max = inst.spec.k_max
    G_a, G_b = inst.G_a, inst.G_b
    # U_j^e is spanned by the leading j columns of Z, so each Gram matrix
    # on U_j^e is the leading j x j block of the one on U_{k_max}^e
    Z = inst.extended_eigvecs(k_max)
    gram_a, gram_b = _gram(G_a, Z), _gram(G_b, Z)

    # consistency: errors of the discrete forms against the pulled-back ones
    dA_tilde = inst.A_tilde - inst.A_e
    dB_tilde = inst.B_tilde - inst.B_e
    dA, dB = dA_tilde + inst.K_a, dB_tilde + inst.K_b
    alpha_h = _pencil_sup(_gram(dA, Z), gram_a)
    beta_h = _pencil_sup(_gram(dB, Z), gram_b)
    big = _orth_union(inst.V, Z)
    alpha_tilde = sup_bilinear(dA, Z, G_a, big, G_a)
    beta_tilde = sup_bilinear(dB, Z, G_b, big, G_b)

    A_v = _gram(G_a, inst.V)
    lam_h, X_h = _discrete_pairs(A_v, _gram(G_b, inst.V))
    U_disc = inst.V @ X_h[:, :k_max]
    alpha_hat = sup_quadratic(dA_tilde, U_disc, G_a)
    beta_hat = sup_quadratic(dB_tilde, U_disc, G_b)

    c_f = math.sqrt(_pencil_sup(_gram(G_b, big), _gram(G_a, big)))

    P_h = _projector(G_a, inst.V, A_v)
    err = _gram(G_a, Z - P_h @ Z)
    js = range(1, k_max + 1)
    theta = np.array([math.sqrt(_pencil_sup(err[:j, :j], gram_a[:j, :j])) for j in js])
    P_a = np.stack([_projector(G_a, Z[:, :j], gram_a[:j, :j]) for j in js])
    P_b = np.stack([_projector(G_b, Z[:, :j], gram_b[:j, :j]) for j in js])
    phi = math.sqrt(_pencil_sup(_gram(G_a, U_disc - P_a[-1] @ U_disc),
                                _gram(G_a, U_disc)))

    # P_h is a_h-orthogonal, so |P_h v|^2 >= (1 - Theta^2) |v|^2 on
    # U_{k_max}^e: Theta < 1 gives dim(P_h U_{k_max}^e) == k_max.  Theta^2
    # carries round-off near 1e-15 (it reads 1 +- 7e-16 where V_h is
    # a_h-orthogonal to u_1^e), so 1 - Theta^2 must clear it
    approx_ok = bool(theta[-1] ** 2 < 1.0 - 1e-12)

    # d_{lambda_j}(u_j^e, .) on V_h for every j, in the A_h^-1 dual norm
    r = inst.V.T @ (G_a @ Z - (G_b @ Z) * inst.lam[:k_max])
    defect = np.sqrt(np.maximum(np.einsum("ij,ij->j", r, solve_spd(A_v, r)), 0.0))

    return FrameworkQuantities(
        theta=theta, phi=phi, alpha_h=alpha_h, beta_h=beta_h,
        alpha_tilde=alpha_tilde, beta_tilde=beta_tilde,
        alpha_hat=alpha_hat, beta_hat=beta_hat, c_f=c_f, lam_h=lam_h, X_h=X_h,
        defect_dual=defect, P_h=P_h, P_a=P_a, P_b=P_b, gram_a=gram_a,
        gram_b=gram_b, approximability_ok=approx_ok)


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------

@dataclass
class BoundCheck:
    """One check as a report returns it; ``passed`` is None when its
    hypotheses failed."""

    bound: str
    j: int | None
    lhs: float
    rhs: float
    hypotheses_met: bool
    passed: bool | None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _tol(bound, lhs, rhs) -> float:
    if bound in _SELF_TOLERANCED:
        return 0.0
    return _RTOL * max(1.0, abs(lhs), abs(rhs))


def _passed(bound, lhs, rhs) -> bool:
    # the tolerance is non-negative, so it is needed only when lhs > rhs
    return lhs <= rhs or lhs <= rhs + _tol(bound, lhs, rhs)


@dataclass
class BoundCheckReport:
    """The checks of one instance, kept as rows ``(bound, j, lhs, rhs,
    hypotheses_met)``; the verdict of a check is computed where it is read."""

    seed: int
    mode: str
    rows: list = field(default_factory=list)

    def add(self, bound, j, lhs, rhs, hypotheses_met):
        """Record one check, or one per entry when ``lhs`` is a 1-d array.
        ``rhs`` and ``hypotheses_met`` are then arrays of its length or
        scalars shared by every entry, and ``j`` is a sequence of its length
        or an int or None shared by every entry."""
        if isinstance(lhs, np.ndarray):
            self.rows.extend(zip(
                repeat(bound),
                repeat(j) if j is None or isinstance(j, int) else j,
                lhs.tolist(),
                rhs.tolist() if isinstance(rhs, np.ndarray) else repeat(float(rhs)),
                (hypotheses_met.tolist() if isinstance(hypotheses_met, np.ndarray)
                 else repeat(bool(hypotheses_met)))))
        else:
            self.rows.append((bound, j, float(lhs), float(rhs),
                              bool(hypotheses_met)))

    @property
    def checks(self) -> list[BoundCheck]:
        """Every check, in the order added."""
        return [BoundCheck(bound, j, lhs, rhs, met,
                           _passed(bound, lhs, rhs) if met else None)
                for bound, j, lhs, rhs, met in self.rows]

    def violations(self) -> list[BoundCheck]:
        """The hypothesis-met checks that failed, in the order added."""
        return [BoundCheck(bound, j, lhs, rhs, True, False)
                for bound, j, lhs, rhs, met in self.rows
                if met and not _passed(bound, lhs, rhs)]

    def aggregated(self) -> list[BoundCheck]:
        """One record per bound id: the first hypothesis-met check whose
        slack is within its tolerance of the smallest, passed only if all
        hypothesis-met checks passed; a NaN record if none met them."""
        by_bound = {}
        for row in self.rows:
            by_bound.setdefault(row[0], []).append(row)
        out = []
        for bound, rows in by_bound.items():
            met = [row for row in rows if row[4]]
            if not met:
                out.append(BoundCheck(bound, None, math.nan, math.nan, False, None))
                continue
            least = min(row[3] - row[2] for row in met)
            # a NaN least slack (only a first row can give one) picks that row
            _, j, lhs, rhs, _ = next(
                (row for row in met
                 if row[3] - row[2] <= least + _tol(bound, row[2], row[3])), met[0])
            out.append(BoundCheck(bound, j, lhs, rhs, True,
                                  all(_passed(bound, row[2], row[3]) for row in met)))
        return out


def cluster_windows(lam, k) -> tuple[np.ndarray, np.ndarray]:
    """Closed window ``[lo, hi]`` around each of the first ``k`` values of
    the spectrum ``lam``: midpoints to the neighbouring distinct values, 0
    below the smallest and twice the value above the largest.  Returns the
    length-k ``lo`` and ``hi`` arrays that ``gap_parameters`` takes."""
    lam = np.asarray(lam, dtype=float)
    lo, hi = np.empty(k), np.empty(k)
    for j, target in enumerate(lam[:k]):
        below = lam[lam < target * (1 - 1e-12)]
        above = lam[lam > target * (1 + 1e-12)]
        lo[j] = 0.5 * (below.max() + target) if below.size else 0.0
        hi[j] = 0.5 * (target + above.min()) if above.size else target * 2.0
    return lo, hi


def _penalty_condition(ka, kb, factor) -> bool:
    """factor * k_b(v,v) <= k_a(v,v) for all v in the span whose k_a and k_b
    Gram matrices are ``ka`` and ``kb`` (checked as a generalized eigenvalue
    bound)."""
    vals = eigvalsh(_sym(ka - factor * kb))
    scale = max(1.0, np.abs(ka).max(), factor * np.abs(kb).max())
    return bool(vals.min() >= -1e-9 * scale)


def gap_parameters(lam_h, lo, hi, lam) -> np.ndarray:
    """Gap parameter of each window: the largest ``lam_i / |lam_i - lam|``
    over the discrete eigenvalues ``lam_i`` outside ``[lo, hi]``, ``inf``
    where one of them equals ``lam`` and 0 where none lies outside.
    ``lo``, ``hi`` and ``lam`` are length-k arrays, one entry per window."""
    lam_h = np.asarray(lam_h, dtype=float)[:, None]
    dist = np.abs(lam_h - lam)
    ratio = np.divide(lam_h, dist, out=np.full(dist.shape, math.inf), where=dist != 0.0)
    return ratio.max(axis=0, initial=0.0, where=(lam_h < lo) | (lam_h > hi))


def eigenvalue_bounds(report, js, *, lam, lam_h, theta, phi, alpha_h, beta_h,
                      alpha_tilde, beta_tilde, alpha_hat, beta_hat, c_f, c_hat,
                      half_params, approximability_ok, stab_exact, stab_disc):
    """The five ``ev_*`` checks of the tracked pairs ``js = 1..k``, from the
    exact and discrete eigenvalues ``lam``, ``lam_h`` and ``theta`` (length
    k), the other framework parameters and ``c_hat = 8/sqrt(3) c_f
    sqrt(lam_k)``; the hypotheses ``half_params`` (alpha_h, beta_h, alpha~,
    beta~ all below 1/2) and the penalty stability conditions of the
    exact-consistency setting and of the discrete span come as booleans."""
    rel = (lam_h - lam) / lam_h
    report.add("ev_relative_error_lower", js, np.zeros(lam.size), rel, stab_exact)
    report.add("ev_relative_error_upper", js, rel, theta ** 2, stab_exact)
    # exact eigenvalue bounded below by the discrete one times consistency factors
    hyp = (half_params and approximability_ok) & (theta <= 0.5)
    rhs = ((1 - 2 * alpha_h) * (1 - 2 * beta_h) * (1 - theta ** 2)
           * (1 - 2 * c_hat * (alpha_tilde + beta_tilde) * theta) * lam_h)
    report.add("ev_lower_bound_consistency", js, rhs, lam, hyp)
    # discrete eigenvalue bounded below via consistency on the discrete span
    hyp_upper = stab_disc and beta_hat < 0.5 and alpha_hat < 1.0
    rhs = (1 - 2 * beta_hat) / (1 + 2 * alpha_hat) * lam
    report.add("ev_upper_bound_discrete_consistency", js, rhs, lam_h, hyp_upper)
    # discrete eigenvalue bounded below via the invariant-subspace distance
    hyp_phi = (half_params and max(phi, c_f * lam_h[-1] * phi) <= 0.5)
    rhs = ((1 - 2 * alpha_h) * (1 - 2 * beta_h)
           * (1 + c_hat * (alpha_tilde + beta_tilde) * phi) ** (-2)
           * (1 - c_f ** 2 * lam_h[-1] * phi ** 2) * lam)
    report.add("ev_upper_bound_invariant_distance", js, rhs, lam_h, hyp_phi)


def eigenvector_bounds(report, js, *, gamma, err_a, err_b, pe_a, pe_b, defect,
                       lam_h_min, lam_h_max):
    """The eigenvector error bounds in ``||.||_h`` and in energy, with
    ``I_{V_h} = P_h``: per tracked pair, the gap parameter ``gamma``, the
    errors ``err_a``, ``err_b`` and best-approximation errors ``pe_a``,
    ``pe_b`` in the a_h and b_h norms, and the defect dual norm; a pair is
    checked where its ``gamma`` is finite.  ``lam_h_min`` and ``lam_h_max``
    bound the discrete spectrum from below and above."""
    hyp_gamma = np.isfinite(gamma)
    rhs1 = np.maximum(1.0, gamma) * pe_b + gamma / math.sqrt(lam_h_min) * defect
    report.add("evec_error_bh_norm", js, err_b, rhs1, hyp_gamma)
    rhs2 = ((gamma + 1.0) * (math.sqrt(lam_h_max) * pe_b + 3.0 * pe_a)
            + gamma * defect)
    report.add("evec_error_energy_norm", js, err_a, rhs2, hyp_gamma)


def defect_dual_norm_bound(report, js, *, defect, lam, alpha_h, alpha_tilde,
                           beta_tilde, c_f):
    """The defect dual norms of the tracked pairs bounded by the
    consistency parameters; ``defect`` and ``lam`` have length k."""
    rhs = np.sqrt(2.0 * lam) * (alpha_tilde + lam * c_f ** 2 * beta_tilde)
    report.add("defect_dual_norm_bound", js, defect, rhs, alpha_h <= 0.5)


def norm_equivalence_bounds(report, js, *, gram_a, gram_b, lam, half_params):
    """a_h and b_h equivalent on each ``U_j^e``, whose Gram matrices are the
    leading ``j x j`` blocks of the ``k x k`` ``gram_a`` and ``gram_b``."""
    vals = [eigvalsh(gram_a[:j, :j], gram_b[:j, :j]) for j in js]  # ascending
    report.add("norm_equivalence_lower", js, np.full(lam.size, 0.25 * lam[0]),
               np.array([v[0] for v in vals]), half_params)
    report.add("norm_equivalence_upper", js, np.array([v[-1] for v in vals]),
               4.0 * lam, half_params)


def verify_bounds(inst: SyntheticInstance) -> BoundCheckReport:
    """Check every inequality of the framework on one instance.

    The cluster window of each tracked eigenvalue is the one of
    ``cluster_windows`` over the exact spectrum.  Each bound's checks are
    computed for all tracked eigenpairs ``j = 1..k_max`` at once, on the
    columns of ``Z = E U_{k_max}``, and added as one block in the order of
    ``j``.
    """
    k_max = inst.spec.k_max
    q = compute_quantities(inst)
    report = BoundCheckReport(seed=inst.seed,
                              mode="exact" if inst.exact_consistency else "perturbed")
    js = range(1, k_max + 1)
    lam, lam_t = inst.lam, q.lam_h
    lam_k, lam_tk = lam[:k_max], lam_t[:k_max]
    G_a, G_b = inst.G_a, inst.G_b
    Z = inst.extended_eigvecs(k_max)

    half_params = (q.alpha_h < 0.5 and q.beta_h < 0.5
                   and q.alpha_tilde < 0.5 and q.beta_tilde < 0.5)
    c_hat = (8.0 / math.sqrt(3.0)) * q.c_f * math.sqrt(lam[k_max - 1])
    # penalty Gram matrices on the discrete span ~U_{k_max}
    W = inst.V @ q.X_h[:, :k_max]
    ka, kb = _gram(inst.K_a, W), _gram(inst.K_b, W)
    # penalty stability of the exact-consistency setting and of the discrete span
    stab_exact = (inst.exact_consistency and q.approximability_ok
                  and _penalty_condition(
                      ka, kb, 2.0 * lam[k_max - 1] / (1.0 - q.theta[-1] ** 2)))
    stab_disc = _penalty_condition(ka, kb, 2.0 * lam_t[k_max - 1])
    eigenvalue_bounds(
        report, js, lam=lam_k, lam_h=lam_tk, theta=q.theta, phi=q.phi,
        alpha_h=q.alpha_h, beta_h=q.beta_h, alpha_tilde=q.alpha_tilde,
        beta_tilde=q.beta_tilde, alpha_hat=q.alpha_hat, beta_hat=q.beta_hat,
        c_f=q.c_f, c_hat=c_hat, half_params=half_params,
        approximability_ok=q.approximability_ok, stab_exact=stab_exact,
        stab_disc=stab_disc)

    # comparison of the two eigenspace projections for probe vectors in V_h.
    # Probes mix projected extended eigenvectors (which satisfy the bound's
    # closeness hypothesis, like the vectors the eigenvalue bounds act on) with
    # plain random members of V_h (mostly skipped by the hypothesis gate).
    # The draws for j take the leading j rows of near[j - 1], so Z @ near[j - 1]
    # combines U_j^e only; every j is then checked in one stacked product.
    rng = np.random.default_rng(inst.seed + 777)
    n_far = _N_PROBE // 3
    near = np.zeros((k_max, k_max, _N_PROBE - n_far))
    far = np.empty((k_max, inst.spec.n_h, n_far))
    for j in js:
        near[j - 1, :j] = rng.standard_normal((j, _N_PROBE - n_far))
        far[j - 1] = rng.standard_normal((inst.spec.n_h, n_far))
    probes = np.concatenate([q.P_h @ (Z @ near), inst.V @ far], axis=2)
    pa, pb = q.P_a @ probes, q.P_b @ probes
    eps = (_column_norms(G_a, probes - pa) / _column_norms(G_a, probes)).ravel()
    na, nb = _column_norms(G_b, pa).ravel(), _column_norms(G_b, pb).ravel()
    hyp = half_params & (eps <= 0.5)
    delta_v = c_hat * (q.alpha_tilde + q.beta_tilde) * eps
    probe_js = [j for j in js for _ in range(_N_PROBE)]
    report.add("projection_comparison_upper", probe_js, nb, (1 + delta_v) * na, hyp)
    report.add("projection_comparison_lower", probe_js, (1 - delta_v) * na, nb, hyp)

    # --- eigenvector identities and bounds; column j - 1 of each (., k_max)
    # array below belongs to u_j^e = Z[:, j - 1] and its window
    X = q.X_h                       # V_h coordinates, b_h-orthonormal
    lo, hi = cluster_windows(lam, k_max)
    inside = (lam_t[:, None] >= lo) & (lam_t[:, None] <= hi)

    bvals = X.T @ (inst.V.T @ (G_b @ Z))       # b_h(u_j^e, u~_i)
    avals = X.T @ (inst.V.T @ (G_a @ Z))       # a_h(u_j^e, u~_i)
    dvals = avals - lam_k * bvals              # d_lambda_j(u_j^e, u~_i)
    dual = np.sqrt(np.sum(dvals ** 2 / lam_t[:, None], axis=0))

    # dual-norm formula consistency (basis sum equals SPD-solve value)
    report.add("dualnorm_formula", js, np.abs(dual - q.defect_dual),
               1e-10 * np.maximum(1.0, q.defect_dual), True)

    # residual decomposition identity, checked as vectors in H^ex
    res = Z - inst.V @ (X @ np.where(inside, bvals, 0.0))
    denom = np.where(inside, 1.0, lam_t[:, None] - lam_k)  # inside entries unused
    factors = np.where(inside, 0.0, lam_t[:, None] / denom)
    e_p = Z - q.P_h @ Z
    bvals_ep = X.T @ (inst.V.T @ (G_b @ e_p))
    rhs_vec = inst.V @ (X @ (factors * bvals_ep))
    rhs_vec = rhs_vec + (e_p - inst.V @ (X @ bvals_ep))
    dfac = np.where(inside, 0.0, 1.0 / denom)
    rhs_vec = rhs_vec + inst.V @ (X @ (dfac * dvals))
    report.add("projection_identity", js, _column_norms(G_b, rhs_vec - res),
               1e-10 * np.maximum(1.0, _column_norms(G_b, Z)), True)

    eigenvector_bounds(
        report, js, gamma=gap_parameters(lam_t, lo, hi, lam_k),
        err_a=_column_norms(G_a, res), err_b=_column_norms(G_b, res),
        pe_a=_column_norms(G_a, e_p), pe_b=_column_norms(G_b, e_p),
        defect=q.defect_dual, lam_h_min=lam_t[0], lam_h_max=lam_t[-1])
    defect_dual_norm_bound(report, js, defect=q.defect_dual, lam=lam_k,
                           alpha_h=q.alpha_h, alpha_tilde=q.alpha_tilde,
                           beta_tilde=q.beta_tilde, c_f=q.c_f)

    # record the sharper q-factor next to its dual-norm route bound;
    # whether q is generally the smaller quantity is left open, both
    # values are reported for inspection
    q_val = np.sqrt(np.sum(np.where(inside, 0.0, dvals / lam_t[:, None]) ** 2, axis=0))
    report.add("defect_q_factor_bound", js, q_val,
               q.defect_dual / math.sqrt(lam_t[0]), True)

    # form-ratio bounds on U_{k_max}^e (exact suprema); the sup of
    # |(a_h - a)(v, v)| / a_h(v, v) is alpha_h itself
    ae, be = _gram(inst.A_e, Z), _gram(inst.B_e, Z)
    ratio_a = max(_pencil_sup(_gram(G_a - inst.A_e, Z), ae), q.alpha_h)
    ratio_b = max(_pencil_sup(_gram(G_b - inst.B_e, Z), be), q.beta_h)
    report.add("form_ratio_a", None, ratio_a, q.alpha_h / (1 - q.alpha_h), half_params)
    report.add("form_ratio_b", None, ratio_b, q.beta_h / (1 - q.beta_h), half_params)

    # extension/lifting operator norm bounds (exact suprema); E U_k is Z
    U_k = inst.U[:, :k_max]
    sup_ext_a = math.sqrt(_pencil_sup(q.gram_a, _gram(inst.M_a, U_k)))
    sup_ext_b = math.sqrt(_pencil_sup(q.gram_b, _gram(inst.M_b, U_k)))
    report.add("extension_norm_a", None, sup_ext_a, 1.0 + q.alpha_h, half_params)
    report.add("extension_norm_b", None, sup_ext_b, 1.0 + q.beta_h, half_params)
    sup_l_a = math.sqrt(_pencil_sup(ae, q.gram_a))
    sup_l_b = math.sqrt(_pencil_sup(be, q.gram_b))
    report.add("lifting_norm_a", None, sup_l_a, 1.0 + q.alpha_h, half_params)
    report.add("lifting_norm_b", None, sup_l_b, 1.0 + q.beta_h, half_params)

    norm_equivalence_bounds(report, js, gram_a=q.gram_a, gram_b=q.gram_b,
                            lam=lam_k, half_params=half_params)

    # --- fundamental relation P_{a_h,j} = P_{b_h,j} in exact-consistency mode
    if inst.exact_consistency:
        diff = np.abs(q.P_a - q.P_b).max(axis=(1, 2))
        scale = np.maximum(1.0, np.abs(q.P_a).max(axis=(1, 2)))
        report.add("projections_coincide", js, diff, 1e-12 * scale, True)

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
    instances run in seed order: each makes 56.28 dense LAPACK calls on
    average over exact-mode seeds 0..99 and 57.64 over perturbed-mode seeds
    500..599, workspace queries included (all through the
    ``veclap.eigensolve`` kernels, as the ``scipy.linalg`` and
    ``numpy.linalg`` wrappers cost more than the work), on matrices of
    order 16 or less, and up to about 160 checks.
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


# a JSONL line as json.dumps(obj, sort_keys=True) writes it, keys in order
_JSONL_LINE = ('{{"bound": {}, "hypotheses_met": {}, "lhs": {}, "mode": {}, '
               '"pass": {}, "rhs": {}, "seed": {}, "slack": {}}}\n')
_JSON_LITERAL = {True: "true", False: "false", None: "null"}
# float reprs that json spells otherwise; a NaN number means "no value"
_JSON_SPECIAL = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x: float) -> str:
    """``x`` as ``json`` writes a float, except NaN, which becomes null."""
    text = float.__repr__(x)
    return _JSON_SPECIAL.get(text, text)


def write_jsonl(reports, fileobj) -> None:
    """One JSON object per (instance seed, bound id), aggregated over j.

    Each line holds the keys ``bound``, ``hypotheses_met``, ``lhs``,
    ``mode``, ``pass``, ``rhs``, ``seed`` and ``slack`` in that (sorted)
    order, with the bytes ``json.dumps(obj, sort_keys=True)`` would write;
    a NaN number is written as null.
    """
    for rep in reports:
        mode = encode_basestring_ascii(rep.mode)
        fileobj.write("".join(
            _JSONL_LINE.format(
                encode_basestring_ascii(c.bound), _JSON_LITERAL[c.hypotheses_met],
                _json_number(c.lhs), mode, _JSON_LITERAL[c.passed],
                _json_number(c.rhs), int(rep.seed), _json_number(c.slack))
            for c in rep.aggregated()))
