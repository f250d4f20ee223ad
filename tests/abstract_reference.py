"""Per-probe, per-eigenpair and per-subspace references for
``veclap.abstract_framework``, used only by the tests.

``reference_projection_probes`` is the probe loop one vector at a time:
each probe's norms are vector-matrix-vector products and its two checks
are scalar ``add`` calls, upper then lower.  ``reference_eigenvector_checks``
is the eigenvector loop one tracked eigenpair at a time, with
``u_j^e = extended_eigvecs(j)[:, -1]``, its window's gap parameter from a
loop over the discrete eigenvalues (``reference_gap_parameter``) and scalar
``add`` calls.  ``verify_bounds`` checks the probes of every ``j``
in one stacked product, the eigenpairs as the columns of one matrix, and
adds each bound's checks as one block.

``reference_write_jsonl`` writes the JSONL report through the ``json``
encoder, where ``write_jsonl`` fills in a template.

``reference_quantities`` takes every route that the module takes once per
instance anew for each subspace: the Gram matrices of each ``U_j^e`` from
its own basis ``extended_eigvecs(j)``, a projector that builds its own
Gram matrix, the consistency constants over one and two subspaces as the
top singular value of the Cholesky-whitened block (``reference_sup_bilinear``,
where the module takes a pencil eigenvalue), and the form-ratio,
extension, lifting and norm-equivalence suprema as generalized eigenvalues
of Gram matrices formed where they are used.  The tests compare the two.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg as sla

from veclap.abstract_framework import (
    _N_PROBE,
    BoundCheckReport,
    _gram,
    _orth_union,
    cluster_windows,
    sup_quadratic,
)
from veclap.eigensolve import full_spectrum


def reference_projection_probes(inst, q) -> BoundCheckReport:
    """The ``projection_comparison_upper``/``_lower`` checks of ``inst``,
    given its ``compute_quantities``, on the probes ``verify_bounds`` draws."""
    report = BoundCheckReport(seed=inst.seed, mode="reference")
    k_max = inst.spec.k_max
    G_a, G_b = inst.G_a, inst.G_b
    half_params = (q.alpha_h < 0.5 and q.beta_h < 0.5
                   and q.alpha_tilde < 0.5 and q.beta_tilde < 0.5)
    c_hat = (8.0 / math.sqrt(3.0)) * q.c_f * math.sqrt(inst.lam[k_max - 1])
    rng = np.random.default_rng(inst.seed + 777)
    for j in range(1, k_max + 1):
        P_aj, P_bj = q.P_a[j - 1], q.P_b[j - 1]
        Zj = inst.extended_eigvecs(j)
        near = q.P_h @ (Zj @ rng.standard_normal((j, _N_PROBE - _N_PROBE // 3)))
        far = inst.V @ rng.standard_normal((inst.spec.n_h, _N_PROBE // 3))
        probes = np.concatenate([near, far], axis=1)
        for p in range(probes.shape[1]):
            v = probes[:, p]
            av = math.sqrt(max(v @ (G_a @ v), 0.0))
            pa = P_aj @ v
            ev = v - pa
            eps = math.sqrt(max(ev @ (G_a @ ev), 0.0)) / av
            hyp = half_params and eps <= 0.5
            delta_v = c_hat * (q.alpha_tilde + q.beta_tilde) * eps
            pb = P_bj @ v
            na = math.sqrt(max(pa @ (G_b @ pa), 0.0))
            nb = math.sqrt(max(pb @ (G_b @ pb), 0.0))
            report.add("projection_comparison_upper", j, nb, (1 + delta_v) * na, hyp)
            report.add("projection_comparison_lower", j, (1 - delta_v) * na, nb, hyp)
    return report


def reference_gap_parameter(lam_t, lo, hi, lam_j) -> float:
    """The largest ``lam_i / |lam_i - lam_j|`` over the ``lam_i`` outside
    ``[lo, hi]``, one value at a time."""
    gamma = 0.0
    for lam_i in lam_t:
        if lo <= lam_i <= hi:
            continue
        if lam_i == lam_j:
            return math.inf
        gamma = max(gamma, lam_i / abs(lam_i - lam_j))
    return gamma


def reference_eigenvector_checks(inst, q) -> BoundCheckReport:
    """The eigenvector identity and bound checks of ``inst`` (bounds
    ``dualnorm_formula``, ``projection_identity``, ``evec_error_bh_norm``,
    ``evec_error_energy_norm``, ``defect_dual_norm_bound`` and
    ``defect_q_factor_bound``), given its ``compute_quantities``, one
    tracked eigenpair at a time."""
    report = BoundCheckReport(seed=inst.seed, mode="reference")
    k_max = inst.spec.k_max
    G_a, G_b = inst.G_a, inst.G_b
    lam, lam_t = inst.lam, q.lam_h
    X = q.X_h
    n_disc = lam_t.size
    for j, (lo, hi) in enumerate(zip(*cluster_windows(lam, k_max))):
        lam_j = lam[j]
        inside = (lam_t >= lo) & (lam_t <= hi)
        gamma = reference_gap_parameter(lam_t, lo, hi, lam_j)
        u_e = inst.extended_eigvecs(j + 1)[:, -1]
        norm_b_ue = math.sqrt(max(u_e @ (G_b @ u_e), 0.0))

        bvals = X.T @ (inst.V.T @ (G_b @ u_e))
        avals = X.T @ (inst.V.T @ (G_a @ u_e))
        dvals = avals - lam_j * bvals
        dual = math.sqrt(float(np.sum(dvals ** 2 / lam_t)))
        report.add("dualnorm_formula", j + 1, abs(dual - q.defect_dual[j]),
                   1e-10 * max(1.0, q.defect_dual[j]), True)

        Qlam = inst.V @ (X[:, inside] @ (X[:, inside].T @ (inst.V.T @ (G_b @ u_e))))
        res = u_e - Qlam
        denom = np.where(inside, 1.0, lam_t - lam_j)
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

        rhs_dl = math.sqrt(2.0 * lam_j) * (q.alpha_tilde
                                           + lam_j * q.c_f ** 2 * q.beta_tilde)
        report.add("defect_dual_norm_bound", j + 1, q.defect_dual[j], rhs_dl,
                   q.alpha_h <= 0.5)

        q_val = math.sqrt(float(np.sum((dvals[~inside] / lam_t[~inside]) ** 2)))
        report.add("defect_q_factor_bound", j + 1, q_val,
                   q.defect_dual[j] / math.sqrt(lam_t[0]), True)
    return report


def _projector(G, Z) -> np.ndarray:
    return Z @ np.linalg.solve(_gram(G, Z), Z.T @ G)


def reference_sup_bilinear(delta_form, Z1, G1, Z2, G2) -> float:
    """sup over unit u in span(Z1), v in span(Z2) of |u' delta v| in the
    norms induced by G1 and G2, as the top singular value of
    L1^-1 (Z1' delta Z2) L2^-T with L L' the Gram matrices of the bases."""
    l1 = sla.cholesky(_gram(G1, Z1), lower=True)
    l2 = sla.cholesky(_gram(G2, Z2), lower=True)
    m = sla.solve_triangular(l1, Z1.T @ delta_form @ Z2, lower=True)
    m = sla.solve_triangular(l2, m.T, lower=True).T
    return float(sla.svdvals(m)[0]) if m.size else 0.0


def _pencil_max(num, den) -> float:
    return float(sla.eigvalsh(num, den).max())


def reference_quantities(inst) -> dict:
    """The framework parameters of ``inst`` and the exact suprema of its
    operator-norm checks, by the per-subspace routes.

    Keys: the ``FrameworkQuantities`` fields ``theta``, ``phi``,
    ``alpha_h``, ``beta_h``, ``alpha_tilde``, ``beta_tilde``,
    ``alpha_hat``, ``beta_hat``, ``c_f``, ``P_a``, ``P_b`` and
    ``defect_dual``, and the ``lhs`` of ``form_ratio_a``/``_b``,
    ``extension_norm_a``/``_b`` and ``lifting_norm_a``/``_b``, and the
    norm-equivalence extremes ``norm_equivalence_min``/``_max`` per ``j``.
    """
    k_max = inst.spec.k_max
    G_a, G_b = inst.G_a, inst.G_b
    Z = inst.extended_eigvecs(k_max)
    dA_tilde = inst.A_tilde - inst.A_e
    dB_tilde = inst.B_tilde - inst.B_e
    dA, dB = dA_tilde + inst.K_a, dB_tilde + inst.K_b
    big = _orth_union(inst.V, Z)
    A_v = _gram(G_a, inst.V)
    U_disc = inst.V @ full_spectrum(A_v, _gram(G_b, inst.V)).vectors[:, :k_max]
    ref = {
        "alpha_h": reference_sup_bilinear(dA, Z, G_a, Z, G_a),
        "beta_h": reference_sup_bilinear(dB, Z, G_b, Z, G_b),
        "alpha_tilde": reference_sup_bilinear(dA, Z, G_a, big, G_a),
        "beta_tilde": reference_sup_bilinear(dB, Z, G_b, big, G_b),
        "alpha_hat": sup_quadratic(dA_tilde, U_disc, G_a),
        "beta_hat": sup_quadratic(dB_tilde, U_disc, G_b),
        "c_f": math.sqrt(max(_pencil_max(_gram(G_b, big), _gram(G_a, big)), 0.0)),
    }

    P_h = _projector(G_a, inst.V)
    eye = np.eye(inst.E.shape[0])
    err = (eye - P_h).T @ G_a @ (eye - P_h)
    ref["theta"] = np.array([
        math.sqrt(max(sup_quadratic(err, inst.extended_eigvecs(j), G_a), 0.0))
        for j in range(1, k_max + 1)])
    ref["P_a"] = [_projector(G_a, inst.extended_eigvecs(j)) for j in range(1, k_max + 1)]
    ref["P_b"] = [_projector(G_b, inst.extended_eigvecs(j)) for j in range(1, k_max + 1)]
    err_a = (eye - ref["P_a"][-1]).T @ G_a @ (eye - ref["P_a"][-1])
    ref["phi"] = math.sqrt(max(sup_quadratic(err_a, U_disc, G_a), 0.0))
    defect = []
    for j in range(k_max):
        u_e = inst.extended_eigvecs(j + 1)[:, -1]
        r = inst.V.T @ (G_a @ u_e - inst.lam[j] * (G_b @ u_e))
        defect.append(math.sqrt(max(float(r @ np.linalg.solve(A_v, r)), 0.0)))
    ref["defect_dual"] = np.array(defect)

    for form, exact, G in (("a", inst.A_e, G_a), ("b", inst.B_e, G_b)):
        delta = _gram(G - exact, Z)
        ref[f"form_ratio_{form}"] = max(
            np.abs(sla.eigvalsh(delta, _gram(exact, Z))).max(),
            np.abs(sla.eigvalsh(delta, _gram(G, Z))).max())
    U_k = inst.U[:, :k_max]
    EU = inst.E @ U_k
    for form, cont, exact, G in (("a", inst.M_a, inst.A_e, G_a),
                                 ("b", inst.M_b, inst.B_e, G_b)):
        ref[f"extension_norm_{form}"] = math.sqrt(max(
            _pencil_max(_gram(G, EU), _gram(cont, U_k)), 0.0))
        ref[f"lifting_norm_{form}"] = math.sqrt(max(
            _pencil_max(_gram(exact, EU), _gram(G, EU)), 0.0))
    pencils = [sla.eigvalsh(_gram(G_a, inst.extended_eigvecs(j)),
                            _gram(G_b, inst.extended_eigvecs(j)))
               for j in range(1, k_max + 1)]
    ref["norm_equivalence_min"] = np.array([vals.min() for vals in pencils])
    ref["norm_equivalence_max"] = np.array([vals.max() for vals in pencils])
    return ref


def reference_write_jsonl(reports, fileobj) -> None:
    """``write_jsonl`` through the ``json`` encoder: one key-sorted object
    per (instance seed, bound id), NaN written as null."""
    encoder = json.JSONEncoder(sort_keys=True)
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
            fileobj.write(encoder.encode(obj) + "\n")
