"""Per-probe reference for the projection comparison checks of
``veclap.abstract_framework.verify_bounds``, used only by the tests.

This is the probe loop one vector at a time: each probe's norms are
vector-matrix-vector products and its two checks are scalar ``add`` calls,
upper then lower.  ``verify_bounds`` checks the probes of one ``j`` together
as matrix products and adds each bound's checks as one block; the tests
compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from veclap.abstract_framework import _N_PROBE, BoundCheckReport


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
