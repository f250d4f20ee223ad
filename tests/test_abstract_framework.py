"""Synthetic framework: closed-form cases, Monte-Carlo supremum oracle,
identities, hypothesis gating, and seeded sweeps."""

import io
import json
import math
import threading

import numpy as np
import pytest
import scipy.linalg as sla

from veclap import abstract_framework
from veclap.abstract_framework import (
    InstanceSpec,
    compute_quantities,
    make_instance,
    rembest_instance,
    sweep,
    verify_bounds,
    write_jsonl,
)
from veclap.errors import InputError
from veclap.runtime import THREADS_ENV


class TestRembest:
    """The H = H^ex = V_h special case with scaled forms has closed forms."""

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
    def test_eigenvalue_closed_form(self, delta):
        inst = rembest_instance(7, delta, seed=12)
        q = compute_quantities(inst)
        expected = inst.lam * (1.0 + delta) / (1.0 - delta)
        rel = np.abs(q.discrete.eigenvalues - expected) / expected
        assert rel.max() <= 1e-12

    def test_measured_consistency_parameters(self):
        # beta_h = delta/(1-delta) is tight; the same expression upper-bounds
        # alpha_h, whose tight value for a~ = (1+delta) a is delta/(1+delta)
        delta = 0.05
        inst = rembest_instance(6, delta, seed=3)
        q = compute_quantities(inst)
        assert q.beta_h == pytest.approx(delta / (1.0 - delta), abs=1e-10)
        assert q.alpha_h == pytest.approx(delta / (1.0 + delta), abs=1e-10)
        assert q.alpha_h <= delta / (1.0 - delta) + 1e-10


class TestConformingCases:
    def test_exact_conforming_instance(self):
        spec = InstanceSpec(n_h=8, n_cont=6, n_ex=10, k_max=3, approx_noise=0.0)
        inst = make_instance(spec, 21)
        q = compute_quantities(inst)
        assert q.theta.max() <= 1e-7
        assert max(q.alpha_h, q.beta_h, q.alpha_tilde, q.beta_tilde) <= 1e-10
        rel = np.abs(q.discrete.eigenvalues[:3] - inst.lam[:3]) / inst.lam[:3]
        assert rel.max() <= 1e-10

    def test_vh_equal_to_eigenspace(self):
        spec = InstanceSpec(n_h=3, n_cont=6, n_ex=9, k_max=3, approx_noise=0.0)
        inst = make_instance(spec, 22)
        q = compute_quantities(inst)
        assert q.theta.max() <= 1e-7

    def test_prescribed_spectrum_realized(self):
        spec = InstanceSpec(n_h=8, n_cont=5, n_ex=9, k_max=2,
                            spectrum=(0.5, 1.0, 1.0, 4.0, 9.0))
        inst = make_instance(spec, 5)
        vals = sla.eigvalsh(inst.M_a, inst.M_b)
        np.testing.assert_allclose(vals, [0.5, 1.0, 1.0, 4.0, 9.0],
                                   rtol=1e-11, atol=1e-12)

    def test_resEVmain_exact_with_both_sides_zero(self):
        spec = InstanceSpec(n_h=8, n_cont=6, n_ex=10, k_max=3, approx_noise=0.0)
        rep = verify_bounds(make_instance(spec, 23))
        checks = [c for c in rep.checks if c.bound == "ev_relative_error_upper"]
        assert checks and all(c.hypotheses_met for c in checks)
        assert all(abs(c.lhs) <= 1e-9 and abs(c.rhs) <= 1e-9 for c in checks)
        assert not rep.violations()


class TestSpecValidation:
    def test_dimension_guards(self):
        with pytest.raises(InputError):
            InstanceSpec(n_h=4, n_cont=8, n_ex=6)
        with pytest.raises(InputError):
            InstanceSpec(n_h=2, n_cont=8, n_ex=12, k_max=5)
        with pytest.raises(InputError):
            InstanceSpec(n_h=8, n_cont=8, n_ex=12, delta_a=0.6)
        with pytest.raises(InputError):
            InstanceSpec(n_h=8, n_cont=4, n_ex=12, spectrum=(3.0, 1.0, 2.0, 4.0))


class TestMonteCarloOracle:
    """Computed suprema against direct maximization over random vectors."""

    def setup_method(self):
        spec = InstanceSpec(n_h=10, n_cont=8, n_ex=12, k_max=3,
                            delta_a=0.01, delta_b=0.01, approx_noise=0.2)
        self.inst = make_instance(spec, 99)
        self.q = compute_quantities(self.inst)
        self.rng = np.random.default_rng(1234)

    def sampled_quadratic_sup(self, delta_form, Z, G, n=100_000):
        d = Z.shape[1]
        C = self.rng.standard_normal((n, d))
        num = np.abs(np.einsum("nc,cd,nd->n", C, Z.T @ delta_form @ Z, C))
        den = np.einsum("nc,cd,nd->n", C, Z.T @ G @ Z, C)
        return float((num / den).max())

    def test_alpha_beta_subspace_suprema(self):
        inst, q = self.inst, self.q
        Z = inst.extended_eigvecs(3)
        pairs = [
            (inst.G_a - inst.A_e, Z, inst.G_a, q.alpha_h),
            (inst.G_b - inst.B_e, Z, inst.G_b, q.beta_h),
        ]
        for delta_form, Zs, G, exact in pairs:
            sampled = self.sampled_quadratic_sup(delta_form, Zs, G)
            assert sampled <= exact * (1.0 + 1e-9)
            assert sampled >= exact * 0.99

    def test_theta_phi_suprema(self):
        inst, q = self.inst, self.q
        eye = np.eye(inst.E.shape[0])
        err = (eye - q.P_h).T @ inst.G_a @ (eye - q.P_h)
        for j in (1, 2, 3):
            Z = inst.extended_eigvecs(j)
            sampled = math.sqrt(self.sampled_quadratic_sup(err, Z, inst.G_a))
            assert sampled <= q.theta[j - 1] * (1.0 + 1e-9)
            assert sampled >= q.theta[j - 1] * 0.99
        W = inst.V @ q.discrete.vectors[:, :3]
        err_a = (eye - q.P_a[2]).T @ inst.G_a @ (eye - q.P_a[2])
        sampled = math.sqrt(self.sampled_quadratic_sup(err_a, W, inst.G_a))
        assert sampled <= q.phi * (1.0 + 1e-9)
        assert sampled >= q.phi * 0.99

    def test_two_subspace_suprema(self):
        # sample the small factor, maximize the large factor in closed form
        inst, q = self.inst, self.q
        Z = inst.extended_eigvecs(3)
        big = np.linalg.qr(np.concatenate([inst.V, Z], axis=1))[0]
        G_a, G_b = inst.G_a, inst.G_b
        cases = [(G_a - inst.A_e, G_a, q.alpha_tilde),
                 (G_b - inst.B_e, G_b, q.beta_tilde)]
        for delta_form, G, exact in cases:
            gram_u = Z.T @ G @ Z
            gram_v = big.T @ G @ big
            L = np.linalg.cholesky(0.5 * (gram_v + gram_v.T))
            C = self.rng.standard_normal((100_000, 3))
            norms_u = np.sqrt(np.einsum("nc,cd,nd->n", C, gram_u, C))
            rhs = (Z @ (C / norms_u[:, None]).T).T @ delta_form @ big
            best_v = sla.solve_triangular(L, rhs.T, lower=True)
            sampled = float(np.linalg.norm(best_v, axis=0).max())
            assert sampled <= exact * (1.0 + 1e-9)
            assert sampled >= exact * 0.99


class TestIdentitiesAndGating:
    def test_fundrelation_in_exact_mode(self):
        spec = InstanceSpec(n_h=9, n_cont=7, n_ex=11, k_max=3, approx_noise=0.2)
        rep = verify_bounds(make_instance(spec, 31))
        fr = [c for c in rep.checks if c.bound == "projections_coincide"]
        assert fr and all(c.passed for c in fr)

    def test_iderror_identity(self):
        spec = InstanceSpec(n_h=9, n_cont=7, n_ex=11, k_max=2,
                            delta_a=0.02, delta_b=0.02, approx_noise=0.2)
        rep = verify_bounds(make_instance(spec, 32))
        ids = [c for c in rep.checks if c.bound == "projection_identity"]
        assert ids and all(c.hypotheses_met and c.passed for c in ids)

    def test_dual_norm_formula_equivalence(self):
        spec = InstanceSpec(n_h=9, n_cont=7, n_ex=11, k_max=3,
                            delta_a=0.01, delta_b=0.03, approx_noise=0.2)
        rep = verify_bounds(make_instance(spec, 33))
        dn = [c for c in rep.checks if c.bound == "dualnorm_formula"]
        assert dn and all(c.passed for c in dn)

    def test_hypothesis_gating_skips_not_fails(self):
        spec = InstanceSpec(n_h=8, n_cont=6, n_ex=10, k_max=2, approx_noise=0.2)
        inst = make_instance(spec, 34)
        # sabotage the penalty balance so the stability hypotheses fail
        inst.K_b = inst.K_b * 1e8
        rep = verify_bounds(inst)
        ev = [c for c in rep.checks if c.bound in ("ev_relative_error_upper", "ev_upper_bound_discrete_consistency")]
        assert ev and all(not c.hypotheses_met for c in ev)
        assert all(c.passed is None for c in ev)

    def test_remnonopt_quantities_recorded(self):
        spec = InstanceSpec(n_h=9, n_cont=7, n_ex=11, k_max=2,
                            delta_a=0.02, delta_b=0.01, approx_noise=0.2)
        rep = verify_bounds(make_instance(spec, 35))
        recs = [c for c in rep.checks if c.bound == "defect_q_factor_bound"]
        assert recs and all(c.passed for c in recs)  # q <= st-route bound


class TestSweeps:
    @pytest.mark.parametrize("mode,seed", [("exact", 1000), ("perturbed", 2000)])
    def test_no_violations(self, mode, seed):
        reports = sweep(25, seed, mode)
        assert len(reports) == 25
        for rep in reports:
            assert not rep.violations(), [
                (c.bound, c.j, c.lhs, c.rhs) for c in rep.violations()]

    def test_jsonl_schema(self):
        reports = sweep(2, 4242, "perturbed")
        buf = io.StringIO()
        write_jsonl(reports, buf)
        lines = buf.getvalue().splitlines()
        assert lines
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"seed", "mode", "bound", "lhs", "rhs",
                                "slack", "hypotheses_met", "pass"}
            if obj["hypotheses_met"]:
                assert obj["pass"] is True

    def test_sweep_determinism(self):
        a = sweep(3, 77, "perturbed")
        b = sweep(3, 77, "perturbed")
        for ra, rb in zip(a, b):
            for ca, cb in zip(ra.checks, rb.checks):
                assert (ca.bound, ca.j, ca.lhs, ca.rhs) == (cb.bound, cb.j,
                                                            cb.lhs, cb.rhs)

    def test_mode_guard(self):
        with pytest.raises(InputError):
            sweep(1, 0, "bogus")

    def test_instances_run_in_order_on_the_calling_thread(self, monkeypatch):
        # each instance is small GIL-bound LAPACK work, so the sweep ignores
        # the worker-thread setting
        monkeypatch.setenv(THREADS_ENV, "4")
        seen = []
        verify = abstract_framework.verify_bounds

        def recording_verify(inst):
            seen.append((inst.seed, threading.get_ident()))
            return verify(inst)

        monkeypatch.setattr(abstract_framework, "verify_bounds", recording_verify)
        reports = sweep(3, 77, "exact")
        assert [r.seed for r in reports] == [77, 78, 79]
        assert seen == [(seed, threading.get_ident()) for seed in (77, 78, 79)]
