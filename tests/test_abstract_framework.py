"""Synthetic framework: closed-form cases, Monte-Carlo supremum oracle,
identities, hypothesis gating, and seeded sweeps."""

import io
import json
import math
import threading
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla

from abstract_reference import (
    reference_eigenvector_checks,
    reference_projection_probes,
    reference_quantities,
    reference_sup_bilinear,
    reference_write_jsonl,
)
from veclap import abstract_framework, eigensolve
from veclap.abstract_framework import (
    BoundCheckReport,
    InstanceSpec,
    _column_norms,
    _discrete_pairs,
    _gram,
    _penalty_condition,
    _scaled_sym_perturbation,
    cluster_windows,
    compute_quantities,
    defect_dual_norm_bound,
    eigenvalue_bounds,
    eigenvector_bounds,
    gap_parameters,
    make_instance,
    norm_equivalence_bounds,
    rembest_instance,
    sup_bilinear,
    sup_quadratic,
    sweep,
    verify_bounds,
    write_jsonl,
)
from veclap.errors import InputError, NumericalError


def _random_spd(rng, n, cond_spread=0.5) -> np.ndarray:
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = 1.0 + cond_spread * rng.random(n)
    return q @ np.diag(d) @ q.T


class TestRembest:
    """The H = H^ex = V_h special case with scaled forms has closed forms."""

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
    def test_eigenvalue_closed_form(self, delta):
        inst = rembest_instance(7, delta, seed=12)
        q = compute_quantities(inst)
        expected = inst.lam * (1.0 + delta) / (1.0 - delta)
        rel = np.abs(q.lam_h - expected) / expected
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

    @pytest.mark.parametrize("delta", [1.0, -1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_delta_outside_the_open_unit_interval_is_an_input_error(self, delta):
        # for |delta| >= 1, b~ = (1 - delta) b or a~ = (1 + delta) a is not SPD
        with pytest.raises(InputError, match=r"\|delta\| < 1"):
            rembest_instance(4, delta, 0)


class TestInstanceInvariants:
    """What make_instance builds from its factors, at 1e-13 relative:
    U' M_b U = I, M_a U = M_b U diag(lam), E' E = I, E' A_e E = M_a,
    E' B_e E = M_b, and in exact mode K_a E = K_b E = 0."""

    @staticmethod
    def assert_invariants(inst):
        def close(ours, theirs, what, scale=None):
            scale = np.abs(theirs).max() if scale is None else scale
            err = np.abs(ours - theirs).max()
            assert err <= 1e-13 * max(1.0, scale), (inst.seed, what, err)

        n = inst.spec.n_cont
        U, E, M_b = inst.U, inst.E, inst.M_b
        close(U.T @ M_b @ U, np.eye(n), "U' M_b U")
        close(inst.M_a @ U, (M_b @ U) * inst.lam, "M_a U")
        close(E.T @ E, np.eye(n), "E' E")
        close(E.T @ inst.A_e @ E, inst.M_a, "E' A_e E")
        close(E.T @ inst.B_e @ E, M_b, "E' B_e E")
        if inst.exact_consistency:
            for name in ("K_a", "K_b"):
                K = getattr(inst, name)
                close(K @ E, 0.0, f"{name} E", scale=np.abs(K).max())

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_sweep_instances(self, mode):
        for seed in range(200):
            self.assert_invariants(_sweep_instance(seed, mode))

    def test_no_complement(self):
        # n_ex == n_cont: E is orthogonal and the penalties vanish
        spec = InstanceSpec(n_h=6, n_cont=6, n_ex=6, k_max=3, approx_noise=0.1)
        inst = make_instance(spec, 8)
        self.assert_invariants(inst)
        assert not inst.K_a.any() and not inst.K_b.any()


class TestConformingCases:
    def test_exact_conforming_instance(self):
        spec = InstanceSpec(n_h=8, n_cont=6, n_ex=10, k_max=3, approx_noise=0.0)
        inst = make_instance(spec, 21)
        q = compute_quantities(inst)
        assert q.theta.max() <= 1e-7
        assert max(q.alpha_h, q.beta_h, q.alpha_tilde, q.beta_tilde) <= 1e-10
        rel = np.abs(q.lam_h[:3] - inst.lam[:3]) / inst.lam[:3]
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


class TestScaledPerturbation:
    """The perturbation's contract: max |eig(D, M)| = delta / (1 + delta)."""

    @pytest.mark.parametrize("n", [1, 4, 10])
    @pytest.mark.parametrize("delta", [0.005, 0.05, 0.3, 0.49])
    def test_whitened_spectral_norm(self, n, delta):
        rng = np.random.default_rng(17 * n)
        for metric in (_random_spd(rng, n), _random_spd(rng, n, cond_spread=50.0),
                       np.diag(np.logspace(-3, 3, n))):
            D = _scaled_sym_perturbation(rng, metric, delta)
            assert np.array_equal(D, D.T)
            top = np.abs(sla.eigvalsh(D, metric)).max()
            assert top == pytest.approx(delta / (1.0 + delta), rel=1e-14)

    def test_zero_delta_gives_zeros(self):
        rng = np.random.default_rng(3)
        D = _scaled_sym_perturbation(rng, _random_spd(rng, 5), 0.0)
        assert D.shape == (5, 5) and not D.any()


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
        W = inst.V @ q.X_h[:, :3]
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


class TestDegenerateSubspaces:
    def test_singular_gram_is_a_numerical_error(self):
        # the columns of Z are dependent, so its Gram matrix is singular
        Z, I = np.ones((4, 2)), np.eye(4)
        with pytest.raises(NumericalError):
            sup_bilinear(np.eye(4), Z, I, Z, I)
        with pytest.raises(NumericalError):
            sup_bilinear(np.eye(4), I, I, Z, I)
        with pytest.raises(NumericalError):
            sup_quadratic(np.eye(4), Z, I)


class TestSupBilinear:
    """The largest eigenvalue of (K' G1^-1 K, G2) against the top singular
    value of the Cholesky-whitened block."""

    @pytest.mark.parametrize("spread", [0.5, 1e2, 1e4, 1e6])
    def test_equals_the_whitened_svd(self, spread):
        rng = np.random.default_rng(int(spread))
        for _ in range(20):
            n = int(rng.integers(4, 13))
            d1, d2 = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
            Z1, Z2 = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
            # metrics with condition numbers up to 1 + spread
            G1 = _random_spd(rng, n, cond_spread=spread)
            G2 = _random_spd(rng, n, cond_spread=spread)
            D = rng.standard_normal((n, n))
            ours = sup_bilinear(D, Z1, G1, Z2, G2)
            assert ours == pytest.approx(reference_sup_bilinear(D, Z1, G1, Z2, G2),
                                         rel=1e-12)

    def test_a_zero_block_and_empty_bases_give_zero(self):
        rng = np.random.default_rng(5)
        Z1, Z2, G = rng.standard_normal((6, 2)), rng.standard_normal((6, 3)), np.eye(6)
        # the form vanishes on span(Z1) x span(Z2): Z1' D Z2 = 0
        D = sla.null_space(Z1.T) @ rng.standard_normal((4, 6))
        assert sup_bilinear(D, Z1, G, Z2, G) <= 1e-15
        assert sup_bilinear(np.zeros((6, 6)), Z1, G, Z2, G) == 0.0
        for left, right in ((Z1[:, :0], Z2), (Z1, Z2[:, :0]), (Z1[:, :0], Z2[:, :0])):
            assert sup_bilinear(rng.standard_normal((6, 6)), left, G, right, G) == 0.0


class TestDiscretePairs:
    def test_an_ill_conditioned_mass_matrix(self):
        # cond(B) = 3.3e10: reduced by the Cholesky factor of B, the small
        # eigenvalues lose about eps cond(B) |A| absolutely; reduced by A's,
        # they keep full relative accuracy
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        a = np.arange(1.0, 9.0)
        b = np.array([1.0] * 6 + [1e-10, 3e-11])
        A, B = q @ np.diag(a) @ q.T, q @ np.diag(b) @ q.T
        A, B = 0.5 * (A + A.T), 0.5 * (B + B.T)
        exact = np.sort(a / b)[:6]
        lam, X = _discrete_pairs(A, B)
        np.testing.assert_allclose(lam[:6], exact, rtol=1e-12)
        assert np.all(np.diff(lam) > 0)
        # the tracked (smallest) pairs are B-orthonormal and accurate
        X = X[:, :6]
        assert np.abs(X.T @ B @ X - np.eye(6)).max() <= 1e-12
        AX = A @ X
        residuals = (np.linalg.norm(AX - (B @ X) * lam[:6], axis=0)
                     / np.linalg.norm(AX, axis=0))
        assert residuals.max() <= 1e-12
        direct = eigensolve.full_spectrum(A, B).eigenvalues[:6]
        assert (np.abs(direct - exact) / exact).max() > 1e-7

    def test_equals_the_direct_reduction_on_a_well_conditioned_pencil(self):
        rng = np.random.default_rng(4)
        A, B = _random_spd(rng, 9, 5.0), _random_spd(rng, 9)
        (lam, X), direct = _discrete_pairs(A, B), eigensolve.full_spectrum(A, B)
        np.testing.assert_allclose(lam, direct.eigenvalues, rtol=1e-13)
        # eigenvectors agree up to sign
        np.testing.assert_allclose(np.abs(X.T @ B @ direct.vectors),
                                   np.eye(9), atol=1e-12)


class TestApproximability:
    @staticmethod
    def rank_rule(inst, q):
        # the rule the flag stands for: P_h Z has full rank under a 1e-10
        # singular-value cut, and Theta < 1
        Z = inst.extended_eigvecs(inst.spec.k_max)
        s = np.linalg.svd(q.P_h @ Z, compute_uv=False)
        return bool(np.count_nonzero(s > 1e-10) == inst.spec.k_max
                    and q.theta[-1] < 1.0)

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_flag_equals_the_rank_rule(self, mode):
        for seed in range(20):
            inst = _sweep_instance(seed, mode)
            q = compute_quantities(inst)
            assert q.approximability_ok == self.rank_rule(inst, q), seed

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_vh_a_orthogonal_to_the_first_eigenvector(self, mode):
        # P_h u_1^e = 0, so Theta = 1 up to round-off, on either side of it
        for seed in range(20):
            inst = _sweep_instance(seed, mode)
            u1 = inst.extended_eigvecs(1)
            inst.V = sla.null_space((inst.G_a @ u1).T)
            q = compute_quantities(inst)
            assert abs(q.theta[-1] - 1.0) <= 1e-14, seed
            assert not q.approximability_ok and not self.rank_rule(inst, q), seed

    def test_theta_and_phi_vanish_to_round_off_where_vh_contains_the_eigenvectors(self):
        # approx_noise = 0: U_k^e lies in V_h, and for seed 5282 the discrete
        # eigenvectors lie in U_k^e
        for seed in (4943, 5282):
            inst = _sweep_instance(seed, "perturbed")
            assert inst.spec.approx_noise == 0.0
            assert compute_quantities(inst).theta.max() <= 1e-14
        assert compute_quantities(_sweep_instance(5282, "perturbed")).phi <= 1e-14


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


def _as_tuples(checks):
    # repr keeps NaN equal to NaN and every other float exact
    return [(c.bound, c.j, repr(c.lhs), repr(c.rhs), c.hypotheses_met, c.passed)
            for c in checks]


class TestGapParameters:
    def test_gamma_simple(self):
        assert gap_parameters([1.0, 3.0], [0.0], [1.5], [1.0]) == pytest.approx([1.5])

    def test_gamma_empty_outside(self):
        assert gap_parameters([1.0, 2.0], [0.0], [10.0], [1.0]).tolist() == [0.0]

    def test_gamma_infinite_when_not_separated(self):
        # an outside value equal to lam: inf, and no division by zero
        assert gap_parameters([1.0, 2.0], [0.5], [0.9], [1.0]).tolist() == [math.inf]

    def test_one_entry_per_window(self):
        gamma = gap_parameters([1.0, 2.0, 3.0], [0.0, 0.0, 0.5], [1.5, 10.0, 0.9],
                               [1.0, 1.0, 1.0])
        assert gamma.tolist() == [2.0, 0.0, math.inf]


class TestBoundCheckReport:
    def test_a_block_add_equals_scalar_adds(self):
        nan = math.nan
        # rows 1 and 2 tie on the smallest slack, 2.0; row 4 has a NaN lhs
        lhs = np.array([0.5, 1.0, 2.0, 9.0, nan, 0.0])
        rhs = np.array([3.0, 3.0, 4.0, 1.0, 1.0, 5.0])
        met = np.array([True, True, True, False, True, True])
        columns = [("projection_comparison_upper", lhs, rhs, met),
                   ("projection_comparison_lower", rhs, lhs, np.zeros(6, bool))]
        block = BoundCheckReport(seed=1, mode="exact")
        scalar = BoundCheckReport(seed=1, mode="exact")
        for bound, l, r, h in columns:
            block.add(bound, 2, l, r, h)
            for li, ri, hi in zip(l, r, h):
                scalar.add(bound, 2, li, ri, hi)
        for read in (lambda rep: rep.checks, lambda rep: rep.violations(),
                     lambda rep: rep.aggregated()):
            assert _as_tuples(read(block)) == _as_tuples(read(scalar))
        nan_row = ("projection_comparison_upper", 2, "nan", "1.0", True, False)
        assert _as_tuples(block.violations()) == [nan_row]
        assert _as_tuples(block.aggregated()) == [
            ("projection_comparison_upper", 2, "1.0", "3.0", True, False),
            ("projection_comparison_lower", None, "nan", "nan", False, None)]

    def test_a_block_with_a_j_per_entry_equals_scalar_adds(self):
        lhs = np.array([0.5, 1.0, 2.0, 9.0])
        rhs = np.array([3.0, 3.0, 4.0, 1.0])
        met = np.array([True, False, True, True])
        js = [1, 1, 2, 3]
        block = BoundCheckReport(seed=1, mode="exact")
        scalar = BoundCheckReport(seed=1, mode="exact")
        block.add("evec_error_bh_norm", js, lhs, rhs, met)
        block.add("norm_equivalence_lower", range(1, 5), lhs, 2.5, True)
        for j, li, ri, hi in zip(js, lhs, rhs, met):
            scalar.add("evec_error_bh_norm", j, li, ri, hi)
        for j, li in enumerate(lhs, 1):
            scalar.add("norm_equivalence_lower", j, li, 2.5, True)
        for read in (lambda rep: rep.checks, lambda rep: rep.violations(),
                     lambda rep: rep.aggregated()):
            assert _as_tuples(read(block)) == _as_tuples(read(scalar))
        assert [c.j for c in block.checks] == js + [1, 2, 3, 4]


class TestSelfToleranced:
    """An identity check carries its tolerance in its rhs and is judged by
    lhs <= rhs alone; an inequality keeps the relative slack."""

    @pytest.mark.parametrize("bound", sorted(abstract_framework._SELF_TOLERANCED))
    def test_an_identity_means_its_stated_tolerance(self, bound):
        rep = BoundCheckReport(seed=1, mode="perturbed")
        # j = 2 at twice its rhs: within the 1e-9 floor of an inequality
        rep.add(bound, [1, 2, 3], np.array([1e-11, 2e-10, 1e-10]), 1e-10, True)
        rep.add("evec_error_bh_norm", 1, 1.0 + 5e-10, 1.0, True)
        assert [c.passed for c in rep.checks] == [True, False, True, True]
        assert [(c.bound, c.j) for c in rep.violations()] == [(bound, 2)]
        identity, inequality = rep.aggregated()
        assert (identity.j, identity.passed) == (2, False)
        assert inequality.passed

    @pytest.mark.parametrize("bound", sorted(abstract_framework._SELF_TOLERANCED))
    def test_an_identity_reports_its_worst_check(self, bound):
        # all three pass; the slacks differ by less than 1e-9
        rep = BoundCheckReport(seed=1, mode="exact")
        rep.add(bound, [1, 2, 3], np.array([1e-13, 3e-11, 2e-11]), 1e-10, True)
        (row,) = rep.aggregated()
        assert (row.j, row.lhs, row.passed) == (2, 3e-11, True)


class TestRoundOffTies:
    def test_aggregated_rows_survive_a_reassociated_gram(self, monkeypatch):
        # ties among checks whose slacks agree to round-off (P_a = P_b in
        # exact mode) must not decide the reported row, so a change of
        # summation order moves every aggregated row by round-off only
        def rows():
            reports = sweep(25, 0, "exact") + sweep(25, 9000, "perturbed")
            return [(rep.seed, c) for rep in reports for c in rep.aggregated()]

        ours = rows()
        monkeypatch.setattr(abstract_framework, "_gram",
                            lambda G, Z: abstract_framework._sym(Z.T @ (G @ Z)))
        theirs = rows()
        assert [(seed, c.bound, c.hypotheses_met, c.passed) for seed, c in ours] == [
            (seed, c.bound, c.hypotheses_met, c.passed) for seed, c in theirs]
        for (seed, a), (_, b) in zip(ours, theirs):
            for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
                assert abs(x - y) <= 1e-8 * max(1.0, abs(x)) or (
                    math.isnan(x) and math.isnan(y)), (seed, a, b)


class TestProjectionProbes:
    @staticmethod
    def assert_probes_match_the_reference(inst):
        checks = verify_bounds(inst).checks
        ref = reference_projection_probes(inst, compute_quantities(inst)).checks
        for bound in ("projection_comparison_upper", "projection_comparison_lower"):
            ours = [c for c in checks if c.bound == bound]
            theirs = [c for c in ref if c.bound == bound]
            assert [(c.j, c.hypotheses_met, c.passed) for c in ours] == [
                (c.j, c.hypotheses_met, c.passed) for c in theirs]
            np.testing.assert_allclose([c.lhs for c in ours],
                                       [c.lhs for c in theirs], rtol=1e-12)
            np.testing.assert_allclose([c.rhs for c in ours],
                                       [c.rhs for c in theirs], rtol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_blocked_probes_equal_the_per_probe_reference(self, mode):
        for seed in range(20):
            spec = abstract_framework._sweep_spec(np.random.default_rng(seed), mode)
            self.assert_probes_match_the_reference(make_instance(spec, seed))

    def test_large_consistency_parameters_skip_every_probe(self):
        # beta_h = 0.4 / 0.6 > 1/2, while the probes near U_j^e have eps ~ 0
        inst = rembest_instance(6, 0.4, seed=3)
        self.assert_probes_match_the_reference(inst)
        probes = [c for c in verify_bounds(inst).checks
                  if c.bound.startswith("projection_comparison")]
        assert len(probes) == 144 and not any(c.hypotheses_met for c in probes)


class TestEigenvectorChecks:
    BOUNDS = ("dualnorm_formula", "projection_identity", "evec_error_bh_norm",
              "evec_error_energy_norm", "defect_dual_norm_bound",
              "defect_q_factor_bound")

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_columns_equal_the_per_eigenpair_reference(self, mode):
        # the per-j loop reads u_j^e from extended_eigvecs(j), which differs
        # from the column Z[:, j - 1] in the last bits
        for seed in range(20):
            inst = _sweep_instance(seed, mode)
            checks = verify_bounds(inst).checks
            ref = reference_eigenvector_checks(inst, compute_quantities(inst)).checks
            for bound in self.BOUNDS:
                ours = [c for c in checks if c.bound == bound]
                theirs = [c for c in ref if c.bound == bound]
                assert [c.j for c in ours] == list(range(1, inst.spec.k_max + 1))
                assert [(c.j, c.hypotheses_met, c.passed) for c in ours] == [
                    (c.j, c.hypotheses_met, c.passed) for c in theirs], (seed, bound)
                for side in ("lhs", "rhs"):
                    _assert_close([getattr(c, side) for c in ours],
                                  [getattr(c, side) for c in theirs],
                                  (seed, bound, side))


class TestBoundFunctions:
    """The bound functions of small quantities, fed from outside with the
    arrays of an instance, add exactly the rows that verify_bounds adds."""

    BOUNDS = ("ev_relative_error_lower", "ev_relative_error_upper",
              "ev_lower_bound_consistency", "ev_upper_bound_discrete_consistency",
              "ev_upper_bound_invariant_distance", "evec_error_bh_norm",
              "evec_error_energy_norm", "defect_dual_norm_bound",
              "norm_equivalence_lower", "norm_equivalence_upper")

    @staticmethod
    def small_quantity_rows(inst):
        q = compute_quantities(inst)
        k = inst.spec.k_max
        js, lam, lam_h = range(1, k + 1), inst.lam[:k], q.lam_h
        # the hypotheses and errors that need the instance
        W, Z = inst.V @ q.X_h[:, :k], inst.extended_eigvecs(k)
        ka, kb = _gram(inst.K_a, W), _gram(inst.K_b, W)
        half = max(q.alpha_h, q.beta_h, q.alpha_tilde, q.beta_tilde) < 0.5
        stab_exact = (inst.exact_consistency and q.approximability_ok
                      and _penalty_condition(ka, kb,
                                             2.0 * lam[-1] / (1.0 - q.theta[-1] ** 2)))
        lo, hi = cluster_windows(inst.lam, k)
        inside = (lam_h[:, None] >= lo) & (lam_h[:, None] <= hi)
        bvals = q.X_h.T @ (inst.V.T @ (inst.G_b @ Z))
        res = Z - inst.V @ (q.X_h @ np.where(inside, bvals, 0.0))
        e_p = Z - q.P_h @ Z

        report = BoundCheckReport(seed=inst.seed, mode="split")
        eigenvalue_bounds(
            report, js, lam=lam, lam_h=lam_h[:k], theta=q.theta, phi=q.phi,
            alpha_h=q.alpha_h, beta_h=q.beta_h, alpha_tilde=q.alpha_tilde,
            beta_tilde=q.beta_tilde, alpha_hat=q.alpha_hat, beta_hat=q.beta_hat,
            c_f=q.c_f, c_hat=(8.0 / math.sqrt(3.0)) * q.c_f * math.sqrt(lam[-1]),
            half_params=half, approximability_ok=q.approximability_ok,
            stab_exact=stab_exact,
            stab_disc=_penalty_condition(ka, kb, 2.0 * lam_h[k - 1]))
        eigenvector_bounds(
            report, js, gamma=gap_parameters(lam_h, lo, hi, lam),
            err_a=_column_norms(inst.G_a, res), err_b=_column_norms(inst.G_b, res),
            pe_a=_column_norms(inst.G_a, e_p), pe_b=_column_norms(inst.G_b, e_p),
            defect=q.defect_dual, lam_h_min=lam_h[0], lam_h_max=lam_h[-1])
        defect_dual_norm_bound(report, js, defect=q.defect_dual, lam=lam,
                               alpha_h=q.alpha_h, alpha_tilde=q.alpha_tilde,
                               beta_tilde=q.beta_tilde, c_f=q.c_f)
        norm_equivalence_bounds(report, js, gram_a=q.gram_a, gram_b=q.gram_b,
                                lam=lam, half_params=half)
        return report.rows

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_small_quantities_give_the_rows_of_verify_bounds(self, mode):
        for seed in range(20):
            inst = _sweep_instance(seed, mode)
            expected = [row for row in verify_bounds(inst).rows
                        if row[0] in self.BOUNDS]
            # repr keeps every float exact and NaN equal to NaN
            assert repr(self.small_quantity_rows(inst)) == repr(expected), seed
            assert len(expected) == 10 * inst.spec.k_max


def _sweep_instance(seed, mode):
    return make_instance(
        abstract_framework._sweep_spec(np.random.default_rng(seed), mode), seed)


def _assert_close(ours, theirs, what):
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
    assert ours.shape == theirs.shape, what
    shift = np.abs(ours - theirs) / np.maximum(1.0, np.abs(theirs))
    assert shift.max(initial=0.0) <= 1e-12, (what, shift.max())


class TestPerSubspaceReference:
    """Each Gram matrix on U_{k_max}^e is built once and U_j^e's is its
    leading j x j block; the per-subspace routes give the same numbers."""

    QUANTITIES = ("alpha_h", "beta_h", "alpha_tilde",
                  "beta_tilde", "alpha_hat", "beta_hat", "c_f", "defect_dual")
    SUPREMA = ("form_ratio_a", "form_ratio_b", "extension_norm_a",
               "extension_norm_b", "lifting_norm_a", "lifting_norm_b")

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_quantities_equal_the_per_subspace_reference(self, mode):
        for seed in range(20):
            inst = _sweep_instance(seed, mode)
            q, ref = compute_quantities(inst), reference_quantities(inst)
            for name in self.QUANTITIES:
                _assert_close(getattr(q, name), ref[name], (seed, name))
            # theta and phi are square roots of suprema that vanish when V_h
            # contains U_k^e, where a square root turns round-off of 1e-17
            # into 1e-9: compare the suprema
            for name in ("theta", "phi"):
                _assert_close(np.square(getattr(q, name)), np.square(ref[name]),
                              (seed, name))
            for name in ("P_a", "P_b"):
                for j, (ours, theirs) in enumerate(zip(getattr(q, name), ref[name],
                                                       strict=True), 1):
                    _assert_close(ours, theirs, (seed, name, j))

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_operator_norm_checks_equal_the_per_subspace_reference(self, mode):
        for seed in range(20):
            inst = _sweep_instance(seed, mode)
            ref = reference_quantities(inst)
            checks = verify_bounds(inst).checks
            lhs = {c.bound: c.lhs for c in checks if c.j is None}
            for name in self.SUPREMA:
                _assert_close(lhs[name], ref[name], (seed, name))
            lower = [c.rhs for c in checks if c.bound == "norm_equivalence_lower"]
            upper = [c.lhs for c in checks if c.bound == "norm_equivalence_upper"]
            _assert_close(lower, ref["norm_equivalence_min"], (seed, "lower"))
            _assert_close(upper, ref["norm_equivalence_max"], (seed, "upper"))

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_leading_blocks_are_the_subspace_grams(self, mode):
        for seed in range(20):
            inst = _sweep_instance(seed, mode)
            q = compute_quantities(inst)
            for j in range(1, inst.spec.k_max + 1):
                Zj = inst.extended_eigvecs(j)
                _assert_close(q.gram_a[:j, :j], _gram(inst.G_a, Zj), (seed, "a", j))
                _assert_close(q.gram_b[:j, :j], _gram(inst.G_b, Zj), (seed, "b", j))


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

    def test_jsonl_equals_the_json_encoder_reference(self):
        reports = sweep(10, 0, "exact") + sweep(10, 9000, "perturbed")
        odd = BoundCheckReport(seed=12, mode="perturbed")
        odd.add("infinite_rhs", 1, 0.0, math.inf, True)
        odd.add("infinite_lhs", 2, math.inf, 1.0, True)
        odd.add("nan_lhs", None, math.nan, 1.0, True)
        odd.add("no_hypotheses", None, 1.0, 2.0, False)
        odd.add('quoted "bound"\u00e9', np.array([3, 4]).tolist(),
                np.array([1e-300, -0.0]), np.array([5e300, 1.0 / 3.0]), True)
        ours, theirs = io.StringIO(), io.StringIO()
        write_jsonl(reports + [odd], ours)
        reference_write_jsonl(reports + [odd], theirs)
        assert ours.getvalue() == theirs.getvalue()
        assert "Infinity" in ours.getvalue() and "-Infinity" in ours.getvalue()

    def test_jsonl_equals_the_scipy_linalg_reference(self, monkeypatch):
        def jsonl():
            buf = io.StringIO()
            write_jsonl(sweep(25, 0, "exact") + sweep(25, 9000, "perturbed"), buf)
            return buf.getvalue()

        ours = jsonl()
        monkeypatch.setattr(eigensolve, "eigh", sla.eigh)
        monkeypatch.setattr(abstract_framework, "eigvalsh", sla.eigvalsh)
        # and the numpy.linalg oracles of qr and svd, and dposv's own steps
        monkeypatch.setattr(abstract_framework, "qr", lambda a: np.linalg.qr(a)[0])
        monkeypatch.setattr(abstract_framework, "svd",
                            lambda a: np.linalg.svd(a, full_matrices=False))
        monkeypatch.setattr(abstract_framework, "solve_spd",
                            lambda a, b: sla.cho_solve(sla.cho_factor(a, lower=True), b))
        assert jsonl() == ours

    @pytest.mark.parametrize("trials,seed,mode,extra", [
        (5, 0, "exact", {"projections_coincide": 15}),
        (5, 500, "perturbed", {}),
    ])
    def test_check_counts_per_bound(self, trials, seed, mode, extra):
        # all ten instances have k_max = 3: three checks per j-indexed bound,
        # one per instance for the others, and 12 probes per j for the two
        # projection comparisons
        expected = {bound: 15 for bound in (
            "defect_dual_norm_bound", "defect_q_factor_bound", "dualnorm_formula",
            "ev_lower_bound_consistency", "ev_relative_error_lower",
            "ev_relative_error_upper", "ev_upper_bound_discrete_consistency",
            "ev_upper_bound_invariant_distance", "evec_error_bh_norm",
            "evec_error_energy_norm", "norm_equivalence_lower",
            "norm_equivalence_upper", "projection_identity")}
        expected.update({bound: 5 for bound in (
            "extension_norm_a", "extension_norm_b", "form_ratio_a", "form_ratio_b",
            "lifting_norm_a", "lifting_norm_b")})
        expected.update(projection_comparison_lower=180,
                        projection_comparison_upper=180, **extra)
        counts = Counter(c.bound for rep in sweep(trials, seed, mode)
                         for c in rep.checks)
        assert counts == expected

    def test_perturbed_instance_9607_has_no_violation(self):
        # cond(B_h) = 1.9e10 here: reduced by B_h's Cholesky factor, the
        # discrete pairs miss the projection identity's 1e-10
        (rep,) = sweep(1, 9607, "perturbed")
        assert not rep.violations()

    @pytest.mark.parametrize("mode,seed,per_instance", [("exact", 0, 56.28),
                                                        ("perturbed", 500, 57.64)])
    def test_lapack_calls_per_instance_are_the_documented_ones(
            self, mode, seed, per_instance, monkeypatch):
        # every kernel and workspace query goes through eigensolve._call
        calls = Counter()
        real = eigensolve._call

        def counting(routine, *args, **kwargs):
            calls[routine] += 1
            return real(routine, *args, **kwargs)

        monkeypatch.setattr(eigensolve, "_call", counting)
        sweep(100, seed, mode)
        assert sum(calls.values()) == round(100 * per_instance), calls
        for doc in (eigensolve.__doc__, sweep.__doc__):
            assert f"{per_instance:.2f}" in doc

    def test_mode_guard(self):
        with pytest.raises(InputError):
            sweep(1, 0, "bogus")

    def test_instances_run_in_order_on_the_calling_thread(self, monkeypatch):
        seen = []
        verify = abstract_framework.verify_bounds

        def recording_verify(inst):
            seen.append((inst.seed, threading.get_ident()))
            return verify(inst)

        monkeypatch.setattr(abstract_framework, "verify_bounds", recording_verify)
        reports = sweep(3, 77, "exact")
        assert [r.seed for r in reports] == [77, 78, 79]
        assert seen == [(seed, threading.get_ident()) for seed in (77, 78, 79)]
