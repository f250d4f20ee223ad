"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy level runs are shared across criteria through the cached helpers.
All tolerances are fixed here, not configurable.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from veclap import cli
from veclap.abstract_framework import compute_quantities, rembest_instance, sweep
from veclap.analysis import eoc
from veclap.eigensolve import full_spectrum, solve_smallest

from helpers import level_seconds, records_for, run_level


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def last_eoc(records, value):
    a, b = records[-2], records[-1]
    return eoc(value(a), value(b), a.h, b.h)


class TestCriterion1ExactSpectrum:
    def test_spectrum_at_finest_feasible_level(self):
        # k = k_g = 2, finest level with <= 50k DOFs is level 4 (30726);
        # certified: an inertia count finds exactly six eigenvalues up to
        # lambda_6, or the study raises ConvergenceError
        rec, _ = run_level(2, 2, 4, certify=True)
        lam = rec.eigenvalues
        ok_killing = np.all((lam[:3] >= 0.999) & (lam[:3] <= 1.001))
        ok_second = np.all((lam[3:6] >= 1.99) & (lam[3:6] <= 2.01))
        secs = level_seconds(2, 2, 4, certify=True)
        ok_time = secs <= 300.0
        report(1, bool(ok_killing and ok_second and ok_time),
               f"lambda={np.round(lam, 6)} ndof={rec.ndof} certified "
               f"time={secs:.0f}s")


class TestCriterion2EigenvalueRateLinear:
    def test_k1_kg1_rates(self):
        recs = records_for(1, 1, (2, 3, 4))
        r1 = last_eoc(recs, lambda r: r.errors[0])
        r4 = last_eoc(recs, lambda r: r.errors[3])
        ok = 1.7 <= r1 <= 2.5 and 1.7 <= r4 <= 2.5
        report(2, ok, f"EOC(|l1-1|)={r1:.2f}, EOC(|l4-2|)={r4:.2f} (band [1.7, 2.5])")


class TestCriterion3EigenvalueRateQuadratic:
    def test_k2_kg2_rate(self):
        recs = records_for(2, 2, (2, 3))
        r4 = last_eoc(recs, lambda r: r.errors[3])
        report(3, r4 >= 2.8, f"EOC(|l4-2|)={r4:.2f} (required >= 2.8)")


class TestCriterion4EigenvalueRateCubic:
    def test_k3_kg3_rate(self):
        recs = records_for(3, 3, (2, 3, 4))
        rates = [eoc(recs[i].errors[3], recs[i + 1].errors[3],
                     recs[i].h, recs[i + 1].h) for i in range(len(recs) - 1)]
        ok = all(3.8 <= r <= 5.2 for r in rates)
        report(4, ok, f"EOC(|l4-2|)={[f'{r:.2f}' for r in rates]} (band [3.8, 5.2])")


class TestCriterion5EigenvectorEnergyRates:
    def test_energy_rates(self):
        cases = [((1, 1), (2, 3, 4), 1.0),
                 ((2, 2), (3, 4, 5), 2.0),
                 ((3, 2), (2, 3, 4), 2.0)]
        details = []
        ok = True
        for (k, kg), levels, expected in cases:
            recs = records_for(k, kg, levels)
            rate = last_eoc(recs, lambda r: r.fields[0].energy)
            ok = ok and abs(rate - expected) <= 0.3
            details.append(f"(k={k},kg={kg}): {rate:.2f}~{expected}")
        report(5, ok, "; ".join(details) + " (band +-0.3)")


class TestCriterion6EigenvectorL2OneOrderBetter:
    def test_l2_gap(self):
        details = []
        ok = True
        for (k, kg), levels in [((1, 1), (2, 3, 4)), ((2, 2), (3, 4, 5))]:
            recs = records_for(k, kg, levels)
            r_energy = last_eoc(recs, lambda r: r.fields[0].energy)
            r_l2 = last_eoc(recs, lambda r: r.fields[0].l2)
            ok = ok and (r_l2 >= r_energy + 0.7)
            details.append(f"(k={k},kg={kg}): L2 {r_l2:.2f} vs energy {r_energy:.2f}")
        report(6, ok, "; ".join(details) + " (required gap 0.7)")


class TestCriterion7AreaRates:
    def test_area_rates(self):
        from veclap.analysis import area_study
        rates = {}
        for kg in (1, 2, 3):
            recs = area_study(kg, (2, 3, 4, 5))
            rates[kg] = last_eoc(recs, lambda r: r.area_error)
        ok = (1.8 <= rates[1] <= 2.2 and rates[2] >= 3.0
              and 3.5 <= rates[3] <= 4.5)
        report(7, ok, f"EOC kg=1: {rates[1]:.2f} [1.8,2.2]; "
                      f"kg=2: {rates[2]:.2f} >=3; kg=3: {rates[3]:.2f} [3.5,4.5]")


class TestCriterion8AbstractBoundSuite:
    def test_bound_sweeps(self):
        import time
        t0 = time.perf_counter()
        violations = []
        id_failures = 0
        for mode, seed in (("exact", 10_000), ("perturbed", 20_000)):
            for rep in sweep(100, seed, mode):
                violations.extend(rep.violations())
                id_failures += sum(1 for c in rep.checks
                                   if c.bound == "projection_identity" and not c.passed)
        inst = rembest_instance(6, 0.03, seed=1)
        q = compute_quantities(inst)
        closed = inst.lam * 1.03 / 0.97
        rembest_ok = (np.abs(q.lam_h - closed) / closed).max() <= 1e-12
        secs = time.perf_counter() - t0
        ok = not violations and id_failures == 0 and rembest_ok and secs <= 120.0
        report(8, ok, f"200 instances, violations={len(violations)}, "
                      f"identity failures={id_failures}, rembest={rembest_ok}, "
                      f"time={secs:.1f}s")


class TestCriterion9SolverOracle:
    def test_iterative_matches_dense(self):
        rng = np.random.default_rng(2024)
        worst_val, worst_orth = 0.0, 0.0
        for _ in range(20):
            n = int(rng.integers(40, 201))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            A = q @ np.diag(rng.uniform(0.5, 80.0, n)) @ q.T
            r = rng.standard_normal((n, n))
            B = r @ r.T + n * np.eye(n)
            m = int(rng.integers(2, 9))
            dense = full_spectrum(A, B).eigenvalues[:m]
            it = solve_smallest(sp.csr_matrix(A), sp.csr_matrix(B), m)
            rel = np.abs(dense - it.eigenvalues) / dense
            orth = np.abs(it.vectors.T @ B @ it.vectors - np.eye(m)).max()
            worst_val = max(worst_val, rel.max())
            worst_orth = max(worst_orth, orth)
        ok = worst_val <= 1e-8 and worst_orth <= 1e-8
        report(9, ok, f"20 pencils: worst eigenvalue rel err {worst_val:.2e}, "
                      f"worst B-orthonormality dev {worst_orth:.2e} (<= 1e-8)")


class TestCriterion10Determinism:
    def test_csv_bytes_across_interpreters(self, tmp_path):
        # two fresh interpreters with different hash seeds, so neither set
        # or dict order nor any state of this process can reach the bytes
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p])
        args = ["converge", "--k", "1", "--kg", "1", "--levels", "2..4",
                "--num-eigs", "6", "--fields", "all"]
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-m", "veclap.cli", *args,
                            "--out", str(tmp_path / f"h{seed}.csv")],
                           env=env, check=True, capture_output=True, timeout=600)
        same = (tmp_path / "h0.csv").read_bytes() == (tmp_path / "h1.csv").read_bytes()
        report(10, same, "CSV bytes identical from two fresh interpreters "
                         "(PYTHONHASHSEED 0 and 1)")
