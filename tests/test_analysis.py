"""Analysis module: reference spectrum, windows, eigenvector errors, EOC,
defect dual norms, study records and the CSV schema."""

import io
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from veclap import analysis
from veclap.analysis import (
    CSV_COLUMNS,
    ClusterWindow,
    StudyConfig,
    area_study,
    convergence_study,
    default_window,
    defect_dual_norm,
    eigenvector_error,
    eoc,
    exact_sphere_eigenvalues,
    records_to_rows,
    write_csv,
)
from veclap.eigensolve import full_spectrum, solve_smallest
from veclap.errors import InputError
from veclap.fem import assemble, build_space, extended_pairings, interpolate
from veclap.geometry import KillingField, Sphere
from veclap.mesh import icosphere, mesh_size, parametric_lift

S = Sphere()
KF = KillingField("z", S)


class TestExactEigenvalues:
    def test_first(self):
        np.testing.assert_array_equal(exact_sphere_eigenvalues(1), [1.0])

    def test_all_six(self):
        np.testing.assert_array_equal(exact_sphere_eigenvalues(6),
                                      [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    def test_no_reference_beyond_six(self):
        with pytest.raises(InputError, match="reference"):
            exact_sphere_eigenvalues(7)

    def test_unit_sphere_only(self):
        with pytest.raises(InputError):
            exact_sphere_eigenvalues(3, Sphere(2.0))


class TestClusterWindow:
    def test_members(self):
        w = ClusterWindow(0.0, 1.5)
        np.testing.assert_array_equal(w.members([1.0, 1.01, 2.0, 2.3]), [0, 1])

    def test_gamma_simple(self):
        w = ClusterWindow(0.0, 1.5)
        assert w.gamma([1.0, 3.0], 1.0) == pytest.approx(1.5)

    def test_gamma_empty_outside(self):
        assert ClusterWindow(0.0, 10.0).gamma([1.0, 2.0], 1.0) == 0.0

    def test_gamma_infinite_when_not_separated(self):
        assert ClusterWindow(0.5, 0.9).gamma([1.0, 2.0], 1.0) == math.inf

    def test_default_windows(self):
        assert default_window(1.0) == ClusterWindow(0.0, 1.5)
        assert default_window(2.0) == ClusterWindow(1.5, 2.5)
        with pytest.raises(InputError):
            default_window(5.0)

    def test_gamma_stabilizes_near_two(self):
        # for the Killing window the gap parameter tends to 2/(2-1) = 2
        mesh = icosphere(3, S)
        pmap = parametric_lift(mesh, 1, S)
        space = build_space(mesh, pmap, 1)
        forms = assemble(space, pmap, S)
        pairs = solve_smallest(forms.A, forms.B, 6)
        gamma = ClusterWindow(0.0, 1.5).gamma(pairs.eigenvalues, 1.0)
        assert abs(gamma - 2.0) <= 0.15


class TestDefectDualNorm:
    def test_zero_defect(self):
        assert defect_dual_norm(np.zeros(4), np.eye(4)) == 0.0

    def test_euclidean_case(self):
        assert defect_dual_norm(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(5.0)

    def test_singular_matrix(self):
        with pytest.raises(InputError):
            defect_dual_norm(np.ones(2), np.zeros((2, 2)))

    def test_killing_defect_rate(self):
        # dual norm decays at least at the geometry rate k_g
        errs, hs = [], []
        for lvl in (1, 2, 3):
            mesh = icosphere(lvl, S, jitter=0.3)
            pmap = parametric_lift(mesh, 2, S)
            space = build_space(mesh, pmap, 2)
            forms = assemble(space, pmap, S)
            ep = extended_pairings([KF], 1.0, space, pmap, forms)[0]
            errs.append(defect_dual_norm(ep.r, forms.A))
            hs.append(mesh_size(mesh))
        rate = eoc(errs[-2], errs[-1], hs[-2], hs[-1])
        assert rate >= 2.0 - 0.3


class TestEigenvectorError:
    def test_empty_window(self):
        mesh = icosphere(0, S)
        pmap = parametric_lift(mesh, 1, S)
        space = build_space(mesh, pmap, 1)
        forms = assemble(space, pmap, S)
        pairs = solve_smallest(forms.A, forms.B, 3)
        ep = extended_pairings([KF], 1.0, space, pmap, forms)[0]
        with pytest.raises(InputError):
            eigenvector_error(ClusterWindow(50.0, 60.0), pairs, forms, ep)

    def test_full_window_bounded_by_interpolation(self):
        # projecting onto the span of all eigenvectors cannot be much worse
        # than interpolation (the projection is b_h-optimal over all of V_h)
        mesh = icosphere(2, S)
        pmap = parametric_lift(mesh, 1, S)
        space = build_space(mesh, pmap, 1)
        forms = assemble(space, pmap, S)
        pairs = full_spectrum(forms.A, forms.B)
        ep = extended_pairings([KF], 1.0, space, pmap, forms)[0]
        ev = eigenvector_error(ClusterWindow(0.0, math.inf), pairs, forms, ep)
        x = interpolate(KF.value, space, pmap, S)
        interp_sq = ep.a_ee - 2.0 * (ep.a_vec @ x) + x @ (forms.A @ x)
        assert ev.energy <= 10.0 * math.sqrt(max(interp_sq, 0.0))

    def test_round_off_clamp_is_tiny(self):
        mesh = icosphere(2, S)
        pmap = parametric_lift(mesh, 1, S)
        space = build_space(mesh, pmap, 1)
        forms = assemble(space, pmap, S)
        pairs = solve_smallest(forms.A, forms.B, 6)
        ep = extended_pairings([KF], 1.0, space, pmap, forms)[0]
        ev = eigenvector_error(ClusterWindow(0.0, 1.5), pairs, forms, ep)
        assert ev.energy_sq_raw >= -1e-9 * ep.a_ee
        assert ev.l2_sq_raw >= -1e-9 * ep.b_ee


class TestEoc:
    def test_exact_halving(self):
        assert eoc(4.0, 1.0, 1.0, 0.5) == pytest.approx(2.0)

    def test_degenerate(self):
        assert math.isnan(eoc(0.0, 1.0, 1.0, 0.5))


@pytest.fixture(scope="module")
def study():
    cfg = StudyConfig(k=1, k_g=1, levels=(1, 2, 3), num_eigs=6)
    return convergence_study(cfg)


class TestConvergenceStudy:
    def test_basic_shape(self, study):
        assert [r.level for r in study] == [1, 2, 3]
        for rec in study:
            assert rec.eigenvalues.shape == (6,)
            assert rec.errors.min() >= 0.0
            assert len(rec.fields) == 1

    def test_errors_decrease(self, study):
        e1 = [r.errors[0] for r in study]
        e4 = [r.errors[3] for r in study]
        assert e1[2] < e1[1] < e1[0]
        assert e4[2] < e4[1] < e4[0]

    def test_killing_cluster_coherent(self, study):
        # the three smallest eigenvalues form one cluster
        for rec in study:
            spread = rec.eigenvalues[2] - rec.eigenvalues[0]
            assert spread <= 10.0 * max(rec.errors[:3].max(), 1e-15)

    def test_eigenvalue_rate(self, study):
        rate = eoc(study[-2].errors[0], study[-1].errors[0],
                   study[-2].h, study[-1].h)
        assert 1.5 <= rate <= 2.6

    def test_levels_must_ascend(self):
        with pytest.raises(InputError):
            StudyConfig(k=1, k_g=1, levels=(3, 1))

    def test_one_factorization_per_level(self, monkeypatch):
        # the iterative eigensolve and the three dual norms share one factor,
        # and one pass over the elements pairs all three fields
        calls = []
        passes = []
        splu = spla.splu
        pair = analysis.extended_pairings

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        def counting_pairings(*args, **kwargs):
            passes.append(1)
            return pair(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        monkeypatch.setattr(analysis, "extended_pairings", counting_pairings)
        cfg = StudyConfig(k=1, k_g=1, levels=(1,), fields=("z", "x", "y"),
                          method="iterative")
        rec, = convergence_study(cfg)
        assert rec.solver_method == "iterative" and len(rec.fields) == 3
        assert len(calls) == 1
        assert len(passes) == 1

    def test_dense_guard(self):
        cfg = StudyConfig(k=2, k_g=1, levels=(4,), method="dense")
        with pytest.raises(InputError):
            convergence_study(cfg)

    def test_rows_and_csv(self, study):
        rows = records_to_rows(study)
        assert len(rows) == 3 * 6
        first_level_rows = [r for r in rows if r["level"] == 1]
        assert all(r["ev_eoc"] is None for r in first_level_rows)
        later = [r for r in rows if r["level"] > 1]
        assert all(r["ev_eoc"] is not None for r in later)
        # area error only on the j = 1 row
        assert all((r["area_err"] is None) == (r["j"] != 1) for r in rows)
        # eigenvector errors attach to the requested field's row (j = 1)
        assert all((r["evec_energy_err"] is None) == (r["j"] != 1) for r in rows)

        buf = io.StringIO()
        write_csv(study, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)
        # round trip: parse every populated float cell back
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert len(cells) == len(CSV_COLUMNS)
            for cell, col in zip(cells, CSV_COLUMNS):
                if row[col] is None:
                    assert cell == ""
                elif col in ("level", "ndof", "j"):
                    assert int(cell) == row[col]
                else:
                    assert float(cell) == pytest.approx(row[col], rel=1e-15)


class TestAreaStudy:
    def test_records(self):
        recs = area_study(2, (1, 2, 3))
        assert [r.level for r in recs] == [1, 2, 3]
        errs = [r.area_error for r in recs]
        assert errs[2] < errs[1] < errs[0]
        rows = records_to_rows(recs)
        assert len(rows) == 3
        assert rows[1]["area_eoc"] is not None
