"""Analysis module: reference spectrum, windows, eigenvector errors, EOC,
defect dual norms, study records and the CSV schema."""

import io
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from veclap import analysis, fem
from veclap.analysis import (
    CSV_COLUMNS,
    EigenvectorError,
    StudyConfig,
    area_study,
    convergence_study,
    defect_dual_norm,
    eigenvector_error,
    eoc,
    exact_sphere_eigenvalues,
    records_to_rows,
    write_csv,
)
from veclap.abstract_framework import cluster_windows, gap_parameters
from veclap.eigensolve import full_spectrum, solve_smallest
from veclap.errors import InputError
from veclap.fem import assemble, build_space, interpolate, node_positions
from veclap.geometry import KillingField, Sphere
from veclap.mesh import element_chunks, icosphere, mesh_size, parametric_lift
from veclap.quadrature import triangle_rule

S = Sphere()
KF = KillingField("z")


def no_assembly(*args, **kwargs):
    raise AssertionError("assembled a level of an invalid study")


class TestExactEigenvalues:
    def test_first(self):
        np.testing.assert_array_equal(exact_sphere_eigenvalues(1), [1.0])

    def test_all_six(self):
        np.testing.assert_array_equal(exact_sphere_eigenvalues(6),
                                      [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    def test_no_reference_beyond_six(self):
        with pytest.raises(InputError, match="reference"):
            exact_sphere_eigenvalues(7)

    def test_config_beyond_reference_fails_before_assembly(self, monkeypatch):
        monkeypatch.setattr(analysis, "assemble", no_assembly)
        with pytest.raises(InputError, match="reference"):
            StudyConfig(k=1, k_g=1, levels=(1,), num_eigs=7)


def normal_shares(eta_coeff: float) -> np.ndarray:
    """Nodal normal share sum (u.n)^2 / sum |u|^2 of every pair of the full
    discrete spectrum at (k, k_g, level) = (2, 2, 1)."""
    mesh = icosphere(1, S, jitter=0.3, seed=0)
    pmap = parametric_lift(mesh, 2)
    space = build_space(pmap, 2)
    forms = assemble(space, eta_coeff=eta_coeff)
    pairs = full_spectrum(forms.A, forms.B)
    x = node_positions(space)
    n = x / np.linalg.norm(x, axis=1, keepdims=True)
    u = pairs.vectors.reshape(space.n_scalar, 3, -1)   # node-major
    u_n = np.einsum("pcm,pc->pm", u, n)
    return (u_n**2).sum(axis=0) / (u**2).sum(axis=(0, 1))


class TestPenaltyFloor:
    def test_default_eta_fails_at_level_1_before_assembly(self, monkeypatch):
        # eta_h = 1 / h^2 = 1.47 < 1.25 x 2; the smallest passing coefficient
        # is 1.25 x 2 x h^2 = 1.697, rounded up
        monkeypatch.setattr(analysis, "assemble", no_assembly)
        with pytest.raises(InputError, match=r"level 1: .*--eta 1\.698"):
            convergence_study(StudyConfig(k=2, k_g=2, levels=(1,)))

    def test_passing_eta_gives_second_cluster(self):
        rec, = convergence_study(StudyConfig(k=2, k_g=2, levels=(1,), eta_coeff=4.0,
                                             fields=()))
        assert np.all((rec.eigenvalues[3:6] >= 1.99) & (rec.eigenvalues[3:6] <= 2.01))

    def test_floor_scales_with_request(self):
        # three pairs need only 1.25 x 1, which level 1 meets at eta_coeff = 1
        rec, = convergence_study(StudyConfig(k=1, k_g=1, levels=(1,), num_eigs=3,
                                             fields=()))
        assert rec.eigenvalues.shape == (3,)

    def test_rejected_level_has_normal_modes(self):
        # below the floor, pairs 4-6 are the penalty's normal modes; above
        # it, the first six pairs are tangential
        low = normal_shares(1.0)
        assert low[:3].max() <= 0.01 and low[3:6].min() >= 0.99
        assert normal_shares(4.0)[:6].max() <= 0.01


class TestClusterWindow:
    def test_reference_windows(self):
        # midpoints between the distinct values 1 and 2, 0 below the first
        # cluster and twice the value above the last
        lo, hi = cluster_windows(exact_sphere_eigenvalues(6), 6)
        np.testing.assert_array_equal(lo, [0.0, 0.0, 0.0, 1.5, 1.5, 1.5])
        np.testing.assert_array_equal(hi, [1.5, 1.5, 1.5, 4.0, 4.0, 4.0])

    @pytest.mark.parametrize("num_eigs", range(1, 7))
    def test_study_killing_window(self, monkeypatch, num_eigs):
        # the window comes from the whole reference spectrum, so it does not
        # shrink to the requested prefix (three values would give [0, 2])
        windows = []

        def record(lo, hi, pairs, forms, pairings):
            windows.append((lo, hi))
            return EigenvectorError(0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(analysis, "eigenvector_error", record)
        fields = ("z", "x")[:num_eigs]  # no more fields than rows
        convergence_study(StudyConfig(k=1, k_g=1, levels=(1,), num_eigs=num_eigs,
                                      eta_coeff=4.0, fields=fields))
        assert windows == [(0.0, 1.5)] * len(fields)

    @pytest.mark.parametrize("num_eigs", [1, 2])
    def test_errors_project_onto_the_whole_killing_cluster(self, num_eigs):
        # fewer pairs than the cluster's three left part of the Killing
        # field unprojected: an energy error of 2.2 in place of 0.24 at
        # (1,1,2).  The level solves the cluster and reports num_eigs pairs
        fields = ("z", "x")[:num_eigs]
        few, = convergence_study(StudyConfig(k=1, k_g=1, levels=(2,),
                                             num_eigs=num_eigs, fields=fields))
        three, = convergence_study(StudyConfig(k=1, k_g=1, levels=(2,),
                                               num_eigs=3, fields=fields))
        assert few.eigenvalues.shape == few.errors.shape == (num_eigs,)
        np.testing.assert_array_equal(few.eigenvalues, three.eigenvalues[:num_eigs])
        assert few.fields == three.fields
        assert all(fe.energy < 0.3 for fe in few.fields)

    def test_window_is_closed(self):
        # eigenvalues on the window's ends are members
        mesh = icosphere(0, S)
        pmap = parametric_lift(mesh, 1)
        space = build_space(pmap, 1)
        forms = assemble(space, fields=[KF])
        pairs = solve_smallest(forms.A, forms.B, 3)
        ep, = forms.pairings
        lam = pairs.eigenvalues
        assert (eigenvector_error(lam[0], lam[2], pairs, forms, ep)
                == eigenvector_error(0.0, math.inf, pairs, forms, ep))

    def test_gamma_stabilizes_near_two(self):
        # for the Killing window the gap parameter tends to 2/(2-1) = 2
        mesh = icosphere(3, S)
        pmap = parametric_lift(mesh, 1)
        space = build_space(pmap, 1)
        forms = assemble(space)
        pairs = solve_smallest(forms.A, forms.B, 6)
        (gamma,) = gap_parameters(pairs.eigenvalues, [0.0], [1.5], [1.0])
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
            pmap = parametric_lift(mesh, 2)
            space = build_space(pmap, 2)
            forms = assemble(space, fields=[KF])
            ep, = forms.pairings
            errs.append(defect_dual_norm(ep.a_vec - ep.b_vec, forms.A))
            hs.append(mesh_size(mesh))
        rate = eoc(errs[-2], errs[-1], hs[-2], hs[-1])
        assert rate >= 2.0 - 0.3


class TestEigenvectorError:
    def test_empty_window(self):
        mesh = icosphere(0, S)
        pmap = parametric_lift(mesh, 1)
        space = build_space(pmap, 1)
        forms = assemble(space, fields=[KF])
        pairs = solve_smallest(forms.A, forms.B, 3)
        ep, = forms.pairings
        with pytest.raises(InputError):
            eigenvector_error(50.0, 60.0, pairs, forms, ep)

    def test_full_window_bounded_by_interpolation(self):
        # projecting onto the span of all eigenvectors cannot be much worse
        # than interpolation (the projection is b_h-optimal over all of V_h)
        mesh = icosphere(2, S)
        pmap = parametric_lift(mesh, 1)
        space = build_space(pmap, 1)
        forms = assemble(space, fields=[KF])
        pairs = full_spectrum(forms.A, forms.B)
        ep, = forms.pairings
        ev = eigenvector_error(0.0, math.inf, pairs, forms, ep)
        x = interpolate(KF.value, space)
        interp_sq = ep.a_ee - 2.0 * (ep.a_vec @ x) + x @ (forms.A @ x)
        assert ev.energy <= 10.0 * math.sqrt(max(interp_sq, 0.0))

    def test_round_off_clamp_is_tiny(self):
        mesh = icosphere(2, S)
        pmap = parametric_lift(mesh, 1)
        space = build_space(pmap, 1)
        forms = assemble(space, fields=[KF])
        pairs = solve_smallest(forms.A, forms.B, 6)
        ep, = forms.pairings
        ev = eigenvector_error(0.0, 1.5, pairs, forms, ep)
        assert ev.energy_sq_raw >= -1e-9 * ep.a_ee
        assert ev.l2_sq_raw >= -1e-9 * ep.b_ee


class TestEoc:
    def test_exact_halving(self):
        assert eoc(4.0, 1.0, 1.0, 0.5) == pytest.approx(2.0)

    def test_degenerate(self):
        assert math.isnan(eoc(0.0, 1.0, 1.0, 0.5))


@pytest.fixture(scope="module")
def study():
    cfg = StudyConfig(k=1, k_g=1, levels=(1, 2, 3), num_eigs=6, eta_coeff=4.0)
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

    def test_no_levels(self):
        with pytest.raises(InputError, match="no refinement levels"):
            StudyConfig(k=1, k_g=1, levels=())

    def test_one_factorization_per_level(self, monkeypatch):
        # a level computes no defect dual norm, so the eigensolve's factor is
        # the only one; one pass over the elements assembles the forms and
        # pairs all three fields: one point-data build per element chunk
        def no_dual_norm(*args, **kwargs):
            raise AssertionError("a study level computed a defect dual norm")

        calls = []
        builds = []
        splu, spilu = spla.splu, spla.spilu

        def counting_splu(*args, **kwargs):
            calls.append("splu")
            return splu(*args, **kwargs)

        def counting_spilu(*args, **kwargs):
            calls.append("spilu")
            return spilu(*args, **kwargs)

        class CountingPointData(fem._PointData):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(analysis, "defect_dual_norm", no_dual_norm)
        monkeypatch.setattr(spla, "splu", counting_splu)
        monkeypatch.setattr(spla, "spilu", counting_spilu)
        monkeypatch.setattr(fem, "_PointData", CountingPointData)
        cfg = StudyConfig(k=1, k_g=1, levels=(3,), fields=("z", "x", "y"),
                          eta_coeff=4.0)
        rec, = convergence_study(cfg)
        assert len(rec.fields) == 3
        assert calls == ["splu"]
        # 1280 triangles in chunks of 256 linear elements on the degree-4 rule
        n_chunks = len(element_chunks(icosphere(3, S).n_triangles,
                                      triangle_rule(4).weights.size * 3**2))
        assert len(builds) == n_chunks == 5

    def test_size_guard_before_assembly(self, monkeypatch):
        # (3,3,5) has 276,486 DOFs, above ITERATIVE_DOF_LIMIT
        monkeypatch.setattr(analysis, "assemble", no_assembly)
        with pytest.raises(InputError, match="DOF guard"):
            convergence_study(StudyConfig(k=3, k_g=3, levels=(5,)))

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


class TestStartBlock:
    """The eigensolve of a level starts from the interpolated closed-form
    eigenfields of the sphere's first two clusters."""

    @pytest.fixture(scope="class")
    def level3(self):
        space = build_space(parametric_lift(icosphere(3, S, jitter=0.3, seed=0), 2), 2)
        return space, assemble(space)

    def test_rayleigh_quotients_lie_near_the_reference(self, level3):
        # (2,2,3): the Killing interpolants within 2e-7 of 1, the P e_i ones
        # within 1.5e-5 of 2
        space, forms = level3
        X = interpolate(analysis._sphere_eigenfields, space)
        assert X.shape == (space.n_dofs, 6)
        rq = (np.einsum("ij,ij->j", X, forms.A @ X)
              / np.einsum("ij,ij->j", X, forms.B @ X))
        np.testing.assert_allclose(rq, [1, 1, 1, 2, 2, 2], rtol=1e-5)

    def test_the_fields_are_tangential_and_b_orthogonal_across_clusters(self, level3):
        space, forms = level3
        p = space.mesh.surface.closest_point(node_positions(space))
        fields = analysis._sphere_eigenfields(p)
        assert np.abs(np.einsum("nc,nci->ni", p, fields)).max() <= 1e-15
        X = interpolate(analysis._sphere_eigenfields, space)
        gram = X.T @ (forms.B @ X)
        cross = np.abs(gram[:3, 3:]).max() / np.abs(np.diag(gram)).max()
        assert cross <= 1e-3

    def test_the_start_cuts_the_column_solves(self, monkeypatch):
        # (2,2,3), six pairs: 46 column solves from the eigenfields, 103 from
        # the default random block; the pin fails if the start is dropped
        seen = []
        solve = analysis.solve_smallest

        def recording(A, B, m, **kwargs):
            seen.append((A, B, m, solve(A, B, m, **kwargs)))
            return seen[-1][-1]

        monkeypatch.setattr(analysis, "solve_smallest", recording)
        convergence_study(StudyConfig(k=2, k_g=2, levels=(3,)))
        (A, B, m, started), = seen
        assert m == 6 and started.iterations <= 50
        random = solve(A, B, m)
        assert random.iterations >= 2 * started.iterations
        np.testing.assert_allclose(started.eigenvalues, random.eigenvalues, rtol=1e-13)

    @pytest.mark.parametrize("level,num_eigs,widths",
                             [(2, 1, (3,)), (3, 3, (3,)), (2, 4, (3, 3))])
    def test_the_start_holds_the_clusters_the_pairs_reach(self, level, num_eigs,
                                                          widths, monkeypatch):
        # one block per cluster, the Killing fields alone for up to three
        # pairs: at (2,2,3), three pairs take 23 column solves from them and
        # 46 from all six fields
        seen = []
        solve = analysis.solve_smallest

        def recording(A, B, m, start=None, **kwargs):
            seen.append((tuple(X.shape[1] for X in start),
                         solve(A, B, m, start=start, **kwargs)))
            return seen[-1][-1]

        monkeypatch.setattr(analysis, "solve_smallest", recording)
        convergence_study(StudyConfig(k=2, k_g=2, levels=(level,), num_eigs=num_eigs))
        (found, pairs), = seen
        assert found == widths
        if level == 3:
            assert pairs.iterations <= 30


class TestAreaStudy:
    def test_no_levels(self):
        with pytest.raises(InputError, match="no refinement levels"):
            area_study(1, [])

    def test_records(self):
        recs = area_study(2, (1, 2, 3))
        assert [r.level for r in recs] == [1, 2, 3]
        errs = [r.area_error for r in recs]
        assert errs[2] < errs[1] < errs[0]
        rows = records_to_rows(recs)
        assert len(rows) == 3
        assert rows[1]["area_eoc"] is not None
