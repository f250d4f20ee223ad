"""CLI: subcommands, exit codes, exports, schema, determinism."""

import json

import numpy as np
import pytest

from veclap import abstract_framework, analysis, cli, eigensolve
from veclap.errors import NumericalError


def no_meshing(*args, **kwargs):
    raise AssertionError("meshed a level of an invalid study")


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestParsing:
    def test_levels_range(self):
        assert cli._parse_levels("1..4") == (1, 2, 3, 4)
        assert cli._parse_levels("2,5") == (2, 5)

    def test_levels_malformed(self):
        with pytest.raises(Exception):
            cli._parse_levels("x..y")

    def test_fields(self):
        assert cli._parse_fields("all") == ("z", "x", "y")
        assert cli._parse_fields("z") == ("z",)

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["converge", "--bogus"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestSolve:
    def test_prints_positive_eigenvalues(self, capsys):
        code = cli.main(["solve", "--level", "2", "--k", "1", "--kg", "1",
                         "--num-eigs", "6"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [ln.split() for ln in out.splitlines()[2:]]
        assert len(rows) == 6
        assert all(float(r[1]) > 0 for r in rows)

    def test_invalid_level_exit_2(self, capsys):
        assert cli.main(["solve", "--level", "9", "--k", "1", "--kg", "1"]) == 2

    def test_num_eigs_beyond_reference_exits_2_before_assembly(self, monkeypatch,
                                                               capsys):
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled a level of an invalid study")

        monkeypatch.setattr(analysis, "assemble", no_assembly)
        assert cli.main(["solve", "--level", "3", "--k", "2", "--kg", "2",
                         "--num-eigs", "7"]) == 2
        assert "reference" in capsys.readouterr().err

    def test_num_eigs_zero_names_the_valid_range(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(["solve", "--level", "2", "--k", "1", "--kg", "1",
                         "--num-eigs", "0"]) == 2
        assert "[1, 6]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["solve", "--level", "1"],
        ["converge", "--levels", "1..2"],
    ], ids=["solve", "converge"])
    def test_radius_is_not_an_option(self, command, capsys):
        # the reference spectrum is the unit sphere's; only area takes a radius
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--k", "1", "--kg", "1", "--radius", "2"])
        assert exc.value.code == 2
        # one eigensolver route: there is no solver choice either
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--k", "1", "--kg", "1", "--method", "iterative"])
        assert exc.value.code == 2

    def test_penalty_floor_exits_2_before_assembly(self, monkeypatch, capsys):
        # at level 1, eta = 1 / h^2 = 1.47 lies below 1.25 x lambda_6 = 2.5
        args = ["solve", "--level", "1", "--k", "2", "--kg", "2"]

        def no_assembly(*a, **kw):
            raise AssertionError("assembled a level below the penalty floor")

        monkeypatch.setattr(analysis, "assemble", no_assembly)
        assert cli.main(args) == 2
        assert "--eta" in capsys.readouterr().err
        monkeypatch.undo()
        assert cli.main(args + ["--eta", "4"]) == 0

    def test_eigensolve_failure_exits_3(self, capsys):
        # at eta = 1e300 the penalty overflows LOBPCG's float64 products; the
        # single-precision factor of the scaled A is finite, and no cast or
        # LOBPCG warning escapes
        assert cli.main(["solve", "--k", "1", "--kg", "1", "--level", "2",
                         "--num-eigs", "3", "--eta", "1e300"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: LOBPCG" in err and "Traceback" not in err

    def test_failed_certification_exits_3(self, monkeypatch, capsys):
        # a count of eigenvalues below lambda_m (1 + 1e-6) other than m
        monkeypatch.setattr(eigensolve, "count_below", lambda A, B, sigma: 4)
        args = ["solve", "--k", "1", "--kg", "1", "--level", "2", "--num-eigs", "3",
                "--eta", "4"]
        assert cli.main(args) == 0
        assert cli.main(args + ["--certify"]) == 3
        err = capsys.readouterr().err
        assert "certification failed: 4 eigenvalues" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["solve", "--level", "2"],
        ["converge", "--levels", "2..3"],
    ], ids=["solve", "converge"])
    def test_certify_reaches_the_eigensolve(self, command, monkeypatch, capsys):
        calls = []
        solve = analysis.solve_smallest

        def recording(*args, **kwargs):
            calls.append(kwargs["certify"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(analysis, "solve_smallest", recording)
        args = command + ["--k", "1", "--kg", "1", "--num-eigs", "3", "--eta", "4"]
        assert cli.main(args) == 0
        assert cli.main(args + ["--certify"]) == 0
        assert set(calls[:len(calls) // 2]) == {False}
        assert set(calls[len(calls) // 2:]) == {True}

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exits_2_before_meshing(self, tol, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(["solve", "--k", "1", "--kg", "1", "--level", "2",
                         "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert "tol" in err and "Traceback" not in err


    @pytest.mark.parametrize("eta", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", [
        ["solve", "--level", "2"],
        ["converge", "--levels", "2..3"],
    ], ids=["solve", "converge"])
    def test_bad_eta_exits_2_before_meshing(self, command, eta, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(command + ["--k", "1", "--kg", "1", "--eta", eta]) == 2
        err = capsys.readouterr().err
        assert "eta" in err and "Traceback" not in err


class TestConverge:
    def test_csv_lambda1_tends_to_one(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code = cli.main(["converge", "--k", "1", "--kg", "1", "--levels",
                         "1..3", "--num-eigs", "6", "--eta", "4", "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        j1 = [r for r in rows if r["j"] == "1"]
        errs = [float(r["ev_err"]) for r in j1]
        assert errs[-1] < errs[0]
        assert abs(float(j1[-1]["lambda_h"]) - 1.0) < 1e-2

    def test_exports(self, tmp_path):
        mesh_dir = tmp_path / "meshes"
        mat_dir = tmp_path / "mats"
        code = cli.main(["converge", "--k", "1", "--kg", "1", "--levels",
                         "0..1", "--num-eigs", "3", "--eta", "4",
                         "--out", str(tmp_path / "s.csv"),
                         "--export-mesh", str(mesh_dir),
                         "--export-matrices", str(mat_dir)])
        assert code == 0
        for lvl in (0, 1):
            off = (mesh_dir / f"mesh_level{lvl}.off").read_text().splitlines()
            assert off[0] == "OFF"
            for name in ("A", "B"):
                mtx = (mat_dir / f"{name}_level{lvl}.mtx").read_text().splitlines()
                assert mtx[0] == "%%MatrixMarket matrix coordinate real symmetric"

    @pytest.mark.parametrize("command", [
        ["converge", "--k", "1", "--kg", "1", "--levels", "2,2"],
        ["converge", "--k", "1", "--kg", "1", "--levels", "3,2"],
        ["area", "--kg", "1", "--levels", "1,1"],
    ], ids=["converge-repeated", "converge-descending", "area-repeated"])
    def test_levels_not_strictly_ascending_exit_2_before_meshing(
            self, command, monkeypatch, capsys):
        # a repeated level has no EOC against itself
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(command) == 2
        assert "strictly ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["converge", "--k", "1", "--kg", "1", "--levels", "5..8"],
        ["area", "--kg", "2", "--levels", "5..8"],
        ["area", "--kg", "1", "--levels=-1,0"],
    ], ids=["converge-above", "area-above", "area-negative"])
    def test_levels_out_of_range_exit_2_before_meshing(self, command, monkeypatch,
                                                      capsys):
        # the valid levels before the bad one are not meshed either
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(command) == 2
        err = capsys.readouterr().err
        assert "levels must be in [0, 7]" in err and "Traceback" not in err

    def test_repeat_run_byte_identical(self, tmp_path):
        args = ["area", "--kg", "2", "--levels", "1..3"]
        assert cli.main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("command", [
        ["converge", "--k", "1", "--kg", "1", "--levels", "2..3"],
        ["solve", "--k", "1", "--kg", "1", "--level", "2"],
        ["area", "--kg", "1", "--levels", "1..2"],
    ], ids=["converge", "solve", "area"])
    def test_negative_mesh_seed_exits_2_before_meshing(self, command, monkeypatch,
                                                       capsys):
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(command + ["--mesh-seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    @pytest.mark.parametrize("fields", ["q", "z,w"])
    def test_unknown_field_exits_2_before_meshing(self, fields, monkeypatch, capsys):
        # StudyConfig is the one check of the axes
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(["converge", "--k", "1", "--kg", "1", "--levels", "2..3",
                         "--fields", fields]) == 2
        err = capsys.readouterr().err
        bad = fields.split(",")[-1]
        assert err.startswith(f"error: unknown Killing field axis {bad!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra, message", [
        (["--fields", "z,z"], "named twice"),
        (["--fields", "all", "--num-eigs", "1"], "3 fields need"),
    ], ids=["repeated-axis", "fields-above-num-eigs"])
    def test_fields_without_their_rows_exit_2_before_meshing(
            self, extra, message, monkeypatch, capsys):
        # a repeated axis wrote its row twice, and fields past the num_eigs
        # rows were dropped from the CSV
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(["converge", "--k", "1", "--kg", "1", "--levels", "2..3"]
                        + extra) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["converge", "--k", "1", "--kg", "1", "--levels", "3..1"],
        ["area", "--kg", "1", "--levels", "3..1"],
    ], ids=["converge", "area"])
    def test_empty_level_range_exits_2_before_meshing(self, command, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(command) == 2
        err = capsys.readouterr().err
        assert "no refinement levels" in err and "Traceback" not in err


class TestArea:
    def test_area_csv(self, tmp_path):
        out = tmp_path / "area.csv"
        assert cli.main(["area", "--kg", "2", "--levels", "1..3",
                         "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 3
        errs = [float(r["area_err"]) for r in rows]
        assert errs[2] < errs[0]
        assert float(rows[-1]["area_eoc"]) > 3.0

    def test_area_radius(self, tmp_path):
        # area errors scale with r^2 against the exact 4 pi r^2
        paths = [tmp_path / f"r{r}.csv" for r in ("1", "2")]
        for r, path in zip(("1", "2"), paths):
            assert cli.main(["area", "--kg", "2", "--levels", "1..2",
                             "--radius", r, "--out", str(path)]) == 0
        unit, double = (read_csv_rows(p) for p in paths)
        for a, b in zip(unit, double):
            assert float(b["area_err"]) == pytest.approx(4.0 * float(a["area_err"]),
                                                         rel=1e-8)


    def test_negative_quad_degree_exits_2_before_meshing(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(["area", "--kg", "1", "--levels", "1..2",
                         "--quad-degree", "-1"]) == 2
        err = capsys.readouterr().err
        assert "quadrature degree" in err and "Traceback" not in err

    def test_huge_quad_degree_exits_2_before_meshing(self, monkeypatch, capsys):
        # its Gauss-Jacobi rule would need a 500001 x 500001 Jacobi matrix
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(["area", "--kg", "1", "--levels", "0..1",
                         "--quad-degree", "1000000"]) == 2
        err = capsys.readouterr().err
        assert f"[0, {analysis.MAX_QUAD_DEGREE}]" in err and "Traceback" not in err

    def test_largest_quad_degree_runs(self, tmp_path):
        out = tmp_path / "area.csv"
        assert cli.main(["area", "--kg", "1", "--levels", "0..1", "--quad-degree",
                         str(analysis.MAX_QUAD_DEGREE), "--out", str(out)]) == 0
        assert len(read_csv_rows(out)) == 2

    @pytest.mark.parametrize("radius", ["inf", "1e80", "1e-80"])
    def test_infinite_radius_exits_2(self, radius, monkeypatch, capsys):
        # so do radii outside [1e-50, 1e50], whose area factors would
        # overflow or underflow
        monkeypatch.setattr(analysis, "icosphere", no_meshing)
        assert cli.main(["area", "--kg", "1", "--levels", "1..2",
                         "--radius", radius]) == 2
        err = capsys.readouterr().err
        assert "radius" in err and "Traceback" not in err

    def test_extreme_radii_keep_the_area_rate(self, tmp_path):
        # the ends of the radius range give the unit sphere's area EOC
        def area_eocs(radius):
            out = tmp_path / f"r{radius}.csv"
            assert cli.main(["area", "--kg", "2", "--levels", "0..2",
                             "--radius", radius, "--out", str(out)]) == 0
            return [float(r["area_eoc"]) for r in read_csv_rows(out)[1:]]

        unit = area_eocs("1")
        for radius in ("1e-50", "1e50"):
            np.testing.assert_allclose(area_eocs(radius), unit, rtol=0, atol=1e-9)


class TestAbstract:
    def test_jsonl_all_pass(self, tmp_path):
        out = tmp_path / "bounds.jsonl"
        code = cli.main(["abstract", "--trials", "1", "--seed", "7",
                         "--mode", "exact", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            obj = json.loads(line)
            assert obj["seed"] == 7
            if obj["hypotheses_met"]:
                assert obj["pass"] is True

    def test_stdout_mode(self, capsys):
        assert cli.main(["abstract", "--trials", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 10


    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, trials, monkeypatch, capsys):
        def no_instance(*args, **kwargs):
            raise AssertionError("built an instance of an empty sweep")

        monkeypatch.setattr(abstract_framework, "make_instance", no_instance)
        assert cli.main(["abstract", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "trials" in captured.err

    def test_negative_seed_exits_2(self, monkeypatch, capsys):
        def no_instance(*args, **kwargs):
            raise AssertionError("built an instance of a sweep with a negative seed")

        monkeypatch.setattr(abstract_framework, "make_instance", no_instance)
        assert cli.main(["abstract", "--trials", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed" in captured.err


class TestOutputPaths:
    """An output that cannot be written exits 2 before any work, and a
    numerical failure after the check leaves no file behind."""

    @staticmethod
    def forbid_work(monkeypatch):
        monkeypatch.setattr(analysis, "icosphere", no_meshing)

        def no_instance(*args, **kwargs):
            raise AssertionError("built an instance for an unwritable output")

        monkeypatch.setattr(abstract_framework, "make_instance", no_instance)

    @pytest.mark.parametrize("argv", [
        ["abstract", "--trials", "1"],
        ["area", "--kg", "1", "--levels", "1..2"],
        ["converge", "--k", "1", "--kg", "1", "--levels", "2..3"],
    ])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2_before_any_work(self, argv, where, tmp_path,
                                                    monkeypatch, capsys):
        self.forbid_work(monkeypatch)
        out = tmp_path / "missing" / "x.out" if where == "missing_dir" else tmp_path
        assert cli.main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert str(out.parent if where == "missing_dir" else out) in captured.err
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--export-mesh", "--export-matrices"])
    def test_export_dir_over_a_file_exits_2_before_meshing(self, flag, tmp_path,
                                                           monkeypatch, capsys):
        self.forbid_work(monkeypatch)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert cli.main(["converge", "--k", "1", "--kg", "1", "--levels", "2..3",
                         flag, str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert "export directory" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,name", [("--export-mesh", "mesh_level2.off"),
                                           ("--export-matrices", "A_level2.mtx")])
    def test_export_file_over_a_directory_exits_2(self, flag, name, tmp_path, capsys):
        # the directory is there, but a directory takes the first file's name
        (tmp_path / name).mkdir()
        assert cli.main(["converge", "--k", "1", "--kg", "1", "--levels", "2..3",
                         flag, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "cannot write" in captured.err and name in captured.err

    def test_numerical_failure_after_the_check_leaves_no_file(self, tmp_path,
                                                             monkeypatch, capsys):
        def failing_sweep(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "sweep", failing_sweep)
        out = tmp_path / "bounds.jsonl"
        assert cli.main(["abstract", "--trials", "1", "--out", str(out)]) == 3
        assert not out.exists()


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, monkeypatch, capsys):
        def boom(args):
            raise NumericalError("synthetic failure")
        monkeypatch.setitem(cli._COMMANDS, "area", boom)
        assert cli.main(["area", "--kg", "1", "--levels", "1..1"]) == 3
