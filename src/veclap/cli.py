"""Command-line front end.

Subcommands:

* ``converge``: eigenvalue/eigenvector convergence study over refinement
  levels, CSV output, optional OFF mesh and MatrixMarket matrix export;
* ``solve``: one level, prints the smallest eigenvalues;
* ``area``: surface-area error study;
* ``abstract``: seeded sweep of the synthetic bound-verification suite,
  JSONL output.

Exit codes: 0 success, 2 argument/validation error, 3 numerical failure.
An ``--out`` file that cannot be written exits 2 before any work; an
export file that cannot be written exits 2 when its level is reached.
The ``VECLAP_THREADS`` environment variable sets worker-thread count;
outputs are byte-identical for any setting.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import partial

from . import analysis
from .abstract_framework import sweep, write_jsonl
from .errors import InputError, VeclapError
from .fem import write_matrix_market
from .geometry import Sphere
from .mesh import write_off
from .runtime import worker_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _parse_levels(text: str) -> tuple[int, ...]:
    """Parse 'A..B' (inclusive) or a comma list like '1,2,4'."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            levels = tuple(range(int(lo), int(hi) + 1))
        else:
            levels = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse levels {text!r}; expected A..B or a,b,c")
    if not levels:
        raise InputError("empty level range")
    return levels


def _parse_fields(text: str) -> tuple[str, ...]:
    """'all' or a comma list; ``StudyConfig`` rejects an unknown axis."""
    return ("z", "x", "y") if text == "all" else tuple(text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veclap",
        description="Penalized surface FEM for the vector-Laplace eigenproblem")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mesh_args(p):
        p.add_argument("--kg", type=int, required=True, help="geometry degree")
        p.add_argument("--jitter", type=float, default=0.3,
                       help="tangential mesh jitter (0 = symmetric icosphere)")
        p.add_argument("--mesh-seed", type=int, default=0)

    def add_fem_args(p):
        p.add_argument("--k", type=int, required=True, help="FE degree")
        p.add_argument("--num-eigs", type=int, default=6)
        p.add_argument("--eta", type=float, default=1.0,
                       help="penalty coefficient (eta = coeff / h^2); a level "
                            f"where eta is below {analysis.PENALTY_MARGIN:g} x "
                            "the largest requested exact eigenvalue exits 2 "
                            "before assembly")
        p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("converge", help="convergence study over levels")
    add_fem_args(p)
    add_mesh_args(p)
    p.add_argument("--levels", type=str, required=True, help="range A..B")
    p.add_argument("--fields", type=str, default="z",
                   help="Killing fields for eigenvector errors: z|x|y|all")
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.add_argument("--export-mesh", type=str, default=None,
                   help="directory for per-level OFF meshes")
    p.add_argument("--export-matrices", type=str, default=None,
                   help="directory for per-level MatrixMarket matrices")

    p = sub.add_parser("solve", help="solve one level, print eigenvalues")
    add_fem_args(p)
    add_mesh_args(p)
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("area", help="surface-area error study")
    add_mesh_args(p)
    p.add_argument("--radius", type=float, default=1.0, help="sphere radius")
    p.add_argument("--levels", type=str, required=True, help="range A..B")
    p.add_argument("--quad-degree", type=int, default=None,
                   help=f"area quadrature degree in 0..{analysis.MAX_QUAD_DEGREE} "
                        "(default 2 kg + 8); a larger one exits 2 before meshing")
    p.add_argument("--out", type=str, default=None, help="CSV output path")

    p = sub.add_parser("abstract", help="synthetic bound-verification sweep")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exact", "perturbed"), default="exact")
    p.add_argument("--out", type=str, default=None, help="JSONL output path")

    return parser


def _study_config(args, levels, fields) -> analysis.StudyConfig:
    return analysis.StudyConfig(
        k=args.k, k_g=args.kg, levels=levels, num_eigs=args.num_eigs,
        eta_coeff=args.eta, fields=fields, tol=args.tol,
        jitter=args.jitter, mesh_seed=args.mesh_seed)


def _check_output_file(path) -> None:
    """Raise InputError unless the file ``path`` (None: standard output)
    can be created or overwritten; creates nothing, so a run that fails
    later leaves no file."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.basename(path) or os.path.isdir(path):
        raise InputError(f"output path {path!r} names a directory, not a file")
    if not os.path.isdir(directory):
        raise InputError(f"output directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        raise InputError(f"output path {path!r} is not writable")


@contextmanager
def _writing(path):
    """Turn an OSError raised while writing the file ``path`` into an
    InputError (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc.strerror}") from exc


def _write_output(path, write) -> None:
    """``write(f)`` to standard output, or to the file ``path``."""
    if path is None:
        write(sys.stdout)
        return
    with _writing(path), open(path, "w", encoding="ascii", newline="") as f:
        write(f)


def _make_export_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create export directory {path!r}: "
                         f"{exc.strerror}") from exc


def _cmd_converge(args) -> int:
    _check_output_file(args.out)
    cfg = _study_config(args, _parse_levels(args.levels),
                        _parse_fields(args.fields))

    hook = None
    if args.export_mesh or args.export_matrices:
        if args.export_mesh:
            _make_export_dir(args.export_mesh)
        if args.export_matrices:
            _make_export_dir(args.export_matrices)

        def hook(level, mesh, forms):
            if args.export_mesh:
                path = os.path.join(args.export_mesh, f"mesh_level{level}.off")
                with _writing(path):
                    write_off(mesh, path)
            if args.export_matrices:
                for name, mat in (("A", forms.A), ("B", forms.B)):
                    path = os.path.join(args.export_matrices,
                                        f"{name}_level{level}.mtx")
                    with _writing(path):
                        write_matrix_market(
                            mat, path, comment=f"{name}_h, level {level}, "
                                               f"k={cfg.k}, kg={cfg.k_g}")

    records = analysis.convergence_study(cfg, on_assembled=hook)
    _write_output(args.out, partial(analysis.write_csv, records))
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _study_config(args, (args.level,), ())
    rec = analysis.convergence_study(cfg)[0]
    print(f"level {rec.level}: h = {rec.h:.6e}, ndof = {rec.ndof}")
    print(f"{'j':>3s} {'lambda_h':>24s} {'lambda_exact':>14s} {'error':>13s}")
    for j, (lam_h, lam, err) in enumerate(
            zip(rec.eigenvalues, rec.exact, rec.errors), start=1):
        print(f"{j:3d} {lam_h:24.16e} {lam:14.6g} {err:13.4e}")
    return EXIT_OK


def _cmd_area(args) -> int:
    _check_output_file(args.out)
    records = analysis.area_study(
        args.kg, _parse_levels(args.levels), surface=Sphere(args.radius),
        quad_degree=args.quad_degree, jitter=args.jitter,
        mesh_seed=args.mesh_seed)
    _write_output(args.out, partial(analysis.write_csv, records))
    return EXIT_OK


def _cmd_abstract(args) -> int:
    _check_output_file(args.out)
    reports = sweep(args.trials, args.seed, args.mode)
    _write_output(args.out, partial(write_jsonl, reports))
    n_viol = sum(len(r.violations()) for r in reports)
    if n_viol:
        print(f"error: {n_viol} bound violations with hypotheses met",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "converge": _cmd_converge,
    "solve": _cmd_solve,
    "area": _cmd_area,
    "abstract": _cmd_abstract,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        worker_count()  # a malformed VECLAP_THREADS fails before any work
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VeclapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
