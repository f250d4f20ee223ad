"""The benchmark's workloads and the correctness gates on their outputs.

Each workload calls the program's public functions with inputs derived
from the benchmark seed only.  The part it runs inside ``region()``, the
timed region, does what the matching CLI command does, writing its CSV or
JSONL output to memory.  The gates then check that output; every
operation they check counts toward ``attempted`` and, when it fails, toward
``failed``.

Gates and studies start at level 2: on levels 0 and 1 the jittered
icosphere is too coarse and the discrete spectrum has a spurious cluster
(about 0.53 at level 0 and 1.47 at level 1, for every k = k_g in 2..4), so
the Criterion 1 windows do not apply there.
"""

from __future__ import annotations

import io
import statistics
from dataclasses import dataclass, field
from typing import Callable

from spans import patched
from veclap import abstract_framework, analysis

KILLING_WINDOW = (0.999, 1.001)   # Criterion 1, lambda_1..3
SECOND_WINDOW = (1.99, 2.01)      # Criterion 1, lambda_4..6
MIN_EOC_LAMBDA4 = 2.8             # Criterion 3, EOC(|lambda_4 - 2|)
GATE_MIN_LEVEL = 2
# instances per mode and seed; an iteration sweeps one part of SWEEP_PART
# instances per mode, and a run cycles through the seed's parts, so a
# run's median iteration time is taken over many short samples
SWEEP_TRIALS = 500
SWEEP_PART = 50


@dataclass
class Outcome:
    """What one iteration produced and what its gate found."""

    output: str
    ev_err_max: float
    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _outside(values, window) -> bool:
    lo, hi = window
    return any(not (lo <= v <= hi) for v in values)


def level_failures(rec, residuals, tol: float) -> list[str]:
    """Criterion 1 windows and solver residuals for one level record."""
    if rec.level < GATE_MIN_LEVEL:
        return []
    lam = list(rec.eigenvalues)
    out = []
    if len(lam) < 6:
        out.append(f"level {rec.level}: {len(lam)} eigenvalues, need 6")
    if _outside(lam[:3], KILLING_WINDOW):
        out.append(f"level {rec.level}: lambda_1..3 = {lam[:3]} outside {KILLING_WINDOW}")
    if _outside(lam[3:6], SECOND_WINDOW):
        out.append(f"level {rec.level}: lambda_4..6 = {lam[3:6]} outside {SECOND_WINDOW}")
    if residuals is None:
        out.append(f"level {rec.level}: no solver residuals recorded")
    elif not max(residuals) <= tol:
        out.append(f"level {rec.level}: solver residual {max(residuals):.3e} > tol {tol:.1e}")
    return out


def eoc_failure(records) -> str | None:
    """Criterion 3's rate bound on the last level pair."""
    a, b = records[-2], records[-1]
    rate = analysis.eoc(a.errors[3], b.errors[3], a.h, b.h)
    if not rate >= MIN_EOC_LAMBDA4:   # also catches NaN
        return (f"levels {a.level}->{b.level}: EOC(|lambda_4 - 2|) = {rate:.3f} "
                f"< {MIN_EOC_LAMBDA4}")
    return None


def report_failures(report) -> list[str]:
    """Criterion 8 on one instance: no violated hypothesis-met check and no
    failed projection identity."""
    out = [f"seed {report.seed}: {c.bound} j={c.j} violated "
           f"(lhs {c.lhs:.6e} > rhs {c.rhs:.6e})" for c in report.violations()]
    out += [f"seed {report.seed}: projection_identity j={c.j} failed"
            for c in report.checks
            if c.bound == "projection_identity" and c.passed is not True]
    return out


def check_study(records, residuals_by_ndof, tol: float, with_eoc: bool) -> Outcome:
    """Gate a FEM study: one operation per level, plus the EOC when asked."""
    per_op = [level_failures(rec, residuals_by_ndof.get(rec.ndof), tol)
              for rec in records if rec.level >= GATE_MIN_LEVEL]
    if with_eoc:
        msg = eoc_failure(records)
        per_op.append([msg] if msg else [])
    return _outcome(per_op, float(max(records[-1].errors)))


def check_sweep(reports) -> Outcome:
    """Gate a sweep: one operation per instance."""
    return _outcome([report_failures(rep) for rep in reports], identity_error(reports))


def identity_error(reports) -> float:
    """Geometric mean over instances of max_j of the ``projection_identity``
    residual over its tolerance.

    The identity holds exactly for exact discrete eigenpairs, so its
    residual is set by the accuracy of ``full_spectrum``: it is about 3e-5
    of the tolerance on correct code and grows with any digits the
    eigensolve loses.  The geometric mean is steady across seeds; the worst
    instance is not.
    """
    # floored, because geometric_mean rejects an exact zero
    return statistics.geometric_mean(
        max(1e-300, max(c.lhs / c.rhs for c in rep.checks
                        if c.bound == "projection_identity"))
        for rep in reports)


def _outcome(per_op: list[list[str]], ev_err_max: float) -> Outcome:
    return Outcome(output="", ev_err_max=ev_err_max, attempted=len(per_op),
                   failed=sum(1 for f in per_op if f),
                   failures=[msg for f in per_op for msg in f])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _study(cfg, region, with_eoc: bool) -> Outcome:
    buf = io.StringIO()
    # ConvergenceRecord does not carry the solver residuals, so the gate
    # reads them, keyed by problem size, where the study calls
    # solve_smallest; the probe runs in traced and untraced runs alike
    residuals = {}

    def probe(pairs):
        residuals[pairs.vectors.shape[0]] = list(pairs.residuals)

    with patched(analysis, "solve_smallest", on_result=probe):
        with region():
            records = analysis.convergence_study(cfg)
            analysis.write_csv(records, buf)
    outcome = check_study(records, residuals, cfg.tol, with_eoc)
    outcome.output = buf.getvalue()
    return outcome


def converge_p2(seed: int, region, part: int = 0) -> Outcome:
    """``veclap converge --k 2 --kg 2 --levels 2..4 --fields all``."""
    cfg = analysis.StudyConfig(k=2, k_g=2, levels=(2, 3, 4),
                               fields=("z", "x", "y"), mesh_seed=seed)
    return _study(cfg, region, with_eoc=True)


def solve_p4(seed: int, region, part: int = 0) -> Outcome:
    """``veclap solve --k 4 --kg 4 --level 2`` (no fields)."""
    cfg = analysis.StudyConfig(k=4, k_g=4, levels=(2,), fields=(), mesh_seed=seed)
    return _study(cfg, region, with_eoc=False)


def sweep_bases(seed: int, trials: int = SWEEP_TRIALS) -> tuple[int, int]:
    """Base seeds of the exact and perturbed sweeps; disjoint for all seeds."""
    base = 2 * trials * seed
    return base, base + trials


def abstract_sweep(seed: int, region, part: int = 0) -> Outcome:
    """``veclap abstract`` in exact mode, then in perturbed mode, on one part
    of the seed's instances.  Instance ``i`` of ``sweep(n, b)`` has seed
    ``b + i``, so the parts together are ``sweep(SWEEP_TRIALS, b)``."""
    exact_base, perturbed_base = sweep_bases(seed)
    offset = SWEEP_PART * part
    buf = io.StringIO()
    with region():
        reports = (abstract_framework.sweep(SWEEP_PART, exact_base + offset, "exact")
                   + abstract_framework.sweep(SWEEP_PART, perturbed_base + offset,
                                              "perturbed"))
        abstract_framework.write_jsonl(reports, buf)
    outcome = check_sweep(reports)
    outcome.output = buf.getvalue()
    return outcome


@dataclass(frozen=True)
class Workload:
    """``run(seed, region, part)`` is one iteration on part ``part`` of the
    seed's inputs; the iterations of a run cycle through the ``parts``."""

    run: Callable[..., Outcome]
    parts: int = 1


WORKLOADS = {
    "converge-p2": Workload(converge_p2),
    "solve-p4": Workload(solve_p4),
    "abstract-sweep": Workload(abstract_sweep, SWEEP_TRIALS // SWEEP_PART),
}
