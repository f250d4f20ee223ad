#!/usr/bin/env python3
"""veclap benchmark: time to a verified spectrum on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload converge-p2 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up (a fresh interpreter
importing ``veclap.cli``, median of several taken before and after the
loop), the workload's wall time (median over the iterations of a closed
loop that runs for ``--seconds``), peak RSS and the accuracy of the
spectrum (``ev_err_max``).  ``--trace 1`` alternates untraced and traced
iterations, checks that both write the same bytes, and reports per-layer
metrics from spans recorded around the calls into ``veclap.mesh``,
``veclap.fem``, ``veclap.eigensolve``, ``veclap.analysis``,
``veclap.abstract_framework`` and ``scipy.sparse.linalg.splu``.

Every iteration is checked by the workload's gate (see ``workloads.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the machine and environment.  Spans and results are also written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

from spans import Tracer, patched, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 4   # before the loop, and again after it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "VECLAP_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ev_err_max": "1",
}

# span name -> module attribute it wraps
SPANNED = {
    "mesh.icosphere": ("veclap.analysis", "icosphere"),
    "mesh.parametric_lift": ("veclap.analysis", "parametric_lift"),
    "mesh.surface_area": ("veclap.analysis", "surface_area"),
    "fem.build_space": ("veclap.analysis", "build_space"),
    "fem.assemble": ("veclap.analysis", "assemble"),
    "fem.extended_pairings": ("veclap.analysis", "extended_pairings"),
    "eigensolve.solve_smallest": ("veclap.analysis", "solve_smallest"),
    "eigensolve.full_spectrum": ("veclap.abstract_framework", "full_spectrum"),
    "analysis.eigenvector_error": ("veclap.analysis", "eigenvector_error"),
    "analysis.defect_dual_norm": ("veclap.analysis", "defect_dual_norm"),
    "analysis.write_csv": ("veclap.analysis", "write_csv"),
    "abstract_framework.make_instance": ("veclap.abstract_framework", "make_instance"),
    "abstract_framework.compute_quantities": ("veclap.abstract_framework",
                                              "compute_quantities"),
    "abstract_framework.verify_bounds": ("veclap.abstract_framework", "verify_bounds"),
    "scipy.splu": ("scipy.sparse.linalg", "splu"),
}
ROOT_SPAN = "workload"

PER_LAYER = {
    "mesh.icosphere_s": "s",
    "mesh.parametric_lift_s": "s",
    "mesh.surface_area_s": "s",
    "fem.build_space_s": "s",
    "fem.ndof": "count",
    "fem.nnz_A": "count",
    "fem.assemble_s": "s",
    "fem.extended_pairings_s": "s",
    "fem.extended_pairings_calls": "count",
    "eigensolve.solve_smallest_s": "s",
    "eigensolve.iterations": "count",
    "eigensolve.max_residual": "1",
    "eigensolve.dense_solves": "count",
    "eigensolve.full_spectrum_s": "s",
    "eigensolve.full_spectrum_calls": "count",
    "scipy.splu_s": "s",
    "scipy.splu_calls": "count",
    "analysis.defect_dual_norm_s": "s",
    "analysis.defect_dual_norm_calls": "count",
    "analysis.eigenvector_error_s": "s",
    "analysis.write_csv_s": "s",
    "analysis.unaccounted_s": "s",
    "abstract_framework.make_instance_s": "s",
    "abstract_framework.compute_quantities_s": "s",
    "abstract_framework.verify_bounds_self_s": "s",
    "abstract_framework.instance_p50_ms": "ms",
    "abstract_framework.instance_p99_ms": "ms",
    "abstract_framework.checks": "count",
    "abstract_framework.hypotheses_met_share": "share",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    def seconds(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("seconds must be >= 1")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("converge-p2", "solve-p4", "abstract-sweep"))
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--seconds", type=seconds, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_sources() -> None:
    """The program is imported from this checkout's ``src`` only."""
    if not (SRC / "veclap" / "__init__.py").is_file():
        raise SystemExit(f"error: no veclap sources under {SRC}")


def setup_seconds(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters importing ``veclap.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import veclap.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def machine() -> dict:
    import numpy as np
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # numpy and scipy each load their own OpenBLAS
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


class Verdict:
    """Gate results of every iteration, plus determinism: each iteration
    must write the same bytes as the first iteration on the same part."""

    def __init__(self):
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, outcome, part: int = 0) -> None:
        reference = self.reference.setdefault(part, outcome.output)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures += outcome.failures
        if outcome.output != reference:
            self.failures.append(f"part {part}: output bytes differ from the "
                                 "first iteration's")


class Loop:
    """Closed loop: the next iteration starts when the previous one ends.

    Outcomes go to the verdict as they arrive, so the process does not grow
    with the number of iterations and its peak RSS is that of one.
    Iteration ``i`` runs part ``i % parts`` of the workload."""

    def __init__(self, workload, seed: int, verdict: Verdict, tracer=None):
        self.workload = workload
        self.seed = seed
        self.verdict = verdict
        self.tracer = tracer
        self.walls: list[float] = []
        self.ev_errs: dict[int, float] = {}

    @contextmanager
    def _region(self):
        span = self.tracer.span(ROOT_SPAN) if self.tracer else nullcontext()
        t0 = time.perf_counter()
        with span:
            yield
        self.walls.append(time.perf_counter() - t0)

    def step(self, part: int = 0) -> None:
        outcome = self.workload.run(self.seed, self._region, part)
        self.verdict.add(outcome, part)
        self.ev_errs[part] = outcome.ev_err_max

    def run_for(self, seconds: float) -> None:
        run_until(seconds, lambda i: self.step(i % self.workload.parts))

    def ev_err(self) -> float:
        """Over the parts run; parts are of equal size, so for a sweep this
        is the geometric mean over all their instances."""
        return statistics.geometric_mean(self.ev_errs.values())


def run_until(seconds: float, step) -> None:
    """Call ``step(0)``, ``step(1)``, ... while the next call, if it lasts as
    long as the last one, still ends within ``seconds``; at least once."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        step(i)
        i += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


@contextmanager
def instrumented(tracer, counts):
    """Within the block, every spanned function records a span per call;
    result hooks add the per-layer counts to ``counts``."""
    import importlib

    def add(name, n=1):
        counts[name] = counts.get(name, 0) + n

    def on_solve(pairs):
        add("eigensolve.iterations", pairs.iterations)
        add("eigensolve.dense_solves", int(pairs.method == "dense"))
        counts["eigensolve.max_residual"] = max(
            counts.get("eigensolve.max_residual", 0.0), float(max(pairs.residuals)))

    def on_report(report):
        add("abstract_framework.checks", len(report.checks))
        add("abstract_framework.hypotheses_met",
            sum(1 for c in report.checks if c.hypotheses_met))

    hooks = {
        "fem.build_space": lambda space: add("fem.ndof", space.n_dofs),
        "fem.assemble": lambda forms: add("fem.nnz_A", forms.A.nnz),
        "eigensolve.solve_smallest": on_solve,
        "abstract_framework.verify_bounds": on_report,
    }
    with ExitStack() as stack:
        for name, (module, attr) in SPANNED.items():
            stack.enter_context(patched(
                importlib.import_module(module), attr, hooks.get(name),
                around=functools.partial(tracer.span, name)))
        yield


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer values of one traced iteration (its spans and counts)."""
    selfs = self_times(spans)
    total, calls = {}, {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
    root = next(s for s in spans if s.name == ROOT_SPAN)
    out = {f"{name}_s": total.get(name, 0.0) for name in SPANNED}
    for name in ("fem.extended_pairings", "eigensolve.full_spectrum",
                 "scipy.splu", "analysis.defect_dual_norm"):
        out[f"{name}_calls"] = calls.get(name, 0)
    for name in ("fem.ndof", "fem.nnz_A", "eigensolve.iterations",
                 "eigensolve.dense_solves", "eigensolve.max_residual",
                 "abstract_framework.checks"):
        out[name] = counts.get(name, 0)
    checks = counts.get("abstract_framework.checks", 0)
    out["abstract_framework.hypotheses_met_share"] = (
        counts.get("abstract_framework.hypotheses_met", 0) / checks if checks else 0.0)
    out["abstract_framework.verify_bounds_self_s"] = sum(
        selfs[s.span_id] for s in spans if s.name == "abstract_framework.verify_bounds")
    out.pop("abstract_framework.verify_bounds_s")
    out["analysis.unaccounted_s"] = selfs[root.span_id]
    out["trace.wall_s"] = root.duration
    return out


def instance_latencies_ms(spans) -> list[float]:
    """One instance is a make_instance span and the verify_bounds span after it."""
    made = sorted((s for s in spans if s.name == "abstract_framework.make_instance"),
                  key=lambda s: s.start)
    verified = sorted((s for s in spans if s.name == "abstract_framework.verify_bounds"),
                      key=lambda s: s.start)
    return [1e3 * (m.duration + v.duration) for m, v in zip(made, verified)]


def end_to_end(loop, setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(loop.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ev_err_max": loop.ev_err(),
    }


def traced_loop(workload, args, verdict: Verdict):
    """After one warm-up iteration, which neither side counts, alternate
    untraced and traced iterations on the same part while pairs still fit
    in ``--seconds`` (at least one pair), swapping their order in every
    other pair so that both sides see the same phases of the machine and
    neither always runs first.

    Returns the untraced and traced loops, the tracer, the per-layer
    metrics and the number of instances.  The metrics are medians over the
    traced iterations, instance latencies pooled over all of them, and the
    median paired difference of traced and untraced wall time."""
    tracer = Tracer()
    plain = Loop(workload, args.seed, verdict)
    traced = Loop(workload, args.seed, verdict, tracer)
    counts_per_iteration: list[dict] = []

    def traced_step(part):
        tracer.run_id = f"it{len(counts_per_iteration)}"
        counts_per_iteration.append({})
        with instrumented(tracer, counts_per_iteration[-1]):
            traced.step(part)

    def pair_step(i):
        pair = (plain.step, traced_step)
        for step in pair if i % 2 == 0 else pair[::-1]:
            step(i % workload.parts)

    start = time.perf_counter()
    # first calls are slower (lazy imports, fresh memory): keep them out
    # of the paired differences
    Loop(workload, args.seed, verdict).step()
    run_until(args.seconds - (time.perf_counter() - start), pair_step)
    per_iteration = [
        layer_metrics([s for s in tracer.spans if s.run_id == f"it{i}"], counts)
        for i, counts in enumerate(counts_per_iteration)]
    metrics = {name: statistics.median(m[name] for m in per_iteration)
               for name in per_iteration[0]}
    lat = instance_latencies_ms(tracer.spans)
    metrics["abstract_framework.instance_p50_ms"] = (
        statistics.median(lat) if lat else 0.0)
    metrics["abstract_framework.instance_p99_ms"] = (
        statistics.quantiles(lat, n=100)[98] if len(lat) >= 2 else 0.0)
    metrics["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(traced.walls, plain.walls))
    return plain, traced, tracer, metrics, len(lat)


def run(args) -> dict:
    check_sources()
    setup = [] if args.trace else setup_seconds()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    verdict = Verdict()
    tracer = None
    if args.trace:
        plain, traced, tracer, metrics, instances = traced_loop(workload, args, verdict)
        samples = {"wall_s": plain.walls, "traced_wall_s": traced.walls,
                   "instances": instances}
        units = PER_LAYER
    else:
        plain = Loop(workload, args.seed, verdict)
        plain.run_for(args.seconds)
        # set-up samples before and after the loop see two phases of the machine
        setup += setup_seconds()
        samples = {"wall_s": plain.walls, "setup_s": setup}
        metrics = end_to_end(plain, setup)
        units = END_TO_END

    result = {
        "correct": not verdict.failures,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "samples": samples,
              "failures": verdict.failures[:50], "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="ascii") as f:
            tracer.write_jsonl(f, {"workload": args.workload, "seed": args.seed})
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    record = run(args)
    for line in record["failures"]:
        print(f"gate: {line}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "samples": record["samples"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
