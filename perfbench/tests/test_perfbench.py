"""Tests of the benchmark itself: metric names, gates and span arithmetic.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads
from spans import Span, Tracer, patched, self_times
from veclap.abstract_framework import BoundCheckReport
from veclap.analysis import ConvergenceRecord

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _record(level, eigenvalues, h=0.1):
    lam = np.asarray(eigenvalues, dtype=float)
    exact = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    return ConvergenceRecord(level=level, h=h, ndof=100 * level, eigenvalues=lam,
                             exact=exact, errors=np.abs(lam - exact), area=0.0,
                             area_error=0.0)


GOOD = [1.0000002, 1.0000003, 1.0000004, 2.000001, 2.000002, 2.000003]


# --- metric names ------------------------------------------------------------

def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in list(run.END_TO_END) + list(run.PER_LAYER) + list(workloads.WORKLOADS):
        assert NAME.match(name), name


def test_layer_metrics_emit_every_per_layer_name_but_the_run_level_ones():
    tracer = Tracer()
    with tracer.span(run.ROOT_SPAN):
        pass
    names = set(run.layer_metrics(tracer.spans, {}))
    run_level = {"abstract_framework.instance_p50_ms",
                 "abstract_framework.instance_p99_ms", "trace.overhead_s"}
    assert names == set(run.PER_LAYER) - run_level


# --- gates -------------------------------------------------------------------

def test_gate_passes_a_correct_level():
    assert workloads.level_failures(_record(2, GOOD), [1e-12] * 6, 1e-10) == []


@pytest.mark.parametrize("bad", [
    [1.002, 1.0, 1.0, 2.0, 2.0, 2.0],      # Killing cluster outside [0.999, 1.001]
    [1.0, 1.0, 1.0, 1.47, 2.0, 2.0],       # spurious value in the second cluster
    [1.0, 1.0, 1.0, 2.0, 2.0, 2.02],
])
def test_gate_flags_a_wrong_eigenvalue(bad):
    assert workloads.level_failures(_record(3, bad), [1e-12] * 6, 1e-10)


def test_gate_flags_a_large_or_missing_residual():
    assert workloads.level_failures(_record(2, GOOD), [1e-12, 2e-10], 1e-10)
    assert workloads.level_failures(_record(2, GOOD), None, 1e-10)


def test_gate_ignores_levels_below_two():
    assert workloads.level_failures(_record(1, [1.0] * 3 + [1.47] * 3), None, 1e-10) == []


def test_gate_flags_a_low_eoc():
    coarse = _record(3, [1.0] * 3 + [2.0 + 1e-4] * 3, h=0.2)
    fine_ok = _record(4, [1.0] * 3 + [2.0 + 1e-4 / 2**3] * 3, h=0.1)
    fine_bad = _record(4, [1.0] * 3 + [2.0 + 1e-4 / 2**2] * 3, h=0.1)
    assert workloads.eoc_failure([coarse, fine_ok]) is None
    assert workloads.eoc_failure([coarse, fine_bad])


def test_study_outcome_counts_levels_and_eoc():
    recs = [_record(2, GOOD), _record(3, [1.01] + GOOD[1:])]
    residuals = {200: [1e-12] * 6, 300: [1e-12] * 6}
    out = workloads.check_study(recs, residuals, 1e-10, with_eoc=False)
    assert out.attempted == 2 and out.failed == 1 and len(out.failures) == 1


def test_gate_flags_a_violated_bound():
    rep = BoundCheckReport(seed=7, mode="exact")
    rep.add("ev_relative_error_upper", 1, 0.1, 0.2, True)
    rep.add("projection_identity", 1, 1e-14, 1e-10, True)
    rep.add("ev_lower_bound_consistency", 1, 5.0, 1.0, False)  # skipped, not failed
    assert workloads.report_failures(rep) == []
    rep.add("ev_upper_bound_discrete_consistency", 2, 3.0, 1.0, True)
    assert len(workloads.report_failures(rep)) == 1


def test_gate_flags_a_failed_projection_identity():
    rep = BoundCheckReport(seed=7, mode="perturbed")
    rep.add("projection_identity", 1, 1e-3, 1e-10, True)
    failures = workloads.report_failures(rep)
    assert any("projection_identity" in f for f in failures)


def test_identity_error_is_the_geometric_mean_of_the_worst_ratios():
    reports = []
    for seed, worst in ((1, 1e-6), (2, 1e-4)):
        rep = BoundCheckReport(seed=seed, mode="exact")
        rep.add("projection_identity", 1, worst * 1e-10, 1e-10, True)
        rep.add("projection_identity", 2, worst * 1e-12, 1e-10, True)
        rep.add("dualnorm_formula", 1, 1e-10, 1e-10, True)
        reports.append(rep)
    assert workloads.identity_error(reports) == pytest.approx(1e-5)


def test_sweep_bases_are_disjoint_across_seeds():
    used = set()
    for seed in range(20):
        for base in workloads.sweep_bases(seed):
            block = set(range(base, base + workloads.SWEEP_TRIALS))
            assert not block & used
            used |= block


# --- spans -------------------------------------------------------------------

def _span(i, start, end, parent):
    return Span(span_id=i, name=f"s{i}", start=start, end=end, parent=parent, run_id="r")


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 4.0, 0),
        _span(2, 3.0, 6.0, 0),     # overlaps span 1: the union counts once
        _span(3, 8.0, 9.0, 0),
        _span(4, 2.0, 3.0, 1),     # grandchild: charged to span 1 only
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (6.0 - 1.0) - 1.0)
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(1.0)


def test_tracer_records_parents_and_restores_the_function():
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original_inner = ns.inner
    tracer = Tracer()
    seen = []
    with patched(ns, "inner", seen.append, around=lambda: tracer.span("inner")):
        with patched(ns, "outer", around=lambda: tracer.span("outer")):
            assert ns.outer(1) == 4
    assert ns.inner is original_inner
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent is None
    assert seen == [2]


def test_patched_restores_the_function_when_the_block_raises():
    ns = SimpleNamespace(f=lambda: 1)
    original = ns.f
    with pytest.raises(RuntimeError):
        with patched(ns, "f"):
            assert ns.f is not original and ns.f() == 1
            raise RuntimeError
    assert ns.f is original


def test_traced_loop_alternates_and_pairs_the_wall_times():
    def iteration(seed, region, part):
        with region():
            pass
        return workloads.Outcome(output="x", ev_err_max=1.0, attempted=1)

    verdict = run.Verdict()
    args = SimpleNamespace(seed=0, seconds=0)
    plain, traced, tracer, metrics, instances = run.traced_loop(
        workloads.Workload(iteration), args, verdict)
    assert len(plain.walls) == len(traced.walls) == 1
    assert verdict.attempted == 3 and not verdict.failures   # with the warm-up
    # only the traced iteration records spans
    assert [s.name for s in tracer.spans] == [run.ROOT_SPAN]
    assert metrics["trace.overhead_s"] == pytest.approx(traced.walls[0] - plain.walls[0])
    assert set(metrics) == set(run.PER_LAYER) and instances == 0


def test_run_until_stops_when_the_next_call_would_not_fit(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    calls = []

    def step(i):                            # each call takes one second
        calls.append(i)
        clock[0] += 1.0

    run.run_until(0, step)
    assert calls == [0]                     # always at least one call
    calls.clear()
    run.run_until(2.5, step)                # a third call would end at 3 s
    assert calls == [0, 1]


def test_loop_cycles_through_the_parts_and_checks_bytes_per_part():
    seen = []

    def iteration(seed, region, part):
        seen.append(part)
        with region():
            pass
        return workloads.Outcome(output=f"part {part}", ev_err_max=10.0 ** -part,
                                 attempted=1)

    verdict = run.Verdict()
    loop = run.Loop(workloads.Workload(iteration, parts=3), 0, verdict)
    for i in range(7):
        loop.step(i % 3)
    assert seen == [0, 1, 2, 0, 1, 2, 0]
    assert not verdict.failures and verdict.attempted == 7
    assert loop.ev_err() == pytest.approx(0.1)   # geometric mean of 1, 0.1, 0.01
    loop.verdict.add(workloads.Outcome(output="other", ev_err_max=1.0, attempted=1), 1)
    assert verdict.failures == ["part 1: output bytes differ from the first iteration's"]


def test_sweep_parts_cover_the_seeds_instances():
    assert workloads.WORKLOADS["abstract-sweep"].parts * workloads.SWEEP_PART == (
        workloads.SWEEP_TRIALS)


def test_top_level_spans_and_unaccounted_add_up_to_the_traced_wall():
    spans = [
        Span(0, run.ROOT_SPAN, 0.0, 5.0, None, "r"),
        Span(1, "fem.assemble", 0.5, 2.0, 0, "r"),
        Span(2, "eigensolve.solve_smallest", 2.0, 4.5, 0, "r"),
        Span(3, "scipy.splu", 2.1, 2.6, 2, "r"),
    ]
    m = run.layer_metrics(spans, {})
    top = m["fem.assemble_s"] + m["eigensolve.solve_smallest_s"]
    assert math.isclose(top + m["analysis.unaccounted_s"], m["trace.wall_s"])
    assert m["scipy.splu_calls"] == 1 and m["scipy.splu_s"] == pytest.approx(0.5)


def test_instance_latency_pairs_make_and_verify():
    spans = [
        Span(0, run.ROOT_SPAN, 0.0, 1.0, None, "r"),
        Span(1, "abstract_framework.make_instance", 0.0, 0.1, 0, "r"),
        Span(2, "abstract_framework.verify_bounds", 0.1, 0.4, 0, "r"),
        Span(3, "abstract_framework.make_instance", 0.4, 0.5, 0, "r"),
        Span(4, "abstract_framework.verify_bounds", 0.5, 0.6, 0, "r"),
    ]
    assert run.instance_latencies_ms(spans) == pytest.approx([400.0, 200.0])
