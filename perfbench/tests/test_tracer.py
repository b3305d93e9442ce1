"""Tests for the benchmark's tracer, clock marks, op statistics and plans.

Run from the repository root:  python -m pytest -q perfbench/tests
"""
import contextlib
import importlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import run
import worker
import workloads
from tracer import PER_LAYER, Tracer

import cplattice
from cplattice import cli, lattice_sum

MODULES = ("cli", "lattice_sum", "kernels", "euler_maclaurin", "specfun", "asymptotics")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _namespace():
    return {name: dict(vars(importlib.import_module(f"cplattice.{name}")))
            for name in MODULES}


def _tiny_sweep():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["sweep", "--orientation", "zx", "--a-tilde", "1.5", "--half-extent", "3",
                       "--z-min", "0.5", "--z-max", "1.0", "--points-per-decade", "8",
                       "--threads", "1"])
    assert rc == 0
    return out.getvalue()


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.restore()
    return tracer


def test_originals_restored_after_traced_run():
    before = _namespace()
    tracer = Tracer()
    tracer.install()
    try:
        assert lattice_sum.quad is not before["lattice_sum"]["quad"]
        assert cli.sum_lattice is not before["cli"]["sum_lattice"]
        _tiny_sweep()
    finally:
        tracer.restore()
    after = _namespace()
    for name in MODULES:
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"cplattice.{name}.{attr} not restored"


def test_marks_cut_parts_at_inner_calls_and_are_restored():
    before = _namespace()
    marks = worker.Marks()
    marks.install()
    try:
        assert lattice_sum.quad is not before["lattice_sum"]["quad"]
        start = marks.here()
        out = _tiny_sweep()
        end = marks.here()
    finally:
        marks.restore()
    after = _namespace()
    for name in MODULES:
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"cplattice.{name}.{attr} not restored"
    assert out == _tiny_sweep()  # marks leave outputs unchanged
    chunks = marks.chunks(start, end)
    assert len(chunks) == len(marks.t) + 1 > 1  # entry and exit of every marked call
    assert (chunks >= 0).all()
    assert chunks.sum() == pytest.approx(end[0] - start[0], rel=1e-9)


def test_median_chunks_merges_passes_chunk_by_chunk():
    passes = [[[np.array([1.0, 5.0]), np.array([2.0])]],
              [[np.array([3.0, 1.0]), np.array([4.0])]],
              [[np.array([2.0, 2.0]), np.array([9.0])]]]
    # per chunk: median(1, 3, 2) + median(5, 1, 2) = 4; median(2, 4, 9) = 4
    assert worker.median_chunks(passes) == [[4.0, 4.0]]
    cut_differently = passes[:2] + [[[np.array([2.0, 2.0, 0.0]), np.array([9.0])]]]
    assert worker.median_chunks(cut_differently) is None
    assert worker.median_chunks(passes[:2] + [None]) is None


def test_calibration_pieces_are_left_out_of_the_marked_clock():
    marks = worker.Marks(calibrate=True)
    marks.install()
    try:
        marks.reset()
        start = marks.here()  # the first reading of a pass runs a piece
        _tiny_sweep()
        end = marks.here()
    finally:
        marks.restore()
    assert len(marks.pieces) >= 1 and min(marks.pieces) > 0
    assert marks._paused >= sum(marks.pieces)
    assert marks.chunks(start, end).sum() == pytest.approx(end[0] - start[0], rel=1e-9)
    assert worker.median_piece([[1.0, 4.0, 9.0], [3.0, 2.0], [2.0, 6.0]]) == (2.0 + 4.0) / 2
    assert worker.median_piece([[], [1.0]]) is None


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def at(time, action, *args):
        clock.now = time
        action(*args)

    # a[0,10] > b[1,3], c[4,9] > a[5,6] (recursion), quad[7,8]
    at(0, t.enter, "a")
    at(1, t.enter, "b")
    at(3, t.exit)
    at(4, t.enter, "c")
    at(5, t.enter, "a")
    at(6, t.exit)
    at(7, t.enter, "quad")
    at(8, t.exit, 42, True)
    at(9, t.exit)
    at(10, t.exit)
    assert t.stats["a"] == [2, 10.0, 3.0 + 1.0, 0]   # busy counts the outer a once
    assert t.stats["b"] == [1, 2.0, 2.0, 0]
    assert t.stats["c"] == [1, 5.0, 5.0 - 1.0 - 1.0, 0]
    assert t.stats["quad"] == [1, 1.0, 1.0, 42]
    assert t.quad == {"c": [1, 42, 1.0, 1]}
    total_self = sum(v[2] for v in t.stats.values())
    assert total_self == pytest.approx(10.0)


def test_nested_quad_attributed_to_enclosing_span_once():
    clock = FakeClock()
    t = Tracer(clock=clock)
    for time, action, args in ((0, t.enter, ("edge",)), (1, t.enter, ("quad",)),
                               (2, t.enter, ("quad",)), (3, t.exit, (5,)),
                               (4, t.exit, (7,)), (6, t.exit, ())):
        clock.now = time
        action(*args)
    assert t.quad == {"edge": [2, 12, 3.0, 0]}   # busy: outer quad only


def test_tiny_run_counts_are_exact_and_repeat():
    M = 30
    b = cplattice.validate(cplattice.ModelParams(mu=0.5, rho=1e-6),
                           cplattice.LatticeSpec(a_tilde=0.05, half_extent=M),
                           cplattice.Geometry(z_tilde=0.4))
    m = _traced(lambda: lattice_sum.sum_lattice(b, "resonant", threads=1)).metrics()
    assert m["kernels.calls"] == M + 1
    assert m["kernels.terms"] == sum(nx + 1 for nx in range(M + 1))
    assert m["lattice_sum.sites"] == (2 * M + 1) ** 2
    assert m["lattice_sum.resonant.calls"] == 1

    first, second = (_traced(_tiny_sweep).dump() for _ in range(2))
    counts = {k: (v["calls"], v["count"]) for k, v in first["spans"].items()}
    assert counts == {k: (v["calls"], v["count"]) for k, v in second["spans"].items()}
    assert {k: (v["calls"], v["evals"], v["failures"]) for k, v in first["quad"].items()} == \
        {k: (v["calls"], v["evals"], v["failures"]) for k, v in second["quad"].items()}
    assert first["quad"]["lattice_sum.off_resonant"]["evals"] > 0
    off = first["spans"]["lattice_sum.off_resonant"]
    assert off["count"] == off["calls"] * (2 * 3 + 1) ** 2


def test_tracing_leaves_outputs_unchanged():
    plain = _tiny_sweep()
    traced = []
    _traced(lambda: traced.append(_tiny_sweep()))
    assert traced == [plain]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert set(Tracer().metrics()) | {"trace.overhead_frac"} == {m["name"] for m in spec["per_layer"]}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_best_of_passes_merges_parts_and_fails_divergent_groups():
    one = {"groups": [{"parts_s": [[1.0, 5.0], [2.0, 2.0]], "values": {"x": 1.0}},
                      {"parts_s": [[3.0]], "lines": ["h", "1"], "rc": 0, "error": None},
                      {"error": "QuadratureFailure: no convergence"}]}
    two = {"groups": [{"parts_s": [[2.0, 4.0], [1.0, 3.0]], "values": {"x": 1.0}},
                      {"parts_s": [[2.0]], "lines": ["h", "2"], "rc": 0, "error": None},
                      {"error": "QuadratureFailure: no convergence"}]}
    merged = run.best_of_passes([one, two])
    assert merged[0] == {"op_s": [1.0 + 4.0, 1.0 + 2.0], "values": {"x": 1.0}}
    assert merged[1] == {"error": "pass 2: outputs differ from pass 1"}
    assert merged[2] == {"error": "QuadratureFailure: no convergence"}
    # the worker's chunk-wise parts take precedence where it has them
    merged = run.best_of_passes([one, two], [[[1.5, 4.5], [1.5, 2.5]], None, None])
    assert merged[0] == {"op_s": [1.5 + 4.5, 1.5 + 2.5], "values": {"x": 1.0}}
    assert merged[1] == {"error": "pass 2: outputs differ from pass 1"}


def test_pass_child_returns_result_and_reports_failure():
    assert worker.in_child(sum, [1, 2]) == 3
    with pytest.raises(RuntimeError):
        worker.in_child(int, "not a number")


def test_tail_is_highest_percentile_with_ten_beyond():
    s = run.op_stats([float(i) for i in range(1, 101)])
    assert (s["tail_s"], s["ops_beyond_tail"], s["tail_percentile"]) == (90.0, 10, 90.0)
    s = run.op_stats([3.0, 1.0, 2.0])
    assert (s["tail_s"], s["tail_percentile"], s["p50_s"]) == (3.0, 100.0, 2.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_are_seeded(workload):
    a = workloads.make_plan(workload, 5, 45)
    assert a == workloads.make_plan(workload, 5, 45)
    assert a != workloads.make_plan(workload, 6, 45)
    assert json.loads(json.dumps(a)) == a


def test_aborted_sweep_and_raised_op_count_as_failed():
    import check
    sweep = workloads.make_plan("sweep_dense", 0, 4)
    header_only = [{"lines": [",".join(check.SWEEP_HEADER)], "rc": 2, "error": None}]
    rows = sweep["groups"][0]["rows"]
    assert check.check(sweep, header_only)[:2] == (rows, rows)
    custom = workloads.make_plan("custom_orientation", 0, 4)
    raised = [{"error": "QuadratureFailure: oscillatory tail averaging did not converge"}]
    attempted, failed, report = check.check(custom, raised)
    assert (attempted, failed) == (1, 1)
    assert "QuadratureFailure" in report["problems"][0]
