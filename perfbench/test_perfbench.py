"""Tests of the benchmark itself: tracer arithmetic, gates, span coverage.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import qdpsens as qs  # noqa: E402
import qdpsens.sensitivity  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Layer, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        (None, 0.0, 10.0),  # 0: root
        (0, 1.0, 4.0),      # 1: child
        (1, 2.0, 3.0),      # 2: grandchild
        (0, 5.0, 7.0),      # 3: child
        (0, 6.0, 8.0),      # 4: child overlapping 3
        (0, 9.0, 12.0),     # 5: child running past its parent, clipped at 10
        (None, 20.0, 21.0),  # 6: second root, no children
    ]
    expected = [10.0 - (3.0 + 3.0 + 1.0), 2.0, 1.0, 2.0, 2.0, 3.0, 1.0]
    assert self_times(spans) == pytest.approx(expected)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * run.TAIL_BEYOND) is None
    percentile, value = run.tail([float(k) for k in range(1, 41)])
    assert percentile == pytest.approx(75.0)
    assert value == 30.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_gates(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    wl = cls(7, str(tmp_path), **cls.TINY)
    wl.setup()
    reference = workloads.Reference(dense=cls.DENSE_REFERENCE)
    times, refs, failed = run.run_loop(wl, 0.05, reference=reference)
    assert len(times) >= 1
    assert len(refs) == len(times)
    assert failed == 0


def test_tracer_rebinds_imported_names_and_skips_missing_ones():
    original = qdpsens.sensitivity.reduced_hessian_gamma
    layers = [
        Layer("nullspace.reduced_hessian_gamma", "nullspace", "reduced_hessian_gamma"),
        Layer("nullspace.gone", "nullspace", "no_such_function"),
        Layer("gone.fn", "no_such_module", "fn"),
        Layer("estimator.gone", "estimator", "NoSuchClass.fit"),
    ]
    qdp = qs.random_sosc_qdp(3, N=6)
    l = qs.unit_direction(qdp.dims, 2, 1)
    with Tracer("qdpsens", layers) as tracer:
        assert qdpsens.sensitivity.reduced_hessian_gamma is not original
        qs.solve_sensitivity(qdp, l)  # untraced: no op is running
        tracer.op = 0
        qs.solve_sensitivity(qdp, l)
        tracer.op = None
    assert qdpsens.sensitivity.reduced_hessian_gamma is original
    assert tracer.missing == ["nullspace.gone", "gone.fn", "estimator.gone"]
    stats = tracer.medians([0])
    assert stats["nullspace.reduced_hessian_gamma.calls"] == 1
    assert stats["nullspace.reduced_hessian_gamma.self_s"] > 0.0
    assert stats["nullspace.gone.calls"] == 0
    assert stats["gone.fn.calls"] == 0


def test_traced_certify_op_is_covered_by_its_top_level_spans(tmp_path):
    wl = workloads.CertifyLong(5, str(tmp_path), N=40, nx=4, nd=2)
    wl.setup()
    stage = wl.draw()
    wl.gate(stage, wl.op(stage))  # warm the CLI path
    with Tracer("qdpsens", workloads.LAYERS) as tracer:
        tracer.op = 0
        start = time.perf_counter()
        result = wl.op(stage)
        wall = time.perf_counter() - start
        tracer.op = None
    wl.gate(stage, result)
    assert tracer.missing == []
    top_level = sum(end - start for op, _, parent, start, end in tracer.spans
                    if op == 0 and parent is None)
    assert 0.9 * wall <= top_level <= wall
    stats = tracer.medians([0])
    assert stats["nullspace.reduced_hessian_gamma.calls"] == 2
    assert stats["cli.sensitivity.calls"] == 1


def test_benchmark_json_lists_what_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = set()
    for layer in workloads.LAYERS:
        layer_names |= {f"{layer.metric}.calls", f"{layer.metric}.self_s"}
        if layer.counter:
            layer_names.add(f"{layer.metric}.{layer.counter}")
    layer_names |= {"trace.ops_per_s", "trace.untraced_ops_per_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {
        "op_rel_p50", "setup_s", "peak_rss_mb"}
