"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import geonlf.encoding  # noqa: E402
import geonlf.field  # noqa: E402
import geonlf.spatial  # noqa: E402
import geonlf.trainer  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import TARGETS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "op0", ()),
        Span("a", 1.0, 3.0, 0, "op0", ()),
        Span("a.child", 1.5, 2.0, 1, "op0", ()),
        Span("b", 2.0, 5.0, 0, "op0", ()),    # overlaps a: [1, 5] covered once
        Span("c", 6.0, 7.0, 0, "op0", ()),
        Span("d", 9.5, 11.0, 0, "op0", ()),   # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.5, 1.5, 0.5, 3.0, 1.0, 1.5])


def test_layer_metrics_use_self_time_and_divide_by_runs():
    spans = [
        Span("field.render_rays", 0.0, 4.0, -1, "op1", (10, 640)),
        Span("encoding.encode_forward", 1.0, 3.0, 0, "op1", (640, 6400)),
        Span("field.render_rays", 10.0, 14.0, -1, "op3", (10, 640)),
        Span("encoding.encode_forward", 11.0, 13.0, 2, "op3", (640, 6400)),
        Span("icp.icp_pairwise", 20.0, 22.0, -1, "op3", ()),
        Span("spatial.KdTree.query_many", 20.5, 21.0, 4, "op3", (100,)),
        Span("spatial.KdTree.query_many", 21.0, 21.5, 4, "op3", (100,)),
        Span("scene.lidar_scan", 30.0, 31.0, -1, "setup0", ()),
    ]
    m = layer_metrics(spans, "op", runs=2)
    assert m["field.render_self_s"] == pytest.approx(2.0)
    assert m["field.render_calls"] == 1
    assert m["field.samples"] == 640
    assert m["encoding.fwd_s"] == pytest.approx(2.0)
    assert m["encoding.fwd_ns_per_point"] == pytest.approx(2.0 / 640 * 1e9)
    assert m["encoding.fwd_bytes_computed"] == 6400
    assert m["icp.pairs"] == 0.5
    assert m["icp.queries_per_pair"] == 2
    assert m["spatial.query_ns_per_point"] == pytest.approx(1.0 / 200 * 1e9)
    assert m["scene.scan_calls"] == 0
    assert layer_metrics(spans, "setup", runs=1)["scene.scan_s"] == pytest.approx(1.0)


def _bound_objects():
    """Every (holder, attribute) -> object the tracer may replace."""
    out = {}
    for modname, attr, _ in TARGETS:
        owner, _, leaf = attr.rpartition(".")
        module = importlib.import_module(modname)
        if owner:
            holder = getattr(module, owner)
            out[(holder, leaf)] = holder.__dict__[leaf]
        else:
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("geonlf") and hasattr(mod, leaf):
                    out[(mod, leaf)] = getattr(mod, leaf)
    return out


def test_wrappers_are_installed_and_removed():
    before = _bound_objects()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert geonlf.field.encode_forward is not before[(geonlf.field, "encode_forward")]
            assert geonlf.spatial.KdTree.query_many is not before[
                (geonlf.spatial.KdTree, "query_many")]
            geonlf.spatial.KdTree([[0.0, 0.0, 0.0]]).query_many([[1.0, 0.0, 0.0]])
            raise RuntimeError("leave the block early")
    assert [s.name for s in tracer.spans] == ["spatial.KdTree.__init__",
                                              "spatial.KdTree.query_many"]
    after = _bound_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert geonlf.trainer.render_rays is geonlf.field.render_rays


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name):
    workload = WORKLOADS[name](SIZES["tiny"])
    st = workload.setup(5)
    plain = workload.inspect(st, 0, workload.run(st, 0))
    tracer = Tracer()
    with tracer.installed():
        traced = workload.inspect(st, 0, workload.run(st, 0))
    assert tracer.spans
    assert plain.problems == traced.problems == []
    assert plain.digest == traced.digest


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_benchmark_metric(name, trace):
    workload = WORKLOADS[name](SIZES["tiny"])
    result = worker.measure(workload, seed=2, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workload.keys + 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert workload.rate_name in result["report"]


def test_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(worker.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
