"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q

The traced-run test trains the sr_pipeline model for its full step count
(served meshes must be non-empty for the evaluation spans to exist), so it
takes about a minute.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def _span(name, start, end, parent, request=0):
    return [name, start, end, parent, request]


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span("a", 0.0, 10.0, -1),       # 0: root
        _span("b", 1.0, 4.0, 0),         # 1: child of a
        _span("c", 2.0, 3.0, 1),         # 2: child of b
        _span("b", 5.0, 6.0, 0),         # 3: second b under a
        _span("a", 6.5, 7.5, 0),         # 4: a nested in a (recursion)
        _span("d", 12.0, 13.0, -1),      # 5: second root, gap before it
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 1 - 1, 3 - 1, 1, 1, 1, 1])
    agg = spans.aggregate(tree)
    assert agg["a"]["calls"] == 2
    assert agg["a"]["self_s"] == pytest.approx(5 + 1)
    assert agg["a"]["total_s"] == pytest.approx(10)      # the nested call is inside
    assert agg["b"] == pytest.approx({"calls": 2, "self_s": 3, "total_s": 4})
    assert spans.covered_time(tree, 0.0, 14.0) == pytest.approx(11)


def test_overlapping_children_are_not_subtracted_twice():
    tree = [_span("p", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0), _span("y", 3.0, 7.0, 0),
            _span("z", 9.0, 12.0, 0)]  # z runs past its parent's end
    assert spans.self_times(tree)[0] == pytest.approx(10 - 6 - 1)


def test_tracer_wraps_every_binding_and_restores_them():
    import retrivox
    from retrivox import fusion, geometry, grids, pipeline, retrievaldb

    originals = (geometry.marching_cubes, grids.windows, grids.write_grid)
    tracer = spans.Tracer().install(retrivox)
    try:
        assert fusion.marching_cubes is geometry.marching_cubes
        assert fusion.windows is grids.windows
        assert pipeline.write_grid is grids.write_grid
        assert retrivox.marching_cubes is geometry.marching_cubes
        assert all(getattr(f, "__traced__", False)
                   for f in (geometry.marching_cubes, grids.windows, pipeline.write_grid,
                             pipeline._STAGE_FNS["gen_data"], retrievaldb.knn,
                             retrievaldb.ChunkDatabase.build_index))
        with tracer.paused():                # check-only work leaves no span
            pipeline.named_rng(1, "check")
        assert tracer.spans == []
        pipeline.named_rng(1, "work")
        assert [span[0] for span in tracer.spans] == ["pipeline.named_rng"]
    finally:
        tracer.uninstall()
    assert (geometry.marching_cubes, grids.windows, grids.write_grid) == originals
    assert fusion.marching_cubes is originals[0]
    assert not hasattr(pipeline._STAGE_FNS["gen_data"], "__traced__")


def test_conv3_work_counts_follow_the_shapes():
    from retrivox import tensor as T
    x = T.Tensor(np.zeros((2, 3, 8, 8, 8), dtype=np.float32))
    w = T.Tensor(np.zeros((5, 3, 3, 3, 3), dtype=np.float32))
    out = T.conv3(x, w, stride=2, pad=1)                       # (2, 5, 4, 4, 4)
    work = spans._conv3_work((x, w), {}, out)
    assert work["gflop"] * 1e9 == pytest.approx(2 * 2 * 5 * 64 * 3 * 27)
    assert work["gbytes"] * 1e9 == pytest.approx(4 * (x.data.size + w.data.size + out.data.size))


# metrics whose span never occurs in a workload: the layer or the function
# does not run there, so the prediction for those pairings is no change
NOT_RUN = {
    "sr_pipeline": ("retrievaldb.extend.",),
    "retrieval_scale": ("fusion.", "metrics.", "tensor.transposed_conv3.",
                        "geometry.marching_cubes.", "geometry.voxelize_mesh.",
                        "pipeline.gen_data.", "pipeline.train_retrieval.", "pipeline.build_db.",
                        "pipeline.cache_retrievals.", "pipeline.train_refine."),
}
TINY = {
    "sr_pipeline": W.SrSizes(requests=3, setups=2, test_windows=2, eval_samples=500),
    "retrieval_scale": W.RsSizes(requests=20, setups=2, db_scenes=1, query_scenes=1,
                                 query_rotations=2, write_scenes=1),
}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tiny_traced_run_fills_every_per_layer_metric(name, tmp_path):
    cls, _ = W.WORKLOADS[name]
    workload = cls(seed=3, workdir=tmp_path, sizes=TINY[name])
    tracer, outcome, start, end = layers.trace_pass(workload)
    assert outcome.failed == 0, outcome.failures
    values = layers.layer_metrics(tracer, outcome.manifest, start, end, end - start)
    agg = spans.aggregate(tracer.spans)
    assert set(values) == set(layers.metric_names())
    for metric in layers.metric_names():
        skipped = metric.startswith(NOT_RUN[name])
        if metric.startswith("trace."):
            continue
        if metric == "grids.self_s":
            ran = any(k.startswith("grids.") for k in agg)
        elif metric.startswith("pipeline.") and metric.endswith(".total_s"):
            ran = f"pipeline.stage_{metric.split('.')[1]}" in agg
        elif metric.startswith("retrievaldb.") and metric.count(".") == 1:
            ran = values[metric] > 0
        else:
            span = metric.rsplit(".", 1)[0]
            if span == "metrics.distance_query" and metric.endswith("distinct_share"):
                ran = values[metric] > 0
            else:
                ran = agg.get(span, {}).get("calls", 0) > 0
        assert ran != skipped, f"{name}: {metric} {'ran' if ran else 'got no span'}"
        if skipped:
            assert values[metric] == 0, metric
    assert 0.0 <= values["trace.unattributed_share"] < 1.0
    requests = {span[4] for span in tracer.spans}
    assert len(requests) > 1
