"""Traced run and the per-layer metric table.

The traced run is separate from the timed runs: the workload runs once
untraced, for the reference wall time, and once with every public library
function wrapped in a span.  Per-layer metrics come from the traced pass;
end-to-end metrics never do.
"""

from __future__ import annotations

import time

import spans
from workloads import run_pass

# stages whose inclusive time is reported as pipeline.<stage>.total_s
STAGES = ("gen_data", "train_retrieval", "build_db", "cache_retrievals", "train_refine")

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "gflop": "GFLOP",
         "gbytes": "GB", "chunks": "count", "faces": "count", "points": "count",
         "distinct_share": "ratio", "entries": "count", "bytes_per_entry": "B",
         "overhead_share": "ratio", "unattributed_share": "ratio"}

# (span name, fields): fields read from the span aggregate or the counters.
# An entry point that mostly calls other traced functions has a small self
# time, so its total_s (inclusive) is reported beside it.
SPAN_METRICS = (
    ("tensor.conv3", ("calls", "self_s", "gflop", "gbytes")),
    ("tensor.transposed_conv3", ("calls", "self_s", "gflop", "gbytes")),
    ("tensor.dense", ("self_s",)),
    ("tensor.backward", ("self_s",)),
    ("tensor.adam_step", ("self_s",)),
    ("embed.encode_inputs", ("self_s", "total_s", "chunks")),
    ("embed.encode_targets", ("self_s", "total_s", "chunks")),
    ("embed.train_retrieval", ("total_s",)),
    ("retrievaldb.knn", ("calls", "self_s")),
    ("retrievaldb.assemble_approximations", ("self_s", "total_s")),
    ("retrievaldb.build_index", ("calls", "self_s")),
    ("retrievaldb.extend", ("self_s", "total_s", "chunks")),
    ("retrievaldb.save_db", ("self_s",)),
    ("retrievaldb.load_db", ("self_s",)),
    ("fusion.refine", ("calls", "self_s", "total_s")),
    ("fusion.reconstruct_scene", ("self_s", "total_s")),
    ("fusion.refine_batch", ("self_s",)),
    ("fusion.refinement_loss", ("self_s",)),
    ("fusion.train_refinement", ("total_s",)),
    ("geometry.marching_cubes", ("self_s", "total_s", "faces")),
    ("geometry.mesh_to_tdf", ("calls", "self_s")),
    ("geometry.voxelize_mesh", ("self_s",)),
    ("geometry.point_triangle_distances", ("self_s",)),
    ("metrics.evaluate_meshes", ("self_s", "total_s")),
    ("metrics.distance_query", ("calls", "points", "self_s")),
    ("pipeline.generate_scene", ("calls", "self_s")),
)


def metric_names() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    out = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            out[f"{span}.{f}"] = UNITS[f]
    out["metrics.distance_query.distinct_share"] = "ratio"
    for f in ("entries", "distinct_share", "bytes_per_entry"):
        out[f"retrievaldb.{f}"] = UNITS[f]
    out["grids.self_s"] = "s"
    for stage in STAGES:
        out[f"pipeline.{stage}.total_s"] = "s"
    out["trace.overhead_share"] = "ratio"
    out["trace.unattributed_share"] = "ratio"
    return out


def layer_metrics(tracer, manifest: dict, start: float, end: float,
                  reference_s: float) -> dict[str, float]:
    agg = spans.aggregate(tracer.spans)
    values = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            values[f"{span}.{f}"] = (agg.get(span, {}).get(f, 0.0) if f in ("calls", "self_s", "total_s")
                                     else tracer.counts.get(f"{span}.{f}", 0.0))
    queries = values["metrics.distance_query.calls"]
    values["metrics.distance_query.distinct_share"] = len(tracer.point_sets) / queries if queries else 0.0
    values["retrievaldb.entries"] = manifest.get("db_entries", 0)
    values["retrievaldb.distinct_share"] = manifest.get("db_distinct_share", 0.0)
    values["retrievaldb.bytes_per_entry"] = manifest.get("db_bytes_per_entry", 0.0)
    values["grids.self_s"] = sum(v["self_s"] for k, v in agg.items() if k.startswith("grids."))
    for stage in STAGES:
        values[f"pipeline.{stage}.total_s"] = agg.get(f"pipeline.stage_{stage}", {}).get("total_s", 0.0)
    wall = end - start
    values["trace.overhead_share"] = wall / reference_s - 1.0
    # check-only work runs untraced, so it is neither covered nor unattributed
    values["trace.unattributed_share"] = (
        1.0 - spans.covered_time(tracer.spans, start, end) / (wall - tracer.paused_s))
    return values


def trace_pass(workload):
    """One set-up and measure pass with every public library function
    wrapped; returns the tracer, the outcome and the pass's start and end."""
    import retrivox

    tracer = spans.Tracer().install(retrivox)
    start = time.perf_counter()
    try:
        outcome, _ = run_pass(workload, tracer)
    finally:
        end = time.perf_counter()
        tracer.uninstall()
    return tracer, outcome, start, end


def traced_run(workload, out_dir, args):
    """Untraced reference pass, then the traced pass; returns the per-layer
    result and the traced pass's outcome."""
    workload.setup()  # first-call costs (lazy imports, allocator growth) land here
    _, reference_s = run_pass(workload)
    tracer, outcome, start, end = trace_pass(workload)
    values = layer_metrics(tracer, outcome.manifest, start, end, reference_s)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    result = {name: {"value": values[name], "unit": unit} for name, unit in metric_names().items()}
    return result, outcome
