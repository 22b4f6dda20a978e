"""retrivox benchmark runner.

    python3 perfbench/run.py --workload sr_pipeline --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout.  The library is imported from
./src and called in-process by one closed-loop client.  With --trace 0 the
last line of standard output is the end-to-end result; with --trace 1 the
workload runs once untraced and once with every public library function
wrapped in a span, and the last line carries the per-layer metrics.  A
manifest line precedes the result, and both are also written, with the spans
of a traced run, under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# one BLAS thread: the client is one process, and a single thread keeps the
# timings steady on a small shared machine
BLAS_THREADS = 1

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

E2E_UNITS = {
    "setup_s": "s",
    "train_retrieval_steps_per_s": "steps/s",
    "ingest_chunks_per_s": "chunks/s",
    "retrieve_window_p50_s": "s",
    "retrieve_window_p90_s": "s",
    "serve_scene_p50_s": "s",
    "serve_scene_p90_s": "s",
    "serve_windows_per_s": "windows/s",
    "peak_rss_mb": "MiB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_library():
    if not (ROOT / "src" / "retrivox" / "__init__.py").is_file():
        sys.exit(f"retrivox sources not found under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))


def _git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _source_sha256() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "retrivox").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(), "blas": blas_name, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(),
        "source_sha256": _source_sha256(), "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    # before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _import_library()
    import workloads as W
    import layers

    if args.workload not in W.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    cls, sizes_cls = W.WORKLOADS[args.workload]
    requests = W.request_count(args.seconds)
    # the traced run makes two passes and reports no percentiles or setup_s
    sizes = sizes_cls(requests=max(2, requests // 4), setups=1) if args.trace else sizes_cls(requests)
    workload = cls(args.seed, work, sizes)
    manifest = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                **_environment(args.seed)}
    try:
        if args.trace:
            result, outcome = layers.traced_run(workload, out_dir, args)
        else:
            outcome, _ = W.run_pass(workload)
            values = {"setup_s": statistics.median(outcome.setup_s), **outcome.metrics,
                      "peak_rss_mb": _peak_rss_mb()}
            manifest["setup_s_samples"] = outcome.setup_s
            missing = [m for m in E2E_UNITS if m not in values]
            if missing:
                outcome.fail(f"no samples for {missing}")
            result = {name: {"value": values[name], "unit": unit}
                      for name, unit in E2E_UNITS.items() if name in values}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    manifest.update(outcome.manifest)
    attempted = max(outcome.attempted, 1)
    manifest["error_rate"] = {"failed": outcome.failed, "attempted": attempted,
                              "share": outcome.failed / attempted}
    manifest["workload_metrics"] = outcome.extra
    manifest["checks"] = outcome.checks
    correct = outcome.failed == 0 and all(outcome.checks.values())
    line = {"correct": correct, "attempted": attempted, "failed": outcome.failed,
            "metrics": result}
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"manifest": manifest, "result": line},
                                                     indent=2, default=float))
    print(json.dumps({"manifest": manifest}, default=float))
    print(json.dumps(line, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
