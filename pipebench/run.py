"""End-to-end and per-layer benchmark of the invdiff pipeline.

Run from the repository root:

    python3 pipebench/run.py --workload wide128_solve --seed 1 --seconds 38 --trace 0

Workloads (see ``scenes.py``): ``wide128_solve``, ``narrow192_sweep`` and
``synth_batch``. A run times set-up (the median of several cold set-ups, each
in a fresh interpreter), then repeats passes, each on new scenes drawn from
``--seed``, while the next pass is expected to end within ``--seconds`` of the
start of set-up, so a run takes about as long on a slow host as on a fast
one. Every pass is checked; a pass that raises, exits non-zero or fails a
check counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass over the same scenes and prints the per-layer metrics,
including the tracing overhead between the two. Every metric is printed by
name and unit, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The full record, with the
environment, geometry and (traced) spans, is written under ``.bench_run/``.

The program is imported from ``src/`` of the same checkout and is not changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017  # for confirming gain claims; not used while tuning

# (name, unit, better); the order is the order of BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("scenes_per_s", "1/s", "higher"),
    ("f1", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# single-threaded numerics: BLAS and OpenMP pools off, FFT at its 1-worker default
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(inv) -> dict:
    import numpy
    import scipy

    backend = getattr(inv, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "invdiff_backend": backend() if callable(backend) else None,
        "thread_env": {
            k: os.environ.get(k)
            for k in THREAD_VARS + ("INVDIFF_THREADS", "INVDIFF_BACKEND")
        },
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "invdiff" / "__init__.py").is_file():
        print(f"error: no invdiff sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("INVDIFF_THREADS", None)
    sys.path.insert(0, str(src))

    import invdiff
    import invdiff.cli  # noqa: F401  (the synth command is called through it)
    if Path(invdiff.__file__).resolve().parent != (src / "invdiff").resolve():
        print(f"error: imported invdiff from {invdiff.__file__}, not {src}", file=sys.stderr)
        return 2

    import scenes
    import spans

    work = scenes.WORKLOADS.get(args.workload)
    if work is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(scenes.WORKLOADS)}", file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    first_scene = work.scene_config(args.seed, 0)
    setup_times, import_times, geometry = scenes.measure_setup(first_scene, scenes.SETUP_REPS)
    ref_kernels = scenes.reference_kernels(invdiff, first_scene)
    workdir = RUN_DIR / f"{work.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    tracer = spans.Tracer()
    results = []
    try:
        start = time.perf_counter()
        index = 0
        while True:
            for traced in (False, True) if args.trace else (False,):
                results.append(
                    scenes.run_pass(invdiff, work, args.seed, index, traced, tracer, workdir, ref_kernels)
                )
            index += 1
            now = time.perf_counter()
            if now - t_run + (now - start) / index > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [r for r in results if r.ok and not r.traced]
    failed = sum(not r.ok for r in results)
    if not good:
        print(f"error: all {len(results)} passes failed", file=sys.stderr)
        return 1
    pipeline = [r.pipeline_s for r in good]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(pipeline),
        "scenes_per_s": work.batch * len(good) / sum(pipeline),
        "f1": statistics.median(r.f1 for r in good),
        "peak_rss_mb": peak_rss_mb,
    }
    # user-facing figures that cannot be bounded end-to-end metrics: solve_s
    # is absent from synth_batch, loc_rmse_px and failed_frac are often 0
    info = {
        "solve_s": (statistics.median(r.solve_s for r in good), "s"),
        "loc_rmse_px": (statistics.median(r.loc_rmse_px for r in good), "px"),
        "failed_frac": (failed / len(results), "ratio"),
        "import_s": (statistics.median(import_times), "s"),
    }
    if args.trace:
        traced = [r.pipeline_s for r in results if r.ok and r.traced]
        overhead = statistics.median(traced) / e2e["pipeline_s"] - 1.0 if traced else 0.0
        metrics = spans.layer_metrics(tracer.spans, results, geometry, overhead)
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = e2e
        units = {name: unit for name, unit, _ in END_TO_END}

    record = {
        "workload": work.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(invdiff),
        "geometry": geometry,
        "setup_reps_s": setup_times,
        "import_reps_s": import_times,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
        "passes": [vars(r) for r in results],
    }
    if args.trace:
        record["spans"] = [vars(s) for s in tracer.spans]
    RUN_DIR.mkdir(exist_ok=True)
    out = RUN_DIR / f"{work.name}_s{args.seed}_t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"workload {work.name} seed {args.seed} trace {args.trace}: "
          f"{len(results)} passes, {failed} failed; record {out.relative_to(ROOT)}")
    env = record["environment"]
    print(f"  {env['nproc']} cpus (affinity {env['cpu_affinity']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, numba importable {env['numba_importable']}, "
          f"commit {env['git_commit'][:12]}, threads {env['thread_env']}")
    print(f"  fft pad {geometry['fft_pad']} for image {geometry['shape']}, "
          f"{geometry['bins']} bins, {geometry['generations']} generations")
    for name, m in list(record["metrics"].items()) + list(record["info"].items()):
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
