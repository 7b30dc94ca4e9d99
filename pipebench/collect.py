"""Repeat the benchmark over seeds and summarize it; optionally write a BENCH file.

    python3 pipebench/collect.py --seeds 1-10 --out pipebench/results/BENCH_<commit>.json

Runs ``run.py`` once per (workload, seed) with tracing off, one after the
other, plus one traced run per workload on the first seed. For every
end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance over the median) next to the bound in
BENCHMARK.json, and flags a spread above a third of its bound. With
``--against`` it also prints each median's change from an earlier BENCH file,
as a share of that file's median (positive = worse), against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, HELD_OUT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    """'1-10' or '3,5,8' -> list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_run" / f"{workload}_s{seed}_t{trace}.json").read_text())
    return {"result": result, "record": record}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--against", type=Path, default=None, help="earlier BENCH file to compare medians with")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    base = json.loads(args.against.read_text())["workloads"] if args.against else {}

    report = {
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    steady = True
    for w in workloads:
        runs = [run_once(w, s, spec["run_seconds"], 0) for s in seeds]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        e2e = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
            for name in bounds
        }
        entry = {
            "environment": runs[0]["record"]["environment"],
            "geometry": runs[0]["record"]["geometry"],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": e2e,
        }
        print(f"{w}: {attempted} passes over {len(seeds)} runs, {failed} failed")
        for name, s in e2e.items():
            ok = s["spread"] <= bounds[name] / 3
            steady &= ok
            print(f"  {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){'' if ok else '  <-- above bound/3'}")
            if w in base:
                ref = base[w]["end_to_end"][name]["median"]
                worse = (s["median"] - ref) / ref * (1 if lower[name] else -1) if ref else 0.0
                print(f"  {'':<14} vs {ref:<12.6g} worse by {worse:+.4f}"
                      f"{'  <-- beyond bound' if worse > bounds[name] else ''}")
        traced = run_once(w, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["per_layer_seed"] = seeds[0]
        report["workloads"][w] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    print("steady" if steady else "NOT steady: a spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
