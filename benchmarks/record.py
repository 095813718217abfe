"""Run bench.py over several seeds and write one results file.

    python3 benchmarks/record.py --out benchmarks/baseline.json \
        --workloads speech_1s,toy_corpus --seeds 1-10 --seconds 30

For each workload: one untraced run per seed (end-to-end metrics) and one
traced run on the first seed (per-layer metrics).  The file keeps every run's
metrics plus, per metric, the median, the quartiles and the quartile spread
as a share of the median (statistics.quantiles, n=4), the computed operation
counts, and the platform record the first run printed.  A change that claims
a speed-up records the parent and itself this way on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench.py")


def run_once(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, BENCH, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"record: {workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    for key in ("platform", "computed"):
        tag = f"# {key} "
        result[key] = next((json.loads(ln[len(tag):]) for ln in lines if ln.startswith(tag)), {})
    result["seed"] = seed
    return result


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        row = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "n": len(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        out[name] = row
    return out


def parse_seeds(text: str) -> list:
    lo, hi = (int(v) for v in text.split("-"))
    return list(range(lo, hi + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="speech_1s,toy_corpus")
    ap.add_argument("--seeds", default="1-10", help="inclusive range first-last")
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    report = {"seconds": float(args.seconds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        traced = run_once(workload, seeds[0], args.seconds, 1)
        report.setdefault("platform", runs[0]["platform"])
        report["workloads"][workload] = {
            "computed": runs[0]["computed"],
            "end_to_end": summarize(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": [{"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                     for r in runs],
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
