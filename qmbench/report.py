"""Print every end-to-end and per-layer metric of every workload.

Run from the root of a source checkout:

    python3 qmbench/report.py --seed 1

Runs qmbench/run.py once untraced and once traced for every workload in
BENCHMARK.json, for its run_seconds. Prints each metric by name with its
unit next to the failure count, the p90 sample count and the input-repeat
rate, writes qmbench/out/report-seed<N>.json, and exits
1 if any op failed its check or any run did not complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    json.loads(proc.stdout.strip().splitlines()[-1])
    record = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    ok = True
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            results[workload] = [run_once(workload, args.seed, seconds, t)
                                 for t in (0, 1)]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{workload}: run did not complete: {exc}")
            ok = False
    if not results:
        return 1

    first = next(iter(results.values()))[0]["provenance"]
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in first.items()))
    for workload, (plain, traced) in results.items():
        detail = plain["detail"]
        print(f"\n{workload}: {plain['spec']['op']}")
        for record in (plain, traced):
            for name, m in record["metrics"].items():
                print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'failed_frac':<28} {plain['failed_frac']:>16.6g} "
              f"({plain['failed']}/{plain['attempted']} timed run, "
              f"{traced['failed']}/{traced['attempted']} traced run)")
        print(f"  p90 from {detail['p90_samples']} samples of {detail['timed_ops']} timed ops "
              f"({detail['samples_above_p90']} above); {detail['windows']} windows; "
              f"input repeat rate {plain['input_repeat_rate']:.3f}")
        for record in (plain, traced):
            for reason, count in record["failure_reasons"].items():
                print(f"  FAILED x{count}: {reason}")
        ok &= plain["failed"] == 0 and traced["failed"] == 0

    summary = {"seed": args.seed, "seconds": seconds, "provenance": first,
               "workloads": {w: {"end_to_end": p["metrics"], "per_layer": t["metrics"],
                                 "failed_frac": p["failed_frac"],
                                 "input_repeat_rate": p["input_repeat_rate"],
                                 "p90_samples": p["detail"]["p90_samples"],
                                 "spec": p["spec"]}
                             for w, (p, t) in results.items()}}
    path = OUT / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nall checks passed: {ok}; written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
