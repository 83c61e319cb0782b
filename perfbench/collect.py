"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads all --seeds 1-10 --trace 0 \\
        [--seconds 15] [--out results.jsonl]

Each run is a separate ``run.py`` process, as the benchmark contract
runs it.  For every metric the summary gives the median over the runs,
the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median.  ``--out`` appends one JSON line
per run: workload, seed, trace flag and the run's result object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["info"] = [json.loads(line[5:]) for line in lines if line.startswith("run: ")]
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for name in names:
        results = []
        for seed in seeds:
            result = run_once(name, seed, args.seconds, args.trace)
            results.append(result)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed,
                                         "trace": args.trace, "result": result}) + "\n")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{name}: {len(results)} runs, {failed}/{attempted} checks failed")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            if len(values) < 2:
                continue
            s = summarise(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "OVER BOUND")
            print(f"  {metric:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} {flag}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
