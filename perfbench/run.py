"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds in fresh worker processes whose
BLAS/OpenMP pools are pinned to one thread, one worker at a time, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count the workload's correctness checks
over all repetitions.  With ``--trace 0`` two workers only time their
set-up and a third repeats the body until the time is up; the metrics
are the end-to-end metrics in reference seconds (see ``paced``):
medians over the repetitions, and over the three workers for set-up.
With ``--trace 1`` untraced and traced one-repetition workers
alternate; the metrics are the per-layer metrics of the traced ones
(medians) and the tracing overhead.  ``--workload all`` runs every workload in turn and prints a
table of all metrics with units, ``failed_frac`` included.

A machine line (CPU model, caches, core count, library versions, BLAS
thread counts) precedes the result.  Scratch files go to
``.perfbench_out/`` at the checkout root.  The exit status is 0 only
when every repetition ran; a missing ``src/imexbdf`` or a failed worker
gives status 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("threshold_scan", "manufactured_1d", "diffusion_2d", "stability_analysis")

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "imex_stepper.steps": "count",
    "imex_stepper.self_s": "s",
    "imex_stepper.step_us_p50": "us",
    "imex_stepper.step_us_tail": "us",
    "operators.shifted_solve_calls": "count",
    "operators.factorizations": "count",
    "operators.factor_s": "s",
    "operators.cached_solve_s": "s",
    "operators.assemble_calls": "count",
    "operators.assemble_builds": "count",
    "operators.assemble_hit_ratio": "ratio",
    "operators.assemble_s": "s",
    "operators.apply_calls": "count",
    "operators.apply_s": "s",
    "operators.evaluate_calls": "count",
    "operators.evaluate_s": "s",
    "operators.evaluations_per_step": "1/step",
    "convergence_harness.forcing_calls": "count",
    "convergence_harness.forcing_s": "s",
    "convergence_harness.post_s": "s",
    "norms.calls": "count",
    "norms.s": "s",
    "stability.a_alpha_angle_calls": "count",
    "stability.a_alpha_angle_s": "s",
    "stability.nr_boundary_calls": "count",
    "stability.nr_boundary_s": "s",
    "stability.nr_boundary_per_matrix": "1/matrix",
    "stability.sweep_s": "s",
    "bdf_coeffs.scheme_calls": "count",
    "bdf_coeffs.scheme_s": "s",
    "config.build_s": "s",
    "expressions.field_calls": "count",
    "expressions.field_s": "s",
    "reports.write_s": "s",
    "reports.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}

# Set-up samples of an untraced run, one per fresh worker
SETUP_SAMPLES = 3
# Cap on the repetitions of the body in an untraced run
MAX_REPS = 1000
# Seconds each kind of reference-slice work (worker.Pacer) takes at the
# reference pace: about its mean time on the machine the benchmark was
# built on
REFERENCE_PACE_S = {"loop": 0.35e-3, "vector": 0.45e-3, "eigh": 1.05e-3, "splu": 0.9e-3}
# No traced-run worker starts after this many seconds, and every worker
# is stopped this many seconds after the run started, so that the run
# ends inside its 180-second limit.
START_LIMIT_S = 120.0
WORKER_TIMEOUT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload, seed, size, trace, reps, index, started, deadline=math.inf) -> dict:
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{workload}-{os.getpid()}-{index}.json"
    spans_path = OUT / "spans" / f"{workload}-seed{seed}-rep{index}.npz"
    env = {**os.environ, **PINNED_ENV}
    timeout = max(1.0, WORKER_TIMEOUT_S - (time.perf_counter() - started))
    spawned_at = time.perf_counter()
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", str(trace), "--reps", str(reps), "--deadline", repr(deadline),
        "--spawned-at", repr(spawned_at), "--result", str(result_path),
    ]
    if trace:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} worker {index} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise WorkerFailed(f"{workload} worker {index} exited {proc.returncode}:\n{tail}")
    try:
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        result_path.unlink(missing_ok=True)


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    facts["caches"] = caches
    return facts


def paced(times, paces) -> float:
    """Median over repetitions of each time divided by the mean time of
    the reference slices measured with it, in reference seconds: the
    time the repetition would have taken at the pace at which the
    slices take their ``REFERENCE_PACE_S``.  ``paces`` holds each
    repetition's mean time per kind of slice work
    (``worker.Pacer.KINDS``)."""
    reference = math.fsum(REFERENCE_PACE_S.values())
    return reference * statistics.median(
        t / math.fsum(p[kind] for kind in REFERENCE_PACE_S) for t, p in zip(times, paces)
    )


def traced_repetitions(workload, seed, seconds, size, started):
    """Alternate untraced and traced one-repetition workers for about
    ``seconds``; at least one of each."""
    untraced, traced = [], []
    traced_next = False
    last_duration = {False: 0.0, True: 0.0}
    while True:
        kind = traced_next
        t = time.perf_counter()
        index = len(untraced) + len(traced)
        res = run_worker(workload, seed, size, int(kind), 1, index, started)
        last_duration[kind] = time.perf_counter() - t
        (traced if kind else untraced).append(res)
        traced_next = not kind
        elapsed = time.perf_counter() - started
        estimate = last_duration[traced_next] or last_duration[kind]
        if untraced and traced and elapsed + estimate > min(seconds, START_LIMIT_S):
            return untraced, traced


def measure(workload, seed, seconds, trace, size="full") -> tuple[dict, dict]:
    """Run one workload for about ``seconds``; return (result, info)."""
    started = time.perf_counter()
    setups, traced = [], []
    if trace:
        untraced, traced = traced_repetitions(workload, seed, seconds, size, started)
    else:
        # set-up alone in fresh workers, then one worker that repeats
        # the body until the run's time is up
        setups = [
            run_worker(workload, seed, size, 0, 0, index, started)
            for index in range(SETUP_SAMPLES - 1)
        ]
        untraced = [
            run_worker(workload, seed, size, 0, MAX_REPS, SETUP_SAMPLES - 1, started,
                       started + seconds)
        ]

    everything = untraced + traced
    checks = [ok for res in everything for _, ok in res["checks"]]
    failures = [name for res in everything for name, ok in res["checks"] if not ok]
    attempted, failed = len(checks), checks.count(False)
    bodies = [t for res in untraced for t in res["bodies"]]
    paces = [p for res in untraced for p in res["paces"]]
    if trace:
        layers = [res["layers"] for res in traced]
        metrics = {
            name: layers[0][name] if name in COUNT_METRICS
            else statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        # counts repeat exactly between repetitions of one seed
        for other in layers[1:]:
            attempted += 1
            if any(other[name] != layers[0][name] for name in COUNT_METRICS):
                failed += 1
                failures.append("layer counts differ between traced repetitions")
        # untraced bodies have their reference slices taken out; traced
        # ones have none
        wall_traced = statistics.median(res["bodies"][0] for res in traced)
        metrics["trace.overhead_frac"] = wall_traced / statistics.median(bodies) - 1.0
        units = LAYER_UNITS
    else:
        (body,) = untraced
        wall_s = paced(body["bodies"], body["paces"])
        metrics = {
            # each worker's set-up at the pace of its first slices
            "setup_s": statistics.median(
                paced([res["setup_s"]], res["paces"][:1]) for res in setups + untraced
            ),
            "wall_s": wall_s,
            "cpu_s": paced(body["cpus"], body["pace_cpus"]),
            "steps_per_s": body["steps"] / wall_s,
            "peak_rss_mb": body["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "workers": len(setups) + len(everything),
        "untraced_reps": len(bodies),
        "traced_reps": len(traced),
        "steps": untraced[0]["steps"],
        "reps": {
            "setup_s": [round(res["setup_s"], 6) for res in setups + untraced],
            "body_s": [round(t, 6) for t in bodies],
            "pace_ms": [{k: round(t * 1e3, 6) for k, t in p.items()} for p in paces],
        },
        "failed_checks": failures,
        "blas_threads": untraced[0]["blas_threads"],
        "versions": untraced[0]["versions"],
    }
    return result, info


def print_table(results: dict) -> None:
    for workload, result in results.items():
        frac = result["failed"] / result["attempted"]
        print(f"{workload}: failed_frac {frac:.4g} ({result['failed']}/{result['attempted']} checks)")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="imexbdf benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "imexbdf" / "__init__.py").is_file():
        print(f"error: no imexbdf sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results, infos = {}, []
    try:
        for name in names:
            results[name], info = measure(name, args.seed, args.seconds, args.trace, args.size)
            infos.append(info)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts = machine_facts()
    facts.update(versions=infos[0]["versions"], blas_threads=infos[0]["blas_threads"])
    print("machine: " + json.dumps(facts, sort_keys=True))
    for info in infos:
        print("run: " + json.dumps(info, sort_keys=True))
    if args.workload == "all":
        print_table(results)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
