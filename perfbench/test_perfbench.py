"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke runs use the tiny input size, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def package():
    return workloads.import_package()


def _bindings():
    """Identity snapshot of every module namespace and class dict of the
    package."""
    snap = {}
    for mod in tracing.package_modules():
        snap[mod.__name__] = dict(vars(mod))
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                snap[f"{mod.__name__}:{value.__qualname__}"] = dict(vars(value))
    return snap


def test_traced_run_restores_every_wrapped_attribute(package, tmp_path):
    import imexbdf.convergence_harness as harness
    import imexbdf.imex_stepper as stepper
    import imexbdf.operators as operators

    before = _bindings()
    original_run = stepper.run
    original_solve = operators.SparseDiffusionOperator.__dict__["shifted_solve"]
    tracer = tracing.Tracer()
    with tracer:
        # rebound in the defining module and in the importing one
        assert stepper.run is not original_run
        assert harness.run is stepper.run
        assert operators.SparseDiffusionOperator.__dict__["shifted_solve"] is not original_solve
        for name in ("diffusion_2d", "stability_analysis"):
            w = workloads.make(name, 5, "tiny", tmp_path / name)
            w.setup()
            w.body(tracer.begin_run)
            assert all(ok for _, ok in w.checks())
    after = _bindings()
    assert len(tracer.starts) > 0
    assert before.keys() == after.keys()
    for key, namespace in before.items():
        changed = [
            attr for attr, value in namespace.items() if after[key].get(attr) is not value
        ]
        assert not changed, f"{key}: {changed} not restored"
        assert after[key].keys() == namespace.keys(), key


def test_step_counter_restores_run(package):
    import imexbdf.imex_stepper as stepper

    original = stepper.run
    with tracing.StepCounter():
        assert stepper.run is not original
    assert stepper.run is original


def test_pacer_samples_and_restores_the_alarm():
    import signal
    import time

    import worker

    before = signal.getsignal(signal.SIGALRM)
    with worker.Pacer() as pacer:
        # one slice on entry, outside the body's time
        assert all(len(v) == 1 for v in pacer.wall.values())
        assert pacer.spent_wall == 0.0
        end = time.perf_counter() + 3.5 * worker.PACE_EVERY_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert set(pacer.wall) == set(pacer.cpu) == set(worker.Pacer.KINDS) == set(run.REFERENCE_PACE_S)
    assert all(len(v) >= 3 and min(v) > 0.0 for v in pacer.wall.values())
    # every piece ran twice; the time spent covers the timed runs
    timed = sum(sum(v[1:]) for v in pacer.wall.values())
    assert pacer.spent_wall > timed


def test_paced_scales_each_repetition_by_its_own_pace():
    ref = run.REFERENCE_PACE_S
    slow = {kind: 2.0 * t for kind, t in ref.items()}
    # a repetition on a machine twice as slow takes twice as long, and
    # so do its slices: both read the same in reference seconds
    assert run.paced([2.0, 4.0, 2.2], [ref, slow, ref]) == pytest.approx(2.0)
    assert run.paced([3.0], [slow]) == pytest.approx(1.5)


def test_self_times_on_synthetic_tree():
    # 0: root [0, 10]; 1: [1, 3] with grandchild 3: [1.5, 2.5];
    # 2: [2, 6] overlaps 1, so the children cover [1, 6] once;
    # 4: [9, 12] is clipped to the root's end
    starts = [0.0, 1.0, 2.0, 1.5, 9.0]
    ends = [10.0, 3.0, 6.0, 2.5, 12.0]
    parents = [-1, 0, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == pytest.approx([4.0, 1.0, 4.0, 1.0, 3.0])


def test_time_outside_subtracts_outermost_inner_spans():
    # study [0, 10] holds solve [1, 4] holding run [2, 3] and run [5, 8]
    # directly; a nested run [2.2, 2.5] inside the first run is not
    # subtracted twice
    names = ["study", "solve", "run"]
    name_ids = [0, 1, 2, 2, 2]
    starts = [0.0, 1.0, 2.0, 5.0, 2.2]
    ends = [10.0, 4.0, 3.0, 8.0, 2.5]
    parents = [-1, 0, 1, 0, 2]
    got = tracing.time_outside(starts, ends, parents, names, name_ids, "study", "run")
    assert got == pytest.approx(10.0 - 1.0 - 3.0)


@pytest.mark.parametrize(
    "n, expected", [(0, 50.0), (19, 50.0), (38, 50.0), (100, 90.0), (1000, 99.0),
                    (102_734, 99.99)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("size", workloads.SIZES)
def test_inputs_identical_for_one_seed(package, tmp_path, name, size):
    first = workloads.make(name, 17, size, tmp_path / "a")
    second = workloads.make(name, 17, size, tmp_path / "b")
    first.setup()
    second.setup()
    assert first.inputs() == second.inputs()


def test_seed_changes_random_inputs(package, tmp_path):
    first = workloads.make("stability_analysis", 1, "tiny", tmp_path)
    second = workloads.make("stability_analysis", 2, "tiny", tmp_path)
    first.setup()
    second.setup()
    assert first.inputs() != second.inputs()


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for name in list(end_to_end) + list(per_layer) + list(run.WORKLOAD_NAMES):
        assert NAME_RE.fullmatch(name), name
    assert set(tracing.COUNT_METRICS) <= set(per_layer)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_traced_smoke_run(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1",
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.LAYER_UNITS)


def test_tiny_untraced_smoke_run():
    proc = _bench("--workload", "diffusion_2d", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "threshold_scan", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_worker_refuses_multithreaded_blas(tmp_path):
    env = {"OPENBLAS_NUM_THREADS": "2", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "diffusion_2d",
         "--seed", "1", "--size", "tiny", "--spawned-at", "0",
         "--result", str(tmp_path / "r.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "not single-threaded" in proc.stderr
    assert not (tmp_path / "r.json").exists()
