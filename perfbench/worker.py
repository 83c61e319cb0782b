"""Repetitions of one workload in a fresh process.

run.py starts this script with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS
and MKL_NUM_THREADS set to 1 in its environment, so the BLAS pools
start single-threaded.  The worker checks the live pool sizes before
it measures anything and exits with status 3 if any is not 1.

It times set-up from ``--spawned-at`` (the parent's
``time.perf_counter()`` just before the spawn; on Linux that is
CLOCK_MONOTONIC, shared by all processes) to the first timed call.
Then it makes up to ``--reps`` repetitions, each a fresh (untimed)
set-up of the inputs, the timed body and the workload's correctness
checks; it starts no further repetition that would end, at the mean
pace of the ones before, past ``--deadline``.  ``--reps 0`` times the
set-up and stops.  Untraced, a ``Pacer`` times
reference slices every 0.1 s while the body runs; each repetition's
body time and CPU time exclude the slices, and the result keeps the
mean time of each kind of slice work per repetition.
``peak_rss_mb`` is the high-water mark after the first repetition.
One JSON result goes to ``--result``.  With ``--trace 1`` (one
repetition) the package is traced from before set-up to the end of
the body, and the spans are written to ``--spans`` after timing.

    python3 perfbench/worker.py --workload NAME --seed N --size full \\
        --trace 0 --reps R [--deadline D] --spawned-at T --result PATH \\
        [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import platform
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (package, library-name pattern, thread-count symbol) of the OpenBLAS
# builds bundled in the numpy and scipy wheels
BUNDLED_BLAS = (
    ("numpy", "libscipy_openblas64_*.so*", "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*", "scipy_openblas_get_num_threads"),
)


def blas_threads() -> dict[str, int]:
    """Live thread count of each bundled OpenBLAS, read through ctypes.

    numpy's library is required; scipy's is read when its wheel bundles
    one."""
    counts = {}
    for package, pattern, symbol in BUNDLED_BLAS:
        module = __import__(package)
        libdir = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
        libs = sorted(libdir.glob(pattern))
        if not libs:
            if package == "numpy":
                raise RuntimeError(f"no bundled OpenBLAS found under {libdir}")
            continue
        get_threads = getattr(ctypes.CDLL(str(libs[0])), symbol)
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        counts[package] = int(get_threads())
    return counts


# Seconds between reference slices while the body runs
PACE_EVERY_S = 0.1


class Pacer:
    """Samples the machine's speed while the body runs.

    On entry, and then every ``PACE_EVERY_S`` seconds from a SIGALRM
    handler (which the interpreter runs between bytecodes, so never
    inside a C call), it runs a reference slice: fixed work that
    touches no imexbdf code, one piece of each kind in ``KINDS`` -- an
    interpreted loop, vectorised numpy arithmetic, a batched Hermitian
    ``eigh`` and a sparse LU factorization and solve, the kinds of work
    the workloads spend their time in.  Each piece runs twice and only
    the second, warm run is timed, so the body's use of the caches does
    not leak into the slice times.  ``wall`` and ``cpu`` map each kind
    to its timed runs; ``spent_wall`` and ``spent_cpu`` hold all the
    time the slices took inside the body, to be taken out of its time.
    """

    KINDS = ("loop", "vector", "eigh", "splu")

    def __init__(self):
        import numpy as np
        import scipy.sparse as sparse
        from scipy.sparse.linalg import splu

        self.np = np
        self.splu = splu
        self.state = np.linspace(0.0, 1.0, 2048) + 0.5j
        n = 16
        line = sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        eye = sparse.identity(n)
        shifted = sparse.kron(eye, line) + sparse.kron(line, eye) + 2.0 * sparse.identity(n * n)
        self.laplacian = shifted.tocsc().astype(complex)
        g = np.random.default_rng(0).standard_normal((6, 24, 24)) * (1.0 + 0.5j)
        self.hermitian = g + np.conj(np.transpose(g, (0, 2, 1)))
        self.work = dict(zip(self.KINDS, (self._loop, self._vector, self._eigh, self._splu)))
        self.wall: dict[str, list[float]] = {kind: [] for kind in self.KINDS}
        self.cpu: dict[str, list[float]] = {kind: [] for kind in self.KINDS}
        self.spent_wall = self.spent_cpu = 0.0
        self._previous = None

    def _loop(self) -> None:
        acc = 0
        for i in range(4000):
            acc += i * i % 7

    def _vector(self) -> None:
        x = self.state
        for _ in range(4):
            x = 0.5 * x + 0.25 * self.np.sin(x)

    def _eigh(self) -> None:
        self.np.linalg.eigh(self.hermitian)

    def _splu(self) -> None:
        self.splu(self.laplacian).solve(self.state[: self.laplacian.shape[0]])

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        start_cpu = time.process_time()
        for kind, work in self.work.items():
            work()
            c0 = time.process_time()
            t0 = time.perf_counter()
            work()
            t1 = time.perf_counter()
            c1 = time.process_time()
            self.wall[kind].append(t1 - t0)
            self.cpu[kind].append(c1 - c0)
        self.spent_wall += time.perf_counter() - start
        self.spent_cpu += time.process_time() - start_cpu

    def means(self, times: dict[str, list[float]]) -> dict[str, float]:
        return {kind: math.fsum(v) / len(v) for kind, v in times.items()}

    def __enter__(self):
        # one slice before the body, outside its time, so that even a
        # body shorter than PACE_EVERY_S has a pace
        self._tick(None, None)
        self.spent_wall = self.spent_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S, PACE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def versions() -> dict[str, str]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=1,
                        help="most repetitions to make; 0 times set-up only")
    parser.add_argument("--deadline", type=float, default=math.inf,
                        help="start no repetition after the first that would end, "
                             "at the mean pace so far, past this time.perf_counter() value")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.reps < 0 or (args.trace and args.reps != 1):
        parser.error("--reps must be at least 0, and 1 with --trace 1")

    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    workloads.import_package()
    threads = blas_threads()
    if any(n != 1 for n in threads.values()):
        print(f"BLAS pools are not single-threaded: {threads}", file=sys.stderr)
        return 3

    workload = workloads.make(args.workload, args.seed, args.size)
    tracer = None
    bodies, cpus, paces, pace_cpus, steps, checks = [], [], [], [], [], []
    rep_started = time.perf_counter()
    for rep in range(max(args.reps, 1)):
        now = time.perf_counter()
        if rep > 0 and now + (now - rep_started) / rep > args.deadline:
            break
        counter = pacer = None
        with contextlib.ExitStack() as patches:  # unpatched in reverse order on exit
            if args.trace:
                tracer = patches.enter_context(tracing.Tracer())
                tracer.begin_run("setup")
            workload.setup()
            if workload.stepper:
                counter = patches.enter_context(tracing.StepCounter())
            mark = tracer.begin_run if tracer is not None else (lambda label: None)
            if not args.trace:
                pacer = patches.enter_context(Pacer())

            usage0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            if rep == 0:
                setup_s = t0 - args.spawned_at
            if args.reps == 0:
                paces.append(pacer.means(pacer.wall))  # the slice taken on entry
                break
            workload.body(mark)
            t1 = time.perf_counter()
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
            if rep == 0:
                peak_rss_mb = usage1.ru_maxrss / 1024.0

        cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
        if pacer is None:
            bodies.append(t1 - t0)
            cpus.append(cpu)
        else:
            bodies.append(t1 - t0 - pacer.spent_wall)
            cpus.append(cpu - pacer.spent_cpu)
            paces.append(pacer.means(pacer.wall))
            pace_cpus.append(pacer.means(pacer.cpu))
        steps.append(counter.steps if counter is not None else workload.matrices)
        checks += workload.checks()

    if any(n != steps[0] for n in steps[1:]):
        checks.append(("every repetition makes the same steps", False))
    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, workload.matrices)
        if workload.stepper:
            checks.append(
                ("traced steps equal trajectory steps", layers["imex_stepper.steps"] == steps[0])
            )
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)

    result = {
        "setup_s": setup_s,
        "bodies": bodies,
        "cpus": cpus,
        "paces": paces,
        "pace_cpus": pace_cpus,
        "steps": steps[0] if steps else None,
        "peak_rss_mb": peak_rss_mb if steps else None,
        "checks": [[name, bool(ok)] for name, ok in checks],
        "layers": layers,
        "blas_threads": threads,
        "versions": versions(),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
