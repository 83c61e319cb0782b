"""Golden CLI outputs: each case runs ``cli.main`` in a fresh directory and
compares every file it writes, byte for byte, with ``tests/golden/<case>/``.

The fixtures pin the CLI's deterministic outputs across refactors.  A
change that means to alter an output regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and states the change; it prints, for each file it writes, whether the
file changed and by how much its numbers moved.  The bytes are those of
this platform's numpy and LAPACK builds; another BLAS may round the last
digits differently.
"""

import math
import pathlib
import re
import tempfile

import pytest

from imexbdf import norms
from imexbdf.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# test_cli.py's manufactured 16-point config
MANUFACTURED = """\
[problem]
example = 1
points = 16
a = 1 + 0.5*sin(x)
b = 0.3 + 0.15*sin(x)
exact = exp(-t)*sin(pi*x)
exact_dt = -exp(-t)*sin(pi*x)

[scheme]
k = 2

[time]
tau = 0.05
steps = 20

[output]
norms = linf,l2
"""

# the same with a derivative norm: pins the gradient part of the error norms
MANUFACTURED_W1 = MANUFACTURED.replace("norms = linf,l2", "norms = linf,l2,w1inf")

# the same without an exact solution: solve bootstraps its starting values
BOOTSTRAPPED = "\n".join(
    line for line in MANUFACTURED.split("\n") if not line.startswith("exact")
)

# a 12 x 12 example-1 run with a time-dependent coefficient: its steps
# after the first refine on one sparse factor
MANUFACTURED_2D = """\
[problem]
example = 1
extent = 0, 1 ; 0, 1
points = 12, 12
a = 1 + 0.5*sin(x)*sin(y)*cos(t)
b = 0.3
exact = exp(-t)*sin(pi*x)*sin(pi*y)
exact_dt = -exp(-t)*sin(pi*x)*sin(pi*y)

[scheme]
k = 3

[time]
tau = 0.05
steps = 20

[output]
norms = linf,l2
"""

# a periodic example-1 run at k = 6 with constant-in-time coefficients:
# every step solves on one cached factor with the periodic corner
# correction, from the longest history window
PERIODIC_K6 = """\
[problem]
example = 1
boundary = periodic
extent = 0, 2
points = 16
a = 1 + 0.5*sin(pi*x)
b = 0.3
exact = exp(-t)*sin(pi*x)
exact_dt = -exp(-t)*sin(pi*x)

[scheme]
k = 6

[time]
tau = 0.05
steps = 20

[output]
norms = linf,l2
"""

# example 3 on the torus: the spectral half-Laplacian solve
SPECTRAL = """\
[problem]
example = 3
extent = 0, 6.283185307179586
points = 16
exact = exp(-t)*sin(x)
exact_dt = -exp(-t)*sin(x)

[scheme]
k = 4

[output]
norms = linf,l2
"""

# perfbench's manufactured_1d coefficients, which depend on t: every
# step solves on a new factor
TIME_DEPENDENT = """\
[problem]
example = 1
points = 16
a = 1 + 0.5*sin(x)*cos(t)
b = 0.3*(1 + 0.5*sin(x)*cos(t))
exact = exp(-t)*sin(pi*x)
exact_dt = -exp(-t)*sin(pi*x)

[scheme]
k = 3

[output]
norms = linf,l2,w1inf
"""

# example 2 at k = 4: pins the gradient-form explicit term and its
# derivative norm (the fitted orders are negative on this coarse ladder)
EXAMPLE2 = MANUFACTURED_W1.replace("example = 1", "example = 2").replace("k = 2", "k = 4")

# example 4 on the torus: the spectral biharmonic solve and the spectral
# Laplacian of f(u) on the explicit side
EXAMPLE4 = """\
[problem]
example = 4
extent = 0, 2*pi
points = 16
exact = exp(-t)*sin(x)
exact_dt = -exp(-t)*sin(x)

[scheme]
k = 4

[time]
tau = 0.05
steps = 20

[output]
norms = linf,l2
"""

# MANUFACTURED_2D with both coefficients time dependent: every node
# samples t-dependent 2-D fields, and w1inf pins the 2-D gradient norm
CONVERGE_2D = MANUFACTURED_2D.replace(
    "b = 0.3\n", "b = 0.3*(1 + 0.5*sin(x)*sin(y)*cos(t))\n"
).replace("k = 3\n\n[time]\ntau = 0.05\nsteps = 20\n", "k = 2\n").replace(
    "norms = linf,l2", "norms = linf,l2,w1inf"
)

# case -> (config text or None, argv, files written)
CASES = {
    "coeffs_json": (None, ["coeffs", "--k", "3", "--out", "coeffs.json"], ["coeffs.json"]),
    "coeffs_csv": (
        None,
        ["coeffs", "--k", "3", "--format", "csv", "--out", "coeffs.csv"],
        ["coeffs.csv"],
    ),
    "stability_json": (
        None,
        ["stability", "--k", "5", "--phi", "60", "--out", "stability.json"],
        ["stability.json"],
    ),
    "stability_csv": (
        None,
        ["stability", "--k", "5", "--phi", "60", "--format", "csv", "--out", "stability.csv"],
        ["stability.csv"],
    ),
    "solve": (
        MANUFACTURED,
        ["solve", "--config", "run.ini", "--k", "2", "--out", "traj.csv"],
        ["traj.csv", "traj_states.csv", "traj.json"],
    ),
    "solve_bootstrapped": (
        BOOTSTRAPPED,
        ["solve", "--config", "run.ini", "--k", "2", "--out", "traj.csv"],
        ["traj.csv", "traj_states.csv", "traj.json"],
    ),
    "solve_2d": (
        MANUFACTURED_2D,
        ["solve", "--config", "run.ini", "--out", "traj.csv"],
        ["traj.csv", "traj_states.csv", "traj.json"],
    ),
    "consistency": (
        MANUFACTURED,
        ["consistency", "--config", "run.ini", "--k", "2", "--out", "cons"],
        ["cons.csv", "cons.json"],
    ),
    "converge": (
        MANUFACTURED,
        ["converge", "--config", "run.ini", "--k", "2", "--tau0", "0.1", "--levels", "3",
         "--out", "conv"],
        ["conv.csv", "conv.json"],
    ),
    "converge_w1": (
        MANUFACTURED_W1,
        ["converge", "--config", "run.ini", "--k", "2", "--tau0", "0.1", "--levels", "3",
         "--out", "conv"],
        ["conv.csv", "conv.json"],
    ),
    "solve_periodic_k6": (
        PERIODIC_K6,
        ["solve", "--config", "run.ini", "--out", "traj.csv"],
        ["traj.csv", "traj_states.csv", "traj.json"],
    ),
    "converge_spectral": (
        SPECTRAL,
        ["converge", "--config", "run.ini", "--tau0", "0.1", "--levels", "3", "--out", "conv"],
        ["conv.csv", "conv.json"],
    ),
    "converge_time_dependent": (
        TIME_DEPENDENT,
        ["converge", "--config", "run.ini", "--tau0", "0.1", "--levels", "3", "--out", "conv"],
        ["conv.csv", "conv.json"],
    ),
    "converge_2d": (
        CONVERGE_2D,
        ["converge", "--config", "run.ini", "--k", "2", "--tau0", "0.1", "--levels", "3",
         "--out", "conv"],
        ["conv.csv", "conv.json"],
    ),
    "converge_example2": (
        EXAMPLE2,
        ["converge", "--config", "run.ini", "--tau0", "0.1", "--levels", "3", "--out", "conv"],
        ["conv.csv", "conv.json"],
    ),
    "converge_example4": (
        EXAMPLE4,
        ["converge", "--config", "run.ini", "--tau0", "0.1", "--levels", "3", "--out", "conv"],
        ["conv.csv", "conv.json"],
    ),
    "consistency_example4": (
        EXAMPLE4,
        ["consistency", "--config", "run.ini", "--out", "cons"],
        ["cons.csv", "cons.json"],
    ),
    "stability_k1": (
        None,
        ["stability", "--k", "1", "--out", "stability.json"],
        ["stability.json"],
    ),
    "threshold": (
        None,
        ["threshold", "--k", "3", "--nodes", "8", "--steps", "200", "--out", "thr"],
        ["thr.csv", "thr.json"],
    ),
}


def run_case(name, workdir, monkeypatch):
    """Run one case with ``workdir`` as cwd; return {file: bytes}."""
    config, argv, files = CASES[name]
    monkeypatch.chdir(workdir)
    if config is not None:
        (workdir / "run.ini").write_text(config)
    assert main(argv) == 0
    return {f: (workdir / f).read_bytes() for f in files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    for fname, data in run_case(name, tmp_path, monkeypatch).items():
        assert data == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} changed"


@pytest.mark.parametrize("name", ["solve", "solve_2d", "converge_w1"])
def test_norm_blocks_do_not_change_output(name, tmp_path, monkeypatch):
    # solve and converge take their norms and errors a block of states at
    # a time; blocks of 3 rows (one row on the 12 x 12 grid) give the same
    # bytes as the default blocks, which hold every state of these cases
    monkeypatch.setattr(norms, "_BLOCK_ELEMENTS", 3 * 16)
    for fname, data in run_case(name, tmp_path, monkeypatch).items():
        assert data == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} changed"


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _numbers(data: bytes) -> list[float]:
    return [float(x) for x in _NUMBER.findall(data)]


def largest_change(old: bytes, new: bytes) -> tuple[float, float]:
    """The largest absolute and relative change between the numbers of
    ``old`` and ``new``, paired in the order they appear; inf for both
    when their counts differ."""
    before, after = _numbers(old), _numbers(new)
    if len(before) != len(after):
        return math.inf, math.inf
    gaps = [(abs(b - a), abs(b - a) / abs(a) if a else math.inf)
            for a, b in zip(before, after) if a != b]
    return tuple(map(max, zip(*gaps))) if gaps else (0.0, 0.0)


def deviation(old: bytes, new: bytes) -> str:
    """How ``new`` differs from ``old``: the largest absolute and relative
    change of their numbers, paired in the order they appear."""
    if old == new:
        return "unchanged"
    before, after = len(_numbers(old)), len(_numbers(new))
    if before != after:
        return f"changed, {before} numbers became {after}"
    gap = largest_change(old, new)
    if gap == (0.0, 0.0):
        return "changed, numbers equal"
    return "changed, max abs {:.2g}, max rel {:.2g}".format(*gap)


def regenerate() -> None:
    """Rewrite every fixture from the current code, report each change,
    and end with one line: how many files changed and the largest
    absolute and relative deviation among them."""
    changed, worst = 0, (0.0, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        for name in CASES:
            with tempfile.TemporaryDirectory() as tmp:
                outputs = run_case(name, pathlib.Path(tmp), mp)
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for fname, data in outputs.items():
                path = GOLDEN / name / fname
                old = path.read_bytes() if path.exists() else None
                status = "new" if old is None else deviation(old, data)
                print(f"{name}/{fname}: {status}")
                if old != data:
                    changed += 1
                    gap = (0.0, 0.0) if old is None else largest_change(old, data)
                    worst = tuple(map(max, worst, gap))
                path.write_bytes(data)
    print("{} file(s) changed; largest deviation max abs {:.2g}, max rel {:.2g}".format(
        changed, *worst))


if __name__ == "__main__":
    regenerate()
