"""The four benchmark workloads: inputs from a seed, a timed body, and
the correctness checks run on its outputs.

Each workload is a closed loop with one caller: the body issues its
calls one after another, each when the previous one returns.  Inputs
depend only on the seed and the size ("full" for the benchmark,
"tiny" for smoke tests).  README.md in this directory says why each
workload was chosen.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SIZES = ("full", "tiny")


def import_package():
    """Import imexbdf from this checkout's ``src`` and nowhere else."""
    if not (SRC / "imexbdf" / "__init__.py").is_file():
        raise RuntimeError(f"no imexbdf sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import imexbdf
    import imexbdf.cli

    found = Path(imexbdf.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise RuntimeError(f"imexbdf imported from {found}, not from {SRC}")
    return imexbdf


class Workload:
    """One workload.  ``setup`` builds the inputs (untimed), ``body``
    runs the timed calls, ``checks`` returns (name, passed) pairs."""

    name = ""
    # True when the body marches the IMEX stepper; steps are counted
    stepper = True

    def __init__(self, seed: int, size: str, workdir: Path):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.seed = int(seed)
        self.size = size
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def body(self, mark) -> None:
        raise NotImplementedError

    def checks(self) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def inputs(self):
        """Everything the program receives, for determinism checks."""
        raise NotImplementedError

    # Rotated matrices the body checks: the base of the per-matrix
    # layer ratio, and the unit of work counted in place of steps by a
    # workload that marches none.
    matrices = 0


class ThresholdScan(Workload):
    """``imexbdf threshold --k 5`` at 0.92 and 1.08 times tan(alpha_5)."""

    name = "threshold_scan"
    K = 5

    def setup(self):
        from imexbdf import a_alpha_angle, bdf_scheme

        if self.size == "full":
            nodes, steps, multipliers = 48, 2000, (0.92, 1.08)
        else:
            # 1.08 needs about 2000 steps to grow past the blow-up guard
            nodes, steps, multipliers = 16, 300, (0.92, 1.5)
        tan_alpha = math.tan(math.radians(a_alpha_angle(bdf_scheme(self.K))))
        self.ratios = [m * tan_alpha for m in multipliers]
        self.base = self.workdir / f"threshold_k{self.K}"
        self.argv = [
            "threshold", "--k", str(self.K),
            "--ratios", ",".join(repr(r) for r in self.ratios),
            "--nodes", str(nodes), "--steps", str(steps),
            "--seed", str(self.seed), "--out", str(self.base),
        ]

    def body(self, mark):
        from imexbdf import cli

        mark("threshold")
        self.code = cli.main(self.argv)

    def checks(self):
        out = [("threshold exit code 0", self.code == 0)]
        if self.code != 0:
            return out
        with open(f"{self.base}.json") as fh:
            rows = json.load(fh)["rows"]
        lower, upper = rows
        out.append(("lower ratio bounded at every step size", lower["unstable_count"] == 0))
        out.append(("upper ratio blows up at some step size", upper["unstable_count"] >= 1))
        return out

    def inputs(self):
        return self.argv[:-1]  # the output path is not an input


CONVERGE_CONFIG = """\
[problem]
example = 1
points = {points}
a = 1 + 0.5*sin(x)*cos(t)
b = 0.3*(1 + 0.5*sin(x)*cos(t))
exact = exp(-t)*sin(pi*x)
exact_dt = -exp(-t)*sin(pi*x)

[scheme]
k = 1

[time]
tau0 = 0.1
levels = {levels}

[output]
norms = linf,l2,w1inf
seed = {seed}
"""


class Manufactured1d(Workload):
    """``imexbdf converge`` for k = 1..4 on the README's example-1 config."""

    name = "manufactured_1d"
    KS = (1, 2, 3, 4)

    def setup(self):
        points, levels = (512, 5) if self.size == "full" else (64, 4)
        self.config_text = CONVERGE_CONFIG.format(
            points=points, levels=levels, seed=self.seed
        )
        self.config_path = self.workdir / "example1.ini"
        self.config_path.write_text(self.config_text)
        self.norms = ("linf", "l2", "w1inf")

    def _base(self, k):
        return self.workdir / f"converge_k{k}"

    def body(self, mark):
        from imexbdf import cli

        self.codes = {}
        for k in self.KS:
            mark(f"converge-k{k}")
            self.codes[k] = cli.main(
                ["converge", "--config", str(self.config_path), "--k", str(k),
                 "--out", str(self._base(k))]
            )

    def checks(self):
        out = []
        for k in self.KS:
            out.append((f"converge k={k} exit code 0", self.codes[k] == 0))
            if self.codes[k] != 0:
                continue
            with open(f"{self._base(k)}.json") as fh:
                fits = json.load(fh)["fits"]
            for norm in self.norms:
                slope = fits[norm]["slope"] if norm in fits else -math.inf
                out.append((f"k={k} {norm} order {slope:.3f} >= {k - 0.1}", slope >= k - 0.1))
        return out

    def inputs(self):
        return self.config_text


# Final max-norm error of diffusion_2d at this benchmark's first commit.
# Perturbing the starting values by 1e-15 (relative) moves the full-size
# error by 2e-12 (relative), far inside REL_TOL; a wrong solve (wrong
# shift, stale operator, lost forcing term) moves it by orders of
# magnitude.
DIFFUSION_REFERENCE_ERROR = {"full": 5.263681945223458e-07, "tiny": 5.380700915554213e-07}
DIFFUSION_REL_TOL = 1e-6


class Diffusion2d(Workload):
    """``ManufacturedProblem.solve`` on example 1, 128 x 128 Dirichlet grid."""

    name = "diffusion_2d"
    K = 3
    TAU = 0.01

    def setup(self):
        import numpy as np

        from imexbdf import ManufacturedProblem, assemble_example1, bdf_scheme, dirichlet_grid

        n, self.steps = (128, 40) if self.size == "full" else (16, 10)
        grid = dirichlet_grid([(0.0, 1.0), (0.0, 1.0)], (n, n))

        def a(x, y, t):
            return 1.0 + 0.5 * np.sin(x) * np.sin(y) * np.cos(t)

        def b(x, y, t):
            return 0.3 * (1.0 + 0.5 * np.sin(x) * np.sin(y) * np.cos(t))

        op, term = assemble_example1(grid, a, b)
        X, Y = grid.meshes()
        profile = (np.sin(np.pi * X) * np.sin(np.pi * Y)).astype(complex)
        self.exact = lambda t: math.exp(-t) * profile
        self.problem = ManufacturedProblem(
            grid, op, term, self.exact, lambda t: -math.exp(-t) * profile
        )
        self.scheme = bdf_scheme(self.K)

    def body(self, mark):
        mark("solve")
        self.traj = self.problem.solve(self.scheme, self.TAU, self.steps)

    def final_error(self) -> float:
        import numpy as np

        err = self.traj.states[-1] - self.exact(self.traj.times[-1])
        return float(np.max(np.abs(err)))

    def checks(self):
        out = [("no blow-up", self.traj.blow_up is None)]
        if self.traj.blow_up is None:
            ref = DIFFUSION_REFERENCE_ERROR[self.size]
            err = self.final_error()
            out.append(
                (f"final max error {err!r} matches {ref!r}",
                 abs(err - ref) <= DIFFUSION_REL_TOL * ref)
            )
        return out

    def inputs(self):
        return (self.size, self.K, self.TAU, self.steps)


# Tabulated A(alpha) angles of the BDF schemes in degrees (Hairer and
# Wanner, Solving ODEs II, section V.2).
REFERENCE_ANGLES_DEG = {1: 90.0, 2: 90.0, 3: 86.03, 4: 73.35, 5: 51.84, 6: 17.84}
MATRIX_SIZES = {"full": (12, 24, 36, 50), "tiny": (2, 5)}
PHIS_DEG = (10, 30, 60, 80)


class StabilityAnalysis(Workload):
    """Angles, thresholds, root sweeps and numerical-range constants."""

    name = "stability_analysis"
    stepper = False

    def setup(self):
        import numpy as np

        from imexbdf import bdf_scheme

        self.schemes = {k: bdf_scheme(k) for k in range(1, 7)}
        rng = np.random.default_rng(self.seed)
        self.spd = []
        for n in MATRIX_SIZES[self.size]:
            g = rng.standard_normal((n, n))
            self.spd.append(g @ g.T + n * np.eye(n))
        self.rho = np.geomspace(1e-3, 1e3, 61)
        self.matrices = len(self.spd) * len(PHIS_DEG)

    def body(self, mark):
        import numpy as np

        from imexbdf import (
            a_alpha_angle,
            angle_of_analyticity_check,
            lambda_threshold,
            stability_constant,
            von_neumann_sweep,
        )

        mark("angles")
        self.angles = {k: a_alpha_angle(s) for k, s in self.schemes.items()}
        self.thresholds = {k: lambda_threshold(s) for k, s in self.schemes.items()}
        mark("sweeps")
        self.sweeps = {}
        for k in (3, 4, 5, 6):
            alpha = self.angles[k]
            below = von_neumann_sweep(self.schemes[k], math.radians(alpha - 1.0), self.rho)
            above = von_neumann_sweep(self.schemes[k], math.radians(alpha + 1.0), self.rho)
            self.sweeps[k] = (below.all_stable, above.all_stable)
        mark("matrices")
        self.constants = []
        for spd in self.spd:
            for phi_deg in PHIS_DEG:
                rotated = np.exp(1j * math.radians(phi_deg)) * spd
                lam = stability_constant(rotated)
                holds, measured = angle_of_analyticity_check(rotated, lam)
                self.constants.append((phi_deg, lam, holds, measured))

    def checks(self):
        out = []
        for k, ref in REFERENCE_ANGLES_DEG.items():
            dev = abs(self.angles[k] - ref)
            out.append((f"k={k} angle within 0.01 deg (dev {dev:.2e})", dev <= 0.01))
        for k, (below, above) in self.sweeps.items():
            out.append((f"k={k} sweep stable at alpha-1deg", below))
            out.append((f"k={k} sweep unstable at alpha+1deg", not above))
        for j, (phi_deg, lam, holds, measured) in enumerate(self.constants):
            lam_dev = abs(lam - 1.0 / math.cos(math.radians(phi_deg)))
            bound = math.degrees(math.asin(min(1.0, 1.0 / lam)))
            out.append((f"matrix {j} constant dev {lam_dev:.2e} <= 1e-6", lam_dev <= 1e-6))
            out.append(
                (f"matrix {j} angle dev <= 1e-4 and bound holds",
                 holds and abs(measured - bound) <= 1e-4)
            )
        return out

    def inputs(self):
        return [m.tolist() for m in self.spd]


WORKLOADS = {
    cls.name: cls for cls in (ThresholdScan, Manufactured1d, Diffusion2d, StabilityAnalysis)
}


def make(name: str, seed: int, size: str = "full", workdir: os.PathLike | None = None):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workdir = Path(workdir) if workdir is not None else ROOT / ".perfbench_out" / "work" / name
    return WORKLOADS[name](seed, size, workdir)
