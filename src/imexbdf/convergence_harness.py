"""Manufactured solutions, consistency errors, and order experiments.

The harness closes the loop between the stepper and the theory-facing
checks:

* manufactured problems carry an exact solution and the forcing that
  makes it solve the discrete equations, so measured errors are pure
  time-discretization errors;
* consistency errors quantify the defect of the exact solution in the
  k-step recursion;
* convergence studies fit observed orders over a step-size ladder;
* the threshold experiment probes the stability boundary in the
  imaginary-to-real coefficient ratio.

Independent (tau, k, problem) runs share no mutable state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bdf_coeffs import BdfScheme
from .errors import DomainError, FitError, _check_tau
from .imex_stepper import _windows, make_starting_values, run
from .norms import LINF, NormKind, error_blocks, lp_time_norm, parse_norm_token, spatial_norms
from .operators import Grid, SpectralDiagonalOperator, _sine_symbol, dirichlet_grid
from .stability import a_alpha_angle


@dataclass
class ManufacturedProblem:
    """Exact solution plus the forcing that makes it exact.

    The forcing is built from the discrete operators themselves,
    F(t) = u'(t) + A(t)u(t) - B(t, u(t)) evaluated on the grid, so the
    exact solution satisfies the forced semidiscrete system to
    round-off and measured errors contain no spatial component.
    """

    grid: Grid
    operator: object
    nonlinear: object | None
    exact: object  # t -> grid state
    exact_dt: object  # t -> grid state

    def forcing(self, t: float) -> np.ndarray:
        u = np.asarray(self.exact(t), dtype=complex)
        out = np.asarray(self.exact_dt(t), dtype=complex) + self.operator.apply(t, u)
        if self.nonlinear is not None:
            out -= self.nonlinear.evaluate(t, u)
        return out

    @property
    def forcing_mode(self) -> str:
        # nonlinear problems treat the forcing like B (gamma-combined at
        # explicit points); linear problems apply it at t_n
        return "explicit" if self.nonlinear is not None else "implicit"

    def solve(self, scheme: BdfScheme, tau: float, N: int, **kwargs):
        starting = make_starting_values(self.exact, scheme, tau)
        return run(
            scheme,
            self.operator,
            self.nonlinear,
            starting,
            tau,
            N,
            forcing=self.forcing,
            forcing_mode=self.forcing_mode,
            **kwargs,
        )


@dataclass
class ConsistencyResult:
    """Per-step defect norms of the exact solution in the k-step
    recursion, n = k..N, and the floor eps (sum_i |delta_i| / tau) max |u|
    (one rounding of the difference quotient) below which they are noise."""

    scheme_k: int
    tau: float
    norms: list[float]
    max_norm: float
    roundoff_floor: float


def consistency_errors(
    problem: ManufacturedProblem,
    scheme: BdfScheme,
    tau: float,
    N: int,
    kind: NormKind = LINF,
) -> ConsistencyResult:
    """Defect d_n of the exact solution in the recursion, n = k..N.

    d_n is the defect of the recursion that adds the forcing F at t_n,

        (1/tau) sum_i delta_i u_{n-i} + A(t_n) u_n
            = sum_i gamma_i B(t_{n-i-1}, u_{n-i-1}) + F(t_n),

    which ``ManufacturedProblem.solve`` marches only when B is absent.
    With B it gamma-extrapolates F too, and the defect of that march
    adds F(t_n) - sum_i gamma_i F(t_{n-i-1}), which d_n leaves out.
    Since F = u' + Au - B, the operator contribution cancels
    algebraically, and the computation uses the cancelled form

        d_n = [ (1/tau) sum_i delta_i u(t_{n-i}) - u'(t_n) ]
            + [ B(t_n, u(t_n)) - sum_i gamma_i B(t_{n-i-1}, u(t_{n-i-1})) ]

    which avoids large-operator round-off at fine step sizes.  Both sums
    are ``run``'s newest-first history contractions, over all steps at once.
    """
    k = scheme.k
    if N < k:
        raise DomainError(f"N={N} must be at least k={k}")
    _check_tau(tau)
    grid = problem.grid
    u_star = np.array([problem.exact(n * tau) for n in range(N + 1)], dtype=complex)
    defects = (scheme.delta_f / tau) @ _windows(u_star, k + 1)
    exact_dt = [problem.exact_dt(n * tau) for n in range(k, N + 1)]
    defects -= np.array(exact_dt, dtype=complex).reshape(defects.shape)
    B = problem.nonlinear
    if B is not None:
        b_star = np.array([B.evaluate(n * tau, u) for n, u in enumerate(u_star)])
        defects += b_star[k:].reshape(defects.shape) - scheme.gamma_f @ _windows(b_star[:-1], k)
    norms_seq = spatial_norms(defects.reshape(-1, *grid.shape), kind, grid)
    floor = np.finfo(float).eps * np.abs(scheme.delta_f).sum() / tau * np.abs(u_star).max()
    return ConsistencyResult(
        scheme_k=k,
        tau=tau,
        norms=norms_seq,
        max_norm=max(norms_seq),
        roundoff_floor=float(floor),
    )


@dataclass(frozen=True)
class OrderFit:
    slope: float
    residual: float
    n_used: int


def fit_order(pairs) -> OrderFit:
    """Least-squares slope of log error against log step size.

    Nonpositive or non-finite errors are excluded with a warning; fewer
    than 3 usable pairs cannot anchor a slope.
    """
    usable = []
    for tau, err in pairs:
        if not (math.isfinite(err) and err > 0.0):
            warnings.warn(
                f"excluding unusable error {err!r} at tau={tau} from order fit",
                stacklevel=2,
            )
            continue
        usable.append((float(tau), float(err)))
    if len(usable) < 3:
        raise FitError(f"need at least 3 usable (tau, error) pairs, got {len(usable)}")
    log_tau = np.log([t for t, _ in usable])
    log_err = np.log([e for _, e in usable])
    (slope, intercept), res = np.polyfit(log_tau, log_err, 1, full=True)[:2]
    residual = math.sqrt(res[0] / len(usable)) if res.size else 0.0
    return OrderFit(slope=float(slope), residual=residual, n_used=len(usable))


@dataclass
class ConvergenceRow:
    tau: float
    stable: bool
    max_errors: dict[str, float]  # max-in-time spatial norm of e_n
    time_l2_errors: dict[str, float]  # discrete L^2-in-time of the same
    dq_time_l2: dict[str, float]  # L^2-in-time of difference quotients


@dataclass
class ConvergenceReport:
    k: int
    norm_labels: list[str]
    rows: list[ConvergenceRow] = field(default_factory=list)
    fits: dict[str, OrderFit] = field(default_factory=dict)
    passes: dict[str, bool] = field(default_factory=dict)
    unstable_taus: list[float] = field(default_factory=list)

    def pairs(self, label: str):
        return [(r.tau, r.max_errors[label]) for r in self.rows if r.stable]


FIT_POINTS = 4  # order fitted on the finest stable points


def _ladder(tau_list) -> list[float]:
    taus = [float(t) for t in tau_list]
    if sorted(taus, reverse=True) != taus or len(set(taus)) != len(taus):
        raise DomainError("tau ladder must be strictly decreasing")
    return taus


def _fit_orders(report: ConvergenceReport) -> ConvergenceReport:
    for lab in report.norm_labels:
        fit = fit_order(report.pairs(lab)[-FIT_POINTS:])
        report.fits[lab] = fit
        report.passes[lab] = fit.slope >= report.k - 0.1
    return report


def convergence_study(
    problem: ManufacturedProblem,
    scheme: BdfScheme,
    tau_list,
    final_time: float,
    norms=(LINF,),
) -> ConvergenceReport:
    """Errors against the exact solution over a ladder of step sizes.

    Each run starts from exact nodal values.  Per norm kind the report
    carries the max-in-time error, its discrete L^2-in-time variant and
    the L^2-in-time of the error difference quotients; orders are
    fitted on the max-in-time values at the finest stable steps.
    A blow-up marks that step size unstable and drops it from the fit.
    """
    taus = _ladder(tau_list)
    kinds = [parse_norm_token(n) if isinstance(n, str) else n for n in norms]
    labels = [k.label for k in kinds]
    report = ConvergenceReport(k=scheme.k, norm_labels=labels)
    for tau in taus:
        N = max(scheme.k, round(final_time / tau))
        traj = problem.solve(scheme, tau, N)
        if traj.blow_up is not None:
            report.rows.append(
                ConvergenceRow(
                    tau=tau,
                    stable=False,
                    max_errors={lab: math.inf for lab in labels},
                    time_l2_errors={lab: math.inf for lab in labels},
                    dq_time_l2={lab: math.inf for lab in labels},
                )
            )
            report.unstable_taus.append(tau)
            continue
        # error rows a block at a time; a block's difference quotients
        # start from the last error of the block before
        per_step, quotients = {lab: [] for lab in labels}, {lab: [] for lab in labels}
        last = np.empty((0, *problem.grid.shape))
        for _, errors in error_blocks(traj.states, traj.times, problem.exact, problem.grid):
            dq = np.diff(np.concatenate((last, errors)), axis=0) / tau
            last = errors[-1:]
            for kind, lab in zip(kinds, labels):
                per_step[lab] += spatial_norms(errors, kind, problem.grid)
                quotients[lab] += spatial_norms(dq, kind, problem.grid)
        report.rows.append(
            ConvergenceRow(
                tau=tau,
                stable=True,
                max_errors={lab: max(per_step[lab]) for lab in labels},
                time_l2_errors={lab: lp_time_norm(per_step[lab], tau, 2.0) for lab in labels},
                dq_time_l2={lab: lp_time_norm(quotients[lab], tau, 2.0) for lab in labels},
            )
        )
    return _fit_orders(report)


def scalar_convergence_study(
    scheme: BdfScheme, tau_list, final_time: float = 1.0, rate: float = 1.0
) -> ConvergenceReport:
    """Order study on the scalar decay problem u' = -rate*u, u(0) = 1,
    run in extended precision.

    At k = 5, 6 the temporal errors on reachable ladders sit below
    double-precision round-off of the recursion, so ``run`` marches
    one-node 50-digit states with 50-digit images of the exact
    coefficients (double images leave sum(delta) ~ 1e-16, which caps
    the k = 5, 6 slopes).  Errors are measured against the exact
    exponential before rounding to float.
    """
    import mpmath as mp  # only this study needs it; it is slow to import

    taus = _ladder(tau_list)
    k = scheme.k
    report = ConvergenceReport(k=k, norm_labels=["abs"])
    with mp.workdps(50):
        lam = mp.mpf(rate)
        decay = SpectralDiagonalOperator(None, np.array([lam]))  # the one node of u' = -rate*u
        exact_scheme = replace(
            scheme,
            delta_f=np.array([mp.mpf(c.numerator) / c.denominator for c in scheme.delta]),
            gamma_f=np.array([mp.mpf(c.numerator) / c.denominator for c in scheme.gamma]),
        )
        for tau in taus:
            N = max(k, round(final_time / tau))
            step = mp.mpf(tau)
            exact = [mp.e ** (-lam * step * n) for n in range(N + 1)]
            start = [[u] for u in exact[:k]]
            # no growth guard: rate < 0 grows by design, not by instability
            traj = run(exact_scheme, decay, None, start, tau, N, divergence_threshold=math.inf)
            errors = [abs(u - e) for u, e in zip(traj.states[:, 0], exact)]
            l2 = (step * mp.fsum(e**2 for e in errors)) ** mp.mpf("0.5")
            report.rows.append(
                ConvergenceRow(
                    tau=tau,
                    stable=True,
                    max_errors={"abs": float(max(errors))},
                    time_l2_errors={"abs": float(l2)},
                    dq_time_l2={"abs": math.nan},
                )
            )
    return _fit_orders(report)


@dataclass
class ThresholdRow:
    ratio: float
    tau_count: int
    unstable_count: int

    @property
    def bounded(self) -> bool:
        return self.unstable_count == 0


@dataclass
class ThresholdReport:
    k: int
    tan_alpha: float
    rows: list[ThresholdRow]

    @property
    def bracket(self) -> tuple[float | None, float | None]:
        """(largest all-bounded ratio, smallest ratio with blow-up)."""
        bounded = [r.ratio for r in self.rows if r.bounded]
        unstable = [r.ratio for r in self.rows if not r.bounded]
        return (max(bounded) if bounded else None, min(unstable) if unstable else None)


DEFAULT_RATIO_MULTIPLIERS = (0.85, 0.92, 1.08, 1.15)
THRESHOLD_NODES = 48
THRESHOLD_STEPS = 8000
DEFAULT_SEED = 20260821  # of the threshold starts and the random starts of CLI solve
# tau ladder targets: tau * (largest operator eigenvalue modulus) walks
# 0.3 .. 6 in 0.05-decade steps, dense enough that some step size lands
# inside any unstable-window of the root locus
_TARGET_LO, _TARGET_HI, _TARGET_DECADE_STEP = 0.3, 6.0, 0.05


def default_threshold_ratios(scheme: BdfScheme) -> list[float]:
    t = math.tan(math.radians(a_alpha_angle(scheme)))
    return [m * t for m in DEFAULT_RATIO_MULTIPLIERS]


def threshold_experiment(
    scheme: BdfScheme,
    ratio_list=None,
    n_nodes: int = THRESHOLD_NODES,
    n_steps: int = THRESHOLD_STEPS,
    seed: int = DEFAULT_SEED,
) -> ThresholdReport:
    """Bounded-versus-blow-up scan over imaginary-to-real coefficient
    ratios for the constant-coefficient diffusion problem.

    For each ratio r the operator is -div((1 + ir) grad .) on a 1-d
    Dirichlet grid; its eigenvalues (1 + ir) mu_j, with
    mu_j = (4/h^2) sin^2(j pi h / 2) those of the Dirichlet -Laplacian,
    all share the argument atan(r), so boundedness is governed by the
    sector position of that ray.  The orthonormal DST-I diagonalizes
    the operator exactly, so the march runs in that sine basis: each
    state is the vector of sine coefficients, and a step's solve is one
    division by sigma + (1 + ir) mu_j.  The random starts are iid
    complex Gaussian coefficients (as nodal values they would be too,
    the transform being orthonormal), and the blow-up guard reads the
    coefficients, whose 2-norm is the nodal one.  Step sizes sweep a
    log ladder so that tau times the largest eigenvalue modulus covers
    a fixed window; long random-start runs then flag blow-up per
    ratio.  Qualitative by design: the report brackets the critical
    ratio, it does not bisect it.
    """
    k = scheme.k
    if k < 3:
        raise DomainError(
            "threshold experiment needs k in 3..6 (k = 1, 2 have no finite threshold)"
        )
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    alpha_deg = a_alpha_angle(scheme)
    tan_alpha = math.tan(math.radians(alpha_deg))
    ratios = (
        [float(r) for r in ratio_list]
        if ratio_list is not None
        else default_threshold_ratios(scheme)
    )
    if not ratios:
        raise DomainError("ratio list is empty")
    if not all(0.0 < r < math.inf for r in ratios):  # NaN fails too
        raise DomainError(f"ratios must be positive and finite, got {ratios}")

    mu = _sine_symbol(dirichlet_grid((0.0, 1.0), n_nodes))
    n_targets = int(round(math.log10(_TARGET_HI / _TARGET_LO) / _TARGET_DECADE_STEP)) + 1
    targets = _TARGET_LO * 10.0 ** (_TARGET_DECADE_STEP * np.arange(n_targets))

    rows = []
    rng = np.random.default_rng(seed)
    for ratio in ratios:
        operator = SpectralDiagonalOperator(None, (1.0 + 1j * ratio) * mu)
        modulus_scale = mu[-1] * math.hypot(1.0, ratio)
        unstable = 0
        for target in targets:
            tau = float(target / modulus_scale)
            start = [
                rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
                for _ in range(k)
            ]
            traj = run(scheme, operator, None, start, tau, n_steps)
            if traj.blow_up is not None:
                unstable += 1
        rows.append(
            ThresholdRow(ratio=ratio, tau_count=len(targets), unstable_count=unstable)
        )
    return ThresholdReport(k=k, tan_alpha=tan_alpha, rows=rows)
