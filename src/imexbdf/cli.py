"""Command-line front end.

Subcommands::

    imexbdf coeffs      --k 3 [--format json|csv] [--out FILE]
    imexbdf stability   --k 4 [--phi 30] [--rho-min 0.01 --rho-max 100
                        --rho-count 61] [--format json|csv] [--out FILE]
    imexbdf solve       --config run.ini --k 2 --tau 0.01 --steps 100
                        --out traj.csv
    imexbdf consistency --config run.ini --k 3 --tau 0.01 --steps 50
    imexbdf converge    --config run.ini --k 3 --tau0 0.1 --levels 5
                        --norms linf,l2 [--assert-order]
    imexbdf threshold   --k 3 [--ratios 1.0,2.0] [--nodes 48]
                        [--steps 8000]

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure (divergence, failed solve, unusable report), 4 order check
failed under ``--assert-order``.

``solve`` writes the trajectory norms to the given CSV, the raw states
to a ``_states.csv`` sidecar (one row per recorded step, re/im pairs
per node) and a JSON summary next to them.  The harness subcommands
write ``BASE.csv`` and ``BASE.json`` where BASE is ``--out`` or the
config's output path.  JSON carries full precision; CSV rounds to 12
significant digits.  Runs are deterministic: identical config and seed
give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import reports
from .bdf_coeffs import MAX_STEP_NUMBER, bdf_scheme
from .config import BuiltProblem, RunConfig, build_problem, override, parse_config
from .convergence_harness import (
    consistency_errors,
    convergence_study,
    threshold_experiment,
)
from .errors import (
    CoercivityError,
    ComputationError,
    ConfigError,
    DomainError,
    FitError,
    ImexBdfError,
    ReportError,
    StepError,
)
from .imex_stepper import bootstrap_starting_values, run
from .norms import parse_norm_token, spatial_norms
from .stability import stability_report, von_neumann_sweep


class OrderCheckFailure(ImexBdfError):
    """Fitted order fell short under --assert-order."""


def _add_k(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--k",
        type=int,
        required=required,
        help=f"number of steps, 1..{MAX_STEP_NUMBER}",
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imexbdf",
        description="implicit-explicit multistep integration experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="scheme coefficients")
    _add_k(p, required=True)
    _add_format(p)

    p = sub.add_parser("stability", help="sector angle, threshold, root sweeps")
    _add_k(p, required=True)
    p.add_argument("--phi", type=float, help="sector rotation angle in degrees")
    p.add_argument("--rho-min", type=float, default=0.01)
    p.add_argument("--rho-max", type=float, default=100.0)
    p.add_argument("--rho-count", type=int, default=61)
    p.add_argument("--tau", type=float, default=1.0)
    _add_format(p)

    p = sub.add_parser("solve", help="integrate a configured problem")
    p.add_argument("--config", required=True, help="INI config file")
    _add_k(p, required=False)
    p.add_argument("--tau", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--out", required=True, help="trajectory CSV path")

    p = sub.add_parser("consistency", help="defect of the exact solution")
    p.add_argument("--config", required=True)
    _add_k(p, required=False)
    p.add_argument("--tau", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", help="output basename (default: config output path)")

    p = sub.add_parser("converge", help="order study over a step-size ladder")
    p.add_argument("--config", required=True)
    _add_k(p, required=False)
    p.add_argument("--tau0", type=float, help="coarsest step size")
    p.add_argument("--levels", type=int, help="halvings of tau0")
    p.add_argument("--norms", help="comma-separated norm tokens")
    p.add_argument(
        "--assert-order",
        action="store_true",
        help="exit 4 unless every fitted order reaches k - 0.1",
    )
    p.add_argument("--out", help="output basename (default: config output path)")

    p = sub.add_parser("threshold", help="stability-threshold ratio experiment")
    _add_k(p, required=True)
    p.add_argument("--ratios", help="comma-separated coefficient ratios b/a")
    p.add_argument("--nodes", type=int, default=48)
    p.add_argument("--steps", type=int, default=8000)
    p.add_argument("--seed", type=int, default=20260821)
    p.add_argument("--out", help="output basename (default: threshold_k<k>)")

    return parser


def _emit(args, payload: dict, rows) -> None:
    if args.format == "csv":
        header, data = rows
        text = reports.csv_text(header, data)
    else:
        text = reports.json_text(payload)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_coeffs(args) -> int:
    scheme = bdf_scheme(args.k)
    _emit(args, reports.scheme_payload(scheme), reports.scheme_rows(scheme))
    return 0


def _cmd_stability(args) -> int:
    scheme = bdf_scheme(args.k)
    report = stability_report(scheme)
    payload = {"stability": reports.stability_payload(report)}
    rows = reports.stability_rows(report)
    if args.phi is not None:
        if not args.rho_count >= 1:
            raise ConfigError(f"--rho-count must be >= 1, got {args.rho_count}")
        if not 0.0 < args.rho_min <= args.rho_max < math.inf:
            raise ConfigError(
                f"need 0 < --rho-min <= --rho-max < inf, got {args.rho_min}, {args.rho_max}"
            )
        rho_grid = np.geomspace(args.rho_min, args.rho_max, args.rho_count)
        sweep = von_neumann_sweep(
            scheme, math.radians(args.phi), rho_grid, tau=args.tau
        )
        payload["sweep"] = reports.sweep_payload(sweep)
        rows = reports.sweep_rows(sweep)
    _emit(args, payload, rows)
    return 0


def _load(args, **overrides) -> tuple[RunConfig, BuiltProblem]:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    cfg = override(parse_config(text), **overrides)
    try:
        # a coefficient that is inf or NaN on the grid is reported as a
        # config error below, not also as numpy's RuntimeWarning
        with np.errstate(divide="ignore", invalid="ignore"):
            return cfg, build_problem(cfg)
    except CoercivityError as exc:  # the config's coefficients are at fault
        raise ConfigError(str(exc)) from None


def _echo(cfg: RunConfig) -> dict:
    return {"config": cfg.as_dict(), "config_text": cfg.to_text()}


def _norm_kinds(cfg: RunConfig):
    kinds = [parse_norm_token(tok) for tok in cfg.norms.split(",")]
    return kinds, [kind.label for kind in kinds]


def _cmd_solve(args) -> int:
    cfg, built = _load(
        args, k=args.k, tau=args.tau, steps=args.steps, stride=args.stride
    )
    if cfg.tau is None:
        raise ConfigError("time.tau is required for solve (config or --tau)")
    if cfg.steps is None:
        raise ConfigError("time.steps is required for solve (config or --steps)")
    scheme = bdf_scheme(cfg.k)
    kinds, labels = _norm_kinds(cfg)

    if built.manufactured is not None:
        problem = built.manufactured
        traj = problem.solve(scheme, cfg.tau, cfg.steps)
    else:
        # no exact solution: start from seeded random data and bootstrap
        rng = np.random.default_rng(cfg.seed)
        shape = built.grid.shape
        u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        starting = bootstrap_starting_values(
            scheme, built.operator, built.nonlinear, u0, cfg.tau
        )
        traj = run(
            scheme, built.operator, built.nonlinear, starting, cfg.tau, cfg.steps
        )

    stem, ext = os.path.splitext(args.out)
    csv_path = args.out if ext else stem + ".csv"
    states_path = stem + "_states.csv"
    json_path = stem + ".json"

    recorded = range(0, len(traj.states), cfg.stride)
    states, times = traj.states[:: cfg.stride], traj.times[:: cfg.stride]
    header = ["n", "t"] + labels
    if built.exact is not None:
        header += [f"err_{lab}" for lab in labels]

    def norm_rows(states, times):
        """Per state: its norms, then (with an exact solution) its errors'."""
        stacks = [states]
        if built.exact is not None:
            stacks.append(states - np.array([built.exact(t) for t in times]))
        return zip(*[spatial_norms(v, kind, built.grid) for v in stacks for kind in kinds])

    main_rows = [[n, t, *r] for n, t, r in zip(recorded, times, norm_rows(states, times))]
    reports.write_csv(csv_path, header, main_rows)

    state_header = ["n", "t"] + [f"{p}{i}" for i in range(built.grid.size) for p in ("re", "im")]
    # the re/im pairs of each node, in order
    values = states.reshape(len(states), -1).view(float)
    state_rows = [[n, t, *row] for n, t, row in zip(recorded, times, values)]
    reports.write_csv(states_path, state_header, state_rows)

    (final,) = norm_rows(traj.states[-1:], traj.times[-1:])
    payload = {
        **_echo(cfg),
        "k": scheme.k,
        "tau": cfg.tau,
        "steps": cfg.steps,
        "recorded_steps": len(main_rows),
        "blow_up": traj.blow_up,
        "factorizations": built.operator.factorization_count,
        "final_time": traj.times[-1],
        "final_norms": dict(zip(labels, final)),
        "outputs": {"csv": csv_path, "states_csv": states_path, "json": json_path},
    }
    if built.exact is not None:
        payload["final_errors"] = dict(zip(labels, final[len(kinds) :]))
    reports.write_json(json_path, payload)

    if traj.blow_up is not None:
        print(
            f"solve diverged at step {traj.blow_up} "
            f"(t={traj.times[traj.blow_up]:.6g}); partial output in {csv_path}",
            file=sys.stderr,
        )
        return 3
    print(f"wrote {csv_path}, {states_path}, {json_path}")
    return 0


def _out_base(args, cfg: RunConfig) -> str:
    return args.out if args.out else cfg.path


def _cmd_consistency(args) -> int:
    cfg, built = _load(args, k=args.k, tau=args.tau, steps=args.steps)
    if cfg.tau is None:
        raise ConfigError("time.tau is required for consistency (config or --tau)")
    if cfg.steps is None:
        raise ConfigError("time.steps is required for consistency (config or --steps)")
    problem = built.require_manufactured()
    scheme = bdf_scheme(cfg.k)
    kinds, labels = _norm_kinds(cfg)
    result = consistency_errors(problem, scheme, cfg.tau, cfg.steps, kind=kinds[0])
    base = _out_base(args, cfg)
    header, rows = reports.consistency_rows(result)
    reports.write_csv(base + ".csv", header, rows)
    payload = {
        **_echo(cfg),
        "norm": labels[0],
        **reports.consistency_payload(result),
        "outputs": {"csv": base + ".csv", "json": base + ".json"},
    }
    reports.write_json(base + ".json", payload)
    print(
        f"k={cfg.k} tau={cfg.tau:g}: max defect norm "
        f"{result.max_norm:.6e}; wrote {base}.csv, {base}.json"
    )
    return 0


def _cmd_converge(args) -> int:
    cfg, built = _load(
        args, k=args.k, tau0=args.tau0, levels=args.levels, norms=args.norms
    )
    if cfg.tau0 is None:
        raise ConfigError("time.tau0 is required for converge (config or --tau0)")
    problem = built.require_manufactured()
    scheme = bdf_scheme(cfg.k)
    kinds, labels = _norm_kinds(cfg)
    final_time = cfg.final_time if cfg.final_time is not None else 1.0
    tau_list = [cfg.tau0 / 2**j for j in range(cfg.levels)]
    report = convergence_study(problem, scheme, tau_list, final_time, norms=kinds)
    base = _out_base(args, cfg)
    header, rows = reports.convergence_rows(report)
    reports.write_csv(base + ".csv", header, rows)
    payload = {
        **_echo(cfg),
        "final_time": final_time,
        **reports.convergence_payload(report),
        "outputs": {"csv": base + ".csv", "json": base + ".json"},
    }
    reports.write_json(base + ".json", payload)
    for lab in labels:
        fit = report.fits.get(lab)
        slope = f"{fit.slope:.3f}" if fit else "n/a"
        verdict = "ok" if report.passes.get(lab) else "FAIL"
        print(f"k={cfg.k} norm={lab}: fitted order {slope} ({verdict})")
    print(f"wrote {base}.csv, {base}.json")
    if args.assert_order and not all(report.passes.get(lab) for lab in labels):
        raise OrderCheckFailure(
            f"fitted orders below k - 0.1 = {scheme.k - 0.1:g} for: "
            + ", ".join(lab for lab in labels if not report.passes.get(lab))
        )
    return 0


def _cmd_threshold(args) -> int:
    scheme = bdf_scheme(args.k)
    ratios = None
    if args.ratios:
        try:
            ratios = [float(r) for r in args.ratios.split(",")]
        except ValueError:
            raise ConfigError(f"bad --ratios value {args.ratios!r}") from None
    report = threshold_experiment(
        scheme,
        ratio_list=ratios,
        n_nodes=args.nodes,
        n_steps=args.steps,
        seed=args.seed,
    )
    base = args.out or f"threshold_k{args.k}"
    header, rows = reports.threshold_rows(report)
    reports.write_csv(base + ".csv", header, rows)
    payload = {
        "seed": args.seed,
        "nodes": args.nodes,
        "steps": args.steps,
        **reports.threshold_payload(report),
        "outputs": {"csv": base + ".csv", "json": base + ".json"},
    }
    reports.write_json(base + ".json", payload)
    lo, hi = report.bracket
    print(
        f"k={args.k} tan(alpha)={report.tan_alpha:.6f}: "
        f"largest bounded ratio {lo}, smallest unstable {hi}; "
        f"wrote {base}.csv, {base}.json"
    )
    return 0


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "stability": _cmd_stability,
    "solve": _cmd_solve,
    "consistency": _cmd_consistency,
    "converge": _cmd_converge,
    "threshold": _cmd_threshold,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "k", None) is not None and not 1 <= args.k <= MAX_STEP_NUMBER:
            raise ConfigError(
                f"scheme.k must be an integer in 1..{MAX_STEP_NUMBER}, got {args.k}"
            )
        return _COMMANDS[args.command](args)
    except OrderCheckFailure as exc:
        print(f"order check failed: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StepError, ComputationError, FitError, ReportError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
