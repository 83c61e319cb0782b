"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion, prints a single
PASS/FAIL line (bypassing capture so the verdicts are visible in any
run), and enforces a wall-clock budget.  Tests without a number extend the
criterion they sit beside.

Criterion 3 (and the matching entry of the criterion 10 property
registry) compares the computed thresholds 1/cos(alpha_k) with the
tabulated reference digits at half a unit in the last printed digit;
test_reference_values checks those digits against an independent
mpmath computation.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from imexbdf.bdf_coeffs import bdf_scheme, verify_order_conditions
from imexbdf.convergence_harness import (
    ManufacturedProblem,
    consistency_errors,
    convergence_study,
    scalar_convergence_study,
    threshold_experiment,
)
from imexbdf.operators import (
    assemble_example1,
    assemble_example3,
    assemble_example4,
    dirichlet_grid,
    periodic_grid,
)
from imexbdf.stability import (
    a_alpha_angle,
    angle_of_analyticity_check,
    lambda_threshold,
    stability_constant,
    von_neumann_sweep,
)
from property_checks import (
    PROPERTY_CHECKS,
    PROPERTY_SEED,
    REFERENCE_ANGLES_DEG,
    REFERENCE_LAMBDA_DIGITS,
)


def _verdict(capsys, number, cap_seconds, started, ok, detail):
    elapsed = time.perf_counter() - started
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail} "
        f"[{elapsed:.2f}s / cap {cap_seconds:.0f}s]"
    )
    with capsys.disabled():
        print(line)
    assert elapsed <= cap_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {cap_seconds}s"
    )
    assert ok, line


def _example1_manufactured(n=512):
    grid = dirichlet_grid((0.0, 1.0), n)
    op, term = assemble_example1(
        grid,
        lambda x, t: 1.0 + 0.5 * np.sin(x) * np.cos(t),
        lambda x, t: 0.3 * (1.0 + 0.5 * np.sin(x) * np.cos(t)),
    )
    profile = np.sin(np.pi * grid.axis_nodes(0)).astype(complex)
    return ManufacturedProblem(
        grid,
        op,
        term,
        lambda t: math.exp(-t) * profile,
        lambda t: -math.exp(-t) * profile,
    )


def test_criterion_01_order_conditions_exact(capsys):
    t0 = time.perf_counter()
    worst = []
    for k in range(1, 7):
        report = verify_order_conditions(bdf_scheme(k))
        if not report.all_zero:
            worst.append(f"k={k}: max residual {report.max_residual}")
    _verdict(
        capsys,
        1,
        1.0,
        t0,
        not worst,
        "rational order-condition residuals all exactly zero for k=1..6"
        if not worst
        else "; ".join(worst),
    )


def test_criterion_02_sector_angles(capsys):
    t0 = time.perf_counter()
    deviations = {
        k: abs(a_alpha_angle(bdf_scheme(k)) - ref)
        for k, ref in REFERENCE_ANGLES_DEG.items()
    }
    worst = max(deviations.values())
    _verdict(
        capsys,
        2,
        5.0,
        t0,
        worst <= 0.01,
        f"sector angles within 0.01 deg of tabulated values (worst {worst:.2e} deg)",
    )


def test_criterion_03_threshold_reference_digits(capsys):
    # each reference string is the exact 1/cos(alpha_k) rounded to its
    # own printed decimals, so the tolerance is half a unit in the last one
    t0 = time.perf_counter()
    mismatches = []
    for k, printed in REFERENCE_LAMBDA_DIGITS.items():
        computed = lambda_threshold(bdf_scheme(k))
        tol = 0.5 * 10.0 ** (-len(printed.split(".")[1]))
        if abs(computed - float(printed)) > tol:
            mismatches.append(
                f"k={k}: computed {computed:.10f} vs tabulated {printed} "
                f"(|diff| {abs(computed - float(printed)):.2e}, tol {tol:.1e})"
            )
    _verdict(
        capsys,
        3,
        5.0,
        t0,
        not mismatches,
        "thresholds match tabulated digits"
        if not mismatches
        else "; ".join(mismatches),
    )


def test_criterion_04_rotated_spd_constants(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(PROPERTY_SEED)
    worst_lam, worst_angle = 0.0, 0.0
    all_hold = True
    for _ in range(20):
        n = int(rng.integers(2, 51))
        g = rng.standard_normal((n, n))
        spd = g @ g.T + n * np.eye(n)
        for phi_deg in (10, 30, 60, 80):
            phi = math.radians(phi_deg)
            lam = stability_constant(np.exp(1j * phi) * spd)
            worst_lam = max(worst_lam, abs(lam - 1.0 / math.cos(phi)))
            holds, measured = angle_of_analyticity_check(np.exp(1j * phi) * spd, lam)
            all_hold = all_hold and holds
            bound = math.degrees(math.asin(min(1.0, 1.0 / lam)))
            worst_angle = max(worst_angle, abs(measured - bound))
    ok = all_hold and worst_lam <= 1e-6 and worst_angle <= 1e-4
    _verdict(
        capsys,
        4,
        30.0,
        t0,
        ok,
        f"rotated SPD matrices: constant dev {worst_lam:.2e} (tol 1e-6), "
        f"angle dev {worst_angle:.2e} deg (tol 1e-4), sector bound holds: {all_hold}",
    )


def test_criterion_05_sector_sharpness(capsys):
    t0 = time.perf_counter()
    rho = np.geomspace(1e-3, 1e3, 61)
    problems = []
    for k in (3, 4, 5, 6):
        scheme = bdf_scheme(k)
        alpha = a_alpha_angle(scheme)
        if not von_neumann_sweep(scheme, math.radians(alpha - 1.0), rho).all_stable:
            problems.append(f"k={k}: unstable rho at angle-1deg")
        if von_neumann_sweep(scheme, math.radians(alpha + 1.0), rho).all_stable:
            problems.append(f"k={k}: no unstable rho at angle+1deg")
    _verdict(
        capsys,
        5,
        10.0,
        t0,
        not problems,
        "root sweeps flip between alpha-1deg (stable) and alpha+1deg (unstable), k=3..6"
        if not problems
        else "; ".join(problems),
    )


def test_criterion_06_scalar_orders(capsys):
    t0 = time.perf_counter()
    slopes = {}
    for k in range(1, 7):
        report = scalar_convergence_study(
            bdf_scheme(k), [1.0 / 20.0 / 2**j for j in range(5)]
        )
        slopes[k] = report.fits["abs"].slope
    ok = all(k - 0.1 <= s <= k + 0.3 for k, s in slopes.items())
    _verdict(
        capsys,
        6,
        10.0,
        t0,
        ok,
        "scalar decay orders "
        + ", ".join(f"k={k}: {s:.3f}" for k, s in slopes.items()),
    )


def test_criterion_07_dirichlet_diffusion_orders(capsys):
    t0 = time.perf_counter()
    problem = _example1_manufactured()
    taus = [0.1 / 2**j for j in range(5)]
    slopes = {}
    for k in (1, 2, 3, 4):
        report = convergence_study(problem, bdf_scheme(k), taus, 1.0)
        slopes[k] = report.fits["linf"].slope
    ok = all(s >= k - 0.1 for k, s in slopes.items())
    _verdict(
        capsys,
        7,
        120.0,
        t0,
        ok,
        "512-node Dirichlet diffusion orders "
        + ", ".join(f"k={k}: {s:.3f}" for k, s in slopes.items()),
    )


def _example1_cosine(n, k):
    """Example 1 with b = r a, r = 0.5 tan(alpha_k), and exact solution
    cos(8t) sin(pi x), on n Dirichlet nodes."""
    grid = dirichlet_grid((0.0, 1.0), n)
    r = 0.5 * math.tan(math.radians(a_alpha_angle(bdf_scheme(k))))
    op, term = assemble_example1(
        grid,
        lambda x, t: 1.0 + 0.5 * np.sin(x) * np.cos(t),
        lambda x, t: r * (1.0 + 0.5 * np.sin(x) * np.cos(t)),
    )
    profile = np.sin(np.pi * grid.axis_nodes(0)).astype(complex)
    return ManufacturedProblem(
        grid,
        op,
        term,
        lambda t: math.cos(8.0 * t) * profile,
        lambda t: -8.0 * math.sin(8.0 * t) * profile,
    )


@pytest.mark.parametrize("k", [5, 6])
def test_example1_orders_5_and_6_flat_in_h(k):
    # beside criterion 7, which fits k = 1..4: the max-norm order is k
    # and the finest error does not depend on the grid
    taus = [0.04 / 2**j for j in range(5)]
    finest = []
    for n in (16, 32, 64):
        report = convergence_study(_example1_cosine(n, k), bdf_scheme(k), taus, 1.0)
        assert not report.unstable_taus
        assert abs(report.fits["linf"].slope - k) <= 0.1, (n, report.fits["linf"].slope)
        finest.append(report.rows[-1].max_errors["linf"])
    assert max(finest) <= 1.02 * min(finest), finest


def test_criterion_08_spectral_torus_orders(capsys):
    t0 = time.perf_counter()
    grid = periodic_grid((-16.0, 16.0), 256)
    profile = np.exp(-grid.axis_nodes(0) ** 2 / 4.0).astype(complex)
    taus = [0.05 / 2**j for j in range(5)]
    slopes = {}
    for name, make in (("half-laplacian", assemble_example3), ("biharmonic", assemble_example4)):
        op, term = make(grid)
        problem = ManufacturedProblem(
            grid,
            op,
            term,
            lambda t: math.exp(-t) * profile,
            lambda t: -math.exp(-t) * profile,
        )
        for k in (1, 2):
            report = convergence_study(problem, bdf_scheme(k), taus, 0.5)
            slopes[f"{name} k={k}"] = (k, report.fits["linf"].slope)
    ok = all(s >= k - 0.1 for k, s in slopes.values())
    _verdict(
        capsys,
        8,
        120.0,
        t0,
        ok,
        "256-mode torus orders "
        + ", ".join(f"{label}: {s:.3f}" for label, (_, s) in slopes.items()),
    )


def test_criterion_09_consistency_halving(capsys):
    t0 = time.perf_counter()
    problem = _example1_manufactured()
    problems = []
    for k in (1, 2, 3, 4):
        maxima = [
            consistency_errors(
                problem, bdf_scheme(k), tau, max(k, round(0.16 / tau))
            ).max_norm
            for tau in (0.02 / 2**j for j in range(4))
        ]
        ratios = [u / v for u, v in zip(maxima, maxima[1:])]
        for r in ratios[-2:]:
            if abs(r - 2**k) > 0.1 * 2**k:
                problems.append(f"k={k}: ratio {r:.3f} vs {2**k}")
    _verdict(
        capsys,
        9,
        60.0,
        t0,
        not problems,
        "defect maxima halve at rate 2^k (within 10%) at the two finest steps, k=1..4"
        if not problems
        else "; ".join(problems),
    )


def test_criterion_10_property_registry(capsys):
    t0 = time.perf_counter()
    failures = []
    for name, check in PROPERTY_CHECKS:
        try:
            check(np.random.default_rng(PROPERTY_SEED))
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    _verdict(
        capsys,
        10,
        120.0,
        t0,
        not failures,
        f"all {len(PROPERTY_CHECKS)} randomized property checks hold (seed {PROPERTY_SEED})"
        if not failures
        else f"{len(failures)}/{len(PROPERTY_CHECKS)} checks failed: "
        + " | ".join(failures),
    )


def test_criterion_11_threshold_brackets(capsys):
    t0 = time.perf_counter()
    problems = []
    details = []
    for k in (3, 5):
        report = threshold_experiment(bdf_scheme(k))
        lo, hi = report.bracket
        tan = report.tan_alpha
        if lo is None or hi is None:
            problems.append(f"k={k}: no bracket ({lo}, {hi})")
            continue
        details.append(f"k={k}: [{lo:.4f}, {hi:.4f}] around {tan:.4f}")
        if not (lo <= tan <= hi):
            problems.append(f"k={k}: tan {tan:.4f} outside [{lo:.4f}, {hi:.4f}]")
        if hi - lo > 0.2 * tan:
            problems.append(f"k={k}: bracket width {hi - lo:.4f} > 0.2*tan")
    _verdict(
        capsys,
        11,
        180.0,
        t0,
        not problems,
        "blow-up ratio brackets contain tan(alpha): " + "; ".join(details)
        if not problems
        else "; ".join(problems),
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
