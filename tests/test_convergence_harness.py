"""Consistency, convergence-order, and threshold experiment tests."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft

from imexbdf import convergence_harness as harness
from imexbdf import norms
from imexbdf import operators as ops
from imexbdf.bdf_coeffs import bdf_scheme
from imexbdf.errors import DomainError, FitError
from imexbdf.imex_stepper import _StepCore, run
from imexbdf.norms import H1, L2, LINF, W1INF, lp_time_norm, spatial_norm
from imexbdf.operators import (
    PointwiseTerm,
    SparseDiffusionOperator,
    SpectralDiagonalOperator,
    assemble_example1,
    assemble_example3,
    assemble_example4,
    dirichlet_grid,
    periodic_grid,
)


def spectral_decay_problem(n_modes=32, rate=1.0):
    """u(t) = e^{-rate t} sin(x) on the torus under the half-Laplacian."""
    grid = periodic_grid((0.0, 2.0 * np.pi), n_modes)
    op, term = assemble_example3(grid)
    x = grid.axis_nodes(0)
    profile = np.sin(x)
    exact = lambda t: math.exp(-rate * t) * profile
    exact_dt = lambda t: -rate * math.exp(-rate * t) * profile
    return harness.ManufacturedProblem(grid, op, term, exact, exact_dt)


def diffusion_problem(n_nodes=64, cubic=True):
    """u(t) = e^{-t} sin(pi x) under autonomous variable diffusion."""
    grid = dirichlet_grid((0.0, 1.0), n_nodes)
    a_fn = lambda x, t: 1.0 + 0.3 * np.sin(x)
    op = SparseDiffusionOperator(grid, a_fn, lambda x, t: 0.3 * a_fn(x, t), autonomous=True)
    term = PointwiseTerm(grid, lambda u: -(u**3)) if cubic else None
    x = grid.axis_nodes(0)
    profile = np.sin(np.pi * x)
    exact = lambda t: math.exp(-t) * profile
    exact_dt = lambda t: -math.exp(-t) * profile
    return harness.ManufacturedProblem(grid, op, term, exact, exact_dt)


# -------------------------------------------------- manufactured setup


@pytest.mark.parametrize("cubic", [True, False], ids=["cubic", "linear"])
def test_forcing_matches_closed_form_sine_mode(cubic):
    # the sine mode is an exact eigenvector of the constant-coefficient
    # Dirichlet operator, with eigenvalue (a + ib)(4/h^2) sin^2(pi h/2),
    # so F = u' + A u - B has a closed form independent of the operator
    a, b = 1.3, 0.4
    grid = dirichlet_grid((0.0, 1.0), 31)
    h = grid.h[0]
    op = SparseDiffusionOperator(grid, a, b)
    term = PointwiseTerm(grid, lambda u: -(u**3)) if cubic else None
    profile = np.sin(np.pi * grid.axis_nodes(0))
    exact = lambda t: math.exp(-t) * profile
    prob = harness.ManufacturedProblem(
        grid, op, term, exact, lambda t: -math.exp(-t) * profile
    )
    lam = (a + 1j * b) * (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
    for t in (0.0, 0.37):
        u = exact(t)
        expected = (lam - 1.0) * u + (u**3 if cubic else 0.0)
        np.testing.assert_allclose(prob.forcing(t), expected, rtol=0.0, atol=1e-12 * abs(lam))

def test_forcing_mode_follows_nonlinearity():
    assert diffusion_problem(cubic=True).forcing_mode == "explicit"
    assert diffusion_problem(cubic=False).forcing_mode == "implicit"

def test_solve_reaches_final_time():
    prob = spectral_decay_problem()
    traj = prob.solve(bdf_scheme(2), 0.05, 40)
    assert traj.blow_up is None
    assert traj.times[-1] == pytest.approx(2.0)

def test_time_dependent_solve_builds_matrix_once_per_node():
    # the explicit-mode forcing applies A(t_n) right after the solve at
    # t_n has built it, so the single-slot cache hits; on this 1-d grid
    # ``_build`` forms the entries and no CSC matrix is made
    grid = dirichlet_grid((0.0, 1.0), 32)
    a_fn = lambda x, t: 1.0 + 0.3 * np.sin(x) * np.cos(t)
    op = SparseDiffusionOperator(grid, a_fn, 0.2)
    profile = np.sin(np.pi * grid.axis_nodes(0))
    prob = harness.ManufacturedProblem(
        grid,
        op,
        PointwiseTerm(grid, lambda u: -(u**3)),
        lambda t: math.exp(-t) * profile,
        lambda t: -math.exp(-t) * profile,
    )
    builds = []
    build = op._build
    op._build = lambda t: builds.append(t) or build(t)
    assembled = []
    op.assemble = assembled.append
    N = 12
    traj = prob.solve(bdf_scheme(3), 0.05, N)
    assert traj.blow_up is None
    # nodes 1..N; node 0 reuses the bands the constructor built
    assert len(builds) == N
    assert assembled == []

@pytest.mark.parametrize(
    "k, npts",
    [pytest.param(k, 24, id=str(k)) for k in range(1, 5)]
    + [pytest.param(k, (10, 8), id=f"2d-{k}") for k in range(1, 5)],
)
def test_example1_run_builds_and_checks_once_per_node(k, npts, monkeypatch):
    # a second build per step (a thrashing single-slot cache) would
    # show here; the constructor's build at t = 0 serves node 0
    builds, checks = [], []
    build = SparseDiffusionOperator._build
    monkeypatch.setattr(
        SparseDiffusionOperator, "_build", lambda op, t: builds.append(t) or build(op, t)
    )
    check = ops._check_stencil  # the stencil check in 1-d and 2-d
    monkeypatch.setattr(ops, "_check_stencil", lambda *args: checks.append(args) or check(*args))
    if npts == 24:
        grid = dirichlet_grid((0.0, 1.0), npts)
        a = lambda x, t: 1.0 + 0.5 * np.sin(x) * np.cos(t)  # noqa: E731
        profile = np.sin(np.pi * grid.axis_nodes(0))
    else:
        grid = dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), npts)
        a = lambda x, y, t: 1.0 + 0.5 * np.sin(x) * np.sin(y) * np.cos(t)  # noqa: E731
        X, Y = grid.meshes()
        profile = np.sin(np.pi * X) * np.sin(np.pi * Y)
    op, term = assemble_example1(grid, a, 0.3)
    prob = harness.ManufacturedProblem(
        grid, op, term, lambda t: math.exp(-t) * profile, lambda t: -math.exp(-t) * profile
    )
    N = 10
    traj = prob.solve(bdf_scheme(k), 0.02, N)
    assert traj.blow_up is None
    assert len(builds) == len(set(builds)) == N + 1
    assert len(checks) == N + 1


# ---------------------------------------------------- consistency


def test_consistency_zero_for_polynomial_solution():
    # u polynomial of degree k in t: the delta bracket annihilates it
    # exactly, leaving round-off only
    grid = periodic_grid((0.0, 2.0 * np.pi), 16)
    op, _ = assemble_example3(grid)
    x = grid.axis_nodes(0)
    profile = np.cos(x)
    for k in (1, 2, 3):
        coeffs = [1.0 / (1 + j) for j in range(k + 1)]
        exact = lambda t: sum(c * t**j for j, c in enumerate(coeffs)) * profile
        exact_dt = lambda t: sum(
            j * c * t ** (j - 1) for j, c in enumerate(coeffs) if j > 0
        ) * profile
        prob = harness.ManufacturedProblem(grid, op, None, exact, exact_dt)
        result = harness.consistency_errors(prob, bdf_scheme(k), 0.1, 20)
        assert result.max_norm < 1e-12

def test_consistency_k1_linear_solution_exact():
    grid = periodic_grid((0.0, 2.0 * np.pi), 16)
    op, _ = assemble_example3(grid)
    profile = np.cos(grid.axis_nodes(0))
    prob = harness.ManufacturedProblem(
        grid, op, None, lambda t: (2.0 + 3.0 * t) * profile, lambda t: 3.0 * profile
    )
    result = harness.consistency_errors(prob, bdf_scheme(1), 0.05, 10)
    assert result.max_norm < 1e-13

def test_consistency_halving_ratio_matches_order():
    prob = spectral_decay_problem()
    for k in (2, 3):
        scheme = bdf_scheme(k)
        maxima = []
        for tau in (0.02, 0.01, 0.005):
            N = round(1.0 / tau)
            maxima.append(harness.consistency_errors(prob, scheme, tau, N).max_norm)
        ratio = maxima[-2] / maxima[-1]
        assert abs(ratio - 2.0**k) <= 0.1 * 2.0**k

def test_consistency_result_fields():
    prob = spectral_decay_problem(16)
    result = harness.consistency_errors(prob, bdf_scheme(2), 0.1, 6)
    assert result.scheme_k == 2
    assert len(result.norms) == 5  # n = 2..6
    assert result.max_norm == max(result.norms)

@pytest.mark.parametrize("k", [1, 3, 5])
def test_consistency_matches_termwise_recursion(k):
    # reference: the recursion's sums written term by term; the
    # contraction sums in another order, so allow a few roundings of
    # the largest term, (sum |delta_i| / tau) |u|
    prob = diffusion_problem(24)
    scheme, tau, N = bdf_scheme(k), 0.05, 12
    result = harness.consistency_errors(prob, scheme, tau, N)
    u = [prob.exact(n * tau) for n in range(N + 1)]
    b = [prob.nonlinear.evaluate(n * tau, v) for n, v in enumerate(u)]
    for n, norm in zip(range(k, N + 1), result.norms):
        d = -prob.exact_dt(n * tau) + b[n]
        for i in range(k + 1):
            d = d + scheme.delta_f[i] / tau * u[n - i]
        for i in range(k):
            d = d - scheme.gamma_f[i] * b[n - i - 1]
        scale = np.abs(scheme.delta_f).sum() / tau * np.abs(u[n]).max()
        assert norm == pytest.approx(np.abs(d).max(), abs=64 * np.finfo(float).eps * scale)

@pytest.mark.parametrize("cubic", [True, False], ids=["B", "no_B"])
@pytest.mark.parametrize("k", range(1, 7))
def test_consistency_defects_match_per_step_contraction_bit_for_bit(k, cubic, monkeypatch):
    # reference: each step's newest-first rows contracted on their own;
    # the batched contractions must give the same bits
    prob = diffusion_problem(24, cubic=cubic)
    scheme, tau, N = bdf_scheme(k), 0.05, 12
    seen = []
    spatial_norms = harness.spatial_norms

    def recording(defects, kind, grid):
        seen.append(defects.copy())
        return spatial_norms(defects, kind, grid)

    monkeypatch.setattr(harness, "spatial_norms", recording)
    harness.consistency_errors(prob, scheme, tau, N)
    u = np.array([prob.exact(n * tau) for n in range(N + 1)], dtype=complex)
    B = prob.nonlinear
    if B is not None:
        b = np.array([B.evaluate(n * tau, v) for n, v in enumerate(u)])
    hand = np.empty((N + 1 - k, prob.grid.size), dtype=complex)
    for n, d in enumerate(hand, k):
        d[:] = (scheme.delta_f / tau) @ u[n - k : n + 1][::-1].reshape(k + 1, -1)
        d -= np.asarray(prob.exact_dt(n * tau), dtype=complex).ravel()
        if B is not None:
            d += b[n].ravel() - scheme.gamma_f @ b[n - k : n][::-1].reshape(k, -1)
    (defects,) = seen
    assert defects.reshape(hand.shape).tobytes() == hand.tobytes()

def test_consistency_roundoff_floor_separates_noise_from_defect():
    # k = 5 at tau = 0.001: the truncation defect is ~tau^5, far below
    # the rounding of (1/tau) sum_i delta_i u(t_{n-i}), so every norm
    # is round-off and sits under the floor; at tau = 0.05 the defect
    # is real and lies orders of magnitude above it
    grid = periodic_grid((0.0, 2.0 * np.pi), 64)
    op, term = assemble_example4(grid)
    profile = np.cos(grid.axis_nodes(0))
    prob = harness.ManufacturedProblem(
        grid, op, term, lambda t: math.exp(-t) * profile, lambda t: -math.exp(-t) * profile
    )
    result = harness.consistency_errors(prob, bdf_scheme(5), 0.001, 20)
    scale = np.abs(bdf_scheme(5).delta_f).sum() / 0.001
    assert result.roundoff_floor == pytest.approx(np.finfo(float).eps * scale, rel=1e-12)
    assert result.max_norm < result.roundoff_floor

    grid = dirichlet_grid((0.0, 1.0), 64)
    op, term = assemble_example1(grid, lambda x, t: 1.0 + 0.5 * np.sin(x) * np.cos(t), 0.3)
    profile = np.sin(np.pi * grid.axis_nodes(0))
    prob = harness.ManufacturedProblem(
        grid, op, term, lambda t: math.exp(-t) * profile, lambda t: -math.exp(-t) * profile
    )
    result = harness.consistency_errors(prob, bdf_scheme(5), 0.05, 20)
    assert min(result.norms) > 1e6 * result.roundoff_floor

def test_consistency_validates_inputs():
    prob = spectral_decay_problem(16)
    with pytest.raises(DomainError):
        harness.consistency_errors(prob, bdf_scheme(3), 0.1, 2)
    with pytest.raises(DomainError):
        harness.consistency_errors(prob, bdf_scheme(2), -0.1, 10)

@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_consistency_rejects_non_finite_tau_before_any_evaluation(tau):
    def never(t):
        raise AssertionError("evaluated the exact solution")

    prob = spectral_decay_problem(16)
    prob = harness.ManufacturedProblem(prob.grid, prob.operator, prob.nonlinear, never, never)
    with pytest.raises(DomainError):
        harness.consistency_errors(prob, bdf_scheme(2), tau, 4)


# ------------------------------------------------------- order fitting


def test_fit_order_exact_power():
    taus = [0.1 * 2.0**-j for j in range(5)]
    fit = harness.fit_order([(t, 3.7 * t**2) for t in taus])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.n_used == 5

def test_fit_order_rescale_invariance():
    taus = [0.1 * 2.0**-j for j in range(5)]
    errs = [t**3 * (1.0 + 0.02 * math.sin(10 * t)) for t in taus]
    s1 = harness.fit_order(list(zip(taus, errs))).slope
    s2 = harness.fit_order([(t, 1e6 * e) for t, e in zip(taus, errs)]).slope
    assert s1 == pytest.approx(s2, abs=1e-12)

def test_fit_order_with_noise():
    rng = np.random.default_rng(2)
    taus = [0.1 * 2.0**-j for j in range(6)]
    errs = [t**3 * (1.0 + 0.01 * rng.uniform(-1, 1)) for t in taus]
    fit = harness.fit_order(list(zip(taus, errs)))
    assert fit.slope == pytest.approx(3.0, abs=0.05)

def test_fit_order_excludes_bad_points_with_warning():
    taus = [0.1, 0.05, 0.025, 0.0125]
    pairs = [(t, t**2) for t in taus[:3]] + [(taus[3], 0.0)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = harness.fit_order(pairs)
    assert fit.n_used == 3
    assert any("excluding" in str(w.message) for w in caught)

def test_fit_order_needs_three_points():
    with pytest.raises(FitError):
        harness.fit_order([(0.1, 1e-3)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(FitError):
            harness.fit_order([(0.1, 1e-3), (0.05, -1.0), (0.025, 0.0)])


# --------------------------------------------------- convergence study


def test_convergence_study_diffusion_orders():
    prob = diffusion_problem()
    for k in (2, 3):
        taus = [0.04 * 2.0**-j for j in range(5)]
        report = harness.convergence_study(prob, bdf_scheme(k), taus, 0.4)
        fit = report.fits["linf"]
        assert fit.slope >= k - 0.1
        assert fit.slope <= k + 0.4
        assert report.passes["linf"]

def test_convergence_study_2d_time_dependent_orders():
    # example 1 with time-dependent coefficients: each solve refines on
    # an older factor or refactorizes, and neither may cost order
    grid = dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (24, 24))
    a_fn = lambda x, y, t: 1.0 + 0.5 * np.sin(x) * np.sin(y) * np.cos(t)
    op, term = assemble_example1(grid, a_fn, lambda x, y, t: 0.3 * a_fn(x, y, t))
    X, Y = grid.meshes()
    profile = np.sin(np.pi * X) * np.sin(np.pi * Y)
    prob = harness.ManufacturedProblem(
        grid,
        op,
        term,
        lambda t: math.exp(-t) * profile,
        lambda t: -math.exp(-t) * profile,
    )
    taus = [0.1 * 2.0**-j for j in range(5)]
    for k in (1, 2, 3, 4):
        report = harness.convergence_study(prob, bdf_scheme(k), taus, 1.0)
        assert report.fits["linf"].slope >= k - 0.1

def test_convergence_study_row_quantities():
    prob = spectral_decay_problem()
    taus = [0.05, 0.025, 0.0125, 0.00625]
    report = harness.convergence_study(
        prob, bdf_scheme(2), taus, 0.5, norms=("linf", "l2")
    )
    assert report.norm_labels == ["linf", "l2"]
    assert [r.tau for r in report.rows] == taus
    for row in report.rows:
        assert row.stable
        assert row.max_errors["linf"] > 0.0
        assert row.time_l2_errors["l2"] > 0.0
        assert row.dq_time_l2["linf"] > 0.0

def test_dq_time_l2_matches_direct_quotients():
    # dq_time_l2 is (tau sum_n ||(e_n - e_{n-1}) / tau||^2)^(1/2) over
    # the errors e_n of the trajectory
    prob = diffusion_problem(32)
    scheme, final_time = bdf_scheme(2), 0.3
    report = harness.convergence_study(prob, scheme, [0.05, 0.025, 0.0125], final_time, norms=("l2",))
    for row in report.rows:
        N = round(final_time / row.tau)
        traj = prob.solve(scheme, row.tau, N)
        errors = [u - prob.exact(n * row.tau) for n, u in enumerate(traj.states)]
        quotients = [
            spatial_norm((errors[n] - errors[n - 1]) / row.tau, L2, prob.grid)
            for n in range(1, N + 1)
        ]
        direct = math.sqrt(row.tau * math.fsum(q * q for q in quotients))
        assert row.dq_time_l2["l2"] == pytest.approx(direct, rel=1e-12)

@pytest.mark.parametrize("block", [1, 3, None], ids=["rows-1", "rows-3", "default"])
def test_convergence_study_blocks_match_per_state_norms_bitwise(block, monkeypatch):
    # the study takes its norms a block of error rows at a time; with any
    # block size they equal the per-state norms of the whole trajectory
    prob = diffusion_problem(32)
    if block is not None:
        monkeypatch.setattr(norms, "_BLOCK_ELEMENTS", block * prob.grid.size)
    scheme, final_time, taus = bdf_scheme(3), 0.4, [0.05, 0.025, 0.0125]
    kinds = [LINF, L2, W1INF, H1]
    report = harness.convergence_study(prob, scheme, taus, final_time, norms=kinds)
    for row in report.rows:
        N = round(final_time / row.tau)
        traj = prob.solve(scheme, row.tau, N)
        errors = [u - prob.exact(n * row.tau) for n, u in enumerate(traj.states)]
        for kind in kinds:
            per_step = [spatial_norm(e, kind, prob.grid) for e in errors]
            quotients = [
                spatial_norm((b - a) / row.tau, kind, prob.grid)
                for a, b in zip(errors[:-1], errors[1:])
            ]
            assert row.max_errors[kind.label] == max(per_step)
            assert row.time_l2_errors[kind.label] == lp_time_norm(per_step, row.tau, 2.0)
            assert row.dq_time_l2[kind.label] == lp_time_norm(quotients, row.tau, 2.0)

def test_exact_injection_polynomial_mode():
    # polynomial-in-t single-mode solution is reproduced to 1e-10
    grid = periodic_grid((0.0, 2.0 * np.pi), 16)
    op, _ = assemble_example3(grid)
    x = grid.axis_nodes(0)
    mode = np.exp(1j * x)
    k = 3
    exact = lambda t: (1.0 + t + 0.5 * t**2 + t**3 / 6.0) * mode
    exact_dt = lambda t: (1.0 + t + 0.5 * t**2) * mode
    prob = harness.ManufacturedProblem(grid, op, None, exact, exact_dt)
    traj = prob.solve(bdf_scheme(k), 0.05, 40)
    err = np.max(np.abs(traj.final_state - exact(2.0)))
    assert err < 1e-10

def test_convergence_study_flags_unstable_tau():
    # stiff explicit term blows up at coarse tau and converges at fine
    grid = dirichlet_grid((0.0, 1.0), 16)
    op = SparseDiffusionOperator(grid, 0.01, 0.0)
    term = PointwiseTerm(grid, lambda u: -50.0 * u)
    x = grid.axis_nodes(0)
    profile = np.sin(np.pi * x)
    prob = harness.ManufacturedProblem(
        grid,
        op,
        term,
        lambda t: math.exp(-t) * profile,
        lambda t: -math.exp(-t) * profile,
    )
    taus = [0.5, 0.25, 0.004, 0.002, 0.001]
    report = harness.convergence_study(prob, bdf_scheme(1), taus, 10.0)
    assert report.unstable_taus == [0.5, 0.25]
    assert not report.rows[0].stable
    assert math.isinf(report.rows[0].max_errors["linf"])
    assert report.fits["linf"].n_used == 3
    assert report.fits["linf"].slope >= 0.9

def test_convergence_study_rejects_bad_ladder():
    prob = spectral_decay_problem(16)
    with pytest.raises(DomainError):
        harness.convergence_study(prob, bdf_scheme(2), [0.01, 0.02], 0.5)
    with pytest.raises(DomainError):
        harness.convergence_study(prob, bdf_scheme(2), [0.02, 0.02], 0.5)


# ------------------------------------------------------- scalar ladder


def test_scalar_orders_low_k():
    taus = [1.0 / (20 * 2**j) for j in range(4)]
    for k in (1, 2, 3):
        report = harness.scalar_convergence_study(bdf_scheme(k), taus)
        slope = report.fits["abs"].slope
        assert k - 0.1 <= slope <= k + 0.3

def test_scalar_high_k_errors_below_double_epsilon():
    # the k=6 ladder bottoms out below double round-off; extended
    # precision keeps the measured errors meaningful
    taus = [1.0 / (20 * 2**j) for j in range(5)]
    report = harness.scalar_convergence_study(bdf_scheme(6), taus)
    finest = report.rows[-1].max_errors["abs"]
    assert 0.0 < finest < 1e-14
    slope = report.fits["abs"].slope
    assert 5.9 <= slope <= 6.3


# max-in-time errors of the scalar study on the criterion-6 ladder,
# recorded from the hand-written 50-digit recursion that the study
# replaced; marching through ``run`` must reproduce them exactly
SCALAR_MAX_ERRORS = {
    1: (
        0.00901004170155838,
        0.004551182526362741,
        0.002287345588856859,
        0.0011466387660447434,
        0.0005740643415997877,
    ),
    2: (
        0.0002942564642168391,
        7.515670038759872e-05,
        1.897785717474666e-05,
        4.7674645657692726e-06,
        1.1947064336960734e-06,
    ),
    3: (
        1.0685508171501336e-05,
        1.3883585691262895e-06,
        1.7664851043473959e-07,
        2.2269237947352325e-08,
        2.795235714669107e-09,
    ),
    4: (
        4.125058405767923e-07,
        2.7344306496881367e-08,
        1.753903030414219e-09,
        1.1096257740118216e-10,
        6.9762487894955486e-12,
    ),
    5: (
        1.6533783903952815e-08,
        5.607171599485189e-10,
        1.8138778577598984e-11,
        5.759498531928649e-13,
        1.8136891251015117e-14,
    ),
    6: (
        6.768035585193091e-10,
        1.1820103775620232e-11,
        1.9293059696231356e-13,
        3.0748607596766162e-15,
        4.8500018944190754e-17,
    ),
}

@pytest.mark.parametrize("k", range(1, 7))
def test_scalar_study_errors_pinned(k):
    taus = [1.0 / 20.0 / 2**j for j in range(5)]
    report = harness.scalar_convergence_study(bdf_scheme(k), taus)
    assert tuple(r.max_errors["abs"] for r in report.rows) == SCALAR_MAX_ERRORS[k]


# -------------------------------------------------- threshold experiment


def test_threshold_experiment_brackets_k3():
    scheme = bdf_scheme(3)
    tan_alpha = math.tan(math.radians(86.0323668602116473))
    report = harness.threshold_experiment(
        scheme,
        ratio_list=[0.5 * tan_alpha, 2.0 * tan_alpha],
        n_nodes=24,
        n_steps=4000,
    )
    assert report.k == 3
    assert report.tan_alpha == pytest.approx(tan_alpha, rel=1e-9)
    below, above = report.rows
    assert below.bounded
    assert not above.bounded
    lo, hi = report.bracket
    assert lo == pytest.approx(0.5 * tan_alpha)
    assert hi == pytest.approx(2.0 * tan_alpha)

def test_threshold_rejects_low_k_and_bad_ratios():
    with pytest.raises(DomainError):
        harness.threshold_experiment(bdf_scheme(2))
    with pytest.raises(DomainError):
        harness.threshold_experiment(bdf_scheme(3), ratio_list=[-1.0])
    with pytest.raises(DomainError, match="seed"):
        harness.threshold_experiment(bdf_scheme(3), seed=-1)

def test_threshold_rejects_empty_ratio_list():
    with pytest.raises(DomainError, match="empty"):
        harness.threshold_experiment(bdf_scheme(3), ratio_list=[])


def _tan_alpha(k):
    return math.tan(math.radians(harness.a_alpha_angle(bdf_scheme(k))))


def _sine_symbol(n, ratio):
    """The threshold experiment's symbol: (1 + i ratio) mu_j on n Dirichlet nodes of (0, 1)."""
    return (1.0 + 1j * ratio) * ops._sine_symbol(dirichlet_grid((0.0, 1.0), n))


@pytest.mark.parametrize("k", range(3, 7))
def test_sine_symbol_is_the_spectrum_of_the_diffusion_operator(k):
    n, ratio = 16, _tan_alpha(k)
    A = SparseDiffusionOperator(dirichlet_grid((0.0, 1.0), n), 1.0, ratio)
    eigs = np.linalg.eigvals(A.assemble(0.0).toarray())
    symbol = _sine_symbol(n, ratio)
    np.testing.assert_allclose(eigs[np.argsort(eigs.real)], symbol, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", range(3, 7))
def test_orthonormal_dst_diagonalizes_the_diffusion_operator(k):
    n, ratio = 16, _tan_alpha(k)
    A = SparseDiffusionOperator(dirichlet_grid((0.0, 1.0), n), 1.0, ratio)
    S = scipy.fft.dst(np.eye(n), type=1, norm="ortho", axis=0)  # symmetric, S @ S = I
    symbol = _sine_symbol(n, ratio)
    gap = S @ A.assemble(0.0).toarray() @ S - np.diag(symbol)
    assert np.abs(gap).max() <= 1e-12 * np.abs(symbol).max()


@pytest.mark.parametrize("k", range(3, 7))
def test_sine_march_flags_the_runs_a_nodal_march_flags(k, monkeypatch):
    # every run of the experiment is marched again on the finite-difference
    # operator from the same starts mapped to nodal values
    verdicts = []

    def both(scheme, operator, B, start, tau, n_steps):
        traj = run(scheme, operator, B, start, tau, n_steps)
        ratio = operator.symbol[0].imag / operator.symbol[0].real
        fd = SparseDiffusionOperator(dirichlet_grid((0.0, 1.0), len(start[0])), 1.0, ratio)
        nodal = [scipy.fft.idst(u, type=1, norm="ortho") for u in start]
        fd_traj = run(scheme, fd, B, nodal, tau, n_steps)
        verdicts.append((ratio, traj.blow_up is not None, fd_traj.blow_up is not None))
        return traj

    monkeypatch.setattr(harness, "run", both)
    ratios = [0.5 * _tan_alpha(k), 3.0 * _tan_alpha(k)]
    report = harness.threshold_experiment(bdf_scheme(k), ratios, n_nodes=16, n_steps=1000, seed=5)
    fd_counts = [sum(fd for r, _, fd in verdicts if r == pytest.approx(ratio)) for ratio in ratios]
    assert [row.unstable_count for row in report.rows] == fd_counts
    assert fd_counts[0] == 0 and fd_counts[1] > 0


def test_diagonal_step_allocates_no_state():
    symbol = _sine_symbol(512, 1.0)
    block = np.random.default_rng(1).standard_normal((6, 512)) + 0j
    core = _StepCore(bdf_scheme(5), SpectralDiagonalOperator(None, symbol), 0.01, block[:5], None)
    core.row = block[5]
    core.step(0.0, None)  # forms sigma + symbol
    tracemalloc.start()
    try:
        for _ in range(20):
            core.step(0.0, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block[5].nbytes  # 8 kB; no state-sized array was made


def test_default_ratios_straddle_tangent():
    scheme = bdf_scheme(4)
    ratios = harness.default_threshold_ratios(scheme)
    t = math.tan(math.radians(73.3516704745784821))
    assert ratios == pytest.approx([0.85 * t, 0.92 * t, 1.08 * t, 1.15 * t], rel=1e-9)
