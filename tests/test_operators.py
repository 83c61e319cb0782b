"""Grid, operator backend, and nonlinear-term tests.

Analytic oracles used below:

* constant-coefficient Dirichlet Laplacian on (0, 1) has the discrete
  sine modes as exact eigenvectors with eigenvalue (4/h^2) sin^2(pi h/2)
  for the lowest mode;
* for b = c*a the assembled matrix has numerical range on the ray of
  angle atan(c), so its stability constant is sqrt(1 + c^2);
* div(cos^4(x) e^{sin x}) with u = sin x on the torus is
  cos^5(x) e^{sin x} - 4 cos^3(x) sin(x) e^{sin x} ... exercised instead
  through a symbolic reference computed with sympy in-test.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from imexbdf import imex_stepper as stepper
from imexbdf import operators as ops
from imexbdf.bdf_coeffs import bdf_scheme
from imexbdf.convergence_harness import ManufacturedProblem
from imexbdf.errors import (
    CoercivityError,
    ConfigError,
    DomainError,
    UnsupportedOperationError,
)
from imexbdf.imex_stepper import run
from imexbdf.stability import stability_constant


# ---------------------------------------------------------------- grids


def test_dirichlet_grid_nodes_interior_only():
    g = ops.dirichlet_grid((0.0, 1.0), 7)
    h = 1.0 / 8.0
    assert g.h == (h,)
    x = g.axis_nodes(0)
    assert x[0] == pytest.approx(h)
    assert x[-1] == pytest.approx(1.0 - h)
    assert len(x) == 7

def test_periodic_grid_excludes_duplicate_endpoint():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 8)
    x = g.axis_nodes(0)
    assert g.h == (2.0 * np.pi / 8,)
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(2.0 * np.pi - g.h[0])

def test_grid_2d_shapes():
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 2.0)), (5, 9))
    assert g.ndim == 2
    assert g.shape == (5, 9)
    assert g.size == 45
    X, Y = g.meshes()
    assert X.shape == (5, 9)
    assert Y[0, 0] == pytest.approx(2.0 / 10.0)

@pytest.mark.parametrize("bad", [3, 1, 0])
def test_grid_rejects_too_few_points(bad):
    with pytest.raises(DomainError):
        ops.dirichlet_grid((0.0, 1.0), bad)

def test_grid_rejects_empty_extent():
    with pytest.raises(DomainError):
        ops.dirichlet_grid((1.0, 1.0), 8)

@pytest.mark.parametrize("make_grid", [ops.dirichlet_grid, ops.periodic_grid])
@pytest.mark.parametrize(
    "extent",
    [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308), (0.0, 5e-324)],
)
@pytest.mark.parametrize("ndim", [1, 2])
def test_grid_rejects_non_finite_extent(ndim, extent, make_grid):
    # NaN passes a hi <= lo test; either would give NaN spacings.  The
    # last two are finite, but their width overflows or their cells underflow
    extents, npts = (extent, 8) if ndim == 1 else ([(0.0, 1.0), extent], (8, 8))
    with pytest.raises(DomainError, match="finite"):
        make_grid(extents, npts)

@pytest.mark.parametrize("ndim", [1, 2])
def test_underflowing_spacing_fails_the_spot_check(ndim):
    # h^2 underflows to 0, so the stencil is inf and the probes' Re<Av,v> NaN
    extents = (0.0, 1e-200) if ndim == 1 else [(0.0, 1.0), (0.0, 1e-200)]
    grid = ops.dirichlet_grid(extents, (8,) * ndim)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(CoercivityError):
        ops.SparseDiffusionOperator(grid, 1.0, 0.0)

def test_grid_rejects_unknown_boundary():
    with pytest.raises(DomainError):
        ops.Grid(((0.0, 1.0),), (8,), "neumann")


# ------------------------------------------------- sparse diffusion, 1d


def test_laplacian_sine_mode_eigenvalue():
    # lowest discrete sine mode is an exact eigenvector
    M = 31
    g = ops.dirichlet_grid((0.0, 1.0), M)
    h = g.h[0]
    op = ops.SparseDiffusionOperator(g, 1.0, 0.0)
    x = g.axis_nodes(0)
    mode = np.sin(np.pi * x)
    lam = (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
    out = op.apply(0.0, mode)
    np.testing.assert_allclose(out, lam * mode, rtol=1e-12, atol=1e-10)

def test_laplacian_matrix_is_spd_for_real_coefficient():
    g = ops.dirichlet_grid((0.0, 1.0), 24)
    op = ops.SparseDiffusionOperator(g, lambda x, t: 1.0 + 0.5 * np.sin(3 * x), 0.0)
    A = op.assemble(0.3).toarray()
    np.testing.assert_allclose(A.imag, 0.0, atol=0.0)
    np.testing.assert_allclose(A, A.T, rtol=0.0, atol=1e-14)
    eigs = np.linalg.eigvalsh(A.real)
    assert eigs.min() > 0.0

def test_variable_coefficient_second_order_convergence():
    # apply the operator to a smooth function and compare with the
    # continuous -(a u')' at the nodes; error should drop ~4x per halving
    a_expr = lambda x: 1.0 + 0.3 * np.sin(x)
    ap_expr = lambda x: 0.3 * np.cos(x)
    u_expr = lambda x: np.sin(np.pi * x) * x
    up_expr = lambda x: np.pi * np.cos(np.pi * x) * x + np.sin(np.pi * x)
    upp_expr = lambda x: -np.pi**2 * np.sin(np.pi * x) * x + 2 * np.pi * np.cos(np.pi * x)
    errs = []
    for M in (64, 128, 256):
        g = ops.dirichlet_grid((0.0, 1.0), M)
        op = ops.SparseDiffusionOperator(g, lambda x, t: a_expr(x), 0.0)
        x = g.axis_nodes(0)
        exact = -(ap_expr(x) * up_expr(x) + a_expr(x) * upp_expr(x))
        errs.append(np.max(np.abs(op.apply(0.0, u_expr(x)) - exact)))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5

def test_proportional_imaginary_part_hits_sqrt_ratio():
    # b = c*a puts every Rayleigh quotient on the ray of angle atan(c)
    c = 0.7
    g = ops.dirichlet_grid((0.0, 1.0), 40)
    a_fn = lambda x, t: 1.0 + 0.4 * np.cos(2 * x)
    op = ops.SparseDiffusionOperator(g, a_fn, lambda x, t: c * a_fn(x, t))
    A = op.assemble(0.0).toarray()
    lam = stability_constant(A)
    assert lam == pytest.approx(math.sqrt(1.0 + c**2), abs=1e-4)

def test_nonpositive_coefficient_rejected():
    g = ops.dirichlet_grid((0.0, 1.0), 16)
    with pytest.raises(CoercivityError):
        ops.SparseDiffusionOperator(g, lambda x, t: np.cos(4.0 * np.pi * x), 0.0)

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("coeff", ["a", "b"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_nonfinite_coefficient_rejected(ndim, coeff, bad):
    # non-finite on half the interfaces at t = 1 only: the operator is
    # accepted at t = 0 and the build at the new time refuses it
    g = (ops.dirichlet_grid((0.0, 1.0), 16) if ndim == 1
         else ops.dirichlet_grid([(0.0, 1.0), (0.0, 1.0)], (6, 6)))
    field = lambda x, *rest: np.where((x > 0.5) & (rest[-1] > 0.5), bad, 1.0)
    a, b = (field, 0.0) if coeff == "a" else (1.0, field)
    op = ops.SparseDiffusionOperator(g, a, b)
    with pytest.raises(CoercivityError):
        op.shifted_solve(1.0, 1.0, np.ones(g.shape))

def test_shifted_solve_inverts_shifted_matrix():
    g = ops.dirichlet_grid((0.0, 1.0), 32)
    op = ops.SparseDiffusionOperator(g, lambda x, t: 1.0 + 0.2 * x, lambda x, t: 0.1)
    rng = np.random.default_rng(7)
    r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    sigma = 3.7
    u = op.shifted_solve(0.5, sigma, r)
    residual = sigma * u + op.apply(0.5, u) - r
    assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(r))

def test_factorization_cache_reused_when_autonomous():
    g = ops.dirichlet_grid((0.0, 1.0), 16)
    op = ops.SparseDiffusionOperator(g, 2.0, 0.0)
    assert op.autonomous
    r = np.ones(16)
    op.shifted_solve(0.0, 5.0, r)
    count = op.factorization_count
    for t in (0.1, 0.2, 0.3):
        op.shifted_solve(t, 5.0, r)
    assert op.factorization_count == count
    op.shifted_solve(0.4, 6.0, r)  # new shift forces a refactorization
    assert op.factorization_count == count + 1

def test_time_dependent_operator_refactors_per_time():
    g = ops.dirichlet_grid((0.0, 1.0), 16)
    op = ops.SparseDiffusionOperator(g, lambda x, t: 1.0 + 0.5 * np.sin(t), 0.0)
    assert not op.autonomous
    r = np.ones(16)
    op.shifted_solve(0.0, 5.0, r)
    base = op.factorization_count
    op.shifted_solve(0.1, 5.0, r)
    assert op.factorization_count == base + 1
    op.shifted_solve(0.1, 5.0, r)  # same (t, sigma) reuses
    assert op.factorization_count == base + 1

def _fresh_shifted_solve(op, t, sigma, r):
    matrix = (sigma * sp.identity(op.grid.size) + op.assemble(t)).tocsc()
    return sp.linalg.splu(matrix).solve(r.ravel()).reshape(op.grid.shape)

def test_2d_time_dependent_solves_refine_on_one_factor():
    # A(t + 0.05) - A(t) is small, so the factor at t serves the later
    # times through refinement to the accuracy of a fresh factor
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (16, 16))
    coeff = lambda x, y, t: 1.0 + 0.5 * np.sin(x) * np.sin(y) * np.cos(t)
    op = ops.SparseDiffusionOperator(g, coeff, lambda x, y, t: 0.3 * coeff(x, y, t))
    rng = np.random.default_rng(11)
    r = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    sigma, t0 = 30.0, 0.3
    for t in [t0 + 0.01 * j for j in range(6)]:
        u = op.shifted_solve(t, sigma, r)
        ref = _fresh_shifted_solve(op, t, sigma, r)
        assert np.max(np.abs(u - ref)) < 1e-12 * np.max(np.abs(ref))
    assert op.factorization_count == 1

def test_2d_refinement_falls_back_to_refactorizing():
    # a(0) = 1 and a(1) = 1 + 0.9 sin(40) = 1.67: the factor at t = 0 is
    # too far off for the refinement to converge in its step budget
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    op = ops.SparseDiffusionOperator(g, lambda x, y, t: 1.0 + 0.9 * np.sin(40.0 * t) + 0.0 * x, 0.0)
    r = np.random.default_rng(5).standard_normal(g.shape)
    sigma = 1.0
    op.shifted_solve(0.0, sigma, r)
    base = op.factorization_count
    u = op.shifted_solve(1.0, sigma, r)
    assert op.factorization_count == base + 1
    residual = sigma * u + op.apply(1.0, u) - r
    assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(r))
    op.shifted_solve(1.0, sigma, r)  # the new factor is cached
    assert op.factorization_count == base + 1

def test_2d_new_shift_refactorizes():
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    op = ops.SparseDiffusionOperator(g, lambda x, y, t: 1.0 + 0.5 * np.cos(t) + 0.0 * x, 0.2)
    r = np.ones(g.shape)
    op.shifted_solve(0.5, 4.0, r)
    base = op.factorization_count
    u = op.shifted_solve(0.5, 6.0, r)
    assert op.factorization_count == base + 1
    np.testing.assert_allclose(u, _fresh_shifted_solve(op, 0.5, 6.0, r), rtol=1e-12)

def _example1_2d(n, rate=1.0):
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (n, n))
    coeff = lambda x, y, t: 1.0 + 0.5 * np.sin(x) * np.sin(y) * np.cos(rate * t)
    return ops.assemble_example1(g, coeff, lambda x, y, t: 0.3 * coeff(x, y, t))

class FreshSolve:
    """``op``'s shifted solve by a fresh ``splu`` on every call; it is
    duck-typed, so ``run`` passes it no predictor."""

    def __init__(self, op):
        self.op = op

    def shifted_solve(self, t, sigma, r):
        return _fresh_shifted_solve(self.op, t, sigma, r)

    def apply(self, t, v):
        return self.op.apply(t, v)

def _count_factor_solves(monkeypatch) -> list:
    """Patch ``operators.splu``; the list gets one entry per factor solve."""
    solves = []

    class Counted:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, rhs):
            solves.append(rhs.size)
            return self.factor.solve(rhs)

    monkeypatch.setattr(ops, "splu", lambda *args, **kw: Counted(sp.linalg.splu(*args, **kw)))
    return solves

def test_2d_march_from_the_predictor_matches_fresh_factors(monkeypatch):
    # every step of a time-dependent example-1 march refines on the
    # first factor, starting from the stepper's extrapolated state, and
    # lands where a fresh factor at each step would
    k, tau, N = 3, 0.01, 24
    op, term = _example1_2d(16)
    X, Y = op.grid.meshes()
    start = [math.exp(-j * tau) * np.sin(np.pi * X) * np.sin(np.pi * Y) for j in range(k)]
    calls = []
    solve = op.shifted_solve

    def recording(t, sigma, r, predict=None):
        calls.append((t, sigma, r, predict))
        return solve(t, sigma, r, predict)

    monkeypatch.setattr(op, "shifted_solve", recording)
    solves = _count_factor_solves(monkeypatch)
    traj = run(bdf_scheme(k), op, term, start, tau, N)
    ref_op, ref_term = _example1_2d(16)
    ref = run(bdf_scheme(k), FreshSolve(ref_op), ref_term, start, tau, N)
    assert traj.bounded and len(traj.states) == N + 1
    for u, v in zip(traj.states, ref.states):
        assert np.max(np.abs(u - v)) <= 1e-12 * np.max(np.abs(v))
    assert op.factorization_count == 1
    assert len(calls) == N - k + 1 and all(predict is not None for *_, predict in calls)
    # the same solves without the predictor take more factor solves
    with_predict = len(solves)
    solves.clear()
    plain_op, _ = _example1_2d(16)
    for t, sigma, r, _ in calls:
        plain_op.shifted_solve(t, sigma, r)
    assert plain_op.factorization_count == 1
    assert with_predict < len(solves)

def _march_2d(k, tau, N, n, rate=1.0):
    """The manufactured example-1 march to e^-t sin(pi x) sin(pi y) on an
    n x n grid (the benchmark's diffusion_2d at n = 128), checked against
    the same march solved on a fresh factor at every step."""
    op, term = _example1_2d(n, rate)
    X, Y = op.grid.meshes()
    mode = np.sin(np.pi * X) * np.sin(np.pi * Y)
    exact = (lambda t: math.exp(-t) * mode, lambda t: -math.exp(-t) * mode)
    traj = ManufacturedProblem(op.grid, op, term, *exact).solve(bdf_scheme(k), tau, N)
    ref = ManufacturedProblem(op.grid, FreshSolve(op), term, *exact).solve(bdf_scheme(k), tau, N)
    assert traj.bounded and len(traj.states) == N + 1
    for u, v in zip(traj.states, ref.states):
        assert np.max(np.abs(u - v)) <= 1e-12 * np.max(np.abs(v))
    return op, traj


def _gamma_start(monkeypatch):
    """Start each refinement from the gamma extrapolation that B gets."""
    monkeypatch.setattr(
        stepper._StepCore, "predict", lambda core: (core.gamma @ core.hist).reshape(core.shape)
    )


def test_five_state_start_takes_fewer_factor_solves_than_gamma(monkeypatch):
    # the refinement starts from the quartic through the five newest
    # states; from the order-k gamma extrapolation, the same marches take
    # more factor solves (at 16 x 16: 485 against 684 over k = 1..6), and
    # both land where fresh factors do
    solves = _count_factor_solves(monkeypatch)
    counts = {}
    for start in ("five states", "gamma"):
        if start == "gamma":
            _gamma_start(monkeypatch)
        solves.clear()
        for k in range(1, 7):
            op, _ = _march_2d(k, 0.01, 40, 16)
            assert op.factorization_count == 1
        counts[start] = len(solves)
    assert counts["five states"] < counts["gamma"]


def _refine_every_correction(factor, matrix, rhs, start=None):
    """``ops._refine`` without the early stop: it gives up only after
    _REFINE_MAX_STEPS corrections."""
    eps = np.finfo(float).eps
    matrix_norm = np.bincount(matrix.indices, np.abs(matrix.data), matrix.shape[0]).max()
    rhs_norm = np.abs(rhs).max()
    if start is None:
        u = factor.solve(rhs)
    else:
        u = start + factor.solve(rhs - matrix @ start)
    for step in range(ops._REFINE_MAX_STEPS + 1):
        residual = rhs - matrix @ u
        if np.abs(residual).max() <= eps * (matrix_norm * np.abs(u).max() + rhs_norm):
            return u
        if step < ops._REFINE_MAX_STEPS:
            u += factor.solve(residual)
    return None


@pytest.mark.parametrize("start", ["five states", "gamma"])
def test_refinement_stops_when_its_contraction_cannot_reach_the_bound(start, monkeypatch):
    # with a = 1 + 0.5 sin x sin y cos 30t the factor goes stale within a
    # few steps; refinements that end by refactorizing stop as soon as
    # their contraction rules the bound out, so the march takes fewer
    # factor solves than when each spends every correction, with the same
    # refactorizations and bit for bit the same states, which match fresh
    # factors.  At 32 x 32: 585 against 743 solves (26 factorizations)
    # from five states; 611 against 761 (29) from the gamma start
    if start == "gamma":
        _gamma_start(monkeypatch)
    solves = _count_factor_solves(monkeypatch)
    early, early_traj = _march_2d(3, 0.01, 100, 32, rate=30.0)
    early_solves = len(solves)
    solves.clear()
    monkeypatch.setattr(ops, "_refine", _refine_every_correction)
    full, full_traj = _march_2d(3, 0.01, 100, 32, rate=30.0)
    assert early.factorization_count == full.factorization_count > 1
    assert early_solves < len(solves)
    assert np.array_equal(early_traj.states, full_traj.states)


def test_operator_time_continuity():
    g = ops.dirichlet_grid((0.0, 1.0), 20)
    op = ops.SparseDiffusionOperator(g, lambda x, t: 2.0 + np.sin(x + t), 0.0)
    t0 = 0.4
    norm0 = sp.linalg.norm(op.assemble(t0))
    for dt in (1e-2, 1e-3):
        diff = sp.linalg.norm(op.assemble(t0 + dt) - op.assemble(t0))
        assert diff <= 2.0 * dt * norm0

def test_apply_rejects_wrong_shape():
    g = ops.dirichlet_grid((0.0, 1.0), 16)
    op = ops.SparseDiffusionOperator(g, 1.0, 0.0)
    with pytest.raises(DomainError):
        op.apply(0.0, np.ones(17))


# ------------------------------------------------- sparse diffusion, 2d


def test_laplacian_2d_sine_mode():
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (15, 15))
    hx, hy = g.h
    op = ops.SparseDiffusionOperator(g, 1.0, 0.0)
    X, Y = g.meshes()
    mode = np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    lam = (4.0 / hx**2) * math.sin(math.pi * hx / 2) ** 2 + (
        4.0 / hy**2
    ) * math.sin(2 * math.pi * hy / 2) ** 2
    np.testing.assert_allclose(op.apply(0.0, mode), lam * mode, rtol=1e-11, atol=1e-9)

def test_2d_matrix_symmetric_for_real_coefficient():
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 2.0)), (6, 8))
    op = ops.SparseDiffusionOperator(
        g, lambda x, y, t: 1.0 + 0.3 * np.sin(x) * np.cos(y), 0.0
    )
    A = op.assemble(0.0).toarray()
    np.testing.assert_allclose(A, A.T, atol=1e-13)
    assert np.linalg.eigvalsh(A.real).min() > 0.0

def test_periodic_1d_constant_mode_in_kernel():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    op = ops.SparseDiffusionOperator(g, lambda x, t: 1.0 + 0.5 * np.sin(x), 0.0)
    out = op.apply(0.0, np.ones(16))
    assert np.max(np.abs(out)) < 1e-12

def test_periodic_2d_row_sums_vanish():
    g = ops.periodic_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    op = ops.SparseDiffusionOperator(
        g, lambda x, y, t: 1.0 + 0.2 * np.cos(2 * np.pi * x), 0.0
    )
    A = op.assemble(0.0)
    sums = np.asarray(A.sum(axis=1)).ravel()
    assert np.max(np.abs(sums)) < 1e-10


# ------------------------------------- sparse diffusion, loop reference


def _loop_reference_matrix(extents, npts, periodic, coeff, t):
    """Dense -div(c grad .) written out node by node: each node couples
    to its neighbour across every cell face with weight -c(face)/h^2,
    c sampled at the face midpoint, and the diagonal sums the faces.
    Dirichlet faces at the boundary touch a zero value, periodic faces
    wrap around."""
    h = [(hi - lo) / (n if periodic else n + 1) for (lo, hi), n in zip(extents, npts)]
    size = math.prod(npts)
    ref = np.zeros((size, size), dtype=complex)
    for row in range(size):
        idx, rest = [], row
        for n in reversed(npts):
            idx.insert(0, rest % n)
            rest //= n
        x = [lo + (i if periodic else i + 1) * hh for (lo, _), i, hh in zip(extents, idx, h)]
        for axis in range(len(npts)):
            for step in (-1, 1):
                face = list(x)
                face[axis] += 0.5 * step * h[axis]
                weight = coeff(*face, t) / h[axis] ** 2
                ref[row, row] += weight
                j = idx[axis] + step
                if periodic:
                    j %= npts[axis]
                elif not 0 <= j < npts[axis]:
                    continue
                nbr = list(idx)
                nbr[axis] = j
                col = 0
                for i, n in zip(nbr, npts):
                    col = col * n + i
                ref[row, col] -= weight
    return ref


# Coefficients periodic on the grids below, so a face sampled across
# the periodic seam has the same value from either side.
def _coeff_1d(x, t):
    a = 1.5 + 0.5 * np.sin(2.0 * np.pi * x) * np.cos(t)
    b = 0.4 * np.cos(2.0 * np.pi * x + t)
    return a, b


def _coeff_2d(x, y, t):
    a = 1.5 + 0.4 * np.sin(2.0 * np.pi * x) * np.cos(np.pi * y + t)
    b = 0.3 * np.cos(2.0 * np.pi * x - np.pi * y + 2.0 * t)
    return a, b


@pytest.mark.parametrize(
    "extents, npts, boundary",
    [
        (((0.0, 1.0),), (11,), ops.DIRICHLET),
        (((0.0, 1.0),), (10,), ops.PERIODIC),
        (((0.0, 1.0), (0.0, 2.0)), (6, 7), ops.DIRICHLET),
        (((0.0, 1.0), (0.0, 2.0)), (6, 5), ops.PERIODIC),
    ],
    ids=["1d-dirichlet", "1d-periodic", "2d-dirichlet", "2d-periodic"],
)
def test_assembly_matches_loop_reference(extents, npts, boundary):
    coeff = _coeff_1d if len(npts) == 1 else _coeff_2d
    g = ops.Grid(extents, npts, boundary)
    op = ops.SparseDiffusionOperator(
        g, lambda *args: coeff(*args)[0], lambda *args: coeff(*args)[1]
    )
    assert not op.autonomous
    rng = np.random.default_rng(3)
    for t in (0.3, 1.7):
        ref = _loop_reference_matrix(
            extents, npts, boundary == ops.PERIODIC, lambda *a: complex(*coeff(*a)), t
        )
        A = op.assemble(t)
        assert sp.isspmatrix_csc(A)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(A.toarray() - ref)) <= 1e-14 * scale
        sigma = 4.0 / t
        r = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
        u = op.shifted_solve(t, sigma, r).ravel()
        residual = sigma * u + ref @ u - r.ravel()
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(r)

def test_assembly_sign_error_raises_coercivity_error():
    # a > 0 at every face, so the midpoint check passes; only the spot
    # check on the assembled matrix sees the negated stencil
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (6, 6))
    op = ops.SparseDiffusionOperator(g, lambda x, y, t: 1.0 + 0.5 * np.sin(x + t), 0.2)
    op.assemble(0.5)
    build = op._build
    op._build = lambda t: -build(t)
    with pytest.raises(CoercivityError):
        op.assemble(0.7)


def _stencil_formula_matrix(grid, a, b, t):
    """Dense 2-d A(t) entry by entry: node sums (c_lo + c_hi) / h^2 over
    both axes on the diagonal, -c / h^2 between neighbours, with c the
    coefficient at the interface between them."""
    periodic = grid.boundary == ops.PERIODIC
    nx, ny = grid.npts
    hx, hy = grid.h
    shift = -0.5 if periodic else 0.5
    # interface j lies between nodes j-1 and j
    mids = [lo + h * (np.arange(n if periodic else n + 1) + shift)
            for (lo, _), n, h in zip(grid.extents, grid.npts, grid.h)]
    xs, ys = grid.axis_nodes(0), grid.axis_nodes(1)
    cx, cy = (
        a(*coords, t) + 1j * b(*coords, t)
        for coords in (np.meshgrid(mids[0], ys, indexing="ij"),
                       np.meshgrid(xs, mids[1], indexing="ij"))
    )
    ref = np.zeros((grid.size, grid.size), dtype=complex)
    for i in range(nx):
        for j in range(ny):
            row = i * ny + j
            up_x, up_y = (i + 1) % cx.shape[0], (j + 1) % cy.shape[1]
            ref[row, row] = (
                0.0 + (cx[i, j] + cx[up_x, j]) / hx**2 + (cy[i, j] + cy[i, up_y]) / hy**2
            )
            if periodic or i + 1 < nx:
                col = (i + 1) % nx * ny + j
                ref[row, col] = ref[col, row] = -cx[up_x, j] / hx**2
            if periodic or j + 1 < ny:
                col = i * ny + (j + 1) % ny
                ref[row, col] = ref[col, row] = -cy[i, up_y] / hy**2
    return ref


@pytest.mark.parametrize("npts", [(7, 5), (6, 6)])
@pytest.mark.parametrize(
    "make_grid", [ops.dirichlet_grid, ops.periodic_grid], ids=["dirichlet", "periodic"]
)
def test_gathered_build_is_the_stencil_formula_bit_for_bit(make_grid, npts):
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), npts)
    a = lambda x, y, t: _coeff_2d(x, y, t)[0]  # noqa: E731
    b = lambda x, y, t: _coeff_2d(x, y, t)[1]  # noqa: E731
    op = ops.SparseDiffusionOperator(g, a, b)
    for t in (0.3, 1.7):
        A = op.assemble(t)
        ref = _stencil_formula_matrix(g, a, b, t)
        # every stencil entry is stored, and nothing else
        assert A.nnz == np.count_nonzero(ref)
        bits = np.ascontiguousarray(A.toarray()).view(np.uint64)
        np.testing.assert_array_equal(bits, ref.view(np.uint64))


def test_assembled_2d_matrix_is_read_only():
    # assemble hands out the cached matrix, so an in-place edit would
    # change the next solve at that time
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (6, 5))
    op = ops.SparseDiffusionOperator(g, lambda x, y, t: 1.0 + 0.5 * np.sin(x + t), 0.2)
    r = np.ones(g.shape, dtype=complex)
    u = op.shifted_solve(0.5, 3.0, r)
    A = op.assemble(0.5)
    with pytest.raises(ValueError):
        A.data *= 2
    for arr in (A.data, A.indices, A.indptr):
        assert not arr.flags.writeable
    assert op.assemble(0.5) is A
    # the pattern is canonical, so scipy never sorts it in place
    A.sort_indices()
    A.sum_duplicates()
    sp.linalg.splu(A)
    fresh = ops.SparseDiffusionOperator(g, lambda x, y, t: 1.0 + 0.5 * np.sin(x + t), 0.2)
    np.testing.assert_array_equal(op.shifted_solve(0.5, 3.0, r), u)
    np.testing.assert_array_equal(fresh.shifted_solve(0.5, 3.0, r), u)

@pytest.mark.parametrize(
    "make_grid", [ops.dirichlet_grid, ops.periodic_grid], ids=["dirichlet", "periodic"]
)
def test_1d_band_path_matches_assembled_matrix(make_grid):
    g = make_grid((0.0, 1.0), 40)
    op = ops.SparseDiffusionOperator(
        g, lambda x, t: _coeff_1d(x, t)[0], lambda x, t: _coeff_1d(x, t)[1]
    )
    rng = np.random.default_rng(5)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    eps = np.finfo(float).eps
    for t in (0.3, 1.7):
        A = op.assemble(t)
        # the band product rounds like the CSC matvec up to the complex
        # multiply (numpy's may fuse) and the order of a periodic row's sum
        bound = 4 * eps * (abs(A) @ np.abs(v))
        assert np.all(np.abs(op.apply(t, v) - A @ v) <= bound)
        # the solve factors exactly the bands of the assembled matrix
        sigma = 4.0 / t
        corners = [A[0, 39], A[39, 0]] if make_grid is ops.periodic_grid else []
        lu = ops._TridiagonalLU(
            A.diagonal(-1), A.diagonal() + sigma, A.diagonal(1), np.array(corners, dtype=complex)
        )
        np.testing.assert_array_equal(op.shifted_solve(t, sigma, v), lu.solve(v))

@pytest.mark.parametrize("call", ["apply", "shifted_solve"])
@pytest.mark.parametrize(
    "make_grid", [ops.dirichlet_grid, ops.periodic_grid], ids=["dirichlet", "periodic"]
)
def test_1d_band_sign_error_raises_coercivity_error(make_grid, call):
    # as in 2-d: only the spot check on the built bands sees the sign
    g = make_grid((0.0, 1.0), 12)
    op = ops.SparseDiffusionOperator(g, lambda x, t: 1.0 + 0.5 * np.sin(x + t), 0.2)
    op.apply(0.5, np.ones(12))
    build = op._build
    op._build = lambda t: tuple(-band for band in build(t))
    with pytest.raises(CoercivityError):
        if call == "apply":
            op.apply(0.7, np.ones(12))
        else:
            op.shifted_solve(0.7, 1.0, np.ones(12))

def test_coercivity_probes_drawn_once_per_shape():
    rng = np.random.default_rng(12345)
    probes = ops._coercivity_probes((5, 3))
    assert len(probes) == 4
    for v in probes:
        np.testing.assert_array_equal(
            v, rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        )
        assert not v.flags.writeable
    assert ops._coercivity_probes((5, 3)) is probes
    for periodic in (False, True):
        forms = ops._band_forms(7, periodic)
        assert forms.shape == (4, 3 * 7 - 2 + 2 * periodic)
        assert not forms.flags.writeable
        assert ops._band_forms(7, periodic) is forms
        # 2-d: the node sums, then the 6 x 3 (periodic 5 x 3) interfaces
        # of axis 0 and the 5 x 4 (5 x 3) of axis 1
        forms = ops._stencil_forms((5, 3), periodic)
        assert forms.shape == (4, 45 if periodic else 15 + 18 + 20)
        assert forms.dtype == float
        assert not forms.flags.writeable
        assert ops._stencil_forms((5, 3), periodic) is forms

@pytest.mark.parametrize(
    "make_grid", [ops.dirichlet_grid, ops.periodic_grid], ids=["dirichlet", "periodic"]
)
def test_band_forms_match_band_product(make_grid):
    # the spot check's Re<Av, v> against the probes multiplied out
    n = 40
    g = make_grid((0.0, 1.0), n)
    op = ops.SparseDiffusionOperator(
        g, lambda x, t: _coeff_1d(x, t)[0], lambda x, t: _coeff_1d(x, t)[1]
    )
    probes = ops._coercivity_probes((n,))
    forms = ops._band_forms(n, make_grid is ops.periodic_grid)
    for t in (0.3, 1.7):
        bands = op._stencil(t)
        reference = np.vecdot(probes, ops._band_product(bands, probes)).real
        assert np.all(reference > 0.0)
        np.testing.assert_allclose(
            (forms @ np.concatenate(bands)).real, reference, rtol=1e-13, atol=0.0
        )
    # unrelated sub- and super-diagonals, corners and signs
    rng = np.random.default_rng(8)
    bands = [rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size) for band in bands]
    reference = np.vecdot(probes, ops._band_product(bands, probes)).real
    scale = np.abs(forms) @ np.abs(np.concatenate(bands))
    assert np.all(np.abs((forms @ np.concatenate(bands)).real - reference) <= 1e-13 * scale)

@pytest.mark.parametrize(
    "make_grid", [ops.dirichlet_grid, ops.periodic_grid], ids=["dirichlet", "periodic"]
)
def test_stencil_forms_match_matrix_product(make_grid):
    # the 2-d spot check's Re<Av, v> against the probes multiplied out
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), (9, 7))
    a = lambda x, y, t: _coeff_2d(x, y, t)[0]  # noqa: E731
    b = lambda x, y, t: _coeff_2d(x, y, t)[1]  # noqa: E731
    op = ops.SparseDiffusionOperator(g, a, b)
    probes = ops._coercivity_probes(g.shape).reshape(4, -1)
    forms = ops._stencil_forms(g.shape, make_grid is ops.periodic_grid)
    for t in (0.3, 1.7):
        entries = op._build(t)
        reference = np.vecdot(probes, (op.assemble(t) @ probes.T).T).real
        assert np.all(reference > 0.0)
        np.testing.assert_allclose(forms @ entries.real, reference, rtol=1e-13, atol=0.0)
    # unrelated node sums and links, of either sign
    rng = np.random.default_rng(8)
    entries = rng.standard_normal(entries.size) + 1j * rng.standard_normal(entries.size)
    matrix = op._csc(entries[op._gather])
    reference = np.vecdot(probes, (matrix @ probes.T).T).real
    scale = np.abs(forms) @ np.abs(entries.real)
    assert np.all(np.abs(forms @ entries.real - reference) <= 1e-13 * scale)


@pytest.mark.parametrize("ratio", [0.0, 1.3, 14.5])
@pytest.mark.parametrize("n", [4, 48])
@pytest.mark.parametrize(
    "make_grid", [ops.dirichlet_grid, ops.periodic_grid], ids=["dirichlet", "periodic"]
)
def test_1d_shifted_solve_matches_dense(make_grid, n, ratio):
    g = make_grid((0.0, 1.0), n)
    coeff = lambda x, t: 1.0 + 0.5 * np.sin(2.0 * np.pi * x + t)
    op = ops.SparseDiffusionOperator(g, coeff, lambda x, t: ratio * coeff(x, t))
    rng = np.random.default_rng(n)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for t in (0.0, 0.7):
        for sigma in (1e-3, 40.0):
            count = op.factorization_count
            u = op.shifted_solve(t, sigma, r)
            assert op.factorization_count == count + 1
            dense = sigma * np.eye(n) + op.assemble(t).toarray()
            backward = np.linalg.norm(dense @ u - r) / (
                np.linalg.norm(dense, 2) * np.linalg.norm(u) + np.linalg.norm(r)
            )
            assert backward <= 1e-14
            ref = np.linalg.solve(dense, r)
            cond = np.linalg.cond(dense)
            assert np.linalg.norm(u - ref) <= 1e-14 * cond * np.linalg.norm(ref)
            op.shifted_solve(t, sigma, r)  # a repeat reuses the factor
            assert op.factorization_count == count + 1

def test_tridiagonal_factor_raises_on_exact_singularity():
    empty = np.empty(0, dtype=complex)
    # zero first column: zgttrf meets an exactly zero pivot
    with pytest.raises(RuntimeError, match="singular"):
        ops._TridiagonalLU(
            np.array([0, 1, 1], dtype=complex), np.array([0, 2, 2, 2], dtype=complex),
            np.ones(3, dtype=complex), empty,
        )
    # M = I with corners 1, 1: rows 0 and 3 agree, T = diag(2, 1, 1, 2) is
    # regular and the Sherman-Morrison denominator 1 + v.z is exactly 0
    with pytest.raises(RuntimeError, match="singular"):
        ops._TridiagonalLU(
            np.zeros(3, dtype=complex), np.ones(4, dtype=complex),
            np.zeros(3, dtype=complex), np.ones(2, dtype=complex),
        )
    # gamma = -M[0, 0] = 0 leaves no Sherman-Morrison splitting
    with pytest.raises(RuntimeError, match="nonzero M"):
        ops._TridiagonalLU(
            np.ones(3, dtype=complex), np.array([0, 2, 2, 2], dtype=complex),
            np.ones(3, dtype=complex), np.ones(2, dtype=complex),
        )

def test_2d_factor_uses_fill_reducing_order():
    g = ops.dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    op = ops.SparseDiffusionOperator(g, 1.0, 0.5)
    op.shifted_solve(0.0, 40.0, np.ones((8, 8)))
    assert not np.array_equal(op._factor.perm_c, np.arange(64))


SOLVE_CASES = {
    "1d-dirichlet": lambda: ops.SparseDiffusionOperator(
        ops.dirichlet_grid((0.0, 1.0), 12), lambda x, t: 1.0 + 0.3 * np.sin(x + t), 0.4
    ),
    "1d-periodic": lambda: ops.SparseDiffusionOperator(
        ops.periodic_grid((0.0, 1.0), 12), lambda x, t: 1.0 + 0.3 * np.sin(x + t), 0.4
    ),
    "2d": lambda: ops.SparseDiffusionOperator(
        ops.dirichlet_grid([(0.0, 1.0), (0.0, 1.0)], (6, 5)),
        lambda x, y, t: 1.0 + 0.3 * np.sin(x + y + t),
        0.4,
    ),
    "spectral": lambda: ops.assemble_example3(ops.periodic_grid((0.0, 2.0 * np.pi), 16))[0],
}
# a new factor, the cached one, then a new time: a new 1-d factor, a
# refinement in 2-d
SOLVE_TIMES = [(0.0, 1), (0.0, 0), (0.02, 1)]


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_shifted_solve_never_overwrites_its_right_hand_side(name):
    A = SOLVE_CASES[name]()
    rng = np.random.default_rng(8)
    shape = A.grid.shape
    for t, new_factors in SOLVE_TIMES:
        r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = r.tobytes()
        count = A.factorization_count
        u = A.shifted_solve(t, 7.0, r, predict=lambda: np.zeros(shape, complex))
        if name != "spectral":
            assert A.factorization_count - count == (0 if name == "2d" and t else new_factors)
        assert r.tobytes() == kept
        assert u.shape == shape and not np.shares_memory(u, r)


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_in_place_solve_matches_shifted_solve_bitwise(name):
    # the stepper's solve overwrites a row of its trajectory block
    public, in_place = SOLVE_CASES[name](), SOLVE_CASES[name]()
    rng = np.random.default_rng(9)
    shape = public.grid.shape
    block = np.zeros((3, public.grid.size), complex)
    for t, _ in SOLVE_TIMES:
        r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = public.shifted_solve(t, 7.0, r)
        block[1] = r.ravel()
        in_place._solve_in_place(t, 7.0, block[1])
        assert block[1].tobytes() == u.tobytes()
        assert not block[0].any() and not block[2].any()
    assert in_place.factorization_count == public.factorization_count


@pytest.mark.parametrize("make_grid", [ops.dirichlet_grid, ops.periodic_grid])
def test_1d_cached_in_place_solve_skips_the_public_solve(make_grid, monkeypatch):
    A = ops.SparseDiffusionOperator(make_grid((0.0, 1.0), 16), 1.0, 0.4)
    row = np.ones(16, complex)
    A._solve_in_place(0.0, 3.0, row)  # the factor
    expected = A.shifted_solve(0.0, 3.0, np.ones(16))

    def refuse(*args):
        raise AssertionError("an in-place solve went through shifted_solve")

    monkeypatch.setattr(A, "shifted_solve", refuse)
    row[:] = 1.0
    A._solve_in_place(5.0, 3.0, row)  # autonomous: any time hits the cache
    assert row.tobytes() == expected.tobytes()
    row[:] = 1.0
    A._solve_in_place(0.0, 4.0, row)  # a new shift factors and solves in the row too
    assert A.factorization_count == 2
    fresh = ops.SparseDiffusionOperator(make_grid((0.0, 1.0), 16), 1.0, 0.4)
    assert row.tobytes() == fresh.shifted_solve(0.0, 4.0, np.ones(16)).tobytes()


def test_1d_cached_in_place_solve_of_an_object_row():
    # zgttrs cannot overwrite an object row (states of mpmath numbers),
    # so the solution is copied in
    A = ops.SparseDiffusionOperator(ops.periodic_grid((0.0, 1.0), 8), 1.0, 0.4)
    r = np.linspace(1.0, 2.0, 8) + 0.5j
    expected = A.shifted_solve(0.0, 3.0, r)
    row = r.astype(object)
    A._solve_in_place(0.0, 3.0, row)
    assert row.dtype == object
    np.testing.assert_array_equal(row.astype(complex), expected)


def test_1d_cached_dirichlet_step_allocates_no_state():
    g = ops.dirichlet_grid((0.0, 1.0), 512)
    A = ops.SparseDiffusionOperator(g, 1.0, 2.0)
    block = np.random.default_rng(1).standard_normal((6, 512)) + 0j
    core = stepper._StepCore(bdf_scheme(5), A, 0.01, block[:5], None)
    core.row = block[5]
    core.step(0.0, None)  # factors
    tracemalloc.start()
    try:
        for _ in range(20):
            core.step(0.0, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block[5].nbytes  # 8 kB; no state-sized array was made


# ------------------------------------------------------------- spectral


def test_spectral_half_laplacian_single_mode():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 32)
    op, _ = ops.assemble_example3(g)
    x = g.axis_nodes(0)
    mode = np.exp(3j * x)
    out = op.apply(0.0, mode)
    np.testing.assert_allclose(out, 3.0 * mode, rtol=1e-12, atol=1e-12)

def test_spectral_symbol_zero_on_constant_mode():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    op, _ = ops.assemble_example3(g)
    assert op.symbol.ravel()[0] == 0.0
    out = op.apply(0.0, np.full(16, 2.0))
    assert np.max(np.abs(out)) < 1e-14

def test_spectral_biharmonic_symbol_is_squared_laplacian():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 24)
    op4, _ = ops.assemble_example4(g)
    x = g.axis_nodes(0)
    mode = np.exp(2j * x)
    np.testing.assert_allclose(op4.apply(0.0, mode), 16.0 * mode, rtol=1e-12)

def test_spectral_shifted_solve_commutes_with_apply():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 64)
    op, _ = ops.assemble_example3(g)
    rng = np.random.default_rng(11)
    r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    sigma = 2.5
    u = op.shifted_solve(0.0, sigma, r)
    residual = sigma * u + op.apply(0.0, u) - r
    assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(r))

def test_spectral_requires_periodic_grid():
    g = ops.dirichlet_grid((0.0, 1.0), 16)
    with pytest.raises(ConfigError):
        ops.assemble_example3(g)
    with pytest.raises(ConfigError):
        ops.assemble_example4(g)

def test_spectral_rejects_negative_symbol():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    with pytest.raises(CoercivityError):
        ops.SpectralDiagonalOperator(g, -np.ones(16))

def test_spectral_rejects_complex_symbol():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    with pytest.raises(UnsupportedOperationError):
        ops.SpectralDiagonalOperator(g, np.ones(16) + 0j)

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_rejects_non_finite_symbol(bad):
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    symbol = np.ones(16)
    symbol[3] = bad
    with pytest.raises(CoercivityError):
        ops.SpectralDiagonalOperator(g, symbol)


def test_spectral_rejects_non_finite_shift_on_every_call():
    op, _ = ops.assemble_example3(ops.periodic_grid((0.0, 2.0 * np.pi), 16))
    r = np.ones(16, complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from a NaN division
        for _ in range(2):
            with pytest.raises(DomainError, match="positive"):
                op.shifted_solve(0.0, np.nan, r)
            with pytest.raises(DomainError, match="positive"):
                op._solve_in_place(0.0, np.nan, r.copy())
    with pytest.raises(DomainError, match="positive"):
        op.shifted_solve(0.0, 0.0, r)  # the zero mode of |xi| needs sigma > 0
    assert op._denom_cache == (None, None)  # only checked denominators are kept


def _both_bases(example, n):
    """Example 3's or 4's operator on an n-point torus and the same symbol
    in the coefficient basis."""
    fourier, _ = example(ops.periodic_grid((0.0, 2.0 * np.pi), n))
    return fourier, ops.SpectralDiagonalOperator(None, fourier.symbol)


@pytest.mark.parametrize("example", [ops.assemble_example3, ops.assemble_example4])
@pytest.mark.parametrize("n", [16, 64])
def test_fourier_basis_is_the_coefficient_basis_between_transforms(example, n):
    fourier, coeff = _both_bases(example, n)
    rng = np.random.default_rng(n)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for sigma in (0.5, 40.0):
        expected = np.fft.ifftn(coeff.shifted_solve(0.0, sigma, np.fft.fftn(r)))
        assert fourier.shifted_solve(0.0, sigma, r).tobytes() == expected.tobytes()
        row = r.copy()
        fourier._solve_in_place(0.0, sigma, row)
        assert row.tobytes() == expected.tobytes()
    expected = np.fft.ifftn(coeff.apply(0.0, np.fft.fftn(r)))
    assert fourier.apply(0.0, r).tobytes() == expected.tobytes()


@pytest.mark.parametrize("example", [ops.assemble_example3, ops.assemble_example4])
def test_spectral_denominator_is_formed_once_per_shift(example):
    r = np.ones(16, complex)
    for op in _both_bases(example, 16):
        op.shifted_solve(0.0, 2.5, r)
        key, denom = op._denom_cache
        assert key == 2.5
        np.testing.assert_array_equal(denom, 2.5 + op.symbol)
        op.shifted_solve(0.0, 2.5, r)
        op._solve_in_place(0.0, 2.5, r.copy())
        assert op._denom_cache[1] is denom
        op._solve_in_place(0.0, 3.0, r.copy())
        assert op._denom_cache[0] == 3.0 and op._denom_cache[1] is not denom


def test_spectral_in_place_solve_of_an_object_row():
    # fftn cannot transform an object row (states of mpmath numbers) in
    # place, so the solution is copied in
    op, _ = ops.assemble_example3(ops.periodic_grid((0.0, 2.0 * np.pi), 8))
    r = np.linspace(1.0, 2.0, 8) + 0.5j
    row = r.astype(object)
    op._solve_in_place(0.0, 3.0, row)
    assert row.dtype == object
    np.testing.assert_array_equal(row.astype(complex), op.shifted_solve(0.0, 3.0, r))


def test_cached_fourier_step_allocates_no_state():
    op, _ = ops.assemble_example3(ops.periodic_grid((0.0, 2.0 * np.pi), 512))
    block = np.random.default_rng(1).standard_normal((6, 512)) + 0j
    core = stepper._StepCore(bdf_scheme(5), op, 0.01, block[:5], None)
    core.row = block[5]
    core.step(0.0, None)  # forms sigma + symbol
    tracemalloc.start()
    try:
        for _ in range(20):
            core.step(0.0, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the row is transformed within itself (the FFT's scratch is about one
    # row), where copying shifted_solve's fresh array in peaked at 29 kB
    assert peak < 2 * block[5].nbytes


# ------------------------------------------------------ nonlinear terms


def test_divergence_of_flux_periodic_oracle():
    # g(u) = e^u with u = sin(x): div g = cos(x) e^{sin x}; centered
    # differences converge at second order on the torus
    errs = []
    for M in (64, 128):
        g = ops.periodic_grid((0.0, 2.0 * np.pi), M)
        x = g.axis_nodes(0)
        term = ops.DivergenceFormTerm(g, g=lambda v, x_, t: np.exp(v))
        u = np.sin(x)
        exact = np.cos(x) * np.exp(np.sin(x))
        errs.append(np.max(np.abs(term.evaluate(0.0, u) - exact)))
    assert errs[0] / errs[1] > 3.5

def test_divergence_flux_dirichlet_uses_boundary_extension():
    # u vanishing at the boundary: padded values supply g(0) there, so
    # the interior divergence is still second-order accurate
    errs = []
    for M in (63, 127):
        g = ops.dirichlet_grid((0.0, 1.0), M)
        x = g.axis_nodes(0)
        term = ops.DivergenceFormTerm(g, g=lambda v, x_, t: v**2 / 2.0)
        u = np.sin(np.pi * x)
        exact = np.sin(np.pi * x) * np.pi * np.cos(np.pi * x)
        errs.append(np.max(np.abs(term.evaluate(0.0, u) - exact)))
    assert errs[0] / errs[1] > 3.5

def test_divergence_form_runs_no_gradient_code(monkeypatch):
    # div g(v) needs only the padded state; the gradients are the job of
    # GradientFormTerm
    def no_gradients(*args):
        raise AssertionError("DivergenceFormTerm computed gradients")

    monkeypatch.setattr(ops, "grid_gradient", no_gradients)
    for g in (ops.dirichlet_grid((0.0, 1.0), 12), ops.periodic_grid((0.0, 1.0), 12)):
        term = ops.DivergenceFormTerm(g, g=lambda v, x_, t: v**2)
        assert np.all(np.isfinite(term.evaluate(0.0, np.linspace(0.1, 0.9, 12))))

@pytest.mark.parametrize("zero_axis", [0, 1])
@pytest.mark.parametrize(
    "make_grid", [ops.dirichlet_grid, ops.periodic_grid], ids=["dirichlet", "periodic"]
)
def test_divergence_form_none_component_is_a_zero_flux(make_grid, zero_axis):
    # None stands for an identically zero component, bit for bit
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), (9, 7))

    def flux(zero):
        def g_(v, x_, t):
            comps = [np.exp(v) * np.cos(x_[0] + t)] * 2
            comps[zero_axis] = zero(v)
            return tuple(comps)

        return ops.DivergenceFormTerm(g, g=g_)

    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    skipped = flux(lambda v: None).evaluate(0.4, v)
    zeros = flux(np.zeros_like).evaluate(0.4, v)
    np.testing.assert_array_equal(skipped.view(np.uint64), zeros.view(np.uint64))


def test_gradient_drag_default_oracle():
    # f(u, p) = -|p|^4 u with u = sin x: exact value -cos^4(x) sin(x)
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 256)
    x = g.axis_nodes(0)
    _, term = ops.assemble_example2(g, 1.0, 0.0)
    u = np.sin(x)
    exact = -np.cos(x) ** 4 * np.sin(x)
    err = np.max(np.abs(term.evaluate(0.0, u) - exact))
    assert err < 5e-3  # centered-difference gradient, second order

def test_gradient_form_one_sided_boundary_converges():
    # Dirichlet: gradient handed to f must be second order including
    # near the boundary
    errs = []
    for M in (63, 127):
        g = ops.dirichlet_grid((0.0, 1.0), M)
        x = g.axis_nodes(0)
        term = ops.GradientFormTerm(g, f=lambda v, p, x_, t: p)
        u = np.sin(np.pi * x)
        exact = np.pi * np.cos(np.pi * x)
        errs.append(np.max(np.abs(term.evaluate(0.0, u) - exact)))
    assert errs[0] / errs[1] > 3.5

def test_pointwise_expm1_default():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    _, term = ops.assemble_example3(g)
    v = np.linspace(-1.0, 1.0, 16)
    np.testing.assert_allclose(term.evaluate(0.0, v), np.expm1(v), rtol=1e-14)

def test_laplacian_of_double_well_sympy_oracle():
    # B(u) = Laplacian(u^3 - u) with u = sin x, reference via sympy
    xs = sympy.symbols("x")
    expr = sympy.diff(sympy.sin(xs) ** 3 - sympy.sin(xs), xs, 2)
    ref = sympy.lambdify(xs, expr, "numpy")
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 64)
    x = g.axis_nodes(0)
    _, term = ops.assemble_example4(g)
    out = term.evaluate(0.0, np.sin(x))
    np.testing.assert_allclose(out.real, ref(x), atol=1e-10)
    assert np.max(np.abs(out.imag)) < 1e-12

def test_scaled_sum_term_combines_linearly():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    t1 = ops.PointwiseTerm(g, lambda u: u**3)
    t2 = ops.PointwiseTerm(g, np.expm1)
    combo = ops.ScaledSumTerm([(2.0, t1), (-1.0, t2)])
    v = np.linspace(-0.5, 0.5, 16)
    np.testing.assert_allclose(
        combo.evaluate(0.0, v), 2.0 * v**3 - np.expm1(v), rtol=1e-13
    )

def test_scaled_sum_rejects_empty():
    with pytest.raises(DomainError):
        ops.ScaledSumTerm([])


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
def test_scaled_sum_rejects_non_finite_coefficient(coeff):
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    with pytest.raises(DomainError, match="finite"):
        ops.ScaledSumTerm([(1.0, ops.PointwiseTerm(g, np.sin)), (coeff, ops.PointwiseTerm(g, abs))])


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@pytest.mark.parametrize(
    "grid",
    [ops.dirichlet_grid((0.0, 1.0), 24), ops.periodic_grid((0.0, 2.0), 24),
     ops.dirichlet_grid([(0.0, 1.0), (0.0, 2.0)], (9, 7))],
    ids=["dirichlet-1d", "periodic-1d", "dirichlet-2d"],
)
def test_example1_explicit_side_is_its_two_parts_summed_bit_for_bit(grid):
    _, B = ops.assemble_example1(grid, 1.0, 0.3)
    sink = ops.NONLINEARITY_REGISTRY["cubic_sink"](grid)
    flux = ops.NONLINEARITY_REGISTRY["exp_flux_div"](grid)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    v.flat[0] = -0.0  # a signed zero, where a sum started from +0.0 would differ
    expected = sink.evaluate(0.3, v) + flux.evaluate(0.3, v)
    np.testing.assert_array_equal(_bits(B.evaluate(0.3, v)), _bits(expected))


def test_scaled_sum_over_identity_writes_no_part_value():
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    values = []  # (value a part returned, its copy)

    class Recorded(ops.NonlinearTerm):
        def __init__(self, term):
            self.term, self.grid = term, term.grid

        def evaluate(self, t, v):
            out = self.term.evaluate(t, v)
            values.append((out, out.copy()))
            return out

    identity = Recorded(ops.PointwiseTerm(g, lambda u: u))
    combo = ops.ScaledSumTerm(
        [(1.0, identity), (1.0, identity), (-0.5, Recorded(ops.PointwiseTerm(g, np.expm1)))]
    )
    v = np.linspace(-0.5, 0.5, 16).astype(complex)
    before = v.copy()
    out = combo.evaluate(0.0, v)
    np.testing.assert_array_equal(v, before)
    assert values[0][0] is v and len(values) == 3
    for value, copy in values:
        np.testing.assert_array_equal(value, copy)
    np.testing.assert_allclose(out, 2.0 * v - 0.5 * np.expm1(v), rtol=1e-15)


@pytest.mark.parametrize(
    "grid, axis",
    [(ops.dirichlet_grid((0.0, 1.0), 12), 0), (ops.periodic_grid((0.0, 1.0), 12), 0),
     (ops.dirichlet_grid([(0.0, 1.0), (0.0, 2.0)], (8, 6)), 0),
     (ops.periodic_grid([(0.0, 1.0), (0.0, 2.0)], (8, 6)), 1)],
    ids=["dirichlet-1d", "periodic-1d", "dirichlet-2d-x", "periodic-2d-y"],
)
def test_one_component_divergence_is_its_difference_bit_for_bit(grid, axis):
    rng = np.random.default_rng(5)
    shape = ops._pad(np.zeros(grid.shape), grid).shape
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w[..., 0] = -0.0  # differences of signed zeros may be -0.0
    comps = [None] * grid.ndim
    comps[axis] = w
    div = ops._centered_divergence(comps, grid)
    np.testing.assert_array_equal(_bits(div), _bits(ops._centered_difference(w, grid, axis)))


# ------------------------------------------------------ hermitian parts


def test_hermitian_parts_reassemble_exactly():
    # -div((a + ib) grad) = A_a + i A_b with A_a, A_b real symmetric: the
    # Hermitian part is the b = 0 operator, the rest is anti-Hermitian
    g = ops.dirichlet_grid((0.0, 1.0), 20)
    a_fn = lambda x, t: 1.0 + 0.3 * x
    A = ops.SparseDiffusionOperator(g, a_fn, lambda x, t: 0.5 - 0.2 * x).assemble(0.0).toarray()
    A_real = ops.SparseDiffusionOperator(g, a_fn, 0.0).assemble(0.0).toarray()
    np.testing.assert_allclose(0.5 * (A + A.conj().T), A_real, rtol=1e-15, atol=0.0)
    skew = A - A_real
    np.testing.assert_allclose(skew, -skew.conj().T, atol=1e-15)

def test_hermitian_part_positive_definite():
    g = ops.dirichlet_grid((0.0, 1.0), 20)
    op = ops.SparseDiffusionOperator(g, 1.0, 0.8)
    A = op.assemble(0.0).toarray()
    assert np.linalg.eigvalsh(0.5 * (A + A.conj().T)).min() > 0.0

def test_spectral_hermitian_parts_trivial():
    # a real symbol makes the multiplier self-adjoint: the matrix of
    # apply is Hermitian, with the symbol values as its eigenvalues
    g = ops.periodic_grid((0.0, 2.0 * np.pi), 16)
    op, _ = ops.assemble_example3(g)
    M = np.column_stack([op.apply(0.0, e) for e in np.eye(16)])
    np.testing.assert_allclose(M, M.conj().T, atol=1e-13)
    np.testing.assert_allclose(np.linalg.eigvalsh(M), np.sort(op.symbol), atol=1e-12)


# ----------------------------------------- cross-module sanity


def test_stability_constant_bounded_by_coefficient_ratio():
    # matrix constant never exceeds the pointwise coefficient bound
    from imexbdf.stability import coefficient_lambda

    g = ops.dirichlet_grid((0.0, 1.0), 30)
    x = g.axis_nodes(0)
    a_fn = lambda xx, t: 2.0 + np.sin(3 * xx)
    b_fn = lambda xx, t: np.cos(2 * xx)
    op = ops.SparseDiffusionOperator(g, a_fn, b_fn)
    lam_matrix = stability_constant(op.assemble(0.0).toarray())
    mids = np.linspace(0.0, 1.0, 257)
    lam_coeff = coefficient_lambda(a_fn(mids, 0.0), b_fn(mids, 0.0)).value
    assert lam_matrix <= lam_coeff + 1e-3
