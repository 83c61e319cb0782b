"""Stepper recursion tests against hand-evaluated and spectral oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from imexbdf import imex_stepper as stepper
from imexbdf.bdf_coeffs import bdf_scheme
from imexbdf.errors import DomainError, StepError
from imexbdf.operators import (
    LinearOperator,
    PointwiseTerm,
    SparseDiffusionOperator,
    assemble_example3,
    dirichlet_grid,
    periodic_grid,
)
from imexbdf.stability import von_neumann_sweep


class DiagOp:
    """Diagonal operator for scalar-per-component oracle tests."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = np.broadcast_to(np.asarray(values, dtype=complex), grid.shape)
        self.autonomous = True
        self.factorization_count = 0

    def apply(self, t, v):
        return self.values * np.asarray(v, dtype=complex)

    def shifted_solve(self, t, sigma, r):
        return np.asarray(r, dtype=complex) / (sigma + self.values)


GRID4 = periodic_grid((0.0, 1.0), 4)


# ---------------------------------------------------------- single step


def test_backward_euler_single_step():
    sigma0, tau = 2.0, 0.25
    A = DiagOp(GRID4, sigma0)
    u1 = stepper.imex_step(bdf_scheme(1), A, None, [np.ones(4)], tau, tau)
    np.testing.assert_allclose(u1, 1.0 / (1.0 + tau * sigma0), rtol=1e-15)

def test_two_step_hand_recurrence():
    tau = 0.1
    A = DiagOp(GRID4, 1.0)
    u0 = np.ones(4)
    u1 = np.full(4, 1.0 / 1.1)
    u2 = stepper.imex_step(bdf_scheme(2), A, None, [u0, u1], 2 * tau, tau)
    expect = (2.0 * u1 - u0 / 2.0) / (1.5 + 0.1)
    np.testing.assert_allclose(u2, expect, rtol=1e-14)

def test_forward_euler_on_explicit_term():
    # A = 0, k = 1 reduces to forward Euler on B
    tau = 0.05
    A = DiagOp(GRID4, 0.0)
    B = PointwiseTerm(GRID4, lambda u: u**2)
    u = np.full(4, 0.3, dtype=complex)
    traj = stepper.run(bdf_scheme(1), A, B, [u], tau, 10)
    manual = u.copy()
    for n in range(10):
        manual = manual + tau * manual**2
    np.testing.assert_allclose(traj.final_state, manual, rtol=1e-13)

def test_step_rejects_bad_history():
    A = DiagOp(GRID4, 1.0)
    with pytest.raises(DomainError):
        stepper.imex_step(bdf_scheme(2), A, None, [np.ones(4)], 0.1, 0.1)
    with pytest.raises(DomainError):
        stepper.imex_step(bdf_scheme(1), A, None, [np.ones(4)], 0.1, -0.1)
    with pytest.raises(StepError):
        stepper.imex_step(bdf_scheme(1), A, None, [np.full(4, np.nan)], 0.1, 0.1)


# ----------------------------------------------------------------- runs


def test_zero_data_stays_zero():
    A = DiagOp(GRID4, 3.0)
    traj = stepper.run(bdf_scheme(3), A, None, [np.zeros(4)] * 3, 0.1, 25)
    assert traj.blow_up is None
    assert all(np.max(np.abs(u)) == 0.0 for u in traj.states)

def test_times_uniform_and_lengths():
    A = DiagOp(GRID4, 1.0)
    tau = 0.125
    traj = stepper.run(bdf_scheme(2), A, None, [np.ones(4)] * 2, tau, 9)
    assert len(traj.states) == 10
    assert len(traj.times) == 10
    np.testing.assert_allclose(np.diff(traj.times), tau, rtol=1e-15)

def test_run_linearity_in_data_and_forcing():
    # B linear: the map (starting values, forcing) -> trajectory is linear
    A = DiagOp(GRID4, 1.5)
    B = PointwiseTerm(GRID4, lambda u: 0.3 * u)
    k, tau, N = 2, 0.1, 15
    s1 = [np.array([1.0, 0.5, -0.2, 0.1], dtype=complex)] * k
    s2 = [np.array([0.0, 1.0, 2.0, -1.0], dtype=complex)] * k
    f1 = lambda t: np.full(4, math.sin(t), dtype=complex)
    f2 = lambda t: np.full(4, math.cos(t), dtype=complex)
    c = 0.7
    scheme = bdf_scheme(k)
    t1 = stepper.run(scheme, A, B, s1, tau, N, forcing=f1)
    t2 = stepper.run(scheme, A, B, s2, tau, N, forcing=f2)
    combo = stepper.run(
        scheme,
        A,
        B,
        [a + c * b for a, b in zip(s1, s2)],
        tau,
        N,
        forcing=lambda t: f1(t) + c * f2(t),
    )
    np.testing.assert_allclose(
        combo.final_state, t1.final_state + c * t2.final_state, rtol=1e-12, atol=1e-13
    )

def test_each_step_satisfies_recursion_residual():
    g = dirichlet_grid((0.0, 1.0), 24)
    A = SparseDiffusionOperator(g, lambda x, t: 1.0 + 0.2 * np.sin(x + t), 0.0)
    B = PointwiseTerm(g, lambda u: -(u**3))
    x = g.axis_nodes(0)
    scheme = bdf_scheme(3)
    tau, N = 0.02, 12
    start = [np.sin(np.pi * x) * math.exp(-n * tau) for n in range(3)]
    traj = stepper.run(scheme, A, B, start, tau, N)
    delta, gamma = scheme.delta_f, scheme.gamma_f
    for n in range(3, N + 1):
        t_n = n * tau
        lhs = sum(delta[i] * traj.states[n - i] for i in range(4)) / tau
        lhs = lhs + A.apply(t_n, traj.states[n])
        rhs = sum(
            gamma[i] * B.evaluate(t_n - (i + 1) * tau, traj.states[n - i - 1])
            for i in range(3)
        )
        scale = np.linalg.norm(traj.states[n]) / tau
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(scale, 1.0)

def test_backward_euler_hermitian_contraction():
    rng = np.random.default_rng(17)
    A = DiagOp(GRID4, rng.uniform(0.5, 4.0, size=4))
    u0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    traj = stepper.run(bdf_scheme(1), A, None, [u0], 0.2, 40)
    norms_seq = [np.linalg.norm(u) for u in traj.states]
    assert all(b <= a * (1.0 + 1e-14) for a, b in zip(norms_seq[:-1], norms_seq[1:]))


# ----------------------------------------------- blow-up and divergence


def test_blow_up_flags_and_truncates():
    A = DiagOp(GRID4, 0.1)
    B = PointwiseTerm(GRID4, lambda u: 40.0 * u**3)
    u0 = np.full(4, 2.0, dtype=complex)
    traj = stepper.run(bdf_scheme(1), A, B, [u0], 0.5, 200)
    assert traj.blow_up is not None
    assert traj.states.shape == (traj.blow_up + 1, 4)
    assert len(traj.times) == len(traj.states)

@pytest.mark.parametrize("grid", [GRID4, dirichlet_grid([(0.0, 1.0), (0.0, 1.0)], (4, 5))])
def test_states_are_one_read_only_array(grid):
    k, N = 3, 12
    start = [np.ones(grid.shape)] * k
    traj = stepper.run(bdf_scheme(k), DiagOp(grid, 1.0), None, start, 0.1, N)
    assert isinstance(traj.states, np.ndarray)
    assert traj.states.shape == (N + 1, *grid.shape)
    with pytest.raises(ValueError):
        traj.states[0] = 0.0
    with pytest.raises(ValueError):
        traj.final_state[...] = 0.0

def test_divergence_threshold_override():
    A = DiagOp(GRID4, -0.5)  # growth e^{t/2}; benign but unbounded
    u0 = np.ones(4)
    loose = stepper.run(bdf_scheme(1), A, None, [u0], 0.1, 50)
    assert loose.blow_up is None
    tight = stepper.run(
        bdf_scheme(1), A, None, [u0], 0.1, 50, divergence_threshold=2.0
    )
    assert tight.blow_up is not None

def test_sector_membership_cross_check():
    # scalar problem u' + rho e^{i phi} u = 0: boundedness must agree
    # with the root condition at the same tau*rho
    scheme = bdf_scheme(3)
    phi_stable = math.radians(80.0)  # inside the k=3 sector
    rho_grid = np.array([0.2, 1.0, 5.0, 25.0])
    tau = 1.0
    sweep = von_neumann_sweep(scheme, phi_stable, rho_grid, tau=tau)
    assert sweep.all_stable
    rng = np.random.default_rng(5)
    for rho in rho_grid:
        A = DiagOp(GRID4, rho * np.exp(1j * phi_stable))
        start = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
        traj = stepper.run(scheme, A, None, start, tau, 3000)
        assert traj.blow_up is None

def test_sector_violation_blows_up():
    scheme = bdf_scheme(3)
    phi_bad = math.radians(88.5)  # outside alpha_3 ~ 86.03 deg
    rho_grid = np.logspace(-1.0, 1.0, 41)
    sweep = von_neumann_sweep(scheme, phi_bad, rho_grid, tau=1.0)
    assert not sweep.all_stable
    worst = int(np.argmax(sweep.max_root_moduli))
    rho = sweep.rho_grid[worst]
    growth = sweep.max_root_moduli[worst]
    assert growth > 1.0
    # enough steps for the unstable root to clear the default threshold
    N = min(int(math.log(1e10) / math.log(growth)) + 100, 60000)
    rng = np.random.default_rng(6)
    A = DiagOp(GRID4, rho * np.exp(1j * phi_bad))
    start = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    traj = stepper.run(scheme, A, None, start, 1.0, N)
    assert traj.blow_up is not None


# ------------------------------------------------------- starting values


def test_make_starting_values_exact():
    g = periodic_grid((0.0, 2.0 * np.pi), 16)
    x = g.axis_nodes(0)
    exact = lambda t: np.exp(-t) * np.sin(x)
    scheme = bdf_scheme(4)
    tau = 0.1
    vals = stepper.make_starting_values(exact, scheme, tau)
    assert len(vals) == 4
    for n, v in enumerate(vals):
        np.testing.assert_allclose(v, exact(n * tau), rtol=1e-15)

def test_bootstrap_matches_decay_to_high_order():
    # u' = -u: bootstrap values should sit within O(tau^{k+1}) of e^{-t}
    for k in (2, 3):
        A = DiagOp(GRID4, 1.0)
        tau = 0.3
        vals = stepper.bootstrap_starting_values(bdf_scheme(k), A, None, np.ones(4), tau)
        assert len(vals) == k
        for j, v in enumerate(vals):
            err = np.max(np.abs(v - math.exp(-j * tau)))
            assert err <= 5.0 * tau ** (k + 1)

def test_bootstrap_k1_returns_initial_state():
    A = DiagOp(GRID4, 1.0)
    vals = stepper.bootstrap_starting_values(bdf_scheme(1), A, None, np.ones(4), 0.2)
    assert len(vals) == 1
    np.testing.assert_allclose(vals[0], 1.0)

def test_bootstrap_takes_no_forcing():
    # the bootstrap marches the unforced problem only
    A = DiagOp(GRID4, 1.0)
    with pytest.raises(TypeError):
        stepper.bootstrap_starting_values(
            bdf_scheme(2), A, None, np.ones(4), 0.2, forcing=lambda t: np.zeros(4)
        )

def test_bootstrap_refuses_a_long_ladder_before_any_solve():
    # k = 3 at tau = 0.001 would march 2 * 10^9 backward-Euler substeps
    class NoSolve(DiagOp):
        def shifted_solve(self, t, sigma, r):
            raise AssertionError("the bootstrap solved before refusing")

    with pytest.raises(DomainError, match="2000000000 backward-Euler substeps"):
        stepper.bootstrap_starting_values(
            bdf_scheme(3), NoSolve(GRID4, 1.0), None, np.ones(4), 0.001
        )

def test_time_dependent_bootstrap_sees_global_clock():
    # A(t) must be evaluated at absolute time inside later bootstrap
    # intervals; compare against a fine direct reference
    g = dirichlet_grid((0.0, 1.0), 12)
    A = SparseDiffusionOperator(g, lambda x, t: 1.0 + 0.9 * np.sin(5.0 * t), 0.0)
    x = g.axis_nodes(0)
    u0 = np.sin(np.pi * x)
    tau = 0.25
    vals = stepper.bootstrap_starting_values(bdf_scheme(3), A, None, u0, tau)
    ref = stepper.run(
        bdf_scheme(1), A, None, [u0], tau / 4096.0, 2 * 4096
    ).final_state
    assert np.max(np.abs(vals[2] - ref)) <= 20.0 * tau**4


# ----------------------------------------------------------- forcing


def test_explicit_and_implicit_forcing_both_track_exact():
    # u' + u = F with u(t) = e^{-2t}: F(t) = -e^{-2t}
    A = DiagOp(GRID4, 1.0)
    scheme = bdf_scheme(2)
    tau, N = 0.01, 100
    exact = lambda t: np.full(4, math.exp(-2.0 * t), dtype=complex)
    forcing = lambda t: np.full(4, -math.exp(-2.0 * t), dtype=complex)
    start = [exact(0.0), exact(tau)]
    for mode in ("explicit", "implicit"):
        traj = stepper.run(
            scheme, A, None, start, tau, N, forcing=forcing, forcing_mode=mode
        )
        err = np.max(np.abs(traj.final_state - exact(N * tau)))
        assert err < 5e-4  # second-order accuracy at tau = 0.01

def test_unknown_forcing_mode_rejected():
    A = DiagOp(GRID4, 1.0)
    with pytest.raises(DomainError):
        stepper.run(
            bdf_scheme(1),
            A,
            None,
            [np.ones(4)],
            0.1,
            5,
            forcing=lambda t: np.zeros(4),
            forcing_mode="sideways",
        )


# -------------------------------------------------------- diagnostics


def test_autonomous_operator_factors_once():
    g = dirichlet_grid((0.0, 1.0), 16)
    A = SparseDiffusionOperator(g, 1.0, 0.0)
    x = g.axis_nodes(0)
    stepper.run(bdf_scheme(2), A, None, [np.sin(np.pi * x)] * 2, 0.05, 12)
    assert A.factorization_count == 1

def test_time_dependent_operator_refactors_every_step():
    g = dirichlet_grid((0.0, 1.0), 16)
    A = SparseDiffusionOperator(g, lambda x, t: 1.0 + 0.1 * np.cos(t), 0.0)
    x = g.axis_nodes(0)
    stepper.run(bdf_scheme(2), A, None, [np.sin(np.pi * x)] * 2, 0.05, 12)
    assert A.factorization_count == 11  # one per step n = 2..12

class RecordingTerm:
    """Linear explicit term that records the times it is evaluated at."""

    def __init__(self):
        self.times = []

    def evaluate(self, t, v):
        self.times.append(t)
        return 0.3 * np.asarray(v, dtype=complex)


class CountingDiagOp(DiagOp):
    """DiagOp that counts its shifted solves."""

    solves = 0

    def shifted_solve(self, t, sigma, r):
        self.solves += 1
        return super().shifted_solve(t, sigma, r)


@pytest.mark.parametrize("with_forcing", [False, True])
def test_explicit_side_evaluated_once_per_node(with_forcing):
    # for k = 1..6, steps k..N make one solve each and use the explicit
    # values of nodes 0..N-1, each computed once at its node time
    B = RecordingTerm()
    forcing_times = []

    def forcing(t):
        forcing_times.append(t)
        return np.full(4, math.sin(t), dtype=complex)

    tau, N = 0.1, 10
    for k in range(1, 7):
        A = CountingDiagOp(GRID4, 1.0)
        B.times.clear()
        forcing_times.clear()
        traj = stepper.run(
            bdf_scheme(k),
            A,
            B,
            [np.ones(4)] * k,
            tau,
            N,
            forcing=forcing if with_forcing else None,
        )
        assert A.solves == N - k + 1  # one per step n = k..N
        assert len(B.times) == N
        assert B.times == list(traj.times[:N])
        assert forcing_times == (B.times if with_forcing else [])

# --------------------------------------------------- history buffers


def _forced_problem(shape):
    """Time-dependent diffusion with a cubic explicit term on a 1-d or
    2-d Dirichlet grid, plus smooth starting values for k = 3."""
    if len(shape) == 1:
        g = dirichlet_grid((0.0, 1.0), shape[0])
        a = lambda x, t: 1.0 + 0.2 * np.sin(x + t)
        profile = np.sin(np.pi * g.axis_nodes(0))
    else:
        g = dirichlet_grid([(0.0, 1.0), (0.0, 1.0)], shape)
        a = lambda x, y, t: 1.0 + 0.2 * np.sin(x + y + t)
        X, Y = g.meshes()
        profile = np.sin(np.pi * X) * np.sin(np.pi * Y)
    A = SparseDiffusionOperator(g, a, 0.1)
    B = PointwiseTerm(g, lambda u: -(u**3))
    start = [profile * math.exp(-0.02 * n) for n in range(3)]
    return A, B, start


@pytest.mark.parametrize("shape", [(24,), (8, 8)], ids=["1d", "2d"])
def test_run_states_do_not_alias_the_history_buffer(shape):
    # states are rows of one trajectory block, read back as the next
    # steps' history: a longer run keeps the first rows, and no two overlap
    runs = {}
    for N in (10, 20):
        A, B, start = _forced_problem(shape)
        runs[N] = stepper.run(bdf_scheme(3), A, B, start, 0.02, N, forcing=lambda t: 0.1 * t)
    long, short = runs[20].states, runs[10].states
    assert len(short) == 11 and len(long) == 21
    for u, v in zip(long, short):
        assert u.shape == shape
        np.testing.assert_array_equal(u, v)
    for i in range(len(long)):
        for j in range(i):
            assert not np.shares_memory(long[i], long[j])


class RecordingSolve(DiagOp):
    """DiagOp that keeps the right-hand side of its last solve."""

    def shifted_solve(self, t, sigma, r):
        self.rhs = r
        return super().shifted_solve(t, sigma, r)


@pytest.mark.parametrize("with_explicit", [False, True])
@pytest.mark.parametrize("shape", [(4,), (4, 5)], ids=["1d", "2d"])
def test_step_list_and_array_history_agree(shape, with_explicit):
    rng = np.random.default_rng(5)
    k = 4
    scheme = bdf_scheme(k)
    grid = GRID4 if len(shape) == 1 else dirichlet_grid([(0.0, 1.0), (0.0, 1.0)], shape)
    history = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(k)]
    explicit = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(k)]
    if not with_explicit:
        explicit = None
    stacked = None if explicit is None else np.array(explicit)
    from_list = stepper.imex_step(scheme, DiagOp(grid, 2.0), explicit, history, 0.3, 0.1)
    from_array = stepper.imex_step(
        scheme, DiagOp(grid, 2.0), stacked, np.array(history), 0.3, 0.1
    )
    assert from_list.shape == shape
    np.testing.assert_array_equal(from_list, from_array)


def test_step_real_list_history_gives_complex_rhs():
    rng = np.random.default_rng(6)
    k = 3
    history = [rng.standard_normal(4) for _ in range(k)]
    explicit = [rng.standard_normal(4) for _ in range(k)]
    real_op, complex_op = RecordingSolve(GRID4, 1.0), RecordingSolve(GRID4, 1.0)
    u = stepper.imex_step(bdf_scheme(k), real_op, explicit, history, 0.3, 0.1)
    v = stepper.imex_step(
        bdf_scheme(k),
        complex_op,
        np.array(explicit, dtype=complex),
        np.array(history, dtype=complex),
        0.3,
        0.1,
    )
    assert real_op.rhs.dtype == np.complex128
    np.testing.assert_array_equal(real_op.rhs, complex_op.rhs)
    np.testing.assert_array_equal(u, v)


def test_run_validates_counts():
    A = DiagOp(GRID4, 1.0)
    with pytest.raises(DomainError):
        stepper.run(bdf_scheme(3), A, None, [np.ones(4)] * 2, 0.1, 10)
    with pytest.raises(DomainError):
        stepper.run(bdf_scheme(3), A, None, [np.ones(4)] * 3, 0.1, 2)


# ------------------------------------------------------ object states


class ScalarOp:
    """A = rate * I on states of any dtype, solved exactly."""

    def __init__(self, rate):
        self.rate = rate

    def shifted_solve(self, t, sigma, r):
        return r / (sigma + self.rate)


class ScaleTerm:
    def __init__(self, c):
        self.c = c

    def evaluate(self, t, u):
        return self.c * u


@pytest.mark.parametrize("k", [1, 3, 6])
def test_object_states_stay_object_and_match_complex(k):
    tau, N = 0.05, 40
    start = [math.exp(-1.7 * tau * n) * np.array([1.0, -0.5, 0.25]) for n in range(k)]
    ref = stepper.run(bdf_scheme(k), ScalarOp(2.0), ScaleTerm(0.3), start, tau, N)
    assert all(u.dtype == np.complex128 for u in ref.states)
    with mp.workdps(30):
        mp_start = [np.array([mp.mpf(x) for x in u]) for u in start]
        traj = stepper.run(
            bdf_scheme(k), ScalarOp(2.0), ScaleTerm(0.3), mp_start, tau, N
        )
    assert traj.blow_up is None and len(traj.states) == N + 1
    assert all(u.dtype == object for u in traj.states)
    assert all(isinstance(x, mp.mpf) for x in traj.states[-1])
    for u, v in zip(traj.states, ref.states):
        np.testing.assert_allclose(u.astype(complex), v, rtol=0, atol=1e-14)


def test_starting_value_helpers_keep_object_dtype():
    scheme = bdf_scheme(2)
    exact = lambda t: np.array([mp.exp(-t), mp.mpf(0)])
    assert all(u.dtype == object for u in stepper.make_starting_values(exact, scheme, 0.1))
    assert stepper.make_starting_values(math.exp, scheme, 0.1)[0].dtype == np.complex128
    boot = stepper.bootstrap_starting_values(
        bdf_scheme(1), ScalarOp(1.0), None, exact(0.0), 0.1
    )
    assert boot[0].dtype == object


class PoisonOp(ScalarOp):
    """Exact solve, then one entry replaced by a non-finite mpf."""

    def __init__(self, rate, value, index):
        super().__init__(rate)
        self.value, self.index = value, index

    def shifted_solve(self, t, sigma, r):
        out = super().shifted_solve(t, sigma, r)
        out[self.index] = self.value
        return out


NON_FINITE = [
    pytest.param(value, index, id=f"{name}-at-{index}")
    for name, value in (("nan", mp.nan), ("inf", mp.inf))
    for index in (0, -1)
]


@pytest.mark.parametrize("value, index", NON_FINITE)
def test_non_finite_object_history_raises(value, index):
    u = np.array([mp.mpf(1), mp.mpf(2), mp.mpf(3)])
    u[index] = value
    with pytest.raises(StepError):
        stepper.imex_step(bdf_scheme(1), ScalarOp(1.0), None, [u], 0.1, 0.1)


@pytest.mark.parametrize("value, index", NON_FINITE)
def test_non_finite_object_state_flags_blow_up(value, index):
    start = [np.array([mp.mpf(1), mp.mpf(2), mp.mpf(3)])]
    traj = stepper.run(bdf_scheme(1), PoisonOp(1.0, value, index), None, start, 0.1, 5)
    assert traj.blow_up == 1
    assert len(traj.states) == 2


# ------------------------------------------- run against imex_step


def _hand_stepped(scheme, A, B, start, tau, N, forcing=None, forcing_mode="explicit"):
    """The recursion stepped by ``imex_step`` on lists of all states and
    explicit values, evaluating each explicit value at its node time."""
    k = scheme.k
    states = [stepper._state(u) for u in start]
    explicit_forcing = forcing if forcing_mode == "explicit" else None

    def explicit_value(t, u):
        value = B.evaluate(t, u)
        return value if explicit_forcing is None else explicit_forcing(t) + value

    explicit = [explicit_value(j * tau, u) for j, u in enumerate(states)]
    for n in range(k, N + 1):
        extra = forcing(n * tau) if forcing_mode == "implicit" else None
        u = stepper.imex_step(scheme, A, explicit[-k:], states[-k:], n * tau, tau, extra_rhs=extra)
        states.append(u)
        explicit.append(explicit_value(n * tau, u))
    return states


class PublicSolveOperator(SparseDiffusionOperator):
    """Solves every step through the public ``shifted_solve``."""

    _solve_in_place = LinearOperator._solve_in_place


# the time-dependent Dirichlet operator solves on a new factor each step;
# the autonomous ones on one cached factor, in place in run's block
HAND_STEPPED_CASES = [
    pytest.param(mode, grid, time_dependent, id=mode if time_dependent else f"{name}-{mode}")
    for time_dependent, name, grid in (
        (True, "", dirichlet_grid),
        (False, "autonomous-dirichlet", dirichlet_grid),
        (False, "autonomous-periodic", periodic_grid),
    )
    for mode in ("explicit", "implicit")
]


@pytest.mark.parametrize("forcing_mode, make_grid, time_dependent", HAND_STEPPED_CASES)
@pytest.mark.parametrize("k", range(1, 7))
def test_run_matches_hand_stepped_imex_step_bitwise(k, forcing_mode, make_grid, time_dependent):
    # one step core: run's window on its trajectory block, its explicit
    # ring buffer and precomputed rows give the same bits as imex_step on
    # freshly stacked lists
    g = make_grid((0.0, 1.0), 24)
    x = g.axis_nodes(0)
    if time_dependent:
        a = lambda x, t: 1.0 + 0.3 * np.sin(x + 2.0 * t)
    else:
        a = lambda x, t: 1.0 + 0.3 * np.sin(x)
    B = PointwiseTerm(g, lambda u: -(u**3))
    forcing = lambda t: 0.2 * np.cos(3.0 * t) * x * (1.0 - x)
    start = [np.sin(np.pi * x) * math.exp(-0.1 * n) + 0.01j * x for n in range(k)]
    tau, N = 0.02, k + 15
    autonomous = not time_dependent
    traj = stepper.run(
        bdf_scheme(k), SparseDiffusionOperator(g, a, 0.4, autonomous), B, start, tau, N,
        forcing=forcing, forcing_mode=forcing_mode,
    )
    hand = _hand_stepped(
        bdf_scheme(k), PublicSolveOperator(g, a, 0.4, autonomous), B, start, tau, N,
        forcing=forcing, forcing_mode=forcing_mode,
    )
    assert traj.blow_up is None and len(traj.states) == len(hand) == N + 1
    for u, v in zip(traj.states, hand):
        np.testing.assert_array_equal(u, v)


def test_object_run_matches_hand_stepped_imex_step_exactly():
    k, tau, N = 3, 0.05, 20
    forcing = lambda t: np.array([mp.sin(t), mp.mpf(0), mp.cos(t)])
    with mp.workdps(30):
        start = [np.array([mp.exp(-n * tau), mp.mpf(-0.5), mp.mpf(0.25)]) for n in range(k)]
        traj = stepper.run(
            bdf_scheme(k), ScalarOp(2.0), ScaleTerm(0.3), start, tau, N, forcing=forcing
        )
        hand = _hand_stepped(
            bdf_scheme(k), ScalarOp(2.0), ScaleTerm(0.3), start, tau, N, forcing=forcing
        )
    assert all(u.dtype == object for u in traj.states)
    assert len(traj.states) == len(hand) == N + 1
    for u, v in zip(traj.states, hand):
        assert all(isinstance(x, mp.mpf) for x in u)
        np.testing.assert_array_equal(u, v)


# ------------------------------------------ counts and error paths


class Counting:
    """Operator and explicit term that count their calls; the solve
    returns NaN from call ``nan_from`` on (1-based) when it is set."""

    def __init__(self, rate=1.0, nan_from=None):
        self.rate, self.nan_from = rate, nan_from
        self.solves = self.evaluations = 0

    def shifted_solve(self, t, sigma, r):
        self.solves += 1
        out = np.asarray(r, dtype=complex) / (sigma + self.rate)
        if self.nan_from is not None and self.solves >= self.nan_from:
            out[-1] = np.nan
        return out

    def evaluate(self, t, u):
        self.evaluations += 1
        return 0.1 * np.asarray(u, dtype=complex)


def test_each_run_step_is_one_imex_step_call(monkeypatch):
    # span tracing counts a run's steps by its imex_step calls
    calls = []
    original = stepper.imex_step

    def counted(*args, **kwargs):
        calls.append(args[4])
        return original(*args, **kwargs)

    monkeypatch.setattr(stepper, "imex_step", counted)
    k, tau, N = 3, 0.1, 12
    traj = stepper.run(bdf_scheme(k), DiagOp(GRID4, 1.0), None, [np.ones(4)] * k, tau, N)
    assert calls == list(traj.times[k:])


@pytest.mark.parametrize("k", [1, 3, 6])
def test_run_stops_solving_and_evaluating_after_blow_up(k):
    # the third solve, at step n = k + 2, returns a NaN
    A, B = Counting(nan_from=3), Counting()
    traj = stepper.run(bdf_scheme(k), A, B, [np.ones(4)] * k, 0.1, k + 20)
    n = k + 2
    assert traj.blow_up == n and len(traj.states) == n + 1
    assert np.isnan(traj.states[-1][-1])
    assert A.solves == n - k + 1
    assert B.evaluations == n  # nodes 0..n-1, none at the blown-up node


@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_run_rejects_non_finite_start_before_any_solve(bad, index):
    A, B = Counting(), Counting()
    start = [np.ones(4, dtype=complex) for _ in range(3)]
    start[index][1] = bad
    with pytest.raises(StepError, match="non-finite value in the state history"):
        stepper.run(bdf_scheme(3), A, B, start, 0.1, 10)
    assert A.solves == B.evaluations == 0


BAD_ARGUMENTS = {
    "tau-nan": {"tau": math.nan},
    "tau-inf": {"tau": math.inf},
    "tau-zero": {"tau": 0.0},
    "t0-nan": {"t0": math.nan},
    "t0-inf": {"t0": -math.inf},
    "threshold-nan": {"divergence_threshold": math.nan},
    "threshold-zero": {"divergence_threshold": 0.0},
    "threshold-negative": {"divergence_threshold": -1.0},
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_run_rejects_bad_arguments_before_any_solve(case):
    A, B = Counting(), Counting()
    args = {"tau": 0.1, "t0": 0.0, "divergence_threshold": None, **BAD_ARGUMENTS[case]}
    with pytest.raises(DomainError):
        stepper.run(bdf_scheme(2), A, B, [np.ones(4)] * 2, N=10, **args)
    assert A.solves == B.evaluations == 0


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -0.1])
def test_step_and_bootstrap_reject_bad_tau_before_any_solve(tau):
    A = Counting()
    with pytest.raises(DomainError):
        stepper.imex_step(bdf_scheme(2), A, None, [np.ones(4)] * 2, 0.3, tau)
    with pytest.raises(DomainError):
        stepper.bootstrap_starting_values(bdf_scheme(3), A, None, np.ones(4), tau)
    assert A.solves == 0


class Scripted:
    """Operator whose solves return the scripted states in turn."""

    def __init__(self, script):
        self.script = iter(script)

    def shifted_solve(self, t, sigma, r):
        return next(self.script).copy()


def _entries(*values):
    return np.array(values, dtype=complex)


BIG = np.full(4, 1e200 + 0j)  # finite, but ||u||_2^2 overflows
GUARD_CASES = {
    # ||u||_2 = 12 > 10/2, but max|u| = 6 stays below the threshold
    "norm-above-half-peak-below": (10.0, np.full(4, 6.0 + 0j)),
    "peak-just-above": (10.0, _entries(1.0, np.nextafter(10.0, math.inf), 0.0, 1.0)),
    "peak-at-threshold": (10.0, _entries(1.0, 0.0, 10.0, 1.0)),
    "nan-at-0": (10.0, _entries(complex(math.nan, 0.0), 1.0, 1.0, 1.0)),
    "inf-inside": (10.0, _entries(1.0, 1.0, complex(0.0, -math.inf), 1.0)),
    "norm-overflows-peak-below": (1e300, BIG),
    "norm-overflows-peak-above": (1e300, _entries(1e200, 2e300, 1e200, 0.0)),
    "guard-off-big": (math.inf, BIG),
    "guard-off-nan": (math.inf, _entries(1.0, 1.0, 1.0, complex(0.0, math.nan))),
    "guard-off-inf": (math.inf, _entries(1.0, math.inf, 1.0, 1.0)),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_norm_guard_flags_what_the_peak_rule_flags(case):
    # the guard's norm test may only skip the exact peak test, never
    # change its verdict
    threshold, bad = GUARD_CASES[case]
    benign = np.full(4, 0.5 + 0.5j)
    script = [benign, benign, bad, benign, benign]
    k, N = 2, 1 + len(script)
    traj = stepper.run(
        bdf_scheme(k), Scripted(script), None, [benign] * k, 0.1, N,
        divergence_threshold=threshold,
    )
    peaks = [stepper._peak(u) for u in [benign] * k + script]
    flagged = [n for n, p in enumerate(peaks) if not (math.isfinite(p) and p <= threshold)]
    expected = flagged[0] if flagged else None
    assert traj.blow_up == expected
    assert len(traj.states) == (N if expected is None else expected) + 1
    if expected is not None:
        np.testing.assert_array_equal(traj.final_state, bad)


@pytest.mark.parametrize("dtype", ["complex", "mpf"])
def test_run_copies_starting_values(dtype):
    make = complex if dtype == "complex" else mp.mpf
    start = [np.array([make(1.0), make(-0.5), make(0.25)]) for _ in range(2)]
    traj = stepper.run(bdf_scheme(2), ScalarOp(2.0), ScaleTerm(0.3), start, 0.05, 8)
    for u in start:
        u[:] = make(7.0)
    assert list(traj.states[0]) == [1.0, -0.5, 0.25]
    if dtype == "mpf":
        assert all(isinstance(x, mp.mpf) for u in traj.states for x in u)


class FailingSolve(DiagOp):
    """DiagOp whose solve fails from time ``t_fail`` on."""

    def __init__(self, grid, values, t_fail):
        super().__init__(grid, values)
        self.t_fail = t_fail

    def shifted_solve(self, t, sigma, r):
        if t >= self.t_fail:
            raise RuntimeError("singular pivot")
        return super().shifted_solve(t, sigma, r)


def test_failing_solve_becomes_step_error_naming_time_and_shift():
    k, tau, t0 = 2, 0.1, 0.3
    t_fail = t0 + 5 * tau
    sigma = bdf_scheme(k).delta_f[0] / tau
    A = FailingSolve(GRID4, 1.0, t_fail)
    with pytest.raises(StepError, match="singular pivot") as info:
        stepper.run(bdf_scheme(k), A, None, [np.ones(4)] * k, tau, 10, t0=t0)
    assert f"t={t_fail}" in str(info.value) and f"shift {sigma}" in str(info.value)
    assert isinstance(info.value.__cause__, RuntimeError)


# ----------------------------------------------------------- predictor


PREDICTOR_CASES = {
    "1d": lambda: SparseDiffusionOperator(
        dirichlet_grid((0.0, 1.0), 16), lambda x, t: 1.0 + 0.1 * np.cos(t), 0.0
    ),
    "2d-autonomous": lambda: SparseDiffusionOperator(
        dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8)), 1.0, 0.3
    ),
    "spectral": lambda: assemble_example3(periodic_grid((0.0, 2.0 * np.pi), 16))[0],
    "duck-typed": lambda: DiagOp(GRID4, 1.0),  # its solve takes three arguments
    "2d-time-dependent": lambda: SparseDiffusionOperator(
        dirichlet_grid(((0.0, 1.0), (0.0, 1.0)), (8, 8)),
        lambda x, y, t: 1.0 + 0.2 * np.sin(x + y + t),
        0.3,
    ),
}


@pytest.mark.parametrize("case", sorted(PREDICTOR_CASES))
def test_predictor_called_only_by_2d_refinement(case, monkeypatch):
    # the predictor is lazy: only a 2-d solve at a new time on an older
    # factor calls it, once per step after the first (which factors)
    predictions = []
    original = stepper._StepCore.predict

    def counted(self):
        predictions.append(original(self))
        return predictions[-1]

    monkeypatch.setattr(stepper._StepCore, "predict", counted)
    A = PREDICTOR_CASES[case]()
    k, tau, N = 3, 0.02, 10
    start = [np.full(A.grid.shape, 1.0 - 0.1 * j, dtype=complex) for j in range(k)]
    traj = stepper.run(bdf_scheme(k), A, None, start, tau, N)
    assert traj.bounded and len(traj.states) == N + 1
    if case != "2d-time-dependent":
        assert predictions == []
        return
    assert len(predictions) == N - k
    gamma = bdf_scheme(k).gamma_f
    for n, predicted in zip(range(k + 1, N + 1), predictions):
        expected = sum(g * traj.states[n - 1 - i] for i, g in enumerate(gamma))
        np.testing.assert_allclose(predicted, expected, rtol=1e-14, atol=1e-15)
