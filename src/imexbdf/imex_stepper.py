"""Implicit-explicit multistep time integration.

One step solves

    (delta_0/tau + A(t_n)) u_n =
        sum_i gamma_i B(t_{n-i-1}, u_{n-i-1}) - (1/tau) sum_{i>=1} delta_i u_{n-i},

so each step costs exactly one shifted linear solve.  The implicit side
sees only A, the explicit side only B, both through the operator
interfaces.  Each explicit value B(t_j, u_j) is evaluated once, at the
node time t_j, and reused by the k steps that need it.  ``run`` writes
every state once, into row n of one preallocated (N + 1, *shape)
trajectory block: the history side is contracted from the newest-first
window of the k rows before it (``_windows``, a read-only strided view
of the block) straight into row n, the explicit side and any implicit
forcing are added to the row, and the solve overwrites it in place, so
a step on a cached factor makes no new array.  The block, read-only
after the march, is ``Trajectory.states``.  The last k explicit values
sit in a (k, *shape) buffer shifted by one row per step.  ``run``
validates its input once and builds one step core; each of its steps
is an ``imex_step`` call on that core, which skips the checks
``imex_step`` makes on a plain history.  The
blow-up guard takes one dot product per step, ||u||_2^2: max|u| <=
||u||_2, so a state with ||u||_2 <= threshold/2 is bounded, and only a
state that fails that test (NaN, inf and overflow all do) gets the
exact peak test.  A
``LinearOperator`` also gets the step's predictor, the gamma
extrapolation of the states, which a solve that iterates starts from
(duck-typed operators get three arguments).  A run
flags divergence instead of raising, so threshold experiments can treat
blow-up as data.

States take the dtype ``np.result_type(u, complex)`` of the starting
values, so object arrays of mpmath numbers march in their own arithmetic.

Runs are sequential in n; different runs share no mutable state and can
execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bdf_coeffs import BdfScheme, bdf_scheme
from .errors import DomainError, StepError
from .operators import LinearOperator

DIVERGENCE_FACTOR = 1e8  # relative overflow guard for blow-up flagging
# the bootstrap keeps every substep state; a longer ladder is refused
_MAX_BOOTSTRAP_SUBSTEPS = 10**5


def _state(u) -> np.ndarray:
    u = np.asarray(u)
    return u.astype(np.result_type(u, complex))


def _windows(states: np.ndarray, rows: int) -> np.ndarray:
    """Windows of ``rows`` consecutive states of a (m, *shape) array, newest
    first and flat as the recursion sums them: window j is states
    j + rows - 1, ..., j.  A read-only view; it follows in-place writes."""
    flat = states.reshape(len(states), -1)
    stride, item = flat.strides
    shape = (len(flat) - rows + 1, rows, flat.shape[1])
    return as_strided(flat[rows - 1 :], shape, (stride, -stride, item), writeable=False)


def _require_finite(history) -> None:
    if not np.isfinite(np.asarray(history, dtype=complex)).all():
        raise StepError("non-finite value in the state history")


def _peak(u) -> float:
    # via complex128: a max over objects skips a NaN in position 0
    return float(np.abs(np.asarray(u, dtype=complex)).max())


def _diverged(u, threshold: float) -> bool:
    peak = _peak(u)
    return not math.isfinite(peak) or peak > threshold


def _check_tau(tau) -> None:
    if not 0.0 < tau < math.inf:  # NaN fails too
        raise DomainError(f"step size must be positive and finite, got {tau}")


@dataclass
class Trajectory:
    """Computed time grid and states, plus blow-up bookkeeping.

    ``states[n]``, row n of one read-only array, approximates the solution
    at ``times[n] = t0 + n*tau``.  When ``blow_up`` is set, the states stop
    at that index and carry the first offending value.
    """

    tau: float
    times: np.ndarray
    states: np.ndarray
    blow_up: int | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def bounded(self) -> bool:
        return self.blow_up is None


def imex_step(
    scheme: BdfScheme,
    A,
    explicit: list[np.ndarray] | np.ndarray | None,
    history: list[np.ndarray] | np.ndarray,
    t_n: float,
    tau: float,
    extra_rhs=None,
):
    """Advance one step.  ``history`` holds the last k states oldest
    first, as a list or a (k, *shape) array, so ``history[k-i]`` is
    u_{n-i}.  ``explicit`` holds the explicit values B(t_j, u_j) (plus
    any explicit forcing) at the same k nodes in the same order, in the
    same form, or is None when there is no explicit side.  ``extra_rhs``
    is an optional state added to the right-hand side before the solve
    (implicit-side forcing).  A non-finite history raises ``StepError``;
    a finite one whose contraction overflows goes on to the solve.  Each
    step of ``run`` passes its ``_StepCore``, checked once, as ``history``."""
    if isinstance(history, _StepCore):
        return history.step(t_n, extra_rhs)
    k = scheme.k
    if len(history) != k:
        raise DomainError(f"history must hold exactly {k} states, got {len(history)}")
    if explicit is not None and len(explicit) != k:
        raise DomainError(f"need exactly {k} explicit values, got {len(explicit)}")
    _check_tau(tau)
    hist = np.asarray(history)
    _require_finite(hist)
    core = _StepCore(scheme, A, tau, hist, explicit)
    core.row = np.empty(hist[0].size, core.rows.dtype)
    return core.step(t_n, extra_rhs).reshape(core.shape)


class _StepCore:
    """step(t_n, extra_rhs) -> u_n in ``row``, a flat state: the history
    side (rows computed once) contracted from the newest-first (k, size)
    ``hist``, plus the explicit side and forcing, solved in place.
    ``hist`` and ``row`` are set per step and not checked."""

    def __init__(self, scheme: BdfScheme, A, tau: float, hist: np.ndarray, explicit):
        delta, self.A, self.shape = scheme.delta_f, A, hist.shape[1:]
        self.sigma, self.gamma = delta[0] / tau, scheme.gamma_f
        # cast once as the contraction would cast it each step
        self.rows = (delta[1:] / -tau).astype(np.result_type(hist, complex))
        self.hist, self.row = _windows(hist, len(hist))[0], None
        # a view of run's ring buffer, so it follows the buffer's shifts
        self.explicit = None if explicit is None else _windows(np.asarray(explicit), len(hist))[0]
        # duck-typed operators keep the three-argument solve; the predictor
        # is bound per call, as a stored bound method is a reference cycle
        self.predicts = isinstance(A, LinearOperator)

    def predict(self) -> np.ndarray:
        """u_n to O(tau^k): the gamma extrapolation that B gets, on the states."""
        return (self.gamma @ self.hist).reshape(self.shape)

    def step(self, t_n, extra_rhs) -> np.ndarray:
        row = np.matmul(self.rows, self.hist, out=self.row)
        if self.explicit is not None:
            row += self.gamma @ self.explicit
        if extra_rhs is not None:
            state = row.reshape(self.shape)
            state += extra_rhs
        try:
            if self.predicts:
                self.A._solve_in_place(t_n, self.sigma, row, self.predict)
            else:
                state = row.reshape(self.shape)
                state[...] = self.A.shifted_solve(t_n, self.sigma, state)
        except Exception as exc:  # noqa: BLE001 - backend failures become StepError
            raise StepError(
                f"shifted solve failed at t={t_n} with shift {self.sigma}: {exc}"
            ) from exc
        return row


def run(
    scheme: BdfScheme,
    A,
    B,
    starting_values: list[np.ndarray],
    tau: float,
    N: int,
    divergence_threshold: float | None = None,
    forcing=None,
    forcing_mode: str = "explicit",
    t0: float = 0.0,
) -> Trajectory:
    """March the recursion from k starting states to step N.

    ``forcing`` is an optional state-valued function of t.  In
    ``explicit`` mode it is added to B at each node and gamma-combined
    with it; in ``implicit`` mode it is evaluated at t_n and added to
    the right-hand side of the solve.  ``t0`` shifts the clock (node j
    sits at t_j = t0 + j*tau); the default keeps t_j = j*tau.  The
    explicit value at node j is computed once, at t_j, for the nodes
    0..N-1 that a later step uses.

    Arguments and starting values (finite, or ``StepError``) are checked
    once; later rows are solves with a finite peak, so steps run unchecked.
    ``tau`` and ``t0`` must be finite and ``divergence_threshold``, when
    given, positive (``math.inf`` turns the magnitude guard off).
    """
    k = scheme.k
    if len(starting_values) != k:
        raise DomainError(
            f"need exactly {k} starting values, got {len(starting_values)}"
        )
    if N < k:
        raise DomainError(f"N={N} must be at least k={k}")
    if forcing_mode not in ("explicit", "implicit"):
        raise DomainError(f"unknown forcing mode {forcing_mode!r}")
    _check_tau(tau)
    if not math.isfinite(t0):
        raise DomainError(f"start time must be finite, got {t0}")
    if divergence_threshold is not None and not divergence_threshold > 0.0:
        raise DomainError(
            f"divergence threshold must be positive, got {divergence_threshold}"
        )

    start = np.array([_state(u) for u in starting_values])
    _require_finite(start)
    threshold = divergence_threshold
    if threshold is None:
        threshold = DIVERGENCE_FACTOR * (1.0 + _peak(start[-1]))

    implicit_forcing = forcing if forcing_mode == "implicit" else None
    explicit_forcing = forcing if forcing_mode == "explicit" else None

    def explicit_value(t, u):
        if B is None:
            return explicit_forcing(t)
        if explicit_forcing is None:
            return B.evaluate(t, u)
        return explicit_forcing(t) + B.evaluate(t, u)

    # row n of the block is the state at t_n; step n reads rows n-k..n-1
    block = np.empty((N + 1, *start.shape[1:]), start.dtype)
    block[:k] = start
    flat = block.reshape(N + 1, -1)
    times = t0 + tau * np.arange(N + 1)
    step_times = times[k:].tolist()
    extras = repeat(None) if implicit_forcing is None else map(implicit_forcing, step_times)
    # ring buffer of the last k explicit values, oldest first
    explicit = None
    if B is not None or explicit_forcing is not None:
        values = [explicit_value(t, u) for t, u in zip(times[:k].tolist(), block)]
        explicit = np.empty(start.shape, dtype=np.result_type(start, *values))
        explicit[:] = values
    core = _StepCore(scheme, A, tau, block[:k], explicit)
    windows = _windows(block, k)  # window n - k is step n's history

    # max|u| <= ||u||_2, so the exact peak test runs only where ||u||_2 >
    # threshold/2; ||u||_2^2 is the dot product of the row's real view with
    # itself.  The bound must be a normal float, so that this sum of
    # squares rounds relatively; object states always take the exact test.
    half = threshold / 2
    bound = half * half
    fast = block.dtype != object and np.finfo(float).tiny <= bound < math.inf
    re_im = flat.view(flat.real.dtype) if fast else None
    # steps before shift_until add the explicit value at their node: none
    # without an explicit side, and not the last step
    shift_until = k if explicit is None else N
    blow_up = None
    for n, t_n, extra, hist, row in zip(range(k, N + 1), step_times, extras, windows, flat[k:]):
        core.hist, core.row = hist, row
        imex_step(scheme, A, explicit, core, t_n, tau, extra)
        if not (fast and (x := re_im[n]).dot(x) <= bound) and _diverged(row, threshold):
            blow_up = n
            break
        if n < shift_until:
            # evaluated right after the solve at t_n, so an operator
            # applied by the forcing reuses the matrix assembled for it
            explicit[:-1] = explicit[1:]
            explicit[-1] = explicit_value(t_n, block[n])

    last = N if blow_up is None else blow_up
    block.flags.writeable = False
    return Trajectory(tau, times[: last + 1], block[: last + 1], blow_up)


def make_starting_values(exact_solution, scheme: BdfScheme, tau: float):
    """Exact nodal starting states u(0), u(tau), ..., u((k-1)tau)."""
    return [_state(exact_solution(i * tau)) for i in range(scheme.k)]


def bootstrap_starting_values(scheme: BdfScheme, A, B, u0, tau: float):
    """Starting values of the unforced problem via fine backward-Euler
    substeps when no exact solution is available.

    The substep size tau_sub = max(tau^(k+1), 1e-12*tau) makes the
    bootstrap error O(tau^(k+1)), below the scheme's own accuracy.  The
    cost grows like tau^(-k), so this is meant for moderate step sizes;
    more than _MAX_BOOTSTRAP_SUBSTEPS substeps in all raise
    ``DomainError`` before any solve.  Manufactured-solution studies
    should use make_starting_values.
    """
    _check_tau(tau)
    k = scheme.k
    values = [_state(u0)]
    if k == 1:
        return values
    euler = bdf_scheme(1)
    tau_sub = max(tau ** (k + 1), 1e-12 * tau)
    per_interval = max(1, round(tau / tau_sub))
    if (k - 1) * per_interval > _MAX_BOOTSTRAP_SUBSTEPS:
        raise DomainError(
            f"bootstrap needs {(k - 1) * per_interval} backward-Euler substeps, "
            f"over {_MAX_BOOTSTRAP_SUBSTEPS}; give an exact solution or a coarser tau"
        )
    tau_sub = tau / per_interval  # land on the coarse nodes exactly
    current = values[0]
    for j in range(k - 1):
        traj = run(euler, A, B, [current], tau_sub, per_interval, t0=j * tau)
        if traj.blow_up is not None:
            raise StepError(f"bootstrap diverged inside interval {j}")
        current = traj.final_state
        values.append(current)
    return values
