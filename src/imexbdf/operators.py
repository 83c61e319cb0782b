"""Discrete grids, linear operators, and explicit-side nonlinear terms.

Two operator backends feed the time stepper through one interface:

* sparse finite differences for variable-coefficient diffusion
  -div((a + ib) grad u) in conservative form on Dirichlet or periodic
  grids,
* spectral-diagonal operators (Fourier multipliers) on periodic grids,
  used for the half-Laplacian |xi| and the biharmonic |xi|^4.

Nonlinear terms B(t, v) are evaluated on grid states; the stepper only
ever sees ``apply``, ``shifted_solve`` and ``evaluate``.  States are
complex arrays shaped like the grid.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Number

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import CoercivityError, ConfigError, DomainError, UnsupportedOperationError

DIRICHLET = "dirichlet"
PERIODIC = "periodic"


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid in one or two dimensions.

    Dirichlet grids carry only interior nodes (homogeneous boundary
    values live in the stencils); periodic grids exclude the duplicate
    endpoint.  ``extents`` is a tuple of (lo, hi) pairs and ``npts`` the
    matching tuple of node counts per axis.
    """

    extents: tuple[tuple[float, float], ...]
    npts: tuple[int, ...]
    boundary: str

    def __post_init__(self):
        if self.boundary not in (DIRICHLET, PERIODIC):
            raise DomainError(f"unknown boundary kind {self.boundary!r}")
        if not 1 <= len(self.extents) <= 2 or len(self.extents) != len(self.npts):
            raise DomainError("grid needs matching extents and npts for 1 or 2 axes")
        for (lo, hi), n in zip(self.extents, self.npts):
            if hi <= lo:
                raise DomainError(f"empty extent ({lo}, {hi})")
            if n < 4:
                raise DomainError(f"need at least 4 points per axis, got {n}")

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.npts

    @property
    def size(self) -> int:
        return int(np.prod(self.npts))

    @property
    def h(self) -> tuple[float, ...]:
        out = []
        for (lo, hi), n in zip(self.extents, self.npts):
            cells = n + 1 if self.boundary == DIRICHLET else n
            out.append((hi - lo) / cells)
        return tuple(out)

    def axis_nodes(self, axis: int) -> np.ndarray:
        (lo, _), n, h = self.extents[axis], self.npts[axis], self.h[axis]
        offset = h if self.boundary == DIRICHLET else 0.0
        return lo + offset + h * np.arange(n)

    def meshes(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_nodes(i) for i in range(self.ndim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def coords(self):
        """Coordinate argument handed to field functions: the node array
        in 1d, the (X, Y) mesh pair in 2d."""
        meshes = self.meshes()
        return meshes[0] if self.ndim == 1 else meshes


def dirichlet_grid(extent, npts) -> Grid:
    return Grid(_norm_extents(extent), _norm_npts(npts), DIRICHLET)


def periodic_grid(extent, npts) -> Grid:
    return Grid(_norm_extents(extent), _norm_npts(npts), PERIODIC)


def _norm_extents(extent) -> tuple[tuple[float, float], ...]:
    arr = np.asarray(extent, dtype=float)
    if arr.shape == (2,):
        return ((float(arr[0]), float(arr[1])),)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return tuple((float(lo), float(hi)) for lo, hi in arr)
    raise DomainError(f"cannot interpret extent {extent!r}")


def _norm_npts(npts) -> tuple[int, ...]:
    if isinstance(npts, Number):
        return (int(npts),)
    return tuple(int(n) for n in npts)


def fourier_frequencies(grid: Grid) -> tuple[np.ndarray, ...]:
    """Angular frequency meshes of the discrete Fourier transform."""
    if grid.boundary != PERIODIC:
        raise ConfigError("Fourier frequencies require a periodic grid")
    axes = [
        2.0 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(grid.npts, grid.h)
    ]
    return tuple(np.meshgrid(*axes, indexing="ij"))


def _as_state(grid: Grid, v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.shape != grid.shape:
        raise DomainError(f"state shape {arr.shape} does not match grid {grid.shape}")
    return arr


def _coercivity_spot_check(apply_fn, grid: Grid, label: str) -> None:
    # a handful of seeded random states; catches sign errors, not
    # genuine indefiniteness in adversarial corners
    rng = np.random.default_rng(12345)
    for _ in range(4):
        v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        pairing = np.vdot(v, apply_fn(v))
        if pairing.real <= 0.0:
            raise CoercivityError(f"{label}: random state with nonpositive Re<Av,v>")


class LinearOperator(ABC):
    """Time-dependent discrete operator A(t) behind a uniform interface."""

    grid: Grid
    autonomous: bool

    @property
    @abstractmethod
    def backend(self) -> str: ...

    @abstractmethod
    def assemble(self, t: float):
        """Concrete representation at time t: a sparse matrix for the
        finite-difference backend, the (real) multiplier array for the
        spectral backend."""

    @abstractmethod
    def apply(self, t: float, v) -> np.ndarray: ...

    @abstractmethod
    def shifted_solve(self, t: float, sigma: float, r) -> np.ndarray:
        """Solve (sigma I + A(t)) u = r."""

    @property
    def factorization_count(self) -> int:
        return 0


class SparseDiffusionOperator(LinearOperator):
    """-div((a + ib) grad u) by conservative second-order differences.

    Coefficients are sampled at cell midpoints, which keeps the b == 0
    Dirichlet matrix real symmetric positive definite.  Shifted solves
    go through a cached direct sparse factorization; the cache is
    rebuilt whenever (t, sigma) changes and is reused across steps when
    the operator is autonomous and the step size is fixed.
    """

    def __init__(self, grid: Grid, a, b, autonomous: bool | None = None):
        self.grid = grid
        scalars = isinstance(a, Number) and isinstance(b, Number)
        self._a = (lambda *args: np.broadcast_to(float(a), np.shape(args[0])).copy()) if isinstance(a, Number) else a
        self._b = (lambda *args: np.broadcast_to(float(b), np.shape(args[0])).copy()) if isinstance(b, Number) else b
        self.autonomous = scalars if autonomous is None else bool(autonomous)
        self._lock = threading.Lock()
        self._matrix_key = None
        self._matrix = None
        self._factor_key = None
        self._factor = None
        self._factor_count = 0
        self.assemble(0.0)  # validate coefficients early

    @property
    def backend(self) -> str:
        return "sparse"

    @property
    def factorization_count(self) -> int:
        return self._factor_count

    def _time_key(self, t: float):
        return "const" if self.autonomous else float(t)

    def _midpoint_coeffs(self, t: float, axis: int) -> np.ndarray:
        """Complex a + ib at the cell interfaces along one axis."""
        g = self.grid
        (lo, _), n, h = g.extents[axis], g.npts[axis], g.h[axis]
        if g.boundary == DIRICHLET:
            mids = lo + h * (np.arange(n + 1) + 0.5)
        else:
            # interface j sits between nodes j-1 and j, wrapping around
            mids = lo + h * (np.arange(n) - 0.5)
        if g.ndim == 1:
            args = (mids, t)
        else:
            if axis == 0:
                X, Y = np.meshgrid(mids, g.axis_nodes(1), indexing="ij")
            else:
                X, Y = np.meshgrid(g.axis_nodes(0), mids, indexing="ij")
            args = (X, Y, t)
        target = mids.shape if g.ndim == 1 else args[0].shape
        a_vals = np.broadcast_to(np.asarray(self._a(*args), dtype=float), target)
        b_vals = np.broadcast_to(np.asarray(self._b(*args), dtype=float), target)
        if a_vals.min() <= 0.0:
            raise CoercivityError("diffusion coefficient a must be positive")
        return a_vals + 1j * b_vals

    def assemble(self, t: float):
        key = self._time_key(t)
        with self._lock:
            if self._matrix_key == key:
                return self._matrix
        matrix = self._build(t).tocsc()
        _coercivity_spot_check(
            lambda v: (matrix @ v.ravel()).reshape(self.grid.shape),
            self.grid,
            "diffusion operator",
        )
        with self._lock:
            self._matrix_key = key
            self._matrix = matrix
        return matrix

    def _build(self, t: float):
        g = self.grid
        if g.ndim == 1:
            return self._build_axis(t, 0)
        return (self._build_axis(t, 0) + self._build_axis(t, 1)).tocoo()

    def _build_axis(self, t: float, axis: int) -> sp.coo_matrix:
        g = self.grid
        n_axis = g.npts[axis]
        h = g.h[axis]
        c = self._midpoint_coeffs(t, axis)  # (n+1,) or (n,) or 2d versions
        size = g.size
        if g.ndim == 1:
            flat = np.arange(size)
            if g.boundary == DIRICHLET:
                diag = (c[:-1] + c[1:]) / h**2
                off = -c[1:-1] / h**2
                rows = np.concatenate([flat, flat[:-1], flat[1:]])
                cols = np.concatenate([flat, flat[1:], flat[:-1]])
                data = np.concatenate([diag, off, off])
            else:
                diag = (c + np.roll(c, -1)) / h**2
                off = -np.roll(c, -1) / h**2  # interface between j and j+1
                nxt = np.roll(flat, -1)
                rows = np.concatenate([flat, flat, nxt])
                cols = np.concatenate([flat, nxt, flat])
                data = np.concatenate([diag, off, off])
            return sp.coo_matrix((data, (rows, cols)), shape=(size, size))
        # 2d: c has shape (n0+1, n1) for axis 0 etc. in the Dirichlet case
        my = g.npts[1]

        def flat_idx(i, j):
            return i * my + j

        ii, jj = np.meshgrid(np.arange(g.npts[0]), np.arange(my), indexing="ij")
        if axis == 0:
            lower, upper = c[:-1, :], c[1:, :]  # interfaces below / above node
        else:
            lower, upper = c[:, :-1], c[:, 1:]
        if g.boundary == PERIODIC:
            if axis == 0:
                lower, upper = c, np.roll(c, -1, axis=0)
            else:
                lower, upper = c, np.roll(c, -1, axis=1)
        diag = (lower + upper) / h**2
        center = flat_idx(ii, jj).ravel()
        rows = [center]
        cols = [center]
        data = [diag.ravel()]
        if g.boundary == DIRICHLET:
            if axis == 0:
                src = flat_idx(ii[:-1, :], jj[:-1, :]).ravel()
                dst = flat_idx(ii[1:, :], jj[1:, :]).ravel()
                coup = (-upper[:-1, :] / h**2).ravel()
            else:
                src = flat_idx(ii[:, :-1], jj[:, :-1]).ravel()
                dst = flat_idx(ii[:, 1:], jj[:, 1:]).ravel()
                coup = (-upper[:, :-1] / h**2).ravel()
        else:
            src = center
            if axis == 0:
                dst = flat_idx((ii + 1) % g.npts[0], jj).ravel()
            else:
                dst = flat_idx(ii, (jj + 1) % my).ravel()
            coup = (-upper / h**2).ravel()
        rows += [src, dst]
        cols += [dst, src]
        data += [coup, coup]
        return sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        )

    def apply(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        matrix = self.assemble(t)
        return (matrix @ state.ravel()).reshape(self.grid.shape)

    def shifted_solve(self, t: float, sigma: float, r) -> np.ndarray:
        rhs = _as_state(self.grid, r)
        key = (self._time_key(t), float(sigma))
        with self._lock:
            factor = self._factor if self._factor_key == key else None
        if factor is None:
            matrix = self.assemble(t)
            shifted = (sigma * sp.identity(self.grid.size, format="csc") + matrix).tocsc()
            factor = splu(shifted)
            with self._lock:
                self._factor_key = key
                self._factor = factor
                self._factor_count += 1
        return factor.solve(rhs.ravel()).reshape(self.grid.shape)


class SpectralDiagonalOperator(LinearOperator):
    """Fourier multiplier operator on a periodic grid.

    The symbol is a real nonnegative array over the discrete
    frequencies; apply and shifted_solve are exact in the transform
    basis, so there is nothing to factorize.
    """

    def __init__(self, grid: Grid, symbol: np.ndarray, name: str = "multiplier"):
        if grid.boundary != PERIODIC:
            raise ConfigError("spectral operators require a periodic grid")
        symbol = np.asarray(symbol)
        if np.iscomplexobj(symbol):
            raise UnsupportedOperationError("spectral symbols must be real")
        if symbol.shape != grid.shape:
            raise DomainError("symbol shape does not match grid")
        self.grid = grid
        self.symbol = symbol.astype(float)
        self.name = name
        self.autonomous = True
        if self.symbol.min() < 0.0:
            raise CoercivityError(f"{name}: spectral symbol must be nonnegative")
        if self.symbol.max() > 0.0:
            _coercivity_spot_check(lambda v: self.apply(0.0, v), grid, name)

    @property
    def backend(self) -> str:
        return "spectral"

    def assemble(self, t: float):
        return self.symbol

    def apply(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        return np.fft.ifftn(self.symbol * np.fft.fftn(state))

    def shifted_solve(self, t: float, sigma: float, r) -> np.ndarray:
        rhs = _as_state(self.grid, r)
        denom = sigma + self.symbol
        if denom.min() <= 0.0:
            raise DomainError("shift sigma must keep sigma + symbol positive")
        return np.fft.ifftn(np.fft.fftn(rhs) / denom)


def grid_gradient_padded(v: np.ndarray, grid: Grid) -> tuple[np.ndarray, list[np.ndarray]]:
    """Zero-padded state and its per-axis finite-difference gradients.

    Dirichlet: the state is extended by the homogeneous boundary values;
    gradients are centered at interior nodes and one-sided second order
    at the boundary nodes.  Periodic: no padding, centered differences
    with wraparound.  Returns (padded state, [gradient per axis] on the
    padded index set).
    """
    if grid.boundary == PERIODIC:
        grads = []
        for axis in range(grid.ndim):
            h = grid.h[axis]
            grads.append((np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h))
        return v, grads
    pad_width = [(1, 1)] * grid.ndim
    padded = np.pad(v, pad_width, mode="constant")
    grads = []
    for axis in range(grid.ndim):
        h = grid.h[axis]
        grad = np.empty_like(padded)
        inner = [slice(None)] * grid.ndim

        def sl(expr):
            picks = list(inner)
            picks[axis] = expr
            return tuple(picks)

        grad[sl(slice(1, -1))] = (
            padded[sl(slice(2, None))] - padded[sl(slice(None, -2))]
        ) / (2.0 * h)
        grad[sl(0)] = (
            -3.0 * padded[sl(0)] + 4.0 * padded[sl(1)] - padded[sl(2)]
        ) / (2.0 * h)
        grad[sl(-1)] = (
            3.0 * padded[sl(-1)] - 4.0 * padded[sl(-2)] + padded[sl(-3)]
        ) / (2.0 * h)
        grads.append(grad)
    return padded, grads


def _padded_coords(grid: Grid):
    """Coordinates matching the padded index set of grid_gradient_padded."""
    if grid.boundary == PERIODIC:
        return grid.coords()
    axes = []
    for axis in range(grid.ndim):
        (lo, hi) = grid.extents[axis]
        nodes = grid.axis_nodes(axis)
        axes.append(np.concatenate([[lo], nodes, [hi]]))
    if grid.ndim == 1:
        return axes[0]
    return tuple(np.meshgrid(*axes, indexing="ij"))


def _centered_divergence(components, grid: Grid) -> np.ndarray:
    """Divergence of a padded (Dirichlet) or plain (periodic) field,
    evaluated at the grid nodes by centered differences."""
    out = np.zeros(grid.shape, dtype=complex)
    for axis, comp in enumerate(components):
        if comp is None:
            continue
        h = grid.h[axis]
        if grid.boundary == PERIODIC:
            out += (np.roll(comp, -1, axis) - np.roll(comp, 1, axis)) / (2.0 * h)
        else:
            take = [slice(1, -1)] * grid.ndim
            hi = list(take)
            hi[axis] = slice(2, None)
            lo = list(take)
            lo[axis] = slice(None, -2)
            out += (comp[tuple(hi)] - comp[tuple(lo)]) / (2.0 * h)
    return out


class NonlinearTerm(ABC):
    """Explicit right-hand side B(t, v) on grid states."""

    grid: Grid

    @abstractmethod
    def evaluate(self, t: float, v) -> np.ndarray: ...


class DivergenceFormTerm(NonlinearTerm):
    """B(t, v) = f(v, x, t) + div g(v, x, t), divergence by centered
    differences of g sampled at the (boundary-extended) nodes."""

    def __init__(self, grid: Grid, f=None, g=None):
        self.grid = grid
        self.f = f
        self.g = g

    def evaluate(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        out = np.zeros(self.grid.shape, dtype=complex)
        if self.f is not None:
            out += np.asarray(self.f(state, self.grid.coords(), t), dtype=complex)
        if self.g is not None:
            padded, _ = grid_gradient_padded(state, self.grid)
            gval = self.g(padded, _padded_coords(self.grid), t)
            comps = (gval,) if self.grid.ndim == 1 else tuple(gval)
            out += _centered_divergence(comps, self.grid)
        return out


class GradientFormTerm(NonlinearTerm):
    """B(t, v) = f(v, grad v, x, t) + div g(v, grad v, x, t)."""

    def __init__(self, grid: Grid, f=None, g=None):
        self.grid = grid
        self.f = f
        self.g = g

    def evaluate(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        padded, grads = grid_gradient_padded(state, self.grid)
        out = np.zeros(self.grid.shape, dtype=complex)
        if self.f is not None:
            if self.grid.boundary == PERIODIC:
                node_grads = grads
            else:
                take = tuple([slice(1, -1)] * self.grid.ndim)
                node_grads = [g[take] for g in grads]
            gradient = node_grads[0] if self.grid.ndim == 1 else tuple(node_grads)
            out += np.asarray(
                self.f(state, gradient, self.grid.coords(), t), dtype=complex
            )
        if self.g is not None:
            gradient = grads[0] if self.grid.ndim == 1 else tuple(grads)
            gval = self.g(padded, gradient, _padded_coords(self.grid), t)
            comps = (gval,) if self.grid.ndim == 1 else tuple(gval)
            out += _centered_divergence(comps, self.grid)
        return out


class PointwiseTerm(NonlinearTerm):
    """B(t, v) = f(v) applied entrywise."""

    def __init__(self, grid: Grid, f):
        self.grid = grid
        self.f = f

    def evaluate(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        return np.asarray(self.f(state), dtype=complex)


class LaplacianPointwiseTerm(NonlinearTerm):
    """B(t, v) = Laplacian of f(v), the Laplacian applied spectrally."""

    def __init__(self, grid: Grid, f):
        if grid.boundary != PERIODIC:
            raise ConfigError("spectral Laplacian requires a periodic grid")
        self.grid = grid
        self.f = f
        freqs = fourier_frequencies(grid)
        self._neg_k2 = -sum(xi**2 for xi in freqs)

    def evaluate(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        fv = np.asarray(self.f(state), dtype=complex)
        return np.fft.ifftn(self._neg_k2 * np.fft.fftn(fv))


class ScaledSumTerm(NonlinearTerm):
    """Linear combination sum_i c_i B_i(t, v) of terms on one grid."""

    def __init__(self, parts: list[tuple[float, NonlinearTerm]]):
        if not parts:
            raise DomainError("empty linear combination")
        if len({term.grid.shape for _, term in parts}) > 1:
            raise DomainError("terms in a combination must share the grid shape")
        self.parts = [(float(c), term) for c, term in parts]
        self.grid = parts[0][1].grid

    def evaluate(self, t: float, v) -> np.ndarray:
        out = np.zeros(self.grid.shape, dtype=complex)
        for c, term in self.parts:
            out += c * term.evaluate(t, v)
        return out


def default_cubic_sink(v, x, t):
    return -(v**3)


def _default_flux(grid: Grid):
    if grid.ndim == 1:
        return lambda v, x, t: np.exp(v)
    return lambda v, x, t: (np.exp(v), np.zeros_like(v))


def assemble_example1(
    grid: Grid, a, b, f=default_cubic_sink, g="default", autonomous: bool | None = None
):
    """Variable-coefficient diffusion with a pointwise sink and an
    exponential flux: A = -div((a+ib) grad .), B = f(u,x,t) + div g(u,x,t).

    ``f=None`` or ``g=None`` drops the respective part; the defaults are
    f = -u^3 and g = (e^u, 0, ...).
    """
    op = SparseDiffusionOperator(grid, a, b, autonomous=autonomous)
    flux = _default_flux(grid) if isinstance(g, str) and g == "default" else g
    term = DivergenceFormTerm(grid, f=f, g=flux)
    return op, term


def assemble_example2(
    grid: Grid, a, b, f=None, g=None, autonomous: bool | None = None
):
    """Variable-coefficient diffusion with gradient-dependent forcing:
    B = f(u, grad u, x, t) + div g(u, grad u, x, t).

    Default f is the quartic gradient drag -|grad u|^4 u, default g is
    absent.
    """
    if f is None and g is None:
        f = default_gradient_drag
    op = SparseDiffusionOperator(grid, a, b, autonomous=autonomous)
    term = GradientFormTerm(grid, f=f, g=g)
    return op, term


def default_gradient_drag(v, grad, x, t):
    comps = (grad,) if not isinstance(grad, tuple) else grad
    sq = sum(np.abs(c) ** 2 for c in comps)
    return -(sq**2) * v


def assemble_example3(grid: Grid, f=np.expm1):
    """Half-Laplacian semilinear problem: A has symbol |xi| (zero on the
    constant mode), B = f(u) pointwise; default f(u) = e^u - 1."""
    freqs = fourier_frequencies(grid)
    symbol = np.sqrt(sum(xi**2 for xi in freqs))
    op = SpectralDiagonalOperator(grid, symbol, name="half-laplacian")
    return op, PointwiseTerm(grid, f)


def double_well_drift(v):
    return v**3 - v


def assemble_example4(grid: Grid, f=double_well_drift):
    """Biharmonic phase-field problem: A has symbol |xi|^4, B is the
    spectral Laplacian of f(u); default f(u) = u^3 - u."""
    freqs = fourier_frequencies(grid)
    k2 = sum(xi**2 for xi in freqs)
    op = SpectralDiagonalOperator(grid, k2**2, name="biharmonic")
    return op, LaplacianPointwiseTerm(grid, f)


def hermitian_parts(op: LinearOperator, t: float = 0.0):
    """Hermitian and anti-Hermitian parts of the assembled operator.

    Sparse backend: returns (A_s, A_a) as sparse matrices with
    A = A_s + A_a exactly.  Spectral backend: a real symbol is already
    self-adjoint, so the parts are (diag(symbol), 0), both returned in
    the Fourier-diagonal representation.
    """
    if op.backend == "sparse":
        matrix = op.assemble(t).tocsc()
        sym = 0.5 * (matrix + matrix.conj().T)
        return sym, (matrix - sym).tocsc()
    symbol = op.assemble(t)
    if np.iscomplexobj(symbol):
        raise UnsupportedOperationError(
            "hermitian parts of a complex-symbol spectral operator are not supported"
        )
    flat = symbol.ravel()
    return sp.diags(flat).tocsc(), sp.csc_matrix((flat.size, flat.size))
