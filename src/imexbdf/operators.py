"""Discrete grids, linear operators, and explicit-side nonlinear terms.

Two operator backends feed the time stepper through one interface:

* sparse finite differences for variable-coefficient diffusion
  -div((a + ib) grad u) in conservative form on Dirichlet or periodic
  grids,
* spectral-diagonal operators (Fourier multipliers) on periodic grids,
  used for the half-Laplacian |xi| and the biharmonic |xi|^4.

The 1-d stencil is held as its bands (plus two corners when periodic),
formed straight from the interface coefficients and factored with
LAPACK's banded LU; the 2-d stencil is a CSC matrix, factored with SuperLU.

Nonlinear terms B(t, v) are evaluated on grid states, one job per
class: pointwise maps, div g(v), f(v, grad v), the spectral Laplacian
of f(v), and weighted sums.  The explicit parts of the paper's four
examples are named once, in ``NONLINEARITY_REGISTRY`` and
``EXAMPLE_TERMS``; ``build_explicit_term`` builds both
``assemble_example1..4`` and the config's ``nonlinearity`` from them.
The stepper only ever sees ``apply``, the shifted solve and
``evaluate``.  These operators take and return complex arrays shaped
like the grid; ``shifted_solve`` never overwrites its right-hand side
and returns a fresh array.  The stepper solves through the private
``_solve_in_place``, which overwrites the right-hand side, a row of the
stepper's trajectory block, with the solution: on a cached 1-d factor
with no new array, otherwise by copying ``shifted_solve``'s result.
"""

from __future__ import annotations

import functools
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Number

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgttrf, zgttrs
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

    @functools.cached_property
    def size(self) -> int:
        return int(np.prod(self.npts))

    @functools.cached_property
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
        in 1d, the (X, Y) mesh pair in 2d, read-only so that a term
        can build it once and pass it to every evaluation."""
        meshes = self.meshes()
        for arr in meshes:
            arr.setflags(write=False)
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


@functools.lru_cache(maxsize=8)
def _coercivity_probes(shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(12345)
    probes = np.array(
        [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)]
    )
    probes.setflags(write=False)
    return probes


@functools.lru_cache(maxsize=8)
def _band_forms(n: int, periodic: bool) -> np.ndarray:
    """Row i: what each entry of ``np.concatenate(_bands(...))`` adds to
    <Av, v> for probe v = p_i, so Re(forms @ bands) is Re<Av, v>."""
    p = _coercivity_probes((n,))
    links = np.roll(p, -1, axis=1).conj() * p  # conj(p_{j+1}) p_j, cyclically
    corners = links[:, -1:] if periodic else links[:, :0]
    parts = [links[:, :-1], p.conj() * p, links[:, :-1].conj(), corners, corners.conj()]
    forms = np.concatenate(parts, axis=1)
    forms.setflags(write=False)
    return forms


class LinearOperator(ABC):
    """Time-dependent discrete operator A(t) behind a uniform interface."""

    grid: Grid
    autonomous: bool

    @abstractmethod
    def apply(self, t: float, v) -> np.ndarray: ...

    @abstractmethod
    def shifted_solve(self, t: float, sigma: float, r, predict=None) -> np.ndarray:
        """Solve (sigma I + A(t)) u = r into a fresh array; r is never
        overwritten.  ``predict`` is None or a zero-argument callable
        returning a guess of u, which a solver that iterates may start
        from; others ignore it."""

    def _solve_in_place(self, t: float, sigma: float, row: np.ndarray, predict=None) -> None:
        """The stepper's solve: overwrite ``row``, the right-hand side as
        a flat state, with u.  An operator that can solve without a fresh
        array overrides this."""
        state = row.reshape(self.grid.shape)
        state[...] = self.shifted_solve(t, sigma, state, predict)

    @property
    def factorization_count(self) -> int:
        return 0


class SparseDiffusionOperator(LinearOperator):
    """-div((a + ib) grad u) by conservative second-order differences.

    Coefficients are sampled at cell midpoints, which keeps the b == 0
    Dirichlet matrix real symmetric positive definite.  On 1-d grids
    A(t) is its three bands (and the periodic corners) formed straight
    from the interface coefficients (``_bands``); ``assemble`` makes a
    CSC matrix of them only when called.  In 2-d the CSC pattern and a
    constant real weight matrix W_i per axis are built once, so the
    matrix at time t has data sum_i W_i @ c_i(t) / h_i^2, with c_i(t)
    the interface coefficients along axis i.  Shifted solves go
    through a cached direct factorization: on 1-d grids a partially
    pivoted tridiagonal LU (``_TridiagonalLU``, LAPACK zgttrf/zgttrs)
    of the bands, with the two periodic corners added by
    Sherman-Morrison; in 2-d a sparse LU (SuperLU) with a symmetric
    fill-reducing ordering (the stencils have a symmetric pattern).
    The factor is reused across steps when the operator is autonomous
    and the step size is fixed, and rebuilt when sigma changes.  A new time alone rebuilds it on
    1-d grids; in 2-d, A(t) - A(t_old) = O(t - t_old) makes the factor
    at t_old a near-exact preconditioner, so the solve refines on it
    (``_refine``) to the backward error of a fresh factor, starting
    from the caller's prediction of u when ``predict`` is given (the
    stepper passes its order-k extrapolation of the states), and
    refactorizes at (t, sigma) only when that takes more than
    ``_REFINE_MAX_STEPS`` corrections.  A new A(t) must give Re<Av, v> > 0 for
    4 seeded random v, in 1-d via their cached conj(v_i) v_j (``_band_forms``).
    """

    def __init__(self, grid: Grid, a, b, autonomous: bool | None = None):
        self.grid = grid
        scalars = isinstance(a, Number) and isinstance(b, Number)
        self._a = (lambda *args: float(a)) if isinstance(a, Number) else a
        self._b = (lambda *args: float(b)) if isinstance(b, Number) else b
        self.autonomous = scalars if autonomous is None else bool(autonomous)
        self._iface_coords = [_interface_coords(grid, axis) for axis in range(grid.ndim)]
        if grid.ndim == 2:
            self._indptr, self._indices, self._diag_slots, self._weights = _stencil_pattern(grid)
        self._lock = threading.Lock()
        self._stencil_cache = (None, None)
        # (key, factor) in one tuple, so a lock-free read never pairs
        # one key with another factor
        self._factor_cache = (None, None)
        self._factor_count = 0
        self._stencil(0.0)  # validate coefficients early

    @property
    def factorization_count(self) -> int:
        return self._factor_count

    @property
    def _factor(self):
        """The cached factor, for inspection."""
        return self._factor_cache[1]

    def _time_key(self, t: float):
        return "const" if self.autonomous else float(t)

    def _midpoint_coeffs(self, t: float, axis: int) -> np.ndarray:
        """Complex a + ib at the cell interfaces along one axis."""
        args = (*self._iface_coords[axis], t)
        c = np.empty(args[0].shape, dtype=complex)
        c.real, c.imag = self._a(*args), self._b(*args)  # scalars broadcast
        # NaN fails every comparison, so the guard is written to fail on it
        if not (0.0 < c.real.min() and c.real.max() < np.inf and np.isfinite(c.imag).all()):
            raise CoercivityError("diffusion coefficient a must be positive and a, b finite")
        return c

    def assemble(self, t: float) -> sp.csc_matrix:
        """The matrix of A(t); on 1-d grids made from the bands on each call."""
        stencil = self._stencil(t)
        if self.grid.ndim == 2:
            return stencil
        sub, diag, sup, corners = stencil
        offsets = [-1, 0, 1, diag.size - 1, 1 - diag.size][: 3 + corners.size]
        return sp.diags([sub, diag, sup, *corners[:, None]], offsets, format="csc")

    def _stencil(self, t: float):
        """A(t) as ``_build`` makes it, spot-checked; the last one is cached."""
        key = self._time_key(t)
        with self._lock:
            cached_key, stencil = self._stencil_cache
        if cached_key == key:
            return stencil
        stencil = self._build(t)
        # catches sign errors, not genuine indefiniteness in adversarial corners
        if self.grid.ndim == 1:
            forms = _band_forms(self.grid.size, self.grid.boundary == PERIODIC)
            values = (forms @ np.concatenate(stencil)).real
        else:
            probes = _coercivity_probes(self.grid.shape).reshape(-1, self.grid.size)
            values = np.vecdot(probes, (stencil @ np.ascontiguousarray(probes.T)).T).real
        if np.any(values <= 0.0):
            raise CoercivityError("diffusion operator: random state with nonpositive Re<Av,v>")
        with self._lock:
            self._stencil_cache = (key, stencil)
        return stencil

    def _build(self, t: float):
        """A(t): the bands (``_bands``) on 1-d grids, the CSC matrix in 2-d."""
        if self.grid.ndim == 1:
            return _bands(self._midpoint_coeffs(t, 0), self.grid.h[0], self.grid.boundary)
        parts = [
            weights @ self._midpoint_coeffs(t, axis).ravel() / h**2
            for axis, (weights, h) in enumerate(zip(self._weights, self.grid.h))
        ]
        return self._csc(sum(parts[1:], parts[0]))

    def _csc(self, data: np.ndarray) -> sp.csc_matrix:
        size = self.grid.size
        return sp.csc_matrix((data, self._indices, self._indptr), shape=(size, size))

    def apply(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        if self.grid.ndim == 1:
            return _band_product(self._stencil(t), state)
        return (self.assemble(t) @ state.ravel()).reshape(self.grid.shape)

    def shifted_solve(self, t: float, sigma: float, r, predict=None) -> np.ndarray:
        """Solve (sigma I + A(t)) u = r on the cached factor; only a 2-d
        refinement at a new time calls ``predict``, for its start."""
        rhs = _as_state(self.grid, r).ravel()
        key = (self._time_key(t), float(sigma))
        factor_key, factor = self._factor_cache
        if factor_key != key:
            if self.grid.ndim == 1:
                sub, diag, sup, corners = self._stencil(t)
                factor = _TridiagonalLU(sub, diag + sigma, sup, corners)
            else:
                data = self.assemble(t).data.copy()
                data[self._diag_slots] += sigma
                matrix = self._csc(data)
                if factor_key is not None and factor_key[1] == key[1]:
                    start = None if predict is None else _as_state(self.grid, predict()).ravel()
                    u = _refine(factor, matrix, rhs, start)
                    if u is not None:
                        return u.reshape(self.grid.shape)
                factor = splu(matrix, permc_spec="MMD_AT_PLUS_A")
            with self._lock:
                self._factor_cache = (key, factor)
                self._factor_count += 1
        return factor.solve(rhs).reshape(self.grid.shape)

    def _solve_in_place(self, t: float, sigma: float, row: np.ndarray, predict=None) -> None:
        """On a 1-d grid, a solve on the cached factor overwrites ``row``
        with no fresh array; a new factor, and every 2-d solve, goes
        through ``shifted_solve``."""
        key, factor = self._factor_cache
        if isinstance(factor, _TridiagonalLU) and key == (self._time_key(t), sigma):
            x = factor.solve(row, overwrite_b=True)
            if x is not row:  # zgttrs copied a row that is not contiguous complex128
                row[...] = x
        else:
            super()._solve_in_place(t, sigma, row, predict)


def _bands(c: np.ndarray, h: float, boundary: str) -> tuple[np.ndarray, ...]:
    """Sub-, main and super-diagonal of the 1-d stencil for interface
    coefficients c (``_midpoint_coeffs``) and the periodic corners
    M[0, n-1], M[n-1, 0] (none on a Dirichlet grid)."""
    link = -c / h**2
    if boundary == DIRICHLET:
        return link[1:-1], (c[:-1] + c[1:]) / h**2, link[1:-1], link[:0]
    return link[1:], (c + np.roll(c, -1)) / h**2, link[1:], link[[0, 0]]


def _band_product(bands, v: np.ndarray) -> np.ndarray:
    """The banded matrix of ``_bands`` applied along the last axis of v."""
    sub, diag, sup, corners = bands
    out = diag * v
    out[..., 1:] += sub * v[..., :-1]
    out[..., :-1] += sup * v[..., 1:]
    if corners.size:
        out[..., 0] += corners[0] * v[..., -1]
        out[..., -1] += corners[1] * v[..., 0]
    return out


class _TridiagonalLU:
    """Partially pivoted LU (LAPACK zgttrf) of the tridiagonal matrix M
    with sub-, main and super-diagonal ``sub``, ``diag``, ``sup``, plus
    the corners alpha = M[0, n-1] and beta = M[n-1, 0] of a periodic
    stencil when ``corners`` holds them (empty otherwise).

    The corners enter by Sherman-Morrison: with gamma = -diag[0],
    M = T + u v^T for u = (gamma, 0, ..., 0, beta), v = (1, 0, ..., 0,
    alpha / gamma) and T the band with diag[0] - gamma and diag[n-1] -
    alpha beta / gamma; z = T^-1 u is computed once, and a solve is
    y - (v.y) / (1 + v.z) z with y = T^-1 b.  An exactly singular T
    or a zero denominator raises RuntimeError.
    """

    def __init__(self, sub, diag, sup, corners):
        self._correction = None
        if corners.size:
            alpha, beta = corners
            gamma = -diag[0]
            if gamma == 0:
                raise RuntimeError("periodic factor needs a nonzero M[0, 0]")
            diag = diag.copy()
            diag[0] -= gamma
            diag[-1] -= alpha * beta / gamma
        *self._lu, info = zgttrf(sub, diag, sup)
        if info != 0:
            raise RuntimeError(f"tridiagonal factor is exactly singular (zero pivot {info})")
        if corners.size:
            u = np.zeros(diag.size, dtype=complex)
            u[0], u[-1] = gamma, beta
            z = self.solve(u)  # T^-1 u: no correction is set yet
            ratio = alpha / gamma
            denom = 1.0 + z[0] + ratio * z[-1]
            if denom == 0:
                raise RuntimeError("periodic corner correction is exactly singular")
            self._correction = (ratio, denom, z)

    def solve(self, rhs: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        """M^-1 rhs; in rhs itself if ``overwrite_b`` and rhs is contiguous complex128."""
        x, _ = zgttrs(*self._lu, rhs, overwrite_b=overwrite_b)
        if self._correction is not None:
            ratio, denom, z = self._correction
            x -= (x[0] + ratio * x[-1]) / denom * z
        return x


# Corrections allowed on a factor of another time before refactorizing.
_REFINE_MAX_STEPS = 8


def _refine(factor, matrix, rhs: np.ndarray, start=None) -> np.ndarray | None:
    """Solve matrix @ u = rhs by refinement u <- u + factor^-1 (rhs -
    matrix u) on ``factor``, the LU of a nearby matrix, until the max-norm
    backward error is that of a fresh factor: ||rhs - matrix u|| <=
    eps (||matrix|| ||u|| + ||rhs||).  The first iterate is
    start + factor^-1 (rhs - matrix start), or factor^-1 rhs without a
    ``start``.  None if that takes more than _REFINE_MAX_STEPS
    corrections."""
    eps = np.finfo(float).eps
    # ||matrix||_inf: the largest absolute row sum (CSC indices are rows)
    matrix_norm = np.bincount(matrix.indices, np.abs(matrix.data), matrix.shape[0]).max()
    rhs_norm = np.abs(rhs).max()
    if start is None:
        u = factor.solve(rhs)
    else:
        u = start + factor.solve(rhs - matrix @ start)
    for step in range(_REFINE_MAX_STEPS + 1):
        residual = rhs - matrix @ u
        if np.abs(residual).max() <= eps * (matrix_norm * np.abs(u).max() + rhs_norm):
            return u
        if step < _REFINE_MAX_STEPS:
            u += factor.solve(residual)
    return None


def _interface_coords(grid: Grid, axis: int) -> tuple[np.ndarray, ...]:
    """Coordinates of the cell interfaces along one axis, in the layout
    the coefficient functions take: the points in 1d, an (X, Y) mesh
    pair in 2d.  Dirichlet grids have n + 1 interfaces per line,
    periodic grids n, interface j sitting between nodes j-1 and j."""
    (lo, _), n, h = grid.extents[axis], grid.npts[axis], grid.h[axis]
    if grid.boundary == DIRICHLET:
        mids = lo + h * (np.arange(n + 1) + 0.5)
    else:
        mids = lo + h * (np.arange(n) - 0.5)
    if grid.ndim == 1:
        coords = (mids,)
    elif axis == 0:
        coords = tuple(np.meshgrid(mids, grid.axis_nodes(1), indexing="ij"))
    else:
        coords = tuple(np.meshgrid(grid.axis_nodes(0), mids, indexing="ij"))
    for arr in coords:
        arr.setflags(write=False)
    return coords


def _stencil_pattern(grid: Grid):
    """CSC pattern of -div(c grad .) on ``grid`` and its weights.

    Returns (indptr, indices, diag_slots, weights): the matrix for
    interface coefficients c_i along axis i (``_midpoint_coeffs``,
    raveled) has data sum_i weights[i] @ c_i / h_i^2 in this pattern,
    and diag_slots are the data positions of its diagonal.  The weights
    are +-1, so each entry is a sum of interface coefficients divided
    by h_i^2, the stencil as written.
    """
    node = np.arange(grid.size).reshape(grid.shape)
    rows, cols, ifaces, signs, n_ifaces = [], [], [], [], []
    for axis, n in enumerate(grid.npts):
        iface_shape = list(grid.shape)
        if grid.boundary == DIRICHLET:
            iface_shape[axis] += 1
        iface = np.arange(np.prod(iface_shape)).reshape(iface_shape)
        below = np.take(iface, np.arange(n), axis).ravel()
        above = np.take(iface, np.arange(1, n + 1) % iface_shape[axis], axis)
        # each node couples to its successor through the interface above it
        src, dst, link = node, np.roll(node, -1, axis), above
        if grid.boundary == DIRICHLET:
            inner = tuple(slice(0, n - 1) if i == axis else slice(None) for i in range(grid.ndim))
            src, dst, link = src[inner], dst[inner], link[inner]
        center, src, dst, link = node.ravel(), src.ravel(), dst.ravel(), link.ravel()
        rows.append(np.concatenate([center, center, src, dst]))
        cols.append(np.concatenate([center, center, dst, src]))
        ifaces.append(np.concatenate([below, above.ravel(), link, link]))
        signs.append(np.repeat([1.0, -1.0], [2 * center.size, 2 * link.size]))
        n_ifaces.append(iface.size)
    # terms at the same position (the diagonal) share one slot
    size = grid.size
    keys, slots = np.unique(np.concatenate(cols) * size + np.concatenate(rows), return_inverse=True)
    key_cols, indices = np.divmod(keys, size)
    indptr = np.searchsorted(key_cols, np.arange(size + 1))
    diag_slots = np.flatnonzero(indices == key_cols)
    axis_slots = np.split(slots, np.cumsum([f.size for f in ifaces])[:-1])
    weights = [
        sp.csr_matrix((w, (slot, f)), shape=(keys.size, m))
        for w, slot, f, m in zip(signs, axis_slots, ifaces, n_ifaces)
    ]
    indptr, indices = indptr.astype(np.intc), indices.astype(np.intc)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices, diag_slots, weights


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
        # coercive by construction: a nonnegative symbol makes
        # Re<Av,v> = sum_k symbol_k |v^_k|^2 / N >= 0 for every v
        if self.symbol.min() < 0.0:
            raise CoercivityError(f"{name}: spectral symbol must be nonnegative")

    def apply(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        return np.fft.ifftn(self.symbol * np.fft.fftn(state))

    def shifted_solve(self, t: float, sigma: float, r, predict=None) -> np.ndarray:
        rhs = _as_state(self.grid, r)
        denom = sigma + self.symbol
        if denom.min() <= 0.0:
            raise DomainError("shift sigma must keep sigma + symbol positive")
        return np.fft.ifftn(np.fft.fftn(rhs) / denom)


def _pad(v: np.ndarray, grid: Grid) -> np.ndarray:
    """A state (or a stack, on its trailing grid axes) on the padded index
    set: extended by the homogeneous boundary values on Dirichlet grids."""
    if grid.boundary == PERIODIC:
        return v
    lead = v.shape[: v.ndim - grid.ndim]
    padded = np.zeros(lead + tuple(n + 2 for n in grid.shape), dtype=v.dtype)
    padded[(..., *(slice(1, -1),) * grid.ndim)] = v
    return padded


def _centered_difference(w: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(w_{j+1} - w_{j-1}) / 2h along grid ``axis`` at the grid nodes, for
    w (or a stack) on the padded index set of ``_pad`` (periodic: wraps)."""
    h = grid.h[axis]
    axis -= grid.ndim  # counted from the end
    if grid.boundary == PERIODIC:
        return (np.roll(w, -1, axis) - np.roll(w, 1, axis)) / (2.0 * h)
    hi = [slice(1, -1)] * grid.ndim
    lo = list(hi)
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    return (w[(..., *hi)] - w[(..., *lo)]) / (2.0 * h)


def grid_gradient(v: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Per-axis centered-difference gradients of a state (or a stack) at
    the grid nodes, using the homogeneous boundary values on Dirichlet grids."""
    padded = _pad(v, grid)
    return [_centered_difference(padded, grid, axis) for axis in range(grid.ndim)]


def _padded_coords(grid: Grid):
    """Read-only coordinates matching the padded index set of ``_pad``."""
    if grid.boundary == PERIODIC:
        return grid.coords()
    axes = [
        np.concatenate([[lo], grid.axis_nodes(axis), [hi]])
        for axis, (lo, hi) in enumerate(grid.extents)
    ]
    coords = np.meshgrid(*axes, indexing="ij")
    for arr in coords:
        arr.setflags(write=False)
    return coords[0] if grid.ndim == 1 else tuple(coords)


def _centered_divergence(components, grid: Grid) -> np.ndarray:
    """Divergence of a padded (Dirichlet) or plain (periodic) field,
    evaluated at the grid nodes by centered differences."""
    out = np.zeros(grid.shape, dtype=complex)
    for axis, comp in enumerate(components):
        out += _centered_difference(comp, grid, axis)
    return out


class NonlinearTerm(ABC):
    """Explicit right-hand side B(t, v) on grid states."""

    grid: Grid

    @abstractmethod
    def evaluate(self, t: float, v) -> np.ndarray: ...


class DivergenceFormTerm(NonlinearTerm):
    """B(t, v) = div g(v, x, t), by centered differences of g sampled at
    the (boundary-extended) nodes.  In 2d g returns one component per
    axis."""

    def __init__(self, grid: Grid, g):
        self.grid = grid
        self.g = g
        self._coords = _padded_coords(grid)

    def evaluate(self, t: float, v) -> np.ndarray:
        padded = _pad(_as_state(self.grid, v), self.grid)
        gval = self.g(padded, self._coords, t)
        comps = (gval,) if self.grid.ndim == 1 else tuple(gval)
        return _centered_divergence(comps, self.grid)


class GradientFormTerm(NonlinearTerm):
    """B(t, v) = f(v, grad v, x, t), grad v by ``grid_gradient`` (a
    tuple of components in 2d)."""

    def __init__(self, grid: Grid, f):
        self.grid = grid
        self.f = f
        self._coords = grid.coords()

    def evaluate(self, t: float, v) -> np.ndarray:
        state = _as_state(self.grid, v)
        grads = grid_gradient(state, self.grid)
        gradient = grads[0] if self.grid.ndim == 1 else tuple(grads)
        return np.asarray(self.f(state, gradient, self._coords, t), dtype=complex)


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


def default_gradient_drag(v, grad, x, t):
    comps = (grad,) if not isinstance(grad, tuple) else grad
    sq = sum(np.abs(c) ** 2 for c in comps)
    return -(sq**2) * v


def double_well_drift(v):
    return v**3 - v


def _exp_flux(v, x, t):
    return np.exp(v) if v.ndim == 1 else (np.exp(v), np.zeros_like(v))


# The named explicit terms, each a factory grid -> NonlinearTerm.
NONLINEARITY_REGISTRY = {
    "cubic_sink": lambda grid: PointwiseTerm(grid, lambda u: -(u**3)),
    "exp_flux_div": lambda grid: DivergenceFormTerm(grid, _exp_flux),
    "grad_quartic_drag": lambda grid: GradientFormTerm(grid, default_gradient_drag),
    "expm1": lambda grid: PointwiseTerm(grid, np.expm1),
    "double_well_laplacian": lambda grid: LaplacianPointwiseTerm(grid, double_well_drift),
}

# The explicit part B of each of the paper's examples, as registry names
# summed with coefficient 1.
EXAMPLE_TERMS = {
    "1": ("cubic_sink", "exp_flux_div"),
    "2": ("grad_quartic_drag",),
    "3": ("expm1",),
    "4": ("double_well_laplacian",),
}


def build_explicit_term(grid: Grid, parts) -> NonlinearTerm | None:
    """sum c * NONLINEARITY_REGISTRY[name](grid) over the (c, name) pairs
    of ``parts``: None for no pairs, the bare term for one name with
    coefficient 1, a ScaledSumTerm otherwise."""
    terms = [(c, NONLINEARITY_REGISTRY[name](grid)) for c, name in parts]
    if not terms:
        return None
    if len(terms) == 1 and terms[0][0] == 1.0:
        return terms[0][1]
    return ScaledSumTerm(terms)


def _example_term(grid: Grid, example: str) -> NonlinearTerm:
    return build_explicit_term(grid, [(1.0, name) for name in EXAMPLE_TERMS[example]])


def assemble_example1(grid: Grid, a, b, autonomous: bool | None = None):
    """Variable-coefficient diffusion with a pointwise sink and an
    exponential flux: A = -div((a+ib) grad .) and B(u) = -u^3 + div g(u)
    with g(u) = e^u in 1d, (e^u, 0) in 2d (``cubic_sink +
    exp_flux_div``)."""
    op = SparseDiffusionOperator(grid, a, b, autonomous=autonomous)
    return op, _example_term(grid, "1")


def assemble_example2(grid: Grid, a, b, autonomous: bool | None = None):
    """Variable-coefficient diffusion with gradient-dependent forcing:
    A as in example 1 and B(u) = -|grad u|^4 u, the quartic gradient
    drag (``grad_quartic_drag``)."""
    op = SparseDiffusionOperator(grid, a, b, autonomous=autonomous)
    return op, _example_term(grid, "2")


def assemble_example3(grid: Grid):
    """Half-Laplacian semilinear problem: A has symbol |xi| (zero on the
    constant mode) and B(u) = e^u - 1 pointwise (``expm1``)."""
    freqs = fourier_frequencies(grid)
    symbol = np.sqrt(sum(xi**2 for xi in freqs))
    op = SpectralDiagonalOperator(grid, symbol, name="half-laplacian")
    return op, _example_term(grid, "3")


def assemble_example4(grid: Grid):
    """Biharmonic phase-field problem: A has symbol |xi|^4 and B(u) is
    the spectral Laplacian of u^3 - u (``double_well_laplacian``)."""
    freqs = fourier_frequencies(grid)
    k2 = sum(xi**2 for xi in freqs)
    op = SpectralDiagonalOperator(grid, k2**2, name="biharmonic")
    return op, _example_term(grid, "4")
