"""Discrete grids, linear operators, and explicit-side nonlinear terms.

Two operator backends feed the time stepper through one interface:
sparse finite differences for -div((a + ib) grad u) in conservative form
on Dirichlet or periodic grids (the 1-d stencil held as its bands and
factored by LAPACK's banded LU, the 2-d one a CSC matrix factored by
SuperLU), and one spectral-diagonal operator, solved exactly in the
basis that diagonalizes it.  Nonlinear terms B(t, v) are evaluated on
grid states, one job per class: pointwise maps, div g(v), f(v, grad v),
the spectral Laplacian of f(v), and weighted sums.  The explicit parts
of the paper's four examples are named once, in
``NONLINEARITY_REGISTRY`` and ``EXAMPLE_TERMS``.  Grid operators take
and return complex arrays shaped like the grid; ``shifted_solve`` never
overwrites its right-hand side.  The stepper solves through the private
``_solve_in_place``, which overwrites the right-hand side, a row of its
trajectory block, with the solution.
"""

from __future__ import annotations

import functools
import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Number

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgttrf, zgttrs
from scipy.sparse.linalg import splu

from .errors import CoercivityError, ConfigError, DomainError, UnsupportedOperationError
from .expressions import FieldExpr

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
            if not -np.inf < lo < hi < np.inf:  # NaN fails too
                raise DomainError(f"extent ({lo}, {hi}) must be finite and nonempty")
            if n < 4:
                raise DomainError(f"need at least 4 points per axis, got {n}")
        # a finite extent whose width overflows, or whose cells underflow
        if not all(0.0 < h < np.inf for h in self.h):
            raise DomainError(f"grid spacings {self.h} must be positive and finite")

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
        return _mesh(*(self.axis_nodes(i) for i in range(self.ndim)))

    def coords(self):
        """Coordinate argument handed to field functions: the node array
        in 1d, the (X, Y) mesh pair in 2d, read-only so that a term
        can build it once and pass it to every evaluation."""
        meshes = self.meshes()
        return meshes[0] if self.ndim == 1 else meshes


def _mesh(*axes) -> tuple[np.ndarray, ...]:
    """The "ij" meshes of the coordinate ``axes``, read-only."""
    meshes = np.meshgrid(*axes, indexing="ij")
    for arr in meshes:
        arr.setflags(write=False)
    return tuple(meshes)


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


def _sine_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues mu_j = (4/h^2) sin^2(j pi h / 2), j = 1..n, of the 1-d Dirichlet
    -Laplacian's stencil, in the order of the orthonormal DST-I's coefficients."""
    if grid.boundary != DIRICHLET or grid.ndim != 1:
        raise ConfigError("the sine symbol needs a 1-d Dirichlet grid")
    n, h = grid.npts[0], grid.h[0]
    return (4.0 / h**2) * np.sin(np.arange(1, n + 1) * (np.pi * h / 2.0)) ** 2


def _as_state(grid: Grid, v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.shape != grid.shape:
        raise DomainError(f"state shape {arr.shape} does not match grid {grid.shape}")
    return arr


def _probe_draws(shape: tuple[int, ...]):
    """The 4 seeded random complex probes of the coercivity spot check, one at a time."""
    rng = np.random.default_rng(12345)
    for _ in range(4):
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@functools.lru_cache(maxsize=8)
def _coercivity_probes(shape: tuple[int, ...]) -> np.ndarray:
    probes = np.array(list(_probe_draws(shape)))
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


@functools.lru_cache(maxsize=8)
def _stencil_forms(shape: tuple[int, int], periodic: bool) -> np.ndarray:
    """Row i: what each of the 2-d entries of ``_build`` adds to Re<Av, v>
    for probe v = p_i, so forms @ entries.real is Re<Av, v>.  An entry
    adds Re(conj(p_r) p_c) for each slot (r, c) of the matrix it fills
    (``_stencil_pattern``): |p_r|^2 as the node sum at r, 2 Re(conj(p_r) p_c)
    as the link of nodes r and c, whose two slots' imaginary parts
    cancel, and 0 as a Dirichlet boundary interface, which links no nodes."""
    indptr, rows, _, gather = _stencil_pattern(shape, periodic)
    cols = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    count = math.prod(shape) + sum(
        math.prod(_iface_shape(shape, axis, periodic)) for axis in range(2)
    )
    forms = np.empty((4, count))
    for row, p in zip(forms, _probe_draws(shape)):  # one probe at a time, kept real
        re, im = p.real.ravel(), p.imag.ravel()
        row[...] = np.bincount(gather, re[rows] * re[cols] + im[rows] * im[cols], count)
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
    CSC matrix of them only when called.  In 2-d the CSC pattern and
    one gather index are built once (``_stencil_pattern``): the matrix
    at time t takes its data from the node sums (c_lo + c_hi) / h_i^2
    over both axes and the links -c_i / h_i^2, sliced from the
    interface coefficients c_i(t) along axis i as in 1-d; the data is
    read-only, since ``assemble`` hands out the cached matrix.  Shifted solves go
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
    stepper passes the extrapolation through its five newest states),
    and refactorizes at
    (t, sigma) when that takes more than ``_REFINE_MAX_STEPS``
    corrections, which the refinement stops as soon as the residual's
    observed contraction foretells.  A new A(t) must give Re<Av, v> > 0 for
    4 seeded random v.  In both dimensions the check reads the entries
    ``_build`` made, one dot product each with forms in v cached per grid
    (``_band_forms``, ``_stencil_forms``); in 2-d it costs no matrix product.
    """

    def __init__(self, grid: Grid, a, b, autonomous: bool | None = None):
        self.grid = grid
        scalars = isinstance(a, Number) and isinstance(b, Number)
        a, b = ((lambda *_, c=float(f): c) if isinstance(f, Number) else f for f in (a, b))
        self.autonomous = scalars if autonomous is None else bool(autonomous)
        self._iface_coords = [_interface_coords(grid, axis) for axis in range(grid.ndim)]
        self._fields = [  # a and b as functions of t on each axis's interfaces
            [f.at(*xs) if isinstance(f, FieldExpr) else functools.partial(f, *xs) for f in (a, b)]
            for xs in self._iface_coords
        ]
        if grid.ndim == 2:
            pattern = _stencil_pattern(grid.shape, grid.boundary == PERIODIC)
            self._indptr, self._indices, self._diag_slots, self._gather = pattern
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
        a, b = self._fields[axis]
        re = np.asarray(a(t))  # a scalar is a 0-d array
        c = np.empty(self._iface_coords[axis][0].shape, dtype=complex)
        c.real, c.imag = re, b(t)  # scalars broadcast
        # NaN fails every comparison, so the guard is written to fail on it
        if not (0.0 < re.min() and np.isfinite(c).all()):
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
        """A(t), spot-checked: the bands of ``_build`` on 1-d grids, in 2-d
        the read-only CSC matrix of its gathered entries; the last one is cached."""
        key = self._time_key(t)
        with self._lock:
            cached_key, stencil = self._stencil_cache
        if cached_key == key:
            return stencil
        stencil = self._build(t)
        # catches sign errors, not genuine indefiniteness in adversarial corners
        periodic = self.grid.boundary == PERIODIC
        if self.grid.ndim == 1:
            values = (_band_forms(self.grid.size, periodic) @ np.concatenate(stencil)).real
        else:
            values = _stencil_forms(self.grid.shape, periodic) @ stencil.real
            data = stencil[self._gather]
            data.setflags(write=False)  # the cached matrix is shared
            stencil = self._csc(data)
        if not (values > 0.0).all():  # NaN fails too
            raise CoercivityError("diffusion operator: Re<Av,v> not positive for a random state")
        with self._lock:
            self._stencil_cache = (key, stencil)
        return stencil

    def _build(self, t: float):
        """A(t): the bands (``_bands``) on 1-d grids.  In 2-d its entries
        before the gather (``_stencil_pattern``): the node sums
        sum_i (c_i below + c_i above) / h_i^2, then -c_i / h_i^2 at every
        interface of axis 0, then of axis 1."""
        with np.errstate(all="ignore"):  # the guard reports an inf or NaN field, not numpy
            coeffs = [self._midpoint_coeffs(t, axis) for axis in range(self.grid.ndim)]
        if self.grid.ndim == 1:
            return _bands(coeffs[0], self.grid.h[0], self.grid.boundary)
        entries = np.zeros(self.grid.size + sum(c.size for c in coeffs), dtype=complex)
        nodes = entries[: self.grid.size].reshape(self.grid.shape)
        offset = self.grid.size
        for axis, (h, c) in enumerate(zip(self.grid.h, coeffs)):
            below, above = _node_sides(c, axis, self.grid.boundary == PERIODIC)
            nodes += (below + above) / h**2  # onto +0.0, as in 0.0 + ...: no -0.0 part
            links = entries[offset : offset + c.size].reshape(c.shape)
            np.negative(c, out=links)
            links /= h**2
            offset += c.size
        return entries

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
        if self.grid.ndim == 1:
            return self._band_factor(t, sigma).solve(rhs).reshape(self.grid.shape)
        key = (self._time_key(t), float(sigma))
        factor_key, factor = self._factor_cache
        if factor_key != key:
            data = self.assemble(t).data.copy()
            data[self._diag_slots] += sigma
            matrix = self._csc(data)
            if factor_key is not None and factor_key[1] == key[1]:
                start = None if predict is None else _as_state(self.grid, predict()).ravel()
                u = _refine(factor, matrix, rhs, start)
                if u is not None:
                    return u.reshape(self.grid.shape)
            factor = self._cache_factor(key, splu(matrix, permc_spec="MMD_AT_PLUS_A"))
        return factor.solve(rhs).reshape(self.grid.shape)

    def _cache_factor(self, key, factor):
        with self._lock:
            self._factor_cache = (key, factor)
            self._factor_count += 1
        return factor

    def _band_factor(self, t: float, sigma: float) -> _TridiagonalLU:
        """The 1-d factor of sigma I + A(t), cached, or new and then counted and cached."""
        key = (self._time_key(t), float(sigma))
        factor_key, factor = self._factor_cache
        if factor_key == key:
            return factor
        sub, diag, sup, corners = self._stencil(t)
        return self._cache_factor(key, _TridiagonalLU(sub, diag + sigma, sup, corners))

    def _solve_in_place(self, t: float, sigma: float, row: np.ndarray, predict=None) -> None:
        """On a 1-d grid zgttrs overwrites ``row`` with no fresh array, on a
        cached or a new factor; every 2-d solve goes through ``shifted_solve``."""
        if self.grid.ndim == 2:
            return super()._solve_in_place(t, sigma, row, predict)
        x = self._band_factor(t, sigma).solve(row, overwrite_b=True)
        if x is not row:  # zgttrs copied a row that is not contiguous complex128
            row[...] = x


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
    ``start``.  None after _REFINE_MAX_STEPS corrections, or as soon as
    the residual's observed contraction says they cannot reach the bound
    (a NaN residual gives up too)."""
    eps = np.finfo(float).eps
    # ||matrix||_inf: the largest absolute row sum (CSC indices are rows)
    matrix_norm = np.bincount(matrix.indices, np.abs(matrix.data), matrix.shape[0]).max()
    rhs_norm = np.abs(rhs).max()
    if start is None:
        u, previous = factor.solve(rhs), rhs_norm
    else:
        residual = rhs - matrix @ start
        u, previous = start + factor.solve(residual), np.abs(residual).max()
    for left in range(_REFINE_MAX_STEPS, -1, -1):  # corrections left
        residual = rhs - matrix @ u
        size = np.abs(residual).max()
        bound = eps * (matrix_norm * np.abs(u).max() + rhs_norm)
        if size <= bound:
            return u
        # about one bound of the residual is rounding that no correction
        # removes; the excess shrinks by the last ratio (at most 1) per correction
        if not left or not (size - bound) * min(size / previous, 1.0) ** left <= bound:
            break
        previous = size
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
    axes = [grid.axis_nodes(i) for i in range(grid.ndim)]
    axes[axis] = mids
    return _mesh(*axes)


def _iface_shape(shape: tuple[int, ...], axis: int, periodic: bool) -> tuple[int, ...]:
    """Shape of the interfaces along ``axis`` (``_interface_coords``)."""
    return shape if periodic else tuple(n + (i == axis) for i, n in enumerate(shape))


def _along(axis: int, index) -> tuple:
    """The index that takes ``index`` along ``axis`` and all of every other axis."""
    return (slice(None),) * axis + (index,)


def _node_sides(c: np.ndarray, axis: int, periodic: bool):
    """The interfaces below and above each node along ``axis`` of ``c``,
    laid out as ``_interface_coords``: interface j below node j, and
    above it j + 1 (cyclically on a periodic grid)."""
    if periodic:
        return c, np.roll(c, -1, axis)
    return c[_along(axis, slice(None, -1))], c[_along(axis, slice(1, None))]


@functools.lru_cache(maxsize=8)
def _stencil_pattern(shape: tuple[int, ...], periodic: bool):
    """CSC pattern of -div(c grad .) on a grid of ``shape`` and its gather.

    Returns (indptr, indices, diag_slots, gather): the matrix whose
    entries (``_build``) are the node sums and then the links of axis 0
    and of axis 1 has data ``entries[gather]`` in this pattern, and
    diag_slots are the data positions of the diagonal; all read-only,
    since operators on grids of one shape share them.
    """
    size = math.prod(shape)
    node = np.arange(size).reshape(shape)
    rows, cols, values = [node.ravel()], [node.ravel()], [node.ravel()]
    offset = size
    for axis in range(len(shape)):
        iface_shape = _iface_shape(shape, axis, periodic)
        iface = offset + np.arange(math.prod(iface_shape)).reshape(iface_shape)
        # each node couples to its successor through the interface above it
        src, dst = node, np.roll(node, -1, axis)
        link = _node_sides(iface, axis, periodic)[1]
        if not periodic:
            inner = _along(axis, slice(None, -1))
            src, dst, link = src[inner], dst[inner], link[inner]
        src, dst, link = src.ravel(), dst.ravel(), link.ravel()
        rows += [src, dst]
        cols += [dst, src]
        values += [link, link]
        offset += iface.size
    # no two terms share a position, since every axis has at least 4 nodes
    keys = np.concatenate(cols) * size + np.concatenate(rows)
    order = np.argsort(keys)
    key_cols, indices = np.divmod(keys[order], size)
    indptr = np.searchsorted(key_cols, np.arange(size + 1))
    diag_slots = np.flatnonzero(indices == key_cols)
    gather = np.concatenate(values)[order]
    indptr, indices = indptr.astype(np.intc), indices.astype(np.intc)
    for arr in (indptr, indices, diag_slots, gather):
        arr.setflags(write=False)
    return indptr, indices, diag_slots, gather


class SpectralDiagonalOperator(LinearOperator):
    """A = diag(symbol) in a basis that diagonalizes it, solved exactly.

    ``grid`` fixes the basis.  On a periodic grid it is the Fourier basis:
    states are nodal values, transformed by ``fftn``/``ifftn``, and the
    symbol is real, finite and nonnegative.  With ``grid=None`` states
    are the mode coefficients and the symbol is kept as given: complex
    sine modes, or a 50-digit mpmath node whose rate < 0 grows by design,
    so no sign is checked.  Both cache sigma + symbol for the last sigma
    (a Fourier one must be positive) and solve the stepper's row in place.
    """

    autonomous = True

    def __init__(self, grid: Grid | None, symbol):
        self.grid, self.symbol = grid, symbol
        self._denom_cache = (None, None)  # (sigma, sigma + symbol) in one tuple
        if grid is None:
            return
        if grid.boundary != PERIODIC:
            raise ConfigError("spectral operators require a periodic grid")
        symbol = np.asarray(symbol)
        if np.iscomplexobj(symbol):
            raise UnsupportedOperationError("spectral symbols must be real")
        if symbol.shape != grid.shape:
            raise DomainError("symbol shape does not match grid")
        self.symbol = symbol.astype(float)
        # Re<Av,v> = sum_k symbol_k |v^_k|^2 / N >= 0; the guard is written to fail on NaN
        if not (0.0 <= self.symbol.min() and self.symbol.max() < np.inf):
            raise CoercivityError("spectral symbol must be finite and nonnegative")
        self._solve_in_place = self._fourier_solve_in_place  # a nodal row needs the transforms

    def _denominator(self, sigma):
        """sigma + symbol, cached for the last sigma once it passes the check."""
        key, denom = self._denom_cache
        if key != sigma:
            denom = sigma + self.symbol
            if self.grid is not None and not denom.min() > 0.0:  # NaN fails too
                raise DomainError("shift sigma must keep sigma + symbol positive")
            self._denom_cache = (sigma, denom)
        return denom

    def apply(self, t: float, v) -> np.ndarray:
        if self.grid is None:
            return self.symbol * v
        return np.fft.ifftn(self.symbol * np.fft.fftn(_as_state(self.grid, v)))

    def shifted_solve(self, t: float, sigma: float, r, predict=None) -> np.ndarray:
        if self.grid is None:
            return r / self._denominator(sigma)
        return np.fft.ifftn(np.fft.fftn(_as_state(self.grid, r)) / self._denominator(sigma))

    def _solve_in_place(self, t: float, sigma: float, row: np.ndarray, predict=None) -> None:
        key, denom = self._denom_cache
        if key != sigma:
            denom = self._denominator(sigma)
        np.divide(row, denom, out=row)

    def _fourier_solve_in_place(self, t, sigma, row, predict=None) -> None:
        if row.dtype != complex:  # fftn transforms only complex128 rows in place
            return super()._solve_in_place(t, sigma, row, predict)
        denom, state = self._denominator(sigma), row.reshape(self.grid.shape)
        np.fft.fftn(state, out=state)
        np.divide(state, denom, out=state)
        np.fft.ifftn(state, out=state)


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
    coords = _mesh(*axes)
    return coords[0] if grid.ndim == 1 else coords


def _centered_divergence(components, grid: Grid) -> np.ndarray:
    """Divergence of a padded (Dirichlet) or plain (periodic) field,
    evaluated at the grid nodes by centered differences; a component
    that is None is identically zero and is skipped."""
    diffs = [_centered_difference(comp, grid, axis)
             for axis, comp in enumerate(components) if comp is not None]
    out = functools.reduce(np.add, diffs) if diffs else np.zeros(grid.shape, dtype=complex)
    return out.astype(complex, copy=False)


class NonlinearTerm(ABC):
    """Explicit right-hand side B(t, v) on grid states."""

    grid: Grid

    @abstractmethod
    def evaluate(self, t: float, v) -> np.ndarray: ...


class DivergenceFormTerm(NonlinearTerm):
    """B(t, v) = div g(v, x, t), by centered differences of g sampled at
    the (boundary-extended) nodes.  In 2d g returns one component per
    axis, None for one that is identically zero."""

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
    """Linear combination sum_i c_i B_i(t, v), c_i finite, of terms on one
    grid; it never writes into a part's value, which may be v itself."""

    def __init__(self, parts: list[tuple[float, NonlinearTerm]]):
        if not parts:
            raise DomainError("empty linear combination")
        if len({term.grid.shape for _, term in parts}) > 1:
            raise DomainError("terms in a combination must share the grid shape")
        self.parts = [(float(c), term) for c, term in parts]
        if not all(math.isfinite(c) for c, _ in self.parts):
            raise DomainError("coefficients of a combination must be finite")
        self.grid = parts[0][1].grid

    def evaluate(self, t: float, v) -> np.ndarray:
        (c, term), *rest = self.parts
        out = np.empty(self.grid.shape, dtype=complex)  # a copy, so the sum writes no part
        out[...] = term.evaluate(t, v) if c == 1.0 else c * term.evaluate(t, v)
        for c, term in rest:
            out += term.evaluate(t, v) if c == 1.0 else c * term.evaluate(t, v)
        return out


def default_gradient_drag(v, grad, x, t):
    comps = (grad,) if not isinstance(grad, tuple) else grad
    sq = sum(np.abs(c) ** 2 for c in comps)
    return -(sq**2) * v


def double_well_drift(v):
    return v**3 - v


def _exp_flux(v, x, t):
    return np.exp(v) if v.ndim == 1 else (np.exp(v), None)  # None: the zero y-flux


# The named explicit terms, each a factory grid -> NonlinearTerm.
NONLINEARITY_REGISTRY = {
    "cubic_sink": lambda grid: PointwiseTerm(grid, lambda u: -(u * u * u)),
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
    with g(u) = e^u in 1d, (e^u, 0) in 2d, the 0 given as None (``cubic_sink +
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
    symbol = np.sqrt(sum(xi**2 for xi in fourier_frequencies(grid)))
    return SpectralDiagonalOperator(grid, symbol), _example_term(grid, "3")


def assemble_example4(grid: Grid):
    """Biharmonic phase-field problem: A has symbol |xi|^4 and B(u) is
    the spectral Laplacian of u^3 - u (``double_well_laplacian``)."""
    k2 = sum(xi**2 for xi in fourier_frequencies(grid))
    return SpectralDiagonalOperator(grid, k2**2), _example_term(grid, "4")
