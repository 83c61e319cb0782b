"""Discrete spatial norms and discrete-in-time sequence norms.

Spatial norms use the grid's uniform quadrature weight h^d per node.
First-derivative kinds (``w1inf``, ``w1q:<q>``) measure the gradient
part alone; full Sobolev norms are spelled as sums, e.g. ``linf+w1inf``.
Sums of kinds realize intersection-space norms as plain sums of the
parts.  Gradients are spectral on periodic grids and second-order
centered differences with the zero boundary values on Dirichlet grids.

``spatial_norms`` reduces a stack of states (m, *grid.shape) over the
trailing grid axes, with one correctly rounded ``math.fsum`` per state,
so a state's norm does not depend on its stack; compensated sums keep
errors near 1e-10-size temporal residuals clear of round-off.  A
state whose power sum (or max) overflows or underflows, though the
state is finite and nonzero, is taken again on v * 2^-e, with 2^e
above max|v|, and scaled back.  ``error_blocks`` walks a trajectory and
its errors against an exact solution a block of states at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, _check_tau
from .operators import PERIODIC, Grid, fourier_frequencies, grid_gradient


@dataclass(frozen=True)
class NormPart:
    """One summand of a norm kind: an L^q norm of either the state or
    its gradient magnitude, q in (1, inf]."""

    derivative: bool
    q: float

    def __post_init__(self):
        if not (self.q > 1.0):
            raise ConfigError(f"norm exponent must exceed 1, got {self.q}")


@dataclass(frozen=True)
class NormKind:
    parts: tuple[NormPart, ...]
    label: str
    quadratic_mean: bool = False  # combine parts as sqrt(sum of squares)

    def __str__(self):
        return self.label


L2 = NormKind((NormPart(False, 2.0),), "l2")
LINF = NormKind((NormPart(False, math.inf),), "linf")
W1INF = NormKind((NormPart(True, math.inf),), "w1inf")
# H1 is API-only (no CLI token): the quadratic mean of the L2 norm and
# the L2 gradient seminorm
H1 = NormKind((NormPart(False, 2.0), NormPart(True, 2.0)), "h1", quadratic_mean=True)

_TOKEN_GRAMMAR = "l2 | lq:<q> | linf | w1inf | w1q:<q>, summed with '+'"


def parse_norm_token(token: str) -> NormKind:
    """Parse a norm token like ``l2``, ``lq:4``, ``w1inf`` or a sum
    ``l2+w1q:3``."""
    text = token.strip().lower()
    if not text:
        raise ConfigError(f"empty norm token (expected {_TOKEN_GRAMMAR})")
    parts = []
    for piece in text.split("+"):
        piece = piece.strip()
        if piece == "l2":
            parts.append(NormPart(False, 2.0))
        elif piece == "linf":
            parts.append(NormPart(False, math.inf))
        elif piece == "w1inf":
            parts.append(NormPart(True, math.inf))
        elif piece.startswith("lq:"):
            parts.append(NormPart(False, _parse_q(piece[3:], token)))
        elif piece.startswith("w1q:"):
            parts.append(NormPart(True, _parse_q(piece[4:], token)))
        else:
            raise ConfigError(
                f"unknown norm token {piece!r} in {token!r} (expected {_TOKEN_GRAMMAR})"
            )
    return NormKind(tuple(parts), text)


def _parse_q(text: str, token: str) -> float:
    try:
        q = float(text)
    except ValueError:
        raise ConfigError(f"bad norm exponent {text!r} in {token!r}") from None
    if not (1.0 < q < math.inf):
        raise ConfigError(f"norm exponent must lie in (1, inf), got {q}")
    return q


_TINY = np.finfo(float).tiny  # the smallest normal positive float

# Trajectories are passed to ``spatial_norms`` in blocks of about this
# many grid values, so that memory does not grow with the step count.
_BLOCK_ELEMENTS = 2**15


def _block_rows(grid: Grid) -> int:
    return max(1, _BLOCK_ELEMENTS // grid.size)


def error_blocks(states, times, exact, grid: Grid):
    """Walk a (m, *grid.shape) stack of states a block of consecutive rows
    at a time, yielding (block, block - exact(t_n)) with ``times[n]`` the
    time of state n, or (block, None) when ``exact`` is None."""
    rows = _block_rows(grid)
    for s in range(0, len(states), rows):
        block = states[s : s + rows]
        if exact is None:
            yield block, None
            continue
        errors = block.astype(complex)
        for e, t in zip(errors, times[s : s + rows]):
            e -= exact(t)
        yield block, errors


def _gradient_magnitude(v: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad v| at the nodes of each state of a (m, *grid.shape) stack."""
    if grid.boundary == PERIODIC:
        axes = tuple(range(-grid.ndim, 0))
        vhat = np.fft.fftn(v, axes=axes)
        freqs = fourier_frequencies(grid)
        comps = [np.fft.ifftn(1j * xi * vhat, axes=axes) for xi in freqs]
    else:
        comps = grid_gradient(v, grid)
    if grid.ndim == 1:
        return np.abs(comps[0])
    with np.errstate(over="ignore", under="ignore"):  # such rows are rescaled
        return np.sqrt(sum(np.abs(c) ** 2 for c in comps))


def _magnitudes(block: np.ndarray, derivative: bool, grid: Grid) -> np.ndarray:
    """|v| or |grad v| of each state of a stack, as (m, size) rows."""
    if derivative:
        mag = _gradient_magnitude(block.astype(complex, copy=False), grid)
    else:
        mag = np.abs(block)
    return mag.reshape(len(block), grid.size)


def _fsum(values) -> float:
    try:  # inf, not OverflowError, when finite terms overflow the sum
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _power_sums(mag: np.ndarray, weight: float, q: float) -> list[float]:
    """Weighted sum of mag**q over each row of a (m, size) block of
    magnitudes; the row max for q = inf."""
    if q == math.inf:
        return mag.max(axis=1).tolist()
    with np.errstate(over="ignore", under="ignore"):  # such rows are rescaled
        return [weight * _fsum(memoryview(p)) for p in mag**q]


def _scale_exponent(peak: float) -> int | None:
    """e with 2^e just above a finite nonzero ``peak``; None otherwise."""
    return math.frexp(peak)[1] if 0.0 < peak < math.inf else None


def _part_norms(block: np.ndarray, mag: np.ndarray, part: NormPart, weight: float, grid: Grid):
    """One norm part of each state of a stack whose magnitudes are ``mag``.
    A row whose power sum is not a normal positive float (it overflowed
    or underflowed) is taken again on v * 2^-e, with 2^e above max|v|,
    and scaled back, unless v is zero or not finite."""
    root = 1.0 / part.q if part.q < math.inf else 1.0
    norms = []
    for i, total in enumerate(_power_sums(mag, weight, part.q)):
        e = None if _TINY <= total < math.inf else _scale_exponent(float(np.abs(block[i]).max()))
        if e is not None:
            row = block[i : i + 1].astype(complex)
            scaled = np.ldexp(row.view(float), -e).view(complex)  # exact
            total = _power_sums(_magnitudes(scaled, part.derivative, grid), weight, part.q)[0]
        norms.append(total**root if e is None else math.ldexp(total**root, e))
    return norms


def _quadratic_mean(pieces) -> float:
    """sqrt of the sum of squares, rescaled as ``_part_norms`` rescales."""
    total = _fsum([x * x for x in pieces])
    e = None if _TINY <= total < math.inf else _scale_exponent(max(pieces))
    if e is None:
        return math.sqrt(total)
    return math.ldexp(math.sqrt(_fsum([math.ldexp(x, -e) ** 2 for x in pieces])), e)


def spatial_norms(states, kind: NormKind, grid: Grid) -> list[float]:
    """Evaluate one norm kind of each state of a (m, *grid.shape) stack,
    reducing over the trailing grid axes only."""
    block = np.asarray(states)
    if block.shape[1:] != grid.shape:
        raise DomainError(f"state shape {block.shape[1:]} does not match grid {grid.shape}")
    weight = math.prod(grid.h)
    mags = {}  # |v| and |grad v|, each formed once
    columns = []
    for part in kind.parts:
        if part.derivative not in mags:
            mags[part.derivative] = _magnitudes(block, part.derivative, grid)
        columns.append(_part_norms(block, mags[part.derivative], part, weight, grid))
    if len(columns) == 1:
        return columns[0]
    combine = _quadratic_mean if kind.quadratic_mean else _fsum
    return [combine(pieces) for pieces in zip(*columns)]


def spatial_norm(v, kind: NormKind, grid: Grid) -> float:
    """Evaluate one norm kind of a grid state: a one-row ``spatial_norms``."""
    return spatial_norms(np.asarray(v)[None], kind, grid)[0]


def lp_time_norm(values, tau: float, p: float) -> float:
    """Discrete-in-time L^p norm of a sequence of per-step values:
    (tau * sum v_n^p)^(1/p), the max for p = inf."""
    seq = [float(x) for x in values]
    if not seq:
        raise DomainError("empty sequence has no time norm")
    _check_tau(tau)
    if any(not math.isfinite(x) for x in seq):
        raise DomainError("non-finite value in time-norm sequence")
    if p == math.inf:
        return max(abs(x) for x in seq)
    if not (p > 1.0):
        raise DomainError(f"time exponent must lie in (1, inf], got {p}")
    return (tau * math.fsum(abs(x) ** p for x in seq)) ** (1.0 / p)

