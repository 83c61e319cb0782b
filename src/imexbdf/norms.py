"""Discrete spatial norms and discrete-in-time sequence norms.

Spatial norms use the grid's uniform quadrature weight h^d per node.
First-derivative kinds (``w1inf``, ``w1q:<q>``) measure the gradient
part alone; full Sobolev norms are spelled as sums, e.g. ``linf+w1inf``.
Sums of kinds realize intersection-space norms as plain sums of the
parts.  Gradients are spectral on periodic grids and second-order
centered differences with the zero boundary values on Dirichlet grids.

Accumulation uses compensated summation so that tiny errors measured
against 1e-10-size temporal residuals do not drown in round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
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


def _gradient_magnitude(v: np.ndarray, grid: Grid) -> np.ndarray:
    if grid.boundary == PERIODIC:
        vhat = np.fft.fftn(v)
        freqs = fourier_frequencies(grid)
        comps = [np.fft.ifftn(1j * xi * vhat) for xi in freqs]
    else:
        comps = grid_gradient(v, grid)
    if grid.ndim == 1:
        return np.abs(comps[0])
    return np.sqrt(sum(np.abs(c) ** 2 for c in comps))


def _lq_of(values: np.ndarray, grid: Grid, q: float) -> float:
    mag = np.abs(values)
    if q == math.inf:
        return float(mag.max())
    weight = float(np.prod(grid.h))
    total = math.fsum((mag.ravel() ** q).tolist())
    return (weight * total) ** (1.0 / q)


def spatial_norm(v, kind: NormKind, grid: Grid) -> float:
    """Evaluate one norm kind of a grid state."""
    state = np.asarray(v)
    if state.shape != grid.shape:
        raise DomainError(
            f"state shape {state.shape} does not match grid {grid.shape}"
        )
    pieces = []
    grad_mag = None
    for part in kind.parts:
        if part.derivative:
            if grad_mag is None:
                grad_mag = _gradient_magnitude(state.astype(complex), grid)
            pieces.append(_lq_of(grad_mag, grid, part.q))
        else:
            pieces.append(_lq_of(state, grid, part.q))
    if kind.quadratic_mean:
        return math.sqrt(math.fsum(p * p for p in pieces))
    return math.fsum(pieces)


def lp_time_norm(values, tau: float, p: float) -> float:
    """Discrete-in-time L^p norm of a sequence of per-step values:
    (tau * sum v_n^p)^(1/p), the max for p = inf."""
    seq = [float(x) for x in values]
    if not seq:
        raise DomainError("empty sequence has no time norm")
    if tau <= 0.0:
        raise DomainError(f"step size must be positive, got {tau}")
    if any(not math.isfinite(x) for x in seq):
        raise DomainError("non-finite value in time-norm sequence")
    if p == math.inf:
        return max(abs(x) for x in seq)
    if not (p > 1.0):
        raise DomainError(f"time exponent must lie in (1, inf], got {p}")
    return (tau * math.fsum(abs(x) ** p for x in seq)) ** (1.0 / p)

