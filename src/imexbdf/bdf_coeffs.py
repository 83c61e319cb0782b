"""Coefficients of the implicit-explicit k-step BDF methods, k = 1..6.

The implicit side is the k-step backward differentiation formula with
generating polynomial

    delta(z) = sum_{l=1}^{k} (1/l) (1 - z)^l = sum_{i=0}^{k} delta_i z^i,

and the explicit side extrapolates with

    gamma(z) = [1 - (1 - z)^k] / z = sum_{i=0}^{k-1} gamma_i z^i,

the unique explicit k-step rule of order k for this pairing.  All
coefficients are produced by exact rational expansion; floating-point
images are derived from the rationals, never computed independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .errors import DomainError

MAX_STEP_NUMBER = 6

# Roots of mu(z) = delta(z)/(1 - z) must stay outside the closed unit disc
# by at least this margin for the scheme to be usable.
ROOT_MARGIN = 1e-6


def _check_k(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise DomainError(f"step number must be an integer, got {k!r}")
    if not 1 <= k <= MAX_STEP_NUMBER:
        raise DomainError(f"step number k must lie in [1, {MAX_STEP_NUMBER}], got {k}")
    return int(k)


def delta_coeffs(k: int) -> list[Fraction]:
    """Implicit coefficients delta_0..delta_k as exact rationals.

    Expands sum_{l=1}^{k} (1/l)(1-z)^l using the binomial theorem:
    the z^i coefficient of (1-z)^l is (-1)^i C(l, i).
    """
    k = _check_k(k)
    coeffs = [Fraction(0)] * (k + 1)
    for l in range(1, k + 1):
        for i in range(l + 1):
            coeffs[i] += Fraction((-1) ** i * comb(l, i), l)
    return coeffs


def gamma_coeffs(k: int) -> list[Fraction]:
    """Explicit coefficients gamma_0..gamma_{k-1} as exact rationals.

    The z^i coefficient of [1 - (1-z)^k]/z is the z^{i+1} coefficient of
    1 - (1-z)^k, i.e. (-1)^i C(k, i+1).
    """
    k = _check_k(k)
    return [Fraction((-1) ** i * comb(k, i + 1)) for i in range(k)]


def mu_coeffs(delta: list[Fraction]) -> list[Fraction]:
    """Coefficients of mu(z) = delta(z)/(1 - z), exact synthetic division.

    With delta_i = m_i - m_{i-1} the quotient coefficients are the partial
    sums m_i = delta_0 + ... + delta_i, i = 0..k-1; the division is exact
    precisely because delta(1) = 0.
    """
    partial = Fraction(0)
    out = []
    for d in delta[:-1]:
        partial += d
        out.append(partial)
    if partial + delta[-1] != 0:
        raise DomainError("delta(1) != 0: polynomial is not divisible by (1 - z)")
    return out


@dataclass(frozen=True)
class BdfScheme:
    """An implicit-explicit k-step BDF scheme.

    Attributes
    ----------
    k : int
        Step number, 1..6.
    delta : tuple of Fraction
        Implicit coefficients delta_0..delta_k (exact).
    gamma : tuple of Fraction
        Explicit coefficients gamma_0..gamma_{k-1} (exact).
    delta_f, gamma_f : numpy arrays
        Images of the rationals that the stepper computes with: float64,
        or extended-precision objects in a ``dataclasses.replace`` copy.
    """

    k: int
    delta: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    delta_f: np.ndarray = field(repr=False, compare=False)
    gamma_f: np.ndarray = field(repr=False, compare=False)

    def mu_root_margin(self) -> float:
        """Smallest |root| - 1 over the roots of mu(z) = delta(z)/(1-z).

        For k = 1, mu is the constant 1 and the margin is +inf (no roots).
        """
        mu = mu_coeffs(list(self.delta))
        if len(mu) == 1:
            return np.inf
        # np.roots wants highest degree first
        roots = np.roots(np.array([float(c) for c in mu[::-1]]))
        return float(np.abs(roots).min() - 1.0)


def bdf_scheme(k: int) -> BdfScheme:
    """Build and validate the k-step scheme.

    Raises DomainError if k is out of range or any structural invariant
    fails (the latter cannot happen for the generated coefficients and
    guards against future edits).
    """
    k = _check_k(k)
    delta = delta_coeffs(k)
    gamma = gamma_coeffs(k)
    if sum(delta) != 0:
        raise DomainError("coefficients violate delta(1) = 0")
    if sum((k - i) * d for i, d in enumerate(delta)) != 1:
        raise DomainError("coefficients violate the first-order condition")
    if sum(gamma) != 1:
        raise DomainError("explicit coefficients do not sum to 1")
    if delta[0] <= 0:
        raise DomainError("leading implicit coefficient must be positive")
    scheme = BdfScheme(
        k=k,
        delta=tuple(delta),
        gamma=tuple(gamma),
        delta_f=np.array([float(c) for c in delta]),
        gamma_f=np.array([float(c) for c in gamma]),
    )
    if scheme.mu_root_margin() < ROOT_MARGIN:
        raise DomainError(f"root of delta(z)/(1-z) too close to the unit circle for k={k}")
    return scheme


@dataclass(frozen=True)
class OrderConditionReport:
    """Residuals of the order conditions for one scheme.

    For each l = 0..k the two residuals are

        r_implicit(l) = | sum_i (k-i)^l delta_i - l k^{l-1} |
        r_explicit(l) = | l k^{l-1} - l sum_i (k-i-1)^{l-1} gamma_i |

    with the conventions 0^0 = 1 and l (...)^{l-1} = 0 for l = 0.  Both
    are exact rationals; a correct scheme has all residuals zero.
    """

    k: int
    residuals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def max_residual(self) -> Fraction:
        return max((max(a, b) for a, b in self.residuals), default=Fraction(0))

    @property
    def all_zero(self) -> bool:
        return self.max_residual == 0


def _ipow(base: int, exp: int) -> Fraction:
    # integer power with the 0^0 = 1 convention
    if exp == 0:
        return Fraction(1)
    return Fraction(base) ** exp


def verify_order_conditions(scheme: BdfScheme) -> OrderConditionReport:
    """Evaluate all order conditions of the scheme in exact arithmetic."""
    k = scheme.k
    rows = []
    for l in range(k + 1):
        target = Fraction(0) if l == 0 else l * _ipow(k, l - 1)
        lhs_implicit = sum(
            _ipow(k - i, l) * d for i, d in enumerate(scheme.delta)
        )
        if l == 0:
            lhs_explicit = Fraction(0)
        else:
            lhs_explicit = l * sum(
                _ipow(k - i - 1, l - 1) * g for i, g in enumerate(scheme.gamma)
            )
        rows.append((abs(lhs_implicit - target), abs(target - lhs_explicit)))
    return OrderConditionReport(k=k, residuals=tuple(rows))
