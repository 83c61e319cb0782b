"""Stability toolkit: sector angles, sharp thresholds, operator constants.

Three views of the same stability question live here:

* the sector angle alpha of a scheme, read off the boundary locus
  delta(e^{i theta}) on the unit circle,
* the threshold 1/cos(alpha) against which an operator's
  non-self-adjointness constant is compared,
* the constant itself, lambda = sup |<Av,v>| / Re <Av,v>, in closed form
  from one Hermitian-definite generalized eigenproblem per matrix, plus a
  von Neumann root test for the scalar rotated problem
  u' + rho e^{i phi} u = 0.

No boundary of the numerical range is sampled: the constant and the
angle check both read rho = sup |Im z| / Re z off that one eigenproblem,
whose result for the last matrix is kept in a single slot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as npoly

from .bdf_coeffs import BdfScheme
from .errors import CoercivityError, ComputationError, DomainError, _check_tau

# Root-modulus tolerance for the von Neumann test, and the minimal
# pairwise distance for boundary roots to count as simple.
ROOT_TOL = 1e-9
ROOT_SEPARATION = 1e-6


@functools.lru_cache(maxsize=None)
def _sector_angle_deg(delta: tuple[Fraction, ...]) -> float:
    """Sector angle in degrees of the scheme with exact coefficients delta.

    On |z| = 1 the phase of delta(z) is stationary where
    Re(z delta'(z) / delta(z)) = 0, i.e. at the unit-circle roots of

        Q(z) = z^{k+1} delta'(z) delta(1/z) + z^{k-1} delta'(1/z) delta(z),

    a polynomial of degree 2k with rational coefficients.  Its factors
    (z - 1), from the excluded point z = 1 where delta vanishes, are
    divided out exactly and the remaining roots are found in double
    precision.  Since each kept
    root is a stationary point, a root error eps moves the phase by only
    O(eps^2).  The limit pi/2 at the excluded theta = 0 is always a
    candidate; for k = 1, 2 Q deflates to a constant and it is the sup.
    """
    d = np.array(delta, dtype=object)
    dd = npoly.polyder(d)
    q = npoly.polyadd(
        npoly.polymul(npoly.polymulx(dd), d[::-1]),
        npoly.polymul(dd[::-1], d),
    )
    if not any(q):
        raise ComputationError("degenerate scheme: the phase of delta is stationary everywhere")
    while sum(q) == 0:
        q = npoly.polydiv(q, [Fraction(-1), Fraction(1)])[0]
    roots = npoly.polyroots(q.astype(float))
    on_circle = roots[np.abs(np.abs(roots) - 1.0) <= 1e-8]
    phases = np.abs(np.angle(npoly.polyval(on_circle / np.abs(on_circle), d.astype(float))))
    return math.degrees(math.pi - phases.max(initial=0.5 * math.pi))


def a_alpha_angle(scheme: BdfScheme) -> float:
    """Sector angle alpha of the scheme, in degrees.

    alpha = pi - sup_theta |arg delta(e^{i theta})| over theta in
    (0, 2 pi), theta = 0 excluded because delta(1) = 0.  The sup is
    pi/2, the limit at the excluded endpoint, or a value at a stationary
    point of the phase; those are read off the exact coefficients once
    per scheme and cached.  k = 1, 2 give exactly 90 degrees.
    """
    return _sector_angle_deg(scheme.delta)


def lambda_threshold(scheme: BdfScheme) -> float:
    """Sharp threshold 1/cos(alpha) for the scheme.

    Returns +inf for k = 1, 2, where the angle is 90 degrees and the
    condition is void.
    """
    alpha = a_alpha_angle(scheme)
    if alpha == 90.0:
        return math.inf
    return 1.0 / math.cos(math.radians(alpha))


@dataclass(frozen=True)
class StabilityReport:
    """Angle, threshold and boundary locus of one scheme."""

    k: int
    alpha_deg: float
    lambda_threshold: float
    locus_theta: np.ndarray = field(repr=False, compare=False)
    locus_values: np.ndarray = field(repr=False, compare=False)


def stability_report(scheme: BdfScheme, locus_count: int = 256) -> StabilityReport:
    """Bundle angle, threshold and a sampled locus for reporting."""
    theta = 2.0 * math.pi * np.arange(1, locus_count + 1) / (locus_count + 1)
    values = npoly.polyval(np.exp(1j * theta), scheme.delta_f)
    return StabilityReport(
        k=scheme.k,
        alpha_deg=a_alpha_angle(scheme),
        lambda_threshold=lambda_threshold(scheme),
        locus_theta=theta,
        locus_values=values,
    )


def _as_square_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DomainError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError("matrix has a non-finite entry")
    return M


# the single slot: (key, rho) of the last matrix, one tuple swapped
# whole, so that a lock-free read never pairs one key with another rho
_skew_ratio_cache = [(None, None)]


def _max_skew_ratio(A) -> float:
    """rho = sup |Im z| / Re z over the numerical range of a coercive matrix.

    With H = (A + A*)/2 and K = (A - A*)/(2i), z = v*Av has Re z = v*Hv and
    Im z = v*Kv, so Im z / Re z ranges exactly over the eigenvalues mu of
    the Hermitian-definite pencil K x = mu H x, and rho = max |mu|.  The
    last rho is kept, keyed by the matrix's shape and bytes, so the
    constant and the sector check of one matrix solve one eigenproblem.
    """
    M = _as_square_matrix(A)
    key = (M.shape, M.tobytes())
    cached_key, rho = _skew_ratio_cache[0]
    if cached_key == key:
        return rho
    # near overflow the eigenvalues of H and K may exceed the double range
    # though the entries do not; the scaling is exact, rho is scale
    # invariant, and an even power of two scales the Cholesky factor of H
    # exactly
    big = max(np.abs(M.real).max(), np.abs(M.imag).max())
    if big > 0.25 * np.finfo(float).max / M.shape[0]:
        M = M * 2.0**-512
    # halving each term first is exact outside the subnormal range and
    # keeps H and K finite for any finite M
    herm = 0.5 * M + 0.5 * M.conj().T
    eigs = np.linalg.eigvalsh(herm)
    # an eigenvalue within the rounding error n eps ||H||_2 of eigvalsh
    # may be a zero, and a zero makes the constant meaningless (NaN fails too)
    if not eigs[0] > M.shape[0] * np.finfo(float).eps * np.abs(eigs).max():
        raise CoercivityError("Hermitian part is not positive definite")
    skew = 0.5j * M.conj().T - 0.5j * M
    try:
        mu = scipy.linalg.eigh(skew, herm, eigvals_only=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        # the Cholesky factor of H failed: H is positive definite only
        # up to rounding
        raise CoercivityError("Hermitian part is not positive definite") from exc
    rho = float(np.abs(mu).max())
    if not math.isfinite(rho):
        raise ComputationError("generalized eigenvalues of the matrix are not finite")
    _skew_ratio_cache[0] = (key, rho)
    return rho


def stability_constant(A) -> float:
    """Non-self-adjointness constant lambda of a coercive matrix.

    lambda = sup |z| / Re z over the numerical range
    = sqrt(1 + rho^2) with rho = sup |Im z| / Re z, the largest modulus
    of an eigenvalue of the pencil (A - A*)/(2i) x = mu (A + A*)/2 x.
    The sup is attained at the extreme generalized eigenvector.  Equals 1
    exactly when A is Hermitian positive definite.
    """
    return math.hypot(1.0, _max_skew_ratio(A))


@dataclass(frozen=True)
class CoefficientLambda:
    """Constant for a scalar diffusion coefficient a + ib.

    max_skew is max |b|/a over the grid, and value = sqrt(1 + max_skew^2)
    is max |a+ib|/a.
    """

    value: float
    max_skew: float


def coefficient_lambda(a, b) -> CoefficientLambda:
    """Pointwise constant of the coefficient pair (a, b) on a grid."""
    av, bv = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if av.size == 0:
        raise DomainError("empty coefficient field")
    if not (0.0 < av.min() and av.max() < np.inf and np.isfinite(bv).all()):  # NaN fails too
        raise CoercivityError("coefficient a must be positive and a, b finite everywhere")
    max_skew = float((np.abs(bv) / av).max())
    return CoefficientLambda(value=math.hypot(1.0, max_skew), max_skew=max_skew)


@dataclass(frozen=True)
class RootSweepResult:
    """Per-rho von Neumann verdicts for the rotated scalar problem."""

    k: int
    phi: float
    tau: float
    rho_grid: np.ndarray = field(repr=False, compare=False)
    max_root_moduli: np.ndarray = field(repr=False, compare=False)
    stable_flags: np.ndarray = field(repr=False, compare=False)

    @property
    def all_stable(self) -> bool:
        return bool(self.stable_flags.all())


def von_neumann_sweep(
    scheme: BdfScheme, phi: float, rho_grid, tau: float = 1.0
) -> RootSweepResult:
    """Root test of the scheme on u' + rho e^{i phi} u = 0 for each rho.

    The characteristic polynomial is
    sum_i delta_i zeta^{k-i} + tau rho e^{i phi} zeta^k  (fully implicit
    treatment); a rho is stable iff all roots lie in the closed unit
    disc (modulus <= 1 + ROOT_TOL) and any root of modulus >= 1 -
    ROOT_TOL is simple (pairwise distance > ROOT_SEPARATION).

    Parameters
    ----------
    phi : float
        Rotation angle in radians.
    rho_grid : array_like
        Positive moduli to test.
    tau : float
        Step size multiplying the spectral point.
    """
    rho = np.asarray(rho_grid, dtype=float)
    if rho.ndim != 1 or rho.size == 0:
        raise DomainError("rho_grid must be a nonempty 1-d array")
    if not (rho.min() > 0.0 and rho.max() < math.inf):  # NaN fails too
        raise DomainError("all rho values must be positive and finite")
    _check_tau(tau)
    if not math.isfinite(phi):
        raise DomainError(f"phi must be finite, got {phi}")
    # delta_i multiplies zeta^{k-i}; one companion matrix per rho, built
    # as np.roots builds it: first row -delta_{1..k} / leading, ones on
    # the subdiagonal
    base = scheme.delta_f.astype(complex)
    lead = base[0] + tau * rho * np.exp(1j * phi)
    k = base.size - 1
    companion = np.zeros((rho.size, k, k), dtype=complex)
    companion[:, 0, :] = -base[1:] / lead[:, None]
    companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"root finding failed for phi={phi}, tau={tau}") from exc
    mods = np.abs(roots)
    moduli = mods.max(axis=1)
    # a root on the unit circle must be simple: no other such root
    # within ROOT_SEPARATION of it
    on_circle = mods >= 1.0 - ROOT_TOL
    pairs = on_circle[:, :, None] & on_circle[:, None, :] & np.triu(np.ones((k, k), bool), 1)
    close = np.abs(roots[:, :, None] - roots[:, None, :]) <= ROOT_SEPARATION
    flags = (moduli <= 1.0 + ROOT_TOL) & ~(pairs & close).any(axis=(1, 2))
    return RootSweepResult(
        k=scheme.k,
        phi=float(phi),
        tau=float(tau),
        rho_grid=rho,
        max_root_moduli=moduli,
        stable_flags=flags,
    )


def angle_of_analyticity_check(A, lam: float) -> tuple[bool, float]:
    """Sector-angle lower bound check for a coercive matrix.

    Measures theta_A = inf over the numerical range of (pi/2 - |arg z|)
    = pi/2 - atan(rho), with rho = sup |Im z| / Re z as in
    ``stability_constant``, and verifies theta_A >= arcsin(1/lam) - 1e-6
    (radians).  Returns (holds, measured angle in degrees).
    """
    if lam < 1.0:
        raise DomainError(f"lambda must be >= 1, got {lam}")
    measured = 0.5 * math.pi - math.atan(_max_skew_ratio(A))
    bound = math.asin(min(1.0, 1.0 / lam))
    return measured >= bound - 1e-6, math.degrees(measured)
