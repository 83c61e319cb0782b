"""Stability toolkit tests.

ORACLE_ALPHA_DEG / ORACLE_LAMBDA / ORACLE_TAN were computed at 50-digit
precision with mpmath (8000-point scan of |arg delta(e^{i theta})| plus
300 golden-section iterations) and are frozen here to far more digits
than double precision resolves.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial import polynomial as npoly

from imexbdf import stability
from imexbdf.bdf_coeffs import bdf_scheme
from imexbdf.convergence_harness import default_threshold_ratios
from imexbdf.errors import CoercivityError, ComputationError, DomainError
from imexbdf.operators import SparseDiffusionOperator, periodic_grid
from imexbdf.stability import (
    angle_of_analyticity_check,
    a_alpha_angle,
    coefficient_lambda,
    lambda_threshold,
    stability_constant,
    stability_report,
    von_neumann_sweep,
)

ORACLE_ALPHA_DEG = {
    1: 90.0,
    2: 90.0,
    3: 86.0323668602116473,
    4: 73.3516704745784821,
    5: 51.8397558360499104,
    6: 17.8397777922457001,
}

ORACLE_LAMBDA = {
    3: 14.4523435191722149,
    4: 3.49044257825420239,
    5: 1.61848186175285045,
    6: 1.05051183042892687,
}

ORACLE_TAN = {
    3: 14.417705545479805,
    4: 3.34412759805750291,
    5: 1.27258930406591619,
    6: 0.321830865317691994,
}


def rotated_spd(rng, n, phi_deg):
    """e^{i phi} times a random real SPD matrix."""
    B = rng.standard_normal((n, n))
    spd = B @ B.T + n * np.eye(n)
    return np.exp(1j * math.radians(phi_deg)) * spd, spd


def random_nonnormal(rng, n):
    """Scaled complex Gaussian matrix, shifted so that the smallest
    eigenvalue of its Hermitian part is 1."""
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)
    w = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    return G + (1.0 - w[0]) * np.eye(n)


def sampled_numerical_range_boundary(A, n_angles=720):
    """Independent reference: boundary points of the numerical range.

    For each direction theta the top eigenvector of the Hermitian part of
    e^{-i theta} A is a support point of the convex numerical range, and
    its Rayleigh quotient under A lies on the boundary.
    """
    phase = np.exp(-2j * np.pi * np.arange(n_angles) / n_angles)[:, None, None]
    _, vecs = np.linalg.eigh(0.5 * (phase * A + (phase * A).conj().swapaxes(1, 2)))
    top = vecs[:, :, -1]
    return np.einsum("tj,jk,tk->t", top.conj(), A, top)


@pytest.mark.parametrize("k", [1, 2])
def test_angle_exactly_ninety_for_a_stable_schemes(k):
    assert a_alpha_angle(bdf_scheme(k)) == 90.0


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_angle_matches_oracle(k):
    angle = a_alpha_angle(bdf_scheme(k))
    assert angle == pytest.approx(ORACLE_ALPHA_DEG[k], abs=1e-9)


def test_angle_computed_once_per_scheme(monkeypatch):
    calls = []
    polyroots = npoly.polyroots

    def counting_polyroots(c):
        calls.append(len(c))
        return polyroots(c)

    monkeypatch.setattr(npoly, "polyroots", counting_polyroots)
    stability._sector_angle_deg.cache_clear()
    scheme = bdf_scheme(4)
    a_alpha_angle(scheme)
    assert len(calls) == 1
    lambda_threshold(scheme)
    stability_report(scheme)
    default_threshold_ratios(bdf_scheme(4))
    assert len(calls) == 1


def test_degenerate_scheme_rejected():
    scheme = bdf_scheme(2)
    zeroed = type(scheme)(
        k=2,
        delta=tuple(0 * d for d in scheme.delta),
        gamma=scheme.gamma,
        delta_f=np.zeros_like(scheme.delta_f),
        gamma_f=scheme.gamma_f,
    )
    with pytest.raises(ComputationError):
        a_alpha_angle(zeroed)


@pytest.mark.parametrize("k", [1, 2])
def test_threshold_infinite_when_condition_void(k):
    assert lambda_threshold(bdf_scheme(k)) == math.inf


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_threshold_matches_oracle(k):
    assert lambda_threshold(bdf_scheme(k)) == pytest.approx(
        ORACLE_LAMBDA[k], abs=1e-8
    )


def test_threshold_strictly_decreasing():
    values = [lambda_threshold(bdf_scheme(k)) for k in (3, 4, 5, 6)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("k", [1, 2])
def test_locus_right_half_plane_for_a_stable_schemes(k):
    report = stability_report(bdf_scheme(k), locus_count=4096)
    assert report.locus_values.real.min() >= -1e-14
    assert report.alpha_deg == 90.0
    assert report.lambda_threshold == math.inf


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_report_consistency(k):
    report = stability_report(bdf_scheme(k))
    assert 0.0 < report.alpha_deg <= 90.0
    assert report.lambda_threshold == pytest.approx(
        1.0 / math.cos(math.radians(report.alpha_deg)), rel=1e-14
    )
    assert len(report.locus_theta) == len(report.locus_values) == 256


def test_stability_constant_hermitian_is_one():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((12, 12))
    spd = B @ B.T + 12 * np.eye(12)
    assert stability_constant(spd) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("phi_deg", [10.0, 30.0, 60.0, 80.0])
def test_stability_constant_rotated_spd(phi_deg):
    rng = np.random.default_rng(int(phi_deg))
    A, _ = rotated_spd(rng, 17, phi_deg)
    expected = 1.0 / math.cos(math.radians(phi_deg))
    assert stability_constant(A) == pytest.approx(expected, abs=1e-6)


def test_stability_constant_diagonal_example():
    A = np.diag([1.0, 1.0 + 1.0j])
    assert stability_constant(A) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_stability_constant_brute_force_cross_check():
    """Random unit vectors never beat the constant."""
    rng = np.random.default_rng(11)
    A = np.diag([1.0, 1.0 + 1.0j])
    lam = stability_constant(A)
    for _ in range(2000):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = (v.conj() @ A @ v) / (v.conj() @ v)
        assert abs(z) / z.real <= lam + 1e-9


def test_stability_constant_requires_coercivity():
    with pytest.raises(CoercivityError):
        stability_constant(np.diag([1.0, -1.0]))
    with pytest.raises(CoercivityError):
        stability_constant(np.array([[1j]]))


@pytest.mark.parametrize(
    "n, c, b",
    # with an exact-zero guard these gave nan, inf or a finite constant
    [(8, 0.3, 0.0), (16, 0.5, 0.2), (20, 0.3, 0.5), (20, 0.5, 0.0), (20, 0.5, 0.5), (32, 0.1, 0.5)],
)
def test_stability_constant_rejects_singular_hermitian_part(n, c, b):
    # periodic diffusion matrices have the constants in their kernel, so
    # the Hermitian part is singular up to rounding
    grid = periodic_grid((0.0, 1.0), n)
    op = SparseDiffusionOperator(grid, lambda x, t: 1.0 + c * np.sin(2 * np.pi * x), b)
    with pytest.raises(CoercivityError):
        stability_constant(op.assemble(0.0).toarray())


def test_stability_constant_rejects_bad_inputs():
    with pytest.raises(DomainError):
        stability_constant(np.ones((2, 3)))
    with pytest.raises(DomainError):
        stability_constant(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("n", [1, 3])
def test_non_finite_matrices_rejected(n, bad):
    A = np.eye(n, dtype=complex)
    A[0, -1] = bad
    with pytest.raises(DomainError):
        stability_constant(A)
    with pytest.raises(DomainError):
        angle_of_analyticity_check(A, 2.0)


@pytest.mark.parametrize(
    "entries",
    # (M + M*)/2 overflows on the first two, and its NaN eigenvalues used
    # to pass the coercivity guard; the third is positive definite, but
    # the top eigenvalue of its finite H exceeds the double range
    [[[1e308, 1e308], [1e308j, 1e308]], [[1e308, 0.0], [0.0, 1e308]],
     [[1.7e308 + 1.7e308j, 1e308], [1e308, 1.7e308]]],
    ids=["nonnormal", "diagonal", "hermitian_eigenvalue_overflows"],
)
def test_huge_finite_matrices_match_their_scaled_copy(entries):
    # the constant and the angle are scale invariant, and scaling by
    # 2**-1000 is exact
    A = np.array(entries, dtype=complex)
    small = A * 2.0**-1000
    lam = stability_constant(small)
    assert math.isfinite(lam)
    assert stability_constant(A) == pytest.approx(lam, rel=1e-14)
    holds, measured = angle_of_analyticity_check(small, 2.0)
    assert angle_of_analyticity_check(A, 2.0) == (holds, pytest.approx(measured, abs=1e-12))


def test_overflowing_matrices_raise_library_errors():
    # Hermitian part I, but the skew part's eigenvalues reach 3.4e308
    A = np.array([[1 + 1.7e308j, 1.7e308], [-1.7e308, 1 + 1.7e308j]])
    with pytest.raises(ComputationError):
        stability_constant(A)
    with pytest.raises(ComputationError):
        angle_of_analyticity_check(A, 2.0)


def test_skew_dominated_matrix_gives_finite_constant():
    # rho = 1.7e308 is finite, so lambda = sqrt(1 + rho^2) = rho is too
    A = np.diag([1 + 1.7e308j, 2.0])
    assert stability_constant(A) == 1.7e308
    assert angle_of_analyticity_check(A, 1.7e308) == (True, 0.0)


@pytest.mark.parametrize("n", [8, 20, 40])
def test_stability_constant_attained_by_extreme_eigenvector(n):
    """The Rayleigh quotient z of the generalized eigenvector of the
    extreme mu reaches |z| / Re z = lambda, so the constant is the sup
    itself, not a bound."""
    A = random_nonnormal(np.random.default_rng(n), n)
    herm = 0.5 * (A + A.conj().T)
    skew = -0.5j * (A - A.conj().T)
    mu, vecs = scipy.linalg.eigh(skew, herm)
    v = vecs[:, np.argmax(np.abs(mu))]
    z = (v.conj() @ A @ v) / (v.conj() @ v)
    assert abs(z) / z.real == pytest.approx(stability_constant(A), rel=1e-12)


@pytest.mark.parametrize("n", [8, 20, 40])
def test_stability_constant_bounds_sampled_boundary(n):
    A = random_nonnormal(np.random.default_rng(n), n)
    lam = stability_constant(A)
    boundary = sampled_numerical_range_boundary(A)
    ratios = np.abs(boundary) / boundary.real
    assert (lam >= ratios - 1e-12).all()
    assert lam - ratios.max() <= 1e-4


@pytest.mark.parametrize("n", [8, 20, 40])
def test_angle_check_measures_arcsin_of_inverse_constant(n):
    A = random_nonnormal(np.random.default_rng(n), n)
    lam = stability_constant(A)
    holds, measured = angle_of_analyticity_check(A, lam)
    assert holds
    assert measured == pytest.approx(math.degrees(math.asin(1.0 / lam)), abs=1e-10)


@pytest.fixture
def eigen_calls(monkeypatch):
    """Calls of the stability module's eigvalsh and generalized eigh,
    from an empty single-slot cache; reset the counts after building
    the test's matrices, which call eigvalsh too."""
    calls = {"eigvalsh": 0, "eigh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(stability.np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(stability.scipy.linalg, "eigh", counted("eigh", scipy.linalg.eigh))
    monkeypatch.setattr(stability, "_skew_ratio_cache", [(None, None)])
    return calls


def _reference_angle(A):
    """(lambda, theta_A in degrees) from the pencil K x = mu H x."""
    herm = 0.5 * (A + A.conj().T)
    skew = -0.5j * (A - A.conj().T)
    rho = np.abs(scipy.linalg.eigh(skew, herm, eigvals_only=True)).max()
    return math.hypot(1.0, rho), math.degrees(0.5 * math.pi - math.atan(rho))


def test_constant_then_check_solve_one_eigenproblem(eigen_calls):
    A = random_nonnormal(np.random.default_rng(11), 12)
    lam_ref, angle_ref = _reference_angle(A)
    eigen_calls.update(eigvalsh=0, eigh=0)
    lam = stability_constant(A)
    holds, measured = angle_of_analyticity_check(A, lam)
    assert eigen_calls == {"eigvalsh": 1, "eigh": 1}
    assert lam == pytest.approx(lam_ref, rel=1e-13)
    assert holds
    assert measured == pytest.approx(angle_ref, abs=1e-11)


def test_matrix_edited_in_place_is_solved_again(eigen_calls):
    A = random_nonnormal(np.random.default_rng(12), 10)
    _, angle_before = _reference_angle(A)
    edited = A.copy()
    # a real antisymmetric change leaves H, so coercivity, as it was
    edited[0, 1] += 0.5
    edited[1, 0] -= 0.5
    lam_ref, angle_ref = _reference_angle(edited)
    eigen_calls.update(eigvalsh=0, eigh=0)
    stability_constant(A)
    A[0, 1] += 0.5
    A[1, 0] -= 0.5
    _, measured = angle_of_analyticity_check(A, lam_ref)
    assert eigen_calls == {"eigvalsh": 2, "eigh": 2}
    assert measured == pytest.approx(angle_ref, abs=1e-11)
    assert abs(angle_ref - angle_before) > 1e-3


def test_alternating_matrices_each_get_their_own_constant(eigen_calls):
    rng = np.random.default_rng(13)
    A, B = random_nonnormal(rng, 8), random_nonnormal(rng, 8)
    refs = [_reference_angle(M)[0] for M in (A, B)]
    eigen_calls.update(eigvalsh=0, eigh=0)
    for M, lam_ref in [(A, refs[0]), (B, refs[1])] * 2:
        assert stability_constant(M) == pytest.approx(lam_ref, rel=1e-13)
    # one slot: each switch of matrix solves again
    assert eigen_calls == {"eigvalsh": 4, "eigh": 4}


def test_non_coercive_matrix_raises_on_every_call(eigen_calls):
    A = np.array([[1.0, 1.0], [-1.0, 0.0]])  # Hermitian part diag(1, 0)
    with pytest.raises(CoercivityError):
        stability_constant(A)
    with pytest.raises(CoercivityError):
        angle_of_analyticity_check(A, 2.0)
    assert eigen_calls == {"eigvalsh": 2, "eigh": 0}


def test_coefficient_lambda_basics():
    assert coefficient_lambda(1.0, 0.0).value == pytest.approx(1.0)
    result = coefficient_lambda(1.0, 1.0)
    assert result.value == pytest.approx(math.sqrt(2.0))
    assert result.max_skew == pytest.approx(1.0)


def test_coefficient_lambda_grid_oracle():
    x = np.linspace(0.0, 2.0 * math.pi, 100)
    a = 2.0 + np.sin(x)
    b = np.cos(x)
    result = coefficient_lambda(a, b)
    direct = max(math.hypot(av, bv) / av for av, bv in zip(a, b))
    assert result.value == pytest.approx(direct, rel=1e-14)
    assert result.value == pytest.approx(
        math.sqrt(1.0 + result.max_skew**2), rel=1e-12
    )


def test_coefficient_lambda_rejects_nonpositive_a():
    with pytest.raises(CoercivityError):
        coefficient_lambda(np.array([1.0, 0.0]), np.array([0.0, 0.0]))


@pytest.mark.parametrize(
    "a, b",
    [([1.0, math.nan], [0.0, 0.0]), ([1.0, math.inf], [0.0, 0.0]), ([1.0, 1.0], [0.0, math.nan]),
     ([1.0, 1.0], [-math.inf, 0.0])],
    ids=["a_nan", "a_inf", "b_nan", "b_inf"],
)
def test_coefficient_lambda_rejects_nonfinite_coefficients(a, b):
    with pytest.raises(CoercivityError):
        coefficient_lambda(np.array(a), np.array(b))


@pytest.mark.parametrize("k", range(1, 7))
def test_sweep_stable_on_positive_axis(k):
    rho = np.logspace(-3, 3, 31)
    result = von_neumann_sweep(bdf_scheme(k), 0.0, rho)
    assert result.all_stable


@pytest.mark.parametrize("phi_deg", [0.0, 30.0, 60.0, 90.0])
def test_two_step_scheme_stable_in_closed_right_half_plane(phi_deg):
    rho = np.logspace(-3, 3, 31)
    result = von_neumann_sweep(bdf_scheme(2), math.radians(phi_deg), rho)
    assert result.all_stable


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_sector_sharpness_one_degree(k):
    rho = np.logspace(-3, 3, 61)
    alpha = ORACLE_ALPHA_DEG[k]
    inside = von_neumann_sweep(bdf_scheme(k), math.radians(alpha - 1.0), rho)
    outside = von_neumann_sweep(bdf_scheme(k), math.radians(alpha + 1.0), rho)
    assert inside.all_stable
    assert not outside.all_stable


def test_sweep_validates_inputs():
    scheme = bdf_scheme(3)
    with pytest.raises(DomainError):
        von_neumann_sweep(scheme, 0.0, [1.0, -1.0])
    with pytest.raises(DomainError):
        von_neumann_sweep(scheme, 0.0, [])
    with pytest.raises(DomainError):
        von_neumann_sweep(scheme, 0.0, [1.0], tau=0.0)


def per_rho_roots_sweep(scheme, phi, rho, tau):
    """Reference sweep: one np.roots call and a pairwise simple-root
    test per rho."""
    moduli, flags = [], []
    for r in rho:
        coeffs = scheme.delta_f.astype(complex)
        coeffs[0] += tau * r * np.exp(1j * phi)
        roots = np.roots(coeffs)
        mods = np.abs(roots)
        ok = mods.max() <= 1.0 + stability.ROOT_TOL
        on_circle = roots[mods >= 1.0 - stability.ROOT_TOL]
        for p in range(len(on_circle)):
            for q in range(p + 1, len(on_circle)):
                ok = ok and abs(on_circle[p] - on_circle[q]) > stability.ROOT_SEPARATION
        moduli.append(mods.max())
        flags.append(ok)
    return np.array(moduli), np.array(flags)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("tau", [0.01, 1.0, 7.0])
def test_sweep_matches_per_rho_np_roots(k, tau):
    scheme = bdf_scheme(k)
    rho = np.geomspace(1e-3, 1e3, 41)
    for phi_deg in (0.0, 45.0, ORACLE_ALPHA_DEG[k] + 1.0, 90.0, 150.0):
        result = von_neumann_sweep(scheme, math.radians(phi_deg), rho, tau=tau)
        moduli, flags = per_rho_roots_sweep(scheme, math.radians(phi_deg), rho, tau)
        assert np.array_equal(result.max_root_moduli, moduli)
        assert np.array_equal(result.stable_flags, flags)


def test_sweep_flags_double_root_on_unit_circle():
    # (zeta - 1)^2 + eps zeta^2 has two roots of modulus 1 + O(eps) a
    # distance 2 sqrt(eps) apart: inside the disc, but not simple
    scheme = SimpleNamespace(k=2, delta_f=np.array([1.0, -2.0, 1.0]))
    rho = np.array([1e-16, 1.0])
    result = von_neumann_sweep(scheme, 0.0, rho)
    assert (result.max_root_moduli <= 1.0 + stability.ROOT_TOL).all()
    assert result.stable_flags.tolist() == [False, True]
    assert result.stable_flags.tolist() == per_rho_roots_sweep(scheme, 0.0, rho, 1.0)[1].tolist()


def test_sweep_result_fields():
    rho = np.logspace(-1, 1, 5)
    result = von_neumann_sweep(bdf_scheme(4), 0.3, rho, tau=0.5)
    assert result.k == 4
    assert result.tau == 0.5
    assert result.max_root_moduli.shape == rho.shape
    assert result.stable_flags.dtype == bool


def test_angle_check_hermitian():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((10, 10))
    spd = B @ B.T + 10 * np.eye(10)
    ok, measured = angle_of_analyticity_check(spd, stability_constant(spd))
    assert ok
    assert measured == pytest.approx(90.0, abs=1e-6)


def test_angle_check_rotated_equality():
    rng = np.random.default_rng(7)
    A, _ = rotated_spd(rng, 14, 45.0)
    lam = stability_constant(A)
    ok, measured = angle_of_analyticity_check(A, lam)
    assert ok
    assert measured == pytest.approx(45.0, abs=1e-8)
    assert measured == pytest.approx(math.degrees(math.asin(1.0 / lam)), abs=1e-4)


def test_angle_check_diagonal_inequality():
    A = np.diag([1.0, 1.0 + 1.0j])
    lam = stability_constant(A)
    ok, measured = angle_of_analyticity_check(A, lam)
    assert ok
    assert measured >= math.degrees(math.asin(1.0 / lam)) - 1e-6


def test_constant_and_angle_check_sample_no_boundary(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numerical-range boundary sampled")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    A, _ = rotated_spd(np.random.default_rng(31), 6, 40.0)
    lam = stability_constant(A)
    assert angle_of_analyticity_check(A, lam)[0]
