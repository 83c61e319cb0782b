"""Norm token grammar and quadrature tests."""

import math
import warnings

import numpy as np
import pytest

from imexbdf import norms
from imexbdf.errors import ConfigError, DomainError
from imexbdf.operators import dirichlet_grid, fourier_frequencies, periodic_grid


# ------------------------------------------------------------- tokens


def test_parse_basic_tokens():
    assert norms.parse_norm_token("l2") == norms.L2
    assert norms.parse_norm_token("linf") == norms.LINF
    assert norms.parse_norm_token("w1inf") == norms.W1INF

def test_parse_exponent_tokens():
    kind = norms.parse_norm_token("lq:3.5")
    assert kind.parts == (norms.NormPart(False, 3.5),)
    kind = norms.parse_norm_token("w1q:4")
    assert kind.parts == (norms.NormPart(True, 4.0),)

def test_parse_sum_token():
    kind = norms.parse_norm_token("l2+w1inf")
    assert kind.parts == (norms.NormPart(False, 2.0), norms.NormPart(True, math.inf))

@pytest.mark.parametrize("bad", ["h1", "l3", "w2inf", "", "lq:1", "lq:0.5", "lq:x", "l2+"])
def test_parse_rejects_bad_tokens(bad):
    with pytest.raises(ConfigError):
        norms.parse_norm_token(bad)


# ------------------------------------------------------ spatial norms


def test_constant_one_l2_periodic():
    g = periodic_grid((0.0, 1.0), 64)
    assert norms.spatial_norm(np.ones(64), norms.L2, g) == pytest.approx(1.0, abs=1e-14)

def test_sine_l2_value():
    g = dirichlet_grid((0.0, 1.0), 2000)
    x = g.axis_nodes(0)
    val = norms.spatial_norm(np.sin(np.pi * x), norms.L2, g)
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)

def test_sine_w1inf_value():
    g = dirichlet_grid((0.0, 1.0), 2000)
    x = g.axis_nodes(0)
    v = np.sin(np.pi * x)
    val = norms.spatial_norm(v, norms.W1INF, g)
    assert val == pytest.approx(math.pi, abs=1e-3)
    # intersection form adds the L^inf part
    both = norms.spatial_norm(v, norms.parse_norm_token("linf+w1inf"), g)
    assert both == pytest.approx(math.pi + np.max(np.abs(v)), abs=2e-3)

def test_periodic_gradient_is_spectral():
    g = periodic_grid((0.0, 2.0 * np.pi), 32)
    x = g.axis_nodes(0)
    v = np.sin(3.0 * x)
    val = norms.spatial_norm(v, norms.W1INF, g)
    assert val == pytest.approx(3.0, abs=1e-10)  # exact to round-off

def test_h1_is_quadratic_mean():
    g = periodic_grid((0.0, 2.0 * np.pi), 128)
    x = g.axis_nodes(0)
    v = np.sin(x)
    l2 = norms.spatial_norm(v, norms.L2, g)
    grad_l2 = norms.spatial_norm(v, norms.parse_norm_token("w1q:2"), g)
    h1 = norms.spatial_norm(v, norms.H1, g)
    assert h1 == pytest.approx(math.hypot(l2, grad_l2), rel=1e-13)

def test_lq_matches_direct_formula():
    g = periodic_grid((0.0, 1.0), 50)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(50)
    q = 3.0
    direct = (g.h[0] * np.sum(np.abs(v) ** q)) ** (1.0 / q)
    val = norms.spatial_norm(v, norms.parse_norm_token("lq:3"), g)
    assert val == pytest.approx(direct, rel=1e-13)

def test_mismatched_shape_rejected():
    g = dirichlet_grid((0.0, 1.0), 16)
    with pytest.raises(DomainError):
        norms.spatial_norm(np.ones(17), norms.L2, g)

def test_quadrature_second_order_convergence():
    # L2 norm of a smooth function approaches the analytic value at
    # order >= 2 in h
    exact = math.sqrt(0.5 - math.sin(2.0) / 4.0)  # ||sin(x)||_{L2(0,1)}
    errs = []
    for M in (100, 200, 400):
        g = dirichlet_grid((0.0, 1.0), M)
        x = g.axis_nodes(0)
        errs.append(abs(norms.spatial_norm(np.sin(x), norms.L2, g) - exact))
    assert errs[0] / errs[1] > 1.8
    assert errs[1] / errs[2] > 1.8


def test_norm_axioms_random_states():
    g = periodic_grid((0.0, 1.0), 40)
    rng = np.random.default_rng(9)
    kinds = [norms.L2, norms.LINF, norms.W1INF, norms.parse_norm_token("l2+w1q:3"), norms.H1]
    for _ in range(5):
        u = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        c = rng.uniform(0.1, 10.0)
        for kind in kinds:
            nu = norms.spatial_norm(u, kind, g)
            nv = norms.spatial_norm(v, kind, g)
            nc = norms.spatial_norm(c * u, kind, g)
            nsum = norms.spatial_norm(u + v, kind, g)
            assert nc == pytest.approx(c * nu, rel=1e-12)
            assert nsum <= nu + nv + 1e-12 * (nu + nv)


# ------------------------------------------------ stacks of states


def _reference_gradient(v, g):
    """Per-axis gradient of one state: spectral on periodic grids,
    centered differences of the zero-padded state on Dirichlet grids."""
    if g.boundary == "periodic":
        vhat = np.fft.fftn(v)
        return [np.fft.ifftn(1j * xi * vhat) for xi in fourier_frequencies(g)]
    padded = np.pad(v, 1)
    comps = []
    for axis, h in enumerate(g.h):
        hi = [slice(1, -1)] * g.ndim
        lo = list(hi)
        hi[axis], lo[axis] = slice(2, None), slice(None, -2)
        comps.append((padded[tuple(hi)] - padded[tuple(lo)]) / (2.0 * h))
    return comps


def _reference_norm(v, kind, g):
    """One state's norm, part by part, with plain numpy and math.fsum."""
    pieces = []
    for part in kind.parts:
        if part.derivative:
            comps = _reference_gradient(v.astype(complex), g)
            mag = abs(comps[0]) if g.ndim == 1 else np.sqrt(abs(comps[0]) ** 2 + abs(comps[1]) ** 2)
        else:
            mag = abs(v)
        if part.q == math.inf:
            pieces.append(float(mag.max()))
        else:
            total = math.fsum((mag**part.q).ravel().tolist())
            pieces.append((math.prod(g.h) * total) ** (1.0 / part.q))
    if kind.quadratic_mean:
        return math.sqrt(math.fsum(p * p for p in pieces))
    return math.fsum(pieces)


STACK_GRIDS = {
    "dirichlet-1d": dirichlet_grid((0.0, 1.0), 1000),
    "periodic-1d": periodic_grid((0.0, 2.0 * np.pi), 1024),
    "dirichlet-2d": dirichlet_grid([(0.0, 1.0), (0.0, 2.0)], (40, 50)),
    "periodic-2d": periodic_grid([(0.0, 1.0), (0.0, 3.0)], (64, 32)),
}
STACK_KINDS = ["l2", "lq:3", "linf", "w1inf", "w1q:2", norms.H1, "l2+w1inf"]


@pytest.mark.parametrize("name", sorted(STACK_GRIDS))
def test_spatial_norms_match_per_state_reference_bitwise(name):
    g = STACK_GRIDS[name]
    C = norms._block_rows(g)
    assert 2 <= C < 100  # so that the lengths below cross one block
    rng = np.random.default_rng(11)
    for m in (1, C - 1, C, C + 1):
        stack = rng.standard_normal((m, *g.shape)) + 1j * rng.standard_normal((m, *g.shape))
        for token in STACK_KINDS:
            kind = token if isinstance(token, norms.NormKind) else norms.parse_norm_token(token)
            expected = [_reference_norm(v, kind, g) for v in stack]
            assert norms.spatial_norms(stack, kind, g) == expected, (m, kind.label)
            assert norms.spatial_norm(stack[-1], kind, g) == expected[-1]


@pytest.mark.parametrize("with_exact", [False, True])
def test_error_blocks_cover_the_states_in_block_rows(with_exact):
    g = dirichlet_grid([(0.0, 1.0), (0.0, 2.0)], (40, 50))
    C = norms._block_rows(g)
    states = np.random.default_rng(5).standard_normal((2 * C + 1, *g.shape))
    times = 0.1 * np.arange(len(states))
    exact = (lambda t: np.full(g.shape, t)) if with_exact else None
    walked = list(norms.error_blocks(states, times, exact, g))
    assert [len(block) for block, _ in walked] == [C, C, 1]
    np.testing.assert_array_equal(np.concatenate([block for block, _ in walked]), states)
    if not with_exact:
        assert all(errors is None for _, errors in walked)
        return
    errors = np.concatenate([errors for _, errors in walked])
    np.testing.assert_array_equal(errors, states - times[:, None, None])
    assert errors.dtype == complex


def test_spatial_norms_rejects_a_state_that_is_not_a_stack():
    g = dirichlet_grid((0.0, 1.0), 16)
    assert norms.spatial_norms(np.ones((0, 16)), norms.L2, g) == []
    with pytest.raises(DomainError):
        norms.spatial_norms(np.ones(16), norms.L2, g)
    with pytest.raises(DomainError):
        norms.spatial_norms(np.ones((3, 17)), norms.L2, g)


@pytest.mark.parametrize("token", ["l2", "lq:4", norms.H1], ids=["l2", "lq:4", "h1"])
@pytest.mark.parametrize("level", [1e154, 1e200, 1e300])
def test_lq_norms_of_huge_finite_states_do_not_overflow(token, level):
    kind = token if isinstance(token, norms.NormKind) else norms.parse_norm_token(token)
    g = dirichlet_grid((0.0, 1.0), 8)
    v = np.full(8, level) * np.linspace(1.0, 2.0, 8)
    peak = float(np.abs(v).max())
    expected = peak * norms.spatial_norm(v / peak, kind, g)
    small = np.linspace(-1.0, 1.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "overflow encountered" either
        huge, unchanged = norms.spatial_norms(np.stack([v, small]), kind, g)
    assert math.isfinite(huge)
    assert huge == pytest.approx(expected, rel=1e-14)
    assert unchanged == norms.spatial_norm(small, kind, g)


EXTREME_GRIDS = {
    "dirichlet-1d": dirichlet_grid((0.0, 1.0), 8),
    "periodic-1d": periodic_grid((0.0, 1.0), 8),
    "dirichlet-2d": dirichlet_grid([(0.0, 1.0), (0.0, 1.0)], (4, 4)),
    "periodic-2d": periodic_grid([(0.0, 1.0), (0.0, 2.0)], (4, 6)),
}


@pytest.mark.parametrize("token", ["l2", "lq:4", "w1q:2", "w1inf", norms.H1], ids=str)
@pytest.mark.parametrize("level", [1e200, 1e-200])
@pytest.mark.parametrize("name", sorted(EXTREME_GRIDS))
def test_norms_at_both_ends_of_the_double_range(name, level, token):
    # |v|^q and the 2-d |grad v|^2 leave the double range at these levels
    kind = token if isinstance(token, norms.NormKind) else norms.parse_norm_token(token)
    g = EXTREME_GRIDS[name]
    rng = np.random.default_rng(3)
    unit = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    v = level * unit
    peak = float(np.abs(v).max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "overflow encountered" either
        expected = peak * norms.spatial_norm(v / peak, kind, g)
        value, moderate = norms.spatial_norms(np.stack([v, unit]), kind, g)
    assert 0.0 < value < math.inf
    assert value == pytest.approx(expected, rel=1e-14)
    assert moderate == norms.spatial_norm(unit, kind, g)


def test_constant_extreme_states_keep_their_norms():
    g2 = dirichlet_grid([(0.0, 1.0), (0.0, 1.0)], (4, 4))
    g1 = dirichlet_grid((0.0, 1.0), 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w1inf = norms.spatial_norm(np.full((4, 4), 1e200), norms.W1INF, g2)
        l2 = norms.spatial_norm(np.full(8, 1e-200), norms.L2, g1)
    assert w1inf == pytest.approx(1e200 * norms.spatial_norm(np.ones((4, 4)), norms.W1INF, g2))
    assert l2 == pytest.approx(1e-200 * norms.spatial_norm(np.ones(8), norms.L2, g1))


def test_non_finite_states_keep_non_finite_norms():
    g = dirichlet_grid((0.0, 1.0), 8)
    for kind in (norms.L2, norms.LINF, norms.parse_norm_token("lq:4")):
        assert norms.spatial_norm(np.full(8, np.inf), kind, g) == math.inf
        assert math.isnan(norms.spatial_norm(np.full(8, np.nan), kind, g))


# --------------------------------------------------------- time norms


def test_time_norm_constant_sequence():
    N, tau, c, p = 16, 0.25, 3.0, 4.0
    val = norms.lp_time_norm([c] * N, tau, p)
    assert val == pytest.approx(c * (N * tau) ** (1.0 / p), rel=1e-13)

def test_time_norm_single_value_tau_one():
    assert norms.lp_time_norm([2.5], 1.0, 2.0) == pytest.approx(2.5)

def test_time_norm_hand_example():
    assert norms.lp_time_norm([1.0, 2.0, 3.0], 0.5, 2.0) == pytest.approx(math.sqrt(7.0))

def test_time_norm_max_for_infinite_p():
    assert norms.lp_time_norm([1.0, 5.0, 2.0], 0.1, math.inf) == 5.0

def test_time_norm_bounded_by_max():
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.0, 2.0, size=20)
    tau = 0.05
    for p in (1.5, 2.0, 4.0):
        lp = norms.lp_time_norm(vals, tau, p)
        bound = (len(vals) * tau) ** (1.0 / p) * vals.max()
        assert lp <= bound * (1.0 + 1e-13)

def test_time_norm_rejects_empty_and_bad_input():
    with pytest.raises(DomainError):
        norms.lp_time_norm([], 0.1, 2.0)
    with pytest.raises(DomainError):
        norms.lp_time_norm([1.0], 0.0, 2.0)
    with pytest.raises(DomainError):
        norms.lp_time_norm([np.nan], 0.1, 2.0)
    with pytest.raises(DomainError):
        norms.lp_time_norm([1.0], 0.1, 1.0)

@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_time_norm_rejects_non_finite_tau(tau):
    with pytest.raises(DomainError):
        norms.lp_time_norm([1.0, 2.0], tau, 2.0)
