import math
import warnings

import numpy as np
import pytest

from imexbdf.config import (
    NONLINEARITY_REGISTRY,
    build_nonlinearity,
    build_problem,
    override,
    parse_config,
)
from imexbdf.errors import CoercivityError, ConfigError
from imexbdf.operators import (
    SparseDiffusionOperator,
    SpectralDiagonalOperator,
    assemble_example1,
    assemble_example2,
    assemble_example3,
    assemble_example4,
    periodic_grid,
)

MINIMAL = """
[problem]
example = 1

[scheme]
k = 2

[time]
tau = 0.01
steps = 100
"""


class TestParsing:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.example == "1"
        assert cfg.boundary == "dirichlet"
        assert cfg.extent == ((0.0, 1.0),)
        assert cfg.points == (512,)
        assert cfg.a == "1" and cfg.b == "0"
        assert cfg.nonlinearity == "cubic_sink + exp_flux_div"
        assert cfg.k == 2 and cfg.tau == 0.01 and cfg.steps == 100
        assert cfg.levels == 5 and cfg.stride == 1
        assert cfg.norms == "linf,l2" and cfg.path == "out"
        assert cfg.seed == 20260821

    def test_roman_numeral_spectral_defaults(self):
        cfg = parse_config("[problem]\nexample = III\n[scheme]\nk = 1\n")
        assert cfg.example == "3"
        assert cfg.boundary == "periodic"
        assert cfg.extent == ((-16.0, 16.0),)
        assert cfg.points == (256,)
        assert cfg.a is None and cfg.b is None
        assert cfg.nonlinearity == "expm1"

    def test_example_two_and_four_defaults(self):
        cfg2 = parse_config("[problem]\nexample = 2\n[scheme]\nk = 1\n")
        assert cfg2.nonlinearity == "grad_quartic_drag"
        cfg4 = parse_config("[problem]\nexample = IV\n[scheme]\nk = 1\n")
        assert cfg4.nonlinearity == "double_well_laplacian"

    def test_two_dimensional_extent(self):
        cfg = parse_config(
            "[problem]\nexample = custom\nextent = 0,1 ; 0,2\npoints = 8, 12\n"
            "[scheme]\nk = 1\n"
        )
        assert cfg.extent == ((0.0, 1.0), (0.0, 2.0))
        assert cfg.points == (8, 12)

    def test_extent_endpoints_are_constant_expressions(self):
        cfg = parse_config(
            "[problem]\nexample = 3\nextent = -pi, 2*pi\npoints = 8\n[scheme]\nk = 1\n"
        )
        assert cfg.extent == ((-math.pi, 2 * math.pi),)
        assert parse_config(cfg.to_text()) == cfg

    @pytest.mark.parametrize(
        "extent", ["0, x", "0, 1/0", "0, 10**400", "0, (-1)**0.5", "0, exp(1000)", "0, e/0.0"]
    )
    def test_extent_endpoint_that_is_no_finite_constant_is_rejected(self, extent):
        text = f"[problem]\nexample = 1\nextent = {extent}\n[scheme]\nk = 1\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="extent"):
                parse_config(text)

    def test_k_out_of_range_names_the_field(self):
        with pytest.raises(ConfigError, match=r"scheme\.k.*1\.\.6.*7"):
            parse_config("[problem]\nexample = 1\n[scheme]\nk = 7\n")

    def test_k_required(self):
        with pytest.raises(ConfigError, match=r"scheme\.k"):
            parse_config("[problem]\nexample = 1\n")

    def test_unknown_key_suggests_nearest(self):
        with pytest.raises(ConfigError, match="did you mean 'example'"):
            parse_config("[problem]\nexampel = 1\n[scheme]\nk = 1\n")

    def test_unknown_section_suggests_nearest(self):
        with pytest.raises(ConfigError, match="did you mean 'scheme'"):
            parse_config("[problem]\nexample = 1\n[schema]\nk = 1\n")

    def test_spectral_example_rejects_coefficients(self):
        with pytest.raises(ConfigError, match=r"problem\.a"):
            parse_config("[problem]\nexample = 3\na = 1\n[scheme]\nk = 1\n")

    def test_spectral_example_rejects_dirichlet(self):
        with pytest.raises(ConfigError, match="periodic"):
            parse_config(
                "[problem]\nexample = 4\nboundary = dirichlet\n[scheme]\nk = 1\n"
            )

    def test_exact_needs_exact_dt(self):
        with pytest.raises(ConfigError, match="exact_dt"):
            parse_config(
                "[problem]\nexample = 1\nexact = sin(pi*x)\n[scheme]\nk = 1\n"
            )

    def test_bad_expression_rejected_at_parse(self):
        with pytest.raises(ConfigError, match="bad expression"):
            parse_config("[problem]\nexample = 1\na = sin(z)\n[scheme]\nk = 1\n")

    def test_bad_norm_token_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                "[problem]\nexample = 1\n[scheme]\nk = 1\n[output]\nnorms = h1\n"
            )

    def test_unknown_nonlinearity_suggests(self):
        with pytest.raises(ConfigError, match="cubic_sink"):
            parse_config(
                "[problem]\nexample = 1\nnonlinearity = qubic_sink\n[scheme]\nk = 1\n"
            )

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError, match=r"time\.tau"):
            parse_config("[problem]\nexample = 1\n[scheme]\nk = 1\n[time]\ntau = -0.1\n")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL,
            "[problem]\nexample = III\npoints = 64\n[scheme]\nk = 4\n"
            "[time]\ntau0 = 0.125\nlevels = 4\n[output]\nnorms = l2+w1q:3\nseed = 7\n",
            "[problem]\nexample = custom\nextent = -1,1 ; 0,2\npoints = 8, 12\n"
            "a = 1 + 0.5*sin(x)*sin(y)\nb = 0.25\nnonlinearity = none\n"
            "exact = exp(-t)*sin(pi*x)*sin(pi*y)\n"
            "exact_dt = -exp(-t)*sin(pi*x)*sin(pi*y)\n"
            "[scheme]\nk = 3\n[time]\ntau = 0.005\nsteps = 17\nfinal_time = 2.5\n"
            "[output]\npath = results\nstride = 4\n",
        ],
    )
    def test_parse_of_canonical_text_is_identity(self, text):
        cfg = parse_config(text)
        assert parse_config(cfg.to_text()) == cfg

    def test_as_dict_carries_all_sections(self):
        d = parse_config(MINIMAL).as_dict()
        assert set(d) == {"problem", "scheme", "time", "output"}
        assert d["scheme"]["k"] == 2
        assert d["problem"]["extent"] == [[0.0, 1.0]]

    def test_override_revalidates(self):
        cfg = parse_config(MINIMAL)
        assert override(cfg, k=5).k == 5
        assert override(cfg).k == 2
        with pytest.raises(ConfigError, match=r"scheme\.k"):
            override(cfg, k=9)
        with pytest.raises(ConfigError, match=r"time\.tau"):
            override(cfg, tau=-1.0)


class TestNonlinearityRegistry:
    def test_none_builds_nothing(self):
        grid = periodic_grid((0.0, 2.0 * np.pi), 16)
        assert build_nonlinearity("none", grid) is None

    def test_single_id(self):
        grid = periodic_grid((0.0, 2.0 * np.pi), 16)
        term = build_nonlinearity("cubic_sink", grid)
        u = np.full(grid.shape, 0.5 + 0.0j)
        np.testing.assert_allclose(term.evaluate(0.0, u), -(u**3))

    def test_weighted_sum(self):
        grid = periodic_grid((0.0, 2.0 * np.pi), 16)
        term = build_nonlinearity("2*cubic_sink + 0.5*expm1", grid)
        u = np.linspace(-0.4, 0.4, grid.size).reshape(grid.shape).astype(complex)
        expected = 2.0 * -(u**3) + 0.5 * np.expm1(u)
        np.testing.assert_allclose(term.evaluate(0.0, u), expected, atol=1e-14)

    def test_none_inside_sum_rejected(self):
        grid = periodic_grid((0.0, 2.0 * np.pi), 16)
        with pytest.raises(ConfigError, match="none"):
            build_nonlinearity("cubic_sink + none", grid)

    def test_bad_coefficient_rejected(self):
        grid = periodic_grid((0.0, 2.0 * np.pi), 16)
        with pytest.raises(ConfigError, match="coefficient"):
            build_nonlinearity("two*cubic_sink", grid)

    @pytest.mark.parametrize(
        "text", ["nan*cubic_sink", "inf*exp_flux_div", "cubic_sink + -inf*exp_flux_div"]
    )
    def test_non_finite_coefficient_rejected(self, text):
        with pytest.raises(ConfigError, match="coefficient"):
            parse_config(f"[problem]\nexample = 1\nnonlinearity = {text}\n[scheme]\nk = 1\n")

    def test_registry_ids_all_build_on_periodic_grids(self):
        grid = periodic_grid((0.0, 2.0 * np.pi), 16)
        u = 0.1 * np.sin(grid.axis_nodes(0)).astype(complex)
        for name in NONLINEARITY_REGISTRY:
            term = build_nonlinearity(name, grid)
            assert np.all(np.isfinite(term.evaluate(0.0, u)))


class TestBuildProblem:
    def test_example_one_assembly(self):
        cfg = parse_config(
            "[problem]\nexample = 1\npoints = 16\na = 1 + 0.5*sin(x)\nb = 0.25\n"
            "[scheme]\nk = 2\n[time]\ntau = 0.01\nsteps = 4\n"
        )
        built = build_problem(cfg)
        assert isinstance(built.operator, SparseDiffusionOperator)
        assert built.grid.shape == (16,)
        u = 0.1 * np.sin(np.pi * built.grid.axis_nodes(0)).astype(complex)
        assert np.all(np.isfinite(built.nonlinear.evaluate(0.0, u)))
        assert built.manufactured is None

    def test_autonomous_detection_caches_factorization(self):
        base = (
            "[problem]\nexample = 1\npoints = 16\nnonlinearity = none\n{coeff}\n"
            "[scheme]\nk = 1\n[time]\ntau = 0.01\nsteps = 4\n"
        )
        rhs = np.ones(16, dtype=complex)
        static = build_problem(parse_config(base.format(coeff="a = 1 + 0.5*sin(x)")))
        static.operator.shifted_solve(0.0, 2.0, rhs)
        static.operator.shifted_solve(0.7, 2.0, rhs)
        assert static.operator.factorization_count == 1
        moving = build_problem(
            parse_config(base.format(coeff="a = 1 + 0.5*sin(x)*cos(t)"))
        )
        moving.operator.shifted_solve(0.0, 2.0, rhs)
        moving.operator.shifted_solve(0.7, 2.0, rhs)
        assert moving.operator.factorization_count == 2

    def test_infinite_interface_coefficient_rejected(self):
        # 8 Dirichlet points put an interface at x = 0.5, where a = inf
        cfg = parse_config(
            "[problem]\nexample = 1\npoints = 8\na = 1 + 1/abs(x - 0.5)\n"
            "[scheme]\nk = 2\n[time]\ntau = 0.01\nsteps = 4\n"
        )
        with pytest.raises(CoercivityError), np.errstate(divide="ignore"):
            build_problem(cfg)

    def test_spectral_examples_assemble(self):
        for ex in ("3", "4"):
            cfg = parse_config(f"[problem]\nexample = {ex}\npoints = 32\n[scheme]\nk = 1\n")
            built = build_problem(cfg)
            assert isinstance(built.operator, SpectralDiagonalOperator)
            assert built.nonlinear is not None

    @pytest.mark.parametrize(
        "example, grid_lines",
        [
            ("1", "points = 16"),
            ("2", "points = 16"),
            ("3", "points = 32"),
            ("4", "points = 32"),
            ("1", "extent = 0, 1 ; 0, 1\npoints = 8, 6"),
        ],
        ids=["ex1-1d", "ex2-1d", "ex3-1d", "ex4-1d", "ex1-2d"],
    )
    def test_default_nonlinearity_is_the_api_term(self, example, grid_lines):
        # both spell each example's explicit part from the one list of
        # named terms, so they agree bit for bit
        cfg = parse_config(
            f"[problem]\nexample = {example}\n{grid_lines}\n[scheme]\nk = 1\n"
        )
        built = build_problem(cfg)
        grid = built.grid
        assemble = {
            "1": lambda: assemble_example1(grid, 1.0, 0.0),
            "2": lambda: assemble_example2(grid, 1.0, 0.0),
            "3": lambda: assemble_example3(grid),
            "4": lambda: assemble_example4(grid),
        }
        _, term = assemble[example]()
        rng = np.random.default_rng(20261018)
        v = 0.3 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        assert np.array_equal(term.evaluate(0.4, v), built.nonlinear.evaluate(0.4, v))

    def test_manufactured_exact_solution_at_t0(self):
        cfg = parse_config(
            "[problem]\nexample = 1\npoints = 24\n"
            "exact = exp(-t)*sin(pi*x)\nexact_dt = -exp(-t)*sin(pi*x)\n"
            "[scheme]\nk = 2\n[time]\ntau = 0.01\nsteps = 4\n"
        )
        built = build_problem(cfg)
        built.require_manufactured()
        u0 = built.manufactured.exact(0.0)
        np.testing.assert_allclose(
            u0, np.sin(np.pi * built.grid.axis_nodes(0)), atol=1e-15
        )

    def test_exact_constant_in_space_broadcasts(self):
        cfg = parse_config(
            "[problem]\nexample = 1\npoints = 16\nnonlinearity = none\n"
            "exact = exp(-t)\nexact_dt = -exp(-t)\n[scheme]\nk = 1\n"
        )
        built = build_problem(cfg)
        state = built.manufactured.exact(0.5)
        assert state.shape == (16,)
        np.testing.assert_allclose(state, np.exp(-0.5))

    def test_require_manufactured_raises_without_exact(self):
        built = build_problem(parse_config(MINIMAL))
        with pytest.raises(ConfigError, match="exact"):
            built.require_manufactured()
