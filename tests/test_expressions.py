import numpy as np
import pytest

from imexbdf import expressions
from imexbdf.config import build_problem, parse_config
from imexbdf.errors import ConfigError
from imexbdf.expressions import compile_field


class TestAccepts:
    def test_coefficient_field(self):
        expr = compile_field("1 + 0.5*sin(x)", ("x", "t"))
        x = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(expr(x, 0.3), 1.0 + 0.5 * np.sin(x))

    def test_space_time_field(self):
        expr = compile_field("exp(-t)*sin(pi*x)", ("x", "t"))
        x = np.linspace(0.0, 1.0, 5)
        np.testing.assert_allclose(
            expr(x, 0.25), np.exp(-0.25) * np.sin(np.pi * x), atol=1e-15
        )

    def test_constants_and_power(self):
        expr = compile_field("e**2 + x**3 / 2 - (-x)", ("x", "t"))
        assert expr(2.0, 0.0) == pytest.approx(np.e**2 + 4.0 + 2.0)

    def test_two_space_variables(self):
        expr = compile_field("sin(x)*cos(y) + t", ("x", "y", "t"))
        assert expr(1.0, 2.0, 0.5) == pytest.approx(np.sin(1.0) * np.cos(2.0) + 0.5)

    def test_abs_function(self):
        expr = compile_field("abs(x)", ("x", "t"))
        assert expr(-3.0, 0.0) == 3.0

    def test_scalar_constant_broadcasts_later(self):
        expr = compile_field("0", ("x", "t"))
        assert expr(np.zeros(4), 0.0) == 0


class TestTimeDependence:
    def test_static_field(self):
        assert not compile_field("1 + 0.5*sin(x)", ("x", "t")).time_dependent

    def test_time_dependent_field(self):
        assert compile_field("sin(x)*cos(t)", ("x", "t")).time_dependent

    def test_t_only_inside_call(self):
        assert compile_field("exp(-t)", ("x", "t")).time_dependent


class TestRejects:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "import os",
            "__import__('os')",
            "x.real",
            "unknown_name",
            "f(x)",
            "sin(x, 1)",
            "sin()",
            "x if t else 1",
            "lambda: 1",
            "[1, 2]",
            "x < 1",
            "x; t",
            "open('f')",
            "1j*x",
            "sin",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ConfigError):
            compile_field(text, ("x", "t"))

    def test_message_carries_position(self):
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            compile_field("1 + secret", ("x", "t"))

    def test_y_rejected_in_one_dimension(self):
        with pytest.raises(ConfigError, match="y"):
            compile_field("sin(y)", ("x", "t"))

    def test_arity_mismatch_at_call_time(self):
        expr = compile_field("sin(x)", ("x", "t"))
        with pytest.raises(ConfigError):
            expr(1.0)


# t-free, t-only and mixed fields, with nested calls, unary minus, **,
# abs, pi and e
BOUND_FIELDS_1D = [
    "1 + 0.5*sin(x)",
    "exp(-t)",
    "-t**2 + e",
    "exp(-t)*sin(pi*x)",
    "1 + 0.5*sin(x)*cos(t)",
    "0.3*(1 + 0.5*sin(x)*cos(t))",
    "-exp(-t)*sin(pi*x)",
    "abs(sin(exp(-x**2)*t)) - (-x)**3/e",
    "x",
    "0",
    "pi",
]
BOUND_FIELDS_2D = [
    "exp(-t)*sin(pi*x)*sin(pi*y)",
    "1 + 0.5*sin(x)*sin(y)*cos(t)",
    "cos(x - y) + abs(-y)**t",
    "sin(x)*cos(y)",
    "y",
]
TIMES = [0.0, 0.05, 0.3, 1.0, 2.718281828459045]


class TestBinding:
    @pytest.mark.parametrize("text", BOUND_FIELDS_1D)
    def test_bound_1d_field_is_bit_identical(self, text):
        expr = compile_field(text, ("x", "t"))
        x = np.linspace(-1.0, 2.0, 33)
        bound = expr.at(x)
        for t in TIMES:
            np.testing.assert_array_equal(bound(t), expr(x, t), strict=True)

    @pytest.mark.parametrize("text", BOUND_FIELDS_2D)
    def test_bound_2d_field_is_bit_identical(self, text):
        expr = compile_field(text, ("x", "y", "t"))
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 7), np.linspace(0.5, 2.0, 5), indexing="ij")
        bound = expr.at(x, y)
        for t in TIMES:
            np.testing.assert_array_equal(bound(t), expr(x, y, t), strict=True)

    @pytest.mark.parametrize("text", ["1 + 0.5*sin(x)", "x"])
    def test_t_free_field_returns_one_read_only_array(self, text):
        x = np.linspace(0.0, 1.0, 9)
        bound = compile_field(text, ("x", "t")).at(x)
        out = bound(0.0)
        assert bound(1.0) is out
        with pytest.raises(ValueError):
            out[0] = 2.0
        x[0] = 0.5  # the caller's coordinates stay writable

    @pytest.mark.parametrize(
        "extent, points, a, b, exact, expected",
        [
            # one sine per field; the 1-d operator binds a and b once
            ("0, 1", "16", "1 + 0.5*sin(x)*cos(t)", "0.3*(1 + 0.5*sin(x)*cos(t))",
             "exp(-t)*sin(pi*x)", 4),
            # two sines per field; the 2-d operator binds a and b once per axis
            ("0, 1 ; 0, 1", "6, 5", "1 + 0.5*sin(x)*sin(y)*cos(t)", "0.3",
             "exp(-t)*sin(pi*x)*sin(pi*y)", 2 * 2 + 2 + 2),
        ],
        ids=["1d", "2d"],
    )
    def test_t_free_subtrees_are_evaluated_once_per_binding(
        self, monkeypatch, extent, points, a, b, exact, expected
    ):
        calls = []

        def sin(v):
            calls.append(1)
            return np.sin(v)

        monkeypatch.setitem(expressions._FUNCTIONS, "sin", sin)
        built = build_problem(parse_config(
            f"[problem]\nexample = 1\nextent = {extent}\npoints = {points}\n"
            f"a = {a}\nb = {b}\nexact = {exact}\nexact_dt = -{exact}\n[scheme]\nk = 2\n"
        ))
        assert not built.operator.autonomous
        for t in np.linspace(0.0, 1.0, 50):
            built.operator.assemble(t)
            built.manufactured.exact(t)
            built.manufactured.exact_dt(t)
        assert len(calls) == expected
