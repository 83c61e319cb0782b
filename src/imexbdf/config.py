"""Config parsing and problem assembly for the command-line tools.

Config files are INI text with the sections ``[problem]``, ``[scheme]``,
``[time]`` and ``[output]``, for example::

    [problem]
    example = 1                  ; 1..4 (or I..IV), or "custom"
    a = 1 + 0.5*sin(x)*cos(t)    ; diffusion coefficient, real part
    b = 0.3 + 0.15*sin(x)*cos(t) ; imaginary part
    nonlinearity = cubic_sink + exp_flux_div
    exact = exp(-t)*sin(pi*x)    ; manufactured solution, optional
    exact_dt = -exp(-t)*sin(pi*x)

Every field has a documented default (``[scheme] k``, ``[time] tau`` and
``steps``, ``[output] norms`` and ``seed``, ...); unknown sections or keys
fail with the nearest valid name.  Expressions follow the grammar of
``expressions``.  The examples, and the named terms of ``nonlinearity``,
are those of ``operators.EXAMPLE_TERMS`` and ``NONLINEARITY_REGISTRY``.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, replace

import numpy as np

from .bdf_coeffs import MAX_STEP_NUMBER
from .convergence_harness import DEFAULT_SEED, ManufacturedProblem
from .errors import ConfigError
from .expressions import FieldExpr, compile_field
from .norms import parse_norm_token
from .operators import (
    DIRICHLET,
    EXAMPLE_TERMS,
    NONLINEARITY_REGISTRY,
    PERIODIC,
    Grid,
    SparseDiffusionOperator,
    assemble_example3,
    assemble_example4,
    build_explicit_term,
)

_SECTIONS = ("problem", "scheme", "time", "output")
_KEYS = {
    "problem": (
        "example",
        "boundary",
        "extent",
        "points",
        "a",
        "b",
        "nonlinearity",
        "exact",
        "exact_dt",
    ),
    "scheme": ("k",),
    "time": ("tau", "steps", "final_time", "tau0", "levels"),
    "output": ("path", "norms", "stride", "seed"),
}

_EXAMPLE_IDS = {
    "1": "1", "2": "2", "3": "3", "4": "4",
    "i": "1", "ii": "2", "iii": "3", "iv": "4",
    "custom": "custom",
}
_SPECTRAL_EXAMPLES = ("3", "4")


@dataclass(frozen=True)
class RunConfig:
    example: str
    boundary: str
    extent: tuple[tuple[float, float], ...]
    points: tuple[int, ...]
    a: str | None
    b: str | None
    nonlinearity: str
    exact: str | None
    exact_dt: str | None
    k: int
    tau: float | None
    steps: int | None
    final_time: float | None
    tau0: float | None
    levels: int
    path: str
    norms: str
    stride: int
    seed: int

    def to_text(self) -> str:
        """Canonical INI text; parsing it reproduces this config."""
        lines = ["[problem]", f"example = {self.example}"]
        lines.append(f"boundary = {self.boundary}")
        lines.append(
            "extent = " + " ; ".join(f"{lo!r}, {hi!r}" for lo, hi in self.extent)
        )
        lines.append("points = " + ", ".join(str(n) for n in self.points))
        if self.a is not None:
            lines.append(f"a = {self.a}")
        if self.b is not None:
            lines.append(f"b = {self.b}")
        lines.append(f"nonlinearity = {self.nonlinearity}")
        if self.exact is not None:
            lines.append(f"exact = {self.exact}")
        if self.exact_dt is not None:
            lines.append(f"exact_dt = {self.exact_dt}")
        lines += ["", "[scheme]", f"k = {self.k}", "", "[time]"]
        for name in ("tau", "final_time", "tau0"):
            value = getattr(self, name)
            if value is not None:
                lines.append(f"{name} = {value!r}")
        if self.steps is not None:
            lines.append(f"steps = {self.steps}")
        lines.append(f"levels = {self.levels}")
        lines += [
            "",
            "[output]",
            f"path = {self.path}",
            f"norms = {self.norms}",
            f"stride = {self.stride}",
            f"seed = {self.seed}",
            "",
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        out = {
            name: {key: getattr(self, key) for key in keys}
            for name, keys in _KEYS.items()
        }
        out["problem"]["extent"] = [list(pair) for pair in self.extent]
        out["problem"]["points"] = list(self.points)
        return out


def _field_variables(ndim: int) -> tuple[str, ...]:
    return ("x", "t") if ndim == 1 else ("x", "y", "t")


def _nearest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _parse_extent(text: str) -> tuple[tuple[float, float], ...]:
    axes = []
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"extent axis {chunk.strip()!r} must be 'lo, hi'")
        # each endpoint is a constant field expression, such as 2*pi
        try:
            with np.errstate(all="ignore"):  # inf and nan fail the check below
                lo, hi = (float(compile_field(p, ())()) for p in parts)
        except (ConfigError, ArithmeticError, TypeError):
            raise ConfigError(f"non-numeric extent {chunk.strip()!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"extent ({lo}, {hi}) must be finite and nonempty")
        axes.append((lo, hi))
    if not 1 <= len(axes) <= 2:
        raise ConfigError("extent must list 1 or 2 axes separated by ';'")
    return tuple(axes)


def _get_int(raw: dict, section: str, key: str, default=None, minimum=None):
    if key not in raw:
        return default
    text = raw[key]
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{section}.{key} must be >= {minimum}, got {value}")
    return value


def _get_float(raw: dict, section: str, key: str, default=None, positive=False):
    if key not in raw:
        return default
    text = raw[key]
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # reported below
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be a finite number, got {text!r}")
    if positive and value <= 0.0:
        raise ConfigError(f"{section}.{key} must be positive, got {value}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate INI config text, filling documented defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    sections = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{name}]{_nearest(name, _SECTIONS)}"
            )
        sections[name] = dict(parser.items(name))
    for name, keys in sections.items():
        for key in keys:
            if key not in _KEYS[name]:
                raise ConfigError(
                    f"unknown key {key!r} in [{name}]{_nearest(key, _KEYS[name])}"
                )

    problem = sections.get("problem", {})
    scheme = sections.get("scheme", {})
    time_sec = sections.get("time", {})
    output = sections.get("output", {})

    example_raw = problem.get("example", "custom").strip().lower()
    if example_raw not in _EXAMPLE_IDS:
        raise ConfigError(
            f"problem.example must be one of 1..4, I..IV or custom, got "
            f"{example_raw!r}"
        )
    example = _EXAMPLE_IDS[example_raw]
    spectral = example in _SPECTRAL_EXAMPLES

    default_boundary = PERIODIC if spectral else DIRICHLET
    boundary = problem.get("boundary", default_boundary).strip().lower()
    if boundary not in (DIRICHLET, PERIODIC):
        raise ConfigError(f"problem.boundary must be dirichlet or periodic, got {boundary!r}")
    if spectral and boundary != PERIODIC:
        raise ConfigError(f"example {example} is spectral and needs a periodic grid")

    if "extent" in problem:
        extent = _parse_extent(problem["extent"])
    else:
        extent = ((-16.0, 16.0),) if boundary == PERIODIC else ((0.0, 1.0),)
    default_points = "256" if boundary == PERIODIC else "512"
    points_text = problem.get("points", default_points)
    try:
        points = tuple(int(p.strip()) for p in points_text.split(","))
    except ValueError:
        raise ConfigError(f"problem.points must be integers, got {points_text!r}") from None
    if len(points) != len(extent):
        raise ConfigError(
            f"problem.points lists {len(points)} axes but extent lists {len(extent)}"
        )
    if any(p < 4 for p in points):
        raise ConfigError("problem.points needs at least 4 points per axis")

    if spectral:
        for coeff in ("a", "b"):
            if coeff in problem:
                raise ConfigError(
                    f"problem.{coeff} is not used by example {example} "
                    "(spectral symbol operator)"
                )
        a = b = None
    else:
        a = problem.get("a", "1").strip()
        b = problem.get("b", "0").strip()
        compile_field(a, _field_variables(len(extent)))
        compile_field(b, _field_variables(len(extent)))

    default_nonlinearity = " + ".join(EXAMPLE_TERMS.get(example, ())) or "none"
    nonlinearity = problem.get("nonlinearity", default_nonlinearity).strip()
    _parse_nonlinearity(nonlinearity)

    exact = problem.get("exact")
    exact_dt = problem.get("exact_dt")
    if (exact is None) != (exact_dt is None):
        raise ConfigError("problem.exact and problem.exact_dt must be given together")
    if exact is not None:
        exact = exact.strip()
        exact_dt = exact_dt.strip()
        compile_field(exact, _field_variables(len(extent)))
        compile_field(exact_dt, _field_variables(len(extent)))

    if "k" not in scheme:
        raise ConfigError("scheme.k is required")
    k = _get_int(scheme, "scheme", "k")
    if not 1 <= k <= MAX_STEP_NUMBER:
        raise ConfigError(f"scheme.k must be an integer in 1..{MAX_STEP_NUMBER}, got {k}")

    tau = _get_float(time_sec, "time", "tau", positive=True)
    steps = _get_int(time_sec, "time", "steps", minimum=1)
    final_time = _get_float(time_sec, "time", "final_time", positive=True)
    tau0 = _get_float(time_sec, "time", "tau0", positive=True)
    levels = _get_int(time_sec, "time", "levels", default=5, minimum=3)

    path = output.get("path", "out").strip()
    if not path:
        raise ConfigError("output.path must not be empty")
    norms = output.get("norms", "linf,l2").strip()
    for token in norms.split(","):
        parse_norm_token(token)
    stride = _get_int(output, "output", "stride", default=1, minimum=1)
    seed = _get_int(output, "output", "seed", default=DEFAULT_SEED, minimum=0)

    return RunConfig(
        example=example,
        boundary=boundary,
        extent=extent,
        points=points,
        a=a,
        b=b,
        nonlinearity=nonlinearity,
        exact=exact,
        exact_dt=exact_dt,
        k=k,
        tau=tau,
        steps=steps,
        final_time=final_time,
        tau0=tau0,
        levels=levels,
        path=path,
        norms=norms,
        stride=stride,
        seed=seed,
    )


def override(cfg: RunConfig, **updates) -> RunConfig:
    """Apply command-line overrides and re-validate the result."""
    updates = {k: v for k, v in updates.items() if v is not None}
    if not updates:
        return cfg
    candidate = replace(cfg, **updates)
    return parse_config(candidate.to_text())


def _parse_nonlinearity(text: str) -> list[tuple[float, str]]:
    """(coefficient, registry id) pairs of ``c*name + ...``; [] for none."""
    if text == "none":
        return []
    parts = []
    for part in text.split("+"):
        coeff_text, star, name = part.partition("*")
        if not star:
            coeff_text, name = "1", part
        try:
            coeff = float(coeff_text)
        except ValueError:
            coeff = math.nan  # reported below
        if not math.isfinite(coeff):
            raise ConfigError(
                f"bad coefficient {coeff_text.strip()!r} in nonlinearity {text!r}"
            )
        name = name.strip()
        if name == "none":
            raise ConfigError("'none' cannot appear inside a nonlinearity sum")
        if name not in NONLINEARITY_REGISTRY:
            raise ConfigError(
                f"unknown nonlinearity {name!r}"
                f"{_nearest(name, NONLINEARITY_REGISTRY)}"
            )
        parts.append((coeff, name))
    return parts


def build_nonlinearity(text: str, grid: Grid):
    """Instantiate a registry id or a weighted sum of ids on a grid."""
    return build_explicit_term(grid, _parse_nonlinearity(text))


@dataclass
class BuiltProblem:
    """Everything a subcommand needs, assembled from one config."""

    grid: Grid
    operator: object
    nonlinear: object | None
    manufactured: ManufacturedProblem | None = None

    def require_manufactured(self) -> ManufacturedProblem:
        if self.manufactured is None:
            raise ConfigError(
                "this command needs problem.exact and problem.exact_dt "
                "(a manufactured solution)"
            )
        return self.manufactured


def _state_evaluator(expr: FieldExpr, grid: Grid):
    field = expr.at(*grid.meshes())

    @np.errstate(all="ignore")  # an inf or NaN state is reported by the guard that reads it
    def evaluate(t: float) -> np.ndarray:
        out = np.empty(grid.shape, dtype=complex)
        out[...] = field(t)  # scalars broadcast
        return out

    return evaluate


def build_problem(cfg: RunConfig) -> BuiltProblem:
    """Assemble grid, operator, nonlinearity and manufactured solution."""
    grid = Grid(cfg.extent, cfg.points, cfg.boundary)
    variables = _field_variables(grid.ndim)
    if cfg.example == "3":
        operator, _ = assemble_example3(grid)
    elif cfg.example == "4":
        operator, _ = assemble_example4(grid)
    else:
        a_expr = compile_field(cfg.a, variables)
        b_expr = compile_field(cfg.b, variables)
        autonomous = not (a_expr.time_dependent or b_expr.time_dependent)
        operator = SparseDiffusionOperator(grid, a_expr, b_expr, autonomous=autonomous)
    term = build_nonlinearity(cfg.nonlinearity, grid)
    if cfg.exact is None:
        return BuiltProblem(grid, operator, term)
    exact = _state_evaluator(compile_field(cfg.exact, variables), grid)
    exact_dt = _state_evaluator(compile_field(cfg.exact_dt, variables), grid)
    manufactured = ManufacturedProblem(grid, operator, term, exact, exact_dt)
    return BuiltProblem(grid, operator, term, manufactured)
