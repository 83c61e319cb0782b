"""Package export surface and module layout."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import types

import imexbdf
from imexbdf import (
    bdf_coeffs,
    convergence_harness,
    expressions,
    imex_stepper,
    operators,
    reports,
    stability,
)
from imexbdf.operators import LinearOperator


def test_star_import_exports_every_listed_name_once():
    namespace = {}
    exec("from imexbdf import *", namespace)
    assert len(set(imexbdf.__all__)) == len(imexbdf.__all__)
    assert [name for name in imexbdf.__all__ if name not in namespace] == []


def test_exports_hold_no_module_and_no_private_name():
    values = {name: getattr(imexbdf, name) for name in imexbdf.__all__}
    assert [name for name, value in values.items() if isinstance(value, types.ModuleType)] == []
    assert [name for name in values if name.startswith("_")] == ["__version__"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_linear_operator_lives_in_operators():
    for info in pkgutil.iter_modules(imexbdf.__path__):
        importlib.import_module(f"imexbdf.{info.name}")
    defined = [c for c in _subclasses(LinearOperator) if c.__module__.split(".")[0] == "imexbdf"]
    assert defined
    assert [c.__qualname__ for c in defined if c.__module__ != "imexbdf.operators"] == []


def test_modules_import_only_from_the_layers_below_their_own():
    # the layers are the indented lines of the package docstring, bottom first
    lines = [line for line in imexbdf.__doc__.splitlines() if line.startswith("    ")]
    rank = {name.strip(): i for i, line in enumerate(lines) for name in line.split(",")}
    src = pathlib.Path(imexbdf.__file__).parent
    assert set(rank) == {path.stem for path in src.glob("*.py")} - {"__init__"}
    upward = []
    for name in sorted(rank):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                upward += [(name, t) for t in targets if rank[t] >= rank[name]]
    assert upward == []


def test_the_benchmark_tracer_finds_its_hooks():
    # perfbench's tracer wraps these by name, as functions defined in
    # their module or in their class's own dict; a rename would zero its
    # layer metrics, or fail its own tests, outside this suite
    hooks = [
        (operators.SparseDiffusionOperator, "shifted_solve"),
        (imex_stepper, "imex_step"),
        (imex_stepper, "run"),
        (convergence_harness.ManufacturedProblem, "forcing"),
        (convergence_harness, "convergence_study"),
        (stability, "a_alpha_angle"),
        (stability, "von_neumann_sweep"),
        (expressions.FieldExpr, "__call__"),
        (reports, "write_csv"),
        (reports, "write_json"),
        (bdf_coeffs, "bdf_scheme"),
    ]
    missing = []
    for owner, name in hooks:
        fn = vars(owner).get(name)
        home = getattr(owner, "__module__", owner.__name__)  # a module's own name
        if not (inspect.isfunction(fn) and fn.__module__ == home):
            missing.append(f"{owner.__name__}.{name}")
    assert missing == []
