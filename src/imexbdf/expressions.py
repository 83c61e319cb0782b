"""Tiny arithmetic expression compiler for config fields.

Coefficient and solution fields in config files are plain arithmetic
over the grid coordinates and time, e.g. ``1 + 0.5*sin(x)*cos(t)``.
The grammar is a strict whitelist over the Python expression syntax:
the declared variables (``x``, ``y``, ``t``), the constants ``pi`` and
``e``, the functions ``sin``, ``cos``, ``exp``, ``abs``, and the
operators ``+ - * / **`` and unary ``+ -``.  Anything else is rejected
at parse time with the offending position, so config files cannot
smuggle arbitrary code.  Compiled fields evaluate elementwise over
numpy arrays.

``FieldExpr.at(*coords)`` returns the field on fixed coordinates as a
function of t, bit-identical to ``field(*coords, t)``: each maximal
t-free subtree other than a bare name or constant is evaluated once and
held read-only, with no reassociation; a t-free field returns its one
read-only array.  Fields evaluate with numpy's floating-point warnings
silenced: a field that is inf or NaN on the grid is reported by the
guards of the code that reads it, not also as a ``RuntimeWarning``;
the function ``at`` returns leaves that to its caller.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)
_QUIET = np.errstate(all="ignore")  # as a decorator, reentrant and per thread


@dataclass(frozen=True)
class FieldExpr:
    """A compiled scalar field of the grid coordinates and time."""

    text: str
    variables: tuple[str, ...]
    names_used: frozenset[str]
    _code: object

    @_QUIET
    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise ConfigError(
                f"field {self.text!r} takes {self.variables}, got {len(args)} values"
            )
        scope = {**dict(zip(self.variables, args)), **_CONSTANTS, **_FUNCTIONS, "__builtins__": {}}
        return eval(self._code, scope)  # noqa: S307 - tree was whitelisted

    @_QUIET
    def at(self, *coords):
        """This field on fixed space coordinates, as a function of t."""
        space = [v for v in self.variables if v != "t"]
        scope = {**dict(zip(space, coords)), **_CONSTANTS, **_FUNCTIONS, "__builtins__": {}}
        bound = ast.parse("lambda t: t", mode="eval")
        bound.body.body = _hoist(ast.parse(self.text, mode="eval").body, scope, root=True)
        return eval(compile(bound, "<field>", "eval"), scope)  # noqa: S307 - whitelisted

    @property
    def time_dependent(self) -> bool:
        return "t" in self.names_used


def _hoist(node: ast.expr, scope: dict, root: bool = False) -> ast.expr:
    """``node`` with its maximal t-free subtrees evaluated into ``scope``."""
    if any(isinstance(n, ast.Name) and n.id == "t" for n in ast.walk(node)):
        for field, child in ast.iter_fields(node):
            if isinstance(child, list):  # a call's arguments
                setattr(node, field, [_hoist(arg, scope) for arg in child])
            elif isinstance(child, ast.expr):
                setattr(node, field, _hoist(child, scope))
        return node
    if isinstance(node, (ast.Name, ast.Constant)) and not root:
        return node
    value = eval(compile(ast.Expression(node), "<field>", "eval"), scope)  # noqa: S307
    if isinstance(value, np.ndarray):
        value = value.view()  # the caller's coordinates keep their flags
        value.flags.writeable = False
    name = f"_{len(scope)}"  # no field can name it
    scope[name] = value
    return ast.copy_location(ast.Name(name, ast.Load()), node)


def _reject(node: ast.AST, text: str, reason: str):
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    raise ConfigError(f"bad expression {text!r} at line {line}, column {col}: {reason}")


def _validate(node: ast.AST, text: str, variables: tuple[str, ...], used: set):
    if isinstance(node, ast.Expression):
        _validate(node.body, text, variables, used)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            _reject(node, text, f"constant {node.value!r} is not a number")
    elif isinstance(node, ast.Name):
        if node.id in variables or node.id in _CONSTANTS:
            used.add(node.id)
        else:
            allowed = ", ".join([*variables, *_CONSTANTS])
            _reject(node, text, f"unknown name {node.id!r} (allowed: {allowed})")
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINOPS):
            _reject(node, text, f"operator {type(node.op).__name__} not allowed")
        _validate(node.left, text, variables, used)
        _validate(node.right, text, variables, used)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARYOPS):
            _reject(node, text, f"operator {type(node.op).__name__} not allowed")
        _validate(node.operand, text, variables, used)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            _reject(node, text, f"only {sorted(_FUNCTIONS)} may be called")
        if node.keywords or len(node.args) != 1:
            _reject(node, text, "functions take exactly one positional argument")
        used.add(node.func.id)
        _validate(node.args[0], text, variables, used)
    else:
        _reject(node, text, f"syntax {type(node).__name__} not allowed")


def compile_field(text: str, variables: tuple[str, ...] = ("x", "t")) -> FieldExpr:
    """Compile an expression string into an elementwise field function."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("empty expression")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(
            f"bad expression {text!r} at line {exc.lineno}, column {exc.offset}: "
            f"{exc.msg}"
        ) from None
    used: set = set()
    _validate(tree, text, variables, used)
    return FieldExpr(text, tuple(variables), frozenset(used), compile(tree, "<field>", "eval"))
