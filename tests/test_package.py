"""Package export surface and module layout."""

import importlib
import pkgutil

import imexbdf
from imexbdf.operators import LinearOperator


def test_star_import_exports_every_listed_name_once():
    namespace = {}
    exec("from imexbdf import *", namespace)
    assert len(set(imexbdf.__all__)) == len(imexbdf.__all__)
    assert [name for name in imexbdf.__all__ if name not in namespace] == []


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
