"""The benchmark under ``benchmarks/`` reaches into the package by name:
its tracer wraps the functions and methods that ``spans.py`` names, and
``run.py`` imports library names directly. A deleted or moved name
breaks the benchmark, or leaves a counter silently at zero, so every
such name must still resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans")


def _unresolved_span(name):
    """Why the span ``<module>.<function>`` or ``<module>.<Class>.<method>``
    cannot be traced, or None if it can."""
    module_name, *attrs = name.split(".")
    obj = importlib.import_module(f"{SPANS.PACKAGE}.{module_name}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return f"{name}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    # the tracer names a function's span after the module that defines it
    if len(attrs) == 1 and obj.__module__ != f"{SPANS.PACKAGE}.{module_name}":
        return f"{name}: defined in {obj.__module__}"
    return None


def test_every_traced_name_resolves():
    names = set(SPANS._HOOKS) | {".".join(entry) for entry in SPANS.METHODS}
    for group in (SPANS.FIT_SPANS, SPANS.SCORES_SPANS, SPANS.MC_SPANS, SPANS.COVER_SPANS,
                  SPANS.CSV_SPANS):
        names |= group
    problems = [p for p in map(_unresolved_span, sorted(names)) if p is not None]
    assert problems == []


def test_every_name_run_imports_resolves():
    imported = []
    for node in ast.walk(ast.parse((BENCHMARKS / "run.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "metamargin":
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "metamargin"]
    assert imported, "run.py imports nothing from metamargin"
    # a missing module raises here; a missing name is listed
    missing = [f"{module}.{name}" for module, name in imported
               if not (name is None or hasattr(importlib.import_module(module), name))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_own_class():
    # the tracer wraps ``cls.__dict__[method]``: an inherited method passes
    # hasattr but raises KeyError when a traced run installs its spans
    problems = []
    for module_name, class_name, method in SPANS.METHODS:
        cls = getattr(importlib.import_module(f"{SPANS.PACKAGE}.{module_name}"), class_name)
        if method not in vars(cls):
            problems.append(f"{module_name}.{class_name}.{method}: not in {class_name}.__dict__")
    assert problems == []
