"""The benchmark tracer finds every function and method it wraps.

``perfbench/tracing.py`` looks each traced name up on its home module, so a
deleted or renamed function would break traced benchmark runs.  This test
reads the tracer's tables and leaves the file unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import simplexgeo.cli  # noqa: F401 - loads every module the tracer patches

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracing = _load_tracing()
    home = {module: sys.modules[f"simplexgeo.{module}"] for module in tracing.TRACED}
    functions = {
        (module, name): getattr(home[module], name)
        for module, names in tracing.TRACED.items()
        for name in names
    }
    classes = {
        metric: (getattr(sys.modules[f"simplexgeo.{module}"], cls), method)
        for metric, (module, cls, method) in tracing.COUNTED.items()
    }
    methods = {metric: cls.__dict__[method] for metric, (cls, method) in classes.items()}
    assert len(methods) == 2

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, name), original in functions.items():
            assert getattr(home[module], name).__wrapped__ is original, f"{module}.{name}"
        for metric, (cls, method) in classes.items():
            assert cls.__dict__[method].__wrapped__ is methods[metric], metric
    finally:
        tracer.uninstall()

    for (module, name), original in functions.items():
        assert getattr(home[module], name) is original, f"{module}.{name}"
    for metric, (cls, method) in classes.items():
        assert cls.__dict__[method] is methods[metric], metric
