"""The traced benchmark run binds every layer hook it names.

``perfbench/tracing.py`` wraps functions and methods of the package by
name.  A rename in the package would otherwise surface only in the traced
run (``python3 perfbench/suite.py --trace 1``), which no test executes.
"""

import importlib
import importlib.util
from pathlib import Path

import mstwell.cli  # noqa: F401  (loads every module the tracer binds into)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_binds_and_uninstalls():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    targets = [(m, cls, attr) for m, cls, attr, _, _ in tracing.METHODS]
    targets += [(m, cls, attr) for m, cls, attr, _ in tracing.CALL_COUNTS]
    originals = {
        key: getattr(importlib.import_module(key[0]), key[1]).__dict__[key[2]]
        for key in targets
    }
    tracer.install()
    try:
        for _, _, name, _ in tracing.FUNCTIONS:
            assert tracer.bindings[name] >= 1, f"{name} is bound in no module"
        for _, _, _, name, _ in tracing.METHODS:
            assert tracer.bindings[name] >= 1
        for key, orig in originals.items():
            wrapped = getattr(importlib.import_module(key[0]), key[1]).__dict__[key[2]]
            assert wrapped is not orig, f"{key} is not wrapped"
    finally:
        tracer.uninstall()
    for key, orig in originals.items():
        assert getattr(importlib.import_module(key[0]), key[1]).__dict__[key[2]] is orig
    for mod_name, attr, _, _ in tracing.FUNCTIONS:
        fn = getattr(importlib.import_module(mod_name), attr)
        assert fn.__module__ == mod_name, f"{mod_name}.{attr} left wrapped"
