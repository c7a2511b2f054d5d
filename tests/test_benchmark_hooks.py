"""The benchmark's tracing hooks (perfbench/spans.py) still fit the library.

spans.py replaces ntkuq functions by name in the modules that call them, so
a function renamed, moved or no longer imported by a caller would break the
benchmark's per-layer metrics. The file is compiled from its source and
never imported, so nothing is written under perfbench/.
"""

import importlib
import os
import types

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")


@pytest.fixture
def spans():
    module = types.ModuleType("perfbench_spans")
    with open(SPANS) as f:
        exec(compile(f.read(), SPANS, "exec"), module.__dict__)
    return module


def _installed(wrapped):
    return {
        (name, func): getattr(importlib.import_module("ntkuq." + name), func)
        for _, func, modules in wrapped
        for name in modules
    }


def test_every_wrapped_name_is_the_library_function_in_each_module(spans):
    for layer, func, modules in spans.WRAPPED:
        original = getattr(importlib.import_module("ntkuq." + layer), func)
        for name in modules:
            assert getattr(importlib.import_module("ntkuq." + name), func, None) is original, (
                "ntkuq.%s.%s" % (name, func)
            )


def test_install_then_uninstall_restores_every_original(spans):
    before = _installed(spans.WRAPPED)
    tracer = spans.Tracer(run_id=0)
    tracer.install()
    try:
        during = _installed(spans.WRAPPED)
    finally:
        tracer.uninstall()
    assert all(during[key] is not before[key] for key in before)
    after = _installed(spans.WRAPPED)
    assert all(after[key] is before[key] for key in before)
