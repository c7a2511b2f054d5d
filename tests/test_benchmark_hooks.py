"""The benchmark's tracing hooks (perfbench/spans.py) and its copy of the
GD-map fallback (perfbench/workloads.py) still fit the library.

spans.py replaces ntkuq functions by name in the modules that call them, so
a function renamed, moved or no longer imported by a caller would break the
benchmark's per-layer metrics. Both files are read from their source and
never imported, so nothing is written under perfbench/.
"""

import ast
import importlib
import os
import types

import pytest

from ntkuq import EarlyStopPolicy

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


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


def test_workloads_gd_max_steps_is_the_fallback_policy():
    # record_refs.py checks that iterative cells ran GD_MAX_STEPS steps, so the
    # constant must follow the policy run_plan runs.
    with open(WORKLOADS) as f:
        tree = ast.parse(f.read(), WORKLOADS)
    values = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["GD_MAX_STEPS"]
    ]
    assert values == [EarlyStopPolicy().max_steps]
