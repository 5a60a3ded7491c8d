"""The benchmark's tracer finds eulercert's layers by name.

``perfbench/spans.py`` lists the helpers it wraps; a wrap point whose name
no longer resolves is reported as an absent span rather than as an error,
so renaming a helper would silently empty a per-layer metric.  These tests
read that list (without changing it) and check every name against the
package.
"""

import dataclasses
import importlib
import importlib.util
import os

import pytest

from eulercert.fields import SolutionPair

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = _load_spans()


@pytest.mark.parametrize("point", SPANS.WRAP_POINTS, ids=lambda p: f"{p.module}.{p.attr}")
def test_wrap_point_resolves(point):
    target = importlib.import_module(f"{SPANS.PACKAGE}.{point.module}")
    for name in point.attr.split("."):
        target = getattr(target, name)
    assert callable(target)


def test_solution_callables_are_pair_fields():
    names = {f.name for f in dataclasses.fields(SolutionPair)}
    assert {fieldname for fieldname, _ in SPANS.SOLUTION_CALLABLES} <= names
