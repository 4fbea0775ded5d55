"""The names the benchmark's span tracer wraps must exist in ``nlbt``.

``perfbench/spans.py`` replaces module attributes at call time and records a
missing one as an absent span instead of failing, so a renamed or deleted
stage function would otherwise only show up in a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(mod, attr) for mod, attr, *_ in spans.WRAPPED] + [("nlbt.sim", "simulate_system")]
    return [pytest.param(mod, attr, id=f"{mod}.{attr}") for mod, attr in names]


@pytest.mark.parametrize("mod_name, attr", _wrapped_names())
def test_wrapped_name_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr, None))
