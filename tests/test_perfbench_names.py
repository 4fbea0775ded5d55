"""The names the benchmark's span tracer wraps must exist in ``nlbt`` and be called.

``perfbench/spans.py`` replaces module attributes at call time and records a
missing one as an absent span instead of failing, so a renamed or deleted
stage function would otherwise only show up in a traced benchmark run.  A
name that resolves but is no longer called through that module attribute
(a stage inlined, or called from another module) drops its span the same
way, so the pipeline's, realization's and energy's names are also checked
to be called by a balancing run.
"""

import functools
import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# the modules whose wrapped names one balance, reduce and P must call
PIPELINE_MODULES = ("nlbt.pipeline", "nlbt.realization", "nlbt.energy")


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, *_ in spans.WRAPPED]


def _wrapped_names():
    names = _wrapped() + [("nlbt.sim", "simulate_system")]
    return [pytest.param(mod, attr, id=f"{mod}.{attr}") for mod, attr in names]


@pytest.mark.parametrize("mod_name, attr", _wrapped_names())
def test_wrapped_name_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr, None))


def test_pipeline_calls_every_wrapped_name(monkeypatch):
    from nlbt import models
    from nlbt.pipeline import balance

    calls = {}

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod_name, attr in _wrapped():
        if mod_name in PIPELINE_MODULES:
            key = f"{mod_name}.{attr}"
            calls[key] = 0
            mod = importlib.import_module(mod_name)
            monkeypatch.setattr(mod, attr, counting(key, getattr(mod, attr)))
    assert len(calls) >= 12
    pl = balance(models.pendulum(3), 3)
    pl.reduce(1)
    pl.P
    assert [key for key, count in calls.items() if count == 0] == []
