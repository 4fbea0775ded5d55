"""Tests of the benchmark itself: metric names, failure counting, trace shape.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import re
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import nlbt  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nlbt import models  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_metric_names_follow_grammar():
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.END_TO_END) + list(run.PER_LAYER)
    bad = [n for n in names if not NAME.match(n)]
    assert not bad, f"names outside the grammar: {bad}"
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.match(u) for u in units)


def test_benchmark_json_matches_runner():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert len({m["name"] for m in spec["end_to_end"] + spec["per_layer"]}) == (
        len(run.END_TO_END) + len(run.PER_LAYER)
    )


@pytest.fixture(scope="module")
def zoo(tmp_path_factory):
    return workloads.ZooSmall(seed=3, workdir=tmp_path_factory.mktemp("zoo"))


def test_failing_check_raises_failed_frac(zoo, monkeypatch):
    m = run.Measurement()
    m.window(zoo, 0, 0.0, zoo.op, min_ops=len(zoo.cases))
    assert m.failed == 0 and m.ok_frac == 1.0

    real_load = nlbt.load_system

    def corrupt_load(path):
        sys = real_load(path)
        W = sys.f.terms[1].copy()
        W[0, 0] += 1e-12
        return nlbt.ControlAffineSystem(nlbt.PolyMap({1: W}, sys.n), sys.g, sys.h)

    monkeypatch.setattr(nlbt, "load_system", corrupt_load)
    bad = run.Measurement()
    bad.window(zoo, 0, 0.0, zoo.op, min_ops=2)
    assert bad.failed == 2 and bad.ok_frac == 0.0
    assert "save/load" in bad.problems[0]


def test_raising_op_counts_as_failed(zoo):
    def boom(i):
        raise nlbt.BalancingError("injected")

    m = run.Measurement()
    m.window(zoo, 0, 0.0, boom, min_ops=1)
    assert m.failed == m.attempted > 0 and m.ok_frac == 0.0


def test_self_times_sum_within_op_wall_time(zoo):
    tracer = Tracer("time")
    with tracer:
        for i in range(len(zoo.cases)):
            tracer.run_op(i, zoo.op, i)
    spans = {s[0]: s for s in tracer.spans}
    roots = {s[2]: s[6] - s[5] for s in tracer.spans if s[3] == ROOT}
    assert len(roots) == len(zoo.cases)
    per_op = {}
    for sid, op, name, layer, self_s in tracer.self_times():
        assert self_s >= -1e-9, name
        if layer is not None:
            per_op[op] = per_op.get(op, 0.0) + self_s
            parent = spans[sid][1]
            assert parent is not None and spans[parent][2] == op
    for op, wall in roots.items():
        assert 0.0 < per_op[op] <= wall + 1e-9
    assert not tracer.absent


@pytest.mark.parametrize("label, d", [("beam", 2), ("pendulum:5", 3)])
def test_wrapping_keeps_balance_bit_identical(label, d):
    sys = models.by_name(label)

    def outputs():
        pl = nlbt.balance(sys, d)
        rom = pl.reduce(2)
        maps = [pl.Tbar, pl.P, rom.sys.f, rom.sys.h, *rom.sys.g]
        arrays = [pl.hankel, pl.sq_sv.coeffs, *pl.Ec.coeffs.values(), *pl.Eo.coeffs.values()]
        return arrays + [W for pm in maps for W in pm.terms.values()]

    plain = outputs()
    tracer = Tracer("time")
    with tracer:
        traced = tracer.run_op(0, outputs)
    assert tracer.spans and len(plain) == len(traced)
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    # uninstalling restores the original functions
    assert not hasattr(nlbt.pipeline.solve_controllability_energy, "__wrapped__")


def test_missing_stage_is_an_absent_span(monkeypatch):
    monkeypatch.delattr(nlbt.realization, "balanced_output")
    tracer = Tracer("time")
    with tracer:
        pass
    assert tracer.absent == ["nlbt.realization.balanced_output"]
