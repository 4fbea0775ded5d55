"""Scaling benchmark: pipeline wall time per stage on synthetic stable systems."""

import time

import numpy as np

from .errors import ResourceRefusal
from .models import random_stable_poly
from .pipeline import balance

__all__ = ["estimate_bytes", "run_bench"]

STAGES = ("energy", "inod", "balance", "realization")
BUDGET_BYTES = 8 << 30  # a size whose estimate_bytes exceeds 8 GiB is refused
SYS_DEGREE = 2  # every benchmark system is quadratic


def estimate_bytes(n, d_energy):
    """Rough peak-memory estimate for one pipeline run (dense coefficients)."""
    return 40 * 8 * n ** d_energy


def run_bench(sizes, d_energy=3, repetitions=1, seed=0):
    """Time the pipeline stages on random systems of the given state dimensions.

    Repetition ``rep`` at size n balances ``random_stable_poly(n, 2, seed +
    rep)``.  A size whose :func:`estimate_bytes` exceeds the fixed 8 GiB
    budget raises :class:`~nlbt.errors.ResourceRefusal` before any system of
    that size is drawn.  ``d_energy`` is the energy-function degree; the
    transform and ROM degree is one less, following the benchmark convention
    of reporting complexity against the energy degree.  Each repetition runs
    :func:`~nlbt.pipeline.balance`, whose ``stage_s`` gives the ``energy``,
    ``inod`` and ``balance`` seconds, and times
    :meth:`~nlbt.pipeline.BalancedPipeline.realize` (the full balanced
    realization, with all n rows of the series inverse) as ``realization``.
    Every degree of both energies is one solve of the Schur-form k-way
    Lyapunov solver, so one algorithm is timed across all sizes.  Returns a
    list of row dicts with per-stage seconds (mean over repetitions) plus
    their variance; ``total`` is the sum of the four stage means.  Raises
    ``ValueError`` for ``repetitions < 1``.
    """
    if d_energy < 2:
        raise ValueError("energy degree must be at least 2")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    d_transf = max(d_energy - 1, 1)
    rows = []
    for n in sizes:
        est = estimate_bytes(n, d_energy)
        if est > BUDGET_BYTES:
            raise ResourceRefusal(
                f"n={n}, d={d_energy} needs roughly {est / 2**30:.1f} GiB "
                f"(> budget {BUDGET_BYTES / 2**30:.1f} GiB)"
            )
        per_stage = {s: [] for s in STAGES}
        for rep in range(repetitions):
            sys = random_stable_poly(n, SYS_DEGREE, seed=seed + rep)
            pl = balance(sys, d_transf)
            t0 = time.perf_counter()
            pl.realize()
            stage_s = dict(pl.stage_s, realization=time.perf_counter() - t0)
            for s in STAGES:
                per_stage[s].append(stage_s[s])
        row = {"n": n}
        total = 0.0
        for s in STAGES:
            vals = np.asarray(per_stage[s])
            row[s] = float(vals.mean())
            row[s + "_var"] = float(vals.var())
            total += row[s]
        row["total"] = total
        rows.append(row)
    return rows


def loglog_slope(rows, column="total"):
    """Least-squares slope of log(time) against log(n)."""
    ns = np.array([r["n"] for r in rows], dtype=float)
    ts = np.array([r[column] for r in rows], dtype=float)
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
