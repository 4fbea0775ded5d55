"""Scaling benchmark: pipeline wall time per stage on synthetic stable systems."""

import time

import numpy as np

from .errors import ResourceRefusal
from .inod import compute_inod_transform
from .models import random_stable_poly
from .energy import solve_controllability_energy, solve_observability_energy
from .realization import balanced_system, inverse_transform_coeffs
from .scaling import assemble_scaling_coeffs, compose_balancing, scaling_series_for

__all__ = ["estimate_bytes", "run_bench"]

STAGES = ("energy", "inod", "balance", "realization")


def estimate_bytes(n, d_energy):
    """Rough peak-memory estimate for one pipeline run (dense coefficients)."""
    return 40 * 8 * n ** d_energy


def run_bench(sizes, d_energy=3, repetitions=1, seed=0, budget_bytes=8 << 30, sys_degree=2):
    """Time the pipeline stages on random systems of the given state dimensions.

    ``d_energy`` is the energy-function degree; the transform and ROM degree
    is one less, following the benchmark convention of reporting complexity
    against the energy degree.  Every degree of both energies is one solve
    of the Schur-form k-way Lyapunov solver, so one algorithm is timed
    across all sizes.  Returns a list of row dicts with per-stage seconds
    (mean over repetitions) plus their variance.
    """
    if d_energy < 2:
        raise ValueError("energy degree must be at least 2")
    d_transf = max(d_energy - 1, 1)
    rows = []
    for n in sizes:
        est = estimate_bytes(n, d_energy)
        if est > budget_bytes:
            raise ResourceRefusal(
                f"n={n}, d={d_energy} needs roughly {est / 2**30:.1f} GiB "
                f"(> budget {budget_bytes / 2**30:.1f} GiB)"
            )
        per_stage = {s: [] for s in STAGES}
        for rep in range(repetitions):
            sys = random_stable_poly(n, sys_degree, seed=seed + rep)
            t0 = time.perf_counter()
            Ec = solve_controllability_energy(sys, d_energy)
            Eo = solve_observability_energy(sys, d_energy)
            t1 = time.perf_counter()
            inod = compute_inod_transform(Ec, Eo, d_transf)
            t2 = time.perf_counter()
            A_series = scaling_series_for(inod.sq_sv, d_transf)
            scaling_map = assemble_scaling_coeffs(A_series, n, d_transf)
            Tbar = compose_balancing(inod.transform, scaling_map, d_transf)
            Tbar1_inv = (1.0 / A_series[:, 1])[:, None] * inod.t1_inverse
            inverse_transform_coeffs(Tbar, Tbar1_inv, d_transf)
            t3 = time.perf_counter()
            balanced_system(sys, Tbar, Tbar1_inv, d_transf)
            t4 = time.perf_counter()
            for s, dt in zip(STAGES, np.diff([t0, t1, t2, t3, t4])):
                per_stage[s].append(dt)
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
