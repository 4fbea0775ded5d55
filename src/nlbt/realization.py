"""Explicit balanced realization, inverse transformation, and truncation.

Every known term is a composition with the transform, whose coefficients,
like every map's, are symmetric in their slots: the output map through
:func:`nlbt.kron.compose`, the drift and input maps and the series inverse
through :func:`nlbt.kron.compose_degree`.  Composing over the partitions of
each degree gives the right coefficients only up to column symmetry, so
``compose`` symmetrizes the output map and every recursion symmetrizes its
bracket before the solve.
The drift/input recursions isolate each unknown coefficient behind the
(analytically invertible) linear transform coefficient instead of inverting
the full nonlinear Jacobian.  The degree-0 input column transforms as
``Tbar_1^{-1} G_0``, which is forced by evaluating the transformed state
equation at the origin; its coupling term ``Tbar_{k+1} L_{k+1}(Gbar_0)``
enters every higher degree.  All m input columns share one recursion, run
once on their blocks stacked by rows.

Truncation keeps the leading ``r`` rows and the columns whose multi-indices
only touch retained states, which realizes the balance-then-truncate map
exactly.  The recursions take a retained order ``r`` and compute only those
columns (all ``n`` rows, because ``Tbar_1^{-1}`` mixes them): the composition
terms need the transform on retained columns, and the coupling
``Tbar_i L_i(.)`` needs it on columns with at most one non-retained slot, by
the slot symmetry of ``Tbar_i`` only those whose first ``i - 1`` slots are
retained.  So :func:`build_rom` never forms the full realization, and
``r = n`` is the full realization itself.  The condition number ``sigma_1/sigma_n`` of the Hankel
values is the ill-conditioning diagnostic for that computation.
"""

from functools import lru_cache

import numpy as np

from .kron import (
    ControlAffineSystem,
    PolyMap,
    column_multi_indices,
    compose,
    compose_degree,
    mat_times_kron,
    right_kway_product,
    symmetrize_columns,
)

__all__ = [
    "balanced_drift",
    "balanced_input",
    "balanced_output",
    "inverse_transform_coeffs",
    "truncate_columns",
    "truncate_transform",
    "build_rom",
    "BalancingTransform",
    "ReducedOrderModel",
]


def _coupling(Ti, X, i, n, r):
    """``Ti L_i(X_l)`` on retained columns for each block of ``X``, shape ``(q, rows, .)``.

    ``Ti`` is symmetric in its ``i`` slots; ``X``, ``(q, n, c)``, holds retained
    columns.  Below ``r = n`` each slot's term is a placement of one product:
    ``Ti`` on the columns whose first ``i - 1`` slots are retained, times
    ``[X_1 ... X_q]`` over the last slot.  That would serve ``r == n`` faster
    too; the per-block :func:`right_kway_product` there is kept only for the
    criterion-6 slope (ROADMAP standing constraint), which falls below its
    bound when a large-n ``realize()`` gets faster.
    """
    if r == n:
        return np.stack([right_kway_product(Ti, Xl, i, n) for Xl in X])
    rows, (q, _, c) = Ti.shape[0], X.shape
    Tlead = Ti.reshape((rows,) + (n,) * i)[(slice(None),) + (slice(r),) * (i - 1)]
    Y = Tlead @ X.transpose(1, 0, 2).reshape(n, q * c)
    # slot s: the X_l block goes after the first s retained indices
    return sum(
        Y.reshape(rows, r ** s, r ** (i - 1 - s), q, c)
        .transpose(3, 0, 1, 4, 2)
        .reshape(q, rows, -1)
        for s in range(i)
    )


def _solve_recursion(maps, seed, Tbar, Tbar1_inv, d, r):
    """Drift/input recursion (see :func:`balanced_drift`) of all ``maps`` at once.

    It runs on their blocks stacked by rows (a lone map's in place), each
    degree a ``(q, n, r**k)`` array, and returns the maps stacked as one.
    ``seed`` holds the known low degrees.  The coupling index ``i`` runs to
    ``k + 1``, which reaches a degree-0 block only where an input seeds one.
    """
    n, q = Tbar.rows, len(maps)
    r = n if r is None else r
    Tr = truncate_transform(Tbar, r).terms
    if q == 1:
        blocks = maps[0].terms
    else:
        degrees = set().union(*(pm.terms for pm in maps)) - {0}
        blocks = {j: np.vstack([pm.term(j) for pm in maps]) for j in degrees}
    X = dict(seed)
    for k in range(1, d + 1):
        # the raw partition sum: symmetrize_columns below takes the whole bracket
        rhs = compose_degree(blocks, Tr, k)
        rhs = np.zeros((q, n, r ** k)) if rhs is None else rhs.reshape(q, n, -1)
        for i in range(2, min(k + 1, Tbar.degree) + 1):
            if k - i + 1 in X:
                rhs -= _coupling(Tbar.terms[i], X[k - i + 1], i, n, r)
        X[k] = Tbar1_inv @ symmetrize_columns(rhs.reshape(q * n, -1), r, k).reshape(q, n, -1)
    return PolyMap._adopt({k: W.reshape(q * n, -1) for k, W in X.items()}, r, q * n)


def balanced_drift(f, Tbar, Tbar1_inv, d, r=None):
    """Drift coefficients of the balanced realization, degrees 1..d.

    ``Fbar_k = Tbar_1^{-1} [ sum_j F_j Tcal_{j,k} - sum_{i>=2} Tbar_i L_i(Fbar_{k-i+1}) ]``,
    evaluated in increasing k.  The bracket is only a coefficient identity up
    to column symmetry (both sides represent the same polynomial), so the
    solve takes its symmetric part; the result is the canonical symmetric
    representative.  With a retained order ``r`` (default ``n``) the result
    holds the columns that only touch states < r, as a map on ``R^r`` with
    all ``n`` rows.
    """
    return _solve_recursion([f], {}, Tbar, Tbar1_inv, d, r)


def balanced_input(g_columns, Tbar, Tbar1_inv, d, r=None):
    """All m input columns of the balanced realization, degrees 0..d, as one map.

    The drift's recursion, run once on the columns stacked by rows (column l
    in rows ``l n`` to ``(l + 1) n``); the constant columns seed it, and
    their k-way coupling with ``Tbar_{k+1}`` is kept (the term a
    degree-(k+1) transform contributes against the constant input).  ``r``
    restricts the columns as in :func:`balanced_drift`.
    """
    seed = {0: Tbar1_inv @ np.stack([gc.term(0) for gc in g_columns])}
    return _solve_recursion(g_columns, seed, Tbar, Tbar1_inv, d, r)


def balanced_output(h, Tbar, d, r=None):
    """Output coefficients ``Hbar_k = sum_j H_j Tcal_{j,k}``: a plain composition.

    With a retained order ``r`` (default ``n``) this is ``h`` composed with
    the truncated transform ``Tbar^(r)``.
    """
    r = Tbar.rows if r is None else r
    comp = compose(h, truncate_transform(Tbar, r), d)
    return PolyMap._adopt({k: W for k, W in comp.terms.items() if k >= 1}, r, h.rows)


def inverse_transform_coeffs(Tbar, Tbar1_inv, d, r=None):
    """Series inverse ``P`` of the balancing transformation, or its leading ``r`` rows.

    ``P_1 = Tbar_1^{-1}`` (the analytically known square-root-balancing
    inverse) and ``P_i = (-sum_{j<i} P_j Tcal_{j,i}) (P_1 (x) ... (x) P_1)``.
    Satisfies ``P(Tbar(z)) = z + O(|z|^(d+1))``.  The recursion is
    row-separable: rows ``:r`` of ``P_i`` need only rows ``:r`` of the lower
    ``P_j``, with the full ``P_1`` as every Kronecker factor, so ``r``
    (default ``n``) builds those rows alone.
    """
    n = Tbar.rows
    r = n if r is None else r
    P1 = np.asarray(Tbar1_inv, dtype=float)
    P = {1: P1[:r].copy()}
    for i in range(2, d + 1):
        acc = compose_degree(P, Tbar.terms, i)
        if acc is None:
            acc = np.zeros((r, n ** i))
        P[i] = symmetrize_columns(-mat_times_kron(acc, [P1] * i), n, i)
    return PolyMap._adopt(P, n, r)


@lru_cache(maxsize=64)
def _retained_column_map(n, r, k):
    """For each of the r^k retained columns, its source column among n^k."""
    src = column_multi_indices(r, k) @ n ** np.arange(k - 1, -1, -1)
    src.setflags(write=False)
    return src


def truncate_columns(W, n, r, k):
    """Keep the columns of ``W`` whose multi-indices only involve states < r.

    Returns ``W`` itself when no column is dropped (r = n or k = 0).
    """
    if k == 0 or r == n:
        return W
    return W[:, _retained_column_map(n, r, k)]


def truncate_transform(Tbar, r):
    """Reduced transform ``T^(r)``: eliminate columns touching truncated states.

    Evaluating the result at ``x_r`` equals evaluating ``Tbar`` at
    ``[x_r; 0]``.
    """
    n = Tbar.base_dim
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}")
    if r == n and 0 not in Tbar.terms:
        return Tbar  # nothing to drop, and PolyMap terms are read-only
    terms = {
        k: truncate_columns(W, n, r, k) for k, W in Tbar.terms.items() if k >= 1
    }
    return PolyMap._adopt(terms, r, Tbar.rows)


class BalancingTransform:
    """A full-order system with its balancing transformation: what a balancing run keeps.

    :func:`build_rom` reads the system ``sys``, the transform ``Tbar``, the
    inverse ``Tbar1_inv`` of its linear coefficient and the Hankel values.
    The ``nlbt-balance-1`` artifact also keeps the transform degree
    ``d_transf``, the σ² series ``sq_sv`` (a
    :class:`~nlbt.inod.SqSingularValueFns`) and both energies ``Ec`` and
    ``Eo``.  A balancing run, :class:`~nlbt.pipeline.BalancedPipeline`, is one
    of these; :func:`nlbt.serialization.load_balance` reads one from an
    artifact.
    """

    def __init__(self, sys, d_transf, hankel, sq_sv, Ec, Eo, Tbar, Tbar1_inv):
        self.sys = sys
        self.d_transf = d_transf
        self.hankel = np.asarray(hankel, dtype=float)
        self.sq_sv = sq_sv
        self.Ec = Ec
        self.Eo = Eo
        self.Tbar = Tbar
        self.Tbar1_inv = np.asarray(Tbar1_inv, dtype=float)

    @property
    def sigma_condition(self):
        """Hankel spread ``sigma_1/sigma_n``: the balance-then-truncate conditioning."""
        return float(self.hankel[0] / self.hankel[-1])


class ReducedOrderModel:
    """Order-r truncation of a balanced realization.

    ``sys`` is the reduced control-affine system of degree ``d_rom``, ``T_r``
    maps reduced states back to the full-order state space, and ``P`` (the
    leading ``r`` rows of the series inverse) maps full-order states to
    reduced initial conditions.
    """

    def __init__(self, r, d_rom, sys, T_r, P, x_r0, hankel):
        self.r = r
        self.d_rom = d_rom
        self.sys = sys
        self.T_r = T_r
        self.P = P
        self.x_r0 = np.asarray(x_r0, dtype=float)
        self.hankel = np.asarray(hankel, dtype=float)

    def initial_condition(self, x0):
        return self.P(np.asarray(x0, dtype=float))

    def lift(self, x_r):
        """Approximate full-order state on the reduced manifold."""
        return self.T_r(np.asarray(x_r, dtype=float))


def _leading_rows(pm, q, r):
    """The ``q`` maps stacked by rows in ``pm``, each cut to its leading ``r`` rows."""
    blocks = {k: W.reshape(q, pm.rows // q, -1)[:, :r] for k, W in pm.terms.items()}
    if r < pm.rows // q:  # one copy per degree, so the ROM keeps no full-order rows alive
        blocks = {k: B.copy() for k, B in blocks.items()}
    return [PolyMap._adopt({k: B[l] for k, B in blocks.items()}, pm.base_dim, r) for l in range(q)]


def build_rom(balancing, r, d_rom, x0=None, g_degree=None):
    """Order-``r`` ROM of ``balancing.sys`` (balance-then-truncate).

    ``balancing`` is a :class:`BalancingTransform`, such as a
    :class:`~nlbt.pipeline.BalancedPipeline`.  The drift/input/output
    recursions run on retained columns only (see the module docstring) to
    degree ``d_rom``, input map to ``g_degree`` (default ``d_rom - 1``); the
    ROM keeps the leading ``r`` rows of drift and input, and of the series
    inverse, which it builds to the degree of ``Tbar``.  This is the one
    realization path: ``r = n`` is the full balanced realization, which
    :meth:`~nlbt.pipeline.BalancedPipeline.realize` returns, and ``r < n``
    equals truncating it.
    """
    sys = balancing.sys
    n = sys.n
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}")
    if d_rom < 1:
        raise ValueError(f"ROM degree must be at least 1, got {d_rom}")
    Tbar, Tbar1_inv = balancing.Tbar, balancing.Tbar1_inv
    dg = d_rom - 1 if g_degree is None else g_degree
    (f_r,) = _leading_rows(balanced_drift(sys.f, Tbar, Tbar1_inv, d_rom, r), 1, r)
    g_r = _leading_rows(balanced_input(sys.g, Tbar, Tbar1_inv, dg, r), sys.m, r)
    h_r = balanced_output(sys.h, Tbar, d_rom, r)
    T_r = truncate_transform(Tbar, r)
    P_r = inverse_transform_coeffs(Tbar, Tbar1_inv, Tbar.degree, r)
    x_r0 = P_r(np.asarray(x0, dtype=float)) if x0 is not None else np.zeros(r)
    rom_sys = ControlAffineSystem(f_r, g_r, h_r)
    return ReducedOrderModel(r, d_rom, rom_sys, T_r, P_r, x_r0, balancing.hankel)
