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
enters every higher degree.

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


def _coupling(Ti, B, i, n, r):
    """``Ti L_i(B)`` on retained columns, for ``Ti`` symmetric in its ``i`` slots.

    ``B`` holds retained columns only.  At ``r = n`` this is
    :func:`right_kway_product`.  Below, symmetry makes every slot's term a
    placement of one product: ``Ti`` on the columns whose first ``i - 1``
    slots are retained, contracted with ``B`` over the last slot.  The
    placement covers ``r == n`` too, and is the faster route there as well.
    The ``r == n`` branch is kept only for the criterion-6 scaling slope (see
    the ROADMAP's standing constraint): that slope times ``realize()``, and
    a faster full-order realization at large n lowers it below its bound.
    """
    if r == n:
        return right_kway_product(Ti, B, i, n)
    rows, q = Ti.shape[0], B.shape[1]
    Y = Ti.reshape((rows,) + (n,) * i)[(slice(None),) + (slice(r),) * (i - 1)] @ B
    # slot s: the B block goes after the first s retained indices
    return sum(
        Y.reshape(rows, r ** s, r ** (i - 1 - s), q).swapaxes(2, 3).reshape(rows, -1)
        for s in range(i)
    )


def _solve_recursion(pm, seed, Tbar, Tbar1_inv, d, r, couple_top):
    """Drift/input recursion (see :func:`balanced_drift`) on retained columns.

    ``seed`` holds the known low degrees; the coupling index ``i`` runs to
    ``k + couple_top`` (the input map couples one degree higher, against its
    constant term).
    """
    n = Tbar.rows
    Ts = Tbar.terms
    Tr = truncate_transform(Tbar, r).terms
    Xbar = dict(seed)
    for k in range(1, d + 1):
        # the raw partition sum: symmetrize_columns below takes the whole bracket
        rhs = compose_degree(pm.terms, Tr, k)
        if rhs is None:
            rhs = np.zeros((pm.rows, r ** k))
        for i in range(2, min(k + couple_top, Tbar.degree) + 1):
            jj = k - i + 1
            if jj in Xbar:
                rhs = rhs - _coupling(Ts[i], Xbar[jj], i, n, r)
        Xbar[k] = Tbar1_inv @ symmetrize_columns(rhs, r, k)
    return PolyMap._adopt(Xbar, r, n)


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
    n = Tbar.rows
    r = n if r is None else r
    return _solve_recursion(f, {}, Tbar, Tbar1_inv, d, r, 0)


def balanced_input(g_column, Tbar, Tbar1_inv, d, r=None):
    """One input column of the balanced realization, degrees 0..d.

    Same recursion as the drift; the constant column seeds it, and its k-way
    coupling with ``Tbar_{k+1}`` is kept (the term a degree-(k+1) transform
    contributes against the constant input).  ``r`` restricts the columns as
    in :func:`balanced_drift`.
    """
    n = Tbar.rows
    r = n if r is None else r
    seed = {0: Tbar1_inv @ g_column.term(0)}
    return _solve_recursion(g_column, seed, Tbar, Tbar1_inv, d, r, 1)


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
    """A full-order system with its balancing transformation.

    Everything :func:`build_rom` reads: the system ``sys``, the transform
    ``Tbar``, the inverse ``Tbar1_inv`` of its linear coefficient and the
    Hankel values.  A balancing run, :class:`~nlbt.pipeline.BalancedPipeline`,
    is one of these; ``nlbt reduce`` builds one from a saved artifact.
    """

    def __init__(self, sys, Tbar, Tbar1_inv, hankel):
        self.sys = sys
        self.Tbar = Tbar
        self.Tbar1_inv = np.asarray(Tbar1_inv, dtype=float)
        self.hankel = np.asarray(hankel, dtype=float)

    @property
    def sigma_condition(self):
        """Hankel spread ``sigma_1/sigma_n``: the balance-then-truncate conditioning."""
        return float(self.hankel[0] / self.hankel[-1])


class ReducedOrderModel:
    """Order-r truncation of a balanced realization.

    ``sys`` is the reduced control-affine system, ``T_r`` maps reduced states
    back to the full-order state space, and ``P`` (the leading ``r`` rows of
    the series inverse) maps full-order states to reduced initial conditions.
    """

    def __init__(self, r, sys, T_r, P, x_r0, hankel):
        self.r = r
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


def _leading_rows(pm, r):
    if r == pm.rows:
        return pm
    # copies, so the ROM does not keep the full-order rows alive
    return PolyMap._adopt({k: W[:r].copy() for k, W in pm.terms.items()}, pm.base_dim, r)


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
    Tbar, Tbar1_inv = balancing.Tbar, balancing.Tbar1_inv
    dg = d_rom - 1 if g_degree is None else g_degree
    f_r = _leading_rows(balanced_drift(sys.f, Tbar, Tbar1_inv, d_rom, r), r)
    g_r = [
        _leading_rows(balanced_input(gc, Tbar, Tbar1_inv, dg, r), r) for gc in sys.g
    ]
    h_r = balanced_output(sys.h, Tbar, d_rom, r)
    T_r = truncate_transform(Tbar, r)
    P_r = inverse_transform_coeffs(Tbar, Tbar1_inv, Tbar.degree, r)
    x_r0 = P_r(np.asarray(x0, dtype=float)) if x0 is not None else np.zeros(r)
    rom_sys = ControlAffineSystem(f_r, g_r, h_r)
    return ReducedOrderModel(r, rom_sys, T_r, P_r, x_r0, balancing.hankel)
