"""Scaling transformation from the squared singular value functions.

Per state, the inverse scaling map is ``z_i * (sigma_i^2(z_i))**(1/4)``, a
scalar series computed through power-series log/exp rather than closed-form
coefficient formulas (the series route works at any degree).  Series reversion
then produces the forward scaling map, whose coefficients populate sparse
matrices with one nonzero per state - the column of ``z_i^(k)``.
"""

import numpy as np

from .kron import PolyMap, compose

__all__ = [
    "series_product",
    "inverse_scaling_series",
    "series_reversion",
    "assemble_scaling_coeffs",
    "compose_balancing",
    "scaling_series_for",
]


def series_product(a, b, d):
    """Cauchy product of two coefficient arrays, truncated at degree ``d``.

    Coefficients run along the last axis; leading axes broadcast, so one call
    multiplies the series of every state at once.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (d + 1,))
    for i in range(min(a.shape[-1], d + 1)):
        top = min(d - i, b.shape[-1] - 1)
        out[..., i : i + top + 1] += a[..., i : i + 1] * b[..., : top + 1]
    return out


def _series_log1p(u, d):
    """log(1 + u) for series ``u`` (last axis) with no constant term."""
    out = np.zeros(u.shape[:-1] + (d + 1,))
    term = np.zeros_like(out)
    term[..., 0] = 1.0
    for m in range(1, d + 1):
        term = series_product(term, u, d)
        if not np.any(term):
            break
        out += ((-1) ** (m + 1)) * term / m
    return out


def _series_exp(v, d):
    """exp(v) for series ``v`` (last axis) with no constant term."""
    out = np.zeros(v.shape[:-1] + (d + 1,))
    out[..., 0] = 1.0
    term = np.zeros_like(out)
    term[..., 0] = 1.0
    for m in range(1, d + 1):
        term = series_product(term, v, d) / m
        if not np.any(term):
            break
        out += term
    return out


def inverse_scaling_series(c, d):
    """Taylor coefficients of ``z * (c(z))**(1/4)`` through degree ``d``.

    ``c`` holds the squared-singular-value coefficients ``c_0, c_1, ...`` with
    ``c_0 > 0``, along the last axis (one row per state for a 2-D ``c``).
    Returns ``a`` with ``a[0] = 0``; ``a[1] = c_0**0.25``.
    """
    c = np.asarray(c, dtype=float)
    if np.any(c[..., 0] <= 0):
        raise ValueError("constant term of the squared singular value series must be positive")
    c0 = c[..., :1]
    u = np.zeros(c.shape[:-1] + (d + 1,))
    u[..., 1 : c.shape[-1]] = c[..., 1 : d + 1] / c0
    root = c0 ** 0.25 * _series_exp(0.25 * _series_log1p(u, d), d)
    a = np.zeros_like(u)
    a[..., 1:] = root[..., :d]
    return a


def series_reversion(a, d):
    """Coefficients ``A`` of the inverse series: ``A(a(z)) = z + O(z^(d+1))``.

    Triangular solve by degree matching; requires ``a[0] = 0`` and ``a[1] != 0``.
    Coefficients run along the last axis, as in :func:`series_product`.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a[..., 0] != 0.0):
        raise ValueError("series to revert must have no constant term")
    if np.any(a[..., 1] == 0.0):
        raise ValueError("series to revert must have a nonzero leading coefficient")
    apad = np.zeros(a.shape[:-1] + (d + 1,))
    m = min(a.shape[-1], d + 1)
    apad[..., :m] = a[..., :m]
    apow = [None, apad.copy()]
    for m in range(2, d + 1):
        apow.append(series_product(apow[-1], apad, d))
    a1 = apad[..., 1]
    A = np.zeros_like(apad)
    A[..., 1] = 1.0 / a1
    for k in range(2, d + 1):
        acc = sum(A[..., m] * apow[m][..., k] for m in range(1, k))
        A[..., k] = -acc / (a1 ** k)
    return A


def assemble_scaling_coeffs(A_per_state, n, d):
    """Sparse scaling-map coefficient matrices as a :class:`PolyMap`.

    ``A_per_state`` is an ``(n, d+1)`` array of reverted series (row i holds
    ``A^{(i)}``).  Degree k places ``A_k^{(i)}`` in row i at the column of
    ``z_i^(k)``, i.e. column ``(i-1)(n^k - 1)/(n - 1) + 1`` in 1-based terms.
    """
    A_per_state = np.atleast_2d(np.asarray(A_per_state, dtype=float))
    if A_per_state.shape[1] < d + 1:
        raise ValueError(f"need series of length >= {d + 1} per state")
    terms = {}
    for k in range(1, d + 1):
        Ak = np.zeros((n, n ** k))
        for i in range(n):
            col = i * (n ** k - 1) // (n - 1) if n > 1 else 0
            Ak[i, col] = A_per_state[i, k]
        if k == 1 or np.any(Ak):
            terms[k] = Ak
    return PolyMap._adopt(terms, n, n)


def compose_balancing(transform, scaling_map, d):
    """Balancing transformation ``Tbar = Phi o phi`` truncated to degree ``d``."""
    return compose(transform, scaling_map, d)


def scaling_series_for(sq_sv, d):
    """Forward scaling series for every state: inverse series, then reversion."""
    return series_reversion(inverse_scaling_series(sq_sv.coeffs, d), d)
