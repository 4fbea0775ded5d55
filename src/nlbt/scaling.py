"""Scaling transformation from the squared singular value functions.

Per state, the inverse scaling map is ``z_i * (sigma_i^2(z_i))**(1/4)``.  Its
series, and by Lagrange inversion, ``A_k = (1/k) [z^(k-1)] c(z)**(-k/4)``, that
of the forward map, come from one power-series recurrence at any degree:
:func:`series_power` (J.C.P. Miller's; Knuth, *TAOCP* Vol. 2, 4.7).  The forward
coefficients populate sparse matrices with one nonzero per state - the column
of ``z_i^(k)``.
"""

import numpy as np

from .kron import PolyMap, compose

__all__ = [
    "series_power",
    "inverse_scaling_series",
    "assemble_scaling_coeffs",
    "compose_balancing",
    "scaling_series_for",
]


def series_power(c, alpha, d):
    """Taylor coefficients of ``c(z)**alpha`` through degree ``d``.

    Coefficients run along the last axis of ``c``, whose constant terms must
    be positive; ``alpha`` broadcasts against the leading axes, so one call
    raises every state's series to several powers.  Miller's recurrence
    ``k c_0 b_k = sum_(j=1..k) ((alpha+1) j - k) c_j b_(k-j)`` gives each
    coefficient from the lower ones.
    """
    c = np.asarray(c, dtype=float)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    if np.any(c[..., 0] <= 0):
        raise ValueError("constant term of the series must be positive")
    cp = np.zeros(c.shape[:-1] + (d + 1,))
    cp[..., : c.shape[-1]] = c[..., : d + 1]
    c0 = cp[..., 0]
    b = np.zeros(np.broadcast_shapes(alpha.shape[:-1], c.shape[:-1]) + (d + 1,))
    b[..., 0] = c0 ** alpha[..., 0]
    j = np.arange(1, d + 1)
    for k in range(1, d + 1):
        terms = ((alpha + 1.0) * j[:k] - k) * cp[..., 1 : k + 1] * b[..., k - 1 :: -1]
        # cumsum adds left to right whatever the shape, where sum's order
        # depends on it: a broadcast call adds as one call per alpha does
        b[..., k] = np.cumsum(terms, axis=-1)[..., -1] / (k * c0)
    return b


def inverse_scaling_series(c, d):
    """Taylor coefficients of ``z * (c(z))**(1/4)`` through degree ``d``.

    ``c`` holds the squared-singular-value coefficients ``c_0, c_1, ...`` with
    ``c_0 > 0``, along the last axis (one row per state for a 2-D ``c``).
    Returns ``a`` with ``a[0] = 0``; ``a[1] = c_0**0.25``.
    """
    root = series_power(c, 0.25, d - 1)
    return np.concatenate([np.zeros_like(root[..., :1]), root], axis=-1)


def assemble_scaling_coeffs(A_per_state, n, d):
    """Sparse scaling-map coefficient matrices as a :class:`PolyMap`.

    ``A_per_state`` is an ``(n, d+1)`` array of forward scaling series (row i
    holds ``A^{(i)}``).  Degree k places ``A_k^{(i)}`` in row i at the column of
    ``z_i^(k)``, i.e. column ``(i-1)(n^k - 1)/(n - 1) + 1`` in 1-based terms.
    """
    A_per_state = np.atleast_2d(np.asarray(A_per_state, dtype=float))
    if A_per_state.shape[1] < d + 1:
        raise ValueError(f"need series of length >= {d + 1} per state")
    terms = {}
    states = np.arange(n)
    for k in range(1, d + 1):
        Ak = np.zeros((n, n ** k))
        # column of z_i^(k): i (n^k - 1)/(n - 1) = i (1 + n + ... + n^(k-1))
        Ak[states, states * sum(n ** j for j in range(k))] = A_per_state[:, k]
        if k == 1 or np.any(Ak):
            terms[k] = Ak
    return PolyMap._adopt(terms, n, n)


def compose_balancing(transform, scaling_map, d):
    """Balancing transformation ``Tbar = Phi o phi`` truncated to degree ``d``."""
    return compose(transform, scaling_map, d)


def scaling_series_for(sq_sv, d):
    """Forward scaling series for every state, by Lagrange inversion.

    ``A_k = (1/k) [z^(k-1)] c(z)**(-k/4)``: row ``k - 1`` of one
    :func:`series_power` call over ``alpha = -1/4, ..., -d/4``.
    """
    k = np.arange(1, d + 1)
    powers = series_power(sq_sv.coeffs, -k[:, None] / 4.0, d - 1)  # (k, state, degree)
    A = np.zeros((powers.shape[1], d + 1))
    A[:, 1:] = powers[k - 1, :, k - 1].T / k
    return A
