"""Test oracles for the Kronecker-form algebra of :mod:`nlbt.kron`.

Each one materializes or enumerates what the package computes in a faster,
structured way, so tests can check the fast route against it.
"""

import itertools

import numpy as np
from scipy import sparse

from nlbt.kron import (
    PolyMap,
    _monomial_start,
    _symmetry_groups,
    compositions,
    mat_times_kron,
    multi_index_to_column,
)


def kron_power(x, k):
    """k-fold Kronecker power of a vector; ``k = 0`` gives the vector ``[1]``.

    Entry ``(i_1, ..., i_k)`` of the result is ``prod_j x[i_j]``, enumerated
    in canonical column order.
    """
    x = np.asarray(x, dtype=float)
    out = np.ones(1)
    for _ in range(int(k)):
        out = (out[:, None] * x[None, :]).ravel()
    return out


def column_to_multi_index(col, n, k):
    """Inverse of :func:`nlbt.kron.multi_index_to_column`."""
    out = []
    for _ in range(k):
        out.append(col % n)
        col //= n
    return tuple(reversed(out))


def kway_lyap_matrix(A, k):
    """Materialized k-way Lyapunov matrix ``L_k(A) = sum_i I (x)..(x) A (x)..(x) I``.

    Its ``n^k x n^k`` size rules it out for solves, which go through
    :func:`nlbt.energy.solve_kway_transposed`.
    """
    A = np.asarray(A, dtype=float)
    p, q = A.shape
    out = np.zeros((p ** k, p ** (k - 1) * q))
    eye = np.eye(p)
    for slot in range(k):
        term = np.ones((1, 1))
        for s in range(k):
            term = np.kron(term, A if s == slot else eye)
        out += term
    return out


def kway_lyap_apply(A, k, V):
    """Product ``L_k(A) @ V`` computed slot-by-slot, never forming ``L_k(A)``.

    ``A`` is ``p x q``; ``V`` must have ``p**(k-1) * q`` rows (a vector or a
    matrix of stacked columns).
    """
    A = np.asarray(A, dtype=float)
    V = np.asarray(V, dtype=float)
    p, q = A.shape
    vec = V.ndim == 1
    Vm = V.reshape(p ** (k - 1) * q, -1)
    ncols = Vm.shape[1]
    out = np.zeros((p ** k, ncols))
    for slot in range(k):
        # rows of V factor as (p^slot, q, p^(k-1-slot)); contract A over q
        t = Vm.reshape(p ** slot, q, p ** (k - 1 - slot), ncols)
        t = np.einsum("aj,ijkc->iakc", A, t)
        out += t.reshape(p ** k, ncols)
    return out.ravel() if vec else out


def tensor_sum(T, p, q):
    """Sum of all p-factor Kronecker products of ``T[i]`` with total degree q.

    ``T`` maps degree ``i`` to an ``n x b**i`` coefficient matrix.  Raises
    ``KeyError`` when a needed degree is missing.
    """
    out = None
    for comp in compositions(q, p):
        term = np.ones((1, 1))
        for c in comp:
            term = np.kron(term, T[c])
        out = term if out is None else out + term
    return out


def mat_times_tensor_sum(M, T, p, q):
    """``M @ tensor_sum(T, p, q)`` via factor-by-factor contraction.

    Every composition is contracted, so the result is the exact Kronecker
    coefficient.  Compositions whose degrees are absent from ``T`` are
    treated as zero, which matches a transform truncated below degree q.
    """
    out = None
    for comp in compositions(q, p):
        if any(c not in T for c in comp):
            continue
        term = mat_times_kron(M, [T[c] for c in comp])
        out = term if out is None else out + term
    return out


def recursive_monomials(x, top):
    """Unique monomials of degrees ``0..top`` of ``x``, built degree by degree.

    ``x`` is one point of shape ``(n,)`` or points as columns, ``(n, N)``.
    Monomial j of degree k has the sorted multi-index ``i_1 <= ... <= i_k``
    and is ``x[i_1]`` times the degree-(k-1) monomial of ``(i_2, ..., i_k)``:
    one product per degree over the monomials below it.  The gather table of
    :func:`nlbt.kron._gather_table` must reproduce these values bit for bit.
    """
    n = x.shape[0]
    start = [_monomial_start(n, k) for k in range(top + 2)]
    buf = np.empty((start[-1],) + x.shape[1:])
    buf[0] = 1.0
    if top >= 1:
        buf[1 : n + 1] = x
    for k in range(2, top + 1):
        _, _, reps = _symmetry_groups(n, k)
        inv_prev, _, _ = _symmetry_groups(n, k - 1)
        lead, rest = np.divmod(reps, n ** (k - 1))
        np.multiply(x[lead], buf[inv_prev[rest] + start[k - 1]], out=buf[start[k] : start[k + 1]])
    return buf


def add_at_symmetrize(W, n, k):
    """Column symmetrization with the group sums accumulated by ``np.add.at``.

    :func:`nlbt.kron.symmetrize_columns` must reproduce it bit for bit.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    inv, counts, _ = _symmetry_groups(n, k)
    sums = np.zeros((W.shape[0], counts.size))
    np.add.at(sums.T, inv, W.T)
    return (sums / counts)[:, inv]


def sparse_group_fold(W, n, k):
    """Group sums of the columns of ``W`` as a sparse 0/1 ``(monomials, n**k)`` product.

    The fold (:func:`nlbt.kron._fold`) of a map built from ``W``, which
    stores the group means, must reproduce it to two roundings.
    """
    inv, counts, _ = _symmetry_groups(n, k)
    cols = inv.size
    S = sparse.csc_array((np.ones(cols), inv, np.arange(cols + 1)), shape=(counts.size, cols))
    return (S @ W.T).T


def spread_polymap_from_monomials(n, rows, entries):
    """:func:`nlbt.kron.polymap_from_monomials` by spreading each coefficient itself.

    Every distinct permutation of a monomial's multi-index gets the
    coefficient divided by their number, so the block is symmetric by
    construction, with no group sum.
    """
    by_degree = {}
    for (row, expo), coeff in entries.items():
        k = int(sum(expo))
        W = by_degree.setdefault(k, np.zeros((rows, n ** k)))
        letters = [i for i, e in enumerate(expo) for _ in range(int(e))]
        perms = set(itertools.permutations(letters))
        for perm in perms:
            W[row, multi_index_to_column(perm, n)] += coeff / len(perms)
    return PolyMap._adopt(by_degree, n, rows)
