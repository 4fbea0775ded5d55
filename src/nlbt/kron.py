"""Dense Kronecker-form polynomial algebra.

A polynomial map ``w(x) = sum_k W_k (x (x) ... (x) x)`` is stored as one dense
coefficient matrix per degree, with ``W_k`` of shape ``(rows, base_dim**k)``.
Columns follow the canonical Kronecker (lexicographic) order: the column for
the multi-index ``(i_1, ..., i_k)`` with ``1 <= i_j <= base_dim`` is

    1 + sum_j (i_j - 1) * base_dim**(k - j)

so the leftmost factor is the most significant digit.  This ordering is the
exchange-format contract used by the ``kps-1`` serializer.
"""

import itertools
from functools import lru_cache

import numpy as np

__all__ = [
    "PolyMap",
    "ControlAffineSystem",
    "kron_power",
    "column_multi_indices",
    "multi_index_to_column",
    "column_to_multi_index",
    "symmetrize_columns",
    "apply_kron_vec",
    "mat_times_kron",
    "kway_lyap_matrix",
    "kway_lyap_apply",
    "right_kway_product",
    "compositions",
    "tensor_sum",
    "mat_times_tensor_sum",
    "compose",
]


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


def column_multi_indices(n, k):
    """All multi-indices of ``n**k`` columns as a ``(n**k, k)`` int array (0-based)."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    cols = np.arange(n ** k, dtype=np.int64)
    out = np.empty((n ** k, k), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        out[:, j] = cols % n
        cols //= n
    return out


def multi_index_to_column(idx, n):
    """Canonical (0-based) column of a multi-index tuple, leftmost digit most significant."""
    col = 0
    for i in idx:
        col = col * n + int(i)
    return col


def column_to_multi_index(col, n, k):
    """Inverse of :func:`multi_index_to_column`."""
    out = []
    for _ in range(k):
        out.append(col % n)
        col //= n
    return tuple(reversed(out))


@lru_cache(maxsize=64)
def _symmetry_groups(n, k):
    """Group id and group size per column, grouping columns with equal multisets."""
    idx = column_multi_indices(n, k)
    keys = np.sort(idx, axis=1)
    enc = np.zeros(keys.shape[0], dtype=np.int64)
    for j in range(k):
        enc = enc * n + keys[:, j]
    uniq, inv = np.unique(enc, return_inverse=True)
    counts = np.bincount(inv, minlength=uniq.size)
    return inv, counts


def symmetrize_columns(W, n, k):
    """Average the columns of ``W`` over all permutations of their multi-indices."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if k < 2:
        return W.copy()
    inv, counts = _symmetry_groups(n, k)
    sums = np.zeros((W.shape[0], counts.size))
    np.add.at(sums.T, inv, W.T)
    return (sums / counts)[:, inv]


def apply_kron_vec(M, v, k):
    """Apply ``M (x) ... (x) M`` (k factors) to a vector of length ``M.shape[1]**k``."""
    mcols = M.shape[1]
    t = v
    for _ in range(k):
        # contract the trailing slot and place its image first: k products
        # cycle through all slots in order
        t = M @ t.reshape(-1, mcols).T
    return t.reshape(-1)


def mat_times_kron(M, factors):
    """``M @ (B_1 (x) B_2 (x) ... (x) B_j)`` without forming the Kronecker product.

    Parameters
    ----------
    M : ndarray, shape (r, prod_j rows(B_j))
    factors : sequence of ndarray

    Returns
    -------
    ndarray, shape (r, prod_j cols(B_j))
    """
    r = M.shape[0]
    out = M
    for B in factors:
        # contract the leading factor axis and append its image as the
        # trailing one, so the factors are consumed in order
        b = B.shape[0]
        if r == 1:
            out = out.reshape(b, -1).T @ B
        else:
            out = out.reshape(r, b, -1).swapaxes(1, 2).reshape(-1, b) @ B
    return out.reshape(r, -1)


def kway_lyap_matrix(A, k):
    """Materialized k-way Lyapunov matrix ``L_k(A) = sum_i I (x)..(x) A (x)..(x) I``.

    Only a test oracle: its ``n^k x n^k`` size rules it out for solves, which
    go through :func:`nlbt.energy.solve_kway_transposed`.
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


def right_kway_product(M, B, k, base):
    """``M @ L_k(B)`` for ``M`` with ``base**k`` columns and ``B`` with ``base`` rows.

    Returns an array with ``base**(k-1) * B.shape[1]`` columns.  Used by the
    balanced-realization recursions, where ``M`` holds (symmetrized) transform
    coefficients.
    """
    M = np.atleast_2d(M)
    B = np.atleast_2d(B)
    r = M.shape[0]
    q = B.shape[1]
    out = None
    for slot in range(k):
        lead, trail = r * base ** slot, base ** (k - 1 - slot)
        if trail == 1:
            term = M.reshape(-1, base) @ B
        elif lead == 1:
            term = B.T @ M.reshape(base, -1)
        else:
            # bring the slot to the end, contract it with B, and move it back
            term = M.reshape(lead, base, trail).swapaxes(1, 2).reshape(-1, base) @ B
            term = term.reshape(lead, trail, q).swapaxes(1, 2)
        term = term.reshape(r, -1)
        out = term if out is None else out + term
    return out


def compositions(total, parts):
    """Yield all tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


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

    Compositions whose degrees are absent from ``T`` are treated as zero,
    which matches a transform truncated below degree q.
    """
    out = None
    for comp in compositions(q, p):
        if any(c not in T for c in comp):
            continue
        term = mat_times_kron(M, [T[c] for c in comp])
        out = term if out is None else out + term
    return out


def polymap_from_monomials(n, rows, entries):
    """Build a :class:`PolyMap` from monomial data.

    ``entries`` maps ``(row, exponents)`` to a coefficient, where ``exponents``
    is a length-n tuple of nonnegative integers.  Each coefficient is spread
    evenly over all Kronecker columns of its monomial, so the result is
    symmetric.
    """
    by_degree = {}
    for (row, expo), coeff in entries.items():
        k = int(sum(expo))
        W = by_degree.setdefault(k, np.zeros((rows, n ** k)))
        if k == 0:
            W[row, 0] += coeff
            continue
        letters = []
        for i, e in enumerate(expo):
            letters.extend([i] * int(e))
        perms = set(itertools.permutations(letters))
        for perm in perms:
            W[row, multi_index_to_column(perm, n)] += coeff / len(perms)
    return PolyMap(by_degree, n, rows=rows)


class PolyMap:
    """Dense Kronecker-form polynomial map.

    Parameters
    ----------
    terms : mapping
        ``{degree: coefficient matrix}`` with matrices of shape
        ``(rows, base_dim**degree)``.  Degree 0 (a constant column) is allowed.
    base_dim : int
        Dimension of the input vector.
    rows : int, optional
        Number of output rows; inferred from the terms when omitted.
    """

    def __init__(self, terms, base_dim, rows=None):
        base_dim = int(base_dim)
        if base_dim < 1:
            raise ValueError("base_dim must be positive")
        clean = {}
        for k, W in terms.items():
            k = int(k)
            if k < 0:
                raise ValueError("negative degree")
            W = np.array(W, dtype=float, ndmin=2)
            if W.shape[1] != base_dim ** k:
                raise ValueError(
                    f"degree-{k} term has {W.shape[1]} columns, expected {base_dim ** k}"
                )
            if rows is None:
                rows = W.shape[0]
            elif W.shape[0] != rows:
                raise ValueError("inconsistent row counts across terms")
            clean[k] = W
        if rows is None:
            raise ValueError("rows must be given for an empty PolyMap")
        self.base_dim = base_dim
        self.rows = int(rows)
        self.terms = dict(sorted(clean.items()))
        for W in self.terms.values():
            W.setflags(write=False)
        self._symmetric = None

    @property
    def degree(self):
        return max(self.terms, default=0)

    def term(self, k):
        """Degree-k coefficient matrix (zeros if the degree is absent)."""
        W = self.terms.get(k)
        if W is None:
            return np.zeros((self.rows, self.base_dim ** k))
        return W

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.base_dim,):
            raise ValueError(f"expected input of length {self.base_dim}, got {x.shape}")
        out = np.zeros(self.rows)
        xk = np.ones(1)
        cur = 0
        for k, W in self.terms.items():
            while cur < k:
                xk = (xk[:, None] * x[None, :]).ravel()
                cur += 1
            out += W @ xk
        return out

    def symmetrized(self):
        """Copy with all coefficient matrices symmetrized; cached."""
        if self._symmetric is None:
            sym = PolyMap(
                {k: symmetrize_columns(W, self.base_dim, k) for k, W in self.terms.items()},
                self.base_dim,
                rows=self.rows,
            )
            sym._symmetric = sym
            self._symmetric = sym
        return self._symmetric

    def jacobian(self, x):
        """Jacobian ``sum_k k W_k (I (x) x^(k-1))`` at ``x`` (symmetrizes first)."""
        sym = self.symmetrized()
        x = np.asarray(x, dtype=float)
        n = self.base_dim
        out = np.zeros((self.rows, n))
        for k, W in sym.terms.items():
            if k == 0:
                continue
            xk = kron_power(x, k - 1)
            out += k * (W.reshape(self.rows * n, n ** (k - 1)) @ xk).reshape(self.rows, n)
        return out

    def truncated(self, d):
        """Drop all terms of degree above ``d``."""
        return PolyMap(
            {k: W for k, W in self.terms.items() if k <= d}, self.base_dim, rows=self.rows
        )

    def __repr__(self):
        degs = sorted(self.terms)
        return f"PolyMap(rows={self.rows}, base_dim={self.base_dim}, degrees={degs})"


def compose(P, T, d_out):
    """Composition ``P(T(z))`` truncated to degree ``d_out``.

    ``T`` must have no constant term.  The degree-i coefficient of the result
    is ``sum_j P_j @ tensor_sum(T, j, i)``.
    """
    if 0 in T.terms and np.any(T.terms[0]):
        raise ValueError("compose requires T without a constant term")
    if P.base_dim != T.rows:
        raise ValueError("dimension mismatch: P.base_dim != T.rows")
    Tt = {k: W for k, W in T.terms.items() if k >= 1}
    out = {}
    for i in range(1, d_out + 1):
        acc = None
        for j in range(1, i + 1):
            if j not in P.terms:
                continue
            term = mat_times_tensor_sum(P.terms[j], Tt, j, i)
            if term is not None:
                acc = term if acc is None else acc + term
        if acc is not None:
            out[i] = acc
    if 0 in P.terms:
        out[0] = P.terms[0]
    return PolyMap(out, T.base_dim, rows=P.rows)


class ControlAffineSystem:
    """Polynomial control-affine system ``x' = f(x) + g(x) u``, ``y = h(x)``.

    ``f`` and ``h`` are :class:`PolyMap` over the state (no constant term in
    ``f``: the origin is an equilibrium).  ``g`` is stored per input column as
    PolyMaps that may carry a degree-0 (constant) term.
    """

    def __init__(self, f, g_columns, h):
        n = f.base_dim
        if f.rows != n:
            raise ValueError("f must map R^n -> R^n")
        if 0 in f.terms and np.any(f.terms[0]):
            raise ValueError("f must not have a constant term")
        for gc in g_columns:
            if gc.rows != n or gc.base_dim != n:
                raise ValueError("every input column must map R^n -> R^n")
        if h.base_dim != n:
            raise ValueError("h must act on R^n")
        self.f = f
        self.g = list(g_columns)
        self.h = h
        self.n = n
        self.m = len(self.g)
        self.p = h.rows

    @property
    def A(self):
        return self.f.term(1)

    @property
    def B(self):
        return np.column_stack([gc.term(0).ravel() for gc in self.g])

    @property
    def C(self):
        return self.h.term(1)

    def input_matrix(self, x):
        """``g(x)`` evaluated as an ``n x m`` matrix."""
        return np.column_stack([gc(x) for gc in self.g])

    def rhs(self, x, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return self.f(x) + self.input_matrix(x) @ u

    def output(self, x):
        return self.h(x)

    def degree(self):
        return max(self.f.degree, self.h.degree, max(gc.degree for gc in self.g))

    def stacked_g(self, k):
        """Degree-k input coefficients stacked as ``G_k = [G_k^(1) ... G_k^(m)]``."""
        return np.hstack([gc.term(k) for gc in self.g])

    def __repr__(self):
        return f"ControlAffineSystem(n={self.n}, m={self.m}, p={self.p}, degree={self.degree()})"
