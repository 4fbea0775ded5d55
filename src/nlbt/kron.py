"""Dense Kronecker-form polynomial algebra.

A polynomial map ``w(x) = sum_k W_k (x (x) ... (x) x)`` is stored as one dense
coefficient matrix per degree, with ``W_k`` of shape ``(rows, base_dim**k)``.
Columns follow the canonical Kronecker (lexicographic) order: the column for
the multi-index ``(i_1, ..., i_k)`` with ``1 <= i_j <= base_dim`` is

    1 + sum_j (i_j - 1) * base_dim**(k - j)

so the leftmost factor is the most significant digit.  This ordering is the
exchange-format contract used by the ``kps-1`` serializer.

Every coefficient is stored as its symmetric representative: the degree-k
coefficient of a polynomial is fixed only up to permutations of its k
Kronecker slots, and :class:`PolyMap` keeps the one whose columns of equal
multisets hold equal values (:func:`symmetrize_columns`).  Every consumer in
the package reads it that way.

One operation builds everything the method derives from a transform ``T``:
the degree-k coefficient ``sum_j M_j Tcal_{j,k}`` of a composition
``M(T(z))``, :func:`compose_degree`.  The transformed energies, the balancing
transformation, its series inverse and the balanced-realization recursions
all go through it (:func:`compose` applies it degree by degree).  Because
every ``M_j`` is symmetric in its slots, it contracts one Kronecker product
per partition of k, p(k) in all, scaled by the partition's number of
orderings, instead of one per composition, 2^(k-1) in all; the result equals
the Kronecker coefficient up to column symmetry.

One evaluator computes every value: a map is folded, once and lazily, onto
its unique monomials (the columns of equal multisets summed), so the degree-k
part is ``C_k m_k(x)`` with ``C_k`` of shape ``(rows, C(n+k-1, k))``.  The
monomials of all degrees are one gather from ``[1, x]`` through a fixed index
table and one product down its columns (:func:`_gather_table`), and a map
whose degrees fit one zero-padded coefficient matrix is one matrix product
more.  :class:`PolyMap` evaluation (one point or many) and its Jacobian, the
system right-hand side and the energies all go through it.
"""

import math
from collections import Counter
from functools import lru_cache

import numpy as np

__all__ = [
    "PolyMap",
    "ControlAffineSystem",
    "column_multi_indices",
    "multi_index_to_column",
    "symmetrize_columns",
    "mat_times_kron",
    "right_kway_product",
    "compositions",
    "compose_degree",
    "compose",
]


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


@lru_cache(maxsize=64)
def _symmetry_groups(n, k):
    """Columns grouped by the multiset of their multi-index: the unique monomials.

    Returns the group id per column, the size of each group and its smallest
    column, which is the column of the sorted multi-index.  Groups are
    numbered in increasing order of that column.
    """
    idx = column_multi_indices(n, k)
    keys = np.sort(idx, axis=1)
    enc = np.zeros(keys.shape[0], dtype=np.int64)
    for j in range(k):
        enc = enc * n + keys[:, j]
    uniq, inv = np.unique(enc, return_inverse=True)
    counts = np.bincount(inv, minlength=uniq.size)
    return inv, counts, uniq


@lru_cache(maxsize=64)
def _raise_table(n, k):
    """Degree-(k-1) monomial ``mu`` times state ``i``: ``(monomials, n)`` read-only tables.

    ``up[mu, i]`` is the id of the degree-k monomial ``mu + {i}``, ``mult[mu, i]``
    the multiplicity of ``i`` in it: k times the column count of ``mu`` over its.
    Both in the smallest unsigned type that holds them, because the cache keeps them.
    """
    inv, counts, _ = _symmetry_groups(n, k)
    _, counts_prev, reps_prev = _symmetry_groups(n, k - 1)
    up = inv[np.arange(n) * n ** (k - 1) + reps_prev[:, None]]
    mult = (k * counts_prev[:, None] // counts[up]).astype(np.min_scalar_type(k))
    up = up.astype(np.min_scalar_type(counts.size - 1))
    up.setflags(write=False)
    mult.setflags(write=False)
    return up, mult


def _monomial_start(n, k):
    """Position of the first degree-k monomial when degrees 0, 1, ... are concatenated."""
    return math.comb(n + k - 1, k - 1) if k else 0


@lru_cache(maxsize=64)
def _factor_positions(n, k):
    """``(k, monomials)`` positions in ``[1, x]`` of each degree-k monomial's factors.

    Monomial j has the sorted multi-index ``i_1 <= ... <= i_k``; row r holds
    ``i_(k-r) + 1``, so the last index comes first.  Stored in the smallest
    unsigned type that holds n (one byte per entry up to n = 255), because
    the cache keeps it; read-only, because every caller shares it.
    """
    _, _, reps = _symmetry_groups(n, k)
    pos = (reps // n ** np.arange(k)[:, None] % n + 1).astype(np.min_scalar_type(n))
    pos.setflags(write=False)
    return pos


def _gather_table(n, top):
    """``(top, monomials)`` indices into ``[1, x]`` whose column products are the monomials.

    Column j lists the factors of monomial j (degrees ``0..top`` concatenated
    from degree 0) by :func:`_factor_positions` and pads with 0, which holds
    1.0.  A product down the columns multiplies ``x[i_k]``, then
    ``x[i_(k-1)]``, ..., ``x[i_1]``: the order of
    ``m_k = x[i_1] m_(k-1)(i_2, ..., i_k)``, so the values are those of that
    recursion bit for bit.  Not cached: a table lives as long as the fold
    that holds it (3.6 MB for a degree-3 energy at n = 96).
    """
    start = [_monomial_start(n, k) for k in range(top + 2)]
    table = np.zeros((top, start[-1]), dtype=np.intp)
    for k in range(1, top + 1):
        table[:k, start[k] : start[k + 1]] = _factor_positions(n, k)
    return table


def _group_sums(W, n, k):
    """Sum of each column group of the ``(rows, n**k)`` array ``W``: ``(rows, monomials)``.

    One ``np.bincount`` over the ``(row, group)`` id of every entry.  It adds
    the columns of a group in increasing column order, starting from zero.
    """
    inv, counts, _ = _symmetry_groups(n, k)
    rows, groups = W.shape[0], counts.size
    # one row's ids are the group ids: no offset array, a few us less per
    # call at small n, where the energies and inod call this once per degree
    ids = inv if rows == 1 else (np.arange(rows)[:, None] * groups + inv).ravel()
    sums = np.bincount(ids, weights=W.ravel(), minlength=rows * groups)
    return sums.reshape(rows, groups)


def _fold(W, n, k):
    """The symmetric ``W`` on the unique degree-k monomials: shape ``(rows, monomials)``.

    One column per group, the representative, times the group size.
    """
    if k < 2:
        return W
    _, counts, reps = _symmetry_groups(n, k)
    return W[:, reps] * counts


_ONE = np.ones(1)
_ONE.setflags(write=False)


def _degree_runs(degrees):
    """Split sorted degrees into maximal runs of consecutive ones, as ``(lo, hi)``."""
    runs = []
    for k in degrees:
        if runs and runs[-1][1] == k - 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return [tuple(r) for r in runs]


class _Compact:
    """A polynomial map on unique monomials, ``sum_k C_k m_k(x)``.

    The monomials of degrees ``0..top`` (degree k from ``start[k]``) are one
    gather and one product: ``[1, x][table].prod(axis=0)``, see
    :func:`_gather_table`.  ``products`` holds ``(rows, lo, hi, C)``: ``C``
    times the monomials of degrees ``lo..hi`` adds to the output rows indexed
    by ``rows``, which increase.  When all rows fit one product over the
    union of their degrees, zero-padded, with at most twice the coefficients
    of separate runs, :meth:`fold` stores that product and a call is one
    matrix product with no scatter.  Otherwise each run of consecutive
    degrees shared by the stacked maps is one product, and no coefficient is
    padded.  Holds no reference to the maps it was folded from.
    """

    def __init__(self, n, rows, products):
        self.n = n
        self.rows = rows
        self.products = products
        top = max((hi for _, _, hi, _ in products), default=0)
        self.start = [_monomial_start(n, k) for k in range(top + 2)]
        self.table = _gather_table(n, top)
        start = self.start
        self.spans = [(rows, start[lo], start[hi + 1], C) for rows, lo, hi, C in products]
        # product rows are increasing, so one product of all rows holds them in order
        whole = len(products) == 1 and products[0][0].size == rows
        self.whole = self.spans[0][1:] if whole else None

    @classmethod
    def fold(cls, maps):
        """Fold PolyMaps over one base, stacked by rows."""
        n = maps[0].base_dim
        starts = np.cumsum([0] + [pm.rows for pm in maps])
        rows = int(starts[-1])
        blocks = []  # (map index, lo, hi, its coefficients on that run)
        for i, pm in enumerate(maps):
            for lo, hi in _degree_runs(sorted(pm.terms)):
                C = [_fold(pm.terms[k], n, k) for k in range(lo, hi + 1)]
                blocks.append((i, lo, hi, np.hstack(C)))
        if not blocks:
            return cls(n, rows, [])
        lo = min(b[1] for b in blocks)
        hi = max(b[2] for b in blocks)
        start = [_monomial_start(n, k) for k in range(hi + 2)]
        if rows * (start[hi + 1] - start[lo]) <= 2 * sum(b[3].size for b in blocks):
            if len(blocks) == 1 and blocks[0][3].shape[0] == rows:
                C = blocks[0][3]  # one run of a map holding every row: no pad, no copy
            else:
                C = np.zeros((rows, start[hi + 1] - start[lo]))
                for i, a, b, Ci in blocks:
                    cols = slice(start[a] - start[lo], start[b + 1] - start[lo])
                    C[starts[i] : starts[i + 1], cols] = Ci
            return cls(n, rows, [(np.arange(rows), lo, hi, C)])
        groups = {}  # (lo, hi) -> [(map index, its coefficients on that run)]
        for i, a, b, Ci in blocks:
            groups.setdefault((a, b), []).append((i, Ci))
        products = []
        for (a, b), parts in sorted(groups.items()):
            idx = np.concatenate([np.arange(starts[i], starts[i + 1]) for i, _ in parts])
            C = parts[0][1] if len(parts) == 1 else np.vstack([C for _, C in parts])
            products.append((idx, a, b, C))
        return cls(n, rows, products)

    def __call__(self, x):
        """Values at ``x`` of shape ``(n,)``, or at each column of ``x`` of shape ``(n, N)``."""
        one = _ONE if x.ndim == 1 else np.ones((1, x.shape[1]))
        m = np.multiply.reduce(np.concatenate((one, x))[self.table], axis=0)
        if self.whole is not None:
            a, b, C = self.whole
            return C.dot(m[a:b])  # ndarray.dot: less call overhead than @
        out = np.zeros((self.rows,) + x.shape[1:])
        for rows, a, b, C in self.spans:
            out[rows] += C.dot(m[a:b])
        return out

    def derivative(self):
        """The Jacobian as a compact map with ``rows * n`` rows, row-major.

        ``d(m_k)/dx_i`` is a degree-(k-1) monomial ``mu`` times the
        multiplicity of ``i`` in ``mu + e_i``, so degree k contributes
        ``C_k[:, up(mu, i)] * mult(mu, i)`` at degree k - 1.
        """
        n = self.n
        products = []
        for rows, lo, hi, C in self.products:
            blocks = []
            for k in range(max(lo, 1), hi + 1):
                Ck = C[:, self.start[k] - self.start[lo] : self.start[k + 1] - self.start[lo]]
                up, mult = _raise_table(n, k)
                D = (Ck[:, up] * mult).transpose(0, 2, 1)  # (rows, n, monomials)
                blocks.append(D.reshape(-1, up.shape[0]))
            if blocks:
                drows = (rows[:, None] * n + np.arange(n)).ravel()
                products.append((drows, max(lo, 1) - 1, hi - 1, np.hstack(blocks)))
        return _Compact(n, self.rows * n, products)


def symmetrize_columns(W, n, k):
    """Average the columns of ``W`` over all permutations of their multi-indices.

    Each column group is summed by :func:`_group_sums`, divided by its size
    and gathered back to every column of the group.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if k < 2:
        return W.copy()
    inv, counts, _ = _symmetry_groups(n, k)
    return (_group_sums(W, n, k) / counts)[:, inv]


def _canonical(W, n, k):
    """The fresh ``(rows, n**k)`` array ``W`` made its symmetric representative, in place.

    ``W`` is kept bit for bit when every column already equals its group's
    representative, which holds for every map the package writes; otherwise
    it is overwritten with the values of :func:`symmetrize_columns`.  One row
    at a time, so no temporary is larger than a row.
    """
    if k < 2:
        return W
    inv, counts, reps = _symmetry_groups(n, k)
    if all(np.array_equal(w[reps][inv], w) for w in W):
        return W
    for w in W:
        w[:] = (_group_sums(w[None, :], n, k)[0] / counts)[inv]
    return W


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
        out = out.reshape(r, b, -1).swapaxes(1, 2).reshape(-1, b) @ B
    return out.reshape(r, -1)


def right_kway_product(M, B, k, base):
    """``M @ L_k(B)`` for ``M`` with ``base**k`` columns and ``B`` with ``base`` rows.

    Returns an array with ``base**(k-1) * B.shape[1]`` columns.  Used by the
    balanced-realization recursions, where ``M`` holds transform coefficients.
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


@lru_cache(maxsize=64)
def _composition_terms(k):
    """The Kronecker products of degree k of a composition, as ``(degrees, multiplicity)``.

    ``degrees`` are the factor degrees of one product ``M_j (T_{c_1} (x) ...
    (x) T_{c_j})`` with ``j = len(degrees)``, in increasing ``j``.  Each
    partition of k appears once, its degrees in non-decreasing order (the
    cheapest contraction order), with its number of distinct orderings: for
    an ``M_j`` symmetric in its slots those orderings give column-permuted
    copies of one product.  That is p(k) products instead of 2^(k-1).
    """
    table = []
    for j in range(1, k + 1):
        counts = Counter(tuple(sorted(c)) for c in compositions(k, j))
        table.extend(counts.items())
    return tuple(table)


def polymap_from_monomials(n, rows, entries):
    """Build a :class:`PolyMap` from monomial data.

    ``entries`` maps ``(row, exponents)`` to a coefficient, where ``exponents``
    is a length-n tuple of nonnegative integers.  Each coefficient is written
    at its monomial's sorted column and :func:`symmetrize_columns` spreads it
    evenly over all Kronecker columns of the monomial.
    """
    by_degree = {}
    for (row, expo), coeff in entries.items():
        k = int(sum(expo))
        W = by_degree.setdefault(k, np.zeros((rows, n ** k)))
        letters = [i for i, e in enumerate(expo) for _ in range(int(e))]
        W[row, multi_index_to_column(letters, n)] += coeff
    for k, W in by_degree.items():
        W[...] = symmetrize_columns(W, n, k)
    return PolyMap._adopt(by_degree, n, rows)


def _point(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected input of length {n}, got {x.shape}")
    return x


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

    The coefficients are copied, made symmetric in their Kronecker slots
    (see the module docstring) and read-only: a block whose columns already
    equal their groups' representatives is kept bit for bit, any other
    becomes :func:`symmetrize_columns` of it.  Evaluation goes through the
    unique-monomial form, folded on first use.
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
            clean[k] = _canonical(W, base_dim, k)
        if rows is None:
            raise ValueError("rows must be given for an empty PolyMap")
        self._set(clean, base_dim, rows)

    @classmethod
    def _adopt(cls, terms, base_dim, rows):
        """Wrap fresh, well-shaped coefficient arrays without copying (internal results).

        The arrays must be symmetric in their slots by construction.
        """
        self = cls.__new__(cls)
        self._set(terms, base_dim, rows)
        return self

    def _set(self, terms, base_dim, rows):
        self.base_dim = int(base_dim)
        self.rows = int(rows)
        self.terms = dict(sorted(terms.items()))
        for W in self.terms.values():
            W.setflags(write=False)
        self._compact = None  # unique-monomial form, and that of the Jacobian
        self._compact_jac = None

    @property
    def degree(self):
        return max(self.terms, default=0)

    def term(self, k):
        """Degree-k coefficient matrix (zeros if the degree is absent)."""
        W = self.terms.get(k)
        if W is None:
            return np.zeros((self.rows, self.base_dim ** k))
        return W

    def _folded(self):
        if self._compact is None:
            self._compact = _Compact.fold([self])
        return self._compact

    def __call__(self, x):
        return self._folded()(_point(x, self.base_dim))

    def evaluate(self, X):
        """Values at many points: ``X`` of shape ``(N, base_dim)`` gives ``(N, rows)``.

        A map not yet folded is folded for this batch only: the batch pays
        for its fold, and the map keeps no unique-monomial copy.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.base_dim:
            raise ValueError(f"expected points of shape (N, {self.base_dim}), got {X.shape}")
        compact = self._compact if self._compact is not None else _Compact.fold([self])
        return compact(X.T).T

    def jacobian(self, x):
        """Jacobian ``d(self)/dx`` at ``x``, shape ``(rows, base_dim)``."""
        if self._compact_jac is None:
            self._compact_jac = self._folded().derivative()
        n = self.base_dim
        return self._compact_jac(_point(x, n)).reshape(self.rows, n)

    def truncated(self, d):
        """Drop all terms of degree above ``d``."""
        terms = {k: W for k, W in self.terms.items() if k <= d}
        return PolyMap._adopt(terms, self.base_dim, self.rows)

    def __repr__(self):
        degs = sorted(self.terms)
        return f"PolyMap(rows={self.rows}, base_dim={self.base_dim}, degrees={degs})"


def _require_no_constant(pm, name):
    """``pm``, or ``ValueError`` naming it ``name`` when it has a nonzero constant term."""
    if 0 in pm.terms and np.any(pm.terms[0]):
        raise ValueError(f"{name} must not have a constant term")
    return pm


def compose_degree(maps, T, k):
    """Degree-k coefficient ``sum_j M_j Tcal_{j,k}`` of the composition ``M(T(z))``.

    ``maps`` maps degree ``j`` to ``M_j`` and ``T`` maps degree ``i`` to
    ``T_i``; degree-0 entries of either are never read, and absent degrees
    count as zero.  Returns None when no term contributes.

    Every ``M_j`` must be symmetric in its ``j`` slots, as every
    :class:`PolyMap` coefficient is.  Each partition of k is contracted once,
    scaled by its number of orderings (see :func:`_composition_terms`), so
    the result equals the Kronecker coefficient only up to column symmetry:
    it represents the same polynomial, and :func:`symmetrize_columns` of the
    two agree.  Every consumer reads it that way: :func:`compose` and the
    series inverse symmetrize it, the balanced-realization recursions
    symmetrize it after subtracting their coupling, and the inod solve sums
    each column group.
    """
    acc = None
    for degrees, mult in _composition_terms(k):
        M = maps.get(len(degrees))
        if M is None or any(c not in T for c in degrees):
            continue
        term = mat_times_kron(M, [T[c] for c in degrees])
        if mult > 1:
            term *= mult
        if acc is None:
            acc = term
        else:
            acc += term
    return acc


def compose(P, T, d_out):
    """Composition ``P(T(z))`` truncated to degree ``d_out``.

    ``T`` must have no constant term.  The degree-i coefficient of the result
    is :func:`symmetrize_columns` of :func:`compose_degree`
    ``(P.terms, T.terms, i)``.
    """
    _require_no_constant(T, "T")
    if P.base_dim != T.rows:
        raise ValueError("dimension mismatch: P.base_dim != T.rows")
    out = {}
    for i in range(1, d_out + 1):
        acc = compose_degree(P.terms, T.terms, i)
        if acc is not None:
            out[i] = symmetrize_columns(acc, T.base_dim, i)
    if 0 in P.terms:
        out[0] = P.terms[0]
    return PolyMap._adopt(out, T.base_dim, P.rows)


class ControlAffineSystem:
    """Polynomial control-affine system ``x' = f(x) + g(x) u``, ``y = h(x)``.

    ``f`` and ``h`` are :class:`PolyMap` over the state without a constant
    term: the origin is an equilibrium with zero output.  ``g`` is stored per
    input column as PolyMaps that may carry a degree-0 (constant) term.  ``f``
    and the input columns are evaluated together, as one stacked map on
    unique monomials.
    """

    def __init__(self, f, g_columns, h):
        n = f.base_dim
        if f.rows != n:
            raise ValueError("f must map R^n -> R^n")
        _require_no_constant(f, "f")
        for gc in g_columns:
            if gc.rows != n or gc.base_dim != n:
                raise ValueError("every input column must map R^n -> R^n")
        if h.base_dim != n:
            raise ValueError("h must act on R^n")
        _require_no_constant(h, "h")
        self.f = f
        self.g = list(g_columns)
        self.h = h
        self.n = n
        self.m = len(self.g)
        self.p = h.rows
        self._compact = None  # [f; g_1; ...; g_m] on unique monomials

    @property
    def A(self):
        return self.f.term(1)

    @property
    def B(self):
        return np.column_stack([gc.term(0).ravel() for gc in self.g])

    @property
    def C(self):
        return self.h.term(1)

    def _stacked(self, x):
        """``[f(x); g_1(x); ...; g_m(x)]`` from one monomial vector."""
        if self._compact is None:
            self._compact = _Compact.fold([self.f, *self.g])
        return self._compact(_point(x, self.n))

    def release_fold(self):
        """Drop the unique-monomial form of ``[f; g]``; the next evaluation folds again."""
        self._compact = None

    def input_matrix(self, x):
        """``g(x)`` evaluated as an ``n x m`` matrix."""
        return self._stacked(x)[self.n :].reshape(self.m, self.n).T

    def rhs(self, x, u):
        """``f(x) + g(x) u``; a scalar ``u`` is accepted when ``m == 1``."""
        u = np.asarray(u, dtype=float).reshape(self.m)
        y = self._stacked(x)
        return y[: self.n] + u.dot(y[self.n :].reshape(self.m, self.n))

    def output(self, x):
        return self.h(x)

    def degree(self):
        return max(self.f.degree, self.h.degree, max(gc.degree for gc in self.g))

    def stacked_g(self, k):
        """Degree-k input coefficients stacked as ``G_k = [G_k^(1) ... G_k^(m)]``."""
        return np.hstack([gc.term(k) for gc in self.g])

    def __repr__(self):
        return f"ControlAffineSystem(n={self.n}, m={self.m}, p={self.p}, degree={self.degree()})"
