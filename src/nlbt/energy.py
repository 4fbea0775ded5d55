"""Series solutions of the controllability and observability energy PDEs.

Both energies are stored as ``E(x) = 1/2 sum_k v_k . x^(k)`` with symmetric
degree-k coefficient vectors ``v_k`` in R^(n^k).  Both PDEs have the form
``dE/dx f + 1/2 |rho(x)|^2 = 0``, with ``rho = h`` for observability and
``rho = (dE/dx g)^T`` for controllability, so one loop computes every higher
degree of both (:func:`_energy_series`).  Degree k is one solve against the
transposed k-way Lyapunov operator ``L_k(A)^T`` (``A + B B^T V_2`` for
controllability), whose right-hand side is the symmetric part of
``sum_j i (v_i.reshape(-1, n) @ F_j) + sum_s rho_s^T rho_t``, ``i = k - j + 1``
and ``s + t = k``: the drift term needs one product per degree pair, because
``v_i`` is symmetric and its last slot stands in for all ``i``, and the
quadratic term pairs the degree-s parts ``rho_s`` of ``rho``.  The contract of
record is the residual of the PDE, which :func:`hjb_residual` evaluates
directly.

All k-way solves, the Gramians' (k = 2) included, go through one
Bartels-Stewart solver on the complex Schur form ``A^T = Z T Z^H``, with
``T`` upper triangular and ``Z`` unitary.  It is backward stable for
non-normal linearizations.  Each Schur form serves every degree solved
against its operator, and its diagonal gives the Hurwitz check.  The solver
changes basis by ``Z^H`` on each Kronecker slot, back-substitutes on ``T``,
and changes back by ``Z``.  Because right-hand side and solution are
symmetric tensors, the back-substitution peels the first slot from the last
index down and solves, at step ``i``, only the entries whose largest index
is ``i``: a (k-1)-way problem on the leading ``(i+1)``-block of ``T``
shifted by ``T[i, i]``.  The 2-way problems at the bottom of the recursion
are triangular Sylvester equations (LAPACK ``ztrsyl``).  A vanishing sum of
k eigenvalues (a resonance) shows up on the diagonal of ``T`` and raises
:class:`~nlbt.errors.ResonanceError`.  When every eigenvalue's real part has
one sign, that test is O(n): each sum of k eigenvalues is at least ``k
min|Re lam|`` in magnitude, and the ``n^k`` sums are formed only when that
bound does not clear the tolerance.

The Schur forms (``zgees``) and ``V_2 = Wc^-1`` (``dposv``) are direct LAPACK
calls with the flags and workspace that ``scipy.linalg.schur`` and
``scipy.linalg.solve(..., assume_a="pos")`` pass, so the results are those
functions' bit for bit, without their per-call input checks; only at n = 1,
where scipy's solve is one division, can ``V_2`` differ, by one ulp.  A
non-finite matrix raises ``ValueError`` before LAPACK sees it.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dposv, zgees, ztrsyl

from .errors import HypothesisViolation, ResonanceError
from .kron import PolyMap, symmetrize_columns

__all__ = [
    "EnergyFunction",
    "SchurFactor",
    "solve_observability_energy",
    "solve_controllability_energy",
    "hjb_residual",
    "solve_kway_transposed",
]


class EnergyFunction:
    """Scalar polynomial ``E(x) = 1/2 sum_k v_k . x^(k)`` with ``E(0) = 0``.

    Coefficients start at degree 2; ``v_2`` reshaped to ``n x n`` is the
    Hessian at the origin.  They are stored as the 1-row map ``2 E``, through
    which every evaluation goes, so the constructor makes them symmetric as
    :class:`~nlbt.kron.PolyMap` does; ``coeffs`` views that map's rows.
    """

    def __init__(self, n, coeffs):
        # PolyMap copies, checks each length and makes each degree symmetric
        self._doubled = PolyMap({k: np.reshape(v, (1, -1)) for k, v in coeffs.items()}, n, 1)

    @property
    def n(self):
        return self._doubled.base_dim

    @property
    def coeffs(self):
        """``{k: v_k}``, read-only."""
        return {k: W[0] for k, W in self._doubled.terms.items()}

    @property
    def degree(self):
        return self._doubled.degree

    @property
    def hessian(self):
        return self._doubled.terms[2].reshape(self.n, self.n)

    def value(self, x):
        """``E(x)`` at a point, or at each row of a 2-D ``x``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return 0.5 * self._doubled.evaluate(x)[:, 0]
        return 0.5 * self._doubled(x)[0]

    def gradient(self, x):
        """Row gradient ``dE/dx`` at ``x``."""
        return 0.5 * self._doubled.jacobian(x).ravel()

    def __repr__(self):
        return f"EnergyFunction(n={self.n}, degree={self.degree})"


def _check_hurwitz(lam):
    """Raise :class:`HypothesisViolation` unless all eigenvalues ``lam`` have Re < 0."""
    if np.any(lam.real >= 0):
        worst = lam[np.argmax(lam.real)]
        raise HypothesisViolation(
            f"linearization is not Hurwitz (eigenvalue {worst:.6g} has Re >= 0)"
        )


def _slot_product(t, M):
    """Contract the leading slot of the tensor ``t`` with the square ``M``
    (``t @ M`` on that slot) and append the image as the trailing slot.

    One product per index of the second slot keeps every BLAS call at
    ``n x n x n``.  A single ``n^(k-1) x n`` complex product crosses the
    BLAS threading threshold already at n = 16, where waking the BLAS worker
    pool costs far more than the product itself.
    """
    n = M.shape[0]
    return np.matmul(t.reshape(n, n, -1).transpose(1, 2, 0), M).reshape(-1, n)


# largest 2-way block handed to ztrsyl whole; larger ones are split in two
_BLOCK_2WAY = 32


def _no_sort(_):
    """zgees's eigenvalue-selection callback; never called, as nothing is sorted."""


@lru_cache(maxsize=64)
def _zgees_lwork(n):
    """zgees's optimal workspace at order n; the query reads only n."""
    return int(zgees(_no_sort, np.zeros((n, n), complex), lwork=-1)[-2][0].real)


def _complex_schur(M):
    """``(T, Z)`` with ``M = Z T Z^H``, ``M`` real, square and finite.

    ``zgees`` with the workspace and flags of ``scipy.linalg.schur(M,
    output="complex")``, so both factors are that call's, bit for bit.
    """
    n = M.shape[0]
    T, _, _, Z, _, info = zgees(_no_sort, M.astype(complex), lwork=_zgees_lwork(n), overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Z


class SchurFactor:
    """Complex Schur form ``A^T = Z T Z^H`` of a real square matrix ``A``.

    Compute it once per linearization and pass it to
    :func:`solve_kway_transposed` for every degree.  Raises ``ValueError``
    for a matrix that is not square or not finite.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
            raise ValueError("A must be a non-empty square matrix")
        if not np.isfinite(A).all():
            raise ValueError("A must not contain infs or NaNs")
        n = A.shape[0]
        T, Z = _complex_schur(A.T)
        self.n = n
        self.T = T
        lam = self.eigvals = np.diagonal(T)
        # Fortran-ordered operand of the 2-way solves (ztrsyl)
        self._tconj_f = np.asfortranarray(T.conj())
        # a slot contraction by M is ``t @ M^T`` on the trailing axis; the
        # real operands let the real input and the real output skip complex
        # products.  ``_zh_t_real`` interleaves ``Re Z`` and ``-Im Z`` by column
        self._zh_t = Z.conj()
        self._zh_t_real = np.ascontiguousarray(self._zh_t).view(float)
        self._z_t = np.ascontiguousarray(Z.T)
        self._z_t_re = np.ascontiguousarray(Z.real.T)
        self._z_t_im = np.ascontiguousarray(Z.imag.T)
        # the degree-k resonance tolerance is ``_res_tol * k``; a spectrum
        # whose real parts share one sign bounds every |sum| below by k
        # ``_res_bound``, else that bound is 0
        re = lam.real
        self._res_tol = 1e-12 * max(float(np.abs(lam).max()), 1.0)
        self._res_bound = float(np.abs(re).min()) if re.max() < 0.0 or re.min() > 0.0 else 0.0

    def _check_resonance(self, k):
        """Raise :class:`ResonanceError` when a sum of ``k`` eigenvalues is numerically zero.

        The ``n^k`` sums are formed only when the one-sign bound ``k
        _res_bound`` falls short of twice the tolerance; the factor 2 covers
        the rounding of the sums, so the verdict is the full check's.
        """
        tol = self._res_tol * k
        if k * self._res_bound >= 2.0 * tol:
            return
        lam = self.eigvals
        sums = lam
        for _ in range(k - 1):
            sums = sums[..., None] + lam
        if np.abs(sums).min() < tol:
            raise ResonanceError(
                f"degree-{k} solve is singular: an eigenvalue sum of the "
                f"linearization is numerically zero (resonance)"
            )

    def _to_schur(self, rhs, k):
        """``(Z^H)^(k) rhs`` for a real vector ``rhs`` of length ``n^k``, as a complex k-tensor."""
        n = self.n
        # each contraction consumes the leading slot and appends its image as
        # the trailing one, so k of them restore the slot order
        t = (rhs.reshape(n, -1).T @ self._zh_t_real).view(complex)
        for _ in range(k - 1):
            t = _slot_product(t, self._zh_t)
        return t.reshape((n,) * k)

    def _from_schur(self, X, k):
        """``Z^(k) X`` as a real vector; ``X`` must be the image of a real tensor."""
        n = self.n
        t = X
        for _ in range(k - 1):
            t = _slot_product(t, self._z_t)
        t = t.reshape(n, -1)
        return (t.real.T @ self._z_t_re - t.imag.T @ self._z_t_im).ravel()

    def _back_substitute(self, X, shift=0.0):
        """Overwrite the symmetric k-tensor ``X`` with the solution ``Y`` of
        ``(shift I + L_k(T_m)) Y = X``, where ``T_m`` is the leading ``m x m``
        block of ``T`` and ``m = X.shape[0]``.
        """
        k, m = X.ndim, X.shape[0]
        if m == 1:
            X /= shift + k * self.eigvals[0]
            return
        if k == 2:
            self._solve_2way(0, m, X, shift)
            return
        T = self.T
        for i in range(m - 1, -1, -1):
            a = i + 1
            box = (slice(0, a),) * (k - 1)
            # unknowns Y[i, b] with b <= i; every entry with an index above i
            # is solved already and, by symmetry, stored with that index last
            r = X[(i,) + box]
            if a < m:
                r = r - X[box + (slice(a, m),)] @ T[i, a:m]
                q = X[(i,) + box[1:] + (slice(a, m),)] @ T[:a, a:m].T
                # q is symmetric in its leading axes, so a swap places its
                # last axis at any slot
                r -= q
                for p in range(k - 2):
                    r -= q.swapaxes(p, -1)
            else:
                r = r.copy()
            self._back_substitute(r, shift + T[i, i])
            for p in range(k):
                X[box[:p] + (i,) + box[p:]] = r

    def _shifted_block(self, lo, hi, shift):
        """Fortran-ordered copy of ``T[lo:hi, lo:hi] + shift I``."""
        A = np.array(self.T[lo:hi, lo:hi], order="F")
        A.ravel(order="F")[:: hi - lo + 1] += shift
        return A

    def _solve_2way(self, lo, hi, X, shift):
        """Overwrite the symmetric matrix ``X`` with the symmetric ``Y`` of
        ``(shift I + T_b) Y + Y T_b^T = X``, ``T_b = T[lo:hi, lo:hi]``.

        Blocks larger than ``_BLOCK_2WAY`` split in two: the trailing diagonal
        block, the off-diagonal block and the leading diagonal block are
        solved in turn, so ztrsyl sees only about half of the entries.
        """
        m = hi - lo
        if m <= _BLOCK_2WAY:
            A = self._shifted_block(lo, hi, shift)
            # X is symmetric, so X.T is the same matrix in Fortran order;
            # ztrsyl solves in place unless it had to copy a strided X.T
            C = X.T
            Y, scale, _ = ztrsyl(A, self._tconj_f[lo:hi, lo:hi], C, tranb="C", overwrite_c=1)
            if scale != 1.0 or Y is not C:
                X[...] = Y.T / scale
            return
        h = m // 2
        X11, X12, X22 = X[:h, :h], X[:h, h:], X[h:, h:]
        self._solve_2way(lo + h, hi, X22, shift)
        T12 = self.T[lo : lo + h, lo + h : hi]
        A = self._shifted_block(lo, lo + h, shift)
        Y12, scale, _ = ztrsyl(
            A, self._tconj_f[lo + h : hi, lo + h : hi], X12 - T12 @ X22, tranb="C"
        )
        Y12 /= scale
        G = Y12 @ T12.T
        X11 -= G
        X11 -= G.T
        self._solve_2way(lo, lo + h, X11, shift)
        X12[...] = Y12
        X[h:, :h] = Y12.T


def _check_symmetric(R):
    """Raise ``ValueError`` unless the k-tensor ``R`` is finite and slot-permutation invariant."""
    d = np.empty_like(R)  # one scratch tensor for every difference
    tol = 1e-12 * np.abs(R, out=d).max()
    if not np.isfinite(tol):  # a NaN would fail no comparison below
        raise ValueError("right-hand side holds a non-finite value")
    # a transposition and a cycle generate every permutation of the slots
    k = R.ndim
    for axes in {(1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)}:
        np.subtract(R, R.transpose(axes), out=d)
        if np.abs(d, out=d).max() > tol:
            raise ValueError(
                "right-hand side is not symmetric in its Kronecker slots; "
                "symmetrize it with nlbt.kron.symmetrize_columns"
            )


def solve_kway_transposed(A, k, rhs):
    """Solve ``L_k(A)^T v = rhs`` for a right-hand side symmetric in its slots.

    ``A`` is a square array or its :class:`SchurFactor`; pass the factor when
    solving several degrees against one ``A``.  ``rhs`` has length ``n^k``,
    ``k >= 2``, and must be finite and invariant under permutations of its
    ``k`` Kronecker slots, as every right-hand side of the energy equations
    is; the solution is then symmetric as well.  Raises ``ValueError``
    otherwise and :class:`ResonanceError` when a sum of ``k`` eigenvalues of
    ``A`` is numerically zero.
    """
    fac = A if isinstance(A, SchurFactor) else SchurFactor(A)
    k = int(k)
    if k < 2:
        raise ValueError("k must be at least 2")
    n = fac.n
    rhs = np.asarray(rhs, dtype=float).ravel()
    if rhs.size != n ** k:
        raise ValueError(f"right-hand side has length {rhs.size}, expected {n ** k}")
    _check_symmetric(rhs.reshape((n,) * k))
    if not np.any(rhs):
        return np.zeros_like(rhs)
    fac._check_resonance(k)
    X = fac._to_schur(rhs, k)
    fac._back_substitute(X)
    return fac._from_schur(X, k)


def _solve_energy_degree(fac, k, source_of):
    """The degree-k coefficient ``v_k`` of ``L_k^T v_k = -source_of()``, ``fac`` the operator's
    Schur factor.  A source that overflows is reported once, as a
    :class:`~nlbt.errors.HypothesisViolation` naming ``k``, not as numpy warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        source = source_of()
    if not np.isfinite(source).all():
        raise HypothesisViolation(f"degree-{k} energy equation: right-hand side overflowed")
    return solve_kway_transposed(fac, k, -source)


def _series_source(sys, v, rho, k):
    """The degree-k source ``sym(sum_j i v_i F_j + sum_s rho_s^T rho_(k-s))``."""
    n = sys.n
    b = np.zeros(n ** k)
    for j in range(2, k):
        if j in sys.f.terms:
            i = k - j + 1
            b += i * (v[i].reshape(-1, n) @ sys.f.terms[j]).ravel()
    parts = rho(v, k)
    for s in range(1, k):
        if s in parts and k - s in parts:
            b += (parts[s].T @ parts[k - s]).ravel()
    return symmetrize_columns(b[None, :], n, k).ravel()


def _energy_series(sys, fac, v2, rho, d):
    """The energy with degree-2 coefficient ``v2`` whose degrees 3..d solve
    ``dE/dx f + 1/2 |rho|^2 = 0`` (see the module docstring).

    ``fac`` is the Schur factor of the operator that takes the unknown
    ``v_k``.  ``rho(v, k)`` maps each degree ``s`` to ``rho_s`` of shape
    ``(q, n^s)``, built from ``v_2, ..., v_(k-1)`` only.
    """
    v = {2: v2}
    for k in range(3, d + 1):
        v[k] = _solve_energy_degree(fac, k, lambda: _series_source(sys, v, rho, k))
    return EnergyFunction(sys.n, v)


def solve_observability_energy(sys, d):
    """Observability energy to degree ``d``: solves ``dE/dx f + 1/2 h^T h = 0``.

    Degree k >= 2 is a linear solve against ``L_k(A)^T``, all degrees sharing
    one Schur form of ``A``; k = 2 is the observability Gramian's Lyapunov
    equation ``A^T W + W A + H_1^T H_1 = 0``.  The quadratic term's parts are
    the output coefficients, ``rho_s = H_s``.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    fac = SchurFactor(sys.A)
    _check_hurwitz(fac.eigvals)
    H1 = sys.h.term(1)
    W = _solve_energy_degree(fac, 2, lambda: H1.T @ H1).reshape(fac.n, fac.n)
    return _energy_series(sys, fac, 0.5 * (W + W.T).reshape(-1), lambda v, k: sys.h.terms, d)


def solve_controllability_energy(sys, d):
    """Controllability energy to degree ``d`` from the Hamilton-Jacobi equation.

    Degree 2 inverts the controllability Gramian, the k = 2 solve on the Schur
    form of ``A^T`` (the Hessian of the energy is the Gramian inverse); each
    degree k >= 3 solves against ``L_k(A + B B^T V_2)^T``, whose operator is
    nonsingular for a Hurwitz, controllable linearization, all sharing one
    Schur form.  The quadratic input term ``1/2 |dE/dx g(x)|^2`` pairs the
    degree-s parts ``rho_s`` of ``dE/dx g``, each one batched contraction per
    degree pair over the stacked input coefficients ``G_p = [G_p^(1) ...
    G_p^(m)]``, for constant and state-dependent ``g`` alike.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    n, A, B = sys.n, sys.A, sys.B
    gram = SchurFactor(A.T)  # for A Wc + Wc A^T + B B^T = 0
    _check_hurwitz(gram.eigvals)
    Wc = _solve_energy_degree(gram, 2, lambda: B @ B.T).reshape(n, n)
    Wc = 0.5 * (Wc + Wc.T)
    cond = np.linalg.cond(Wc)
    if not np.isfinite(cond) or cond > 1e13:
        raise HypothesisViolation(
            f"controllability Gramian is numerically singular (cond {cond:.3g}); "
            "the linearization is not controllable"
        )
    # LAPACK's positive-definite solve, as scipy.linalg.solve(Wc, I,
    # assume_a="pos") makes it
    _, V2, info = dposv(Wc, np.eye(n), lower=0)
    if info:
        raise np.linalg.LinAlgError("controllability Gramian is not positive definite")
    V2 = 0.5 * (V2 + V2.T)
    fac = SchurFactor(A + B @ B.T @ V2)
    m = sys.m
    G = {p: sys.stacked_g(p) for p in set().union(*(gc.terms for gc in sys.g))}

    def rho(v, k):
        # the degree-s parts of (dE/dx) g, all m columns at once, excluding
        # the unknown v_k (its linear appearance is folded into A + B B^T V_2);
        # v_i is symmetric, so its first slot stands in for all i
        parts = {}
        for s in range(1, k):
            for i in range(2, min(s + 1, k - 1) + 1):
                p = s - i + 1
                if p in G:
                    term = 0.5 * i * (G[p].T @ v[i].reshape(n, -1)).reshape(m, -1)
                    parts[s] = term if s not in parts else parts[s] + term
        return parts

    return _energy_series(sys, fac, V2.reshape(-1), rho, d)


def hjb_residual(E, sys, x, which):
    """Left-hand side of the chosen energy PDE evaluated at ``x``.

    ``which`` is ``"controllability"`` (Hamilton-Jacobi equation, with the
    quadratic input term) or ``"observability"`` (Lyapunov-like equation).
    """
    x = np.asarray(x, dtype=float)
    grad = E.gradient(x)
    if which == "controllability":
        gu = grad @ sys.input_matrix(x)
        return grad @ sys.f(x) + 0.5 * float(gu @ gu)
    if which == "observability":
        y = sys.h(x)
        return grad @ sys.f(x) + 0.5 * float(y @ y)
    raise ValueError("which must be 'controllability' or 'observability'")
