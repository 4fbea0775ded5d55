"""Input-normal/output-diagonal transformation and squared singular value functions.

After the linear stage normalizes the energies (controllability Hessian I,
observability Hessian diag(sigma_i^2)), each transform degree k is found by
collecting the degree-(k+1) coefficients of two conditions on the composed
energies.  Their known part is each energy composed with the transform found
so far, ``Phi = T_1 (z + T_2 + ... + T_{k-1})``, by
:func:`nlbt.kron.compose_degree` over the partitions of each degree (the
energies are symmetric, and the solve below reads only column-group sums);
energy degrees that are not stored count as zero.  The controllability energy
must stay exactly quadratic, and the observability energy may carry only pure
powers z_i^(k+1) (whose values define the singular-value-function
coefficients).  The resulting linear system decouples monomial by monomial;
each monomial gives at most two equations in one unknown per distinct state,
solved in minimum-norm least-squares sense.
That gauge choice is one of many valid ones, so tests should assert the
residual contracts and the sigma^2 series rather than raw coefficients.
"""

import math
from functools import lru_cache

import numpy as np
import scipy.linalg as la

from .errors import ContractViolation, HypothesisViolation
from .kron import PolyMap, column_multi_indices, compose_degree
from .kron import _group_sums, _symmetry_groups

__all__ = [
    "SqSingularValueFns",
    "InodResult",
    "linear_balancing",
    "compute_inod_transform",
]


class SqSingularValueFns:
    """Per-state scalar series ``sigma_i^2(z_i) = c_0 + c_1 z_i + ...``.

    ``coeffs`` has shape ``(n, d+1)``; row i holds the coefficients for state i.
    """

    def __init__(self, coeffs):
        self.coeffs = np.array(coeffs, dtype=float, ndmin=2)
        if np.any(self.coeffs[:, 0] <= 0):
            raise HypothesisViolation("sigma^2 constant terms must be positive")
        self.coeffs.setflags(write=False)

    @property
    def n(self):
        return self.coeffs.shape[0]

    def value(self, z):
        """Componentwise ``sigma_i^2(z_i)`` for a state vector ``z``."""
        z = np.asarray(z, dtype=float)
        out = self.coeffs[:, -1].copy()
        for j in range(self.coeffs.shape[1] - 2, -1, -1):
            out = out * z + self.coeffs[:, j]
        return out

    def derivative(self, z):
        """Componentwise ``d sigma_i^2 / d z_i``."""
        z = np.asarray(z, dtype=float)
        d = self.coeffs.shape[1] - 1
        if d == 0:
            return np.zeros(self.n)
        out = d * self.coeffs[:, -1].copy()
        for j in range(d - 1, 0, -1):
            out = out * z + j * self.coeffs[:, j]
        return out

    def hankel_values(self):
        return np.sqrt(self.coeffs[:, 0])


class InodResult:
    """Transform ``x = Phi(z)`` plus the squared singular value functions."""

    def __init__(self, transform, t1_inverse, sq_sv):
        self.transform = transform
        self.t1_inverse = np.asarray(t1_inverse, dtype=float)
        self.sq_sv = sq_sv

    @property
    def hankel(self):
        return self.sq_sv.hankel_values()


# relative tolerance within which entries of a T_1 column tie for its sign
_SIGN_TIE_RTOL = 1e-12
# relative to sigma_1: a Hankel value this small is zero, a gap this small a repeat
_GAP_RTOL = 1e-10


def linear_balancing(Ec, Eo):
    """Linear input-normal/output-diagonal stage via square-root balancing.

    Returns ``(T1, T1_inverse, hankel)`` with ``T1^T V2(Ec) T1 = I`` and
    ``T1^T V2(Eo) T1 = diag(hankel**2)``.  The inverse comes from the SVD
    factors, not a matrix inversion.  Each column of ``T1`` is signed so that
    its first entry within a relative 1e-12 of the column's largest magnitude
    is positive.  Raises :class:`HypothesisViolation` for indefinite Hessians
    or repeated/zero Hankel singular values.
    """
    V2 = Ec.hessian
    W2 = Eo.hessian
    try:
        # V2 is the Gramian inverse; factor the Gramian itself
        Wc = la.solve(V2, np.eye(V2.shape[0]), assume_a="pos")
        Lc = la.cholesky(Wc, lower=True)
        Lo = la.cholesky(W2, lower=True)
    except la.LinAlgError as exc:
        raise HypothesisViolation(
            "energy Hessians are not positive definite; the linearization is "
            "not minimal"
        ) from exc
    U, s, Vh = la.svd(Lo.T @ Lc)
    if s[-1] <= _GAP_RTOL * s[0]:
        raise HypothesisViolation(
            f"Hankel singular value {s[-1]:.3g} is numerically zero"
        )
    if s.size > 1 and np.min(-np.diff(s)) < _GAP_RTOL * s[0]:
        raise HypothesisViolation(
            "repeated Hankel singular values: "
            + ", ".join(f"{x:.6g}" for x in s)
        )
    T1 = Lc @ Vh.T
    T1inv = (U / s).T @ Lo.T
    # canonical column signs for reproducibility: the first entry whose
    # magnitude is within _SIGN_TIE_RTOL of the column's largest is positive,
    # so entries that tie up to rounding (2d-illustrative's +-0.7071) do not
    # leave the sign to the rounding of the model's coefficients
    mags = np.abs(T1)
    picks = np.argmax(mags >= (1.0 - _SIGN_TIE_RTOL) * mags.max(axis=0), axis=0)
    signs = np.sign(T1[picks, np.arange(T1.shape[1])])
    signs[signs == 0] = 1.0
    T1 *= signs[None, :]
    T1inv *= signs[:, None]
    return T1, T1inv, s


def compute_inod_transform(Ec, Eo, d_transf):
    """Degree-``d_transf`` input-normal/output-diagonal transform.

    Needs energies to degree ``d_transf + 1``.  The returned transform
    satisfies, up to the stated order,

    - ``Ec(Phi(z)) = 1/2 |z|^2 + O(|z|^(d_transf+2))``
    - ``Eo(Phi(z)) = 1/2 sum_i z_i^2 sigma_i^2(z_i) + O(|z|^(d_transf+2))``

    with no cross terms in the observability energy through degree
    ``d_transf + 1``.
    """
    n = Ec.n
    if Eo.n != n:
        raise ValueError("energy dimensions differ")
    if d_transf < 1:
        raise ValueError("transform degree must be at least 1")
    if Ec.degree < 2 or Eo.degree < 2:
        raise ValueError("energies must reach degree 2")
    # energy degrees above the stored maximum are treated as exactly zero
    T1, T1inv, hankel = linear_balancing(Ec, Eo)
    sig2 = hankel ** 2
    # each energy as a 1-row map, composed with the transform found so far
    ec_map = {k: v[None, :] for k, v in Ec.coeffs.items()}
    eo_map = {k: v[None, :] for k, v in Eo.coeffs.items()}
    Phi = {1: T1}
    c = np.zeros((n, max(d_transf, 1)))
    c[:, 0] = sig2
    for k in range(2, d_transf + 1):
        # Phi holds degrees < k: the known part of the degree-(k+1) energies
        known_a = _composed_energy(ec_map, Phi, n, k + 1)
        known_b = _composed_energy(eo_map, Phi, n, k + 1)
        Tk, c_k = _solve_degree(known_a, known_b, sig2, n, k)
        Phi[k] = T1 @ Tk
        c[:, k - 1] = c_k
    transform = PolyMap._adopt(Phi, n, n)
    result = InodResult(transform, T1inv, SqSingularValueFns(c))
    _check_contracts(result, Ec, Eo, d_transf)
    return result


def _composed_energy(E, Phi, n, q):
    """Degree-q coefficient vector of ``E(Phi(z))`` up to column symmetry; zeros if none."""
    acc = compose_degree(E, Phi, q)
    return np.zeros(n ** q) if acc is None else acc.ravel()


@lru_cache(maxsize=8)
def _degree_structure(n, k):
    """Sigma-independent combinatorics of the degree-k per-monomial solve."""
    q = k + 1
    # monomials are the column groups of equal multisets
    inv_q, counts_q, _ = _symmetry_groups(n, q)
    inv_k, _, reps_k = _symmetry_groups(n, k)
    monos_k = column_multi_indices(n, k)[reps_k]  # (Mk, k) sorted representatives
    Mk = monos_k.shape[0]
    occ = (monos_k[:, :, None] == np.arange(n)[None, None, :]).sum(axis=1)  # (Mk, n)
    fact = np.array([math.factorial(j) for j in range(k + 2)], dtype=float)
    prodfact_mu = fact[occ].prod(axis=1)  # prod of count! over states, per monomial

    # all (state, monomial) pairs: the pair (i, mu) belongs to monomial mu+{i}
    states = np.repeat(np.arange(n), Mk)          # pair -> state i
    mus = np.tile(np.arange(Mk), n)               # pair -> degree-k monomial id
    pair_keys = np.sort(
        np.concatenate([monos_k[mus], states[:, None]], axis=1), axis=1
    )
    col_pair = np.zeros(pair_keys.shape[0], dtype=np.int64)
    for j in range(q):
        col_pair = col_pair * n + pair_keys[:, j]
    mid = inv_q[col_pair]                         # pair -> degree-q monomial id

    w = occ[mus, states] + 1.0                    # multiplicity of i in mu+{i}
    base = fact[k] / (prodfact_mu[mus] * w)       # arrangements of mu+{i} minus one i
    nm = counts_q.size
    npairs = np.bincount(mid, minlength=nm)
    return inv_k, Mk, states, mid, w, base, nm, npairs


def _solve_degree(known_a, known_b, sig2, n, k):
    """Per-monomial minimum-norm solve for the degree-k transform coefficients.

    Unknowns are the entries ``T[i, mu]`` over (state, degree-k monomial)
    pairs; the pair belongs to the degree-(k+1) monomial ``mu + {i}``.  Each
    monomial contributes the two scalar equations described in the module
    docstring.
    """
    inv_k, Mk, states, mid, w, base, nm, npairs = _degree_structure(n, k)
    alpha, beta = (_group_sums(c[None, :], n, k + 1)[0] for c in (known_a, known_b))
    s2 = sig2[states]
    S2 = np.bincount(mid, weights=w * w, minlength=nm)
    S2s = np.bincount(mid, weights=w * w * s2, minlength=nm)
    S2ss = np.bincount(mid, weights=w * w * s2 * s2, minlength=nm)
    base_m = np.zeros(nm)
    base_m[mid] = base                            # identical for all pairs of a monomial

    ra = -alpha / (2.0 * base_m)
    rb = -beta / (2.0 * base_m)

    pure = npairs == 1
    mixed = ~pure
    # minimum-norm solution of [w.u ; w s2.u] = [ra ; rb] via the 2x2 normal matrix
    det = S2 * S2ss - S2s ** 2
    det_scale = np.where(mixed, S2 * S2ss, 1.0)
    if np.any(mixed & (det <= 1e-12 * det_scale)):
        raise HypothesisViolation(
            "singular-value functions too close: the degree-%d transform solve "
            "is rank deficient beyond its gauge freedom" % k
        )
    lam1 = np.zeros(nm)
    lam2 = np.zeros(nm)
    lam1[mixed] = (S2ss[mixed] * ra[mixed] - S2s[mixed] * rb[mixed]) / det[mixed]
    lam2[mixed] = (-S2s[mixed] * ra[mixed] + S2[mixed] * rb[mixed]) / det[mixed]

    u = np.where(
        pure[mid],
        ra[mid] / w,
        w * (lam1[mid] + s2 * lam2[mid]),
    )
    vals = u.reshape(n, Mk)
    Tk = vals[:, inv_k]

    # pure-power monomials define the next sigma^2 coefficients
    c_k = np.zeros(n)
    pure_pairs = pure[mid]
    ci = states[pure_pairs]
    c_k[ci] = 2.0 * base[pure_pairs] * w[pure_pairs] * s2[pure_pairs] * u[pure_pairs] + beta[
        mid[pure_pairs]
    ]
    return Tk, c_k


def _contracts_short(prev, cur, floor, d_transf):
    """One decade of shrinkage bought less than 10^(d_transf+1.5), elementwise.

    A residual at the rounding floor passes; written so that NaN fails.
    """
    cur = np.abs(cur)
    return ~(cur <= floor) & ~(cur <= np.abs(prev) * 10 ** -(d_transf + 1.5))


def _check_contracts(result, Ec, Eo, d_transf, n_dirs=2, seed=0):
    """Internal consistency check: the residual contracts must contract.

    Both conditions are evaluated on shrinking rays.  In exact arithmetic a
    decade of shrinkage reduces the residuals by 10^(d_transf+2); here one
    decade must buy at least 10^(d_transf+1.5) unless the residual on the
    inner radius sits at the relative rounding floor.  A wrong coefficient of
    any degree up to ``d_transf`` leaves a residual term of lower order, which
    contracts too slowly, and a NaN residual fails.  The check raises only if
    the shortfall from radius 3e-2 to 3e-3 persists from 1e-2 to 1e-3: a
    correct transform whose next-order residual term cancels part of the
    leading one at 3e-2 falls short on the first pair only, because that term
    is 3x weaker at 1e-2.  Scale-free, so it works for badly scaled models.
    """
    if d_transf < 2:
        return
    dirs = np.random.default_rng(seed).standard_normal((n_dirs, Ec.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sig2 = result.sq_sv

    def short(outer, inner):
        # both residuals on every ray at both radii, as one batch per map
        Z = np.concatenate([outer * dirs, inner * dirs])
        X = result.transform.evaluate(Z)
        ec, eo = Ec.value(X), Eo.value(X)
        ra = ec - 0.5 * np.sum(Z ** 2, axis=1)
        rb = eo - 0.5 * np.sum(Z ** 2 * sig2.value(Z), axis=1)
        floor = 1e-8 * np.maximum(np.maximum(np.abs(ec), np.abs(eo)), 1e-300)[n_dirs:]
        return np.array([
            _contracts_short(r[:n_dirs], r[n_dirs:], floor, d_transf) for r in (ra, rb)
        ])

    failing = short(3e-2, 3e-3)
    # the confirming pair is evaluated only after a shortfall
    if failing.any() and (failing & short(1e-2, 1e-3)).any():
        raise ContractViolation(
            "input-normal/output-diagonal residual does not contract; "
            "the degree solve is inconsistent"
        )
