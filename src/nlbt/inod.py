"""Input-normal/output-diagonal transformation and squared singular value functions.

After the linear stage normalizes the energies (controllability Hessian I,
observability Hessian diag(sigma_i^2)), each transform degree k is found by
collecting the degree-(k+1) coefficients of two conditions on the composed
energies.  Their known part is both energies, stacked as one 2-row map,
composed with the transform found so far, ``Phi = T_1 (z + T_2 + ... +
T_{k-1})``: one :func:`nlbt.kron.compose_degree` per degree, over its
partitions (the energies are symmetric, and the solve below reads only
column-group sums); energy degrees that are not stored count as zero.  The controllability energy
must stay exactly quadratic, and the observability energy may carry only pure
powers z_i^(k+1) (whose values define the singular-value-function
coefficients).  The resulting linear system decouples monomial by monomial;
each monomial gives at most two equations in one unknown per distinct state,
solved in minimum-norm least-squares sense.
That gauge choice is one of many valid ones, so tests should assert the
residual contracts and the sigma^2 series rather than raw coefficients.

The linear stage calls LAPACK directly (``dpotrf``, ``dtrtrs``, ``dgesdd``)
with the flags and workspace of ``scipy.linalg``'s ``cholesky``,
``solve_triangular`` and ``svd``, so its results are theirs bit for bit.  The
contract check's rays are drawn once per ray count, dimension and seed, and
kept read-only.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgesdd, dgesdd_lwork, dpotrf, dtrtrs

from .errors import ContractViolation, HypothesisViolation
from .kron import PolyMap, compose_degree
from .kron import _Compact, _group_sums, _raise_table, _symmetry_groups

__all__ = [
    "SqSingularValueFns",
    "InodResult",
    "linear_balancing",
    "compute_inod_transform",
]


class SqSingularValueFns:
    """Per-state scalar series ``sigma_i^2(z_i) = c_0 + c_1 z_i + ...``.

    ``coeffs`` has shape ``(n, d+1)``; row i holds the coefficients for state i.
    Every evaluation goes through :meth:`value_and_derivative`, one Horner
    pass that gives ``sigma_i^2`` and its derivative together.
    """

    def __init__(self, coeffs):
        self.coeffs = np.array(coeffs, dtype=float, ndmin=2)
        if np.any(self.coeffs[:, 0] <= 0):
            raise HypothesisViolation("sigma^2 constant terms must be positive")
        self.coeffs.setflags(write=False)
        # sigma^2 and its derivative as one series with (2, n) coefficients,
        # zero-padded to degree max(d, 1): Horner on it runs both at once
        d = self.coeffs.shape[1] - 1
        self._horner = np.zeros((max(d, 1) + 1, 2, self.n))
        self._horner[: d + 1, 0] = self.coeffs.T
        self._horner[:d, 1] = (self.coeffs[:, 1:] * np.arange(1, d + 1)).T

    @property
    def n(self):
        return self.coeffs.shape[0]

    def value_and_derivative(self, z):
        """Componentwise ``sigma_i^2(z_i)`` and ``d sigma_i^2 / d z_i``.

        ``z`` is a state vector, a batch with states along the last axis, or
        a scalar that every state takes.  Each value is rounded as a lone
        Horner evaluation of its series would round it: the zero pads enter
        only as ``0 z + c``.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim:
            z = z[..., None, :]  # against the (2, n) coefficients
        S = self._horner
        vd = S[-1] * z + S[-2]
        for j in range(S.shape[0] - 3, -1, -1):
            vd = vd * z + S[j]
        return vd[..., 0, :], vd[..., 1, :]

    def value(self, z):
        """Componentwise ``sigma_i^2(z_i)``."""
        return self.value_and_derivative(z)[0]

    def derivative(self, z):
        """Componentwise ``d sigma_i^2 / d z_i``."""
        return self.value_and_derivative(z)[1]

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


@lru_cache(maxsize=64)
def _gesdd_lwork(n):
    """dgesdd's optimal workspace for a full SVD of order n; the query reads only n."""
    work, info = dgesdd_lwork(n, n, compute_uv=1, full_matrices=1)
    return int(work.real)


def _cholesky_lower(H):
    """Lower Cholesky factor of a Hessian, or :class:`HypothesisViolation`."""
    L, info = dpotrf(H, lower=1)
    if info:
        raise HypothesisViolation(
            "energy Hessians are not positive definite; the linearization is "
            "not minimal"
        )
    return L


def linear_balancing(Ec, Eo):
    """Linear input-normal/output-diagonal stage via square-root balancing.

    Returns ``(T1, T1_inverse, hankel)`` with ``T1^T V2(Ec) T1 = I`` and
    ``T1^T V2(Eo) T1 = diag(hankel**2)``.  ``V2(Ec)`` is the Gramian inverse:
    its Cholesky factor ``V2 = R R^T`` gives the Gramian's factor ``R^-T``,
    so the SVD of ``(R^-1 L_o)^T`` and ``T1 = R^-T V`` take two triangular
    solves and no inversion; the inverse comes from the SVD factors.  Each
    column of ``T1`` is signed so that its first entry within a relative
    1e-12 of the column's largest magnitude is positive.  Raises
    :class:`HypothesisViolation` for indefinite Hessians or repeated/zero
    Hankel singular values.
    """
    if not (np.isfinite(Ec.hessian).all() and np.isfinite(Eo.hessian).all()):
        raise ValueError("energy Hessians must not contain infs or NaNs")
    # the LAPACK calls, flags and workspaces of scipy.linalg's cholesky,
    # solve_triangular and svd
    R = _cholesky_lower(Ec.hessian)
    Lo = _cholesky_lower(Eo.hessian)
    U, s, Vh, info = dgesdd(dtrtrs(R, Lo, lower=1)[0].T, lwork=_gesdd_lwork(R.shape[0]))
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    if s[-1] <= _GAP_RTOL * s[0]:
        raise HypothesisViolation(
            f"Hankel singular value {s[-1]:.3g} is numerically zero"
        )
    if s.size > 1 and (s[:-1] - s[1:]).min() < _GAP_RTOL * s[0]:
        raise HypothesisViolation(
            "repeated Hankel singular values: "
            + ", ".join(f"{x:.6g}" for x in s)
        )
    T1 = dtrtrs(R, Vh.T, lower=1, trans=1)[0]
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
    # both energies as one 2-row map, composed with the transform found so far
    ec, eo = Ec._doubled, Eo._doubled
    energies = {k: np.vstack([ec.term(k), eo.term(k)]) for k in {*ec.terms, *eo.terms}}
    Phi = {1: T1}
    c = np.zeros((n, max(d_transf, 1)))
    c[:, 0] = sig2
    for k in range(2, d_transf + 1):
        # Phi holds degrees < k: the known part of the degree-(k+1) energies
        Tk, c_k = _solve_degree(compose_degree(energies, Phi, k + 1), sig2, n, k)
        Phi[k] = T1 @ Tk
        c[:, k - 1] = c_k
    del energies  # a copy of both energies: freed before the contract check's own peak
    transform = PolyMap._adopt(Phi, n, n)
    result = InodResult(transform, T1inv, SqSingularValueFns(c))
    _check_contracts(result, Ec, Eo, d_transf)
    return result


@lru_cache(maxsize=64)
def _degree_structure(n, k):
    """Sigma-independent combinatorics of the degree-k per-monomial solve."""
    inv_k, counts_k, _ = _symmetry_groups(n, k)
    nm = _symmetry_groups(n, k + 1)[1].size
    up, mult = _raise_table(n, k + 1)
    Mk = up.shape[0]
    # all (state, monomial) pairs, state-major: the pair (i, mu) belongs to monomial mu+{i}
    states = np.repeat(np.arange(n), Mk)          # pair -> state i
    mid = up.T.ravel().astype(np.intp)            # pair -> degree-(k+1) monomial id
    w = mult.T.ravel().astype(float)              # multiplicity of i in mu+{i}
    base = np.tile(counts_k, n) / w               # arrangements of mu+{i} minus one i
    npairs = np.bincount(mid, minlength=nm)
    return inv_k, Mk, states, mid, w, base, nm, npairs


def _solve_degree(known, sig2, n, k):
    """Per-monomial minimum-norm solve for the degree-k transform coefficients.

    ``known`` holds the degree-(k+1) coefficients of both composed energies
    (controllability, then observability) up to column symmetry, or is None
    when no energy term reaches that degree.  Unknowns are the entries
    ``T[i, mu]`` over (state, degree-k monomial) pairs; the pair belongs to
    the degree-(k+1) monomial ``mu + {i}``.  Each monomial contributes the
    two scalar equations described in the module docstring.
    """
    inv_k, Mk, states, mid, w, base, nm, npairs = _degree_structure(n, k)
    alpha, beta = np.zeros((2, nm)) if known is None else _group_sums(known, n, k + 1)
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


@lru_cache(maxsize=64)
def _rays(n_dirs, n, seed):
    """``n_dirs`` seeded unit directions in R^n, drawn once and kept read-only."""
    dirs = np.random.default_rng(seed).standard_normal((n_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs.setflags(write=False)
    return dirs


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
    dirs = _rays(n_dirs, Ec.n, seed)
    sig2 = result.sq_sv
    # folded once for both ray pairs; the energies stacked as one 2-row map
    transform = _Compact.fold([result.transform])
    energies = _Compact.fold([Ec._doubled, Eo._doubled])

    def short(outer, inner):
        # both residuals on every ray at both radii, as one batch per map
        Z = np.concatenate([outer * dirs, inner * dirs])
        ec, eo = 0.5 * energies(transform(Z.T))
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
