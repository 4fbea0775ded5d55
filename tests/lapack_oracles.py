"""Test oracles for the LAPACK calls of :mod:`nlbt.energy` and :mod:`nlbt.inod`.

nlbt calls ``zgees``, ``dposv``, ``dpotrf``, ``dtrtrs`` and ``dgesdd``
itself, with the flags and workspaces that scipy.linalg's checked wrappers
pass.  Each oracle makes the same computation through those wrappers, so
tests can check that the direct calls give the wrappers' results bit for bit.
"""

import numpy as np
import scipy.linalg as la

from nlbt.errors import HypothesisViolation
from nlbt.inod import _GAP_RTOL, _SIGN_TIE_RTOL


def complex_schur(M):
    """``(T, Z)`` with ``M = Z T Z^H``, from ``scipy.linalg.schur``."""
    return la.schur(M, output="complex")


def gramian_inverse(Wc):
    """``Wc^-1`` from ``scipy.linalg.solve`` for a positive definite ``Wc``."""
    return la.solve(Wc, np.eye(Wc.shape[0]), assume_a="pos")


def linear_balancing(Ec, Eo):
    """:func:`nlbt.inod.linear_balancing` through scipy.linalg's wrappers."""
    try:
        R = la.cholesky(Ec.hessian, lower=True)
        Lo = la.cholesky(Eo.hessian, lower=True)
    except la.LinAlgError as exc:
        raise HypothesisViolation("energy Hessians are not positive definite") from exc
    U, s, Vh = la.svd(la.solve_triangular(R, Lo, lower=True).T)
    if s[-1] <= _GAP_RTOL * s[0] or (s.size > 1 and np.min(-np.diff(s)) < _GAP_RTOL * s[0]):
        raise HypothesisViolation("zero or repeated Hankel singular values")
    T1 = la.solve_triangular(R, Vh.T, lower=True, trans="T")
    T1inv = (U / s).T @ Lo.T
    mags = np.abs(T1)
    picks = np.argmax(mags >= (1.0 - _SIGN_TIE_RTOL) * mags.max(axis=0), axis=0)
    signs = np.sign(T1[picks, np.arange(T1.shape[1])])
    signs[signs == 0] = 1.0
    T1 *= signs[None, :]
    T1inv *= signs[:, None]
    return T1, T1inv, s


def resonant(eigvals, k):
    """Whether some sum of ``k`` of ``eigvals`` is below the resonance tolerance.

    Forms all ``n^k`` sums, as :meth:`nlbt.energy.SchurFactor._check_resonance`
    does when its one-sign bound does not decide.
    """
    sums = eigvals
    for _ in range(k - 1):
        sums = sums[..., None] + eigvals
    tol = 1e-12 * max(float(np.abs(eigvals).max()), 1.0) * k
    return bool(np.abs(sums).min() < tol)
