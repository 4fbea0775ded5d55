"""Implicit evaluation of the balanced realization via Newton iterations.

This path never forms the balancing-transformation polynomial: it evaluates
the scaling map by root finding on the inverse scaling relation
``z_i sqrt(sigma_i(z_i)) = zbar_i`` and chains it with the explicit
input-normal/output-diagonal transform.  Much slower than the polynomial
realization (every evaluation lifts to the full order), so it serves as an
independent cross-check and an optional full-order evaluator.
"""

import numpy as np
import scipy.linalg as la

from .errors import NewtonDivergence

__all__ = [
    "eval_inverse_scaling",
    "newton_scaling",
    "eval_forward_balancing_newton",
    "balancing_jacobian_newton",
    "newton_inverse_balancing",
    "eval_balanced_rhs_newton",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50


def _sigma(sq_sv, z):
    s2 = sq_sv.value(z)
    if np.any(s2 <= 0):
        raise NewtonDivergence(
            "sigma^2 evaluated nonpositive: outside the region of validity",
            last_iterate=np.asarray(z, dtype=float),
        )
    return np.sqrt(s2)


def eval_inverse_scaling(sq_sv, z):
    """``zbar = z * (sigma^2(z))**(1/4)`` componentwise."""
    z = np.asarray(z, dtype=float)
    return z * _sigma(sq_sv, z) ** 0.5


def _inverse_scaling_jacobian_diag(sq_sv, z):
    """Diagonal of ``d(z sqrt(sigma(z)))/dz``: sqrt(sigma) + z sigma'/(2 sqrt(sigma))."""
    sig = _sigma(sq_sv, z)
    dsig = sq_sv.derivative(z) / (2.0 * sig)
    return np.sqrt(sig) + 0.5 * z / np.sqrt(sig) * dsig


def newton_scaling(sq_sv, zbar, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve ``z * sqrt(sigma(z)) = zbar`` by Newton iteration.

    The initial guess applies the constant-sigma scaling at ``zbar``, which
    already solves the problem when the singular value functions are constant.
    """
    zbar = np.asarray(zbar, dtype=float)
    s2_guess = sq_sv.value(zbar)
    # outside the series' positivity region, seed with the origin scaling
    s2_guess = np.where(s2_guess > 0, s2_guess, sq_sv.coeffs[:, 0])
    z = zbar / s2_guess ** 0.25
    for _ in range(max_iter):
        resid = z * _sigma(sq_sv, z) ** 0.5 - zbar
        if np.max(np.abs(resid)) <= tol:
            return z
        jac = _inverse_scaling_jacobian_diag(sq_sv, z)
        if np.any(np.abs(jac) < 1e-14):
            raise NewtonDivergence(
                "singular scaling Jacobian entry", last_iterate=z, residual=resid
            )
        z = z - resid / jac
    resid = z * _sigma(sq_sv, z) ** 0.5 - zbar
    if np.max(np.abs(resid)) <= tol:
        return z
    raise NewtonDivergence(
        f"scaling Newton iteration did not reach tol={tol:g}",
        last_iterate=z,
        residual=resid,
    )


def eval_forward_balancing_newton(inod, zbar, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """``x = Phi(phi(zbar))``: Newton for the scaling step, then the transform."""
    z = newton_scaling(inod.sq_sv, zbar, tol=tol, max_iter=max_iter)
    return inod.transform(z)


def _lift(inod, zbar, tol, max_iter):
    """``x = Phi(phi(zbar))`` and the balancing Jacobian ``dx/dzbar`` there.

    One scaling solve gives ``z = phi(zbar)``; the scaling Jacobian is the
    inverse of the (diagonal) inverse-scaling Jacobian at ``z``, so the chain
    rule divides the columns of ``dPhi/dz`` by that diagonal.
    """
    z = newton_scaling(inod.sq_sv, zbar, tol=tol, max_iter=max_iter)
    diag = _inverse_scaling_jacobian_diag(inod.sq_sv, z)
    if np.any(np.abs(diag) < 1e-14):
        raise NewtonDivergence("singular scaling Jacobian entry", last_iterate=z)
    return inod.transform(z), inod.transform.jacobian(z) / diag[None, :]


def balancing_jacobian_newton(inod, zbar, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Jacobian of the balancing transformation by the chain rule."""
    return _lift(inod, zbar, tol, max_iter)[1]


def newton_inverse_balancing(inod, x, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve ``Phi(phi(zbar)) = x`` by Newton iteration, starting from the
    linearized inverse ``Tbar_1^{-1} x``."""
    x = np.asarray(x, dtype=float)
    sig = inod.hankel
    zbar = (inod.t1_inverse @ x) * sig ** 0.5
    for _ in range(max_iter):
        x_k, J = _lift(inod, zbar, tol, max_iter)
        resid = x_k - x
        if np.max(np.abs(resid)) <= tol:
            return zbar
        zbar = zbar - la.solve(J, resid)
    resid = eval_forward_balancing_newton(inod, zbar, tol=tol, max_iter=max_iter) - x
    if np.max(np.abs(resid)) <= tol:
        return zbar
    raise NewtonDivergence(
        f"inverse balancing Newton did not reach tol={tol:g}",
        last_iterate=zbar,
        residual=resid,
    )


def eval_balanced_rhs_newton(sys, inod, zbar, u, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """One evaluation of the implicit balanced realization.

    Lifts to ``x``, evaluates the full-order dynamics and output, and
    premultiplies by the inverse balancing Jacobian.  Returns ``(zbar_dot, y)``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x, J = _lift(inod, zbar, tol, max_iter)
    return la.solve(J, sys.rhs(x, u)), sys.h(x)
