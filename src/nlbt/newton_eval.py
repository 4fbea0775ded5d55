"""Implicit evaluation of the balanced realization via Newton iterations.

This path never forms the balancing-transformation polynomial: it evaluates
the scaling map by root finding on the inverse scaling relation
``z_i sqrt(sigma_i(z_i)) = zbar_i`` and chains it with the explicit
input-normal/output-diagonal transform.  Much slower than the polynomial
realization (every evaluation lifts to the full order), so it serves as an
independent cross-check and an optional full-order evaluator.

:func:`eval_balanced_rhs_newton` is the full-order evaluator.  The other five
functions are the cross-check API, one per polynomial the pipeline builds:
:func:`eval_inverse_scaling` (``z -> zbar``, the series of
:func:`nlbt.scaling.inverse_scaling_series`), :func:`newton_scaling` (the
scaling map), :func:`eval_forward_balancing_newton` (``Tbar``),
:func:`balancing_jacobian_newton` (its Jacobian) and
:func:`newton_inverse_balancing` (the series inverse ``P``).

Each scaling-Newton iterate costs one pass of
:meth:`~nlbt.inod.SqSingularValueFns.value_and_derivative`, which gives the
residual and the diagonal Jacobian together.  The solve returns the Newton
step from the first iterate within ``tol``, so the scaling is accurate to
rounding at no extra pass; the lift to ``(x, dx/dzbar)`` reuses its
diagonal.  The n x n solves go through ``numpy.linalg.solve``: at the small
n this path serves, scipy's input checks cost more than the LAPACK call.
"""

import numpy as np

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


def _scaling_terms(sq_sv, z):
    """``q = (sigma^2(z))**(1/4)`` and the diagonal of ``d(z q)/dz`` from one sigma^2 pass.

    The diagonal is ``q + z sigma^2' / (4 q^3)``, written through
    ``sigma = q^2`` as ``q + (z / (2q)) (sigma^2' / (2 sigma))``.
    """
    s2, ds2 = sq_sv.value_and_derivative(z)
    if (s2 <= 0).any():
        raise NewtonDivergence(
            "sigma^2 evaluated nonpositive: outside the region of validity",
            last_iterate=np.asarray(z, dtype=float),
        )
    sig = np.sqrt(s2)
    q = np.sqrt(sig)
    return q, q + 0.5 * z / q * (ds2 / (2.0 * sig))


def eval_inverse_scaling(sq_sv, z):
    """``zbar = z * (sigma^2(z))**(1/4)`` componentwise."""
    z = np.asarray(z, dtype=float)
    return z * _scaling_terms(sq_sv, z)[0]


def _solve_scaling(sq_sv, zbar, tol, max_iter):
    """:func:`newton_scaling`'s ``z``, and the diagonal of ``dzbar/dz`` there.

    One sigma^2 pass at ``zbar`` seeds the iteration; after that every
    iterate is evaluated once.  The first one within ``tol`` returns its own
    Newton step ``z - resid / diag``, so ``z`` is accurate to rounding, and
    the diagonal of that pass, checked to be nonsingular.
    """
    zbar = np.asarray(zbar, dtype=float)
    s2_guess = sq_sv.value_and_derivative(zbar)[0]
    # outside the series' positivity region, seed with the origin scaling
    s2_guess = np.where(s2_guess > 0, s2_guess, sq_sv.coeffs[:, 0])
    z = zbar / s2_guess ** 0.25
    for it in range(max_iter + 1):
        q, diag = _scaling_terms(sq_sv, z)
        resid = z * q - zbar
        if (abs(diag) < 1e-14).any():
            raise NewtonDivergence(
                "singular scaling Jacobian entry", last_iterate=z, residual=resid
            )
        step = resid / diag
        if abs(resid).max() <= tol:
            return z - step, diag
        if it < max_iter:
            z = z - step
    raise NewtonDivergence(
        f"scaling Newton iteration did not reach tol={tol:g}",
        last_iterate=z,
        residual=resid,
    )


def newton_scaling(sq_sv, zbar, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Solve ``z * sqrt(sigma(z)) = zbar`` by Newton iteration.

    The initial guess applies the constant-sigma scaling at ``zbar``, which
    already solves the problem when the singular value functions are constant.
    """
    return _solve_scaling(sq_sv, zbar, tol, max_iter)[0]


def eval_forward_balancing_newton(inod, zbar, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """``x = Phi(phi(zbar))``: Newton for the scaling step, then the transform."""
    z = newton_scaling(inod.sq_sv, zbar, tol=tol, max_iter=max_iter)
    return inod.transform(z)


def _lift(inod, zbar, tol, max_iter):
    """``x = Phi(phi(zbar))`` and the balancing Jacobian ``dx/dzbar`` there.

    One scaling solve gives ``z = phi(zbar)`` and the (diagonal)
    inverse-scaling Jacobian at ``z``; the scaling Jacobian is its inverse,
    so the chain rule divides the columns of ``dPhi/dz`` by that diagonal.
    """
    z, diag = _solve_scaling(inod.sq_sv, zbar, tol, max_iter)
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
        if abs(resid).max() <= tol:
            return zbar
        zbar = zbar - np.linalg.solve(J, resid)
    resid = eval_forward_balancing_newton(inod, zbar, tol=tol, max_iter=max_iter) - x
    if abs(resid).max() <= tol:
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
    return np.linalg.solve(J, sys.rhs(x, u)), sys.h(x)
