import numpy as np
import numpy.polynomial.polynomial as P
import numpy.testing as npt
import pytest

from conftest import ray_slope
from nlbt import models
from nlbt.errors import NewtonDivergence
from nlbt.inod import SqSingularValueFns
from nlbt.newton_eval import (
    balancing_jacobian_newton,
    eval_balanced_rhs_newton,
    eval_forward_balancing_newton,
    eval_inverse_scaling,
    newton_inverse_balancing,
    newton_scaling,
)
from nlbt.pipeline import balance


@pytest.fixture(scope="module")
def pendulum_pipeline():
    return balance(models.pendulum(5), 3)


@pytest.fixture(scope="module")
def pendulum7():
    return balance(models.pendulum(7), 7)


class TestScalingEvaluation:
    def test_constant_sigma(self):
        c = SqSingularValueFns(np.array([[4.0, 0.0], [4.0, 0.0]]))
        z = np.array([0.3, -0.2])
        npt.assert_allclose(eval_inverse_scaling(c, z), np.sqrt(2) * z, rtol=1e-14)

    def test_zero_maps_to_zero(self):
        c = SqSingularValueFns(np.array([[2.0, 0.5], [1.0, -0.3]]))
        npt.assert_allclose(eval_inverse_scaling(c, np.zeros(2)), 0, atol=1e-15)

    def test_matches_series_on_ray(self, pendulum_pipeline):
        from nlbt.scaling import inverse_scaling_series

        pl = pendulum_pipeline
        d = pl.d_transf
        a = np.array(
            [inverse_scaling_series(pl.sq_sv.coeffs[i], d) for i in range(2)]
        )

        def resid(z):
            series_val = np.array(
                [sum(a[i, j] * z[i] ** j for j in range(d + 1)) for i in range(2)]
            )
            return eval_inverse_scaling(pl.sq_sv, z) - series_val

        assert ray_slope(resid, 2, seed=0) >= d + 0.5


class TestFusedSigmaPass:
    @pytest.fixture
    def sq_sv(self):
        rng = np.random.default_rng(7)
        c = 0.5 * rng.standard_normal((3, 6))
        c[:, 0] = 1.0 + rng.random(3)
        return SqSingularValueFns(c)

    def oracle(self, sq_sv, z):
        c = sq_sv.coeffs
        z = np.atleast_2d(z)
        val = np.stack([P.polyval(z[:, i], c[i]) for i in range(c.shape[0])], axis=-1)
        der = np.stack(
            [P.polyval(z[:, i], P.polyder(c[i])) for i in range(c.shape[0])], axis=-1
        )
        return val, der

    def test_point_matches_polyval(self, sq_sv):
        z = np.array([0.3, -0.7, 1.1])
        val, der = sq_sv.value_and_derivative(z)
        want_val, want_der = self.oracle(sq_sv, z)
        assert val.shape == der.shape == (3,)
        npt.assert_allclose(val, want_val[0], rtol=1e-14, atol=1e-15)
        npt.assert_allclose(der, want_der[0], rtol=1e-14, atol=1e-15)

    def test_batch_matches_polyval(self, sq_sv):
        Z = np.random.default_rng(8).uniform(-1, 1, (5, 3))
        val, der = sq_sv.value_and_derivative(Z)
        want_val, want_der = self.oracle(sq_sv, Z)
        assert val.shape == der.shape == (5, 3)
        npt.assert_allclose(val, want_val, rtol=1e-14, atol=1e-15)
        npt.assert_allclose(der, want_der, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_low_degrees(self, d):
        c = np.arange(1.0, 2 * (d + 1) + 1).reshape(2, d + 1)
        sq_sv = SqSingularValueFns(c)
        for z in (np.array([0.4, -0.3]), np.array([[0.4, -0.3], [1.5, 2.0]])):
            val, der = sq_sv.value_and_derivative(z)
            want_val, want_der = self.oracle(sq_sv, z)
            assert val.shape == der.shape == z.shape
            npt.assert_allclose(val, want_val.reshape(z.shape), rtol=1e-15)
            npt.assert_allclose(der, want_der.reshape(z.shape), rtol=1e-15)

    def test_scalar_is_taken_by_every_state(self, sq_sv):
        val, der = sq_sv.value_and_derivative(0.4)
        want_val, want_der = sq_sv.value_and_derivative(np.full(3, 0.4))
        npt.assert_array_equal(val, want_val)
        npt.assert_array_equal(der, want_der)

    def test_value_and_derivative_are_its_parts(self, sq_sv):
        z = np.array([0.2, 0.5, -0.9])
        val, der = sq_sv.value_and_derivative(z)
        npt.assert_array_equal(sq_sv.value(z), val)
        npt.assert_array_equal(sq_sv.derivative(z), der)


class TestNewtonScaling:
    def test_constant_sigma_one_step(self):
        c = SqSingularValueFns(np.array([[9.0, 0.0], [9.0, 0.0]]))
        zbar = np.array([0.5, -1.0])
        z = newton_scaling(c, zbar)
        npt.assert_allclose(z, zbar / 9.0 ** 0.25, rtol=1e-12)

    def test_zero_fixed_point(self):
        c = SqSingularValueFns(np.array([[2.0, 0.1], [1.0, 0.2]]))
        npt.assert_allclose(newton_scaling(c, np.zeros(2)), 0, atol=1e-14)

    def test_round_trip(self, pendulum_pipeline):
        c = pendulum_pipeline.sq_sv
        zbar = np.array([0.2, -0.15])
        z = newton_scaling(c, zbar, tol=1e-12)
        npt.assert_allclose(eval_inverse_scaling(c, z), zbar, atol=1e-11)

    def test_quadratic_convergence(self, pendulum_pipeline):
        c = pendulum_pipeline.sq_sv
        zbar = np.array([0.3, -0.25])
        z_star = newton_scaling(c, zbar, tol=1e-14)
        # successive Newton steps from a perturbed point square the error
        errs = []
        z = z_star + 1e-2
        for _ in range(2):
            resid = eval_inverse_scaling(c, z) - zbar
            sig = np.sqrt(c.value(z))
            jac = np.sqrt(sig) + 0.5 * z / np.sqrt(sig) * (c.derivative(z) / (2 * sig))
            z = z - resid / jac
            errs.append(np.max(np.abs(z - z_star)))
        assert errs[1] <= 100 * errs[0] ** 2 + 1e-14

    @pytest.mark.parametrize("radius", [0.02, 0.2, 0.5])
    def test_returned_scaling_accurate_to_rounding(self, radius, pendulum7):
        # the solve returns the Newton step from its first iterate within
        # tol, so the default tol=1e-10 still leaves a rounding-level residual
        zbar = radius * np.array([0.6, -0.8])
        z = newton_scaling(pendulum7.sq_sv, zbar)
        assert np.max(np.abs(eval_inverse_scaling(pendulum7.sq_sv, z) - zbar)) <= 1e-15

    def test_divergence_reported(self):
        c = SqSingularValueFns(np.array([[1.0, -2.0]]))  # sigma^2 hits zero at z = 0.5
        with pytest.raises(NewtonDivergence):
            newton_scaling(c, np.array([5.0]))


class TestForwardBalancing:
    def test_zero(self, pendulum_pipeline):
        pl = pendulum_pipeline
        npt.assert_allclose(
            eval_forward_balancing_newton(pl.inod, np.zeros(2)), 0, atol=1e-14
        )

    def test_constant_sigma_matches_polynomial_exactly(self):
        pl = balance(models.two_dim_illustrative(), 3)
        for zbar in (np.array([0.1, -0.2]), np.array([0.5, 0.3])):
            x_newton = eval_forward_balancing_newton(pl.inod, zbar)
            npt.assert_allclose(x_newton, pl.Tbar(zbar), atol=1e-10)

    def test_cross_method_agreement_near_origin(self, pendulum_pipeline):
        pl = pendulum_pipeline
        rng = np.random.default_rng(1)
        for _ in range(10):
            zbar = rng.standard_normal(2)
            zbar *= 0.2 / np.linalg.norm(zbar)
            diff = eval_forward_balancing_newton(pl.inod, zbar) - pl.Tbar(zbar)
            assert np.abs(diff).max() <= 1e-4

    def test_jacobian_origin_equals_linear_part(self, pendulum_pipeline):
        pl = pendulum_pipeline
        J0 = balancing_jacobian_newton(pl.inod, np.zeros(2))
        npt.assert_allclose(J0, pl.Tbar.term(1), rtol=1e-10)

    def test_jacobian_finite_differences(self, pendulum_pipeline):
        pl = pendulum_pipeline
        zbar = np.array([0.11, -0.07])
        J = balancing_jacobian_newton(pl.inod, zbar)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (
                eval_forward_balancing_newton(pl.inod, zbar + e)
                - eval_forward_balancing_newton(pl.inod, zbar - e)
            ) / (2 * h)
            npt.assert_allclose(J[:, j], fd, rtol=1e-5, atol=1e-8)


class TestInverseBalancing:
    def test_zero(self, pendulum_pipeline):
        npt.assert_allclose(
            newton_inverse_balancing(pendulum_pipeline.inod, np.zeros(2)), 0, atol=1e-12
        )

    def test_linear_transform_one_step(self):
        pl = balance(models.two_dim_illustrative(), 1)
        x = np.array([0.05, -0.1])
        zbar = newton_inverse_balancing(pl.inod, x)
        npt.assert_allclose(pl.Tbar(zbar), x, atol=1e-11)

    def test_agrees_with_series_inverse(self, pendulum_pipeline):
        pl = pendulum_pipeline

        def resid(x):
            return newton_inverse_balancing(pl.inod, x, tol=1e-13) - pl.P(x)

        assert ray_slope(resid, 2, seed=2, eps=np.logspace(-3, -1.5, 6)) >= pl.d_transf + 0.5


class TestBalancedRhs:
    def test_zero(self, pendulum_pipeline):
        pl = pendulum_pipeline
        zdot, y = eval_balanced_rhs_newton(pl.sys, pl.inod, np.zeros(2), np.zeros(1))
        npt.assert_allclose(zdot, 0, atol=1e-12)
        npt.assert_allclose(y, 0, atol=1e-12)

    def test_singular_scaling_jacobian_reported(self, pendulum_pipeline, monkeypatch):
        # zbar = 0 solves the scaling at the initial guess, whose diagonal the
        # solve checks before it returns; at z = 0 it is (sigma^2)**(1/4),
        # here (1, 1e-16), whose second entry is numerically zero
        monkeypatch.setattr(
            SqSingularValueFns,
            "value_and_derivative",
            lambda self, z: (np.array([1.0, 1e-64]), np.zeros(2)),
        )
        pl = pendulum_pipeline
        with pytest.raises(NewtonDivergence, match="singular scaling Jacobian"):
            eval_balanced_rhs_newton(pl.sys, pl.inod, np.zeros(2), np.zeros(1))

    @pytest.mark.parametrize("radius", [0.02, 0.01])
    def test_one_sigma_pass_per_newton_iterate(self, radius, pendulum7, monkeypatch):
        # pendulum:7 at the radii of the zoo-small benchmark's Newton points:
        # one sigma^2 pass seeds the scaling solve, each iterate costs one
        # more, and the lift reuses the converged iterate's pass
        pl = pendulum7
        zbar = radius * np.array([0.6, -0.8])
        passes = []
        fused = SqSingularValueFns.value_and_derivative

        def counted(self, z):
            passes.append(np.array(z, dtype=float))
            return fused(self, z)

        monkeypatch.setattr(SqSingularValueFns, "value_and_derivative", counted)
        eval_balanced_rhs_newton(pl.sys, pl.inod, zbar, np.array([0.1]), tol=1e-13)
        npt.assert_array_equal(passes[0], zbar)
        iterates = passes[1:]
        resid = [
            np.max(np.abs(z * fused(pl.sq_sv, z)[0] ** 0.25 - zbar)) for z in iterates
        ]
        # each iterate is evaluated once, the iteration stops at the first
        # one within tol, and no point after it is evaluated
        assert len(iterates) >= 2
        assert len({z.tobytes() for z in iterates}) == len(iterates)
        assert all(r > 1e-13 for r in resid[:-1])
        assert resid[-1] <= 1e-13

    def test_linear_system_exact(self):
        import scipy.linalg as la
        from nlbt.kron import ControlAffineSystem, PolyMap

        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 2)) - 2 * np.eye(2)
        sys = ControlAffineSystem(
            PolyMap({1: A}, 2),
            [PolyMap({0: rng.standard_normal((2, 1))}, 2, rows=2)],
            PolyMap({1: rng.standard_normal((1, 2))}, 2),
        )
        pl = balance(sys, 2)
        bal = pl.realize()
        zbar = np.array([0.2, -0.4])
        u = np.array([0.3])
        zdot, y = eval_balanced_rhs_newton(sys, pl.inod, zbar, u)
        npt.assert_allclose(zdot, bal.sys.rhs(zbar, u), rtol=1e-9, atol=1e-12)
        npt.assert_allclose(y, bal.sys.output(zbar), rtol=1e-9, atol=1e-12)

    def test_cross_method_ray_scaling(self, pendulum_pipeline):
        pl = pendulum_pipeline
        bal = pl.realize()
        u = np.array([0.05])
        d = pl.d_transf

        def resid(zbar):
            # tol well below the differences under study, so the Newton
            # stopping error does not pollute the fit
            zdot, _ = eval_balanced_rhs_newton(pl.sys, pl.inod, zbar, u, tol=1e-13)
            return zdot - bal.sys.rhs(zbar, u)

        assert ray_slope(resid, 2, seed=4, eps=np.logspace(-2, -1, 6)) >= d - 0.5
