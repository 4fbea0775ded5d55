import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as la

from conftest import ray_slope
from nlbt import models
from nlbt.errors import HypothesisViolation


class TestTwoDim:
    def test_printed_linear_drift_entry(self):
        alpha = (np.sqrt(3) + np.sqrt(2)) * (np.sqrt(3) + 2)
        sys = models.two_dim_illustrative()
        npt.assert_allclose(sys.A[0, 0], -alpha ** 2, rtol=1e-14)

    def test_output_vanishes_at_origin(self):
        sys = models.two_dim_illustrative()
        npt.assert_allclose(sys.output(np.zeros(2)), 0, atol=1e-15)

    def test_printed_constant_input(self):
        alpha = (np.sqrt(3) + np.sqrt(2)) * (np.sqrt(3) + 2)
        sys = models.two_dim_illustrative()
        npt.assert_allclose(sys.B.ravel(), np.sqrt(2) * np.array([alpha, 1.0]), rtol=1e-14)


class TestPendulum:
    def test_linear_stiffness(self):
        sys = models.pendulum(5)
        npt.assert_allclose(sys.A[1, 0], -0.6, rtol=1e-14)

    def test_degree_one_is_linearization(self):
        sys = models.pendulum(1)
        assert sys.f.degree == 1

    def test_cubic_sine_coefficient(self):
        sys = models.pendulum(3)
        npt.assert_allclose(sys.f.term(3)[1, 0], 10.0 / (6 * 20.0), rtol=1e-14)

    def test_taylor_matches_exact_rhs(self):
        sys = models.pendulum(7)

        def resid(x):
            return sys.rhs(x, [0.2]) - models.pendulum_rhs(x, [0.2])

        assert ray_slope(resid, 2, seed=0) >= 8.5


class TestThreeDim:
    def test_printed_input_coefficients(self):
        sys = models.three_dim_illustrative()
        # x1^2 coefficient of the input column in the third state equation
        npt.assert_allclose(sys.g[0].term(2)[2].sum(), -15.3, rtol=1e-12)

    def test_drift_vanishes_at_origin(self):
        sys = models.three_dim_illustrative()
        npt.assert_allclose(sys.f(np.zeros(3)), 0, atol=1e-15)

    def test_printed_output_linear_part(self):
        sys = models.three_dim_illustrative()
        npt.assert_allclose(sys.C, [[5.09, -4.82, 0.597]], rtol=1e-12)

    def test_exact_variant_rounds_to_printed(self):
        printed = models.three_dim_illustrative()
        exact = models.three_dim_illustrative(exact=True)
        for k in (1, 2, 3):
            a, b = printed.f.term(k), exact.f.term(k)
            mask = np.abs(a) > 1e-12
            rel = np.abs(a[mask] - b[mask]) / np.abs(a[mask])
            assert rel.max() < 5e-3


class TestDoublePendulum:
    def test_equilibrium(self):
        npt.assert_allclose(models.double_pendulum_rhs(np.zeros(4), [0.0]), 0, atol=1e-14)

    def test_output_linear_parts(self):
        sys = models.double_pendulum(5)
        npt.assert_allclose(sys.h.term(1)[0], [2.0, 1.0, 0, 0], atol=1e-13)
        npt.assert_allclose(sys.h.term(1)[1], 0, atol=1e-13)

    @pytest.mark.parametrize("d", [3, 5])
    def test_taylor_matches_exact_rhs(self, d):
        sys = models.double_pendulum(d)
        u = np.array([0.17])

        def resid(x):
            return sys.rhs(x, u) - models.double_pendulum_rhs(x, u)

        # stay above the rounding floor: degree-(d+1) residuals underflow
        # double precision below |x| ~ 1e-2
        eps = np.logspace(-1.5, -0.7, 6)
        assert ray_slope(resid, 4, seed=d, eps=eps) >= d + 0.5

    def test_output_taylor_matches_exact(self):
        sys = models.double_pendulum(6)

        def resid(x):
            return sys.output(x) - models.double_pendulum_output(x)

        eps = np.logspace(-1.5, -0.7, 6)
        assert ray_slope(resid, 4, seed=1, eps=eps) >= 6.5

    def test_linearization_stable(self):
        sys = models.double_pendulum(3)
        assert np.all(la.eigvals(sys.A).real < 0)


class TestBeam:
    def test_first_equation(self):
        sys = models.beam_single_element()
        A = sys.A
        npt.assert_allclose(A[0], [0, 0, 0, 1, 0, 0], atol=1e-15)

    def test_identity_input_output(self):
        sys = models.beam_single_element()
        assert sys.m == 6 and sys.p == 6
        npt.assert_allclose(sys.B, np.eye(6))
        npt.assert_allclose(sys.C, np.eye(6))

    def test_no_constant_drift(self):
        sys = models.beam_single_element()
        npt.assert_allclose(sys.f(np.zeros(6)), 0, atol=1e-15)

    def test_linearization_stable(self):
        sys = models.beam_single_element()
        assert np.all(la.eigvals(sys.A).real < 0)


class TestRandomStable:
    def test_seed_reproducibility(self):
        a = models.random_stable_poly(5, 3, seed=7)
        b = models.random_stable_poly(5, 3, seed=7)
        for k in a.f.terms:
            npt.assert_array_equal(a.f.terms[k], b.f.terms[k])

    def test_hurwitz(self):
        sys = models.random_stable_poly(6, 2, seed=1)
        assert np.max(la.eigvals(sys.A).real) <= -0.45

    def test_exhausted_budget_is_a_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation, match="resampling budget exhausted"):
            models.random_stable_poly(4, 2, seed=0, max_tries=0)

    def test_distinct_hankel_values(self):
        sys = models.random_stable_poly(6, 2, seed=2)
        Wc = la.solve_continuous_lyapunov(sys.A, -sys.B @ sys.B.T)
        Wo = la.solve_continuous_lyapunov(sys.A.T, -sys.C.T @ sys.C)
        s = la.svd(
            la.cholesky(Wo, lower=True).T @ la.cholesky(Wc, lower=True),
            compute_uv=False,
        )
        assert np.min(-np.diff(s)) >= 1e-6 * s[0]


class TestByName:
    def test_lookup_with_degree(self):
        sys = models.by_name("pendulum:3")
        assert sys.f.degree == 3

    def test_unknown(self):
        with pytest.raises(KeyError):
            models.by_name("does-not-exist")
