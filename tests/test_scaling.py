from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import ray_slope
from nlbt import models
from nlbt.energy import solve_controllability_energy, solve_observability_energy
from nlbt.inod import SqSingularValueFns, compute_inod_transform
from nlbt.kron import PolyMap, multi_index_to_column
from nlbt.pipeline import balance
from nlbt.scaling import (
    assemble_scaling_coeffs,
    compose_balancing,
    inverse_scaling_series,
    scaling_series_for,
    series_power,
)


def eval_series(coeffs, z):
    return sum(c * z ** j for j, c in enumerate(coeffs))


def circle_fit(fn, d, radius=0.3, n_pts=64):
    """Taylor coefficients of ``fn`` through degree d from its values on a circle.

    A trigonometric polynomial fit, immune to the aliasing a real-axis fit
    suffers.
    """
    w = np.exp(2j * np.pi * np.arange(n_pts) / n_pts)
    vals = fn(radius * w)
    return np.array([np.mean(vals * w ** (-j)) / radius ** j for j in range(d + 1)]).real


def random_sq_sv(rng, n, d):
    """Random sigma^2 series: positive constant terms, O(1) higher coefficients."""
    return np.concatenate([1 + 3 * rng.random((n, 1)), 0.5 * rng.standard_normal((n, d))], axis=1)


class TestInverseScalingSeries:
    def test_constant(self):
        a = inverse_scaling_series([4.0], 3)
        npt.assert_allclose(a, [0, np.sqrt(2), 0, 0], atol=1e-14)

    def test_printed_second_coefficient(self):
        # with the constant-first indexing, a_2 = c_1 / (4 c_0^{3/4})
        c0, c1 = 1.7, 0.6
        a = inverse_scaling_series([c0, c1], 4)
        npt.assert_allclose(a[1], c0 ** 0.25, rtol=1e-13)
        npt.assert_allclose(a[2], c1 / (4 * c0 ** 0.75), rtol=1e-13)

    def test_numeric_fit_oracle(self):
        # the exact function z (c(z))**(1/4), fitted on a small circle
        rng = np.random.default_rng(0)
        c = np.array([2.0, *0.3 * rng.standard_normal(6)])
        d = 6
        a = inverse_scaling_series(c, d)
        fit = circle_fit(lambda z: z * eval_series(c, z) ** 0.25, d)
        npt.assert_allclose(a[1 : d + 1], fit[1 : d + 1], rtol=1e-9, atol=1e-12)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError):
            inverse_scaling_series([0.0, 1.0], 3)


class TestSeriesPower:
    @pytest.mark.parametrize("alpha", [0.25, -0.25, -0.75, -1.75])
    def test_numeric_fit_oracle(self, alpha):
        rng = np.random.default_rng(1)
        c = np.array([2.0, *0.3 * rng.standard_normal(6)])
        d = 6
        got = series_power(c, alpha, d)
        fit = circle_fit(lambda z: eval_series(c, z) ** alpha, d)
        npt.assert_allclose(got, fit, rtol=1e-9, atol=1e-12)

    def test_short_series_is_zero_padded(self):
        npt.assert_allclose(series_power([4.0], -0.5, 3), [0.5, 0, 0, 0], atol=0)

    @pytest.mark.parametrize("c0", [0.0, -1.0])
    def test_nonpositive_constant_rejected(self, c0):
        with pytest.raises(ValueError):
            series_power([c0, 1.0], 2, 3)


class TestSeriesProduct:
    """Integer powers from :func:`series_power` against the Cauchy product."""

    @staticmethod
    def oracle(c, alpha, d):
        """Per-state ``c**alpha`` by repeated truncated ``np.convolve``, zero-filled up to degree d."""
        alpha = np.asarray(alpha)
        lead = np.broadcast_shapes(alpha.shape, c.shape[:-1])
        c = np.broadcast_to(c, lead + c.shape[-1:]).reshape(-1, c.shape[-1])
        alpha = np.broadcast_to(alpha, lead).ravel()
        out = np.zeros((c.shape[0], d + 1))
        for i, (ci, ai) in enumerate(zip(c, alpha)):
            full = np.ones(1)
            for _ in range(int(ai)):
                full = np.convolve(full, ci)[: d + 1]
            out[i, : full.size] = full
        return out.reshape(lead + (d + 1,))

    @staticmethod
    def series(rng, shape):
        """Random series whose constant terms sit in [1, 2)."""
        c = rng.standard_normal(shape)
        c[..., 0] = 1 + rng.random(shape[:-1])
        return c

    @pytest.mark.parametrize("la, lb", [(3, 3), (2, 5), (6, 1), (1, 4)])
    @pytest.mark.parametrize("d", [0, 2, 4, 9])
    def test_matches_truncated_convolution(self, la, lb, d):
        rng = np.random.default_rng(10 * la + lb + 100 * d)
        a = self.series(rng, (la,))
        b = self.series(rng, (lb,))
        for c, alpha in ((a, 2), (b, 3)):
            got = series_power(c, alpha, d)
            assert got.shape == (d + 1,)
            npt.assert_allclose(got, self.oracle(c, alpha, d), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize(
        "a_shape, b_shape", [((3, 4), (3, 2)), ((4,), (3, 5)), ((2, 1, 3), (4, 6))]
    )
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_broadcast_leading_axes(self, a_shape, b_shape, d):
        # the series have shape a_shape; the powers, 2 or 3, the leading axes of b_shape
        rng = np.random.default_rng(len(a_shape) + d)
        c = self.series(rng, a_shape)
        alpha = rng.integers(2, 4, size=b_shape[:-1]).astype(float)
        got = series_power(c, alpha, d)
        want = self.oracle(c, alpha, d)
        assert got.shape == want.shape
        npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        cb = np.broadcast_to(c, got.shape[:-1] + c.shape[-1:])
        ab = np.broadcast_to(alpha, got.shape[:-1])
        for idx in np.ndindex(got.shape[:-1]):
            assert np.array_equal(got[idx], series_power(cb[idx], ab[idx], d)), idx


class TestSeriesReversion:
    """The forward series of :func:`scaling_series_for` inverts ``z c(z)**(1/4)``."""

    def test_identity(self):
        A = scaling_series_for(SqSingularValueFns(np.array([[1.0]])), 5)
        npt.assert_allclose(A, [[0, 1, 0, 0, 0, 0]], atol=1e-15)

    def test_printed_low_order_formulas(self):
        c = np.array([[1.3, -0.4, 0.7, 0.2], [0.6, 0.25, -0.3, 0.1]])
        A = scaling_series_for(SqSingularValueFns(c), 3)
        a = inverse_scaling_series(c, 3)
        a1, a2, a3 = a[:, 1], a[:, 2], a[:, 3]
        npt.assert_allclose(A[:, 1], c[:, 0] ** -0.25, rtol=1e-14)
        npt.assert_allclose(A[:, 2], -a2 / a1 ** 3, rtol=1e-14)
        npt.assert_allclose(A[:, 3], (2 * a2 ** 2 - a1 * a3) / a1 ** 5, rtol=1e-14)

    def test_composition_residual(self):
        rng = np.random.default_rng(5)
        for d in range(1, 8):
            c = random_sq_sv(rng, 3, d)
            A = scaling_series_for(SqSingularValueFns(c), d)
            a = inverse_scaling_series(c, d)
            for Ai, ai in zip(A, a):
                # a(A(z)) by truncated convolutions: the identity to degree d
                comp = np.zeros(d + 1)
                power = np.ones(1)
                for m in range(1, d + 1):
                    power = np.convolve(power, Ai)[: d + 1]
                    comp[: power.size] += ai[m] * power
                comp[1] -= 1.0
                assert np.abs(comp).max() <= 1e-13, d

    def test_zero_leading_coefficient_rejected(self):
        # c_0 = 0 makes the inverse series start at z^2: it has no inverse.
        # SqSingularValueFns refuses such a series itself, so pass bare coefficients.
        with pytest.raises(ValueError):
            scaling_series_for(SimpleNamespace(coeffs=np.array([[0.0, 1.0, 0.0]])), 2)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_lagrange_coefficient_of_each_power(self, d):
        # A_k = [z^(k-1)] c(z)**(-k/4) / k, one series_power call per k
        c = random_sq_sv(np.random.default_rng(d), 4, d)
        A = scaling_series_for(SqSingularValueFns(c), d)
        assert np.all(A[:, 0] == 0.0)
        for k in range(1, d + 1):
            want = series_power(c, -k / 4, d - 1)[:, k - 1] / k
            npt.assert_allclose(A[:, k], want, rtol=1e-15, atol=0)


class TestAssembleScaling:
    def test_placement_column(self):
        A = np.zeros((2, 4))
        A[:, 1] = [1.0, 2.0]
        pm = assemble_scaling_coeffs(np.array([[0, 1, 0, 1.5], [0, 2, 0, 2.5]]), 2, 3)
        W3 = pm.term(3)
        # state 2 (row index 1), k=3: 1-based column (2-1)/(2-1)*(8-1)+1 = 8
        assert W3[1, 7] == 2.5
        assert np.count_nonzero(W3) == 2

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_each_state_at_its_pure_power(self, n):
        d = 4
        A = np.random.default_rng(n).standard_normal((n, d + 1))
        pm = assemble_scaling_coeffs(A, n, d)
        for k in range(1, d + 1):
            want = np.zeros((n, n ** k))
            for i in range(n):
                want[i, multi_index_to_column((i,) * k, n)] = A[i, k]
            assert np.array_equal(pm.term(k), want), k

    def test_degree_one_diagonal(self):
        pm = assemble_scaling_coeffs(np.array([[0, 1.0], [0, 2.0], [0, 3.0]]), 3, 1)
        npt.assert_allclose(pm.term(1), np.diag([1.0, 2.0, 3.0]))

    def test_constant_sigma_exact_linear_scaling(self):
        c = SqSingularValueFns(np.array([[4.0, 0, 0], [9.0, 0, 0]]))
        A = scaling_series_for(c, 3)
        pm = assemble_scaling_coeffs(A, 2, 3)
        npt.assert_allclose(pm.term(1), np.diag([4.0 ** -0.25, 9.0 ** -0.25]), rtol=1e-14)
        for k in (2, 3):
            npt.assert_allclose(pm.term(k), 0, atol=1e-14)
        z = np.array([0.3, -0.8])
        npt.assert_allclose(pm(z), z * np.array([4.0, 9.0]) ** -0.25, rtol=1e-13)


class TestComposeBalancing:
    def test_unit_sigma_keeps_transform(self):
        rng = np.random.default_rng(1)
        T = PolyMap({1: rng.standard_normal((2, 2)), 2: rng.standard_normal((2, 4))}, 2)
        A = assemble_scaling_coeffs(np.array([[0, 1.0, 0], [0, 1.0, 0]]), 2, 2)
        Tbar = compose_balancing(T, A, 2)
        for k in (1, 2):
            npt.assert_allclose(Tbar.term(k), T.term(k), rtol=1e-13)

    def test_two_dim_printed_pattern(self):
        pl = balance(models.two_dim_illustrative(), 2)
        T2 = pl.Tbar.term(2)
        # |coefficients|: z1^2 -> 0.354, z1 z2 -> 0.841 split over two columns,
        # z2^2 -> 0.5; second state row vanishes
        npt.assert_allclose(np.abs(T2[0]), [0.354, 0.4205, 0.4205, 0.5], atol=1.5e-3)
        npt.assert_allclose(T2[1], 0, atol=1e-10)
        npt.assert_allclose(np.abs(pl.Tbar.term(1)), [[0.595, 0.707], [0.595, 0.707]], atol=1e-3)

    def test_random_composition_ray_scaling(self):
        d = 3
        sys = models.pendulum(5)
        Ec = solve_controllability_energy(sys, d + 1)
        Eo = solve_observability_energy(sys, d + 1)
        inod = compute_inod_transform(Ec, Eo, d)
        A = scaling_series_for(inod.sq_sv, d)
        phi = assemble_scaling_coeffs(A, 2, d)
        Tbar = compose_balancing(inod.transform, phi, d)

        def resid(zbar):
            return inod.transform(phi(zbar)) - Tbar(zbar)

        assert ray_slope(resid, 2, seed=3) >= d + 1


class TestScalingProperties:
    def test_componentwise_decoupling(self):
        sys = models.pendulum(5)
        pl = balance(sys, 3)
        phi = pl.scaling_map
        z = np.array([0.3, -0.5])
        base = phi(z)
        z2 = z.copy()
        z2[1] = 0.9
        assert phi(z2)[0] == base[0]

    def test_forward_backward_roundtrip(self):
        d = 3
        sys = models.pendulum(5)
        pl = balance(sys, d)
        a_series = np.array(
            [inverse_scaling_series(pl.sq_sv.coeffs[i], d) for i in range(2)]
        )

        def resid(zbar):
            z = pl.scaling_map(zbar)
            back = np.array([eval_series(a_series[i], z[i]) for i in range(2)])
            return back - zbar

        assert ray_slope(resid, 2, seed=4) >= d + 1

    def test_two_dim_balanced_form_residual(self):
        pl = balance(models.two_dim_illustrative(), 3)
        sig = pl.hankel
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            zbar = rng.standard_normal(2)
            zbar *= 0.1 / np.linalg.norm(zbar)
            x = pl.Tbar(zbar)
            rc = pl.Ec.value(x) - 0.5 * np.sum(zbar ** 2 / sig)
            ro = pl.Eo.value(x) - 0.5 * np.sum(zbar ** 2 * sig)
            worst = max(worst, abs(rc), abs(ro))
        assert worst <= 1e-8
