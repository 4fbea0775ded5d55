import numpy as np
import numpy.testing as npt
import pytest

from conftest import ray_slope
from nlbt import models
from nlbt.energy import solve_controllability_energy, solve_observability_energy
from nlbt.inod import compute_inod_transform
from nlbt.kron import PolyMap, multi_index_to_column
from nlbt.pipeline import balance
from nlbt.scaling import (
    assemble_scaling_coeffs,
    compose_balancing,
    inverse_scaling_series,
    scaling_series_for,
    series_product,
    series_reversion,
)


def eval_series(coeffs, z):
    return sum(c * z ** j for j, c in enumerate(coeffs))


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
        # trigonometric polynomial fit of the exact function z (c(z))**(1/4)
        # on a small circle; immune to the aliasing a real-axis fit suffers
        rng = np.random.default_rng(0)
        c = np.array([2.0, *0.3 * rng.standard_normal(6)])
        d = 6
        a = inverse_scaling_series(c, d)
        n_pts, radius = 64, 0.3
        w = np.exp(2j * np.pi * np.arange(n_pts) / n_pts)
        zs = radius * w
        vals = zs * eval_series(c, zs) ** 0.25
        fit = np.array(
            [np.mean(vals * w ** (-j)) / radius ** j for j in range(d + 1)]
        ).real
        npt.assert_allclose(a[1 : d + 1], fit[1 : d + 1], rtol=1e-9, atol=1e-12)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError):
            inverse_scaling_series([0.0, 1.0], 3)


class TestSeriesProduct:
    @staticmethod
    def oracle(a, b, d):
        """Per-state truncated ``np.convolve``, zero-filled up to degree d."""
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        a = np.broadcast_to(a, lead + a.shape[-1:]).reshape(-1, a.shape[-1])
        b = np.broadcast_to(b, lead + b.shape[-1:]).reshape(-1, b.shape[-1])
        out = np.zeros((a.shape[0], d + 1))
        for i, (ai, bi) in enumerate(zip(a, b)):
            full = np.convolve(ai, bi)[: d + 1]
            out[i, : full.size] = full
        return out.reshape(lead + (d + 1,))

    @pytest.mark.parametrize("la, lb", [(3, 3), (2, 5), (6, 1), (1, 4)])
    @pytest.mark.parametrize("d", [0, 2, 4, 9])
    def test_matches_truncated_convolution(self, la, lb, d):
        rng = np.random.default_rng(10 * la + lb + 100 * d)
        a = rng.standard_normal(la)
        b = rng.standard_normal(lb)
        got = series_product(a, b, d)
        assert got.shape == (d + 1,)
        npt.assert_allclose(got, self.oracle(a, b, d), rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize(
        "a_shape, b_shape", [((3, 4), (3, 2)), ((4,), (3, 5)), ((2, 1, 3), (4, 6))]
    )
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_broadcast_leading_axes(self, a_shape, b_shape, d):
        rng = np.random.default_rng(len(a_shape) + d)
        a = rng.standard_normal(a_shape)
        b = rng.standard_normal(b_shape)
        got = series_product(a, b, d)
        want = self.oracle(a, b, d)
        assert got.shape == want.shape
        npt.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


class TestSeriesReversion:
    def test_identity(self):
        A = series_reversion([0.0, 1.0], 5)
        npt.assert_allclose(A, [0, 1, 0, 0, 0, 0], atol=1e-15)

    def test_printed_low_order_formulas(self):
        a1, a2 = 1.3, -0.4
        A = series_reversion([0.0, a1, a2], 3)
        npt.assert_allclose(A[1], 1 / a1, rtol=1e-14)
        npt.assert_allclose(A[2], -a2 / a1 ** 3, rtol=1e-14)
        npt.assert_allclose(A[3], 2 * a2 ** 2 / a1 ** 5, rtol=1e-14)

    def test_composition_residual(self):
        rng = np.random.default_rng(5)
        d = 7
        a = np.concatenate([[0.0, 1.5], 0.4 * rng.standard_normal(d - 1)])
        A = series_reversion(a, d)
        comp = np.zeros(d + 1)
        apow = np.concatenate([[1.0], np.zeros(d)])
        for m in range(1, d + 1):
            apow = series_product(apow, a, d)
            comp += A[m] * apow
        comp[1] -= 1.0
        assert np.abs(comp).max() <= 1e-10

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            series_reversion([0.0, 0.0, 1.0], 3)


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
        from nlbt.inod import SqSingularValueFns

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
