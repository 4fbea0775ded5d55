import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as la

from conftest import ray_slope
from nlbt import models
from nlbt.energy import (
    SchurFactor,
    hjb_residual,
    solve_controllability_energy,
    solve_kway_transposed,
    solve_observability_energy,
)
from nlbt.errors import HypothesisViolation, ResonanceError
from nlbt.kron import (
    ControlAffineSystem,
    PolyMap,
    kway_lyap_apply,
    kway_lyap_matrix,
    polymap_from_monomials,
    symmetrize_columns,
)
from nlbt.pipeline import balance


def scalar_system():
    """x' = -x + u, y = x."""
    f = PolyMap({1: np.array([[-1.0]])}, 1)
    g = PolyMap({0: np.array([[1.0]])}, 1, rows=1)
    h = PolyMap({1: np.array([[1.0]])}, 1)
    return ControlAffineSystem(f, [g], h)


def linear_system(seed=0, n=3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A -= (np.max(la.eigvals(A).real) + 1.0) * np.eye(n)
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((2, n))
    f = PolyMap({1: A}, n)
    g = [PolyMap({0: B[:, i : i + 1]}, n, rows=n) for i in range(2)]
    h = PolyMap({1: C}, n)
    return ControlAffineSystem(f, g, h)


class TestObservability:
    def test_scalar_by_hand(self):
        # -x E' + x^2/2 = 0 has the exact solution E = x^2/4
        E = solve_observability_energy(scalar_system(), 4)
        npt.assert_allclose(E.coeffs[2], [0.5], atol=1e-14)
        for k in (3, 4):
            npt.assert_allclose(E.coeffs[k], 0, atol=1e-14)
        npt.assert_allclose(E.value(np.array([2.0])), 1.0, atol=1e-13)

    def test_two_dim_printed_quartic(self):
        E = solve_observability_energy(models.two_dim_illustrative(), 4)
        expected = polymap_from_monomials(2, 1, {
            (0, (2, 0)): 1.5, (0, (1, 1)): 1.0, (0, (0, 2)): 1.5,
            (0, (1, 2)): 3.0, (0, (0, 3)): 1.0, (0, (0, 4)): 1.5,
        })
        for k in (2, 3, 4):
            npt.assert_allclose(E.coeffs[k], expected.term(k)[0], atol=1e-9)

    def test_zero_output_gives_zero_energy(self):
        sys = models.two_dim_illustrative()
        hz = PolyMap({1: np.zeros((1, 2))}, 2)
        sys0 = ControlAffineSystem(sys.f, sys.g, hz)
        E = solve_observability_energy(sys0, 4)
        for k, v in E.coeffs.items():
            npt.assert_allclose(v, 0, atol=1e-14)

    def test_non_hurwitz_rejected(self):
        f = PolyMap({1: np.array([[1.0]])}, 1)
        g = PolyMap({0: np.array([[1.0]])}, 1, rows=1)
        h = PolyMap({1: np.array([[1.0]])}, 1)
        with pytest.raises(HypothesisViolation):
            solve_observability_energy(ControlAffineSystem(f, [g], h), 2)


class TestControllability:
    def test_scalar_by_hand(self):
        # Gramian 1/2 -> E_c = x^2
        E = solve_controllability_energy(scalar_system(), 4)
        npt.assert_allclose(E.coeffs[2], [2.0], atol=1e-13)
        npt.assert_allclose(E.value(np.array([1.5])), 1.5 ** 2, atol=1e-12)

    def test_two_dim_printed_quartic(self):
        E = solve_controllability_energy(models.two_dim_illustrative(), 4)
        expected = polymap_from_monomials(2, 1, {
            (0, (2, 0)): 1.0, (0, (0, 2)): 1.0, (0, (1, 2)): 2.0, (0, (0, 4)): 1.0,
        })
        for k in (2, 3, 4):
            npt.assert_allclose(E.coeffs[k], expected.term(k)[0], atol=1e-9)

    def test_linear_system_higher_terms_vanish(self):
        E = solve_controllability_energy(linear_system(), 4)
        for k in (3, 4):
            npt.assert_allclose(E.coeffs[k], 0, atol=1e-11)

    def test_gramian_hessians(self):
        sys = linear_system(seed=4)
        Ec = solve_controllability_energy(sys, 3)
        Eo = solve_observability_energy(sys, 3)
        A, B, C = sys.A, sys.B, sys.C
        Wc = la.solve_continuous_lyapunov(A, -B @ B.T)
        Wo = la.solve_continuous_lyapunov(A.T, -C.T @ C)
        npt.assert_allclose(Ec.hessian, la.inv(Wc), rtol=1e-10)
        npt.assert_allclose(Eo.hessian, Wo, rtol=1e-10)


class TestResidual:
    def test_exact_scalar_solutions(self):
        sys = scalar_system()
        Ec = solve_controllability_energy(sys, 3)
        Eo = solve_observability_energy(sys, 3)
        for x in ([0.5], [-1.2], [2.0]):
            assert abs(hjb_residual(Ec, sys, np.array(x), "controllability")) < 1e-12
            assert abs(hjb_residual(Eo, sys, np.array(x), "observability")) < 1e-12

    def test_two_dim_grid(self):
        # the 2-state academic model has exactly quartic energies
        sys = models.two_dim_illustrative()
        Ec = solve_controllability_energy(sys, 4)
        Eo = solve_observability_energy(sys, 4)
        grid = np.linspace(-1, 1, 9)
        worst = 0.0
        for a in grid:
            for b in grid:
                x = np.array([a, b])
                worst = max(
                    worst,
                    abs(hjb_residual(Ec, sys, x, "controllability")),
                    abs(hjb_residual(Eo, sys, x, "observability")),
                )
        assert worst <= 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pendulum_ray_scaling(self, d):
        sys = models.pendulum(7)
        Ec = solve_controllability_energy(sys, d)
        Eo = solve_observability_energy(sys, d)
        sc = ray_slope(lambda x: hjb_residual(Ec, sys, x, "controllability"), 2, seed=d)
        so = ray_slope(lambda x: hjb_residual(Eo, sys, x, "observability"), 2, seed=d + 10)
        assert sc >= d + 0.5
        assert so >= d + 0.5


class TestSymmetryInvariance:
    def test_symmetrized_coefficients_leave_residuals_unchanged(self):
        # energies built from raw and pre-symmetrized coefficient vectors
        # evaluate identically, so the PDE residuals cannot change
        from nlbt.energy import EnergyFunction
        from nlbt.kron import symmetrize_columns

        sys = models.two_dim_illustrative()
        rng = np.random.default_rng(1)
        raw = {k: rng.standard_normal(2 ** k) for k in (2, 3, 4)}
        sym = {k: symmetrize_columns(v[None, :], 2, k).ravel() for k, v in raw.items()}
        E_raw = EnergyFunction(2, raw)
        E_sym = EnergyFunction(2, sym)
        for _ in range(20):
            x = rng.standard_normal(2)
            npt.assert_allclose(
                hjb_residual(E_raw, sys, x, "observability"),
                hjb_residual(E_sym, sys, x, "observability"),
                rtol=1e-12,
            )


def _complex_pair_matrix():
    """3 x 3 Hurwitz matrix with a complex-conjugate pair of eigenvalues."""
    rng = np.random.default_rng(8)
    S = rng.standard_normal((3, 3))
    D = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -3.0]])
    return S @ D @ np.linalg.inv(S)


def _symmetric_rhs(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return symmetrize_columns(rng.standard_normal(n ** k)[None, :], n, k).ravel()


class TestKwaySolver:
    @pytest.mark.parametrize(
        "A, k",
        [(_complex_pair_matrix(), k) for k in (2, 3, 4, 6)]
        + [(models.beam_single_element().A, k) for k in (2, 3, 4)],
        ids=["pair-k2", "pair-k3", "pair-k4", "pair-k6", "beam-k2", "beam-k3", "beam-k4"],
    )
    def test_backward_residual_against_materialized_operator(self, A, k):
        n = A.shape[0]
        rhs = _symmetric_rhs(n, k)
        v = solve_kway_transposed(A, k, rhs)
        L = kway_lyap_matrix(A, k).T
        resid = np.linalg.norm(L @ v - rhs)
        assert resid <= 1e-12 * (np.linalg.norm(L) * np.linalg.norm(v) + np.linalg.norm(rhs))

    @pytest.mark.parametrize("k", [2, 3])
    def test_backward_residual_with_split_two_way_blocks(self, k):
        # n = 40 exceeds the largest 2-way block solved whole, so the split
        # path runs; L_k(A)^T = L_k(A^T) is applied slot by slot
        n = 40
        rng = np.random.default_rng(5)
        A = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
        rhs = _symmetric_rhs(n, k)
        v = solve_kway_transposed(A, k, rhs)
        resid = np.linalg.norm(kway_lyap_apply(A.T, k, v) - rhs)
        norm_L = k * np.linalg.norm(A, 2)
        assert resid <= 1e-12 * (norm_L * np.linalg.norm(v) + np.linalg.norm(rhs))

    def test_factor_reuse_matches_direct_call(self):
        A = _complex_pair_matrix()
        fac = SchurFactor(A)
        for k in (3, 4):
            rhs = _symmetric_rhs(3, k, seed=k)
            npt.assert_array_equal(solve_kway_transposed(fac, k, rhs), solve_kway_transposed(A, k, rhs))

    @pytest.mark.parametrize("perm", [(1, 0, 2), (1, 2, 0)], ids=["swap-invariant", "roll-invariant"])
    def test_non_symmetric_rhs_rejected(self, perm):
        # S + S^perm is invariant under one generator of the slot permutations
        # but not under the other, so each of the two checks must catch it
        S = np.random.default_rng(3).standard_normal((3, 3, 3))
        R = S + S.transpose(perm)
        if perm == (1, 2, 0):
            R += S.transpose(2, 0, 1)
        with pytest.raises(ValueError, match="not symmetric"):
            solve_kway_transposed(_complex_pair_matrix(), 3, R.ravel())

    def test_resonance_detected(self):
        # eigenvalues -1 and 2: the pair sum (-1) + (-1) ... 2 + (-1) - 1 = 0
        A = np.diag([-1.0, 0.5])
        with pytest.raises(ResonanceError):
            solve_kway_transposed(A, 3, np.ones(8))

    def test_resonance_through_complex_pair(self):
        # eigenvalues -1 + i, -1 - i and 2 sum to zero at k = 3
        A = np.array([[-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(ResonanceError):
            solve_kway_transposed(A, 3, np.ones(27))


class TestBeamConditioning:
    def test_balance_raises_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            balance(models.beam_single_element(), 2)
