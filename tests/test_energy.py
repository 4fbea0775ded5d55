import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as la

from conftest import ray_slope
from nlbt import energy, models
from nlbt.energy import (
    EnergyFunction,
    SchurFactor,
    hjb_residual,
    solve_controllability_energy,
    solve_kway_transposed,
    solve_observability_energy,
)
from nlbt.errors import HypothesisViolation, ResonanceError
from nlbt.inod import linear_balancing
from kron_oracles import kway_lyap_apply, kway_lyap_matrix
from ulp_probe import relative_spread, ulp_floor
from nlbt.kron import (
    ControlAffineSystem,
    PolyMap,
    polymap_from_monomials,
    right_kway_product,
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


def mixed_input_system(seed=1, n=3):
    """Stable quadratic drift and three input columns of degrees {0,1}, {0,2}, {1,3}."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A -= (np.max(la.eigvals(A).real) + 1.0) * np.eye(n)
    f = PolyMap({1: A, 2: 0.3 * rng.standard_normal((n, n ** 2))}, n)
    g = [
        PolyMap({p: (1.0 if p == 0 else 0.4) * rng.standard_normal((n, n ** p)) for p in degrees},
                n, rows=n)
        for degrees in ((0, 1), (0, 2), (1, 3))
    ]
    h = PolyMap({1: rng.standard_normal((2, n))}, n)
    return ControlAffineSystem(f, g, h)


def _slotwise_drift_term(v, f, k, n):
    """Degree-k drift part ``sum_j v_i L_i(F_j)``, ``i = k - j + 1``, over every slot of ``v_i``."""
    b = np.zeros(n ** k)
    for j in range(2, k):
        if j in f.terms:
            i = k - j + 1
            b += right_kway_product(v[i][None, :], f.terms[j], i, n).ravel()
    return b


def slotwise_observability_energy(sys, d):
    """Observability energy with the drift term summed over every slot of ``v_i``.

    The reference for the shared energy series: the output term adds
    ``H_a^T H_b`` for every pair of degrees ``a + b = k``.
    """
    n = sys.n
    w = {2: solve_observability_energy(sys, 2).coeffs[2]}
    fac = SchurFactor(sys.A)
    h = sys.h.terms
    for k in range(3, d + 1):
        b = _slotwise_drift_term(w, sys.f, k, n)
        for a in range(1, k):
            if a in h and k - a in h:
                b += (h[a].T @ h[k - a]).reshape(-1)
        b = symmetrize_columns(b[None, :], n, k).ravel()
        w[k] = solve_kway_transposed(fac, k, -b)
    return w


def per_column_controllability_energy(sys, d):
    """Controllability energy with the quadratic input term summed column by column.

    The reference for the batched input term: each column's degree-s part
    ``rho_s`` of ``(dE/dx) g`` comes from the full k-way product over all
    slots of ``v_i``, and the degree-k term adds ``kron(rho_s, rho_t)``.
    """
    n = sys.n
    V2 = solve_controllability_energy(sys, 2).hessian
    v = {2: V2.reshape(-1)}
    fac = SchurFactor(sys.A + sys.B @ sys.B.T @ V2)
    for k in range(3, d + 1):
        b = _slotwise_drift_term(v, sys.f, k, n)
        for gc in sys.g:
            rho = {}
            for s in range(1, k):
                rho[s] = np.zeros(n ** s)
                for i in range(2, k):
                    p = s - i + 1
                    if p in gc.terms:
                        rho[s] += 0.5 * right_kway_product(
                            v[i][None, :], gc.terms[p].reshape(n, -1), i, n
                        ).ravel()
            for s in range(1, k):
                b += np.kron(rho[s], rho[k - s])
        b = symmetrize_columns(b[None, :], n, k).ravel()
        v[k] = solve_kway_transposed(fac, k, -b)
    return v


class TestEnergySeries:
    """Both energies come from one series; the slot-by-slot assemblies are its oracles."""

    @pytest.mark.parametrize(
        "make, d",
        [(mixed_input_system, 5), (lambda: models.double_pendulum(5), 6)],
        ids=["mixed-input", "double-pendulum-5"],
    )
    @pytest.mark.parametrize(
        "solve, oracle",
        [
            (solve_controllability_energy, per_column_controllability_energy),
            (solve_observability_energy, slotwise_observability_energy),
        ],
        ids=["controllability", "observability"],
    )
    def test_matches_slotwise_oracle(self, solve, oracle, make, d):
        sys = make()
        got = solve(sys, d).coeffs
        want = oracle(sys, d)
        assert set(got) == set(want)
        npt.assert_array_equal(got[2], want[2])
        for k in want:
            scale = np.abs(want[k]).max()
            # a degree that vanishes in exact arithmetic must vanish here too
            tol = 1e-12 * scale if scale > 0 else 1e-14
            assert np.abs(got[k] - want[k]).max() <= tol, k


class TestStateDependentInputs:
    D = 5

    def test_hjb_ray_scaling(self):
        sys = mixed_input_system()
        Ec = solve_controllability_energy(sys, self.D)
        slope = ray_slope(lambda x: hjb_residual(Ec, sys, x, "controllability"), sys.n, seed=3)
        assert slope >= self.D + 0.5


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


class TestOneConstructor:
    @pytest.mark.parametrize(
        "make, d",
        [(models.beam_single_element, 3), (lambda: models.pendulum(5), 4)],
        ids=["beam", "pendulum-5"],
    )
    def test_coefficients_rebuild_the_same_energy(self, make, d):
        # the solved energy stores its canonical representative, so its own
        # coefficients rebuild it bit for bit
        sys = make()
        for E in (solve_controllability_energy(sys, d), solve_observability_energy(sys, d)):
            again = EnergyFunction(sys.n, E.coeffs)
            assert set(again.coeffs) == set(E.coeffs)
            for k, v in E.coeffs.items():
                npt.assert_array_equal(again.coeffs[k], v)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        # a NaN fails every comparison, so the symmetry check alone passes it
        rhs = np.ones(27)
        rhs[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_kway_transposed(_complex_pair_matrix(), 3, rhs)

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


class TestOneLyapunovSolver:
    """Both Gramians are the k = 2 case of the one Schur-form solver."""

    def test_balance_makes_three_schur_forms(self, monkeypatch):
        import scipy.linalg._solvers as solvers

        sys = models.double_pendulum(3)
        calls = {"schur": 0, "lyapunov": 0}
        schur, lyapunov = la.schur, la.solve_continuous_lyapunov

        def counted_schur(*args, **kwargs):
            calls["schur"] += 1
            return schur(*args, **kwargs)

        def counted_lyapunov(*args, **kwargs):
            calls["lyapunov"] += 1
            return lyapunov(*args, **kwargs)

        # scipy's Lyapunov solver calls its own imported schur
        for module in (la, solvers):
            monkeypatch.setattr(module, "schur", counted_schur)
        monkeypatch.setattr(la, "solve_continuous_lyapunov", counted_lyapunov)
        balance(sys, 3)
        # A for the observability energy, A^T for the controllability
        # Gramian, A + B B^T V_2 for the controllability energy's degree 3
        assert calls == {"schur": 3, "lyapunov": 0}

    @staticmethod
    def _gramian(solve, sys, monkeypatch):
        """The degree-2 solve of ``solve``, which must be one k = 2 solve."""
        solved = []

        def spy(fac, k, rhs):
            v = solve_kway_transposed(fac, k, rhs)
            solved.append((k, v))
            return v

        with monkeypatch.context() as patch:
            patch.setattr(energy, "solve_kway_transposed", spy)
            solve(sys, 2)
        ((k, W),) = solved
        assert k == 2
        W = W.reshape(sys.n, sys.n)
        return 0.5 * (W + W.T)

    @staticmethod
    def _hankel_values(sys):
        """This package's Hankel values and an independent scipy square-root balancing's."""
        A, B, C = sys.A, sys.B, sys.C
        Wc = la.solve_continuous_lyapunov(A, -B @ B.T)
        Wo = la.solve_continuous_lyapunov(A.T, -C.T @ C)
        Lc = la.cholesky(0.5 * (Wc + Wc.T), lower=True)
        Lo = la.cholesky(0.5 * (Wo + Wo.T), lower=True)
        Ec = solve_controllability_energy(sys, 2)
        Eo = solve_observability_energy(sys, 2)
        return {
            "nlbt": linear_balancing(Ec, Eo)[2],
            "scipy": la.svd(Lo.T @ Lc, compute_uv=False),
        }

    @pytest.mark.parametrize("make", [
        models.beam_single_element,
        lambda: models.double_pendulum(5),
        lambda: models.random_stable_poly(24, 2, 0),
    ], ids=["beam", "double-pendulum-5", "random-24"])
    def test_gramians_backward_stable_and_hankel_at_rounding_floor(self, make, monkeypatch):
        sys = make()
        n, A = sys.n, sys.A
        with warnings.catch_warnings():
            warnings.simplefilter("error", la.LinAlgWarning)
            Wc = self._gramian(solve_controllability_energy, sys, monkeypatch)
            Wo = self._gramian(solve_observability_energy, sys, monkeypatch)
            hankel = self._hankel_values(sys)
            floor = ulp_floor(sys, self._hankel_values)
        for M, W, Q in ((A, Wc, sys.B @ sys.B.T), (A.T, Wo, sys.C.T @ sys.C)):
            resid = np.linalg.norm(M @ W + W @ M.T + Q)
            scale = 2 * np.linalg.norm(M) * np.linalg.norm(W) + np.linalg.norm(Q)
            assert resid <= 10 * n * np.finfo(float).eps * scale
        # two routes each accurate to their rounding floor agree within a
        # small multiple of the larger one
        assert relative_spread(hankel.values()) <= 4 * max(floor.values())
