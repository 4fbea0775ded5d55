import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import brentq

from conftest import ray_slope
from nlbt import models
from nlbt.energy import (
    EnergyFunction,
    solve_controllability_energy,
    solve_observability_energy,
)
from nlbt.errors import BalancingError, ContractViolation, HypothesisViolation
from nlbt.inod import (
    InodResult,
    _check_contracts,
    _contracts_short,
    _degree_structure,
    compute_inod_transform,
    linear_balancing,
)
from nlbt.kron import PolyMap


def energies_for(sys, d):
    return (
        solve_controllability_energy(sys, d),
        solve_observability_energy(sys, d),
    )


def with_coefficient_error(result, k, delta):
    """``result`` with ``delta`` added to its degree-k transform coefficient."""
    terms = dict(result.transform.terms)
    terms[k] = result.transform.term(k) + delta
    return InodResult(PolyMap(terms, result.transform.base_dim), result.t1_inverse, result.sq_sv)


class TestLinearBalancing:
    def test_identity_gramians_error_on_repeated_sigma(self):
        Ec = EnergyFunction(2, {2: np.eye(2).reshape(-1)})
        Eo = EnergyFunction(2, {2: np.eye(2).reshape(-1)})
        with pytest.raises(HypothesisViolation):
            linear_balancing(Ec, Eo)

    def test_scalar_hand_value(self):
        # Gramians 1/2 each: sigma = 1/2
        Ec = EnergyFunction(1, {2: np.array([2.0])})
        Eo = EnergyFunction(1, {2: np.array([0.5])})
        T1, T1inv, s = linear_balancing(Ec, Eo)
        npt.assert_allclose(s, [0.5], rtol=1e-12)
        npt.assert_allclose(T1inv @ T1, np.eye(1), atol=1e-13)

    def test_two_dim_sigma_squared(self):
        Ec, Eo = energies_for(models.two_dim_illustrative(), 3)
        _, _, s = linear_balancing(Ec, Eo)
        npt.assert_allclose(s ** 2, [2.0, 1.0], rtol=1e-10)

    def test_postconditions(self):
        Ec, Eo = energies_for(models.pendulum(3), 3)
        T1, T1inv, s = linear_balancing(Ec, Eo)
        npt.assert_allclose(T1.T @ Ec.hessian @ T1, np.eye(2), atol=1e-9)
        npt.assert_allclose(T1.T @ Eo.hessian @ T1, np.diag(s ** 2), atol=1e-9 * s[0] ** 2)
        npt.assert_allclose(T1inv, np.linalg.inv(T1), rtol=1e-9)

    def test_column_signs_survive_one_ulp_perturbations(self):
        # 2d-illustrative's T_1 has columns whose entries tie at +-0.7071 up
        # to rounding; perturbing every coefficient by about one ulp must not
        # flip a balanced state
        from nlbt.kron import ControlAffineSystem

        base = models.two_dim_illustrative()
        want = np.sign(linear_balancing(*energies_for(base, 2))[0])
        for seed in range(5):
            rng = np.random.default_rng(seed)

            def nudge(pm):
                terms = {
                    k: W * (1 + 2.2e-16 * rng.standard_normal(W.shape))
                    for k, W in pm.terms.items()
                }
                return PolyMap(terms, pm.base_dim, rows=pm.rows)

            sys = ControlAffineSystem(nudge(base.f), [nudge(g) for g in base.g], nudge(base.h))
            npt.assert_array_equal(np.sign(linear_balancing(*energies_for(sys, 2))[0]), want)


class TestInodTransform:
    def test_linear_system_is_linear(self):
        import scipy.linalg as la
        from nlbt.kron import ControlAffineSystem, PolyMap

        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        A -= (np.max(la.eigvals(A).real) + 1.0) * np.eye(3)
        sys = ControlAffineSystem(
            PolyMap({1: A}, 3),
            [PolyMap({0: rng.standard_normal((3, 1))}, 3, rows=3)],
            PolyMap({1: rng.standard_normal((2, 3))}, 3),
        )
        Ec, Eo = energies_for(sys, 4)
        res = compute_inod_transform(Ec, Eo, 3)
        for k in (2, 3):
            npt.assert_allclose(res.transform.term(k), 0, atol=1e-10)
        npt.assert_allclose(res.sq_sv.coeffs[:, 1:], 0, atol=1e-10)

    def test_two_dim_printed_coefficients(self):
        # the 2-state case has no gauge freedom, so the quadratic transform
        # coefficients should match the printed ones up to state signs
        Ec, Eo = energies_for(models.two_dim_illustrative(), 3)
        res = compute_inod_transform(Ec, Eo, 2)
        T1, T2 = res.transform.term(1), res.transform.term(2)
        npt.assert_allclose(np.abs(T1), 0.70710678 * np.ones((2, 2)), atol=1e-2)
        # row 2 of the quadratic part vanishes; row 1 has magnitude-1/2 entries
        npt.assert_allclose(np.abs(T2[0]), [0.5, 0.5, 0.5, 0.5], atol=1e-2)
        npt.assert_allclose(T2[1], 0, atol=1e-2)
        npt.assert_allclose(res.sq_sv.coeffs[:, 0], [2.0, 1.0], rtol=1e-10)
        npt.assert_allclose(res.sq_sv.coeffs[:, 1], 0, atol=1e-10)

    def test_residual_contracts_on_pendulum(self):
        d_transf = 3
        sys = models.pendulum(5)
        Ec, Eo = energies_for(sys, d_transf + 1)
        res = compute_inod_transform(Ec, Eo, d_transf)

        def resid_in(z):
            return Ec.value(res.transform(z)) - 0.5 * z @ z

        def resid_od(z):
            return Eo.value(res.transform(z)) - 0.5 * np.sum(
                z ** 2 * res.sq_sv.value(z)
            )

        assert ray_slope(resid_in, 2, seed=1) >= d_transf + 1.5
        assert ray_slope(resid_od, 2, seed=2) >= d_transf + 1.5

    def test_origin_and_linear_part(self):
        Ec, Eo = energies_for(models.pendulum(5), 4)
        res = compute_inod_transform(Ec, Eo, 3)
        npt.assert_allclose(res.transform(np.zeros(2)), 0, atol=1e-14)
        T1, _, s = linear_balancing(Ec, Eo)
        npt.assert_allclose(res.transform.jacobian(np.zeros(2)), T1, atol=1e-12)
        npt.assert_allclose(res.hankel, s, rtol=1e-10)

    def test_cross_terms_below_diagonal_scale(self):
        # composed observability energy through degree d+1: off-diagonal
        # monomials vanish relative to the leading diagonal term
        sys = models.two_dim_illustrative()
        Ec, Eo = energies_for(sys, 4)
        res = compute_inod_transform(Ec, Eo, 3)
        from nlbt.kron import PolyMap, compose

        Eo_pm = PolyMap({k: 0.5 * v[None, :] for k, v in Eo.coeffs.items()}, 2)
        comp = compose(Eo_pm, res.transform, 4)
        lead = abs(comp.term(2)).max()
        for k in (3, 4):
            W = comp.term(k)
            from nlbt.kron import column_multi_indices

            idx = column_multi_indices(2, k)
            mixed = np.array([len(set(row)) > 1 for row in idx])
            assert np.abs(W[0, mixed]).max() <= 1e-8 * lead

    def test_absent_energy_degrees_count_as_zero(self):
        # energies kept to degree 2 are exactly quadratic: the degree-3
        # transform needs degrees 3 and 4, which then contribute nothing
        Ec, Eo = energies_for(models.pendulum(5), 2)
        res = compute_inod_transform(Ec, Eo, 3)
        T1, _, s = linear_balancing(Ec, Eo)
        npt.assert_array_equal(res.transform.term(1), T1)
        for k in (2, 3):
            npt.assert_array_equal(res.transform.term(k), 0)
        npt.assert_array_equal(res.sq_sv.coeffs[:, 0], s ** 2)
        npt.assert_array_equal(res.sq_sv.coeffs[:, 1:], 0)


class TestDegreeStructureCache:
    def test_zoo_small_keys_stay_cached(self):
        # the (n, k) keys the zoo-small benchmark cycles through: k = 2..d
        # for each of its five models
        labels = ("2d-illustrative:7", "pendulum:7", "3d-illustrative-exact:3",
                  "beam:2", "double-pendulum:3")
        keys = []
        for label in labels:
            name, _, d = label.partition(":")
            n = models.by_name(name, int(d)).n
            keys += [(n, k) for k in range(2, int(d) + 1)]
        assert len(set(keys)) == 11
        _degree_structure.cache_clear()
        for key in keys:
            _degree_structure(*key)
        misses = _degree_structure.cache_info().misses
        for key in keys:
            _degree_structure(*key)
        assert _degree_structure.cache_info().misses == misses


class TestContractCheck:
    D = 2

    def setup_method(self):
        self.Ec, self.Eo = energies_for(models.three_dim_illustrative(exact=True), self.D + 1)
        self.good = compute_inod_transform(self.Ec, self.Eo, self.D)

    def corrupted(self, delta):
        return with_coefficient_error(self.good, 2, delta)

    def test_contract_violation_is_a_balancing_error(self):
        assert issubclass(ContractViolation, BalancingError)

    def test_non_finite_degree_two_term(self):
        delta = np.zeros((3, 9))
        delta[2, 4] = np.nan
        with pytest.raises(ContractViolation):
            _check_contracts(self.corrupted(delta), self.Ec, self.Eo, self.D)

    def test_degree_two_term_whose_residual_stalls(self):
        # A wrong degree-2 term gives a residual of order |z|^3 (cross term,
        # linear in the error) plus |z|^4 (quadratic in it).  Scaled so the
        # two cancel at the outer radius of the first ray, the residual
        # grows as the ray shrinks, which the check must reject.
        seed, outer = 3, 3e-2
        z = np.random.default_rng(seed).standard_normal(3)
        z /= np.linalg.norm(z)
        D = np.random.default_rng(11).standard_normal((3, 9))

        def resid(t):
            return self.Ec.value(self.corrupted(t * D).transform(outer * z)) - 0.5 * outer ** 2

        if resid(1e-3) > 0:
            D = -D
        ts = np.logspace(-3, 4, 200)
        vals = np.array([resid(t) for t in ts])
        i = int(np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0])
        t0 = brentq(resid, ts[i], ts[i + 1], xtol=1e-14, rtol=1e-15)
        _check_contracts(self.good, self.Ec, self.Eo, self.D, n_dirs=1, seed=seed)
        with pytest.raises(ContractViolation):
            _check_contracts(self.corrupted(t0 * D), self.Ec, self.Eo, self.D, n_dirs=1, seed=seed)

    def test_correct_transform_whose_residual_cancels_at_the_outer_radius(self):
        # A degree-(D+2) term keeps the degree-D transform correct and adds a
        # residual term of order |z|^(D+3).  Scaled so that it cancels the
        # leading |z|^(D+2) term at the outer radius, the pair of radii 3e-2,
        # 3e-3 falls short; the check passes because the pair 1e-2, 1e-3,
        # where the added term is 3x weaker, does not.
        seed, k = 3, self.D + 2
        z = np.random.default_rng(seed).standard_normal(3)
        z /= np.linalg.norm(z)
        D = np.random.default_rng(12).standard_normal((3, 3 ** k))

        def perturbed(t):
            return with_coefficient_error(self.good, k, t * D)

        def resid(t, eps=3e-2):
            return self.Ec.value(perturbed(t).transform(eps * z)) - 0.5 * eps ** 2

        ts = np.concatenate([-np.logspace(6, -3, 300), np.logspace(-3, 6, 300)])
        vals = np.array([resid(t) for t in ts])
        i = min(np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])), key=lambda j: abs(ts[j]))
        t0 = brentq(resid, ts[i], ts[i + 1], xtol=1e-14, rtol=1e-15)
        assert _contracts_short(resid(t0), resid(t0, 3e-3), 0.0, self.D)
        _check_contracts(perturbed(t0), self.Ec, self.Eo, self.D, n_dirs=1, seed=seed)

    @pytest.mark.parametrize("name", ["3d-illustrative-exact", "2d-illustrative"])
    def test_small_degree_two_error(self, name):
        # a wrong T_2 leaves a residual of order |z|^3: it contracts 10^3 per
        # decade, short of the 10^(d+1.5) asked of a degree-d transform
        d = 3
        Ec, Eo = energies_for(models.by_name(name), d + 1)
        good = compute_inod_transform(Ec, Eo, d)
        delta = 1e-4 * np.random.default_rng(0).standard_normal(good.transform.term(2).shape)
        with pytest.raises(ContractViolation):
            _check_contracts(with_coefficient_error(good, 2, delta), Ec, Eo, d)


class TestGaugeInvariants:
    def test_sigma_series_matches_exact_construction(self):
        # for the disguised-linear cubic model, sigma^2 is constant; its series
        # coefficients are canonical (not gauge-dependent)
        sys = models.three_dim_illustrative(exact=True)
        Ec, Eo = energies_for(sys, 5)
        res = compute_inod_transform(Ec, Eo, 4)
        npt.assert_allclose(res.sq_sv.coeffs[:, 1:], 0, atol=1e-7)
