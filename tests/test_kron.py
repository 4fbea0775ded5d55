import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from kron_oracles import (
    add_at_symmetrize,
    column_to_multi_index,
    kron_power,
    kway_lyap_apply,
    kway_lyap_matrix,
    mat_times_tensor_sum,
    recursive_monomials,
    sparse_group_fold,
    spread_polymap_from_monomials,
    tensor_sum,
)
from nlbt import models
from nlbt.kron import (
    ControlAffineSystem,
    _Compact,
    _fold,
    _group_sums,
    _monomial_start,
    _composition_terms,
    _symmetry_groups,
    PolyMap,
    column_multi_indices,
    compose,
    compose_degree,
    compositions,
    mat_times_kron,
    multi_index_to_column,
    polymap_from_monomials,
    right_kway_product,
    symmetrize_columns,
)


def naive_eval(terms, x):
    """Nested-loop oracle for PolyMap evaluation."""
    rows = next(iter(terms.values())).shape[0]
    out = np.zeros(rows)
    n = len(x)
    for k, W in terms.items():
        for col, idx in enumerate(itertools.product(range(n), repeat=k)):
            mono = np.prod([x[i] for i in idx]) if k else 1.0
            out += W[:, col] * mono
    return out


def naive_jacobian(terms, x, rows):
    """Nested-loop oracle for the Jacobian: the product rule over every slot."""
    n = len(x)
    out = np.zeros((rows, n))
    for k, W in terms.items():
        for col, idx in enumerate(itertools.product(range(n), repeat=k)):
            for slot, i in enumerate(idx):
                rest = idx[:slot] + idx[slot + 1 :]
                out[:, i] += W[:, col] * np.prod([x[j] for j in rest])
    return out


class TestKronPower:
    def test_pair(self):
        npt.assert_allclose(kron_power([1, 2], 2), [1, 2, 2, 4])

    def test_identity_case(self):
        x = np.array([0.3, -1.2, 4.0])
        npt.assert_allclose(kron_power(x, 1), x)

    def test_degree_zero(self):
        npt.assert_allclose(kron_power([5.0, 7.0], 0), [1.0])

    def test_against_nested_loops(self):
        x = np.array([0.3, -0.7])
        got = kron_power(x, 3)
        for col, idx in enumerate(itertools.product(range(2), repeat=3)):
            npt.assert_allclose(got[col], np.prod([x[i] for i in idx]))


class TestColumnOrdering:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bijection_round_trip(self, n, k):
        seen = set()
        for idx in itertools.product(range(n), repeat=k):
            col = multi_index_to_column(idx, n)
            assert column_to_multi_index(col, n, k) == idx
            seen.add(col)
        assert seen == set(range(n ** k))

    def test_matches_enumeration(self):
        idx = column_multi_indices(3, 2)
        for col, row in enumerate(idx):
            assert multi_index_to_column(tuple(row), 3) == col


class TestEvalPoly:
    def test_identity_linear_map(self):
        pm = PolyMap({1: np.eye(3)}, 3)
        x = np.array([1.0, -2.0, 0.5])
        npt.assert_allclose(pm(x), x)

    def test_printed_quadratic_transform_at_unit_point(self):
        # quadratic 2-state map with rows (-0.5 z1^2 + z1 z2 - 0.707 z1 - 0.5 z2^2
        # - 0.707 z2, 0.707 z2 - 0.707 z1) evaluated at (1, 0)
        pm = polymap_from_monomials(2, 2, {
            (0, (2, 0)): -0.5, (0, (1, 1)): 1.0, (0, (1, 0)): -0.707,
            (0, (0, 2)): -0.5, (0, (0, 1)): -0.707,
            (1, (0, 1)): 0.707, (1, (1, 0)): -0.707,
        })
        npt.assert_allclose(pm(np.array([1.0, 0.0])), [-1.207, -0.707], atol=1e-12)

    def test_random_against_nested_loops(self):
        rng = np.random.default_rng(7)
        terms = {k: rng.standard_normal((2, 3 ** k)) for k in (0, 1, 2, 3)}
        pm = PolyMap(terms, 3, rows=2)
        for _ in range(5):
            x = rng.standard_normal(3)
            npt.assert_allclose(pm(x), naive_eval(terms, x), rtol=1e-12)

    def test_dimension_mismatch(self):
        pm = PolyMap({1: np.eye(2)}, 2)
        with pytest.raises(ValueError):
            pm(np.ones(3))


class TestSymmetrize:
    def test_single_cross_column_splits(self):
        W = np.zeros((1, 4))
        W[0, multi_index_to_column((0, 1), 2)] = 1.0
        sym = symmetrize_columns(W, 2, 2)
        npt.assert_allclose(sym[0], [0, 0.5, 0.5, 0])

    def test_symmetric_fixed_point(self):
        rng = np.random.default_rng(0)
        W = symmetrize_columns(rng.standard_normal((2, 27)), 3, 3)
        npt.assert_allclose(symmetrize_columns(W, 3, 3), W, rtol=1e-14)

    def test_preserves_evaluation(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = rng.integers(2, 4)
            terms = {k: rng.standard_normal((2, n ** k)) for k in (1, 2, 3)}
            pm = PolyMap(terms, int(n), rows=2)
            for _ in range(10):
                x = rng.standard_normal(int(n))
                npt.assert_allclose(pm(x), naive_eval(terms, x), rtol=1e-12, atol=1e-13)


class TestCanonicalForm:
    """Every PolyMap stores the symmetric representative of its coefficients."""

    def test_non_symmetric_blocks_stored_symmetrized(self):
        rng = np.random.default_rng(40)
        n = 3
        terms = {k: rng.standard_normal((2, n ** k)) for k in (0, 1, 2, 3)}
        pm = PolyMap(terms, n)
        for k, W in terms.items():
            want = W if k < 2 else symmetrize_columns(W, n, k)
            npt.assert_array_equal(pm.terms[k], want)
        for x in 0.7 * rng.standard_normal((5, n)):
            want = naive_eval(terms, x)
            npt.assert_allclose(pm(x), want, rtol=1e-14, atol=1e-14 * np.abs(want).max())

    def test_rebuilt_from_terms_is_bit_identical(self):
        for n, k in ((2, 2), (3, 3), (4, 4)):
            canon = PolyMap({k: _wide_range_columns(3, n, k, seed=n + k)}, n)
            again = PolyMap(canon.terms, n)
            npt.assert_array_equal(again.terms[k], canon.terms[k])
        # symmetrizing again would round the groups of 24: the check keeps them
        assert not np.array_equal(symmetrize_columns(canon.terms[k], n, k), canon.terms[k])

    def test_partly_symmetric_block_symmetrized_whole(self):
        # one non-symmetric row makes the whole block its symmetrize_columns,
        # which rounds the symmetric rows' groups of 24 again
        W = _wide_range_columns(3, 4, 4, seed=42)
        W[1:] = symmetrize_columns(W[1:], 4, 4)
        want = symmetrize_columns(W, 4, 4)
        assert not np.array_equal(want[1:], W[1:])
        npt.assert_array_equal(PolyMap({4: W}, 4).terms[4], want)


_GROUP_SHAPES = [(n, k) for n in (1, 2, 3, 5, 8) for k in (2, 3, 4)]


def _wide_range_columns(rows, n, k, seed):
    """Entries spread over ten decades, so any change of summation order shows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, n ** k)) * 10.0 ** rng.uniform(-5, 5, (rows, n ** k))


class TestGroupSums:
    """One bincount sums every column group, bit for bit as the routes it replaced;
    a map's fold is that group sum to rounding."""

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("n, k", _GROUP_SHAPES)
    def test_symmetrize_matches_add_at(self, n, k, rows):
        W = _wide_range_columns(rows, n, k, seed=n * 10 + k)
        npt.assert_array_equal(symmetrize_columns(W, n, k), add_at_symmetrize(W, n, k))

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("n, k", _GROUP_SHAPES)
    def test_fold_matches_sparse_group_sum(self, n, k, rows):
        # a map built from W stores W's group means, and its fold multiplies
        # them back by the group sizes: two roundings of the group sum
        W = _wide_range_columns(rows, n, k, seed=n * 10 + k + 1)
        folded = _fold(PolyMap({k: W}, n).terms[k], n, k)
        npt.assert_allclose(folded, sparse_group_fold(W, n, k), rtol=2.3e-16, atol=0)

    @pytest.mark.parametrize("n, k", _GROUP_SHAPES)
    def test_inod_sums_match_bincount_over_group_ids(self, n, k):
        # inod's alpha and beta: each composed energy summed per monomial
        inv, counts, _ = _symmetry_groups(n, k)
        for c in _wide_range_columns(2, n, k, seed=n * 10 + k + 2):
            want = np.bincount(inv, weights=c, minlength=counts.size)
            npt.assert_array_equal(_group_sums(c[None, :], n, k)[0], want)


class TestJacobian:
    def test_linear(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        pm = PolyMap({1: A}, 2)
        npt.assert_allclose(pm.jacobian(np.array([0.3, -0.8])), A)

    def test_scalar_square(self):
        pm = PolyMap({2: np.array([[1.0]])}, 1)
        npt.assert_allclose(pm.jacobian(np.array([3.0])), [[6.0]])

    def test_against_finite_differences(self):
        rng = np.random.default_rng(5)
        terms = {k: rng.standard_normal((3, 3 ** k)) for k in (1, 2, 3)}
        x = rng.standard_normal(3) * 0.5
        h = 1e-5
        pm = PolyMap(terms, 3)
        J = pm.jacobian(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (pm(x + e) - pm(x - e)) / (2 * h)
            npt.assert_allclose(J[:, j], fd, rtol=1e-6, atol=1e-8)


def _random_terms(rng, rows, n, degrees):
    return {k: rng.standard_normal((rows, n ** k)) for k in degrees}


# (rows, base_dim, degrees): non-symmetric maps, constant only, gaps in the
# degrees, and a scalar base
COMPACT_CASES = {
    "non-symmetric": (2, 3, (0, 1, 2, 3)),
    "degree-0-only": (3, 2, (0,)),
    "gaps": (2, 3, (0, 2, 4)),
    "gap-at-one": (2, 2, (1, 3)),
    "base-dim-1": (2, 1, (0, 1, 2, 3, 4)),
}


class TestCompactEvaluator:
    @pytest.fixture(params=sorted(COMPACT_CASES))
    def case(self, request):
        rows, n, degrees = COMPACT_CASES[request.param]
        rng = np.random.default_rng(len(request.param))
        terms = _random_terms(rng, rows, n, degrees)
        X = 0.7 * rng.standard_normal((5, n))
        return PolyMap(terms, n, rows=rows), terms, X

    def test_call_matches_nested_loops(self, case):
        pm, terms, X = case
        for x in X:
            want = naive_eval(terms, x)
            npt.assert_allclose(pm(x), want, rtol=1e-14, atol=1e-14 * np.abs(want).max())

    def test_evaluate_matches_nested_loops(self, case):
        pm, terms, X = case
        want = np.array([naive_eval(terms, x) for x in X])
        got = pm.evaluate(X)
        assert got.shape == (X.shape[0], pm.rows)
        npt.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())

    def test_jacobian_matches_nested_loops(self, case):
        pm, terms, X = case
        for x in X:
            want = naive_jacobian(terms, x, pm.rows)
            scale = max(np.abs(want).max(), 1.0)
            npt.assert_allclose(pm.jacobian(x), want, rtol=1e-14, atol=1e-14 * scale)

    def test_evaluate_shape_checked(self):
        pm = PolyMap({1: np.eye(2)}, 2)
        with pytest.raises(ValueError):
            pm.evaluate(np.ones(2))
        with pytest.raises(ValueError):
            pm.evaluate(np.ones((4, 3)))

    def test_compact_cache_freed_without_cycle_collection(self):
        import gc
        import weakref

        pm = PolyMap({1: np.eye(2), 2: np.ones((2, 4))}, 2)
        pm(np.ones(2))
        pm.jacobian(np.ones(2))
        refs = [weakref.ref(pm._compact), weakref.ref(pm._compact_jac)]
        gc.disable()
        try:
            del pm
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_evaluate_keeps_no_fold(self):
        # a batch pays for its own fold; only point calls cache one
        pm = PolyMap({2: np.ones((1, 4))}, 2)
        pm.evaluate(np.ones((3, 2)))
        assert pm._compact is None
        pm(np.ones(2))
        assert pm._compact is not None

    def test_compact_entries_within_kronecker_entries(self):
        # wide-n96 shape: f of degrees 1-2 and 96 constant input columns;
        # stacking [f; g] over one monomial range would pad g to 9312 x 4753
        n = 96
        rng = np.random.default_rng(17)
        f = PolyMap({1: -np.eye(n), 2: 1e-3 * rng.standard_normal((n, n ** 2))}, n)
        g = [PolyMap({0: np.eye(n)[:, i : i + 1]}, n, rows=n) for i in range(n)]
        sys = ControlAffineSystem(f, g, PolyMap({1: np.eye(n)}, n))
        x, u = 0.1 * rng.standard_normal(n), rng.standard_normal(n)
        npt.assert_allclose(sys.rhs(x, u), f(x) + u, rtol=1e-13, atol=1e-15)
        kron = sum(W.size for pm in (f, *g) for W in pm.terms.values())
        compact = sum(C.size for _, _, _, C in sys._compact.products)
        assert compact <= kron

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_gather_matches_recursion_bitwise(self, n):
        # an identity fold returns the monomials themselves: a point, then a
        # batch of columns
        rng = np.random.default_rng(20 + n)
        for top in range(8):
            size = _monomial_start(n, top + 1)
            compact = _Compact(n, size, [(np.arange(size), 0, top, np.eye(size))])
            x = 0.9 * rng.standard_normal(n)
            npt.assert_array_equal(compact(x), recursive_monomials(x, top))
            X = 0.9 * rng.standard_normal((n, 6))
            npt.assert_array_equal(compact(X), recursive_monomials(X, top))

    def test_rom_shape_folds_to_one_product(self):
        # the shape of a degree-5 ROM with r = 2: f of degrees 1-5 and one
        # input column of degrees 0-4 share one zero-padded product
        rng = np.random.default_rng(21)
        n = 2
        f = PolyMap(_random_terms(rng, n, n, range(1, 6)), n)
        g = PolyMap(_random_terms(rng, n, n, range(5)), n)
        sys = ControlAffineSystem(f, [g], PolyMap({1: np.eye(n)}, n))
        for _ in range(3):
            x, u = 0.6 * rng.standard_normal(n), rng.standard_normal(1)
            want = f(x) + g(x) * u
            npt.assert_allclose(sys.rhs(x, u), want, rtol=1e-14, atol=1e-14 * np.abs(want).max())
        assert len(sys._compact.products) == 1 and sys._compact.whole is not None

    def test_jacobian_of_one_product_is_one_product(self):
        rng = np.random.default_rng(22)
        pm = PolyMap(_random_terms(rng, 2, 2, range(1, 6)), 2)
        x = 0.5 * rng.standard_normal(2)
        pm.jacobian(x)
        assert pm._compact_jac.whole is not None
        npt.assert_allclose(pm.jacobian(x), naive_jacobian(pm.terms, x, 2), rtol=1e-14, atol=1e-14)


class TestKwayLyap:
    def test_one_way_is_matrix(self):
        A = np.arange(6.0).reshape(2, 3)
        npt.assert_allclose(kway_lyap_matrix(A, 1), A)
        npt.assert_allclose(kway_lyap_apply(A, 1, np.ones(3)), A @ np.ones(3))

    def test_identity_scales_kron_powers(self):
        x = np.array([0.4, -1.1, 0.2])
        for k in (2, 3):
            npt.assert_allclose(
                kway_lyap_apply(np.eye(3), k, kron_power(x, k)),
                k * kron_power(x, k),
                rtol=1e-13,
            )

    def test_directional_derivative_oracle(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        for k in (2, 3):
            got = kway_lyap_apply(A, k, kron_power(x, k))
            h = 1e-6
            fd = (kron_power(x + h * A @ x, k) - kron_power(x - h * A @ x, k)) / (2 * h)
            npt.assert_allclose(got, fd, rtol=1e-6, atol=1e-9)

    def test_apply_matches_materialized(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((2, 3))
        V = rng.standard_normal((2 ** 2 * 3, 4))
        npt.assert_allclose(
            kway_lyap_apply(A, 3, V), kway_lyap_matrix(A, 3) @ V, rtol=1e-12
        )

    def test_right_product_matches_materialized(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((2, 27))
        B = rng.standard_normal((3, 9))
        npt.assert_allclose(
            right_kway_product(M, B, 3, 3), M @ kway_lyap_matrix(B, 3), rtol=1e-12
        )


class TestTensorSum:
    def test_three_factor_pure(self):
        rng = np.random.default_rng(0)
        P1 = rng.standard_normal((2, 2))
        got = tensor_sum({1: P1}, 3, 3)
        npt.assert_allclose(got, np.kron(P1, np.kron(P1, P1)), rtol=1e-14)

    def test_two_factor_mixed_degree(self):
        rng = np.random.default_rng(1)
        T = {1: rng.standard_normal((2, 2)), 2: rng.standard_normal((2, 4))}
        got = tensor_sum(T, 2, 3)
        npt.assert_allclose(
            got, np.kron(T[1], T[2]) + np.kron(T[2], T[1]), rtol=1e-14
        )

    def test_equal_factor_count_and_degree(self):
        rng = np.random.default_rng(2)
        T1 = rng.standard_normal((3, 3))
        npt.assert_allclose(tensor_sum({1: T1}, 2, 2), np.kron(T1, T1), rtol=1e-14)

    def test_missing_degree_raises(self):
        with pytest.raises(KeyError):
            tensor_sum({1: np.eye(2)}, 2, 4)

    def test_mat_times_tensor_sum(self):
        rng = np.random.default_rng(3)
        T = {1: rng.standard_normal((2, 2)), 2: rng.standard_normal((2, 4))}
        M = rng.standard_normal((3, 4))
        npt.assert_allclose(
            mat_times_tensor_sum(M, T, 2, 3), M @ tensor_sum(T, 2, 3), rtol=1e-12
        )

    def test_mat_times_kron(self):
        rng = np.random.default_rng(4)
        A, B = rng.standard_normal((2, 3)), rng.standard_normal((4, 5))
        M = rng.standard_normal((3, 8))
        npt.assert_allclose(mat_times_kron(M, [A, B]), M @ np.kron(A, B), rtol=1e-12)

    def test_mat_times_kron_one_row(self):
        rng = np.random.default_rng(5)
        A, B = rng.standard_normal((2, 3)), rng.standard_normal((4, 5))
        M = rng.standard_normal((1, 8))
        npt.assert_allclose(mat_times_kron(M, [A, B]), M @ np.kron(A, B), rtol=1e-12)


class TestCompose:
    def test_identity_transform(self):
        rng = np.random.default_rng(0)
        P = PolyMap({k: rng.standard_normal((2, 2 ** k)) for k in (1, 2, 3)}, 2)
        T = PolyMap({1: np.eye(2)}, 2)
        out = compose(P, T, 2)
        npt.assert_allclose(out.term(1), P.term(1))
        npt.assert_allclose(out.term(2), P.term(2))
        assert out.degree == 2

    def test_scalar_hand_expansion(self):
        # p(x) = x^2 composed with x = z + z^2 gives z^2 + 2 z^3 + z^4
        P = PolyMap({2: np.array([[1.0]])}, 1)
        T = PolyMap({1: np.array([[1.0]]), 2: np.array([[1.0]])}, 1)
        out = compose(P, T, 4)
        npt.assert_allclose(
            [out.term(k)[0, 0] for k in (1, 2, 3, 4)], [0, 1, 2, 1], atol=1e-14
        )

    def test_pointwise_ray_scaling(self):
        from conftest import ray_slope

        rng = np.random.default_rng(9)
        P = PolyMap({k: rng.standard_normal((3, 3 ** k)) for k in (1, 2, 3)}, 3)
        T = PolyMap({k: rng.standard_normal((3, 2 ** k)) for k in (1, 2)}, 2, rows=3)
        d_out = 3
        comp = compose(P, T, d_out)

        def resid(z):
            return comp(z) - P(T(z))

        assert ray_slope(resid, 2, seed=1) >= d_out + 0.7

    def test_constant_term_rejected(self):
        P = PolyMap({1: np.eye(2)}, 2)
        T = PolyMap({0: np.ones((2, 1)), 1: np.eye(2)}, 2)
        with pytest.raises(ValueError):
            compose(P, T, 2)

    def test_associativity_on_truncations(self):
        rng = np.random.default_rng(12)
        d = 3
        P = PolyMap({k: rng.standard_normal((2, 2 ** k)) for k in (1, 2, 3)}, 2)
        T = PolyMap({k: rng.standard_normal((2, 2 ** k)) for k in (1, 2, 3)}, 2)
        S = PolyMap({k: rng.standard_normal((2, 2 ** k)) for k in (1, 2, 3)}, 2)
        left = compose(compose(P, T, d), S, d)
        right = compose(P, compose(T, S, d), d)
        for k in (1, 2, 3):
            npt.assert_allclose(left.term(k), right.term(k), rtol=1e-12, atol=1e-12)

    def test_compose_degree_is_compose_term(self):
        rng = np.random.default_rng(13)
        P = PolyMap({k: rng.standard_normal((2, 3 ** k)) for k in (0, 1, 2, 3)}, 3)
        T = PolyMap({k: rng.standard_normal((3, 2 ** k)) for k in (1, 2)}, 2, rows=3)
        d = 4
        comp = compose(P, T, d)
        for k in range(1, d + 1):
            want = symmetrize_columns(compose_degree(P.terms, T.terms, k), 2, k)
            npt.assert_array_equal(comp.term(k), want)

    def test_compose_degree_none_without_contribution(self):
        # T has no linear term: degree 3 would need T_1 or T_3
        rng = np.random.default_rng(14)
        maps = {1: rng.standard_normal((2, 2)), 2: rng.standard_normal((2, 4))}
        T = {2: rng.standard_normal((2, 4))}
        assert compose_degree(maps, T, 3) is None
        assert compose_degree(maps, T, 1) is None
        npt.assert_allclose(compose_degree(maps, T, 2), maps[1] @ T[2], rtol=1e-14)

    def test_compose_degree_ignores_constant_term(self):
        rng = np.random.default_rng(15)
        maps = {k: rng.standard_normal((2, 2 ** k)) for k in (1, 2)}
        T = {k: rng.standard_normal((2, 2 ** k)) for k in (1, 2)}
        with_constant = {**maps, 0: np.full((2, 1), 1e6)}
        for k in (1, 2, 3):
            npt.assert_array_equal(compose_degree(with_constant, T, k), compose_degree(maps, T, k))
        assert compose_degree({0: np.ones((2, 1))}, T, 2) is None


# partition counts p(1..10)
PARTITIONS = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


class TestCompositionTerms:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_symmetric_multiplicities_count_compositions(self, k):
        table = _composition_terms(k)
        assert len(table) == PARTITIONS[k - 1]
        for j in range(1, k + 1):
            entries = [(d, mult) for d, mult in table if len(d) == j]
            assert sum(mult for _, mult in entries) == math.comb(k - 1, j - 1)
            for degrees, mult in entries:
                assert sum(degrees) == k and list(degrees) == sorted(degrees)
                orderings = math.factorial(j)
                for c in set(degrees):
                    orderings //= math.factorial(degrees.count(c))
                assert mult == orderings
            assert len({d for d, _ in entries}) == len(entries)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_general_table_lists_each_composition_once(self, k):
        # the orderings of the listed partitions are the compositions that
        # the exact Kronecker coefficient sums over
        listed = [
            c for degrees, _ in _composition_terms(k) for c in set(itertools.permutations(degrees))
        ]
        # a composition is a set of cut points in 1..k-1
        every = [
            tuple(np.diff((0, *cuts, k)))
            for j in range(1, k + 1)
            for cuts in itertools.combinations(range(1, k), j - 1)
        ]
        assert len(listed) == len(set(listed)) == 2 ** (k - 1)
        assert set(listed) == set(every)

    def test_degree_two_tables_agree(self):
        # no partition of 1 or 2 has two orderings: the table is the compositions
        for k in (1, 2):
            want = tuple((c, 1) for j in range(1, k + 1) for c in compositions(k, j))
            assert _composition_terms(k) == want


def _symmetric_maps(rng, rows, n, degrees):
    return {j: symmetrize_columns(rng.standard_normal((rows, n ** j)), n, j) for j in degrees}


class TestComposeOverPartitions:
    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetric_map_matches_kronecker_oracle(self, n):
        # the transform has no degree-3 term, so products that need it drop out
        rng = np.random.default_rng(30 + n)
        maps = _symmetric_maps(rng, 2, n, range(1, 9))
        T = {i: rng.standard_normal((n, n ** i)) / i for i in (1, 2, 4, 5, 6, 7, 8)}
        for k in range(1, 9):
            got = compose_degree(maps, T, k)
            want = sum(
                term
                for j in range(1, k + 1)
                if (term := mat_times_tensor_sum(maps[j], T, j, k)) is not None
            )
            want = symmetrize_columns(want, n, k)
            scale = np.abs(want).max()
            npt.assert_allclose(symmetrize_columns(got, n, k), want, rtol=0, atol=1e-13 * scale)

    def test_symmetric_degree_seven_contracts_each_partition_once(self, monkeypatch):
        # sum_k p(k) = 44 products for k = 1..7, against 2^7 - 1 = 127 compositions
        import nlbt.kron as kron

        rng = np.random.default_rng(36)
        P = PolyMap(_symmetric_maps(rng, 2, 2, range(1, 8)), 2)
        T = PolyMap({i: rng.standard_normal((2, 2 ** i)) for i in range(1, 8)}, 2)
        calls = []
        real = kron.mat_times_kron

        def counting(M, factors):
            calls.append(len(factors))
            return real(M, factors)

        monkeypatch.setattr(kron, "mat_times_kron", counting)
        compose(P, T, 7)
        assert len(calls) == sum(PARTITIONS[:7]) == 44


class TestPolymapFromMonomials:
    def test_zoo_maps_match_spreading_oracle(self, monkeypatch):
        """Every map the zoo builds from monomials equals the permutation-spreading
        oracle bit for bit, in the same memory layout."""
        built = []

        def checked(n, rows, entries):
            pm = polymap_from_monomials(n, rows, entries)
            want = spread_polymap_from_monomials(n, rows, entries)
            assert pm.terms.keys() == want.terms.keys()
            for k, W in pm.terms.items():
                npt.assert_array_equal(W, want.terms[k])
                assert W.flags.c_contiguous and W.strides == want.terms[k].strides
            built.append(pm)
            return pm

        monkeypatch.setattr(models, "polymap_from_monomials", checked)
        for name in ("2d-illustrative", "3d-illustrative", "3d-illustrative-exact", "beam",
                     "pendulum:3", "pendulum:7", "double-pendulum:3", "double-pendulum:5"):
            models.by_name(name)
        assert len(built) == 28


class TestControlAffineSystem:
    def test_constant_output_rejected(self):
        f = PolyMap({1: -np.eye(2)}, 2)
        g = PolyMap({0: np.ones((2, 1))}, 2, rows=2)
        h = PolyMap({0: [[0.5]], 1: [[1.0, 0.0]]}, 2)
        with pytest.raises(ValueError, match="h must not have a constant term"):
            ControlAffineSystem(f, [g], h)
        # a zero constant block is no constant term
        ControlAffineSystem(f, [g], PolyMap({0: [[0.0]], 1: [[1.0, 0.0]]}, 2))

    def test_constant_drift_rejected(self):
        f = PolyMap({0: np.ones((2, 1)), 1: np.eye(2)}, 2)
        g = PolyMap({0: np.ones((2, 1))}, 2, rows=2)
        h = PolyMap({1: np.eye(2)}, 2)
        with pytest.raises(ValueError):
            ControlAffineSystem(f, [g], h)

    def test_stacked_g(self):
        g1 = PolyMap({0: np.array([[1.0], [0.0]])}, 2, rows=2)
        g2 = PolyMap({0: np.array([[0.0], [2.0]])}, 2, rows=2)
        f = PolyMap({1: -np.eye(2)}, 2)
        h = PolyMap({1: np.eye(2)}, 2)
        sys = ControlAffineSystem(f, [g1, g2], h)
        npt.assert_allclose(sys.B, [[1, 0], [0, 2]])
        npt.assert_allclose(sys.stacked_g(0), [[1, 0], [0, 2]])
        npt.assert_allclose(sys.rhs(np.zeros(2), [1.0, 1.0]), [1, 2])

    def test_stacked_evaluation_matches_per_map(self):
        # f and the input columns have different, gapped degree sets, so the
        # stacked evaluation fills rows per degree run
        rng = np.random.default_rng(18)
        n = 3
        f = PolyMap(_random_terms(rng, n, n, (1, 3)), n)
        g = [
            PolyMap(_random_terms(rng, n, n, degs), n, rows=n)
            for degs in ((0,), (0, 2), (1, 2, 4))
        ]
        sys = ControlAffineSystem(f, g, PolyMap({1: np.eye(n)}, n))
        for _ in range(3):
            x, u = 0.6 * rng.standard_normal(n), rng.standard_normal(3)
            G = np.column_stack([naive_eval(gc.terms, x) for gc in g])
            npt.assert_allclose(sys.input_matrix(x), G, rtol=1e-13, atol=1e-14)
            want = naive_eval(f.terms, x) + G @ u
            npt.assert_allclose(sys.rhs(x, u), want, rtol=1e-13, atol=1e-14)
        with pytest.raises(ValueError):
            sys.rhs(np.ones(2), u)

    def test_rhs_input_shape(self):
        f = PolyMap({1: -np.eye(2)}, 2)
        g = PolyMap({0: np.array([[1.0], [2.0]])}, 2, rows=2)
        sys = ControlAffineSystem(f, [g], f)
        npt.assert_array_equal(sys.rhs(np.zeros(2), 0.5), [0.5, 1.0])
        npt.assert_array_equal(sys.rhs(np.zeros(2), [0.5]), [0.5, 1.0])
        with pytest.raises(ValueError):
            sys.rhs(np.zeros(2), [0.5, 0.5])
        with pytest.raises(ValueError):
            ControlAffineSystem(f, [g, g], f).rhs(np.zeros(2), 0.5)

    def test_term_less_drift_with_one_input_column(self):
        # the input column is the only block, but f holds rows of the stack too
        sys = ControlAffineSystem(
            PolyMap({}, 1, rows=1), [PolyMap({0: [[1.0]]}, 1)], PolyMap({1: [[1.0]]}, 1)
        )
        npt.assert_array_equal(sys.rhs([0.5], 2.0), [2.0])
        npt.assert_array_equal(sys.rhs([-1.0], 0.0), [0.0])

    def test_release_fold(self):
        f = PolyMap({1: -np.eye(2)}, 2)
        sys = ControlAffineSystem(f, [PolyMap({0: np.ones((2, 1))}, 2, rows=2)], f)
        before = sys.rhs(np.ones(2), [1.0])
        sys.release_fold()
        assert sys._compact is None
        npt.assert_array_equal(sys.rhs(np.ones(2), [1.0]), before)


class TestAdopt:
    def test_internal_results_are_read_only_and_not_copied(self):
        rng = np.random.default_rng(19)
        W = rng.standard_normal((2, 4))
        pm = PolyMap._adopt({2: W}, 2, 2)
        assert pm.terms[2] is W and not W.flags.writeable
        comp = compose(PolyMap({1: np.eye(2), 2: W}, 2), PolyMap({1: np.eye(2)}, 2), 2)
        assert not any(V.flags.writeable for V in comp.terms.values())

    def test_public_constructor_copies(self):
        W = np.ones((1, 4))
        pm = PolyMap({2: W}, 2)
        assert not np.shares_memory(pm.terms[2], W)
        assert W.flags.writeable
