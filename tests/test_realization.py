import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as la

from conftest import best_state_signs, ray_slope
from test_energy import mixed_input_system
from nlbt import models
from nlbt.errors import HypothesisViolation
from nlbt.kron import ControlAffineSystem, PolyMap
from nlbt.pipeline import balance
from nlbt.realization import (
    BalancingTransform,
    _coupling,
    balanced_drift,
    balanced_input,
    balanced_output,
    build_rom,
    inverse_transform_coeffs,
    truncate_columns,
    truncate_transform,
)


def random_transform(n, d, seed, diag_boost=2.0):
    """Random degree-d polynomial transform with a well-conditioned linear part."""
    rng = np.random.default_rng(seed)
    terms = {1: rng.standard_normal((n, n)) + diag_boost * np.eye(n)}
    for k in range(2, d + 1):
        terms[k] = 0.3 * rng.standard_normal((n, n ** k))
    return PolyMap(terms, n)


def random_cubic_system(n, seed):
    rng = np.random.default_rng(seed)
    f = PolyMap(
        {1: rng.standard_normal((n, n)) - 2 * np.eye(n),
         2: 0.4 * rng.standard_normal((n, n ** 2)),
         3: 0.2 * rng.standard_normal((n, n ** 3))},
        n,
    )
    g = [
        PolyMap({0: rng.standard_normal((n, 1)), 1: 0.3 * rng.standard_normal((n, n))},
                n, rows=n)
        for _ in range(2)
    ]
    h = PolyMap({1: rng.standard_normal((2, n)), 2: 0.2 * rng.standard_normal((2, n ** 2))}, n)
    return ControlAffineSystem(f, g, h)


class TestBalancedCoefficients:
    def test_identity_transform_is_identity(self):
        sys = random_cubic_system(3, 0)
        Tbar = PolyMap({1: np.eye(3)}, 3)
        inv = np.eye(3)
        fbar = balanced_drift(sys.f, Tbar, inv, 3)
        gbar = balanced_input([sys.g[0]], Tbar, inv, 3)
        hbar = balanced_output(sys.h, Tbar, 3)
        for k in (1, 2, 3):
            npt.assert_allclose(fbar.term(k), sys.f.term(k), atol=1e-12)
            npt.assert_allclose(hbar.term(k), sys.h.term(k), atol=1e-12)
        npt.assert_allclose(gbar.term(0), sys.g[0].term(0), atol=1e-13)
        npt.assert_allclose(gbar.term(1), sys.g[0].term(1), atol=1e-12)

    def test_two_dim_printed_realization(self):
        pl = balance(models.two_dim_illustrative(), 7)
        bal = pl.realize()
        F1 = bal.sys.f.term(1)
        G0 = bal.sys.g[0].term(0)
        H1 = bal.sys.h.term(1)
        signs, err = best_state_signs(
            [("similarity", F1), ("rows", G0), ("cols", H1)],
            [
                ("similarity", np.array([[-81.2, -67.4], [-67.4, -57.7]])),
                ("rows", np.array([[-15.2], [-10.7]])),
                ("cols", np.array([[-15.2, -10.7]])),
            ],
        )
        assert err < 0.05
        for k in range(2, 8):
            assert np.abs(bal.sys.f.term(k)).max() < 1e-6
            assert np.abs(bal.sys.h.term(k)).max() < 1e-6
            assert np.abs(bal.sys.g[0].term(k)).max() < 1e-6

    def test_jacobian_identity_ray_scaling(self):
        d = 3
        sys = random_cubic_system(3, seed=5)
        Tbar = random_transform(3, d, seed=6)
        Tinv = la.inv(Tbar.term(1))
        fbar = balanced_drift(sys.f, Tbar, Tinv, d)
        gbar = balanced_input(sys.g, Tbar, Tinv, d)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(2)

        def resid(zbar):
            J = Tbar.jacobian(zbar)
            lhs = J @ (fbar(zbar) + gbar(zbar).reshape(2, 3).T @ u)
            x = Tbar(zbar)
            rhs = sys.f(x) + sys.input_matrix(x) @ u
            return lhs - rhs

        assert ray_slope(resid, 3, seed=8) >= d + 0.5

    def test_jacobian_identity_degreewise(self):
        d = 3
        sys = random_cubic_system(3, seed=15)
        Tbar = random_transform(3, d, seed=16)
        fbar = balanced_drift(sys.f, Tbar, la.inv(Tbar.term(1)), d)
        worst, _ = degreewise_mismatch(sys.f, fbar, Tbar, 1, d)
        assert worst <= 1e-9 * max(np.abs(W).max() for W in sys.f.terms.values())


def degreewise_mismatch(m, mbar, Tbar, lo, hi):
    """Coefficient-level form of the transformed state equation, reassembled.

    For each degree k in ``lo..hi``, ``sum_i Tbar_i L_i(mbar_{k-i+1})`` must
    equal ``sum_j M_j Tcal_{j,k}`` (plus ``M_0`` at k = 0) up to column
    symmetry: ``mbar`` is the drift or one input column of ``m`` in
    coordinates ``Tbar``.  Returns the largest absolute mismatch and the
    largest coefficient of the two sides.
    """
    from kron_oracles import mat_times_tensor_sum
    from nlbt.kron import right_kway_product, symmetrize_columns

    n = Tbar.base_dim
    Ts = {k: W for k, W in Tbar.terms.items() if k >= 1}
    worst = scale = 0.0
    for k in range(lo, hi + 1):
        lhs = np.zeros((n, n ** k))
        for i in range(1, min(k + 1, max(Ts)) + 1):
            if k - i + 1 in mbar.terms:
                lhs += right_kway_product(Ts[i], mbar.terms[k - i + 1], i, n)
        rhs = m.term(0).copy() if k == 0 else np.zeros((n, n ** k))
        for j in range(1, k + 1):
            if j in m.terms:
                term = mat_times_tensor_sum(m.terms[j], Ts, j, k)
                if term is not None:
                    rhs += term
        diff = symmetrize_columns(lhs - rhs, n, k)
        worst = max(worst, np.abs(diff).max())
        scale = max(scale, np.abs(lhs).max(), np.abs(rhs).max())
    return worst, scale


class TestInverseTransform:
    def test_linear_transform_has_no_higher_terms(self):
        Tbar = PolyMap({1: np.array([[2.0, 0.3], [0.1, -1.5]])}, 2)
        P = inverse_transform_coeffs(Tbar, la.inv(Tbar.term(1)), 4)
        for k in (2, 3, 4):
            npt.assert_allclose(P.term(k), 0, atol=1e-13)

    def test_three_dim_recovers_construction_inverse(self):
        # the balancing transformation of the disguised-linear cubic model is
        # exactly cubic; its series inverse is the cubic map
        # (x1, x2, x3 + x1^2 + x2^2 + x1^3) up to state signs
        pl = balance(models.three_dim_illustrative(exact=True), 4)
        P = pl.P
        x = np.array([0.21, -0.33, 0.4])
        psi = np.array([x[0], x[1], x[2] + x[0] ** 2 + x[1] ** 2 + x[0] ** 3])
        got = P(x)
        npt.assert_allclose(np.abs(got), np.abs(psi), rtol=1e-6)

    def test_round_trip_ray_scaling(self):
        d = 3
        Tbar = random_transform(3, d, seed=9)
        P = inverse_transform_coeffs(Tbar, la.inv(Tbar.term(1)), d)

        def resid(zbar):
            return P(Tbar(zbar)) - zbar

        assert ray_slope(resid, 3, seed=10) >= d + 0.5


class TestSeriesInverseOnDemand:
    def test_built_on_first_access_only(self, monkeypatch):
        import nlbt.pipeline

        calls = []

        def counting(*args):
            calls.append(args)
            return inverse_transform_coeffs(*args)

        monkeypatch.setattr(nlbt.pipeline, "inverse_transform_coeffs", counting)
        sys = models.double_pendulum(3)
        pl = balance(sys, 3)
        rom = pl.reduce(2, x0=np.full(sys.n, 0.02))
        assert not calls and rom.P.rows == 2
        P = pl.P
        assert pl.P is P and len(calls) == 1

    def test_degree_is_the_transform_degree(self, zoo_pipelines):
        # build_rom builds the ROM's rows to Tbar.degree
        for pl in [*zoo_pipelines.values(), balance(models.double_pendulum(5), 1)]:
            assert pl.Tbar.degree == pl.P.degree == pl.d_transf


class TestTruncation:
    def test_full_order_is_identity(self):
        Tbar = random_transform(3, 3, seed=11)
        Tr = truncate_transform(Tbar, 3)
        for k in (1, 2, 3):
            npt.assert_allclose(Tr.term(k), Tbar.term(k), atol=1e-14)

    def test_two_state_single_column(self):
        Tbar = random_transform(2, 2, seed=12)
        Tr = truncate_transform(Tbar, 1)
        assert Tr.term(2).shape == (2, 1)
        npt.assert_allclose(Tr.term(2)[:, 0], Tbar.term(2)[:, 0])

    def test_evaluation_matches_padded_full(self):
        Tbar = random_transform(3, 3, seed=13)
        Tr = truncate_transform(Tbar, 2)
        xr = np.array([0.3, -0.7])
        npt.assert_allclose(Tr(xr), Tbar(np.array([0.3, -0.7, 0.0])), rtol=1e-12)

    def test_no_truncation_outlives_build_rom(self, monkeypatch):
        # the recursions slice the transform per call, and only the ROM's own
        # T_r is kept
        made = []

        def recording(Tbar, r):
            Tr = truncate_transform(Tbar, r)
            made.append(weakref.ref(Tr))
            return Tr

        monkeypatch.setattr("nlbt.realization.truncate_transform", recording)
        pl = balance(models.double_pendulum(3), 3)
        rom = build_rom(pl, 2, 3)
        alive = [ref() for ref in made if ref() is not None]
        assert len(made) == 4  # drift, all input columns at once, output, T_r
        assert [Tr is rom.T_r for Tr in alive] == [True]

    def test_three_dim_manifold_map(self):
        # truncating the last state leaves the manifold map
        # (z1, z2) -> (-z1, -z2, z1^3 - z1^2 - z2^2) up to state signs
        pl = balance(models.three_dim_illustrative(exact=True), 4)
        Tr = truncate_transform(pl.Tbar, 2)
        for z in (np.array([0.4, -0.2]), np.array([-0.15, 0.3])):
            got = Tr(z)
            want1 = np.array([-z[0], -z[1], z[0] ** 3 - z[0] ** 2 - z[1] ** 2])
            best = min(
                np.abs(got - np.array([s1 * -z[0], s2 * -z[1],
                                       (s1 * z[0]) ** 3 - (s1 * z[0]) ** 2 - (s2 * z[1]) ** 2]))
                .max()
                for s1 in (-1, 1)
                for s2 in (-1, 1)
            )
            assert best < 1e-6, (got, want1)


def assert_truncation_of(got, full, r, rows, tol=1e-12):
    """``got`` equals ``full`` on its leading ``rows`` rows and retained columns.

    Relative to the largest coefficient of ``full``: coefficients that vanish
    in exact arithmetic carry rounding noise of that size.
    """
    n = full.base_dim
    assert got.base_dim == r and got.rows == rows
    assert set(got.terms) == set(full.terms)
    scale = max(np.abs(W).max() for W in full.terms.values())
    for k, W in full.terms.items():
        want = truncate_columns(W[:rows], n, r, k)
        assert np.abs(got.terms[k] - want).max() <= tol * scale, k


def assert_rom_is_truncated_realization(pl, r, d_rom=None, g_degree=None):
    full = pl.realize(d_rom, g_degree=g_degree).sys
    x0 = np.linspace(-0.03, 0.05, full.n)
    rom = pl.reduce(r, d_rom=d_rom, x0=x0, g_degree=g_degree)
    assert_truncation_of(rom.sys.f, full.f, r, r)
    assert len(rom.sys.g) == full.m
    for got, want in zip(rom.sys.g, full.g):
        assert_truncation_of(got, want, r, r)
    assert_truncation_of(rom.sys.h, full.h, r, full.p)
    assert_rom_inverse_rows(pl, rom, x0)


def assert_rom_inverse_rows(pl, rom, x0):
    """``rom.P`` is the leading r rows of ``pl.P``, and ``x_r0`` is its value at ``x0``.

    The rows are bit-identical for r >= 2.  At r = 1 BLAS takes a one-row
    path, so they lie within 2 ulp of the row's largest coefficient.  The
    evaluator sums a map of r rows in its own order, so ``x_r0`` lies within
    4 ulp (of its largest entry) of ``pl.P(x0)[:r]``.
    """
    r = rom.r
    assert rom.P.rows == r and rom.P.base_dim == pl.sys.n
    assert set(rom.P.terms) == set(pl.P.terms)
    scale = np.max([np.abs(W[:r]).max(axis=1) for W in pl.P.terms.values()], axis=0)
    for k, W in pl.P.terms.items():
        if r >= 2:
            assert np.array_equal(rom.P.terms[k], W[:r]), k
        else:
            assert np.all(np.abs(rom.P.terms[k] - W[:r]) <= 2 * np.spacing(scale)[:, None]), k
    assert np.array_equal(rom.x_r0, rom.P(x0))
    want = pl.P(x0)[:r]
    assert np.abs(rom.x_r0 - want).max() <= 4 * np.spacing(np.abs(want).max())


ZOO_CASES = [
    ("2d-illustrative", 7, 7),
    ("3d-illustrative-exact", 3, 3),
    ("double-pendulum", 5, 5),
    ("beam", 2, 2),
]


@pytest.fixture(scope="module")
def zoo_pipelines():
    return {
        name: balance(models.by_name(name, degree), d) for name, degree, d in ZOO_CASES
    }


class TestTruncateFirst:
    @pytest.mark.parametrize(
        "name,r",
        [
            (name, r)
            for name, degree, _ in ZOO_CASES
            for r in range(1, models.by_name(name, degree).n + 1)
        ],
    )
    def test_rom_is_truncated_full_realization(self, zoo_pipelines, name, r):
        assert_rom_is_truncated_realization(zoo_pipelines[name], r)

    def test_rom_degree_above_transform_degree(self):
        pl = balance(models.double_pendulum(5), 1)
        assert_rom_is_truncated_realization(pl, 2, d_rom=5)

    def test_input_degree_override(self, zoo_pipelines):
        assert_rom_is_truncated_realization(zoo_pipelines["double-pendulum"], 2, g_degree=5)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_recursions_on_random_system(self, r):
        # two inputs with state-dependent g, a generic (non-balancing) transform
        d, n = 3, 3
        sys = random_cubic_system(n, seed=21)
        Tbar = random_transform(n, d, seed=22)
        Tinv = la.inv(Tbar.term(1))
        assert_truncation_of(
            balanced_drift(sys.f, Tbar, Tinv, d, r), balanced_drift(sys.f, Tbar, Tinv, d), r, n
        )
        assert_truncation_of(
            balanced_input(sys.g, Tbar, Tinv, d, r), balanced_input(sys.g, Tbar, Tinv, d), r,
            sys.m * n,
        )
        assert_truncation_of(
            balanced_output(sys.h, Tbar, d, r), balanced_output(sys.h, Tbar, d), r, sys.p
        )

    @pytest.mark.parametrize("i,jj", [(2, 0), (2, 1), (3, 0), (3, 2), (4, 1)])
    def test_coupling_on_retained_columns(self, i, jj):
        from nlbt.kron import right_kway_product, symmetrize_columns

        n, r = 4, 2
        rng = np.random.default_rng(30 + i + jj)
        Ti = symmetrize_columns(rng.standard_normal((3, n ** i)), n, i)
        X = rng.standard_normal((2, n, n ** jj))  # two stacked blocks
        got = _coupling(Ti, truncate_columns(X.reshape(2 * n, -1), n, r, jj).reshape(2, n, -1),
                        i, n, r)
        for Xl, got_l in zip(X, got):
            want = truncate_columns(right_kway_product(Ti, Xl, i, n), n, r, i - 1 + jj)
            npt.assert_allclose(got_l, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_stacked_columns_match_one_at_a_time(self, r):
        # state-dependent columns of degrees {0,1}, {0,2} and {1,3}, so the
        # stacked blocks pad absent degrees with zeros
        d = 4
        sys = mixed_input_system()
        n = sys.n
        Tbar = random_transform(n, d, seed=23)
        Tinv = la.inv(Tbar.term(1))
        together = balanced_input(sys.g, Tbar, Tinv, d, r)
        assert (together.rows, together.base_dim) == (sys.m * n, r)
        for l, gc in enumerate(sys.g):
            alone = balanced_input([gc], Tbar, Tinv, d, r)
            scale = max(np.abs(W).max() for W in alone.terms.values())
            assert set(together.terms) == set(alone.terms)
            for k, W in alone.terms.items():
                block = together.terms[k][l * n : (l + 1) * n]
                assert np.abs(block - W).max() <= 1e-14 * scale, (l, k)

    @pytest.mark.parametrize("r", [2, 6])
    def test_one_input_recursion_per_rom(self, zoo_pipelines, monkeypatch, r):
        import nlbt.realization

        stacked = []

        def counting(maps, *args):
            stacked.append(len(maps))
            return solve(maps, *args)

        solve = nlbt.realization._solve_recursion
        monkeypatch.setattr(nlbt.realization, "_solve_recursion", counting)
        pl = zoo_pipelines["beam"]
        rom = build_rom(pl, r, pl.d_transf)
        assert pl.sys.m == 6 and len(rom.sys.g) == 6
        assert stacked == [1, 6]  # the drift, then every input column in one

    @pytest.mark.parametrize("name", [name for name, _, _ in ZOO_CASES])
    def test_full_order_solves_the_recursions(self, zoo_pipelines, name):
        # r = n is the full balanced realization: drift and every input column
        # satisfy the transformed state equation degree by degree.  The
        # reassembly multiplies back by Tbar_1 what the recursion solved
        # against it, so its rounding grows with cond(Tbar_1) (1.7e4 on the beam).
        pl = zoo_pipelines[name]
        full = pl.realize()
        assert full.r == pl.sys.n
        d = pl.d_transf
        tol = 1e-13 * np.linalg.cond(pl.Tbar.term(1))
        worst, scale = degreewise_mismatch(pl.sys.f, full.sys.f, pl.Tbar, 1, d)
        assert worst <= tol * scale
        for gc, gbar in zip(pl.sys.g, full.sys.g):
            worst, scale = degreewise_mismatch(gc, gbar, pl.Tbar, 0, d - 1)
            assert worst <= tol * scale


class TestBuildRom:
    def test_full_order_rom_reproduces_balanced(self):
        pl = balance(models.pendulum(3), 3)
        bal = pl.realize()
        x0 = np.array([0.05, -0.02])
        transform = BalancingTransform(
            pl.sys, pl.d_transf, pl.sq_sv, pl.Ec, pl.Eo, pl.Tbar, pl.Tbar1_inv
        )
        rom = build_rom(transform, 2, 3, x0=x0)
        for k in (1, 2, 3):
            npt.assert_allclose(rom.sys.f.term(k), bal.sys.f.term(k), atol=1e-13)
        npt.assert_allclose(rom.x_r0, pl.P(x0), rtol=1e-12)

    @pytest.mark.parametrize("d_rom", [0, -2])
    def test_rom_degree_below_one_rejected(self, d_rom):
        pl = balance(models.pendulum(3), 3)
        with pytest.raises(ValueError, match=f"ROM degree must be at least 1, got {d_rom}"):
            build_rom(pl, 1, d_rom)

    def test_three_dim_printed_rom(self):
        pl = balance(models.three_dim_illustrative(exact=True), 3)
        rom = pl.reduce(2, d_rom=3)
        signs, err = best_state_signs(
            [
                ("similarity", rom.sys.f.term(1)),
                ("rows", rom.sys.g[0].term(0)),
                ("cols", rom.sys.h.term(1)),
            ],
            [
                ("similarity", np.array([[-0.739, 1.57], [-1.57, -6.26]])),
                ("rows", np.array([[-5.09], [-4.82]])),
                ("cols", np.array([[-5.09, 4.82]])),
            ],
        )
        assert err < 5e-3

    def test_equilibrium_preserved(self):
        pl = balance(models.pendulum(5), 3)
        rom = pl.reduce(1)
        npt.assert_allclose(rom.sys.rhs(np.zeros(1), np.zeros(1)), 0, atol=1e-12)

    def test_linear_system_matches_square_root_bt(self):
        rng = np.random.default_rng(20)
        n = 4
        A = rng.standard_normal((n, n)) - 2.5 * np.eye(n)
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        sys = ControlAffineSystem(
            PolyMap({1: A}, n),
            [PolyMap({0: B[:, i : i + 1]}, n, rows=n) for i in range(2)],
            PolyMap({1: C}, n),
        )
        pl = balance(sys, 2)
        rom = pl.reduce(2)
        # classical square-root balanced truncation
        Wc = la.solve_continuous_lyapunov(A, -B @ B.T)
        Wo = la.solve_continuous_lyapunov(A.T, -C.T @ C)
        Lc = la.cholesky(Wc, lower=True)
        Lo = la.cholesky(Wo, lower=True)
        U, s, Vh = la.svd(Lo.T @ Lc)
        T = Lc @ Vh.T @ np.diag(s ** -0.5)
        Ar = (la.solve(T, A @ T))[:2, :2]
        Br = la.solve(T, B)[:2]
        Cr = (C @ T)[:, :2]
        signs, err = best_state_signs(
            [
                ("similarity", rom.sys.f.term(1)),
                ("rows", rom.sys.B),
                ("cols", rom.sys.C),
            ],
            [("similarity", Ar), ("rows", Br), ("cols", Cr)],
        )
        scale = max(np.abs(Ar).max(), np.abs(Br).max(), np.abs(Cr).max())
        assert err <= 1e-9 * scale
        for k in (2,):
            npt.assert_allclose(rom.sys.f.term(k), 0, atol=1e-10)

    def test_beam_quadratic_output_rows_near_printed(self):
        # soft check: quadratic output coefficients under a quadratic
        # transform sit near the reference values; the transform gauge is not
        # unique, so only magnitudes at a loose tolerance are asserted
        from nlbt.kron import column_multi_indices

        pl = balance(models.beam_single_element(), 2)
        bal = pl.realize(d_rom=2)
        H2 = bal.sys.h.term(2)
        idx = column_multi_indices(6, 2)
        printed_y1 = {
            (0, 0): -2.65e-4, (0, 1): 5.17e-4, (0, 2): -2.1e-4, (0, 3): 2.69e-3,
            (1, 1): -2.6e-4, (1, 2): 1.15e-4, (1, 3): -2.13e-3, (2, 2): 6.2e-4,
            (2, 3): -1.58e-3, (3, 3): -3.42e-3,
        }
        got = {}
        for col, (a, b) in enumerate(idx):
            key = tuple(sorted((int(a), int(b))))
            got[key] = got.get(key, 0.0) + H2[0, col]
        for key, ref in printed_y1.items():
            assert abs(abs(got[key]) - abs(ref)) <= 0.2 * abs(ref), (key, got[key], ref)

    def test_beam_linear_transform_kills_first_output(self):
        pl = balance(models.beam_single_element(), 1)
        rom = pl.reduce(4, d_rom=3)
        H1 = rom.sys.h.term(1)
        # the longitudinal tip-displacement output must vanish identically
        npt.assert_allclose(H1[0], 0, atol=1e-12)
        for k in (2, 3):
            npt.assert_allclose(rom.sys.h.term(k)[0], 0, atol=1e-12)

    def test_distinct_sigma_guard(self):
        # identity Gramians: all Hankel values equal
        n = 3
        sys = ControlAffineSystem(
            PolyMap({1: -0.5 * np.eye(n)}, n),
            [PolyMap({0: np.eye(n)[:, i : i + 1]}, n, rows=n) for i in range(n)],
            PolyMap({1: np.eye(n)}, n),
        )
        with pytest.raises(HypothesisViolation):
            balance(sys, 2)
