import io

import numpy as np
import numpy.testing as npt
import pytest

from nlbt import models
from nlbt.pipeline import balance
from nlbt.sim import (
    Trajectory,
    integrate,
    l2_error,
    signal,
    simulate_system,
    sinusoid,
    white_noise,
    zero_signal,
)


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(lambda x, u: -x, np.array([1.0]), zero_signal(), (0, 1))
        npt.assert_allclose(traj.x[-1, 0], np.exp(-1), atol=1e-6)
        assert not traj.diverged

    def test_constant(self):
        traj = integrate(lambda x, u: 0 * x, np.array([2.0, -1.0]), zero_signal(), (0, 5))
        npt.assert_allclose(traj.x, np.tile([2.0, -1.0], (traj.t.size, 1)), atol=1e-12)

    def test_tolerance_scaling(self):
        errs = []
        for rtol in (1e-5, 1e-8):
            traj = integrate(
                lambda x, u: -x, np.array([1.0]), zero_signal(), (0, 1),
                rel_tol=rtol, abs_tol=1e-14,
            )
            errs.append(abs(traj.x[-1, 0] - np.exp(-1)))
        assert errs[1] < errs[0]

    def test_divergence_flagged(self):
        # x' = x^2 from x0 = 1 blows up at t = 1: the samples are re-spaced
        # over the interval the solver reached
        traj = integrate(
            lambda x, u: x ** 2, np.array([1.0]), zero_signal(), (0, 5), n_samples=200
        )
        assert traj.diverged
        assert traj.t.size == 200 and traj.x.shape == (200, 1)
        assert traj.t[0] == 0.0
        assert abs(traj.t[-1] - 1.0) <= 1e-6
        npt.assert_allclose(np.diff(traj.t), traj.t[-1] / 199, rtol=1e-9)
        assert np.all(np.isfinite(traj.x))

    def test_overflowing_rhs_is_flagged_not_raised(self):
        # the test configuration turns RuntimeWarning into an error, so an
        # overflow warning inside the solve would raise here
        traj = integrate(lambda x, u: x ** 7, np.array([10.0]), zero_signal(), (0, 5))
        assert traj.diverged
        assert np.all(np.isfinite(traj.x))

    def test_overflowing_rom_is_flagged_not_raised(self):
        rom = balance(models.pendulum(7), 7).reduce(1, x0=[3, 0])
        traj = simulate_system(rom.sys, np.array([50.0]), sinusoid(1, 1), (0, 20))
        assert traj.diverged
        assert np.all(np.isfinite(traj.x))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_rhs_at_x0_fails_on_the_first_step(self, value):
        # scipy's initial step turned NaN here and its reject loop never ended
        traj = integrate(lambda x, u: np.full(1, value), np.array([1.0]), zero_signal(), (0, 1))
        assert traj.diverged
        npt.assert_array_equal(traj.t, [0.0])
        npt.assert_array_equal(traj.x, [[1.0]])
        npt.assert_array_equal(traj.u, [[0.0]])

    @pytest.mark.parametrize(
        "x0, match",
        [(np.array([[1.0]]), "1-dimensional"), (np.array([np.nan]), "finite"),
         (np.array([-np.inf, 0.0]), "finite")],
    )
    def test_rejects_bad_initial_states(self, x0, match):
        with pytest.raises(ValueError, match=match):
            integrate(lambda x, u: -x, x0, zero_signal(), (0, 1))

    def test_rejects_negative_abs_tol(self):
        with pytest.raises(ValueError, match="atol must be non-negative"):
            integrate(lambda x, u: -x, np.array([1.0]), zero_signal(), (0, 1), abs_tol=-1e-9)

    def test_rel_tol_below_its_floor_warns_and_is_raised(self):
        rhs, x0 = (lambda x, u: -x), np.array([1.0])
        with pytest.warns(UserWarning, match="below 100 eps"):
            low = integrate(rhs, x0, zero_signal(), (0, 1), rel_tol=1e-20)
        floor = integrate(rhs, x0, zero_signal(), (0, 1), rel_tol=100 * np.finfo(float).eps)
        npt.assert_array_equal(low.x, floor.x)

    @pytest.mark.parametrize(
        "t_span", [(1, 0), (0, 0), (0, 1, 2), (0,), (0, np.inf), (np.nan, 1)]
    )
    def test_rejects_bad_time_spans(self, t_span):
        with pytest.raises(ValueError, match="t_span must be two finite times"):
            integrate(lambda x, u: -x, np.array([1.0]), zero_signal(), t_span)

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_rejects_fewer_than_two_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            integrate(lambda x, u: -x, np.array([1.0]), zero_signal(), (0, 1),
                      n_samples=n_samples)

    def test_two_samples_are_the_endpoints(self):
        traj = integrate(lambda x, u: -x, np.array([1.0]), zero_signal(), (0, 1),
                         n_samples=2)
        npt.assert_array_equal(traj.t, [0.0, 1.0])
        npt.assert_allclose(traj.x[:, 0], [1.0, np.exp(-1.0)], rtol=1e-7)

    def test_balanced_coordinates_reproduce_full_model(self):
        # simulate the full balanced realization and map back through the
        # transformation: outputs match the original model
        sys = models.two_dim_illustrative()
        pl = balance(sys, 3)
        bal = pl.realize()
        x0 = np.array([0.07, -0.05])
        u = sinusoid(0.1, 1.0)
        ref = simulate_system(sys, x0, u, (0, 1), n_samples=500)
        z0 = pl.P(x0)
        zt = simulate_system(bal.sys, z0, u, (0, 1), n_samples=500)
        assert not ref.diverged and not zt.diverged
        assert np.max(np.abs(ref.y - zt.y)) <= 1e-4
        xs_back = np.array([pl.Tbar(z) for z in zt.x])
        assert np.max(np.abs(ref.x - xs_back)) <= 1e-3


class TestSimulateSystem:
    def test_integrates_an_instance_level_rhs_override(self):
        # a tracer swaps a counting wrapper in for sys.rhs; the simulation
        # must integrate that attribute, read at call time
        sys = models.pendulum(3)
        u = sinusoid(0.5, 1.0)
        ref = simulate_system(sys, np.array([0.1, 0.0]), u, (0, 2), n_samples=50)
        rhs = sys.rhs
        calls = []

        def counted(x, uv):
            calls.append(1)
            return rhs(x, uv)

        sys.rhs = counted
        try:
            traj = simulate_system(sys, np.array([0.1, 0.0]), u, (0, 2), n_samples=50)
        finally:
            del sys.rhs
        assert len(calls) > 50
        npt.assert_array_equal(traj.x, ref.x)
        npt.assert_array_equal(traj.y, ref.y)

    def test_dp5_rom_step_count(self):
        # the eighth-order pair takes 3011 right-hand-side calls here; the
        # fifth-order RK45 took 5144
        rom = balance(models.double_pendulum(5), 5).reduce(2, d_rom=5, x0=np.zeros(4))
        rhs = rom.sys.rhs
        calls = []

        def counted(x, uv):
            calls.append(1)
            return rhs(x, uv)

        rom.sys.rhs = counted
        traj = simulate_system(
            rom.sys, rom.x_r0, sinusoid(1.0, 2.5), (0, 40), n_samples=801,
            rel_tol=1e-7, abs_tol=1e-9,
        )
        assert not traj.diverged
        assert len(calls) <= 3200

    def test_batched_output_matches_per_point_output(self):
        sys = models.double_pendulum(3)
        u = sinusoid(0.3, 2.0)
        traj = simulate_system(sys, np.zeros(4), u, (0, 3), n_samples=101)
        per_point = np.array([sys.output(x) for x in traj.x])
        npt.assert_allclose(traj.y, per_point, rtol=1e-13, atol=1e-16)
        assert sys._compact is None  # a kept system holds no folded [f; g]


class TestSignals:
    def test_zero(self):
        npt.assert_allclose(signal("zero")(3.7), [0.0])

    def test_sinusoid_value(self):
        u = signal("sinusoid", amp=0.5, freq=1 / np.pi)
        npt.assert_allclose(u(np.pi ** 2 / 2), [0.5 * np.sin(np.pi / 2)], rtol=1e-14)

    def test_sinusoid_matches_broadcast_product(self):
        # the same values, bit for bit, as the broadcast product with np.ones
        for amp, freq, m in ((0.5, 1 / np.pi, 1), (1.0, 2.5, 3), (-0.3, 7.1, 2)):
            u = sinusoid(amp, freq, m)
            for t in np.linspace(0.0, 40.0, 97):
                got = u(t)
                assert got.shape == (m,)
                npt.assert_array_equal(got, amp * np.sin(freq * t) * np.ones(m))

    def test_white_noise_deterministic(self):
        u1 = white_noise(2.0, seed=42, hold_dt=0.01)
        u2 = white_noise(2.0, seed=42, hold_dt=0.01)
        ts = np.linspace(0, 1, 57)
        a = np.array([u1(t) for t in ts])
        b = np.array([u2(t) for t in reversed(ts)])[::-1]
        npt.assert_array_equal(a, b)

    def test_white_noise_holds(self):
        u = white_noise(1.0, seed=3, hold_dt=0.5)
        assert u(0.0) == u(0.49)
        assert u(0.0) != u(0.51)

    def test_white_noise_both_sides_of_zero(self):
        hold, seed = 0.5, 3
        u = white_noise(2.0, seed=seed, hold_dt=hold, m=2)
        ts = np.array([-1.6, -1.0, -0.7, -0.25, 0.0, 0.25, 0.6, 1.3])
        a = np.array([u(t) for t in ts])
        # t >= 0 keeps its draws: the generator seeded with (seed, k)
        for t, got in zip(ts, a):
            k = int(np.floor(t / hold))
            if k >= 0:
                want = 2.0 * np.random.default_rng((seed, k)).standard_normal(2)
                npt.assert_array_equal(got, want)
        # every interval, negative ones included, has its own reproducible draw
        b = np.array([white_noise(2.0, seed=seed, hold_dt=hold, m=2)(t) for t in reversed(ts)])
        npt.assert_array_equal(a, b[::-1])
        draws = {int(np.floor(t / hold)): tuple(v) for t, v in zip(ts, a)}
        assert len(set(draws.values())) == len(draws) == 6
        npt.assert_array_equal(u(-0.01), u(-0.49))

    def test_white_noise_values_are_read_only(self):
        # one interval's draw is shared by every evaluation inside it
        u = white_noise(1.0, seed=3, hold_dt=0.5, m=2)
        assert not u(0.1).flags.writeable
        npt.assert_array_equal(u(0.1), u(0.2))


class TestL2Error:
    def test_identical_is_zero(self):
        t = np.linspace(0, 1, 50)
        y = np.sin(t)[:, None]
        a = Trajectory(t, y, y=y)
        assert l2_error(a, a) == 0.0

    def test_constant_offset(self):
        t = np.linspace(0, 4, 400)
        a = Trajectory(t, np.zeros((400, 1)), y=np.zeros((400, 1)))
        b = Trajectory(t, np.zeros((400, 1)), y=0.3 * np.ones((400, 1)))
        npt.assert_allclose(l2_error(a, b), 0.3 * 2.0, rtol=1e-12)

    def test_grid_mismatch(self):
        a = Trajectory(np.linspace(0, 1, 10), np.zeros((10, 1)))
        b = Trajectory(np.linspace(0, 2, 10), np.zeros((10, 1)))
        with pytest.raises(ValueError):
            l2_error(a, b)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        t = np.linspace(0, 1, 7)
        x = np.random.default_rng(0).standard_normal((7, 2))
        y = x[:, :1] * 0.5
        u = np.ones((7, 1))
        traj = Trajectory(t, x, y=y, u=u)
        buf = io.StringIO()
        traj.to_csv(buf)
        buf.seek(0)
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        for src in (buf, path, str(path)):
            back = Trajectory.from_csv(src)
            npt.assert_array_equal(back.t, traj.t)
            npt.assert_array_equal(back.x, traj.x)
            npt.assert_array_equal(back.y, traj.y)
            npt.assert_array_equal(back.u, traj.u)

    def test_header_names(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), y=np.zeros((2, 1)),
                          u=np.zeros((2, 1)))
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "t,x1,x2,y1,u1"

    # a 17-digit value, -0.0 and a subnormal in every column kind
    GOLDEN_T = np.array([0.0, 0.1, 2.0 / 3.0])
    GOLDEN_X = np.array([[1 / 3, -0.0], [-0.0, 5e-324], [1.1125369292536007e-308, -1e300]])
    GOLDEN_Y = np.array([[np.pi], [-0.0], [1e-320]])
    GOLDEN_U = np.array([[-2.5], [0.0], [1e22]])
    GOLDEN_ROWS = [
        "0,0.33333333333333331,-0",
        "0.10000000000000001,-0,4.9406564584124654e-324",
        "0.66666666666666663,1.1125369292536007e-308,-1.0000000000000001e+300",
    ]

    @pytest.mark.parametrize(
        "with_y, with_u, header, tails",
        [
            (False, False, "t,x1,x2", ["", "", ""]),
            (False, True, "t,x1,x2,u1", [",-2.5", ",0", ",1e+22"]),
            (True, True, "t,x1,x2,y1,u1",
             [",3.1415926535897931,-2.5", ",-0,0", ",9.9998886718268301e-321,1e+22"]),
        ],
        ids=["x", "x-u", "x-y-u"],
    )
    def test_golden_text(self, with_y, with_u, header, tails, tmp_path):
        traj = Trajectory(
            self.GOLDEN_T, self.GOLDEN_X,
            y=self.GOLDEN_Y if with_y else None, u=self.GOLDEN_U if with_u else None,
        )
        expected = "".join(
            line + "\n" for line in [header] + [r + s for r, s in zip(self.GOLDEN_ROWS, tails)]
        )
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        assert path.read_bytes() == expected.encode("ascii")
        back = Trajectory.from_csv(io.StringIO(expected))
        assert not back.diverged
        for got, ref in ((back.t, traj.t), (back.x, traj.x), (back.y, traj.y), (back.u, traj.u)):
            if ref is None:
                assert got is None
            else:
                # bit for bit: keeps the sign of -0.0 and the subnormals
                npt.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_single_row_round_trip(self):
        traj = Trajectory(np.array([0.5]), np.array([[1.0, -2.0]]), u=np.array([[0.25]]))
        buf = io.StringIO()
        traj.to_csv(buf)
        back = Trajectory.from_csv(io.StringIO(buf.getvalue()))
        assert back.x.shape == (1, 2) and back.u.shape == (1, 1) and back.y is None
        npt.assert_array_equal(back.x, traj.x)

    def test_diverged_flag_round_trips(self, tmp_path):
        traj = integrate(lambda x, u: x ** 2, [1.0], zero_signal(), (0, 2), n_samples=5)
        assert traj.diverged
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[-1] == "# diverged"
        for src in (path, io.StringIO(path.read_text())):
            back = Trajectory.from_csv(src)
            assert back.diverged
            npt.assert_array_equal(back.t, traj.t)
            npt.assert_array_equal(back.x, traj.x)
            npt.assert_array_equal(back.u, traj.u)

    def test_first_step_failure_round_trips(self):
        traj = integrate(lambda x, u: np.full(1, np.nan), [1.0], zero_signal(), (0, 1))
        buf = io.StringIO()
        traj.to_csv(buf)
        back = Trajectory.from_csv(io.StringIO(buf.getvalue()))
        assert back.diverged and back.x.shape == (1, 1)
