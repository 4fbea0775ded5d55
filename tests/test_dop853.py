"""nlbt's DOP853 port against scipy's, and the import it spares."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlbt.sim as sim
from nlbt import models
from nlbt.pipeline import balance

SRC = Path(__file__).resolve().parents[1] / "src"


class ScipyRoute:
    """``solve_ivp(..., method="DOP853", dense_output=True)`` behind the port's interface."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        from scipy.integrate import solve_ivp

        sol = solve_ivp(fun, (t0, t_bound), y0, method="DOP853", rtol=rtol, atol=atol,
                        dense_output=True)
        self.t, self.y, self.success, self._sol = sol.t, sol.y.T, sol.success, sol.sol

    def sample(self, grid):
        return self._sol(grid).T


def _counted(rhs, calls):
    def counted(x, u):
        calls.append(1)
        return rhs(x, u)

    return counted


def _dp5_rom(calls):
    rom = balance(models.double_pendulum(5), 5).reduce(2, d_rom=5, x0=np.zeros(4))
    rom.sys.rhs = _counted(rom.sys.rhs, calls)
    return sim.simulate_system(rom.sys, rom.x_r0, sim.sinusoid(1.0, 2.5), (0, 40),
                               n_samples=801, rel_tol=1e-7, abs_tol=1e-9)


def _two_dim_7(calls):
    bal = balance(models.two_dim_illustrative(), 7).realize()
    rhs = _counted(bal.sys.rhs, calls)
    return sim.integrate(rhs, np.array([0.1, -0.1]), sim.sinusoid(0.5, 1.0), (0, 10),
                         output=bal.sys.output)


def _double_pendulum_exact(calls):
    return sim.integrate(_counted(models.double_pendulum_rhs, calls),
                         np.array([0.3, -0.2, 0.0, 0.1]), sim.sinusoid(1.0, 2.5), (0, 10),
                         output=models.double_pendulum_output)


def _white_noise(calls):
    sys = models.double_pendulum(3)
    return sim.integrate(_counted(sys.rhs, calls), np.zeros(4),
                         sim.white_noise(0.5, seed=7, hold_dt=0.1), (0, 2), n_samples=500)


def _square(calls):
    return sim.integrate(_counted(lambda x, u: x ** 2, calls), np.array([1.0]),
                         sim.zero_signal(), (0, 2))


def _seventh_power(calls):
    return sim.integrate(_counted(lambda x, u: x ** 7, calls), np.array([10.0]),
                         sim.zero_signal(), (0, 5))


def _shorter_than_first_step(calls):
    return sim.integrate(_counted(lambda x, u: -x, calls), np.array([1.0, 2.0]),
                         sim.zero_signal(), (0, 1e-9), n_samples=2)


CASES = {
    "dp5-rom": _dp5_rom,
    "2d-illustrative-7": _two_dim_7,
    "double-pendulum-exact": _double_pendulum_exact,
    "white-noise": _white_noise,
    "x-squared-blow-up": _square,
    "x-seventh-blow-up": _seventh_power,
    "span-shorter-than-first-step": _shorter_than_first_step,
}


@pytest.mark.parametrize("case", list(CASES))
def test_trajectories_bit_identical_to_scipy(case, monkeypatch):
    ours_calls, scipy_calls = [], []
    ours = CASES[case](ours_calls)
    monkeypatch.setattr(sim, "dop853", ScipyRoute)
    ref = CASES[case](scipy_calls)
    for name in ("t", "x", "y", "u"):
        got, want = getattr(ours, name), getattr(ref, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert np.array_equal(got, want), name
    assert ours.diverged == ref.diverged
    assert len(ours_calls) == len(scipy_calls)


def test_nlbt_imports_no_scipy_integrate():
    code = ("import sys, nlbt, nlbt.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
