"""Time integration, input signals, trajectory containers, and error metrics."""

import io
import os

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "Trajectory",
    "integrate",
    "simulate_system",
    "zero_signal",
    "sinusoid",
    "white_noise",
    "signal",
    "l2_error",
]


class Trajectory:
    """Sampled trajectory on a uniform grid.

    ``x`` is ``(N, nx)``; ``y`` is ``(N, p)`` or ``None``; ``u`` is ``(N, m)``.
    ``diverged`` marks an integration that failed before the horizon; the
    samples then cover only the reached interval.
    """

    def __init__(self, t, x, y=None, u=None, diverged=False):
        self.t = np.asarray(t, dtype=float)
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.y = None if y is None else np.atleast_2d(np.asarray(y, dtype=float))
        self.u = None if u is None else np.atleast_2d(np.asarray(u, dtype=float))
        self.diverged = bool(diverged)
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        for arr, name in ((self.x, "x"), (self.y, "y"), (self.u, "u")):
            if arr is not None and arr.shape[0] != self.t.size:
                raise ValueError(f"{name} sample count does not match the grid")

    def to_csv(self, path_or_buffer):
        """Write ``t,x1..xn,y1..yp,u1..um`` with 17 significant digits."""
        cols = ["t"]
        data = [self.t]
        for j in range(self.x.shape[1]):
            cols.append(f"x{j + 1}")
            data.append(self.x[:, j])
        if self.y is not None:
            for j in range(self.y.shape[1]):
                cols.append(f"y{j + 1}")
                data.append(self.y[:, j])
        if self.u is not None:
            for j in range(self.u.shape[1]):
                cols.append(f"u{j + 1}")
                data.append(self.u[:, j])
        close = False
        if isinstance(path_or_buffer, (str, bytes, os.PathLike)):
            fh = open(path_or_buffer, "w")
            close = True
        else:
            fh = path_or_buffer
        try:
            fh.write(",".join(cols) + "\n")
            for row in zip(*data):
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        finally:
            if close:
                fh.close()

    @classmethod
    def from_csv(cls, path_or_buffer):
        if isinstance(path_or_buffer, (str, bytes, os.PathLike)):
            with open(path_or_buffer) as fh:
                text = fh.read()
        else:
            text = path_or_buffer.read()
        lines = [ln for ln in text.strip().splitlines() if ln]
        header = lines[0].split(",")
        raw = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
        cols = {name: raw[:, j] for j, name in enumerate(header)}
        nx = sum(1 for c in header if c.startswith("x"))
        p = sum(1 for c in header if c.startswith("y"))
        m = sum(1 for c in header if c.startswith("u"))
        x = np.column_stack([cols[f"x{j + 1}"] for j in range(nx)])
        y = np.column_stack([cols[f"y{j + 1}"] for j in range(p)]) if p else None
        u = np.column_stack([cols[f"u{j + 1}"] for j in range(m)]) if m else None
        return cls(cols["t"], x, y=y, u=u)


def zero_signal(m=1):
    """Identically-zero input."""
    return lambda t: np.zeros(m)


def sinusoid(amp, freq, m=1):
    """``amp * sin(freq * t)`` on every channel, as a fresh array per call."""
    ones = np.ones(m)
    return lambda t: amp * np.sin(freq * t) * ones


def white_noise(amp, seed, hold_dt=0.01, m=1):
    """Zero-order-hold Gaussian noise, reproducible from the seed.

    The value on interval ``[k hold_dt, (k+1) hold_dt)`` is drawn from a
    generator seeded with ``(seed, k)`` for ``k >= 0``, so evaluation order
    cannot change the sequence.  An interval ``k < 0`` is seeded with the
    child ``SeedSequence((seed, -k), spawn_key=(1,))``: a child's entropy is
    padded to four words before its spawn key, so no key ``(seed, k)`` gives
    it.  The current interval's draw is kept, read-only, because an
    integrator evaluates many times per interval.
    """
    held = {}  # interval index -> its value, for the last interval drawn

    def u(t):
        k = int(np.floor(t / hold_dt))
        if k not in held:
            held.clear()
            if k >= 0:
                key = (int(seed), k)
            else:
                key = np.random.SeedSequence((int(seed), -k), spawn_key=(1,))
            value = amp * np.random.default_rng(key).standard_normal(m)
            value.setflags(write=False)
            held[k] = value
        return held[k]

    return u


def signal(kind, m=1, **params):
    """Signal factory: ``zero``, ``sinusoid(amp, freq)``, ``white_noise(amp, seed[, hold_dt])``."""
    if kind == "zero":
        return zero_signal(m)
    if kind == "sinusoid":
        return sinusoid(params["amp"], params["freq"], m)
    if kind == "white_noise":
        return white_noise(params["amp"], params["seed"], params.get("hold_dt", 0.01), m)
    raise ValueError(f"unknown signal kind {kind!r}")


def integrate(
    rhs,
    x0,
    u,
    t_span,
    rel_tol=1e-8,
    abs_tol=1e-10,
    n_samples=2000,
    output=None,
):
    """Adaptive RK45 integration sampled on a uniform grid.

    ``rhs(x, u_val)`` is the state derivative; ``u(t)`` the input signal;
    ``output(x)`` the optional output map.  Divergence (solver failure or
    non-finite states) is flagged on the trajectory rather than raised, with
    the samples covering the reached interval.
    """
    x0 = np.asarray(x0, dtype=float)
    t0, tf = float(t_span[0]), float(t_span[1])

    def f(t, x):
        val = rhs(x, u(t))
        return val

    sol = solve_ivp(
        f,
        (t0, tf),
        x0,
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        dense_output=True,
    )
    diverged = (not sol.success) or sol.t[-1] < tf or not np.all(np.isfinite(sol.y))
    t_end = min(sol.t[-1], tf)
    if t_end <= t0:
        # failed on the very first step: report the initial sample only
        return Trajectory(
            np.array([t0]),
            x0[None, :],
            y=None if output is None else np.atleast_1d(output(x0))[None, :],
            u=np.atleast_1d(u(t0))[None, :],
            diverged=True,
        )
    grid = np.linspace(t0, t_end, n_samples)
    xs = sol.sol(grid).T
    if not np.all(np.isfinite(xs)):
        good = np.all(np.isfinite(xs), axis=1)
        last = int(np.argmin(good)) if not good.all() else xs.shape[0]
        last = max(last, 2)
        grid, xs = grid[:last], xs[:last]
        diverged = True
    us = np.array([np.atleast_1d(u(t)) for t in grid])
    ys = None
    if output is not None:
        ys = np.array([np.atleast_1d(output(x)) for x in xs])
    return Trajectory(grid, xs, y=ys, u=us, diverged=diverged)


def simulate_system(sys, x0, u, t_span, **kwargs):
    """Integrate a :class:`~nlbt.kron.ControlAffineSystem` and sample its output.

    ``sys.rhs`` is looked up at call time, so an instance attribute that
    overrides it is what gets integrated.  The system's folded ``[f; g]`` is
    released afterwards: a system kept once simulated, such as a reference
    model, holds only its coefficients (3.7 MB less at n = 96, degree 2).
    The output is sampled with one batched ``sys.h.evaluate`` over all
    samples.
    """
    try:
        traj = integrate(sys.rhs, x0, u, t_span, **kwargs)
    finally:
        sys.release_fold()
    traj.y = sys.h.evaluate(traj.x)
    return traj


def l2_error(y_ref, y, channel=None):
    """Trapezoid-rule L2 norm of the output difference over the common horizon.

    ``channel`` selects one output column; default is the full vector norm.
    Requires matching grids.
    """
    if y_ref.t.shape != y.t.shape or not np.allclose(y_ref.t, y.t):
        raise ValueError("trajectories are on different grids")
    a = y_ref.y if y_ref.y is not None else y_ref.x
    b = y.y if y.y is not None else y.x
    if channel is not None:
        a = a[:, channel : channel + 1]
        b = b[:, channel : channel + 1]
    diff2 = np.sum((a - b) ** 2, axis=1)
    return float(np.sqrt(np.trapezoid(diff2, y_ref.t)))
