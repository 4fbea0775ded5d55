"""Time integration, input signals, trajectory containers, and error metrics.

Every trajectory is integrated by one method: the adaptive eighth-order
Dormand–Prince pair DOP853, sampled from its dense output on a uniform grid.
The pair is nlbt's own port of scipy's (``nlbt._dop853``), which gives
bit-identical samples without importing ``scipy.integrate``.  Every CSV nlbt
writes, a trajectory or the ``nlbt bench`` table, is written by
:func:`save_csv` in one format; a diverged trajectory's file ends with the
line ``# diverged``.
"""

import numpy as np

from ._dop853 import dop853

__all__ = [
    "Trajectory",
    "integrate",
    "simulate_system",
    "zero_signal",
    "sinusoid",
    "white_noise",
    "signal",
    "l2_error",
    "save_csv",
]

DIVERGED_FOOTER = "# diverged"  # the last line of a diverged trajectory's CSV


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
        """Write ``t,x1..xn,y1..yp,u1..um`` to a path or text buffer with :func:`save_csv`.

        A diverged trajectory ends with the comment line ``# diverged``; any
        other is written without it.
        """
        names, cols = ["t"], [self.t[:, None]]
        for prefix, arr in (("x", self.x), ("y", self.y), ("u", self.u)):
            if arr is not None:
                names += [f"{prefix}{j + 1}" for j in range(arr.shape[1])]
                cols.append(arr)
        save_csv(path_or_buffer, names, np.hstack(cols),
                 footer=DIVERGED_FOOTER if self.diverged else "")

    @classmethod
    def from_csv(cls, path_or_buffer):
        """Read what :meth:`to_csv` wrote, from a path or a text buffer."""
        if hasattr(path_or_buffer, "read"):
            lines = path_or_buffer.read().splitlines()
        else:
            with open(path_or_buffer) as fh:
                lines = fh.read().splitlines()
        data = np.atleast_1d(np.genfromtxt(lines, delimiter=",", names=True))

        def block(prefix):
            cols = [data[name] for name in data.dtype.names if name[0] == prefix]
            return np.column_stack(cols) if cols else None

        return cls(data["t"], block("x"), y=block("y"), u=block("u"),
                   diverged=lines[-1] == DIVERGED_FOOTER)


def save_csv(path_or_buffer, names, table, footer=""):
    """Write a float table as CSV: a ``names`` header line, then rows of ``%.17g`` values.

    Seventeen significant digits round-trip IEEE doubles bit-exactly.  This is
    the one CSV format of nlbt: trajectories and the ``nlbt bench`` table.  A
    non-empty ``footer`` is written as a last line of its own.
    """
    np.savetxt(path_or_buffer, table, fmt="%.17g", delimiter=",",
               header=",".join(names), footer=footer, comments="")


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
    try:
        if kind == "zero":
            return zero_signal(m)
        if kind == "sinusoid":
            return sinusoid(params["amp"], params["freq"], m)
        if kind == "white_noise":
            return white_noise(params["amp"], params["seed"], params.get("hold_dt", 0.01), m)
    except KeyError as exc:
        raise KeyError(f"signal {kind!r} needs parameter {exc.args[0]!r}") from None
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
    """Adaptive DOP853 integration, sampled from its dense output on a uniform grid.

    ``rhs(x, u_val)`` is the state derivative; ``u(t)`` the input signal;
    ``output(x)`` the optional output map.  ``t_span`` must be two finite
    times ``t0 < tf`` and ``n_samples`` at least 2; anything else raises
    ``ValueError``, and so does an ``x0`` that is not 1-D and finite or a
    negative ``abs_tol``; a ``rel_tol`` below ``100 eps`` warns and is raised
    to it.  Divergence (solver failure or non-finite states) is flagged on
    the trajectory rather than raised, with the samples re-spaced over the
    reached interval; the overflow on the way there raises no numpy warning.
    A right-hand side that is not finite at ``x0`` fails on the first step:
    the trajectory is the initial sample alone.
    """
    x0 = np.asarray(x0, dtype=float)
    span = np.asarray(t_span, dtype=float)
    if span.shape != (2,) or not np.all(np.isfinite(span)) or span[1] <= span[0]:
        raise ValueError(f"t_span must be two finite times t0 < tf, got {span.tolist()}")
    t0, tf = float(span[0]), float(span[1])
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")

    def f(t, x):
        return rhs(x, u(t))

    with np.errstate(over="ignore", invalid="ignore"):
        sol = dop853(f, t0, x0, tf, rel_tol, abs_tol)
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
        xs = sol.sample(grid)
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
