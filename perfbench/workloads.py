"""The benchmark's three workloads: inputs, one operation, and its checks.

Each workload builds every input from the workload seed in its constructor
(the set-up the user pays before the first result), runs one operation per
``op(i)`` call through the public API, and checks that operation's outputs in
``check(outcome)``, outside the timed region.  ``check`` returns a list of
problems; an empty list means the operation's outputs are correct.

Operations call the library through module attributes looked up at call time
(``nlbt.balance``, ``nlbt.sim.simulate_system``, ``nlbt.save_system``, ...),
which are the names the tracer wraps.  See README.md for why each workload
exists and which layer it stresses.
"""

import time

import numpy as np
import scipy.linalg as la

import nlbt
import nlbt.newton_eval
import nlbt.sim
from nlbt import models
from nlbt.serialization import systems_equal


class Outcome:
    """One operation's results: ``rom_s`` (balance + reduce seconds) and payload."""

    def __init__(self, rom_s, payload):
        self.rom_s = rom_s
        self.payload = payload


def discrete_l2(ref, traj, channel):
    """Discrete L2 norm of one output channel's difference (same sample grid)."""
    return float(np.sqrt(np.sum((ref.y[:, channel] - traj.y[:, channel]) ** 2)))


def sqrt_balancing_hankel(sys):
    """Hankel singular values of the linearization by square-root balancing."""
    A, B, C = sys.A, sys.B, sys.C
    Wc = la.solve_continuous_lyapunov(A, -B @ B.T)
    Wo = la.solve_continuous_lyapunov(A.T, -C.T @ C)
    Lc = la.cholesky(0.5 * (Wc + Wc.T), lower=True)
    Lo = la.cholesky(0.5 * (Wo + Wo.T), lower=True)
    return la.svd(Lo.T @ Lc, compute_uv=False)


def ray_slopes(resid_fn, directions, eps, floor=1e-13):
    """Log-log slope of ``max|resid_fn(e * d)|`` against ``e`` for each direction.

    A ray whose residual stays at or below ``floor`` is exact and reports +inf.
    """
    slopes = []
    for d in directions:
        vals = np.array([np.max(np.abs(resid_fn(e * d))) for e in eps])
        keep = vals > floor
        if keep.sum() < 3:
            slopes.append(np.inf)
        else:
            slopes.append(np.polyfit(np.log(eps[keep]), np.log(vals[keep]), 1)[0])
    return slopes


def unit_directions(rng, count, dim):
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


class SimTarget:
    """A ROM to simulate from ``x0`` under ``u`` and compare with ``ref``."""

    def __init__(self, label, sys, x0, u, span, kw, ref):
        self.label, self.sys, self.x0, self.u = label, sys, x0, u
        self.span, self.kw, self.ref = span, kw, ref


class Workload:
    """Shared bookkeeping: the ROMs to simulate and the ROM output errors."""

    name = None
    memory_ops = 1  # operations in the tracemalloc pass

    def __init__(self):
        self.sim_targets = {}  # one ROM per distinct input, from the checks
        self.err_samples = ([], [])

    def record_errors(self, ref, traj):
        for channel, samples in enumerate(self.err_samples):
            if ref.y.shape[1] > channel:
                samples.append(discrete_l2(ref, traj, channel))

    def simulate_roms(self):
        """Simulate each collected ROM once and record its output errors.

        Returns the problems: one per ROM whose simulation diverged.
        """
        problems = []
        for t in self.sim_targets.values():
            traj = nlbt.sim.simulate_system(t.sys, t.x0, t.u, t.span, **t.kw)
            if traj.diverged:
                problems.append(f"{t.label} ROM simulation diverged")
            else:
                self.record_errors(t.ref, traj)
        return problems


class Dp5Rom(Workload):
    """Double pendulum degree 5, balance, reduce to r=2, simulate 40 s.

    The scenario is fixed (the published error table pins its outputs), so
    the seed does not change its inputs.
    """

    name = "dp5-rom"
    D_TRANSF = 5
    R = 2
    HORIZON = 40.0
    # nonlinear-BT output errors the paper reports; each op must land within x2
    EXPECTED = (0.267, 0.0262)

    def __init__(self, seed, workdir):
        super().__init__()
        self.u = nlbt.sim.sinusoid(1.0, 2.5)
        self.x0 = np.zeros(4)
        self.kw = dict(n_samples=801, rel_tol=1e-7, abs_tol=1e-9)
        span = (0.0, self.HORIZON)
        self.ref = nlbt.sim.integrate(
            models.double_pendulum_rhs, self.x0, self.u, span,
            output=models.double_pendulum_output, **self.kw,
        )
        self.sys = models.double_pendulum(5)
        # reference errors for the ordering check: the linearized model's
        # classical balanced truncation, and the degree-5 ROM on the linear
        # balanced subspace
        A, B, C = self.sys.A, self.sys.B, self.sys.C
        Wc = la.solve_continuous_lyapunov(A, -B @ B.T)
        Wo = la.solve_continuous_lyapunov(A.T, -C.T @ C)
        Lc, Lo = la.cholesky(Wc, lower=True), la.cholesky(Wo, lower=True)
        _, s, Vh = la.svd(Lo.T @ Lc)
        T = Lc @ Vh.T @ np.diag(s ** -0.5)
        Ar = la.solve(T, A @ T)[: self.R, : self.R]
        Br = la.solve(T, B)[: self.R]
        Cr = (C @ T)[:, : self.R]
        lin = nlbt.sim.integrate(
            lambda x, uv: Ar @ x + Br @ np.atleast_1d(uv), np.zeros(self.R), self.u,
            span, output=lambda x: Cr @ x, **self.kw,
        )
        rom_lin = nlbt.balance(self.sys, 1).reduce(self.R, d_rom=5, x0=self.x0)
        tr_lin = nlbt.sim.simulate_system(rom_lin.sys, rom_lin.x_r0, self.u, span, **self.kw)
        self.err_linearized = [discrete_l2(self.ref, lin, c) for c in (0, 1)]
        self.err_linear_bt = [discrete_l2(self.ref, tr_lin, c) for c in (0, 1)]

    def op(self, i):
        t0 = time.perf_counter()
        pl = nlbt.balance(self.sys, self.D_TRANSF)
        rom = pl.reduce(self.R, d_rom=5, x0=self.x0)
        t1 = time.perf_counter()
        traj = nlbt.sim.simulate_system(
            rom.sys, rom.x_r0, self.u, (0.0, self.HORIZON), **self.kw
        )
        return Outcome(t1 - t0, traj)

    def check(self, outcome):
        traj = outcome.payload
        if traj.diverged or traj.t.shape != self.ref.t.shape:
            return ["ROM simulation diverged"]
        self.record_errors(self.ref, traj)
        errs = [discrete_l2(self.ref, traj, c) for c in (0, 1)]
        problems = []
        for c, (got, want) in enumerate(zip(errs, self.EXPECTED)):
            if not max(got / want, want / got) <= 2.0:
                problems.append(f"y{c + 1} error {got:.3g} not within x2 of {want:.3g}")
        if not self.err_linearized[1] >= 10 * errs[1]:
            problems.append("nonlinear-BT y2 error is not 10x below the linearized model's")
        for c in (0, 1):
            if not errs[c] <= self.err_linear_bt[c]:
                problems.append(f"nonlinear-BT y{c + 1} error exceeds linear BT's")
        return problems


class WideN96(Workload):
    """n = m = p = 96, degree 2: balance(., 2) and reduce to r = 8, no simulation.

    The systems come from a fixed list of generator seeds, so every run
    balances the same systems; the workload seed draws the order they are
    visited in and the rays of the residual check.  Each system's ROM is
    simulated once after the timed operations.
    """

    name = "wide-n96"
    N = 96
    R = 8
    SYSTEM_SEEDS = (0, 1, 2)

    def __init__(self, seed, workdir):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.order = self.rng.permutation(len(self.SYSTEM_SEEDS))
        self.x0 = 0.05 * np.ones(self.N)
        self.u = nlbt.sim.sinusoid(0.05, 1.0, m=self.N)
        self.kw = dict(n_samples=201, rel_tol=1e-6, abs_tol=1e-9)
        self.systems = [models.random_stable_poly(self.N, 2, seed=s) for s in self.SYSTEM_SEEDS]
        self.hankel_ref = [sqrt_balancing_hankel(s) for s in self.systems]
        self.fom = [
            nlbt.sim.simulate_system(s, self.x0, self.u, (0.0, 10.0), **self.kw)
            for s in self.systems
        ]

    def op(self, i):
        j = int(self.order[i % len(self.systems)])
        t0 = time.perf_counter()
        pl = nlbt.balance(self.systems[j], 2)
        rom = pl.reduce(self.R, x0=self.x0)
        return Outcome(time.perf_counter() - t0, (j, pl, rom))

    def check(self, outcome):
        j, pl, rom = outcome.payload
        problems = []
        ref = self.hankel_ref[j]
        if not np.allclose(pl.hankel, ref, rtol=1e-7, atol=0.0):
            worst = np.max(np.abs(pl.hankel - ref) / ref)
            problems.append(f"Hankel values differ from square-root balancing (rel {worst:.2e})")
        # P(Tbar(z)) - z = O(|z|^(d+1)) along seeded rays
        dirs = unit_directions(self.rng, 3, self.N)
        eps = np.logspace(-2.5, -1.0, 5)
        slopes = ray_slopes(lambda z: pl.P(pl.Tbar(z)) - z, dirs, eps)
        if min(slopes) < pl.d_transf + 0.5:
            problems.append(f"P(Tbar(z)) - z ray slope {min(slopes):.2f} < {pl.d_transf + 0.5}")
        self.sim_targets.setdefault(j, SimTarget(
            f"system {self.SYSTEM_SEEDS[j]}", rom.sys, rom.x_r0, self.u, (0.0, 10.0),
            self.kw, self.fom[j],
        ))
        return problems


class ZooSmall(Workload):
    """Small zoo models: balance, reduce, 20-point Newton cross-check, save + load.

    The models cycle in a fixed order from a seeded start; the Newton points
    (10 seeded directions at two radii) are drawn from the seed.  Each model's
    ROM is simulated once after the timed operations, except the beam: its
    linearization has eigenvalues near -4e3 +- 8e3i, which makes the explicit
    integrator take minutes.
    """

    name = "zoo-small"
    MODELS = (
        ("2d-illustrative:7", 1, True),
        ("pendulum:7", 1, True),
        ("3d-illustrative-exact:3", 2, True),
        ("beam:2", 2, False),
        ("double-pendulum:3", 2, True),
    )
    RADII = (0.02, 0.01)
    memory_ops = len(MODELS)  # one pass per model: their peaks differ

    def __init__(self, seed, workdir):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.start = int(rng.integers(len(self.MODELS)))
        self.path = str(workdir / "zoo-rom.json")
        self.cases = []
        for label, r, simulate in self.MODELS:
            name, _, degree = label.partition(":")
            sys = models.by_name(name, int(degree))
            dirs = unit_directions(rng, 10, sys.n)
            points = [e * d for e in self.RADII for d in dirs]
            u_sim = nlbt.sim.sinusoid(0.1, 1.0, m=sys.m)
            kw = dict(n_samples=201, rel_tol=1e-7, abs_tol=1e-9)
            fom = None
            if simulate:
                fom = nlbt.sim.simulate_system(sys, np.zeros(sys.n), u_sim, (0.0, 10.0), **kw)
            self.cases.append(dict(
                label=label, sys=sys, d=int(degree), r=r, points=points,
                u=0.1 * np.ones(sys.m), u_sim=u_sim, kw=kw, fom=fom,
            ))

    def op(self, i):
        k = (self.start + i) % len(self.cases)
        case = self.cases[k]
        sys = case["sys"]
        t0 = time.perf_counter()
        pl = nlbt.balance(sys, case["d"])
        rom = pl.reduce(case["r"])
        t1 = time.perf_counter()
        newton = [
            nlbt.newton_eval.eval_balanced_rhs_newton(sys, pl.inod, z, case["u"], tol=1e-13)[0]
            for z in case["points"]
        ]
        nlbt.save_system(rom.sys, self.path)
        loaded = nlbt.load_system(self.path)
        return Outcome(t1 - t0, (k, pl, rom, newton, loaded))

    def check(self, outcome):
        k, pl, rom, newton, loaded = outcome.payload
        case = self.cases[k]
        problems = []
        if not systems_equal(rom.sys, loaded):
            problems.append("ROM changed in the save/load round trip")
        # Newton evaluates the exact balanced realization; the degree-d
        # polynomial one must agree up to O(|z|^d) relative error
        bal = pl.realize(g_degree=case["d"])
        rel = np.array([
            np.linalg.norm(zn - bal.sys.rhs(z, case["u"])) / max(1.0, np.linalg.norm(zn))
            for z, zn in zip(case["points"], newton)
        ]).reshape(len(self.RADII), -1)
        if not np.all(np.isfinite(rel)) or rel.max() > 1e-3:
            problems.append(f"Newton and polynomial realization disagree (rel {rel.max():.2e})")
        else:
            big, small = rel
            scaling = big[small > 1e-10] / small[small > 1e-10]
            want = 2.0 ** (case["d"] - 0.5)
            if scaling.size and scaling.min() < want:
                problems.append(f"Newton disagreement shrinks only x{scaling.min():.2f} per halving")
        if case["fom"] is not None:
            self.sim_targets.setdefault(k, SimTarget(
                case["label"], rom.sys, rom.x_r0, case["u_sim"], (0.0, 10.0),
                case["kw"], case["fom"],
            ))
        return problems


WORKLOADS = {w.name: w for w in (Dp5Rom, WideN96, ZooSmall)}
