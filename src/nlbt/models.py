"""Model zoo: every benchmark system as a :class:`ControlAffineSystem`.

The systems with printed coefficients are transcribed directly.  The double
pendulum has no printed polynomial form, so its Taylor coefficients are
produced by truncated series arithmetic applied to the closed-form dynamics;
``double_pendulum_rhs`` exposes the exact dynamics for validation and for use
as a simulation reference.
"""

import math

import numpy as np
import scipy.linalg as la

from .errors import HypothesisViolation
from .kron import ControlAffineSystem, PolyMap, polymap_from_monomials

__all__ = [
    "two_dim_illustrative",
    "pendulum",
    "pendulum_rhs",
    "three_dim_illustrative",
    "double_pendulum",
    "double_pendulum_rhs",
    "double_pendulum_output",
    "beam_single_element",
    "random_stable_poly",
    "by_name",
]


def two_dim_illustrative():
    """2-state academic model with quadratic drift and exactly quartic energies."""
    alpha = (np.sqrt(3) + np.sqrt(2)) * (np.sqrt(3) + 2)
    f = polymap_from_monomials(2, 2, {
        (0, (1, 0)): -alpha ** 2,
        (0, (0, 1)): -2 * alpha,
        (0, (0, 2)): -(alpha ** 2 - 2),
        (1, (0, 1)): -1.0,
    })
    g0 = polymap_from_monomials(2, 2, {
        (0, (0, 0)): np.sqrt(2) * alpha,
        (1, (0, 0)): np.sqrt(2),
        (0, (0, 1)): -2 * np.sqrt(2),
    })
    h = polymap_from_monomials(2, 1, {
        (0, (1, 0)): 3 * alpha / np.sqrt(3),
        (0, (0, 1)): (alpha - 2 * np.sqrt(2)) / np.sqrt(3),
        (0, (0, 2)): 3 * alpha / np.sqrt(3),
    })
    return ControlAffineSystem(f, [g0], h)


_PEND = dict(G=10.0, L=20.0, m=1.0 / 40.0, b=2.0, k=1.0)


def pendulum(d):
    """Damped pendulum with torque input, ``sin`` expanded to degree ``d``.

    The torque enters through the inertia, so the input column is
    ``1/(m L^2)``; with these parameters the sinusoidal test signals keep the
    response within the swing regime where the Taylor models are meaningful.
    """
    G, L, m, b, k = (_PEND[s] for s in "GLmbk")
    entries = {
        (0, (0, 1)): 1.0,
        (1, (1, 0)): -k / (m * L ** 2),
        (1, (0, 1)): -b / (m * L ** 2),
    }
    for j in range(1, d + 1, 2):
        entries[(1, (j, 0))] = entries.get((1, (j, 0)), 0.0) - G / L * (-1) ** ((j - 1) // 2) / math.factorial(j)
    f = polymap_from_monomials(2, 2, entries)
    g0 = polymap_from_monomials(2, 2, {(1, (0, 0)): 1.0 / (m * L ** 2)})
    h = polymap_from_monomials(2, 1, {(0, (1, 0)): 1.0})
    return ControlAffineSystem(f, [g0], h)


def pendulum_rhs(x, u):
    """Exact pendulum dynamics (trigonometric), for reference simulations."""
    G, L, m, b, k = (_PEND[s] for s in "GLmbk")
    u = np.atleast_1d(u)
    return np.array([
        x[1],
        -G / L * np.sin(x[0])
        - k / (m * L ** 2) * x[0]
        - b / (m * L ** 2) * x[1]
        + u[0] / (m * L ** 2),
    ])


def three_dim_illustrative(exact=False):
    """3-state quintic model whose balancing transformation is exactly cubic.

    The default uses the 3-significant-figure coefficients as printed.  With
    ``exact=True`` the system is rebuilt in full precision from its known
    construction (a cubic change of coordinates applied to the balanced form
    of a 3-state linear model), which the printed values round.
    """
    if exact:
        return _three_dim_exact()
    f = polymap_from_monomials(3, 3, {
        (0, (3, 0, 0)): -0.172, (0, (2, 0, 0)): -0.172, (0, (1, 0, 0)): -0.739,
        (0, (0, 2, 0)): -0.172, (0, (0, 1, 0)): 1.57, (0, (0, 0, 1)): -0.172,
        (1, (3, 0, 0)): 1.72, (1, (2, 0, 0)): 1.72, (1, (1, 0, 0)): -1.57,
        (1, (0, 2, 0)): 1.72, (1, (0, 1, 0)): -6.26, (1, (0, 0, 1)): 1.72,
        (2, (2, 2, 0)): 0.515, (2, (0, 1, 0)): -1.72, (2, (0, 0, 1)): -1.0,
        (2, (1, 0, 0)): -0.172, (2, (1, 0, 1)): 0.343, (2, (0, 1, 1)): -3.43,
        (2, (1, 2, 0)): 0.343, (2, (2, 1, 0)): -8.13, (2, (2, 0, 1)): 0.515,
        (2, (3, 1, 0)): -3.43, (2, (2, 0, 0)): 0.476, (2, (3, 0, 0)): 1.56,
        (2, (0, 2, 0)): 11.5, (2, (4, 0, 0)): 0.859, (2, (0, 3, 0)): -3.43,
        (2, (5, 0, 0)): 0.515,
    })
    g0 = polymap_from_monomials(3, 3, {
        (0, (0, 0, 0)): 5.09,
        (1, (0, 0, 0)): 4.82,
        (2, (0, 0, 0)): 0.597,
        (2, (2, 0, 0)): -15.3,
        (2, (1, 0, 0)): -10.2,
        (2, (0, 1, 0)): -9.64,
    })
    h = polymap_from_monomials(3, 1, {
        (0, (3, 0, 0)): 0.597, (0, (2, 0, 0)): 0.597, (0, (1, 0, 0)): 5.09,
        (0, (0, 2, 0)): 0.597, (0, (0, 1, 0)): -4.82, (0, (0, 0, 1)): 0.597,
    })
    return ControlAffineSystem(f, [g0], h)


def _three_dim_exact():
    """Full-precision 3-state model: z = Psi(x) follows balanced linear dynamics.

    Psi(x) = (x1, x2, x3 + x1^2 + x2^2 + x1^3), so the drift is
    ``J_Psi(x)^{-1} (Abal Psi(x))`` with the inverse Jacobian row
    ``(-2x1 - 3x1^2, -2x2, 1)``; expanding gives the quintic coefficients the
    printed model rounds to three figures.
    """
    A = np.array([[-1.0, 0.0, 100.0], [0.0, -2.0, 100.0], [0.0, 0.0, -5.0]])
    B = np.array([[1.0], [1.0], [1.0]])
    C = np.array([[1.0, 1.0, 1.0]])
    Wc = la.solve_continuous_lyapunov(A, -B @ B.T)
    Wo = la.solve_continuous_lyapunov(A.T, -C.T @ C)
    Lc = la.cholesky(Wc, lower=True)
    Lo = la.cholesky(Wo, lower=True)
    U, s, Vh = la.svd(Lo.T @ Lc)
    T = Lc @ Vh.T @ np.diag(s ** -0.5)
    Ab = la.solve(T, A @ T)
    Bb = la.solve(T, B).ravel()
    Cb = (C @ T).ravel()
    # balanced-state signs are arbitrary; pick the ones the printed model uses
    S = np.sign(Bb)
    Ab = Ab * np.outer(S, S)
    Bb = Bb * S
    Cb = Cb * S

    def psi_rows(j):
        # monomials of (Ab Psi(x))_j
        return {
            (1, 0, 0): Ab[j, 0], (0, 1, 0): Ab[j, 1], (0, 0, 1): Ab[j, 2],
            (2, 0, 0): Ab[j, 2], (0, 2, 0): Ab[j, 2], (3, 0, 0): Ab[j, 2],
        }

    def add(d, key, v):
        d[key] = d.get(key, 0.0) + v

    entries = {}
    for i in range(2):
        for key, v in psi_rows(i).items():
            add(entries, (i, key), v)
    for key, v in psi_rows(2).items():
        add(entries, (2, key), v)
    for shift, pre in (((1, 0, 0), -2.0), ((2, 0, 0), -3.0)):
        for key, v in psi_rows(0).items():
            add(entries, (2, tuple(np.add(key, shift))), pre * v)
    for key, v in psi_rows(1).items():
        add(entries, (2, tuple(np.add(key, (0, 1, 0)))), -2.0 * v)
    f = polymap_from_monomials(3, 3, entries)
    g0 = polymap_from_monomials(3, 3, {
        (0, (0, 0, 0)): Bb[0], (1, (0, 0, 0)): Bb[1], (2, (0, 0, 0)): Bb[2],
        (2, (1, 0, 0)): -2 * Bb[0], (2, (2, 0, 0)): -3 * Bb[0],
        (2, (0, 1, 0)): -2 * Bb[1],
    })
    h = polymap_from_monomials(3, 1, {
        (0, (1, 0, 0)): Cb[0], (0, (0, 1, 0)): Cb[1], (0, (0, 0, 1)): Cb[2],
        (0, (2, 0, 0)): Cb[2], (0, (0, 2, 0)): Cb[2], (0, (3, 0, 0)): Cb[2],
    })
    return ControlAffineSystem(f, [g0], h)


# ------------------------------------------------------------------ double pendulum

_DP = dict(g=9.8, m1=1.0, m2=1.0, l1=1.0, l2=1.0, mu1=1.0, mu2=1.0)


class _Series:
    """Multivariate Taylor series truncated at a total degree.

    Coefficients live in a dict keyed by exponent tuples.  Supports the
    arithmetic needed to expand the double-pendulum dynamics: +, -, *,
    reciprocal, sin and cos.
    """

    def __init__(self, nvars, deg, coeffs=None):
        self.nvars = nvars
        self.deg = deg
        self.c = dict(coeffs or {})

    @classmethod
    def const(cls, value, nvars, deg):
        s = cls(nvars, deg)
        if value != 0.0:
            s.c[(0,) * nvars] = float(value)
        return s

    @classmethod
    def var(cls, i, nvars, deg):
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, deg, {tuple(expo): 1.0})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0.0) + v
        return _Series(self.nvars, self.deg, out)

    __radd__ = __add__

    def __neg__(self):
        return _Series(self.nvars, self.deg, {e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, v1 in self.c.items():
            d1 = sum(e1)
            for e2, v2 in other.c.items():
                if d1 + sum(e2) > self.deg:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + v1 * v2
        return _Series(self.nvars, self.deg, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, _Series):
            return other
        return _Series.const(other, self.nvars, self.deg)

    def constant_term(self):
        return self.c.get((0,) * self.nvars, 0.0)

    def without_constant(self):
        out = dict(self.c)
        out.pop((0,) * self.nvars, None)
        return _Series(self.nvars, self.deg, out)

    def reciprocal(self):
        """1/series via the geometric expansion of 1/(1 + w), w = series/c0 - 1."""
        c0 = self.constant_term()
        if c0 == 0.0:
            raise ZeroDivisionError("series has no constant term")
        w = self.without_constant() * (1.0 / c0)
        out = _Series.const(1.0, self.nvars, self.deg)
        term = _Series.const(1.0, self.nvars, self.deg)
        for _ in range(self.deg):
            term = term * w * (-1.0)
            if not term.c:
                break
            out = out + term
        return out * (1.0 / c0)

    def _sin_cos(self):
        s0 = self.constant_term()
        t = self.without_constant()
        sin_t = _Series.const(0.0, self.nvars, self.deg)
        cos_t = _Series.const(1.0, self.nvars, self.deg)
        term = _Series.const(1.0, self.nvars, self.deg)
        for j in range(1, self.deg + 1):
            term = term * t * (1.0 / j)
            if not term.c:
                break
            if j % 2 == 1:
                sin_t = sin_t + term * (-1.0) ** ((j - 1) // 2)
            else:
                cos_t = cos_t + term * (-1.0) ** (j // 2)
        sin_full = math.sin(s0) * cos_t + math.cos(s0) * sin_t
        cos_full = math.cos(s0) * cos_t - math.sin(s0) * sin_t
        return sin_full, cos_full

    def sin(self):
        return self._sin_cos()[0]

    def cos(self):
        return self._sin_cos()[1]


def _dp_series_rhs(deg):
    """Drift and input-column series of the double pendulum, in 4 state variables."""
    g, m1, m2, l1, l2, mu1, mu2 = (_DP[s] for s in ("g", "m1", "m2", "l1", "l2", "mu1", "mu2"))
    x = [_Series.var(i, 4, deg) for i in range(4)]
    cos2 = x[1].cos()
    m11 = m1 * l1 ** 2 + m2 * l1 ** 2 + m2 * l2 ** 2 + 2 * m2 * l1 * l2 * cos2
    m12 = m2 * l2 ** 2 + m2 * l1 * l2 * cos2
    m22 = _Series.const(m2 * l2 ** 2, 4, deg)
    det = m11 * m22 - m12 * m12
    det_inv = det.reciprocal()
    inv = [[m22 * det_inv, -1.0 * m12 * det_inv], [-1.0 * m12 * det_inv, m11 * det_inv]]
    # potential of the hanging configuration; dL/dq are its negated gradients
    sin1 = x[0].sin()
    sin12 = (x[0] + x[1]).sin()
    dL1 = -1.0 * ((m1 + m2) * g * l1 * sin1 + m2 * g * l2 * sin12)
    # dM/dx2 contributes to both dL/dx2 and the Mdot term
    sin2 = x[1].sin()
    dm11 = -2 * m2 * l1 * l2 * sin2
    dm12 = -m2 * l1 * l2 * sin2
    quad = 0.5 * (dm11 * x[2] * x[2] + 2.0 * dm12 * x[2] * x[3])
    dL2 = quad - m2 * g * l2 * sin12
    # Mdot qdot = dM/dx2 * x4 * [x3; x4]
    md1 = dm11 * x[3] * x[2] + dm12 * x[3] * x[3]
    md2 = dm12 * x[3] * x[2]
    r1 = dL1 - md1 - mu1 * x[2]
    r2 = dL2 - md2 - mu2 * x[3]
    acc = [inv[0][0] * r1 + inv[0][1] * r2, inv[1][0] * r1 + inv[1][1] * r2]
    drift = [x[2], x[3], acc[0], acc[1]]
    gcol = [_Series.const(0.0, 4, deg), _Series.const(0.0, 4, deg), inv[0][0], inv[1][0]]
    return drift, gcol


def double_pendulum(d):
    """Degree-``d`` Taylor polynomialization of the damped double pendulum.

    The pendulum hangs at the stable equilibrium; outputs are the horizontal
    and vertical displacements of the tip.
    """
    if d > 7:
        raise ValueError("Taylor degree above 7 is not supported")
    drift, gcol = _dp_series_rhs(d)
    f_entries, g_entries = {}, {}
    for row, ser in enumerate(drift):
        for e, v in ser.c.items():
            if sum(e) >= 1 and abs(v) > 1e-14:
                f_entries[(row, e)] = v
    for row, ser in enumerate(gcol):
        for e, v in ser.c.items():
            if abs(v) > 1e-14:
                g_entries[(row, e)] = v
    f = polymap_from_monomials(4, 4, f_entries)
    g0 = polymap_from_monomials(4, 4, g_entries)
    # outputs: y1 = l1 sin x1 + l2 sin(x1+x2); y2 = l1(1-cos x1) + l2(1-cos(x1+x2))
    l1, l2 = _DP["l1"], _DP["l2"]
    h_entries = {}
    for j in range(1, d + 1):
        s_coeff = (-1.0) ** ((j - 1) // 2) / math.factorial(j) if j % 2 == 1 else 0.0
        c_coeff = (-1.0) ** (j // 2) / math.factorial(j) if j % 2 == 0 else 0.0
        # sin(x1): pure x1 powers; sin(x1+x2): binomial spread
        if s_coeff:
            h_entries[(0, _expo4(j, 0))] = h_entries.get((0, _expo4(j, 0)), 0.0) + l1 * s_coeff
            for a in range(j + 1):
                e = _expo4(a, j - a)
                h_entries[(0, e)] = h_entries.get((0, e), 0.0) + l2 * s_coeff * math.comb(j, a)
        if c_coeff:
            # 1 - cos drops the constant; higher even powers enter with -c_coeff
            h_entries[(1, _expo4(j, 0))] = h_entries.get((1, _expo4(j, 0)), 0.0) - l1 * c_coeff
            for a in range(j + 1):
                e = _expo4(a, j - a)
                h_entries[(1, e)] = h_entries.get((1, e), 0.0) - l2 * c_coeff * math.comb(j, a)
    h = polymap_from_monomials(4, 2, h_entries)
    return ControlAffineSystem(f, [g0], h)


def _expo4(e1, e2):
    return (e1, e2, 0, 0)


def double_pendulum_rhs(x, u):
    """Exact double-pendulum dynamics (hanging equilibrium at the origin)."""
    g, m1, m2, l1, l2, mu1, mu2 = (_DP[s] for s in ("g", "m1", "m2", "l1", "l2", "mu1", "mu2"))
    u = np.atleast_1d(u)
    q1, q2, w1, w2 = x
    c2, s2 = np.cos(q2), np.sin(q2)
    M = np.array([
        [m1 * l1 ** 2 + m2 * l1 ** 2 + m2 * l2 ** 2 + 2 * m2 * l1 * l2 * c2,
         m2 * l2 ** 2 + m2 * l1 * l2 * c2],
        [m2 * l2 ** 2 + m2 * l1 * l2 * c2, m2 * l2 ** 2],
    ])
    dm11 = -2 * m2 * l1 * l2 * s2
    dm12 = -m2 * l1 * l2 * s2
    dL1 = -((m1 + m2) * g * l1 * np.sin(q1) + m2 * g * l2 * np.sin(q1 + q2))
    dL2 = 0.5 * (dm11 * w1 ** 2 + 2 * dm12 * w1 * w2) - m2 * g * l2 * np.sin(q1 + q2)
    md = np.array([dm11 * w2 * w1 + dm12 * w2 * w2, dm12 * w2 * w1])
    rhs = np.array([dL1, dL2]) - md - np.array([mu1 * w1, mu2 * w2]) + np.array([u[0], 0.0])
    acc = la.solve(M, rhs)
    return np.array([w1, w2, acc[0], acc[1]])


def double_pendulum_output(x):
    """Exact tip-displacement outputs of the double pendulum."""
    l1, l2 = _DP["l1"], _DP["l2"]
    q1, q2 = x[0], x[1]
    return np.array([
        l1 * np.sin(q1) + l2 * np.sin(q1 + q2),
        l1 * (1 - np.cos(q1)) + l2 * (1 - np.cos(q1 + q2)),
    ])


def beam_single_element():
    """Single-element cantilever beam model, n = 6, with identity input and output."""
    f = polymap_from_monomials(6, 6, {
        (0, (0, 0, 0, 1, 0, 0)): 1.0,
        (1, (0, 0, 0, 0, 1, 0)): 1.0,
        (2, (0, 0, 0, 0, 0, 1)): 1.0,
        (3, (1, 0, 0, 0, 0, 0)): -7.88e7,
        (3, (0, 0, 0, 1, 0, 0)): -7880.0,
        (3, (0, 2, 0, 0, 0, 0)): -4.72e7,
        (3, (0, 1, 1, 0, 0, 0)): 7.88e6,
        (3, (0, 0, 2, 0, 0, 0)): -5.25e6,
        (4, (0, 1, 0, 0, 0, 0)): 1.32e7,
        (4, (0, 0, 1, 0, 0, 0)): -1.01e7,
        (4, (0, 0, 0, 0, 1, 0)): 1320.0,
        (4, (0, 0, 0, 0, 0, 1)): -1010.0,
        (4, (1, 1, 0, 0, 0, 0)): -2.05e8,
        (4, (1, 0, 1, 0, 0, 0)): -2.0e8,
        (4, (0, 1, 2, 0, 0, 0)): -5.91e7,
        (4, (0, 2, 1, 0, 0, 0)): -1.01e8,
        (4, (0, 3, 0, 0, 0, 0)): -1.01e8,
        (4, (0, 0, 3, 0, 0, 0)): -5.06e7,
        (5, (0, 1, 0, 0, 0, 0)): 1.06e8,
        (5, (0, 0, 1, 0, 0, 0)): -7.75e7,
        (5, (0, 0, 0, 0, 1, 0)): 1.06e4,
        (5, (0, 0, 0, 0, 0, 1)): -7750.0,
        (5, (1, 1, 0, 0, 0, 0)): -8.5e8,
        (5, (1, 0, 1, 0, 0, 0)): -1.46e9,
        (5, (0, 1, 2, 0, 0, 0)): -3.54e8,
        (5, (0, 2, 1, 0, 0, 0)): -9.11e8,
        (5, (0, 3, 0, 0, 0, 0)): -2.02e8,
        (5, (0, 0, 3, 0, 0, 0)): -3.57e8,
    })
    g_cols = []
    for i in range(6):
        e = [0] * 6
        g_cols.append(polymap_from_monomials(6, 6, {(i, tuple(e)): 1.0}))
    h = PolyMap({1: np.eye(6)}, 6)
    return ControlAffineSystem(f, g_cols, h)


def random_stable_poly(n, d, seed, max_tries=50):
    """Random Hurwitz polynomial system with identity input/output maps.

    The linear part has spectral abscissa at most -0.5 and the higher-degree
    drift terms are scaled small enough that the origin's basin comfortably
    contains ``|x| <= 0.1``.  Resamples until the linear Hankel singular values
    are distinct with a relative gap of at least 1e-6, and raises
    :class:`~nlbt.errors.HypothesisViolation` after ``max_tries`` draws.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        shift = np.max(la.eigvals(A).real)
        A -= (shift + 0.5) * np.eye(n)
        B = np.eye(n)
        C = np.eye(n)
        Wc = la.solve_continuous_lyapunov(A, -B @ B.T)
        Wo = la.solve_continuous_lyapunov(A.T, -C.T @ C)
        try:
            Lc = la.cholesky(Wc, lower=True)
            Lo = la.cholesky(Wo, lower=True)
        except la.LinAlgError:
            continue
        s = la.svd(Lo.T @ Lc, compute_uv=False)
        if s[-1] > 1e-6 * s[0] and np.min(-np.diff(s)) >= 1e-6 * s[0]:
            break
    else:
        raise HypothesisViolation("resampling budget exhausted without distinct singular values")
    terms = {1: A}
    for k in range(2, d + 1):
        terms[k] = 0.1 * rng.standard_normal((n, n ** k)) / n ** (k - 1)
    f = PolyMap(terms, n)
    g_cols = [PolyMap({0: np.eye(n)[:, i : i + 1]}, n, rows=n) for i in range(n)]
    h = PolyMap({1: np.eye(n)}, n)
    return ControlAffineSystem(f, g_cols, h)


def by_name(name, degree=None):
    """Look up a zoo model by CLI name, e.g. ``pendulum:5`` or ``2d-illustrative``."""
    if ":" in name:
        name, _, deg = name.partition(":")
        degree = int(deg)
    key = name.replace("_", "-").lower()
    if key in ("2d-illustrative", "2d"):
        return two_dim_illustrative()
    if key == "pendulum":
        return pendulum(degree if degree is not None else 7)
    if key in ("3d-illustrative", "3d"):
        return three_dim_illustrative()
    if key in ("3d-illustrative-exact", "3d-exact"):
        return three_dim_illustrative(exact=True)
    if key in ("double-pendulum", "4d-double-pendulum"):
        return double_pendulum(degree if degree is not None else 5)
    if key in ("beam", "beam-1el", "beam-single-element"):
        return beam_single_element()
    raise KeyError(f"unknown model {name!r}")
