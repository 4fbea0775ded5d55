"""The balance path calls LAPACK directly: same results as scipy.linalg, same errors."""

import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as la

import lapack_oracles as oracle
from nlbt import energy, models
from nlbt.energy import EnergyFunction, SchurFactor, solve_kway_transposed
from nlbt.errors import HypothesisViolation, ResonanceError
from nlbt.inod import linear_balancing
from nlbt.kron import ControlAffineSystem, PolyMap
from nlbt.pipeline import balance

# (model, model degree, transform degree, ROM order): every zoo model and the beam
ZOO = [
    ("2d-illustrative", None, 3, 1),
    ("pendulum", 5, 3, 1),
    ("3d-illustrative", None, 3, 2),
    ("3d-illustrative-exact", None, 3, 2),
    ("double-pendulum", 3, 3, 2),
    ("beam", None, 2, 1),
]
ZOO_IDS = [name for name, *_ in ZOO]

# the scipy.linalg wrappers that the balance path must not call
WRAPPERS = ("schur", "cholesky", "svd", "solve", "solve_triangular", "solve_continuous_lyapunov")


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"scipy.linalg.{name} called")

    return refused


@pytest.mark.parametrize("name, degree, d, r", ZOO, ids=ZOO_IDS)
def test_balance_path_calls_no_scipy_linalg_wrapper(name, degree, d, r, monkeypatch):
    sys_ = models.by_name(name, degree)
    for wrapper in WRAPPERS:
        original = getattr(la, wrapper)
        monkeypatch.setattr(la, wrapper, _refuse(wrapper))
        # a name imported from scipy.linalg into an nlbt module
        for module in [m for key, m in sys.modules.items() if key.startswith("nlbt")]:
            if getattr(module, wrapper, None) is original:
                monkeypatch.setattr(module, wrapper, _refuse(wrapper))
    pl = balance(sys_, d)
    pl.reduce(r)
    assert pl.P.degree == d


def _spy(monkeypatch, name):
    """Record every call of ``nlbt.energy.<name>`` as ``(args, result)``."""
    calls = []
    real = getattr(energy, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(energy, name, spy)
    return calls


def _assert_identical(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    npt.assert_array_equal(actual, expected, strict=True)


@pytest.mark.parametrize("name, degree, d, r", ZOO, ids=ZOO_IDS)
def test_direct_calls_equal_scipy_bit_for_bit(name, degree, d, r, monkeypatch):
    sys_ = models.by_name(name, degree)
    schur_calls = _spy(monkeypatch, "_complex_schur")
    posv_calls = _spy(monkeypatch, "dposv")
    pl = balance(sys_, d)
    # A^T for the controllability Gramian, A + B B^T V_2 for its energy, A
    # for the observability energy; each factor keeps T and Z^T
    assert len(schur_calls) == 3 and len(posv_calls) == 1
    for (M,), (T, Z) in schur_calls[:3]:
        T_ref, Z_ref = oracle.complex_schur(M)
        _assert_identical(T, T_ref)
        _assert_identical(Z, Z_ref)
        fac = SchurFactor(M.T)
        _assert_identical(fac.T, T_ref)
        _assert_identical(fac._z_t.T, Z_ref)
    ((Wc, _), (_, V2, _)), = posv_calls
    _assert_identical(V2, oracle.gramian_inverse(Wc))
    for got, want in zip(linear_balancing(pl.Ec, pl.Eo), oracle.linear_balancing(pl.Ec, pl.Eo)):
        _assert_identical(got, want)


def test_non_finite_linearization_is_a_value_error():
    A = np.array([[-1.0, 0.5], [np.inf, -2.0]])
    with pytest.raises(ValueError, match="infs or NaNs"):
        SchurFactor(A)
    sys_ = ControlAffineSystem(
        PolyMap({1: A}, 2), [PolyMap({0: np.ones((2, 1))}, 2)], PolyMap({1: np.eye(2)}, 2)
    )
    with pytest.raises(ValueError, match="infs or NaNs"):
        balance(sys_, 2)


def test_indefinite_hessian_is_a_hypothesis_violation():
    Ec = EnergyFunction(2, {2: np.array([1.0, 0.0, 0.0, -1.0])})
    Eo = EnergyFunction(2, {2: np.array([2.0, 0.0, 0.0, 1.0])})
    with pytest.raises(HypothesisViolation, match="not positive definite"):
        linear_balancing(Ec, Eo)
    with pytest.raises(HypothesisViolation, match="not positive definite"):
        linear_balancing(Eo, Ec)


def test_failed_schur_form_is_a_lin_alg_error(monkeypatch):
    n = 3
    energy._zgees_lwork(n)  # the workspace query runs the real routine

    def failed(select, a, **kwargs):
        return a, 0, np.diagonal(a), a, np.zeros(1, complex), n

    monkeypatch.setattr(energy, "zgees", failed)
    with pytest.raises(np.linalg.LinAlgError, match="Schur form not found"):
        SchurFactor(-np.eye(n))


def _with_spectrum(eigvals):
    """Real block-diagonal matrix with the given eigenvalues (conjugate pairs as 2 x 2 blocks)."""
    blocks, rest = [], list(eigvals)
    while rest:
        lam = rest.pop(0)
        if lam.imag == 0:
            blocks.append(np.array([[lam.real]]))
        else:
            rest.remove(np.conj(lam))
            blocks.append(np.array([[lam.real, lam.imag], [-lam.imag, lam.real]]))
    return la.block_diag(*blocks)


def test_one_sign_spectrum_below_the_bound_still_resonates():
    # |Re lam| = 1e-14: the one-sign bound 2e-14 is below the tolerance, and
    # lam + conj(lam) = -2e-14 is a resonance at k = 2
    A = _with_spectrum([-1e-14 + 1j, -1e-14 - 1j])
    rhs = np.array([1.0, 0.5, 0.5, 2.0])
    with pytest.raises(ResonanceError):
        solve_kway_transposed(A, 2, rhs)


SPECTRA = {
    "negative-real": [-1.0, -2.0, -3.5],
    "positive-real": [0.5, 1.0, 4.0],
    "negative-pairs": [-1 + 2j, -1 - 2j, -0.3 + 5j, -0.3 - 5j],
    "positive-pair": [2 + 1j, 2 - 1j, 3.0],
    "tiny-real-part": [-1e-14 + 1j, -1e-14 - 1j, -2.0],
    "near-the-bound": [-2e-12 + 1j, -2e-12 - 1j],
    "inside-the-margin": [-0.75e-12 + 1j, -0.75e-12 - 1j],
    "wide-spread": [-1e-9, -1e3 + 1e4j, -1e3 - 1e4j],
    "mixed-resonant": [-1.0, 0.5, -3.0],
    "mixed-pair-resonant": [-1 + 1j, -1 - 1j, 2.0],
    "mixed-clear": [-1.0, 0.3],
}


@pytest.mark.parametrize("eigvals", SPECTRA.values(), ids=SPECTRA.keys())
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_resonance_shortcut_agrees_with_the_full_check(eigvals, k):
    fac = SchurFactor(_with_spectrum(eigvals))
    expected = oracle.resonant(fac.eigvals, k)
    try:
        fac._check_resonance(k)
        raised = False
    except ResonanceError:
        raised = True
    assert raised == expected


ONE_SIGN_CLEAR = ["negative-real", "positive-real", "negative-pairs", "positive-pair"]


@pytest.mark.parametrize("name", ONE_SIGN_CLEAR)
def test_one_sign_spectrum_forms_no_sums(name, monkeypatch):
    fac = SchurFactor(_with_spectrum(SPECTRA[name]))
    monkeypatch.setattr(fac, "eigvals", None)  # the n^k sums would need them
    for k in (2, 3, 4, 5):
        fac._check_resonance(k)
