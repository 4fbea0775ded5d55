"""The JSON documents of nlbt, all through one matrix and polymap codec.

Coefficient matrices are stored dense, row-major, under the canonical
Kronecker column ordering.  Floats are written as decimal strings with 17
significant digits, which round-trip IEEE doubles bit-exactly.  A vector is
one row of such a matrix, and a standalone polymap carries its ``base_dim``
and ``rows`` (:func:`polymap_to_dict`).  Every writer writes its document as
one string, ``json.dumps(doc, indent=1)`` and a newline.  The documents:

- ``kps-1`` (:func:`save_system`, :func:`load_system`): a Kronecker
  polynomial system, with ``n``, ``m``, ``p``, ``degree`` and the blocks of
  ``f``, of each input column ``g`` and of ``h``.
- ``nlbt-balance-1`` (:func:`save_balance`, :func:`load_balance`): what
  ``nlbt balance`` writes, a :class:`~nlbt.realization.BalancingTransform`:
  ``d_transf``, the ``system`` as ``kps-1``, ``hankel``, ``sigma_condition``,
  the σ² series ``sq_sv``, both ``energies``, ``Tbar`` and ``Tbar1_inv``.
  Artifacts written while the series inverse was stored also carry ``P``,
  which is not read.
- ``nlbt-rom-1`` (:func:`save_rom`, :func:`load_rom`): what ``nlbt reduce``
  writes, a :class:`~nlbt.realization.ReducedOrderModel`: ``r``, ``d_rom``,
  the ROM as ``kps-1`` (``rom``), its manifold map ``transform``, the r
  leading rows of the series inverse (``inverse_transform``; a document that
  holds all n rows loads to its first r), ``x_r0`` and ``hankel``.

Every reader checks that the document is an object of its version, that
every field is present and decodes, that every number is finite, and that
every block has its shape and every shape agrees with the system's n or the
ROM's r; the ``kps-1`` reader also checks ``degree`` against the largest
block degree.  Otherwise it raises :class:`FormatError`, whose message names
the document and the field.  A file that cannot be read is a
:class:`FormatError` naming its path.  A writer raises :class:`FormatError`
on a NaN or an infinity before it writes anything.
"""

import json

import numpy as np

from .energy import EnergyFunction
from .errors import HypothesisViolation
from .inod import SqSingularValueFns
from .kron import ControlAffineSystem, PolyMap
from .realization import BalancingTransform, ReducedOrderModel, _leading_rows

__all__ = [
    "system_to_dict",
    "system_from_dict",
    "polymap_to_dict",
    "polymap_from_dict",
    "save_system",
    "load_system",
    "balance_to_dict",
    "balance_from_dict",
    "save_balance",
    "load_balance",
    "rom_to_dict",
    "rom_from_dict",
    "save_rom",
    "load_rom",
    "FormatError",
]

FORMAT_VERSION = "kps-1"
BALANCE_VERSION = "nlbt-balance-1"
ROM_VERSION = "nlbt-rom-1"


class FormatError(ValueError):
    """Malformed or unsupported document content."""


def _encode_matrix(W):
    W = np.atleast_2d(W)
    if not np.isfinite(W).all():
        raise FormatError(f"refusing to write a non-finite value in a {W.shape} block")
    return [[format(float(v), ".17g") for v in row] for row in W]


def _decode_matrix(rows, shape):
    W = np.array([[float(v) for v in row] for row in rows], dtype=float)
    if W.shape != shape:
        raise FormatError(f"coefficient block has shape {W.shape}, expected {shape}")
    if not np.isfinite(W).all():
        raise FormatError(f"{shape} block holds a non-finite value")
    return W


def _encode_vector(v):
    return _encode_matrix(v)[0]


def _list_of(items, length):
    if not isinstance(items, list) or len(items) != length:
        got = len(items) if isinstance(items, list) else type(items).__name__
        raise FormatError(f"expected a list of {length} entries, got {got}")
    return items


def _decode_vector(items, length):
    return _decode_matrix([_list_of(items, length)], (1, length))[0]


def _encode_polymap(pm):
    return {str(k): _encode_matrix(W) for k, W in pm.terms.items()}


def _decode_polymap(obj, base_dim, rows):
    terms = {}
    for key, block in obj.items():
        k = int(key)
        terms[k] = _decode_matrix(block, (rows, base_dim ** k))
    return PolyMap(terms, base_dim, rows=rows)


def polymap_to_dict(pm):
    """A standalone polymap: ``base_dim``, ``rows`` and the per-degree blocks."""
    return {"base_dim": pm.base_dim, "rows": pm.rows, "terms": _encode_polymap(pm)}


def polymap_from_dict(obj):
    """Inverse of :func:`polymap_to_dict`; malformed blocks raise :class:`FormatError`."""
    try:
        return _decode_polymap(obj["terms"], int(obj["base_dim"]), int(obj["rows"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"malformed polymap: {exc}") from exc


def system_to_dict(sys):
    return {
        "version": FORMAT_VERSION,
        "n": sys.n,
        "m": sys.m,
        "p": sys.p,
        "degree": sys.degree(),
        "f": _encode_polymap(sys.f),
        "g": [_encode_polymap(gc) for gc in sys.g],
        "h": _encode_polymap(sys.h),
    }


def _decode_columns(items, n, m):
    return [_decode_polymap(gobj, n, n) for gobj in _list_of(items, m)]


def system_from_dict(obj):
    """Inverse of :func:`system_to_dict`; see the module docstring for its checks."""
    _check_version(obj, FORMAT_VERSION)
    doc = FORMAT_VERSION
    n, m, p = (_field(doc, obj, key, _positive_int) for key in ("n", "m", "p"))
    f = _field(doc, obj, "f", _decode_polymap, n, n)
    g = _field(doc, obj, "g", _decode_columns, n, m)
    h = _field(doc, obj, "h", _decode_polymap, n, p)
    sys = ControlAffineSystem(f, g, h)
    degree, top = _field(doc, obj, "degree", _positive_int), sys.degree()
    if degree != top:
        raise FormatError(f"{doc} document: field 'degree' is {degree}, but the blocks reach {top}")
    return sys


def _write(doc, path):
    # one string, one write: json.dump writes every token separately
    text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _read(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"cannot read '{path}': {exc.strerror}") from exc


def save_system(sys, path):
    _write(system_to_dict(sys), path)


def load_system(path):
    return system_from_dict(_read(path))


def _check_version(obj, version):
    if not isinstance(obj, dict):
        got = type(obj).__name__
        raise FormatError(f"not a {version} document: expected an object, got {got}")
    if obj.get("version") != version:
        got = obj.get("version")
        raise FormatError(f"not a {version} document: field 'version' is {got!r}")


def _field(doc, obj, key, decode, *args):
    """``decode(obj[key], *args)``; a missing or malformed field raises
    :class:`FormatError` naming the document ``doc`` and the field."""
    if key not in obj:
        raise FormatError(f"{doc} document: missing field {key!r}")
    try:
        return decode(obj[key], *args)
    except (AttributeError, KeyError, TypeError, ValueError, HypothesisViolation) as exc:
        reason = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        raise FormatError(f"{doc} document: field {key!r}: {reason}") from exc


def _positive_int(v):
    if type(v) is not int or v < 1:  # JSON true is a bool, which is an int
        raise FormatError(f"{v!r} is not a positive integer")
    return v


def _decode_system(obj, n):
    sys = system_from_dict(obj)
    if sys.n != n:
        raise FormatError(f"system has n = {sys.n}, expected {n}")
    return sys


def _decode_map(obj, base_dim, min_rows, rows=None):
    pm = polymap_from_dict(obj)
    if pm.base_dim != base_dim:
        raise FormatError(f"base_dim is {pm.base_dim}, expected {base_dim}")
    if pm.rows < min_rows or rows is not None and pm.rows != rows:
        want = rows if rows is not None else f"at least {min_rows}"
        raise FormatError(f"has {pm.rows} rows, expected {want}")
    return pm


def _encode_energy(E):
    return {str(k): _encode_vector(v) for k, v in E.coeffs.items()}


def _decode_energies(obj, n):
    """Both energies, each stored as its degree-k coefficient vectors."""
    return [
        EnergyFunction(n, {int(k): _decode_vector(v, n ** int(k)) for k, v in obj[name].items()})
        for name in ("controllability", "observability")
    ]


def _decode_sq_sv(rows, n, d_transf):
    return SqSingularValueFns(_decode_matrix(rows, (n, d_transf)))


def balance_to_dict(balancing):
    """The ``nlbt-balance-1`` artifact of a :class:`~nlbt.realization.BalancingTransform`."""
    return {
        "version": BALANCE_VERSION,
        "d_transf": balancing.d_transf,
        "system": system_to_dict(balancing.sys),
        "hankel": _encode_vector(balancing.hankel),
        "sigma_condition": _encode_vector(balancing.sigma_condition)[0],
        "sq_sv": _encode_matrix(balancing.sq_sv.coeffs),
        "energies": {
            "controllability": _encode_energy(balancing.Ec),
            "observability": _encode_energy(balancing.Eo),
        },
        "Tbar": polymap_to_dict(balancing.Tbar),
        "Tbar1_inv": _encode_matrix(balancing.Tbar1_inv),
    }


def balance_from_dict(obj):
    """Inverse of :func:`balance_to_dict`; see the module docstring for its checks."""
    _check_version(obj, BALANCE_VERSION)
    doc = BALANCE_VERSION
    d_transf = _field(doc, obj, "d_transf", _positive_int)
    sys = _field(doc, obj, "system", system_from_dict)
    n = sys.n
    hankel = _field(doc, obj, "hankel", _decode_vector, n)
    # derived from hankel: checked, not kept
    _field(doc, obj, "sigma_condition", lambda v: _decode_matrix([[v]], (1, 1)))
    sq_sv = _field(doc, obj, "sq_sv", _decode_sq_sv, n, d_transf)
    Ec, Eo = _field(doc, obj, "energies", _decode_energies, n)
    Tbar = _field(doc, obj, "Tbar", _decode_map, n, n, n)
    Tbar1_inv = _field(doc, obj, "Tbar1_inv", _decode_matrix, (n, n))
    return BalancingTransform(sys, d_transf, hankel, sq_sv, Ec, Eo, Tbar, Tbar1_inv)


def save_balance(balancing, path):
    _write(balance_to_dict(balancing), path)


def load_balance(path):
    return balance_from_dict(_read(path))


def rom_to_dict(rom):
    """The ``nlbt-rom-1`` document of a :class:`~nlbt.realization.ReducedOrderModel`."""
    return {
        "version": ROM_VERSION,
        "r": rom.r,
        "d_rom": rom.d_rom,
        "rom": system_to_dict(rom.sys),
        "transform": polymap_to_dict(rom.T_r),
        "inverse_transform": polymap_to_dict(rom.P),
        "x_r0": _encode_vector(rom.x_r0),
        "hankel": _encode_vector(rom.hankel),
    }


def rom_from_dict(obj):
    """Inverse of :func:`rom_to_dict`; see the module docstring for its checks."""
    _check_version(obj, ROM_VERSION)
    doc = ROM_VERSION
    r = _field(doc, obj, "r", _positive_int)
    d_rom = _field(doc, obj, "d_rom", _positive_int)
    sys = _field(doc, obj, "rom", _decode_system, r)
    T_r = _field(doc, obj, "transform", _decode_map, r, r)
    n = T_r.rows
    (P,) = _leading_rows(_field(doc, obj, "inverse_transform", _decode_map, n, r), 1, r)
    x_r0 = _field(doc, obj, "x_r0", _decode_vector, r)
    hankel = _field(doc, obj, "hankel", _decode_vector, n)
    return ReducedOrderModel(r, d_rom, sys, T_r, P, x_r0, hankel)


def save_rom(rom, path):
    _write(rom_to_dict(rom), path)


def load_rom(path):
    return rom_from_dict(_read(path))


def systems_equal(a, b):
    """Bit-exact coefficient equality (same degrees, same matrices)."""
    if (a.n, a.m, a.p) != (b.n, b.m, b.p):
        return False

    def pm_equal(x, y):
        if set(x.terms) != set(y.terms):
            return False
        return all(np.array_equal(x.terms[k], y.terms[k]) for k in x.terms)

    return (
        pm_equal(a.f, b.f)
        and all(pm_equal(ga, gb) for ga, gb in zip(a.g, b.g))
        and pm_equal(a.h, b.h)
    )
