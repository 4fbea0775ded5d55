"""``kps-1`` file format: JSON interchange for Kronecker polynomial systems.

Coefficient matrices are stored dense, row-major, under the canonical
Kronecker column ordering.  Floats are written as decimal strings with 17
significant digits, which round-trip IEEE doubles bit-exactly.  The same
matrix and polymap codec serves the CLI's balance and ROM documents, where a
standalone polymap carries its ``base_dim`` and ``rows``
(:func:`polymap_to_dict`).
"""

import json

import numpy as np

from .kron import ControlAffineSystem, PolyMap

__all__ = [
    "system_to_dict",
    "system_from_dict",
    "polymap_to_dict",
    "polymap_from_dict",
    "save_system",
    "load_system",
    "FormatError",
]

FORMAT_VERSION = "kps-1"


class FormatError(ValueError):
    """Malformed or unsupported kps file content."""


def _encode_matrix(W):
    return [[format(float(v), ".17g") for v in row] for row in np.atleast_2d(W)]


def _decode_matrix(rows, shape):
    W = np.array([[float(v) for v in row] for row in rows], dtype=float)
    if W.shape != shape:
        raise FormatError(f"coefficient block has shape {W.shape}, expected {shape}")
    return W


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


def system_from_dict(obj):
    if not isinstance(obj, dict) or obj.get("version") != FORMAT_VERSION:
        raise FormatError(f"not a {FORMAT_VERSION} document")
    try:
        n, m, p = int(obj["n"]), int(obj["m"]), int(obj["p"])
        f = _decode_polymap(obj["f"], n, n)
        g = [_decode_polymap(gobj, n, n) for gobj in obj["g"]]
        h = _decode_polymap(obj["h"], n, p)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"malformed {FORMAT_VERSION} document: {exc}") from exc
    if len(g) != m:
        raise FormatError("input-column count does not match m")
    return ControlAffineSystem(f, g, h)


def save_system(sys, path):
    # one string, one write: json.dump writes every token separately
    text = json.dumps(system_to_dict(sys), indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_system(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return system_from_dict(obj)


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
