"""JSON containers for expansion and Jacobi coefficient data.

One stable on-disk shape per kind.  Exact values travel as "num/den"
strings so nothing is lost to binary floats; float values are written as
JSON numbers and come back bit-identical through repr round-tripping.
`dumps` fixes key order and layout, so equal data serializes to equal
bytes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from numbers import Rational

from .discform import DiscriminantForm

__all__ = [
    "encode_value",
    "decode_value",
    "scalar_to_json",
    "scalar_from_json",
    "vector_to_json",
    "vector_from_json",
    "jacobi_to_json",
    "jacobi_from_json",
    "load_form",
    "dumps",
    "loads",
]


def encode_value(v):
    """Rationals to "num/den" strings, floats as-is, None passes through."""
    if v is None:
        return None
    if isinstance(v, Rational):
        return str(Fraction(v))
    if isinstance(v, float):
        return v
    raise TypeError(f"cannot encode a value of type {type(v).__name__}")


def decode_value(obj):
    """Inverse of encode_value; JSON integers come back exact, and booleans,
    NaN and infinities are rejected."""
    if obj is None:
        return None
    if isinstance(obj, (str, int)) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return obj
    raise TypeError(f"cannot decode {obj!r}: expected a string, an integer or a finite float")


def _coeff_records(f: HarmonicExpansion, gamma: int | None = None) -> list[dict]:
    indices = sorted(set(f.c_plus) | set(f.c_minus), key=Fraction)
    out = []
    for n in indices:
        rec = {
            "n": str(Fraction(n)),
            "c_plus": encode_value(f.c_plus.get(n)),
            "c_minus": encode_value(f.c_minus.get(n)),
        }
        if gamma is not None:
            rec["gamma"] = gamma
        out.append(rec)
    return out


def _coeff_tables(records, gamma: int | None = None):
    cp: dict = {}
    cm: dict = {}
    for rec in records:
        if gamma is not None and rec.get("gamma") != gamma:
            continue
        n = Fraction(rec["n"])
        vp = decode_value(rec.get("c_plus"))
        vm = decode_value(rec.get("c_minus"))
        if vp is not None:
            cp[n] = vp
        if vm is not None:
            cm[n] = vm
    return cp, cm


def _window_json(window) -> list[str]:
    return [str(Fraction(window[0])), str(Fraction(window[1]))]


def _window_tuple(obj):
    lo, hi = Fraction(obj[0]), Fraction(obj[1])
    return (lo, hi)


def scalar_to_json(f: HarmonicExpansion, m: int, k: int) -> dict:
    """Container for a scalar expansion carrying its (m, k) interpretation."""
    if f.weight_num != 2 * k + 1:
        raise ValueError("weight_num disagrees with 2k + 1")
    return {
        "kind": "scalar",
        "m": int(m),
        "k": int(k),
        "dual": False,
        "weight_num": f.weight_num,
        "coeffs": _coeff_records(f),
        "window": _window_json(f.window),
    }


def scalar_from_json(obj) -> tuple[HarmonicExpansion, int, int]:
    from .expansions import HarmonicExpansion

    if obj.get("kind") != "scalar":
        raise ValueError("expected a scalar container")
    cp, cm = _coeff_tables(obj["coeffs"])
    f = HarmonicExpansion(int(obj["weight_num"]), cp, cm,
                          window=_window_tuple(obj["window"]))
    return f, int(obj["m"]), int(obj["k"])


def vector_to_json(F: VectorForm) -> dict:
    """Container for a vector form; requires a uniform component window."""
    windows = {F.components[g].window for g in range(F.df.size)}
    if len(windows) != 1:
        raise ValueError("components carry different windows; nothing canonical to store")
    coeffs = []
    for g in range(F.df.size):
        coeffs.extend(_coeff_records(F.components[g], gamma=g))
    return {
        "kind": "vector",
        "m": F.df.m,
        "k": F.k,
        "dual": F.dual,
        "weight_num": F.weight_num,
        "coeffs": coeffs,
        "window": _window_json(next(iter(windows))),
    }


def vector_from_json(obj) -> VectorForm:
    from .expansions import HarmonicExpansion, VectorForm

    if obj.get("kind") != "vector":
        raise ValueError("expected a vector container")
    m = int(obj["m"])
    weight_num = int(obj["weight_num"])
    window = _window_tuple(obj["window"])
    comps = {}
    for g in range(2 * m):
        cp, cm = _coeff_tables(obj["coeffs"], gamma=g)
        comps[g] = HarmonicExpansion(weight_num, cp, cm, window=window)
    return VectorForm(DiscriminantForm(m), weight_num, comps,
                      dual=bool(obj["dual"]))


def jacobi_to_json(phi: JacobiForm) -> dict:
    def table(d):
        return [
            {"D": key[0], "r": key[1], "v": encode_value(v)}
            for key, v in sorted(d.items())
        ]

    return {
        "kind": "jacobi",
        "k": phi.k,
        "m": phi.m,
        "c_plus": table(phi.c_plus),
        "c_minus": table(phi.c_minus),
        "d_max": phi.d_max,
    }


def jacobi_from_json(obj) -> JacobiForm:
    from .jacobi import JacobiForm

    if obj.get("kind") != "jacobi":
        raise ValueError("expected a jacobi container")

    def table(records):
        return {
            (int(rec["D"]), int(rec["r"])): decode_value(rec["v"])
            for rec in records
        }

    return JacobiForm(int(obj["k"]), int(obj["m"]),
                      table(obj["c_plus"]), table(obj["c_minus"]),
                      d_max=obj.get("d_max"))


def load_form(obj):
    """Dispatch on the container kind; returns (kind, payload).

    Payload is (f, m, k) for "scalar", a VectorForm for "vector", and a
    JacobiForm for "jacobi".
    """
    kind = obj.get("kind")
    if kind == "scalar":
        return kind, scalar_from_json(obj)
    if kind == "vector":
        return kind, vector_from_json(obj)
    if kind == "jacobi":
        return kind, jacobi_from_json(obj)
    raise ValueError(f"unknown container kind {kind!r}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def loads(text: str):
    return json.loads(text)
