"""JSON containers: exact roundtrips and canonical serialization."""

import random
from fractions import Fraction

import pytest

from weilforms.containers import (
    decode_value,
    dumps,
    encode_value,
    jacobi_from_json,
    jacobi_to_json,
    load_form,
    loads,
    scalar_from_json,
    scalar_to_json,
    vector_from_json,
    vector_to_json,
)
from weilforms.expansions import HarmonicExpansion, VectorForm, random_plus_expansion
from weilforms.isomap import split_to_vector
from weilforms.jacobi import JacobiForm, random_jacobi_form, theta_decompose


def test_value_codec():
    assert encode_value(Fraction(-3, 7)) == "-3/7"
    assert encode_value(5) == "5"
    assert encode_value(0.25) == 0.25
    assert encode_value(None) is None
    with pytest.raises(TypeError):
        encode_value(1j)
    assert decode_value("-3/7") == Fraction(-3, 7)
    assert decode_value(0.25) == 0.25
    with pytest.raises(TypeError):
        decode_value([1])


def test_decode_json_integers_exactly():
    big = 12345678901234567891
    assert decode_value(big) == Fraction(big) and isinstance(decode_value(big), Fraction)
    assert decode_value(-7) == Fraction(-7)
    assert decode_value(0) == 0 and isinstance(decode_value(0), Fraction)
    for bad in (True, False, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(TypeError):
            decode_value(bad)
    obj = loads('{"kind": "jacobi", "k": 2, "m": 1, "d_max": 1, "c_minus": [],'
                ' "c_plus": [{"D": 1, "r": 1, "v": 12345678901234567891}]}')
    assert jacobi_from_json(obj).c_plus == {(1, 1): Fraction(big)}
    obj["c_plus"][0]["v"] = True
    with pytest.raises(TypeError):
        jacobi_from_json(obj)
    rec = {"n": "0", "c_plus": 3, "c_minus": None}
    scalar = {"kind": "scalar", "m": 1, "k": 0, "dual": False, "weight_num": 1,
              "coeffs": [rec], "window": ["-4", "4"]}
    f, _, _ = scalar_from_json(scalar)
    assert f.c_plus == {0: Fraction(3)} and isinstance(f.c_plus[0], Fraction)


def test_scalar_roundtrip_exact():
    rng = random.Random(314)
    for m, k in ((1, 0), (3, 1), (5, 0)):
        f = random_plus_expansion(m, k, rng)
        obj = scalar_to_json(f, m, k)
        assert obj["kind"] == "scalar" and obj["dual"] is False
        g, m2, k2 = scalar_from_json(obj)
        assert (g, m2, k2) == (f, m, k)


def test_scalar_weight_gate():
    f = HarmonicExpansion(3, {3: 1}, window=(-4, 4))
    with pytest.raises(ValueError):
        scalar_to_json(f, 1, 0)


def test_scalar_float_coefficients_survive():
    f = HarmonicExpansion(1, {0: 0.125, 1: Fraction(2)}, window=(-2, 2))
    g, _, _ = scalar_from_json(scalar_to_json(f, 1, 0))
    assert g.c_plus[0] == 0.125 and isinstance(g.c_plus[0], float)
    assert g.c_plus[1] == Fraction(2)


def test_vector_roundtrip_exact():
    rng = random.Random(315)
    for m, k in ((1, 0), (2, 1), (3, 0)):
        F = split_to_vector(random_plus_expansion(m, k, rng), m, k)
        obj = vector_to_json(F)
        assert obj["kind"] == "vector"
        assert vector_from_json(obj) == F


def test_vector_requires_uniform_window():
    comps = {
        0: HarmonicExpansion(1, {}, window=(-1, 1)),
        1: HarmonicExpansion(1, {}, window=(-2, 2)),
    }
    from weilforms.discform import DiscriminantForm
    F = VectorForm(DiscriminantForm(1), 1, comps)
    with pytest.raises(ValueError):
        vector_to_json(F)


def test_jacobi_roundtrip_exact():
    rng = random.Random(316)
    for k, m in ((2, 1), (0, 2), (3, 3)):
        phi = random_jacobi_form(k, m, rng)
        obj = jacobi_to_json(phi)
        assert obj["kind"] == "jacobi"
        assert jacobi_from_json(obj) == phi


def test_jacobi_d_max_explicit_and_derived():
    phi = JacobiForm(2, 1, {(1, 1): 1}, d_max=9)
    obj = jacobi_to_json(phi)
    assert obj["d_max"] == 9
    assert jacobi_from_json(obj).d_max == 9
    trimmed = dict(obj)
    del trimmed["d_max"]
    assert jacobi_from_json(trimmed).d_max == 1


def test_load_form_dispatch():
    rng = random.Random(317)
    f = random_plus_expansion(1, 0, rng)
    assert load_form(scalar_to_json(f, 1, 0)) == ("scalar", (f, 1, 0))
    F = theta_decompose(random_jacobi_form(2, 2, rng))
    assert load_form(vector_to_json(F)) == ("vector", F)
    phi = random_jacobi_form(2, 2, rng)
    assert load_form(jacobi_to_json(phi)) == ("jacobi", phi)
    with pytest.raises(ValueError):
        load_form({"kind": "sheaf"})


def test_dumps_is_canonical():
    rng = random.Random(318)
    phi = random_jacobi_form(2, 3, rng)
    text = dumps(jacobi_to_json(phi))
    assert text.endswith("\n")
    assert text == dumps(jacobi_to_json(jacobi_from_json(loads(text))))
    # key order in the input dict must not leak into the serialization
    obj = jacobi_to_json(phi)
    shuffled = dict(reversed(list(obj.items())))
    assert dumps(shuffled) == text
