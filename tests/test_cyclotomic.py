"""Exact cyclotomic arithmetic: canonical reduction, roots, embedding."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jacobisum import Cyclotomic, cyclotomic_polynomial, euler_phi, root_power
from jacobisum.cyclotomic import parse_coefficient

from helpers import random_cyclotomic


def _poly_mul(a, b):
    # independent helper for the product-reconstruction oracle
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)  # x + 1
    # oracle: (x^4 - 1) / ((x - 1)(x + 1)) = x^2 + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # oracle: (x^6 - 1) / (Phi_1 Phi_2 Phi_3) = x^2 - x + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degree_is_phi():
    for m in range(1, 65):
        assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


def test_cyclotomic_product_reconstruction():
    # prod over d | m of Phi_d equals x^m - 1, exactly, for all m <= 64
    for m in range(1, 65):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [0] * (m + 1)
        expected[0] = -1
        expected[m] = 1
        assert prod == expected, f"m={m}"


def test_root_power_values():
    assert root_power(4, 0) == Cyclotomic.root(4, 0)
    minus_one = root_power(4, 2)
    assert minus_one.coefficients() == (Fraction(-1), Fraction(0))
    # 1 + zeta_3 + zeta_3^2 = 0
    assert root_power(3, 1) + root_power(3, 2) == Cyclotomic.from_rational(3, -1)
    assert root_power(1, 5) == Cyclotomic.root(1, 0)


def test_root_power_multiplicativity():
    for m in range(1, 25):
        for j in range(m):
            for k in range(m):
                assert root_power(m, j) * root_power(m, k) == root_power(m, j + k)


def test_ring_operations():
    assert root_power(3, 1) + root_power(3, 2) + 1 == Cyclotomic.zero(3)
    assert root_power(5, 1) * root_power(5, 4) == Cyclotomic.root(5, 0)
    for m in (2, 6, 12):
        scaled = Cyclotomic.root(m, 0).scale(Fraction(1, m))
        assert scaled * m == Cyclotomic.root(m, 0)


def test_mul_root_matches_multiplication():
    rng = random.Random(0)
    for m in (3, 4, 6, 8, 12):
        for _ in range(10):
            z = random_cyclotomic(rng, m)
            k = rng.randrange(m)
            assert z.mul_root(k) == z * root_power(m, k)


def test_galois_action():
    z = root_power(12, 1)
    assert z.galois(5) == root_power(12, 5)
    assert z.galois(1) == z
    # conjugation inverts every root
    w = root_power(12, 3) + root_power(12, 7).scale(2)
    assert w.galois(11) == root_power(12, -3) + root_power(12, -7).scale(2)
    with pytest.raises(ValueError):
        z.galois(4)


def test_root_sum():
    assert Cyclotomic.root_sum(3, [0, 1, 2]) == Cyclotomic.zero(3)
    assert Cyclotomic.root_sum(4, [0, 0, 2], den=2) == Cyclotomic.from_rational(
        4, Fraction(1, 2)
    )


def test_conductor_mismatch():
    with pytest.raises(ValueError):
        Cyclotomic.root(3, 0) + Cyclotomic.root(4, 0)
    with pytest.raises(ValueError):
        Cyclotomic.root(3, 0) * Cyclotomic.root(6, 0)


def test_embedding_values():
    assert Cyclotomic.root(4, 0).to_complex() == pytest.approx(1.0)
    assert abs(root_power(4, 1).to_complex() - 1j) < 1e-12
    assert abs(abs(root_power(6, 1).to_complex()) - 1.0) < 1e-12


def test_embedding_is_ring_homomorphism():
    rng = random.Random(1)
    for m in (3, 5, 8, 12, 20):
        for _ in range(10):
            z = random_cyclotomic(rng, m)
            w = random_cyclotomic(rng, m)
            assert abs((z + w).to_complex() - (z.to_complex() + w.to_complex())) < 1e-10
            assert abs((z * w).to_complex() - z.to_complex() * w.to_complex()) < 1e-10


def test_canonical_equality_and_hash():
    a = Cyclotomic.from_coefficients(6, [Fraction(1, 2), Fraction(-1, 2)])
    b = Cyclotomic(6, [1, -1], 2)
    assert a == b and hash(a) == hash(b)
    # lowest-terms coefficients
    assert Cyclotomic(6, [2, 4], 6).coefficients() == (Fraction(1, 3), Fraction(2, 3))


def test_string_serialization_roundtrip():
    rng = random.Random(2)
    for m in (1, 2, 5, 12):
        for _ in range(8):
            z = random_cyclotomic(rng, m)
            assert Cyclotomic.from_strings(m, z.to_strings()) == z
    assert Cyclotomic.from_rational(4, Fraction(-3, 2)).to_strings() == ["-3/2", "0"]
    assert Cyclotomic.zero(4).to_strings() == ["0", "0"]


def test_coefficient_grammar():
    assert parse_coefficient("-6/4") == (-3, 2)
    assert parse_coefficient("0/7") == (0, 1)
    assert parse_coefficient("-0") == (0, 1)
    assert parse_coefficient("007/014") == (1, 2)
    assert parse_coefficient(str(2**70)) == (2**70, 1)
    for bad in ("1/0", "0.5", "1e3", "1e10000000", "+1", " 1", "1 ", "1/-2", "1_0",
                "", "/2", "1/", "\u0661", "1\n", True, 1, 0.5, None, ["1"], "9" * 5000):
        with pytest.raises(ValueError):
            parse_coefficient(bad)
    assert Cyclotomic.from_strings(3, ["2/4", "-1"]) == Cyclotomic(3, [1, -2], 2)
    with pytest.raises(ValueError):
        Cyclotomic.from_strings(3, ["1", "0.5"])


def test_scalar_coercion():
    z = root_power(5, 2)
    assert z - z == 0
    assert (z * 0) == Cyclotomic.zero(5)
    assert 1 + Cyclotomic.zero(5) == Cyclotomic.root(5, 0)
    with pytest.raises(TypeError):
        z.scale(0.5)
