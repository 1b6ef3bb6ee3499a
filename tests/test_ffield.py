"""Deterministic finite-field construction and arithmetic."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from jacobisum import FiniteField, build_field, euler_phi, is_prime
from jacobisum.ffield import prime_factors, prime_power

from helpers import LARGER_PRIME_POWERS, PRIME_POWERS, field


def test_prime_field_f3():
    f = field(3)
    assert f.modulus == (0, 1)  # modulus x, the unused degree-1 convention
    assert f.generator == (2,)  # 2 has order 2 in F_3*
    assert f.dlog((2,)) == 1


def test_f4_modulus():
    f = field(4)
    assert f.modulus == (1, 1, 1)  # t^2 + t + 1, the only irreducible quadratic


def test_f8_modulus_tie_break():
    # both cubics t^3+t+1 and t^3+t^2+1 are irreducible over F_2; the
    # smallest numeric value sum(c_i 2^i) wins
    f = field(8)
    assert f.modulus == (1, 1, 0, 1)


def test_f16_modulus():
    assert field(16).modulus == (1, 1, 0, 0, 1)  # t^4 + t + 1


def test_field_arithmetic_examples():
    f4 = field(4)
    t = (0, 1)
    t2 = f4.mul(t, t)
    assert f4.add(t, t2) == f4.one  # t + t^2 = 1 given t^2 = t + 1
    f3 = field(3)
    assert f3.mul((2,), (2,)) == (1,)
    f5 = field(5)
    assert f5.inv((3,)) == (2,)  # 3*2 = 6 = 1


def test_zech_vector_is_the_field_addition():
    fields = [field(q) for q in sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS})]
    for f in fields + [build_field(3, 5), build_field(2, 10)]:
        assert [f.value(e) for e in f.elements] == list(range(f.q))
        assert len(f.zech) == f.q - 1
        minus_one = f.neg(f.one)
        for t, s in enumerate(f.zech):
            if f.power(t) == minus_one:
                assert s == 0, (f, t)
            else:
                assert s >= 1 and f.power(s - 1) == f.add(f.power(t), f.one), (f, t)


def test_dlog_examples():
    for q in (3, 4, 5, 8, 9):
        f = field(q)
        if q > 2:
            assert f.dlog(f.generator) == 1
    f4 = field(4)
    t2 = f4.mul(f4.generator, f4.generator)
    assert f4.dlog(t2) == 2


def test_dlog_is_additive():
    for q in (5, 8, 9, 16):
        f = field(q)
        nonzero = [e for e in f.elements if e != f.zero]
        for a in nonzero:
            for b in nonzero:
                assert f.dlog(f.mul(a, b)) == (f.dlog(a) + f.dlog(b)) % (f.q - 1)


def test_additive_group_and_distributivity():
    for q in (4, 8, 9, 16):
        f = field(q)
        for a in f.elements:
            # exponent p: p-fold sum of anything vanishes
            acc = f.zero
            for _ in range(f.p):
                acc = f.add(acc, a)
            assert acc == f.zero
        for a, b, c in itertools.product(f.elements, repeat=3):
            assert f.add(a, b) == f.add(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_count_of_unit_sums():
    # solutions of x + y = 1 with both nonzero number exactly q - 2
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        f = field(q)
        count = sum(
            1
            for x in f.elements
            if x != f.zero and f.sub(f.one, x) != f.zero
        )
        assert count == q - 2


def test_generator_is_smallest_primitive():
    f = field(9)
    # elements below the generator in numeric order must have smaller order
    for e in f.elements[1:]:
        if f.value(e) >= f.value(f.generator):
            break
        order = 1
        acc = e
        while acc != f.one:
            acc = f.mul(acc, e)
            order += 1
        assert order < f.q - 1


def test_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(2, 17)  # 2^17 is past the 2^16 cap
    with pytest.raises(ValueError, match="exceeds the bound"):
        build_field(2, 10**18)  # refused before 2^n is computed
    with pytest.raises(ValueError, match="exceeds the bound"):
        FiniteField(2**61 - 1, 1, (0, 1), (3,))  # refused before elements are listed
    f = field(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)
    with pytest.raises(ValueError):
        f.dlog(f.zero)
    with pytest.raises(ValueError):
        FiniteField(2, 2, (1, 0, 1), (0, 1))  # t^2 + 1 = (t+1)^2 is reducible
    with pytest.raises(ValueError):
        FiniteField(5, 1, (0, 1), (1,))  # 1 does not generate F_5*
    for modulus in ((), (1, 1), (1, 1, 2)):  # empty, of degree 1, not monic
        with pytest.raises(ValueError, match="modulus must be monic of degree n"):
            FiniteField(2, 2, modulus, (0, 1))


def test_is_prime():
    assert [k for k in range(20) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_factorisations_match_brute_force():
    sieve = np.ones(5000, dtype=bool)
    sieve[:2] = False
    for k in range(2, 71):
        sieve[k * k::k] = False
    primes = np.flatnonzero(sieve).tolist()
    powers = {p**e: (p, e) for p in primes for e in range(1, 13) if p**e < 5000}
    for n in range(5000):
        assert is_prime(n) == sieve[n], n
        assert prime_power(n) == powers.get(n), n
        if n:
            assert prime_factors(n) == [p for p in primes if n % p == 0], n
            assert euler_phi(n) == np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1), n


def test_q2_degenerate_field():
    f = build_field(2, 1)
    assert f.generator == (1,)
    assert f.dlog(f.one) == 0
