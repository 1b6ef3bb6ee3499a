"""Explicit construction of GF(p^n) with a generator and discrete logs.

Field elements are coefficient tuples of length n over Z/p, constant
term first; the numeric value of an element is sum(c_i * p**i).  The
construction is fully deterministic: the modulus is the monic
irreducible of degree n with the smallest numeric value, and the
generator is the element of full multiplicative order q-1 with the
smallest numeric value.  Discrete logs are tabulated by walking the
generator powers, which is fine at the supported sizes (q <= 2^16).
"""

from __future__ import annotations

import itertools

Q_MAX = 1 << 16  # largest field size constructed or loaded

FieldElement = tuple[int, ...]


def is_prime(k: int) -> bool:
    """Primality by trial division; adequate for the supported field sizes."""
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def prime_factors(k: int) -> list[int]:
    """The distinct primes dividing k, in increasing order, by trial division."""
    primes, d = [], 2
    while d * d <= k:
        if k % d == 0:
            primes.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return primes + [k] if k > 1 else primes


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, n) with q = p^n for a prime p, or None if q is no prime power."""
    primes = prime_factors(q)
    if len(primes) != 1:
        return None
    return primes[0], next(n for n in itertools.count(1) if primes[0] ** n == q)


def _field_size(p: int, n: int) -> int:
    """q = p^n, for a prime p, n >= 1 and q <= Q_MAX.  The bound is checked
    on n and p before p is tested or raised to a power, so an absurd field
    fails at once."""
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    if n >= Q_MAX.bit_length() or p > Q_MAX or p**n > Q_MAX:
        raise ValueError(f"field size {p}^{n} exceeds the bound {Q_MAX}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p**n


def _poly_mulmod(a: FieldElement, b: FieldElement, modulus: tuple[int, ...], p: int) -> FieldElement:
    n = len(modulus) - 1
    conv = [0] * (2 * n - 1) if n > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % p
    # fold degrees >= n using x^n = -modulus[:n]
    for k in range(len(conv) - 1, n - 1, -1):
        c = conv[k]
        if c:
            conv[k] = 0
            for j in range(n):
                conv[k - n + j] = (conv[k - n + j] - c * modulus[j]) % p
    return tuple(conv[:n])


def _divides(div: tuple[int, ...], poly: tuple[int, ...], p: int) -> bool:
    # remainder of poly by monic div over Z/p vanishes?
    rem = list(poly)
    dn = len(div) - 1
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        if c:
            for j in range(dn + 1):
                rem[k - dn + j] = (rem[k - dn + j] - c * div[j]) % p
    return not any(rem)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            div = tuple(lower) + (1,)
            if _divides(div, poly, p):
                return False
    return True


def _value_to_coeffs(value: int, length: int, p: int) -> FieldElement:
    coeffs = []
    for _ in range(length):
        coeffs.append(value % p)
        value //= p
    return tuple(coeffs)


class FiniteField:
    """GF(p^n) with a fixed modulus, generator, discrete-log table and Zech vector."""

    __slots__ = ("p", "n", "q", "modulus", "generator", "elements", "zech", "_dlog", "_powers")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...], generator: FieldElement):
        q = _field_size(p, n)
        if len(modulus) != n + 1 or int(modulus[-1]) != 1:
            raise ValueError("modulus must be monic of degree n")
        modulus = tuple(int(c) % p for c in modulus)
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over Z/{p}")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = modulus
        # in order of value: the constant coordinate varies fastest
        self.elements = tuple(c[::-1] for c in itertools.product(range(p), repeat=n))
        generator = tuple(int(c) % p for c in generator)
        if len(generator) != n:
            raise ValueError("generator has the wrong number of coordinates")
        powers = [self.one]
        for _ in range(self.q - 2):
            powers.append(_poly_mulmod(powers[-1], generator, modulus, p))
        self._powers = tuple(powers)
        self._dlog = {elem: t for t, elem in enumerate(powers)}
        if len(self._dlog) != self.q - 1 or _poly_mulmod(
            powers[-1], generator, modulus, p
        ) != self.one:
            raise ValueError(f"generator {generator} does not have order {self.q - 1}")
        self.generator = generator
        # zech[t] is the symbol of generator**t + 1 (adding 1 moves only the constant
        # coordinate): symbol 0 is zero and symbol k >= 1 is generator**(k - 1)
        self.zech = tuple(self._dlog.get(((x[0] + 1) % p,) + x[1:], -1) + 1 for x in powers)

    # -- arithmetic ----------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return (0,) * self.n

    @property
    def one(self) -> FieldElement:
        return (1,) + (0,) * (self.n - 1)

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: FieldElement) -> FieldElement:
        return tuple((-x) % self.p for x in a)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return _poly_mulmod(a, b, self.modulus, self.p)

    def inv(self, a: FieldElement) -> FieldElement:
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self._powers[(-self._dlog[a]) % (self.q - 1)]

    def dlog(self, a: FieldElement) -> int:
        """Exponent t with generator**t == a, for nonzero a."""
        if a == self.zero:
            raise ValueError("discrete log of zero")
        return self._dlog[tuple(a)]

    def power(self, t: int) -> FieldElement:
        """generator**t."""
        return self._powers[t % (self.q - 1)]

    def value(self, a: FieldElement) -> int:
        total = 0
        for c in reversed(a):
            total = total * self.p + c
        return total

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, n={self.n})"


def _multiplicative_order_is_full(field_mul, one, elem, q: int) -> bool:
    m = q - 1
    for ell in prime_factors(m):
        e = m // ell
        acc = one
        base = elem
        while e:
            if e & 1:
                acc = field_mul(acc, base)
            base = field_mul(base, base)
            e >>= 1
        if acc == one:
            return False
    return True


def build_field(p: int, n: int) -> FiniteField:
    """Construct GF(p^n) with the deterministic modulus and generator choices."""
    q = _field_size(p, n)

    modulus = None
    for value in range(q):
        candidate = _value_to_coeffs(value, n, p) + (1,)
        if _is_irreducible(candidate, p):
            modulus = candidate
            break
    assert modulus is not None  # x^n + x + c always has an irreducible below q

    one = (1,) + (0,) * (n - 1)
    mul = lambda a, b: _poly_mulmod(a, b, modulus, p)
    generator = None
    for value in range(1, q):
        candidate = _value_to_coeffs(value, n, p)
        if q == 2 or _multiplicative_order_is_full(mul, one, candidate, q):
            generator = candidate
            break
    assert generator is not None
    return FiniteField(p, n, modulus, generator)
