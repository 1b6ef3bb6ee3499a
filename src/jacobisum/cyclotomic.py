"""Exact arithmetic in the cyclotomic field Q(zeta_m).

A value is a polynomial in zeta_m over the power basis 1, zeta, ...,
zeta^(phi(m)-1), reduced modulo the m-th cyclotomic polynomial.  It is
stored as an integer coefficient vector over a single positive
denominator with the content divided out, so the representation is
canonical: equal values compare and hash equal.  Coefficients are plain
Python integers and never overflow.  A JacobiTable keeps this form for
all its entries at once, in integer arrays.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import re
from collections import Counter
from fractions import Fraction
from typing import Iterable, Union

from .ffield import prime_factors

Rational = Union[int, Fraction]

_COEFFICIENT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def euler_phi(m: int) -> int:
    """Euler's totient of a positive integer."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    result = m
    for p in prime_factors(m):
        result -= result // p
    return result


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # integer polynomial division that must leave no remainder
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q, r = divmod(c, den[-1])
        if r:
            raise ArithmeticError("polynomial division is not exact")
        quot[k] = q
        if q:
            for j, dj in enumerate(den):
                num[k + j] -= q * dj
    if any(num):
        raise ArithmeticError("polynomial division is not exact")
    return quot


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed as the exact quotient of x^m - 1 by the product of the
    lower-index cyclotomic polynomials over the proper divisors of m.
    """
    if m < 1:
        raise ValueError(f"index must be positive, got {m}")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_div_exact(num, den))


def parse_coefficient(text: str) -> tuple[int, int]:
    """One interchange coefficient, "p" or "p/q" in decimal digits with an
    optional leading minus, as (numerator, denominator) in lowest terms.

    Anything else is a ValueError: non-strings, signs or spaces around the
    digits, decimals, exponents and a zero denominator.  Python's limit on
    the digits of an int conversion bounds the work per string.
    """
    match = _COEFFICIENT.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"coefficient must be a string 'p' or 'p/q', got {text!r:.40}")
    num = int(match[1])
    den = int(match[2]) if match[2] is not None else 1
    if den == 0:
        raise ValueError(f"coefficient {text!r:.40} has a zero denominator")
    g = math.gcd(num, den)
    return num // g, den // g


class _Reduction:
    """Cached power-basis reduction data for one conductor.

    rows[j] is the canonical coefficient vector of zeta^j for every j up
    to max(m - 1, 2*phi(m) - 2), which covers both root powers and the
    overflow degrees of a product of two reduced values.
    """

    __slots__ = ("m", "degree", "rows", "row_bound")

    def __init__(self, m: int):
        phi_coeffs = cyclotomic_polynomial(m)
        d = len(phi_coeffs) - 1
        nrows = max(m, 2 * d - 1)
        rows: list[tuple[int, ...]] = []
        for j in range(min(d, nrows)):
            unit = [0] * d
            unit[j] = 1
            rows.append(tuple(unit))
        top = tuple(-c for c in phi_coeffs[:d])  # zeta^d, since Phi_m is monic
        if nrows > d:
            rows.append(top)
        for _ in range(d + 1, nrows):
            prev = rows[-1]
            lead = prev[d - 1]
            shifted = (0,) + prev[: d - 1]
            rows.append(tuple(s + lead * t for s, t in zip(shifted, top)))
        self.m = m
        self.degree = d
        self.rows = tuple(rows)
        self.row_bound = max(abs(c) for row in rows for c in row)


@functools.lru_cache(maxsize=None)
def reduction_data(m: int) -> _Reduction:
    """Reduction table for Q(zeta_m); shared by the bulk verifier paths."""
    return _Reduction(m)


def _fold(m: int, terms: Iterable[tuple[int, int]]) -> list[int]:
    """Coefficient vector of the sum of c * zeta_m**e over the (e, c) terms,
    for exponents e that have a reduction row."""
    red = reduction_data(m)
    vec = [0] * red.degree
    for e, c in terms:
        if c:
            for i, r in enumerate(red.rows[e]):
                if r:
                    vec[i] += c * r
    return vec


class Cyclotomic:
    """An element of Q(zeta_m) in canonical reduced form.

    Instances are immutable by convention; all operations return new
    values.  Mixed arithmetic with int and Fraction coerces the scalar
    into the same field.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: Iterable[int], den: int = 1):
        red = reduction_data(m)
        vec = [operator.index(c) for c in num]
        den = operator.index(den)
        if len(vec) != red.degree:
            raise ValueError(
                f"conductor {m} needs {red.degree} coefficients, got {len(vec)}"
            )
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        if den < 0:
            vec = [-c for c in vec]
            den = -den
        g = math.gcd(den, *vec)  # den itself when every coefficient is 0
        if g > 1:
            vec = [c // g for c in vec]
            den //= g
        self.m = m
        self.num = tuple(vec)
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, m: int, num: tuple[int, ...], den: int) -> "Cyclotomic":
        """The value of coefficients and a denominator already in canonical
        form, taken as they are."""
        value = cls.__new__(cls)
        value.m, value.num, value.den = m, num, den
        return value

    @classmethod
    def zero(cls, m: int) -> "Cyclotomic":
        return cls(m, [0] * reduction_data(m).degree)

    @classmethod
    def root(cls, m: int, k: int) -> "Cyclotomic":
        """Canonical representation of zeta_m ** k."""
        return cls(m, reduction_data(m).rows[k % m])

    @classmethod
    def from_rational(cls, m: int, value: Rational) -> "Cyclotomic":
        value = Fraction(value)
        vec = [0] * reduction_data(m).degree
        vec[0] = value.numerator
        return cls(m, vec, value.denominator)

    @classmethod
    def from_coefficients(cls, m: int, coeffs: Iterable[Rational]) -> "Cyclotomic":
        """Build from power-basis coefficients given as rationals."""
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        return cls(m, [f.numerator * (den // f.denominator) for f in fracs], den)

    @classmethod
    def root_sum(cls, m: int, exponents: Iterable[int], den: int = 1) -> "Cyclotomic":
        """(1/den) * sum of zeta_m**e over the exponents, with repetition."""
        return cls(m, _fold(m, Counter(e % m for e in exponents).items()), den)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.m != self.m:
                raise ValueError(f"conductor mismatch: {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.m, other)
        return NotImplemented

    def __add__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        g = math.gcd(self.den, other.den)
        den = self.den // g * other.den
        sa = den // self.den
        sb = den // other.den
        return Cyclotomic(
            self.m, [a * sa + b * sb for a, b in zip(self.num, other.num)], den
        )

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.m, [-c for c in self.num], self.den)

    def __sub__(self, other) -> "Cyclotomic":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = reduction_data(self.m).degree
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        conv[i + j] += a * b
        # the degrees from d up fold back through their reduction rows
        vec = [a + b for a, b in zip(conv, _fold(self.m, enumerate(conv[d:], d)))]
        return Cyclotomic(self.m, vec, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, value: Rational) -> "Cyclotomic":
        """Multiply by an exact rational scalar."""
        if isinstance(value, float):
            raise TypeError("exact scalar required, got float")
        value = Fraction(value)
        return Cyclotomic(
            self.m, [c * value.numerator for c in self.num], self.den * value.denominator
        )

    def mul_root(self, k: int) -> "Cyclotomic":
        """Multiply by zeta_m ** k (a coefficient permutation plus folding)."""
        terms = (((i + k) % self.m, c) for i, c in enumerate(self.num))
        return Cyclotomic(self.m, _fold(self.m, terms), self.den)

    def galois(self, r: int) -> "Cyclotomic":
        """Apply the field automorphism zeta -> zeta**r; r must be coprime to m."""
        if math.gcd(r, self.m) != 1:
            raise ValueError(f"{r} is not invertible modulo {self.m}")
        terms = ((i * r % self.m, c) for i, c in enumerate(self.num))
        return Cyclotomic(self.m, _fold(self.m, terms), self.den)

    # -- views ---------------------------------------------------------

    def coefficients(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions in lowest terms."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def to_complex(self) -> complex:
        """Numeric evaluation at zeta_m = exp(2*pi*i/m); for display only."""
        total = 0j
        for i, c in enumerate(self.num):
            if c:
                total += c * cmath.exp(2j * cmath.pi * i / self.m)
        return total / self.den

    def to_strings(self) -> list[str]:
        """Interchange form: one 'p/q' (or plain integer) string per coefficient."""
        return [str(c) for c in self.coefficients()]

    @classmethod
    def from_strings(cls, m: int, strings: Iterable[str]) -> "Cyclotomic":
        """Inverse of to_strings; each string must pass parse_coefficient."""
        return cls.from_coefficients(m, [Fraction(*parse_coefficient(s)) for s in strings])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.m, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.m == other.m and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.m, self.num, self.den))

    def __str__(self) -> str:
        terms = []
        for i, f in enumerate(self.coefficients()):
            if f == 0:
                continue
            if i == 0:
                terms.append(str(f))
            else:
                power = "z" if i == 1 else f"z^{i}"
                if f == 1:
                    terms.append(power)
                elif f == -1:
                    terms.append(f"-{power}")
                else:
                    terms.append(f"{f}*{power}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"Cyclotomic({self.m}, {self})"


def root_power(m: int, k: int) -> Cyclotomic:
    """Canonical zeta_m ** k (module-level alias of Cyclotomic.root)."""
    return Cyclotomic.root(m, k)
