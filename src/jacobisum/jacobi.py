"""Jacobi-sum tables over a finite abelian group, and their twists.

The classical table of a finite field with q elements lives on the
cyclic group of order m = q - 1: characters are indexed by exponents a
with alpha_a(g**t) = zeta_m**(a*t) for the fixed field generator g, and

    J(alpha, beta) = (1/m) * sum over x + y = 1, x, y nonzero
                     of alpha(x) beta(y).

Every entry is exact, with conductor equal to the group order.  A table
holds its entries as two integer arrays in Cyclotomic's canonical form,
and every layer reads those arrays rather than Cyclotomic objects.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .abelian import Element, GroupSpec, pairing_matrix
from .cyclotomic import Cyclotomic, reduction_data
from .ffield import FiniteField

MAX_EXACT_ORDER = 64  # largest group order of an exact table


def require_exact_order(m: int) -> None:
    """Reject a group order beyond MAX_EXACT_ORDER before any table work."""
    if m > MAX_EXACT_ORDER:
        raise ValueError(f"group order {m} exceeds the exact-table limit of {MAX_EXACT_ORDER}")


def _canonical(a: np.ndarray) -> np.ndarray:
    """An integer array as int64 when every value lies strictly within
    +-2^63, else as an array of Python ints."""
    try:
        b = a.astype(np.int64, copy=False)
    except OverflowError:
        return a
    return b.astype(object) if b.min() == np.iinfo(np.int64).min else b


class JacobiTable:
    """An m x m table of exact values J(alpha, beta), indexed like the group.

    num[i, j] is the coefficient vector and den[i, j] the denominator of
    entry (i, j), in Cyclotomic's canonical form, so equal tables hold
    equal arrays.  Both are int64 unless some value does not fit (-2^63
    counts as not fitting), and then arrays of Python ints.
    """

    __slots__ = ("group", "num", "den", "_values")

    def __init__(self, group: GroupSpec, values: Iterable[Iterable[Cyclotomic]]):
        rows = tuple(tuple(row) for row in values)
        m = group.m
        if len(rows) != m or any(len(row) != m for row in rows):
            raise ValueError(f"table must be {m} x {m}")
        for row in rows:
            for entry in row:
                if entry.m != m:
                    raise ValueError(f"entry conductor {entry.m} differs from group order {m}")
        num = np.array([[e.num for e in row] for row in rows], dtype=object)
        den = np.array([[e.den for e in row] for row in rows], dtype=object)
        self.group, self.num, self.den = group, _canonical(num), _canonical(den)
        self._values = None

    @classmethod
    def _from_arrays(cls, group: GroupSpec, num: np.ndarray, den: np.ndarray) -> "JacobiTable":
        """The table over integer arrays whose entries are already in
        canonical form; only their dtype is settled here."""
        table = cls.__new__(cls)
        table.group, table.num, table.den = group, _canonical(num), _canonical(den)
        table._values = None
        return table

    @property
    def values(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        """Every entry as a Cyclotomic, built on first use."""
        if self._values is None:
            m = self.group.m
            self._values = tuple(tuple(self.entry(i, j) for j in range(m)) for i in range(m))
        return self._values

    def entry(self, i: int, j: int) -> Cyclotomic:
        num = tuple(self.num[i, j].tolist())
        return Cyclotomic._canonical(self.group.m, num, self.den.item(i, j))

    def value(self, alpha: Element, beta: Element) -> Cyclotomic:
        g = self.group
        return self.entry(g.index(alpha), g.index(beta))

    def with_entry(self, i: int, j: int, value: Cyclotomic) -> "JacobiTable":
        """Copy of the table with one entry replaced (used to build violations)."""
        rows = [list(row) for row in self.values]
        rows[i][j] = value
        return JacobiTable(self.group, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JacobiTable):
            return NotImplemented
        return (
            self.group == other.group
            and np.array_equal(self.num, other.num)
            and np.array_equal(self.den, other.den)
        )

    def __hash__(self) -> int:
        num, den = self.num.ravel().tolist(), self.den.ravel().tolist()  # Python ints
        return hash((self.group, tuple(num), tuple(den)))

    def __repr__(self) -> str:
        return f"JacobiTable(group={self.group.factors}, m={self.group.m})"


@dataclass(frozen=True)
class ApproxTable:
    """A complex-valued table, for externally produced numeric data."""

    group: GroupSpec
    entries: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        if not all(cmath.isfinite(z) for row in self.entries for z in row):
            raise ValueError("approximate table entries must be finite")

    def entry(self, i: int, j: int) -> complex:
        return self.entries[i][j]


def approximate(table: JacobiTable) -> ApproxTable:
    """Embed every entry into the complex numbers, with the floats that
    Cyclotomic.to_complex gives: the real and imaginary parts summed in
    the order of the power basis, then each divided by the denominator."""
    m = table.group.m
    re, im = np.zeros(table.den.shape), np.zeros(table.den.shape)
    for i in range(table.num.shape[2]):
        root = cmath.exp(2j * cmath.pi * i / m)
        c = table.num[:, :, i].astype(float)
        re += c * root.real
        im += c * root.imag
    z = np.empty(table.den.shape, dtype=complex)
    z.real, z.imag = re / table.den.astype(float), im / table.den.astype(float)
    return ApproxTable(table.group, tuple(map(tuple, z.tolist())))


def table_from_pairs(group: GroupSpec, us, vs) -> JacobiTable:
    """The table J(alpha, beta) = (1/m) sum over k of
    zeta_m ** (<alpha, u_k> + <beta, v_k>), for element indices u_k, v_k.

    Row by row, a histogram of the exponents times the power-basis rows
    of zeta^e gives the coefficient vectors of every entry over m; then
    each entry's content is divided out.  The product is taken in
    float64: each coefficient sums nonnegative counts, K = len(us) in
    all, times row entries of size at most row_bound, so every partial
    sum is an integer below K * row_bound, exact while that is below 2^53.
    """
    m = group.m
    red = reduction_data(m)
    if len(us) * red.row_bound >= 1 << 53:
        raise ValueError(f"{len(us)} pairs exceed the exact float64 table product")
    pair = pairing_matrix(group)
    powers = np.array(red.rows[:m], dtype=np.float64)
    left = pair[:, np.asarray(us, dtype=np.intp)]  # [alpha, k] = <alpha, u_k>
    right = pair[:, np.asarray(vs, dtype=np.intp)]  # [beta, k] = <beta, v_k>
    offsets = np.arange(0, m * m, m)[:, None]  # one block of m bins per beta
    num = np.empty((m, m, red.degree), dtype=np.int64)
    for a in range(m):
        bins = (left[a] + right) % m + offsets
        counts = np.bincount(bins.ravel(), minlength=m * m).reshape(m, m)
        num[a] = counts.astype(np.float64) @ powers
    content = np.gcd(np.gcd.reduce(num, axis=2), m)
    if (content > 1).any():  # never for a field table with q <= 64
        num //= content[:, :, None]
    return JacobiTable._from_arrays(group, num, m // content)


def compute_jacobi(field: FiniteField) -> JacobiTable:
    """Classical Jacobi-sum table of a finite field on Z/(q-1).

    The q - 2 solutions of x + y = 1 in nonzero field elements are the x
    other than 0 and 1 (the first two elements); each table entry is an
    exact root-of-unity sum over their discrete-log pairs divided by m = q - 1.
    """
    m = field.q - 1
    require_exact_order(m)
    xs = field.elements[2:]
    us = [field.dlog(x) for x in xs]
    vs = [field.dlog(field.sub(field.one, x)) for x in xs]
    return table_from_pairs(GroupSpec((m,)), us, vs)


def slice_function(table: JacobiTable, alpha: Element) -> dict[Element, Cyclotomic]:
    """The slice beta -> J(alpha * beta^-1, beta) whose transforms drive reconstruction."""
    g = table.group
    return {beta: table.value(g.sub(alpha, beta), beta) for beta in g.elements}


def table_from_support(
    group: GroupSpec,
    support: Iterable[Element],
    support_map: Mapping[Element, Element],
) -> JacobiTable:
    """Build the table J(alpha, beta) = (1/m) sum over x in the support of
    alpha(i(x)) * beta(i(x) - x), where i is the support map."""
    support = list(support)
    images = [support_map[x] for x in support]
    us = [group.index(ix) for ix in images]
    vs = [group.index(group.sub(ix, x)) for x, ix in zip(support, images)]
    return table_from_pairs(group, us, vs)


def twist_automorphism(table: JacobiTable, r: int) -> JacobiTable:
    """Precompose both arguments with the r-th power automorphism."""
    g = table.group
    m = g.m
    if math.gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not an automorphism exponent for order {m}")
    perm = np.array([g.index(g.scale(r, x)) for x in g.elements], dtype=np.intp)
    grid = np.ix_(perm, perm)
    return JacobiTable._from_arrays(g, table.num[grid], table.den[grid])


def twist_galois(table: JacobiTable, r: int) -> JacobiTable:
    """Apply the value-side automorphism zeta -> zeta**r to every entry:
    one product with the matrix whose row i is the image of zeta^i.  The
    automorphism keeps each entry's content and denominator."""
    m = table.group.m
    if math.gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not invertible modulo {m}")
    red = reduction_data(m)
    image = np.array([red.rows[i * r % m] for i in range(red.degree)], dtype=np.int64)
    num = table.num
    # each coefficient of the product is at most the largest |num| times a
    # column sum of |image|; past int64 it is taken over Python ints
    peak = int(max(num.max(), -num.min()))
    if num.dtype == object or peak * int(np.abs(image).sum(axis=0).max()) >> 63:
        num, image = num.astype(object), image.astype(object)
    return JacobiTable._from_arrays(table.group, num @ image, table.den)
