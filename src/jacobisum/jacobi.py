"""Jacobi-sum tables over a finite abelian group, and their twists.

The classical table of a finite field with q elements lives on the
cyclic group of order m = q - 1: characters are indexed by exponents a
with alpha_a(g**t) = zeta_m**(a*t) for the fixed field generator g, and

    J(alpha, beta) = (1/m) * sum over x + y = 1, x, y nonzero
                     of alpha(x) beta(y).

Every entry is exact, with conductor equal to the group order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .abelian import Element, GroupSpec, delta, pairing
from .cyclotomic import Cyclotomic
from .ffield import FiniteField


class JacobiTable:
    """An m x m grid of exact values J(alpha, beta), indexed like the group."""

    __slots__ = ("group", "values")

    def __init__(self, group: GroupSpec, values: Iterable[Iterable[Cyclotomic]]):
        rows = tuple(tuple(row) for row in values)
        m = group.m
        if len(rows) != m or any(len(row) != m for row in rows):
            raise ValueError(f"table must be {m} x {m}")
        for row in rows:
            for entry in row:
                if entry.m != m:
                    raise ValueError(
                        f"entry conductor {entry.m} differs from group order {m}"
                    )
        self.group = group
        self.values = rows

    @property
    def conductor(self) -> int:
        return self.group.m

    def entry(self, i: int, j: int) -> Cyclotomic:
        return self.values[i][j]

    def value(self, alpha: Element, beta: Element) -> Cyclotomic:
        g = self.group
        return self.values[g.index(alpha)][g.index(beta)]

    def with_entry(self, i: int, j: int, value: Cyclotomic) -> "JacobiTable":
        """Copy of the table with one entry replaced (used to build violations)."""
        rows = [list(row) for row in self.values]
        rows[i][j] = value
        return JacobiTable(self.group, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JacobiTable):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.group, self.values))

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
    """Embed every entry into the complex numbers."""
    return ApproxTable(
        table.group,
        tuple(tuple(e.to_complex() for e in row) for row in table.values),
    )


def compute_jacobi(field: FiniteField) -> JacobiTable:
    """Classical Jacobi-sum table of a finite field on Z/(q-1).

    The q - 2 solutions of x + y = 1 in nonzero field elements are
    enumerated once as discrete-log pairs; each table entry is then an
    exact root-of-unity sum divided by m = q - 1.
    """
    m = field.q - 1
    group = GroupSpec((m,))
    pairs = []
    for x in field.elements[1:]:
        y = field.sub(field.one, x)
        if y != field.zero:
            pairs.append((field.dlog(x), field.dlog(y)))

    def row(a: int) -> tuple[Cyclotomic, ...]:
        return tuple(
            Cyclotomic.root_sum(m, ((a * dx + b * dy) % m for dx, dy in pairs), den=m)
            for b in range(m)
        )

    return JacobiTable(group, [row(a) for a in range(m)])


def jacobi_star(table: JacobiTable, alpha: Element, beta: Element) -> Cyclotomic:
    """The centered value J(alpha, beta) - delta(alpha) - delta(beta)."""
    return table.value(alpha, beta) - delta(alpha) - delta(beta)


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
    m = group.m
    support = list(support)
    terms = []
    for x in support:
        ix = support_map[x]
        terms.append((ix, group.sub(ix, x)))
    rows = []
    for alpha in group.elements:
        row = []
        for beta in group.elements:
            exps = (pairing(group, alpha, u) + pairing(group, beta, v) for u, v in terms)
            row.append(Cyclotomic.root_sum(m, exps, den=m))
        rows.append(row)
    return JacobiTable(group, rows)


def twist_automorphism(table: JacobiTable, r: int) -> JacobiTable:
    """Precompose both arguments with the r-th power automorphism."""
    g = table.group
    m = g.m
    if math.gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not an automorphism exponent for order {m}")
    rows = []
    for alpha in g.elements:
        ra = g.index(g.scale(r, alpha))
        rows.append([table.values[ra][g.index(g.scale(r, beta))] for beta in g.elements])
    return JacobiTable(g, rows)


def twist_galois(table: JacobiTable, r: int) -> JacobiTable:
    """Apply the value-side automorphism zeta -> zeta**r to every entry."""
    m = table.group.m
    if math.gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not invertible modulo {m}")
    rows = [[e.galois(r) for e in row] for row in table.values]
    return JacobiTable(table.group, rows)
