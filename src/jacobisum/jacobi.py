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

import numpy as np

from .abelian import Element, GroupSpec, delta, pairing_matrix
from .cyclotomic import Cyclotomic, reduction_data
from .ffield import FiniteField

MAX_EXACT_ORDER = 64  # largest group order of an exact table


def require_exact_order(m: int) -> None:
    """Reject a group order beyond MAX_EXACT_ORDER before any table work."""
    if m > MAX_EXACT_ORDER:
        raise ValueError(f"group order {m} exceeds the exact-table limit of {MAX_EXACT_ORDER}")


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


def table_from_pairs(group: GroupSpec, us, vs) -> JacobiTable:
    """The table J(alpha, beta) = (1/m) sum over k of
    zeta_m ** (<alpha, u_k> + <beta, v_k>), for element indices u_k, v_k.

    Row by row, a histogram of the exponents times the power-basis rows
    of zeta^e gives the coefficient vectors of every entry.
    """
    m = group.m
    pair = pairing_matrix(group)
    powers = np.array(reduction_data(m).rows[:m], dtype=np.int64)
    left = pair[:, np.asarray(us, dtype=np.intp)]  # [alpha, k] = <alpha, u_k>
    right = pair[:, np.asarray(vs, dtype=np.intp)]  # [beta, k] = <beta, v_k>
    offsets = np.arange(0, m * m, m)[:, None]  # one block of m bins per beta
    rows = []
    for a in range(m):
        bins = (left[a] + right) % m + offsets
        counts = np.bincount(bins.ravel(), minlength=m * m).reshape(m, m)
        rows.append([Cyclotomic(m, c, m) for c in (counts @ powers).tolist()])
    return JacobiTable(group, rows)


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
