"""Finite abelian groups, the dual pairing, and the exact Fourier transform.

A group is a product of cyclic factors Z/n_1 x ... x Z/n_k given by its
factor list; elements are reduced coordinate tuples.  The dual group is
represented by the same spec and identified through the bilinear pairing

    <alpha, x> = sum_j alpha_j x_j (m / n_j)  mod m,

so a character evaluates as alpha(x) = zeta_m ** pairing(g, alpha, x).
Functions on the group are plain dicts from coordinate tuples to exact
Cyclotomic values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .cyclotomic import Cyclotomic

Element = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """Z/n_1 x ... x Z/n_k with elements ordered lexicographically by coordinates."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        if any(n < 1 for n in factors):
            raise ValueError(f"cyclic factors must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def m(self) -> int:
        order = 1
        for n in self.factors:
            order *= n
        return order

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(n) for n in self.factors)))

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @property
    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def validate(self, elem: Element) -> None:
        if len(elem) != len(self.factors) or any(
            not 0 <= c < n for c, n in zip(elem, self.factors)
        ):
            raise ValueError(f"malformed element {elem!r} for factors {self.factors}")

    def index(self, elem: Element) -> int:
        try:
            return self._index[tuple(elem)]
        except KeyError:
            raise ValueError(
                f"malformed element {elem!r} for factors {self.factors}"
            ) from None

    def element(self, i: int) -> Element:
        return self.elements[i]

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    def scale(self, r: int, a: Element) -> Element:
        """r-fold multiple of a (the r-th power in multiplicative notation)."""
        return tuple((r * x) % n for x, n in zip(a, self.factors))

    def generators(self) -> tuple[Element, ...]:
        """The standard generating set: one unit vector per nontrivial factor."""
        gens = []
        for j, n in enumerate(self.factors):
            if n > 1:
                e = [0] * len(self.factors)
                e[j] = 1
                gens.append(tuple(e))
        return tuple(gens)


def pairing(group: GroupSpec, alpha: Element, x: Element) -> int:
    """Exponent e in Z/m with alpha(x) = zeta_m ** e; bilinear and nondegenerate."""
    group.validate(alpha)
    group.validate(x)
    m = group.m
    return sum(a * b * (m // n) for a, b, n in zip(alpha, x, group.factors)) % m


@functools.lru_cache(maxsize=None)
def pairing_matrix(group: GroupSpec) -> np.ndarray:
    """Read-only matrix [alpha, x] = pairing(group, alpha, x) over element indices."""
    m = group.m
    els = np.array(group.elements, dtype=np.int64).reshape(m, -1)
    out = (els * np.array([m // n for n in group.factors], dtype=np.int64)) @ els.T % m
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def index_tables(group: GroupSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The group law on element indices, as read-only intp arrays
    add[x, y] = x + y, neg[x] = -x and sub[x, y] = x - y."""
    els = group.elements
    add = np.array([[group.index(group.add(a, b)) for b in els] for a in els], dtype=np.intp)
    neg = np.array([group.index(group.neg(a)) for a in els], dtype=np.intp)
    tables = add, neg, add[:, neg]
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=None)
def row_orbits(group: GroupSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbits of the units r mod m acting on the group by x -> r x, as
    read-only intp arrays reps, rows and twist.  reps holds the least
    element index of each orbit, in increasing order.  Each element x is
    r_x rep for its orbit's rep and a unit r_x; rows[x, beta] is
    p * m + (the index of r_x^-1 beta), for p the position of x's rep in
    reps, and twist[x, e] = r_x e mod m."""
    m = group.m
    units = np.array([r for r in range(1, m + 1) if math.gcd(r, m) == 1], dtype=np.intp)
    factors = np.array(group.factors, dtype=np.intp)
    els = np.array(group.elements, dtype=np.intp).reshape(m, len(factors))
    strides = np.array([math.prod(group.factors[j + 1:]) for j in range(len(factors))], dtype=np.intp)
    images = (units[:, None, None] * els % factors) @ strides  # [i, x] = index of units[i] x
    which = images.argmin(axis=0)  # the unit s_x = r_x^-1 taking x to its orbit's least element
    scaled = images[which]  # [x, beta] = index of s_x beta
    reps, position = np.unique(scaled[np.arange(m), np.arange(m)], return_inverse=True)
    inverse = np.array([pow(int(s), -1, m) for s in units], dtype=np.intp)
    tables = (
        reps,
        position.reshape(m, 1) * m + scaled,
        inverse[which].reshape(m, 1) * np.arange(m) % m,
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def delta(alpha: Element) -> int:
    """1 on the identity (trivial character), 0 elsewhere."""
    return 1 if all(c == 0 for c in alpha) else 0


def _check_domain(group: GroupSpec, f: Mapping[Element, Cyclotomic]) -> None:
    if len(f) != group.m or any(e not in f for e in group.elements):
        raise ValueError("function must be defined on every group element")


def dft(group: GroupSpec, f: Mapping[Element, Cyclotomic]) -> dict[Element, Cyclotomic]:
    """Exact Fourier transform fhat(x) = sum_alpha f(alpha) * zeta^<alpha,x>."""
    _check_domain(group, f)
    m = group.m
    out: dict[Element, Cyclotomic] = {}
    for x in group.elements:
        acc = Cyclotomic.zero(m)
        for a in group.elements:
            acc = acc + f[a].mul_root(pairing(group, a, x))
        out[x] = acc
    return out
