"""Jacobi-sum tables over a finite abelian group, and their twists.

The classical table of a finite field with q elements lives on the
cyclic group of order m = q - 1: characters are indexed by exponents a
with alpha_a(g**t) = zeta_m**(a*t) for the fixed field generator g, and

    J(alpha, beta) = (1/m) * sum over x + y = 1, x, y nonzero
                     of alpha(x) beta(y).

Every entry is exact, with conductor equal to the group order.  A table
holds its entries as two integer arrays in Cyclotomic's canonical form,
and every layer reads those arrays rather than Cyclotomic objects.  A
complex table (ApproxTable) holds its entries as one complex128 array,
which every layer reads in the same way.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import defaultdict
from itertools import count
from typing import Iterable, Mapping

import numpy as np

from .abelian import Element, GroupSpec, index_tables, pairing_matrix, row_orbits
from .cyclotomic import Cyclotomic, reduction_data
from .ffield import FiniteField

MAX_EXACT_ORDER = 64  # largest group order of an exact table
_BLOCK_BYTES = 1 << 19  # cap on the arrays of each block table_from_pairs and _orbit_counts build


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
    return b.astype(object) if b.min() == -(2**63) else b


def _first_positions(keys) -> tuple[list[int], list[int]]:
    """Each key's number, in order of first appearance, and the position
    where each number first appears."""
    ids = list(map(defaultdict(count().__next__).__getitem__, keys))
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return ids, sorted(first.values())


def _renumbered(ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """A numbering by ids, numbers below count, renumbered in order of first
    appearance as _first_positions gives it; numbers that no cell holds are
    dropped."""
    first = np.full(count, ids.size)  # where each number first appears
    np.minimum.at(first, ids, np.arange(ids.size))
    order = np.argsort(first)
    rank = np.empty(count, dtype=np.intp)
    rank[order] = np.arange(count)
    firsts = first[order]
    return rank[ids], firsts[firsts < ids.size]


def _row_bytes(a: np.ndarray) -> list[bytes]:
    """Each row of a 2-d integer array as bytes, a key that tells rows apart."""
    return np.ascontiguousarray(a).view((np.void, a.itemsize * a.shape[1])).ravel().tolist()


@functools.lru_cache(maxsize=None)
def _power_rows(m: int) -> np.ndarray:
    """The power-basis rows of zeta^e for e < m, as a read-only float64 array."""
    rows = np.array(reduction_data(m).rows[:m], dtype=np.float64)
    rows.flags.writeable = False
    return rows


class JacobiTable:
    """An m x m table of exact values J(alpha, beta), indexed like the group.

    num[i, j] is the coefficient vector and den[i, j] the denominator of
    entry (i, j), in Cyclotomic's canonical form, so equal tables hold
    equal arrays.  Both are int64 unless some value does not fit (-2^63
    counts as not fitting), and then arrays of Python ints.

    cells numbers the cells so that equal numbers hold equal entries; unequal
    numbers may still hold equal entries, as where a document writes one
    value two ways.  The decoder hands in its numbering of the document's
    cells; twist_galois keeps its source's, and twist_automorphism and
    with_entry derive one from their source's when that has one; every
    other table numbers its cells on first read.
    """

    __slots__ = ("group", "num", "den", "_values", "_cells")

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
        table = JacobiTable._from_arrays(group, num, den)
        self.group, self.num, self.den = group, table.num, table.den
        self._values = self._cells = None

    @classmethod
    def _from_arrays(cls, group: GroupSpec, num, den, cells=None) -> "JacobiTable":
        """The table of num[i, j] / den[i, j], integer coefficient vectors over
        positive denominators, one per cell or one shared: the only routine
        that puts a table in canonical form.  Each cell's content, the gcd
        of its coefficients and denominator, is divided out, and the dtypes
        are settled before (for an int64 gcd) and after (reduced values may
        fit int64 where the unreduced ones did not).  cells, if given, is
        a numbering of the cells as _first_positions gives it, in which
        equal numbers hold equal num / den; the contents are then taken,
        and divided out, over the first cell of each number, and the
        results gathered by number."""
        num = _canonical(num)
        if isinstance(den, int):  # numpy would read 2^63 <= den < 2^64 as uint64
            den = np.array(den, dtype=object)
        den = _canonical(den)
        m = group.m
        if cells is not None:
            cells = tuple(np.array(c, dtype=np.intp) for c in cells)
        ids, firsts = (slice(None), slice(None)) if cells is None else cells
        rows = num.reshape(m * m, -1)[firsts]
        # column by column, stopping once every cell's gcd is 1 (soon on canonical input)
        content = np.gcd(den.reshape(-1)[firsts] if den.ndim else den, rows[:, 0])
        for k in range(1, rows.shape[1]):
            if content.max() == 1:
                break
            content = np.gcd(content, rows[:, k])
        if content.max() > 1:
            num = _canonical((rows // content[:, None])[ids].reshape(num.shape))
        den = _canonical(den // content[ids].reshape(m, m))
        table = cls.__new__(cls)
        table.group, table.num, table.den = group, num, den
        table._values = None
        table._cells = cells
        return table

    @property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, firsts): ids[c] numbers the cell at flat index c, and
        firsts[k] is the flat index where number k first appears.  Numbered
        on first read by the bytes of each cell's [den | num] row, in the
        narrowest signed dtype that holds every row, or by its tuple over
        Python ints."""
        if self._cells is None:
            m = self.group.m
            rows = np.column_stack((self.den.ravel(), self.num.reshape(m * m, -1)))
            if rows.dtype == object:
                keys = map(tuple, rows.tolist())
            else:
                # den >= 1, so the least value and -(the largest) - 1 are negative
                least = min(int(rows.min()), -int(rows.max()) - 1)
                keys = _row_bytes(rows.astype(np.min_scalar_type(least)))
            self._cells = tuple(np.array(c, dtype=np.intp) for c in _first_positions(keys))
        return self._cells

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
        """Copy of the table with one entry replaced (used to build violations),
        in copies of its arrays, over Python ints when the value needs them.
        A numbering of the table's cells, if it has one, numbers the copy's
        once the replaced cell takes a fresh number."""
        m = self.group.m
        if value.m != m:
            raise ValueError(f"entry conductor {value.m} differs from group order {m}")
        wide = max(value.den, *map(abs, value.num)) >> 63
        num, den = (a.astype(object) if wide else a.copy() for a in (self.num, self.den))
        num[i, j], den[i, j] = value.num, value.den
        cells = None
        if self._cells is not None:
            ids, count = self._cells[0].copy(), len(self._cells[1])
            ids.reshape(m, m)[i, j] = count
            cells = _renumbered(ids, count + 1)
        return JacobiTable._from_arrays(self.group, num, den, cells)

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


class ApproxTable:
    """A complex-valued table, for externally produced numeric data:
    values[i, j] is J(i, j), in a read-only m x m complex128 array of
    finite numbers.  entries is the same table as a tuple of rows of
    Python complex numbers, built on first use."""

    __slots__ = ("group", "values", "_entries")

    def __init__(self, group: GroupSpec, entries):
        values = np.array(entries, dtype=np.complex128)
        m = group.m
        if values.shape != (m, m):
            raise ValueError(f"table must be {m} x {m}")
        if not np.isfinite(values).all():
            raise ValueError("approximate table entries must be finite")
        values.flags.writeable = False
        self.group, self.values, self._entries = group, values, None

    @property
    def entries(self) -> tuple[tuple[complex, ...], ...]:
        if self._entries is None:
            self._entries = tuple(map(tuple, self.values.tolist()))
        return self._entries

    def entry(self, i: int, j: int) -> complex:
        return self.values.item(i, j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ApproxTable):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"ApproxTable(group={self.group.factors}, m={self.group.m})"


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
    return ApproxTable(table.group, z)


def _orbit_counts(group: GroupSpec, us, vs) -> np.ndarray:
    """counts[p * m + beta, e], in float64, counts the k with <reps[p], u_k>
    + <beta, v_k> = e mod m, for row_orbits' representatives reps: as x ->
    r x is an automorphism for each unit r, counts[r alpha, beta, e] =
    counts[alpha, r^-1 beta, r^-1 e].  One bincount counts each block of
    representatives, its bins within _BLOCK_BYTES: one for every field to q = 64."""
    m = group.m
    reps = row_orbits(group)[0]
    pair = pairing_matrix(group)
    left = pair[reps][:, None, np.asarray(us, dtype=np.intp)]  # [rep, 1, k] = <rep, u_k>
    right = pair[:, np.asarray(vs, dtype=np.intp)]  # [beta, k] = <beta, v_k>
    width = min(len(reps), max(1, _BLOCK_BYTES // (8 * m * max(1, right.shape[1]))))
    offsets = np.arange(0, width * m * m, m).reshape(width, m, 1)  # m bins per (rep, beta)
    counts = np.empty((len(reps), m * m))
    for lo in range(0, len(reps), width):
        bins = left[lo:lo + width] + right  # below 2 m
        bins += offsets[: len(bins)] - (bins >= m) * m
        hist = np.bincount(bins.ravel(), minlength=len(bins) * m * m)
        counts[lo:lo + width] = hist.reshape(-1, m * m)
    return counts.reshape(-1, m)


def table_from_pairs(group: GroupSpec, us, vs) -> JacobiTable:
    """The table J(alpha, beta) = (1/m) sum over k of
    zeta_m ** (<alpha, u_k> + <beta, v_k>), for element indices u_k, v_k.

    Row r alpha is alpha's counts (_orbit_counts) at rows r^-1 beta times
    the power-basis rows of zeta^(r e), a block of rows at a time within
    _BLOCK_BYTES, in float64: each coefficient sums nonnegative counts, K =
    len(us) in all, times row entries of size at most row_bound, in any
    order, so every partial sum is an exact integer below K * row_bound <
    2^53."""
    m = group.m
    red = reduction_data(m)
    if len(us) * red.row_bound >= 1 << 53:
        raise ValueError(f"{len(us)} pairs exceed the exact float64 table product")
    _, rows, twist = row_orbits(group)
    counts = _orbit_counts(group, us, vs)
    powers = _power_rows(m)
    num = np.empty((m, m, red.degree), dtype=np.int64)
    # per row: the gathered counts, the twisted power rows and their product
    width = max(1, _BLOCK_BYTES // (8 * m * (m + 2 * red.degree)))
    for lo in range(0, m, width):
        block = slice(lo, lo + width)
        num[block] = counts[rows[block]] @ powers[twist[block]]
    return JacobiTable._from_arrays(group, num, m)


def embedding_from_pairs(group: GroupSpec, us, vs) -> np.ndarray:
    """The complex embedding of table_from_pairs(group, us, vs), from the
    same counts: row p * m + beta times the float roots zeta^(w e) is
    m J(w reps[p], w beta) for each unit w, so entry (x, beta) is that
    product over m, one float64 product with the roots' parts and one
    division, at row rows[x, beta] and x's unit twist[x, 1]; its rounding
    is bounded in reconstructor._scan_bound."""
    m = group.m
    _, rows, twist = row_orbits(group)
    unit = np.gcd(np.arange(m), m) == 1  # 0 alone when m = 1
    base = np.exp(2j * np.pi * np.arange(m) / m)
    roots = base[np.outer(np.arange(m), np.flatnonzero(unit)) % m]  # [e, w] = zeta^(w e)
    sums = (_orbit_counts(group, us, vs) @ roots.view(np.float64) / m).view(np.complex128)
    return sums[rows, np.cumsum(unit)[twist[:, 1 % m, None]] - 1]


def _zech_pairs(group: GroupSpec, zech) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of nonzero x (+) y = 1, as element indices, for the Zech vector
    zech in AdditionTable's symbols: for f = t (+) 1 nonzero, y = f^-1, x = t y."""
    add, neg, _ = index_tables(group)
    zech = np.asarray(zech, dtype=np.intp)
    ts = np.flatnonzero(zech != 0)
    ys = neg[zech[ts] - 1]
    return add[ts, ys], ys


def table_from_zech(group: GroupSpec, zech) -> JacobiTable:
    """J(alpha, beta) = (1/m) sum over nonzero x (+) y = 1 of alpha(x) beta(y)."""
    return table_from_pairs(group, *_zech_pairs(group, zech))


def compute_jacobi(field: FiniteField) -> JacobiTable:
    """Classical Jacobi-sum table of a finite field on Z/(q-1), from its Zech vector."""
    m = field.q - 1
    require_exact_order(m)
    return table_from_zech(GroupSpec((m,)), field.zech)


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
    return table_from_pairs(group, *_support_pairs(group, support, support_map))


def _support_pairs(group: GroupSpec, support, support_map) -> tuple[list[int], list[int]]:
    """The pairs (i(x), i(x) - x) over the support, as element indices."""
    support = list(support)
    images = [support_map[x] for x in support]
    us = [group.index(ix) for ix in images]
    vs = [group.index(group.sub(ix, x)) for x, ix in zip(support, images)]
    return us, vs


def twist_automorphism(table: JacobiTable, r: int) -> JacobiTable:
    """Precompose both arguments with the r-th power automorphism.  The
    cells are permuted, so a numbering of the table's cells, if it has
    one, numbers the twist's once renumbered in order of first appearance."""
    g = table.group
    m = g.m
    if math.gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not an automorphism exponent for order {m}")
    perm = np.array([g.index(g.scale(r, x)) for x in g.elements], dtype=np.intp)
    grid = np.ix_(perm, perm)
    cells = None
    if table._cells is not None:
        ids = table._cells[0].reshape(m, m)[grid].ravel()
        cells = _renumbered(ids, len(table._cells[1]))
    return JacobiTable._from_arrays(g, table.num[grid], table.den[grid], cells)


def twist_galois(table: JacobiTable, r: int) -> JacobiTable:
    """Apply the value-side automorphism zeta -> zeta**r to every entry:
    one product with the matrix whose row i is the image of zeta^i, taken
    over the distinct cells of the table's numbering (JacobiTable.cells)
    and gathered by number.  The automorphism keeps each entry's content
    and denominator, and it is injective, so that numbering numbers the
    twist's."""
    m = table.group.m
    if math.gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not invertible modulo {m}")
    red = reduction_data(m)
    image = np.array([red.rows[i * r % m] for i in range(red.degree)], dtype=np.int64)
    ids, firsts = table.cells
    rows = table.num.reshape(m * m, -1)[firsts]
    # each coefficient of the product is at most the largest |num| times a
    # column sum of |image|; past int64 it is taken over Python ints
    peak = int(max(rows.max(), -rows.min()))
    if rows.dtype == object or peak * int(np.abs(image).sum(axis=0).max()) >> 63:
        rows, image = rows.astype(object), image.astype(object)
    num = (rows @ image)[ids].reshape(table.num.shape)
    return JacobiTable._from_arrays(table.group, num, table.den, table.cells)
