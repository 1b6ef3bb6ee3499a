"""Axiom checks for Jacobi-type tables.

Three axioms are decided with exact verdicts and counterexample
witnesses: symmetry of the table, the cocycle identity on centered
values (in its starred form and in the delta-corrected direct form,
which agree triple by triple on any table whose inverse-pair entries
are transpose-symmetric, in particular on every symmetric table), and
the convolution-sum identity

    sum_b J(a1 + b, a2 - b) J(a3 + b, a4 - b) = J(a1 + a4, a2 + a3).

With u = a1 + b, s1 = a1 + a2, s2 = a3 + a4, d = a3 - a1 and
Q_s(u) = J(u, s - u), the identity at a quadruple reads

    sum_u Q_s1(u) Q_s2(u + d) = Q_{s1+s2}(s2 - d),

so it is decided on m^3 triples (s1, s2, d), with no symmetry
assumption, and the lexicographically first failing quadruple is
(0, s1, d, s2 - d) for the smallest failing s1, then d, then s2 - d.
For fixed (s1, s2) the left side is a correlation in d, which the
group's Fourier transform Q^_s(chi) = sum_u Q_s(u) chi(u) turns into a
product: with C_s(chi) = chi(s) Q^_s(-chi), the identity holds at every
d exactly when C_s1(chi) Q^_s2(chi) = C_{s1+s2}(chi) at every character
chi.

Exact checks run on one engine.  The table is scaled to integer
coefficient vectors over its common denominator L, and each entry is
evaluated at the phi(m) primitive m-th roots of unity modulo primes
p = 1 (mod m) below 2^25, all primes stacked on one axis.  Phi_m splits
into distinct linear factors modulo such p, so Z[zeta_m]/p is F_p^phi(m)
and every cyclotomic product is a pointwise product of residues.  Each
identity, multiplied by L^2, says that an element of Z[zeta_m] vanishes;
its power-basis coefficients are integers bounded by B, computed from
the table.  A nonzero residue at any point proves the two sides differ.
Zero residues everywhere mean that the difference, a polynomial of
degree below phi(m), has phi(m) roots modulo each prime, so every
coefficient is divisible by every prime; the primes are taken until
their product exceeds 2B, so every coefficient is zero and the sides
are equal.  At a point with root r the characters are
chi(x) = r^<chi, x> in F_p, and the transform is invertible there
because p does not divide m, so the convolution-sum check compares m^3
products per point and remains a proof.  That scan settles its witness,
then confirms it: at the first chunk of points where an s1 row fails,
the inverse transform of the first such row gives the row's first
failing pair (d, a4) there.  Later points are checked only where an
earlier failure could hide: in the rows before it, by the transforms
(none when it is row 0), and in the pairs of its row before that pair,
in the direct domain at O(m) per pair and point.  The cocycle scans run
in lexicographic order and stop at their first failure.  The scalar
*_sides functions compute the two unequal values of every witness.

Accepting an exact table is a certificate, not a scan.  A symmetric
table on a group of order at least 2 is handed, with its evaluation, to
reconstructor.certify.  Unless its common denominator fails to divide
m or a row fails to sum to 0, either of which rules out every field's
table at no cost, certify reads a candidate support and map off the
same residues at their first point, rebuilds the field they define, and
compares that field's table with the input exactly.  If the carrier
passes every field axiom and the tables are equal, the input is a
finite field's Jacobi-sum table with its characters relabelled by a
group isomorphism, which satisfies all three axioms (Berndt, Evans and
Williams, Gauss and Jacobi Sums, ch. 2), so all four checks pass with
no witness.  If any step fails, the scans run exactly as they would
without it, and only they produce witnesses.  Accepting thus costs one
table build and an O(q^3) field check; rejecting costs, over E
evaluation points, the O(m^3 E) cocycle scans up to their first witness,
and the convolution scan's O(m^3) per point until its candidate is
found, O(K m) per point for the K pairs before the candidate after it.

Complex-valued tables take the same identities, checked value by value
against an absolute tolerance, a few first indices at a time (the cocycle
forms at every triple (a, b, c), the convolution sum at every triple
(s1, s2, d) in the direct domain), and are flagged as approximate; a NaN
or infinite difference fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .abelian import Element, index_tables, pairing_matrix
from .cyclotomic import Cyclotomic, reduction_data
from .ffield import is_prime
from .jacobi import ApproxTable, JacobiTable

if TYPE_CHECKING:
    from .reconstructor import Certificate

DEFAULT_TOLERANCE = 1e-6

# residues fit int32, and a product of two stays below 2^50, so int64 sums
# of up to 2^13 such products are exact
_PRIME_LIMIT = 1 << 25
# the residues take 4 m^2 phi(m) bytes per prime; 64 primes cover
# coefficients of about 800 bits, far beyond any table built from a field
_MAX_PRIMES = 64
_SCAN_BYTES = 1 << 19  # cap on each array a scan step allocates


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one axiom check; failures carry the first witness in
    lexicographic index order together with the two unequal values."""

    check: str
    passed: bool
    witness: tuple | None = None
    lhs: object = None
    rhs: object = None


@dataclass(frozen=True)
class VerificationReport:
    symmetry: CheckResult
    cocycle_star: CheckResult
    cocycle_direct: CheckResult
    convolution: CheckResult
    approximate: bool = False
    tolerance: float | None = None
    # the proof behind a certified pass; not part of a report's verdicts
    certificate: Certificate | None = field(default=None, compare=False, repr=False)

    @property
    def convolution_mode(self) -> str:
        """Always "exhaustive", as reports have recorded it."""
        return "exhaustive"

    @property
    def method(self) -> str:
        """How the verdicts were reached: "certificate" when the table was
        accepted by rebuilding its field, "scan" when the checks ran."""
        return "scan" if self.certificate is None else "certificate"

    @property
    def passed(self) -> bool:
        return (
            self.symmetry.passed
            and self.cocycle_star.passed
            and self.cocycle_direct.passed
            and self.convolution.passed
        )

    @property
    def checks(self) -> tuple[CheckResult, ...]:
        return (self.symmetry, self.cocycle_star, self.cocycle_direct, self.convolution)


# -- per-point identities (witness values) --------------------------------


def _star(table: JacobiTable, i: int, j: int) -> Cyclotomic:
    v = table.entry(i, j)
    if i == 0:
        v = v - 1
    if j == 0:
        v = v - 1
    return v


def cocycle_star_sides(
    table: JacobiTable, alpha: Element, beta: Element, gamma: Element
) -> tuple[Cyclotomic, Cyclotomic]:
    """Both sides of J*(a,b) J*(ab,c) = J*(a,bc) J*(b,c) at one triple."""
    g = table.group
    a, b, c = g.index(alpha), g.index(beta), g.index(gamma)
    ab, bc = g.index(g.add(alpha, beta)), g.index(g.add(beta, gamma))
    lhs = _star(table, a, b) * _star(table, ab, c)
    rhs = _star(table, a, bc) * _star(table, b, c)
    return lhs, rhs


def cocycle_direct_sides(
    table: JacobiTable, alpha: Element, beta: Element, gamma: Element
) -> tuple[Cyclotomic, Cyclotomic]:
    """Both sides of the delta-corrected form of the cocycle identity:

    J(a,b) J(ab,c) - J(a,a^-1) d(ab) + d(a) d(b)
        = J(a,bc) J(b,c) - J(c,c^-1) d(bc) + d(b) d(c).
    """
    g = table.group
    a, b, c = g.index(alpha), g.index(beta), g.index(gamma)
    ab, bc = g.index(g.add(alpha, beta)), g.index(g.add(beta, gamma))
    v = table.entry
    lhs = v(a, b) * v(ab, c)
    if ab == 0:
        lhs = lhs - v(a, g.index(g.neg(alpha)))
    if a == 0 and b == 0:
        lhs = lhs + 1
    rhs = v(a, bc) * v(b, c)
    if bc == 0:
        rhs = rhs - v(c, g.index(g.neg(gamma)))
    if b == 0 and c == 0:
        rhs = rhs + 1
    return lhs, rhs


def convolution_sum_sides(
    table: JacobiTable, a1: Element, a2: Element, a3: Element, a4: Element
) -> tuple[Cyclotomic, Cyclotomic]:
    """Both sides of sum_b J(a1 b, a2 b^-1) J(a3 b, a4 b^-1) = J(a1 a4, a2 a3)."""
    g = table.group
    acc = Cyclotomic.zero(g.m)
    for b in g.elements:
        nb = g.neg(b)
        acc = acc + table.value(g.add(a1, b), g.add(a2, nb)) * table.value(
            g.add(a3, b), g.add(a4, nb)
        )
    rhs = table.value(g.add(a1, a4), g.add(a2, a3))
    return acc, rhs


def slice_convolution_sides(
    table: JacobiTable, alpha: Element, beta: Element, chi: Element
) -> tuple[Cyclotomic, Cyclotomic]:
    """Both sides of (Q_alpha * Q_beta)(chi) = Q_{alpha beta}(chi), where
    Q_a(b) = J(a b^-1, b)."""
    g = table.group
    acc = Cyclotomic.zero(g.m)
    for gam in g.elements:
        x = g.sub(chi, gam)
        acc = acc + table.value(g.sub(alpha, gam), gam) * table.value(g.sub(beta, x), x)
    rhs = table.value(g.sub(g.add(alpha, beta), chi), chi)
    return acc, rhs


# -- the exact engine: evaluation modulo primes p = 1 (mod m) -------------


@functools.lru_cache(maxsize=None)
def _prime_field(m: int, below: int) -> tuple[int, np.ndarray]:
    """The largest prime p = 1 (mod m) below `below`, with the matrix of
    powers r^e (e < m) of the primitive m-th roots of unity r mod p."""
    radicals = [r for r in range(2, m + 1) if m % r == 0 and is_prime(r)]
    p = next(p for p in range((below - 2) // m * m + 1, 1, -m) if is_prime(p))
    candidates = (pow(x, (p - 1) // m, p) for x in range(2, p))
    w = next(w for w in candidates if all(pow(w, m // r, p) != 1 for r in radicals))
    roots = [pow(w, k, p) for k in range(m) if math.gcd(k, m) == 1]
    powers = np.array([[pow(r, e, p) for r in roots] for e in range(m)], dtype=np.int64)
    powers.flags.writeable = False
    return p, powers


class _Residues:
    """The table scaled to integers over its common denominator L and
    evaluated at every primitive m-th root of unity modulo enough primes:
    values[i, j, k] is L * J(i, j) at point k, modulo moduli[k], stored as
    int32 and widened to int64 before any product.  denominator is L and
    scale[k] is L modulo moduli[k].  root_powers[e, k] is
    r^e for the root r of point k, so chi_x(y) = root_powers[pairing[x, y], k]."""

    def __init__(self, table: JacobiTable):
        g = table.group
        m = g.m
        red = reduction_data(m)
        deg = red.degree
        nums = table.num
        peaks = np.maximum(nums.max(axis=2), -nums.min(axis=2))
        # entries share few denominators: dens[where[i, j]] is that of J(i, j)
        dens, where = np.unique(table.den, return_inverse=True)
        dens, where = dens.tolist(), where.reshape(m, m)
        scale = math.lcm(*dens)
        mults = [scale // den for den in dens]
        top = max(k * int(peaks[where == i].max()) for i, k in enumerate(mults))
        # every scaled identity has both sides built from at most max(m, 2)
        # products of centered entries (coefficients <= top + 2L) plus delta
        # terms, so `bound` caps each coefficient of their difference
        s = top + 2 * scale
        bound = max(m, 2) * deg * s * s * (1 + deg * red.row_bound) + 2 * scale * (s + scale)
        fields = [_prime_field(m, _PRIME_LIMIT)]
        while math.prod(p for p, _ in fields) <= 2 * bound:
            if len(fields) == _MAX_PRIMES:
                raise ValueError(f"table entries need more than {_MAX_PRIMES} primes")
            fields.append(_prime_field(m, fields[-1][0]))
        primes = [p for p, _ in fields]
        self.m = m
        self.values = np.empty((m, m, len(fields) * deg), dtype=np.int32)
        for i, (p, powers) in enumerate(fields):
            mult = np.array([k % p for k in mults])[where, None]  # L / den mod p
            for idx in self.chunks(m, m):
                lo, hi = idx[0], idx[-1] + 1
                res = np.remainder(nums[lo:hi], p).astype(np.int64, copy=False)
                res *= mult[lo:hi]
                res %= p
                res = res @ powers[:deg]
                res %= p
                self.values[lo:hi, :, i * deg : (i + 1) * deg] = res
        self.moduli = np.repeat(primes, deg)
        self.denominator = scale
        self.scale = np.repeat([scale % p for p in primes], deg)
        self.root_powers = np.concatenate([powers for _, powers in fields], axis=1)
        self.pairing = pairing_matrix(g)
        self.add, self.neg, self.addneg = index_tables(g)

    def chunks(self, n: int, rows: int):
        """Index arrays that cover range(n) in order.  They grow from one
        index, so a scan that fails early stops early, up to _SCAN_BYTES of
        arrays that hold `rows` evaluation vectors per index."""
        cap = max(1, _SCAN_BYTES // (rows * self.values.shape[2] * 8))  # int64
        start, step = 0, 1
        while start < n:
            yield np.arange(start, min(start + step, n))
            start += step
            step = min(2 * step, cap)


def _first_true(bad) -> tuple[int, ...] | None:
    """Index of the first True in a boolean array, in row-major order, or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))


def _cocycle_witness(r: _Residues, star: bool):
    """First (a, b, c) where the starred or the delta-corrected cocycle
    identity, scaled by L^2, fails at some point.  The starred form centers
    the values it gathers, never r.values, which other scans share."""
    m, P, L, add, neg = r.m, r.moduli, r.scale, r.add, r.neg
    v = r.values
    if not star:
        # the delta terms sit at b = -a on the left and at c = -b on the right
        ar = np.arange(m)
        left = -L * v[ar, neg] % P
        right = -L * v[neg, ar] % P
        left[0] += L * L
        right[0] += L * L
    for idx in r.chunks(m * m, m):
        a, b = np.divmod(idx, m)
        ab = add[a, b]
        # L J(ab, c) L J(a, b) - L J(a, bc) L J(b, c) for every c, where the
        # starred form takes L J*(i, j) = L J(i, j) - L delta(i) - L delta(j)
        x, y = v[ab], v[a, b, None]
        if star:
            x[:, 0] -= L
            x[ab == 0] -= L
            y[a == 0] -= L
            y[b == 0] -= L
        diff = np.multiply(x, y, dtype=np.int64)
        x, y = v[a[:, None], add[b]], v[b]
        if star:
            x[np.arange(len(idx)), neg[b]] -= L
            x[a == 0] -= L
            y[:, 0] -= L
            y[b == 0] -= L
        diff -= np.multiply(x, y, dtype=np.int64)
        if not star:
            at = b == neg[a]
            diff[at] += left[a[at], None]
            diff[np.arange(len(idx)), neg[b]] -= right[b]
        diff %= P
        hit = _first_true(diff.any(axis=-1))  # the first nonzero evaluation vector
        if hit is not None:
            i, c = hit
            return (int(a[i]), int(b[i]), c)
    return None


def _first_quadruple(s1: int, bad, add) -> tuple[int, int, int, int]:
    """The lexicographically first quadruple (0, s1, d, a4) whose triple
    (s1, s2 = d + a4, d) fails, given the failing pairs bad[s2, d] of row s1."""
    m = len(bad)
    d, a4 = divmod(int(bad[add, np.arange(m)[:, None]].argmax()), m)
    return (0, s1, d, a4)


def _first_failing_pair(r: _Residues, s1: int, n: int, ks: slice) -> int:
    """The first of the pairs d * m + a4 < n of row s1 whose triple fails at
    some point of ks, or n if none does.  Each is checked in the direct
    domain: with u = b and s2 = d + a4, the identity at (0, s1, d, a4) reads
    sum_u L Q_s1(u) L J(d + u, a4 - u) = L L J(a4, s1 + d), O(m) per pair
    and point."""
    m, add, addneg = r.m, r.add, r.addneg
    u = np.arange(m)
    # each pair gathers m int32 values per point and multiplies them in int64
    width = max(1, _SCAN_BYTES // (12 * m))
    for lo in range(ks.start, ks.stop, width):
        k = slice(lo, min(lo + width, ks.stop))
        P, L = r.moduli[k], r.scale[k]
        q = r.values[u, addneg[s1], k]  # L Q_s1(u)
        step = max(1, _SCAN_BYTES // (12 * m * len(P)))
        for top in range(0, n, step):
            d, a4 = np.divmod(np.arange(top, min(top + step, n)), m)
            diff = np.multiply(r.values[add[d], addneg[a4], k], q, dtype=np.int64).sum(axis=1)
            diff -= L * r.values[a4, add[s1, d], k]
            diff %= P
            fails = diff.any(axis=1)
            if fails.any():
                # pairs after this one cannot come first any more
                n = top + int(fails.argmax())
                break
    return n


def _first_failing_row(r: _Residues, below: int, ks: slice) -> tuple[int, int] | None:
    """The first row s1 < below whose triple fails at some point of ks, with
    the first of its pairs d * m + a4 that fails there, or None.  The points
    are transformed and checked as C_s1 Q^_s2 = L C_{s1+s2} row by row; the
    inverse transform of the failing row gives all its failing pairs."""
    m, add, neg, addneg = r.m, r.add, r.neg, r.addneg
    P, L = r.moduli[ks, None, None], r.scale[ks, None, None]
    # w[k, x, y] = chi_x(y) at point k, symmetric in x and y
    w = np.moveaxis(r.root_powers[:, ks][r.pairing], -1, 0)
    qh = np.moveaxis(r.values[np.arange(m), addneg, ks], -1, 0) @ w  # L Q_s(u), transformed
    qh %= P
    c = qh[:, :, neg]
    c *= w
    c %= P
    lc = L * c
    lc %= P
    rows = max(1, _SCAN_BYTES // (2 * 8 * m * m * len(w)))
    for top in range(0, below, rows):
        s1 = np.arange(top, min(top + rows, below))
        prod = c[:, s1, None] * qh[:, None]
        prod %= P[..., None]
        fails = (prod != lc[:, add[s1]]).any(axis=(0, 2, 3))
        if fails.any():
            s = int(s1[fails.argmax()])
            diff = (c[:, s, None] * qh - lc[:, add[s]]) % P
            # e[k, s2, y] = m D(s, s2, y - s) at point k, where D is the
            # difference of the two sides at the triple (s, s2, y - s)
            e = diff @ w[:, :, neg] % P
            _, _, d, a4 = _first_quadruple(s, e.any(axis=0)[:, add[s]], add)
            return s, d * m + a4
    return None


def _convolution_witness(r: _Residues):
    """First quadruple, in lexicographic order, where the convolution-sum
    identity fails at some point.  The scan settles a candidate, then
    confirms it: the first chunk of points with a failing row `best` gives
    the row's first failing pair there as the candidate, and each later
    chunk is checked only for what could precede it, the rows before
    `best` by transforms (none once `best` is 0) and the pairs of row
    `best` before the candidate in the direct domain.  A failing row
    replaces both; a failing pair becomes the candidate."""
    m = r.m
    npoints = r.values.shape[2]
    # the four transforms of a chunk (w, qh, c, lc) share _SCAN_BYTES, and
    # so do the two int64 operands of a row block's comparison
    width = max(1, _SCAN_BYTES // (4 * 8 * m * m))  # points per chunk
    best, first = m, None  # the first failing s1 row and its first failing pair
    lo = 0
    while lo < npoints:
        # with best = 0 no transforms are left to do, and the remaining
        # points only confirm the candidate
        ks = slice(lo, min(lo + width, npoints) if best else npoints)
        lo = ks.stop
        row = _first_failing_row(r, best, ks) if best else None
        if row is not None:
            best, first = row
        elif first is not None:
            first = _first_failing_pair(r, best, first, ks)
    return None if first is None else (0, best, *divmod(first, m))


# -- exact checks --------------------------------------------------------


def check_symmetry(table: JacobiTable) -> CheckResult:
    """Exhaustive equality of J(a,b) and J(b,a) over all ordered pairs."""
    num, den = table.num, table.den
    bad = (num != num.transpose(1, 0, 2)).any(axis=2) | (den != den.T)
    if not bad.any():
        return CheckResult("symmetry", True)
    i, j = np.unravel_index(bad.argmax(), bad.shape)
    els = table.group.elements
    return CheckResult("symmetry", False, (els[i], els[j]), table.entry(i, j), table.entry(j, i))


def _result(table: JacobiTable, check: str, witness, sides) -> CheckResult:
    if witness is None:
        return CheckResult(check, True)
    point = tuple(table.group.elements[i] for i in witness)
    return CheckResult(check, False, point, *sides(table, *point))


def check_cocycle_star(table: JacobiTable, residues: _Residues | None = None) -> CheckResult:
    """Exhaustive check of J*(a,b) J*(ab,c) = J*(a,bc) J*(b,c) over all
    triples.  `residues` is the table's evaluation, if the caller has it."""
    witness = _cocycle_witness(residues or _Residues(table), star=True)
    return _result(table, "cocycle-star", witness, cocycle_star_sides)


def check_cocycle_direct(table: JacobiTable, residues: _Residues | None = None) -> CheckResult:
    """Exhaustive check of the delta-corrected form of the cocycle identity."""
    witness = _cocycle_witness(residues or _Residues(table), star=False)
    return _result(table, "cocycle-direct", witness, cocycle_direct_sides)


def check_convolution_sum(table: JacobiTable, residues: _Residues | None = None) -> CheckResult:
    """Exhaustive check of the convolution-sum identity over all m^4
    quadruples, decided on the m^3 triples (s1, s2, d)."""
    witness = _convolution_witness(residues or _Residues(table))
    return _result(table, "convolution-sum", witness, convolution_sum_sides)


# -- approximate (complex) path ------------------------------------------


def _approx_symmetry(at: ApproxTable, t, tol: float) -> CheckResult:
    idx = _first_true(~(np.abs(t - t.T) <= tol))  # a NaN difference is not within tol
    if idx is None:
        return CheckResult("symmetry", True)
    witness = tuple(at.group.elements[i] for i in idx)
    return CheckResult("symmetry", False, witness, t[idx], t.T[idx])


def _approx_cocycle(at: ApproxTable, t, tol: float, star: bool) -> CheckResult:
    """The starred or the delta-corrected cocycle identity on complex
    values, a few first indices a at a time; each chunk holds the (a, b, c)
    values that whole m^3 arrays would."""
    m = at.group.m
    add, neg, _ = index_tables(at.group)
    name = "cocycle-star" if star else "cocycle-direct"
    if star:
        t = t.copy()
        t[0, :] -= 1
        t[:, 0] -= 1
    else:
        j_inv = t[np.arange(m), neg]
        d_vec = (np.arange(m) == 0).astype(float)
        d_pair = (add == 0).astype(float)
        d_both = np.outer(d_vec, d_vec)
        left = j_inv[:, None] * d_pair  # J(a, a^-1) delta(ab)
        right = j_inv[None, None, :] * d_pair[None, :, :]  # J(c, c^-1) delta(bc)
    rows = max(1, _SCAN_BYTES // (16 * m * m))
    for top in range(0, m, rows):
        a = slice(top, top + rows)
        lhs = t[a, :, None] * t[add[a], :]
        rhs = t[a][:, add] * t[None, :, :]
        if not star:
            lhs = lhs - left[a, :, None] + d_both[a, :, None]
            rhs = rhs - right + d_both[None, :, :]
        idx = _first_true(~(np.abs(lhs - rhs) <= tol))
        if idx is not None:
            witness = tuple(at.group.elements[i] for i in (top + idx[0], *idx[1:]))
            return CheckResult(name, False, witness, lhs[idx], rhs[idx])
    return CheckResult(name, True)


def _approx_convolution(at: ApproxTable, t, tol: float) -> CheckResult:
    """The triple form of the convolution-sum identity on complex values,
    with each (s1, s2, d) value computed in the direct domain, a few s1
    rows at a time."""
    m = at.group.m
    add, _, addneg = index_tables(at.group)
    q = t[np.arange(m), addneg]  # q[s, u] = Q_s(u) = J(u, s - u)
    rows = max(1, _SCAN_BYTES // (16 * m * m))
    for top in range(0, m, rows):
        s1 = np.arange(top, min(top + rows, m))
        lhs = np.empty((len(s1), m, m), dtype=complex)
        for d in range(m):
            lhs[:, :, d] = q[s1] @ q[:, add[d]].T  # sum_u Q_s1(u) Q_s2(u + d)
        rhs = q[add[s1][:, :, None], addneg]  # Q_{s1+s2}(s2 - d)
        bad = ~(np.abs(lhs - rhs) <= tol)
        failing = bad.any(axis=(1, 2))
        if failing.any():
            i = int(failing.argmax())
            quad = _first_quadruple(int(s1[i]), bad[i], add)
            d = quad[2]
            s2 = add[d, quad[3]]
            els = at.group.elements
            witness = tuple(els[x] for x in quad)
            return CheckResult("convolution-sum", False, witness, lhs[i, s2, d], rhs[i, s2, d])
    return CheckResult("convolution-sum", True)


# -- aggregation ----------------------------------------------------------


def verify_all(
    table: JacobiTable | ApproxTable, *, tolerance: float = DEFAULT_TOLERANCE
) -> VerificationReport:
    """Run all axiom checks and aggregate the verdicts.  An exact table is
    evaluated once, and every exact step reads that evaluation.  A
    symmetric exact table on a nontrivial group is first offered to the
    certificate: if the field it rebuilds reproduces it exactly, all four
    checks pass with no scan; otherwise the scans decide, as they would
    have without it."""
    if isinstance(table, ApproxTable):
        t = np.array(table.entries, dtype=complex)
        return VerificationReport(
            symmetry=_approx_symmetry(table, t, tolerance),
            cocycle_star=_approx_cocycle(table, t, tolerance, star=True),
            cocycle_direct=_approx_cocycle(table, t, tolerance, star=False),
            convolution=_approx_convolution(table, t, tolerance),
            approximate=True,
            tolerance=tolerance,
        )

    residues = _Residues(table)
    sym = check_symmetry(table)
    if sym.passed and table.group.m >= 2:
        from .reconstructor import Certificate, certify  # reconstructor imports this module

        certificate = certify(table, residues)
        if isinstance(certificate, Certificate):
            return VerificationReport(
                symmetry=sym,
                cocycle_star=CheckResult("cocycle-star", True),
                cocycle_direct=CheckResult("cocycle-direct", True),
                convolution=CheckResult("convolution-sum", True),
                certificate=certificate,
            )
    coc_star = check_cocycle_star(table, residues)
    coc_direct = check_cocycle_direct(table, residues)
    # the two forms are provably triple-by-triple equivalent whenever the
    # inverse-pair entries are transpose-symmetric, so under symmetry any
    # disagreement is an internal bug; without symmetry they may differ
    # at triples whose middle arguments multiply to the identity
    if sym.passed and coc_star.passed != coc_direct.passed:
        raise RuntimeError("cocycle checkers disagree on a symmetric table; this is a bug")
    return VerificationReport(
        symmetry=sym,
        cocycle_star=coc_star,
        cocycle_direct=coc_direct,
        convolution=check_convolution_sum(table, residues),
    )
