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
product.  With T_s(chi) = sum_beta J(s - beta, beta) chi(beta), the
transform of the slice at s that reconstruction reads, Q^_s(chi) is
chi(s) T_s(-chi), and the identity holds at every d exactly when
T_s1(chi) chi(s2) T_s2(-chi) = T_{s1+s2}(chi) at every character chi.

Every check reads one evaluation of the table.  An exact table is
scaled to integer coefficient vectors over its common denominator L, and
each entry is evaluated at the phi(m) primitive m-th roots of unity
modulo primes p = 1 (mod m) below 2^25, the primes' points interleaved
on one axis.  Phi_m splits into distinct linear factors modulo such p,
so Z[zeta_m]/p is F_p^phi(m) and every cyclotomic product is a pointwise
product of residues.  Each identity, multiplied by L^2, says that an
element of Z[zeta_m] vanishes; its power-basis coefficients are integers
bounded by B, computed from the table.  A nonzero residue at any point
proves the two sides differ.  Zero residues everywhere mean that the
difference, a polynomial of degree below phi(m), has phi(m) roots modulo
each prime, so every coefficient is divisible by every prime; the primes
are taken until their product exceeds 2B, so every coefficient is zero
and the sides are equal.  At a point with root r the characters are
chi(x) = r^<chi, x> in F_p, and the transform is invertible there
because p does not divide m.  A complex-valued table is evaluated at one
point, its entries, with L = 1 and r = exp(2 pi i / m), and flagged as
approximate.  The two evaluations differ in three operations: reducing
(modulo each point's prime, or not at all), deciding that a difference
differs (a nonzero residue, or a value not within an absolute tolerance,
NaN included) and reading an exponent e from L r^e.

The convolution-sum scan flags the rows s1 where T_s1 Q^_s2 differs from
L T_{s1+s2} at some character, and inverse-transforms the flagged rows in
order to decide them in the direct domain.  A flagged exact row always
fails there, since the transform is invertible.  An unflagged complex row
passes, because each direct-domain difference D is an average of the
transform-domain differences F, |D| <= max |F|; a flagged one may still
pass.  The scan settles its witness at the first chunk of points where a
row fails, then confirms it at later points only where an earlier
failure could hide: in the rows before it by the transforms (none when
it is row 0), and in the pairs of its row before that pair in the direct
domain, where the identity at (0, s1, d, a4) reads
sum_u L Q_s1(u) L J(d + u, a4 - u) = L L J(a4, s1 + d), O(m) per pair
and point.  The scan and the reconstruction stages take T from one
routine, _Evaluation.transforms.  Its matrix products, and the scan's
inverse transforms, are float64 BLAS products: the left operand's
residues, below 2^25, are split at bit 20, and each m-term sum of a limb
times a residue stays below m 2^45 <= 2^53 for m <= 256, so both limb
products are exact, and their fold in int64 (below 2^59) is the int64
product, reduced modulo p by the caller (_Residues.product).

Both cocycle forms are decided by one pass in lexicographic order.
Expanding L J*(i, j) = L J(i, j) - L delta(i) - L delta(j), the delta(a),
delta(b) and delta(c) terms cancel and the delta(ab) terms are those of
the direct form, so the two scaled differences agree at every triple
except in column c = -b, where the starred one is the direct one plus
L (L J(b, -b) - L J(-b, b)), the delta(bc) term: zero on any table whose
inverse-pair entries are transpose-symmetric.  The pass builds and
reduces the direct difference once per chunk of pairs (a, b), reads the
starred one off it in that column, and stops once both forms have
failed.  Symmetry is decided on whole arrays, the first
differing pair in row-major order being the witness: a complex table's
on its one-point evaluation, an exact table's on its canonical arrays,
which differ at exactly the pairs where its residues do.  The scalar
*_sides functions compute the two unequal values of every witness,
exactly or, for a complex table, on its entries as one-point arrays, as
its scans do.

Accepting an exact table is a certificate, not a scan.  A symmetric
table is handed, with its evaluation, to reconstructor.certify.  Unless
its common denominator fails to divide m or a row fails to sum to 0,
either of which rules out every field's table at no cost, certify runs
the reconstruction stages on the support and map read off the same
residues at their first point, and compares the table of the field they
rebuild with the input exactly.  If the tables are equal and the carrier
passes every field axiom, the input is a finite field's Jacobi-sum table
with its characters relabelled by a group isomorphism, which satisfies
all three axioms (Berndt, Evans and Williams, Gauss and Jacobi Sums,
ch. 2), so all four checks pass with no witness, and the stages' report
is kept as the certificate.  If any step fails, the scans run exactly as
they would without it, and only they produce witnesses.  Accepting thus
costs the evaluation at one point, a table build and an O(q^2) field
check; rejecting costs the evaluation at all E points, the O(m^3 E)
cocycle pass up to the later of its two witnesses, and the convolution
scan's O(m^3) per point until its candidate is found, O(K m) per point
for the K pairs before the candidate after it.  At q = 64 (E = 72) a
table with (1, 2) and (2, 1) moved by 3/7 is rejected in about 12 ms on
a 2-core Xeon, 4 ms of it the cocycle pass; the three scans run to the
end take about 0.4 s.

A symmetric complex table is offered to certify too.  The stages run at
its one point and rebuild a field whose table J_F satisfies every
identity exactly; when the input lies within the tolerance of J_F's
embedding, a bound on every difference the three scans would compute
follows from that distance and max |J_F|, plus the rounding of the
scans' own float64 arithmetic (reconstructor._scan_bound).  If the bound
is within the tolerance, all four checks pass with no scan; otherwise
the scans decide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .abelian import Element, index_tables, pairing_matrix
from .cyclotomic import Cyclotomic, reduction_data
from .ffield import is_prime, prime_factors
from .jacobi import ApproxTable, JacobiTable

if TYPE_CHECKING:
    from .reconstructor import ReconstructionReport

DEFAULT_TOLERANCE = 1e-6
_Table = JacobiTable | ApproxTable

# residues fit int32, and a product of two stays below 2^50, so int64 sums
# of up to 2^13 such products are exact.  The evaluation multiplies digits
# of size at most 2^_DIGIT_BITS by root powers below 2^25 in float64, and
# the transforms multiply the low limbs of residues (their bits below
# _DIGIT_BITS) by residues: each sum of phi(m), or m, such products stays
# below m 2^45, which is exact while m <= 256
_PRIME_LIMIT = 1 << 25
_DIGIT_BITS = 20
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
# the residues take 4 m^2 phi(m) bytes per prime; 64 primes cover
# coefficients of about 800 bits, far beyond any table built from a field
_MAX_PRIMES = 64
_SCAN_BYTES = 1 << 19  # cap on each array a scan step allocates
_FIRST_CHUNK_BYTES = 1 << 13  # the first chunk's arrays, smaller so early failures stop early


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
    # the reconstruction that proves a certified pass; not part of the verdicts
    certificate: ReconstructionReport | None = field(default=None, compare=False, repr=False)

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
#
# Each reads entries through table.entry and computes in their arithmetic.


def _symmetry_sides(table, alpha: Element, beta: Element):
    """J(a, b) and J(b, a)."""
    g = table.group
    i, j = g.index(alpha), g.index(beta)
    return table.entry(i, j), table.entry(j, i)


def _star(table, i: int, j: int):
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
    rhs = v(a, bc) * v(b, c)
    if bc == 0:
        rhs = rhs - v(c, g.index(g.neg(gamma)))
    # the d d terms are added even where they are 0, as the scans add them,
    # which gives a complex zero component its sign
    return lhs + (a == b == 0), rhs + (b == c == 0)


def convolution_sum_sides(
    table: JacobiTable, a1: Element, a2: Element, a3: Element, a4: Element
) -> tuple[Cyclotomic, Cyclotomic]:
    """Both sides of sum_b J(a1 b, a2 b^-1) J(a3 b, a4 b^-1) = J(a1 a4, a2 a3)."""
    g = table.group
    add, idx, v = g.add, g.index, table.entry
    terms = [
        v(idx(add(a1, b)), idx(add(a2, nb))) * v(idx(add(a3, b)), idx(add(a4, nb)))
        for b, nb in ((b, g.neg(b)) for b in g.elements)
    ]
    return sum(terms[1:], terms[0]), v(idx(add(a1, a4)), idx(add(a2, a3)))


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


# -- evaluations: residues modulo primes p = 1 (mod m), or one complex point -


@functools.lru_cache(maxsize=None)
def _prime_field(m: int, below: int) -> tuple[int, np.ndarray]:
    """The largest prime p = 1 (mod m) below `below`, with the matrix of
    powers r^e (e < m) of the primitive m-th roots of unity r mod p."""
    radicals = prime_factors(m)
    p = next(p for p in range((below - 2) // m * m + 1, 1, -m) if is_prime(p))
    candidates = (pow(x, (p - 1) // m, p) for x in range(2, p))
    w = next(w for w in candidates if all(pow(w, m // r, p) != 1 for r in radicals))
    roots = [pow(w, k, p) for k in range(m) if math.gcd(k, m) == 1]
    powers = np.array([[pow(r, e, p) for r in roots] for e in range(m)], dtype=np.int64)
    powers.flags.writeable = False
    return p, powers


class _Evaluation:
    """A table evaluated at some points, as the scans read it: values[i, j, k]
    is L J(i, j) at point k, scale[k] is L and m_inverse[k] is 1 / m there,
    and root_powers[e, k] is r^e for the root r of point k, so
    chi_x(y) = root_powers[pairing[x, y], k].
    Products are taken in the dtype `wide`, and the transforms' matrix
    products by `product`.  The kinds differ in product, reduce, differs
    and exponents, and in the arithmetic of a witness's sides.
    rebuilt is the reconstruction stages' report once they have run at
    every point: certify runs them at a complex table's one point."""

    rebuilt: ReconstructionReport | None = None

    def __init__(self, g):
        self.group = g
        self.m = g.m
        self.pairing = pairing_matrix(g)
        self.add, self.neg, self.addneg = index_tables(g)

    @functools.cached_property
    def wide(self) -> np.dtype:
        return np.result_type(self.root_powers, np.int64)

    @functools.cached_property
    def cocycle_witnesses(self) -> tuple[tuple | None, tuple | None]:
        """The starred and the direct cocycle witnesses, from one pass."""
        return _cocycle_witnesses(self)

    def at(self, points: slice) -> np.ndarray:
        """values[:, :, points]; until an exact table's values is built, its
        first point, all a certificate reads, is evaluated alone, exactly."""
        if points != slice(0, 1) or "values" in self.__dict__:
            return self.values[:, :, points]
        if "_first" not in self.__dict__:
            self._first = self._evaluate(points)
        return self._first

    def characters(self, points) -> np.ndarray:
        """w[k, x, y] = chi_x(y) = chi_y(x) at the k-th of the given points."""
        return self.root_powers[:, points][self.pairing].transpose(2, 0, 1)

    def transforms(self, alphas, points: slice = slice(None)) -> np.ndarray:
        """T[k, a, x] = L T_s(chi_x) = sum over beta of L J(s - beta, beta)
        chi_x(beta), for s = alphas[a], at the k-th of the given points and
        reduced there.  The characters are tabulated a chunk of points at a
        time, in at most _SCAN_BYTES."""
        m = self.m
        v = self.at(points)[self.addneg[alphas], np.arange(m)].transpose(2, 0, 1)
        ks = np.arange(self.root_powers.shape[1])[points]
        t = np.empty(v.shape, dtype=self.wide)
        width = max(1, _SCAN_BYTES // (self.wide.itemsize * m * m))
        for lo in range(0, len(t), width):
            chunk = slice(lo, lo + width)
            t[chunk] = self.product(v[chunk], self.characters(ks[chunk]))
        return self.reduce(t, points, 0)


def _chunks(n: int, size: int):
    """Index arrays that cover range(n) in order, for arrays of `size`
    bytes per index.  The first fits _FIRST_CHUNK_BYTES, so a scan that
    fails early stops early, and each next one doubles, up to _SCAN_BYTES."""
    start, step = 0, max(1, min(_FIRST_CHUNK_BYTES, _SCAN_BYTES) // size)
    while start < n:
        yield np.arange(start, min(start + step, n))
        start += step
        step = max(step, min(2 * step, _SCAN_BYTES // size))


class _Residues(_Evaluation):
    """The table scaled to integers over its common denominator L and
    evaluated at every primitive m-th root of unity modulo enough primes:
    values[i, j, k] is L * J(i, j) at point k, modulo moduli[k], stored as
    int32.  Point k is root k // n of prime k % n, for n primes, so point 0
    is the first prime's first root, and column k of root_powers holds the
    powers of that root.  denominator is L.

    Each digit of the scaled numerators is evaluated at the points by one
    float64 product with root_powers, exact by the bound at _PRIME_LIMIT;
    a table whose L J fit 2^_DIGIT_BITS in size, as every field's table
    does, has one digit."""

    def __init__(self, table: JacobiTable):
        super().__init__(table.group)
        m = self.m
        red = reduction_data(m)
        deg = red.degree
        if m * _PRIME_LIMIT << _DIGIT_BITS > 1 << 53:
            raise ValueError(f"group order {m} is beyond the exact float64 evaluation")
        nums = table.num
        peaks = np.maximum(nums.max(axis=2), -nums.min(axis=2))
        # entries share few denominators: dens[where[i, j]] is that of J(i, j)
        dens, where = np.unique(table.den, return_inverse=True)
        dens, where = dens.tolist(), where.reshape(m, m)
        scale = math.lcm(*dens)
        # L / den scales each entry; entries that are all zero get 0, so
        # every multiplier is at most top, the largest scaled coefficient
        group_peaks = [int(peaks[where == i].max()) for i in range(len(dens))]
        mults = [scale // den if peak else 0 for den, peak in zip(dens, group_peaks)]
        top = max(k * peak for k, peak in zip(mults, group_peaks))
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
        self.moduli = np.tile(primes, deg)
        self.denominator = scale
        self.scale = np.tile([scale % p for p in primes], deg)
        self.m_inverse = np.tile([pow(m, -1, p) for p in primes], deg)
        self.root_powers = np.stack([powers for _, powers in fields], axis=2).reshape(m, -1)
        # L J(i, j) = num[i, j] * L / den[i, j], exactly, is split into
        # base-2^_DIGIT_BITS digits: below the top one, (x >> b t) & mask,
        # in [0, 2^b), and the top one x >> b t, in [-2^b, 2^b), which
        # carries the sign.  Each digit's residues are folded in with
        # 2^(b t) mod p, products below 2^50 that int64 sums exactly
        self._nums = nums
        self._mult = np.array(mults, dtype=np.int64 if top < 1 << 63 else object)[where, None]
        ndigits = max(1, -(-top.bit_length() // _DIGIT_BITS))
        self._folds = [np.tile([pow(2, _DIGIT_BITS * t, p) for p in primes], deg)
                       for t in range(1, ndigits)]

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self._evaluate(slice(None))

    def _evaluate(self, points: slice) -> np.ndarray:
        """L J at the given points, as int32 residues."""
        m, nums, mult, ndigits = self.m, self._nums, self._mult, len(self._folds) + 1
        deg, moduli, npoints = nums.shape[2], self.moduli[points], len(self.moduli[points])
        roots = self.root_powers[:deg, points].astype(np.float64)
        values = np.empty((m, m, npoints), dtype=np.int32)
        # per row: L J and a digit, and over every point the float64
        # product, its int64 copy and the sum of the folded digits
        rows = max(1, _SCAN_BYTES // (8 * m * (2 * deg + 3 * npoints)))

        def digit_residues(scaled, t):
            """Digit t of the scaled entries at every point, modulo its prime."""
            digit = scaled >> (_DIGIT_BITS * t) if t else scaled
            if t < ndigits - 1:
                digit = digit & _DIGIT_MASK
            res = (digit.astype(np.float64) @ roots).astype(np.int64)
            res %= moduli
            return res

        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            scaled = (nums[lo:hi].astype(mult.dtype, copy=False) * mult[lo:hi]).reshape(-1, deg)
            acc = digit_residues(scaled, 0)
            for t, fold in enumerate(self._folds, 1):
                res = digit_residues(scaled, t)
                res *= fold[points]
                acc += res
            if self._folds:
                acc %= moduli
            values[lo:hi] = acc.reshape(hi - lo, m, npoints)
        return values

    @staticmethod
    def product(a, b) -> np.ndarray:
        """a @ b in int64, unreduced, for stacks of m x m residues in
        [0, p).  a is split at bit _DIGIT_BITS into two limbs, each
        multiplied by b in float64, exact by the bound at _PRIME_LIMIT; the
        high limb's sums stay below m 2^30, so the folded sum is below 2^59."""
        b = b.astype(np.float64)
        x = ((a & _DIGIT_MASK).astype(np.float64) @ b).astype(np.int64)
        x += ((a >> _DIGIT_BITS).astype(np.float64) @ b).astype(np.int64) << _DIGIT_BITS
        return x

    def reduce(self, x, points: slice = slice(None), axis: int = -1):
        """x modulo each point's prime, in place, for the given points
        laid along `axis`."""
        shape = [1] * x.ndim
        shape[axis] = -1
        x %= self.moduli[points].reshape(shape)
        return x

    @staticmethod
    def differs(x):
        """Where a reduced difference is not 0 modulo its prime."""
        return x != 0

    @staticmethod
    def sides(sides, table, point) -> tuple:
        """The two sides of an identity at a witness, in Cyclotomic arithmetic."""
        return sides(table, *point)

    @staticmethod
    def exponents(t, roots):
        """The e with t = L r^e, read where roots[e, k] = L r^e at the first
        point k at which L is not 0 mod p, so that the L r^e are distinct;
        t holds points on its last axis.  A value that is no L r^e gets 0."""
        k = int(np.flatnonzero(roots[0])[0])
        return (t[..., k, None] == roots[:, k]).argmax(axis=-1)


class _Complex(_Evaluation):
    """A complex table as an evaluation at one point: values[i, j, 0] is
    J(i, j), L is 1 and root_powers[e, 0] is exp(2 pi i e / m).  Nothing is
    reduced, and a difference differs unless it lies within `tolerance`."""

    def __init__(self, table: ApproxTable, tolerance: float):
        super().__init__(table.group)
        m = self.m
        self.values = np.array(table.entries, dtype=complex).reshape(m, m, 1)
        self.scale = np.ones(1)
        self.m_inverse = np.array([1 / m])
        self.root_powers = np.exp(2j * np.pi * np.arange(m) / m)[:, None]
        self.tolerance = tolerance

    @staticmethod
    def product(a, b) -> np.ndarray:
        return a @ b

    @staticmethod
    def reduce(x, points: slice = slice(None), axis: int = -1):
        return x

    def differs(self, x):
        """Where a difference is not within the tolerance, NaN included."""
        return ~(np.abs(x) <= self.tolerance)

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.values[i, j]

    def sides(self, sides, table, point) -> tuple:
        """The two sides of an identity at a witness, computed on the
        entries as one-point arrays: the arithmetic of the scans, whose
        vectorised complex products can differ from scalar ones in the
        last bit."""
        return tuple(side[0] for side in sides(self, *point))

    def exponents(self, t, roots):
        """The phase of t, at its one point, rounded half to even to the
        nearest m-th of a turn."""
        m = self.m
        return np.rint(m * (np.angle(t[..., 0]) / (2 * np.pi))).astype(np.intp) % m


def _evaluate(table: _Table, tolerance: float = DEFAULT_TOLERANCE):
    """The evaluation every check of the table reads."""
    if isinstance(table, ApproxTable):
        return _Complex(table, tolerance)
    return _Residues(table)


def _first_true(bad) -> tuple[int, ...] | None:
    """Index of the first True in a boolean array, in row-major order, or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))


def _cocycle_witnesses(r: _Evaluation) -> tuple[tuple | None, tuple | None]:
    """First (a, b, c) where the starred and first where the
    delta-corrected cocycle identity, scaled by L^2, fail at some point.
    Each chunk's direct difference is built and reduced once; the starred
    one is the same but in column c = -b, where it adds the skew
    L (L J(b, -b) - L J(-b, b)).  The pass stops once both have failed."""
    m, L, add, neg = r.m, r.scale, r.add, r.neg
    v = r.values
    ar = np.arange(m)
    pair, swapped = v[ar, neg], v[neg, ar]  # L J(a, -a) and L J(-a, a)
    # the delta terms sit at b = -a on the left and at c = -b on the right
    left = r.reduce(-L * pair)
    right = r.reduce(-L * swapped)
    left[0] += L * L
    right[0] += L * L
    skew = r.reduce(L * (pair - swapped))
    star = direct = None
    for idx in _chunks(m * m, m * v.shape[2] * r.wide.itemsize):
        a, b = np.divmod(idx, m)
        rows, column = np.arange(len(idx)), neg[b]
        # L J(ab, c) L J(a, b) - L J(a, bc) L J(b, c) for every c
        diff = np.multiply(v[add[a, b]], v[a, b, None], dtype=r.wide)
        diff -= np.multiply(v[a[:, None], add[b]], v[b], dtype=r.wide)
        at = b == neg[a]
        diff[at] += left[a[at], None]
        diff[rows, column] -= right[b]
        bad = r.differs(r.reduce(diff)).any(axis=-1)
        if direct is None and (hit := _first_true(bad)) is not None:
            direct = (int(a[hit[0]]), int(b[hit[0]]), hit[1])
        if star is None:
            bad[rows, column] = r.differs(r.reduce(diff[rows, column] + skew[b])).any(axis=-1)
            if (hit := _first_true(bad)) is not None:
                star = (int(a[hit[0]]), int(b[hit[0]]), hit[1])
        if star is not None and direct is not None:
            break
    return star, direct


def _first_failing_pair(r: _Evaluation, s1: int, n: int, ks: slice) -> int:
    """The first of the pairs d * m + a4 < n of row s1 whose triple fails at
    some point of ks, or n if none does.  Each is checked in the direct
    domain: with u = b and s2 = d + a4, the identity at (0, s1, d, a4) reads
    sum_u L Q_s1(u) L J(d + u, a4 - u) = L L J(a4, s1 + d), O(m) per pair
    and point."""
    m, add, addneg = r.m, r.add, r.addneg
    u = np.arange(m)
    # each pair gathers m values per point and multiplies them widened
    size = m * (r.values.itemsize + r.wide.itemsize)
    width = max(1, _SCAN_BYTES // size)
    for lo in range(ks.start, ks.stop, width):
        k = slice(lo, min(lo + width, ks.stop))
        L = r.scale[k]
        q = r.values[u, addneg[s1], k]  # L Q_s1(u)
        for idx in _chunks(n, size * len(L)):
            d, a4 = np.divmod(idx, m)
            diff = np.multiply(r.values[add[d], addneg[a4], k], q, dtype=r.wide).sum(axis=1)
            diff -= L * r.values[a4, add[s1, d], k]
            fails = r.differs(r.reduce(diff, k)).any(axis=1)
            if fails.any():
                # pairs after this one cannot come first any more
                n = int(idx[fails.argmax()])
                break
    return n


def _first_failing_row(r: _Evaluation, below: int, ks: slice) -> tuple[int, int] | None:
    """The first row s1 < below whose triple fails at some point of ks, with
    the first of its pairs d * m + a4 that fails there, or None.  The
    rows where T_s1 Q^_s2 differs from L T_{s1+s2} at the points, with
    Q^_s(chi) = chi(s) T_s(-chi), are flagged, then inverse-transformed
    and decided in order in the direct domain, where a flagged complex
    row may pass."""
    m, add, neg = r.m, r.add, r.neg
    L = r.scale[ks, None, None]
    w = r.characters(ks)
    t = r.transforms(np.arange(m), ks)  # [k, s, x] = L T_s(chi_x)
    qh = r.reduce(t[:, :, neg] * w, ks, 0)  # L Q^_s(chi_x)
    lt = r.reduce(L * t, ks, 0)
    inverse = r.reduce(w[:, :, neg] * r.m_inverse[ks, None, None], ks, 0)
    rows = max(1, _SCAN_BYTES // (2 * r.wide.itemsize * m * m * len(w)))
    for top in range(0, below, rows):
        s1 = np.arange(top, min(top + rows, below))
        prod = r.reduce(t[:, s1, None] * qh[:, None], ks, 0)
        prod -= lt[:, add[s1]]
        for s in s1[r.differs(prod).any(axis=(0, 2, 3))].tolist():
            diff = r.reduce(t[:, s, None] * qh - lt[:, add[s]], ks, 0)
            # e[k, s2, y] = D(s, s2, y - s) at point k, where D is the
            # difference of the two sides at the triple (s, s2, y - s)
            e = r.reduce(r.product(diff, inverse), ks, 0)
            bad = r.differs(e).any(axis=0)[:, add[s]]  # [s2, d]
            if bad.any():
                # the first pair (d, a4) of the row, at s2 = d + a4
                return s, int(bad[add, np.arange(m)[:, None]].argmax())
    return None


def _convolution_witness(r: _Evaluation):
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
    # the four transforms of a chunk (w, t, qh, lt) share _SCAN_BYTES, and
    # so do the two wide operands of a row block's comparison
    width = max(1, _SCAN_BYTES // (4 * r.wide.itemsize * m * m))  # points per chunk
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


# -- checks ---------------------------------------------------------------
#
# Each takes an exact or a complex table and, if the caller has it, the
# evaluation to read; a complex table's evaluation carries the tolerance,
# and without one the default tolerance applies.


def _result(check: str, table, witness, sides) -> CheckResult:
    """The check's outcome at its witness, or a pass; sides(point) gives
    the two unequal values."""
    if witness is None:
        return CheckResult(check, True)
    point = tuple(table.group.elements[i] for i in witness)
    return CheckResult(check, False, point, *sides(point))


def _check(table, residues, check: str, scan, sides) -> CheckResult:
    r = residues or _evaluate(table)
    return _result(check, table, scan(r), functools.partial(r.sides, sides, table))


def check_symmetry(table: _Table, residues: _Evaluation | None = None) -> CheckResult:
    """Exhaustive equality of J(a,b) and J(b,a) over all ordered pairs.  A
    complex table is decided on its whole one-point evaluation.  An exact
    table is decided on its arrays, with no evaluation: equal entries hold
    equal arrays in canonical form, so the first pair, in row-major order,
    whose arrays differ is the first the residues show."""
    if isinstance(table, ApproxTable):
        scan = lambda r: _first_true(r.differs(r.values - r.values.transpose(1, 0, 2)).any(axis=2))
        return _check(table, residues, "symmetry", scan, _symmetry_sides)
    num, den = table.num, table.den
    witness = _first_true((num != num.transpose(1, 0, 2)).any(axis=2) | (den != den.T))
    return _result("symmetry", table, witness, lambda point: _symmetry_sides(table, *point))


def check_cocycle_star(table: _Table, residues: _Evaluation | None = None) -> CheckResult:
    """Exhaustive check of J*(a,b) J*(ab,c) = J*(a,bc) J*(b,c) over all
    triples, by the cocycle pass both forms share on an evaluation.  That
    pass stops only once both forms have a witness, so a call without
    `residues` scans up to the later of the two."""
    scan = lambda r: r.cocycle_witnesses[0]
    return _check(table, residues, "cocycle-star", scan, cocycle_star_sides)


def check_cocycle_direct(table: _Table, residues: _Evaluation | None = None) -> CheckResult:
    """Exhaustive check of the delta-corrected form of the cocycle identity,
    by the cocycle pass both forms share on an evaluation.  That pass stops
    only once both forms have a witness, so a call without `residues` scans
    up to the later of the two."""
    scan = lambda r: r.cocycle_witnesses[1]
    return _check(table, residues, "cocycle-direct", scan, cocycle_direct_sides)


def check_convolution_sum(table: _Table, residues: _Evaluation | None = None) -> CheckResult:
    """Exhaustive check of the convolution-sum identity over all m^4
    quadruples, decided on the m^3 triples (s1, s2, d)."""
    return _check(table, residues, "convolution-sum", _convolution_witness, convolution_sum_sides)


# -- aggregation ----------------------------------------------------------


def verify_all(
    table: _Table,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    residues: _Evaluation | None = None,
) -> VerificationReport:
    """Run all axiom checks and aggregate the verdicts.  The table is
    evaluated once, or not at all when the caller passes its evaluation
    as `residues` (a complex table's carries the tolerance that decides
    and that the report records), and every step reads that evaluation.
    A symmetric table is first offered to the certificate: if the field
    it rebuilds reproduces an exact table exactly, or proves that a
    complex table's scans pass within the tolerance, all four checks pass
    with no scan; otherwise the scans decide, as they would have without
    it.  A complex table is compared within the tolerance."""
    approx = isinstance(table, ApproxTable)
    r = residues or _evaluate(table, tolerance)
    sym = check_symmetry(table, r)
    if sym.passed:
        from .reconstructor import certify  # reconstructor imports this module

        certificate = certify(table, r)
        if not isinstance(certificate, str):
            return VerificationReport(
                symmetry=sym,
                cocycle_star=CheckResult("cocycle-star", True),
                cocycle_direct=CheckResult("cocycle-direct", True),
                convolution=CheckResult("convolution-sum", True),
                approximate=approx,
                tolerance=r.tolerance if approx else None,
                certificate=certificate,
            )
    return VerificationReport(
        symmetry=sym,
        cocycle_star=check_cocycle_star(table, r),
        cocycle_direct=check_cocycle_direct(table, r),
        convolution=check_convolution_sum(table, r),
        approximate=approx,
        tolerance=r.tolerance if approx else None,
    )
