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
and point.  Its chunks of points, like the cocycle pass's chunks of
pairs, start small, at one point once m > 11, and double up to a cap;
a remainder shorter than a chunk joins it where the two fit the cap, so
the 6 points of q = 8 are one chunk.
The scan and the reconstruction stages take T from one
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
inverse-pair entries are transpose-symmetric.  On an exact table the
m^2 triples with a = 0 take no product at every point.  There the
starred difference factors as L J*(b, c) (L J*(0, b) - L J*(0, b + c)),
and Z[zeta_m] has no zero divisors, so it fails at (0, b, c) exactly
when L J*(b, c) is not 0 and the starred row 0 differs between b and
b + c.  Each factor is a scaled entry, or a difference of two, so its
coefficients are far within B, and its residues decide whether it is 0
as they decide the difference: the first factor is nonzero where some
residue is (where its numerators are, off row and column 0), the second
where two rows of residues differ, compared as byte strings.  The direct
difference there is the starred one but in column c = -b, where it
subtracts the delta(bc) term: m vectors, multiplied out.  A complex
table's a = 0 triples are multiplied out like the rest, since a product
within the tolerance does not make a factor so.  The pass then builds
and reduces the direct difference once per chunk of pairs (a, b), reads
the starred one off it in that column, and stops once both forms have
failed.  Symmetry is decided on whole arrays, the first
differing pair in row-major order being the witness: a complex table's
on its one-point evaluation, an exact table's on its canonical arrays,
which differ at exactly the pairs where its residues do.

The two unequal values of a witness are read off the same evaluation.
One routine per identity computes both sides, scaled by L^2, at every
point, with the terms of its scan, and _Evaluation.lift turns each into
a value.  A complex table's is its one point, in the scans' arithmetic.
An exact side is an element of Z[zeta_m] whose coefficients, like those
of the difference, are bounded by B.  At the phi(m) roots modulo one
prime its values fix its coefficients modulo that prime (Lagrange
interpolation, by the inverse of the matrix of root powers), the
Chinese remainder theorem combines the primes, and since their product
exceeds 2B the residue of least size is the coefficient.  The Cyclotomic functions
cocycle_star_sides, cocycle_direct_sides, convolution_sum_sides and
slice_convolution_sides compute such sides entry by entry; no library
code calls them, and the tests and the benchmark check witnesses
against them.

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
they would without it, and only they produce witnesses.  Either
evaluation is done once per distinct cell of the table's numbering
(JacobiTable.cells), D cells in all, and gathered into the m x m array
the scans read: a field's table at q = 64 has D = 73 of its 3,969 cells.
Accepting thus costs the evaluation of D cells at one point, a table
build and an O(q^2) field check; rejecting costs their evaluation at
all E points, the cocycle pass, O(m^2 + m E) for the triples with
a = 0 and O(m E) per later pair (a, b) up to the later of its two
witnesses, and the convolution scan's O(m^3) per point until its
candidate is found, O(K m) per point for the K pairs before the
candidate after it.  At q = 64 (E = 72) a decoded table with (1, 2) and
(2, 1) moved by 3/7 is rejected in about 2.1 ms on a 2-core Xeon, 0.45
ms of it the cocycle pass, 0.6 ms the convolution scan and 0.2 ms the
evaluation; the three scans run to the end take about 0.3 s.

A symmetric complex table is offered to certify too.  The stages run at
its one point and rebuild a field whose table J_F satisfies every
identity exactly, embedded, with no exact table built, from the
histogram of the field's K pairs x + y = 1 within delta = 2 (m + 40)
u K / m (u = 2^-53).  When the input lies within the tolerance of that
embedding, a bound on every difference the three scans would compute
follows from that distance, delta and max |J_F|, plus the rounding of
the scans' own float64 arithmetic (reconstructor._scan_bound).  If the
bound is within the tolerance, all four checks pass with no scan;
otherwise the scans decide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .abelian import Element, index_tables, pairing_matrix
from .cyclotomic import Cyclotomic, cyclotomic_polynomial, reduction_data
from .ffield import is_prime, prime_factors
from .jacobi import ApproxTable, JacobiTable, _first_positions, _row_bytes

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


# -- per-point identities, in Cyclotomic arithmetic -----------------------
#
# Each reads entries through table.entry; the checks take their witnesses'
# sides from the evaluation instead (see _star_sides), and these are the
# reference they are tested against.


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
    """The largest prime p = 1 (mod m) below `below`, with _root_powers(m, p)."""
    p = next(p for p in range((below - 2) // m * m + 1, 1, -m) if is_prime(p))
    return p, _root_powers(m, p)


@functools.lru_cache(maxsize=None)
def _root_powers(m: int, p: int) -> np.ndarray:
    """The matrix of powers r^e (e < m) of the primitive m-th roots of
    unity r modulo a prime p = 1 (mod m), one column per root."""
    radicals = prime_factors(m)
    candidates = (pow(x, (p - 1) // m, p) for x in range(2, p))
    w = next(w for w in candidates if all(pow(w, m // r, p) != 1 for r in radicals))
    roots = [pow(w, k, p) for k in range(m) if math.gcd(k, m) == 1]
    powers = np.array([[pow(r, e, p) for r in roots] for e in range(m)], dtype=np.int64)
    powers.flags.writeable = False
    return powers


@functools.lru_cache(maxsize=None)
def _interpolation(m: int, p: int) -> np.ndarray:
    """W, the inverse modulo p of V[e, j] = r_j^e (e < phi(m)) for the
    roots r_j of _root_powers(m, p): the polynomial of degree below phi(m)
    whose values at the roots are y has the coefficients y @ W (mod p).
    Row j is the Lagrange basis polynomial of r_j, the quotient of Phi_m
    by x - r_j over its value at r_j; the quotients of every root come
    from one synthetic division, phi(m) steps on vectors of phi(m)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    powers = _root_powers(m, p)
    # row 1 holds the roots, or row 0 when m = 1, whose one root is 1
    roots, powers = powers[min(1, m - 1)], powers[:deg]
    quotients = np.empty((deg, deg), dtype=np.int64)  # [j, e]
    quotients[:, deg - 1] = 1
    for e in range(deg - 1, 0, -1):
        quotients[:, e - 1] = (phi[e] + roots * quotients[:, e]) % p
    # each product is below 2^50, so phi(m) of them sum exactly in int64
    at_root = (quotients * powers.T).sum(axis=1) % p
    inverses = np.array([pow(x, -1, p) for x in at_root.tolist()], dtype=np.int64)
    w = quotients * inverses[:, None] % p
    w.flags.writeable = False
    return w


class _Evaluation:
    """A table evaluated at some points, as the scans read it: values[i, j, k]
    is L J(i, j) at point k, scale[k] is L and m_inverse[k] is 1 / m there,
    and root_powers[e, k] is r^e for the root r of point k, so
    chi_x(y) = root_powers[pairing[x, y], k].
    Products are taken in the dtype `wide`, and the transforms' matrix
    products by `product`.  The kinds differ in product, reduce, differs
    and exponents, in cocycle_row_zero, which decides what it can of the
    cocycle pass without products, and in scaled and lift, which give a
    witness's sides.
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


def _chunks(n: int, size: int, start: int = 0):
    """Index arrays that cover range(start, n) in order, for arrays of
    `size` bytes per index.  The first fits _FIRST_CHUNK_BYTES, so a scan
    that fails early stops early, and each next one doubles, up to
    _SCAN_BYTES.  A remainder shorter than a chunk joins it where the two
    fit _SCAN_BYTES together, so no chunk is left with a few indices."""
    cap = _SCAN_BYTES // size
    step = max(1, min(_FIRST_CHUNK_BYTES, _SCAN_BYTES) // size)
    while start < n:
        stop = start + step
        if n - stop < step and n - start <= cap:
            stop = n
        yield np.arange(start, min(stop, n))
        start = stop
        step = max(step, min(2 * step, cap))


class _Residues(_Evaluation):
    """The table scaled to integers over its common denominator L and
    evaluated at every primitive m-th root of unity modulo enough primes:
    values[i, j, k] is L * J(i, j) at point k, modulo moduli[k], stored as
    int32.  Point k is root k // n of prime k % n, for n primes, so point 0
    is the first prime's first root, and column k of root_powers holds the
    powers of that root.  denominator is L.

    Each distinct cell of the table's numbering (JacobiTable.cells) is
    evaluated once, and the cells gathered from those by their numbers.
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
        ids, firsts = table.cells
        nums = table.num.reshape(m * m, deg)[firsts]
        peaks = np.maximum(nums.max(axis=1), -nums.min(axis=1))
        # cells share few denominators: dens[where[c]] is that of distinct cell c
        dens, where = np.unique(table.den.ravel()[firsts], return_inverse=True)
        dens = dens.tolist()
        scale = math.lcm(*dens)
        # L / den scales each entry; entries that are all zero get 0, so
        # every multiplier is at most top, the largest scaled coefficient
        group_peaks = [int(peaks[where == i].max()) for i in range(len(dens))]
        mults = [scale // den if peak else 0 for den, peak in zip(dens, group_peaks)]
        top = max(k * peak for k, peak in zip(mults, group_peaks))
        # each side of a scaled identity is at most max(m, 2) products of
        # centered entries, whose coefficients are at most s = top + 2L, plus
        # delta terms L L J and L^2.  A product's coefficients are at most
        # deg s^2 before reduction and deg s^2 (1 + deg row_bound) after, the
        # delta terms' at most L (s + L), so `bound` caps each coefficient of
        # either side, and of their difference: two sides of one product and
        # a delta term each, or m products against a delta term
        s = top + 2 * scale
        bound = max(m, 2) * deg * s * s * (1 + deg * red.row_bound) + 2 * scale * (s + scale)
        fields = [_prime_field(m, _PRIME_LIMIT)]
        while math.prod(p for p, _ in fields) <= 2 * bound:
            if len(fields) == _MAX_PRIMES:
                raise ValueError(f"table entries need more than {_MAX_PRIMES} primes")
            fields.append(_prime_field(m, fields[-1][0]))
        primes = [p for p, _ in fields]
        self.primes = primes
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
        self._ids, self._nums = ids.reshape(m, m), nums
        self._mult = np.array(mults, dtype=np.int64 if top < 1 << 63 else object)[where, None]
        ndigits = max(1, -(-top.bit_length() // _DIGIT_BITS))
        self._folds = [np.tile([pow(2, _DIGIT_BITS * t, p) for p in primes], deg)
                       for t in range(1, ndigits)]

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self._evaluate(slice(None))

    def _evaluate(self, points: slice) -> np.ndarray:
        """L J at the given points, as int32 residues: the distinct cells,
        a block at a time, gathered by the cells' numbers."""
        nums, mult, ndigits = self._nums, self._mult, len(self._folds) + 1
        deg, moduli = nums.shape[1], self.moduli[points]
        roots = self.root_powers[:deg, points].astype(np.float64)
        residues = np.empty((len(nums), len(moduli)), dtype=np.int32)
        # per cell: L J and a digit, and over every point the float64
        # product, its int64 copy and the sum of the folded digits
        cells = max(1, _SCAN_BYTES // (8 * (2 * deg + 3 * len(moduli))))

        def digit_residues(scaled, t):
            """Digit t of the scaled entries at every point, modulo its prime."""
            digit = scaled >> (_DIGIT_BITS * t) if t else scaled
            if t < ndigits - 1:
                digit = digit & _DIGIT_MASK
            res = (digit.astype(np.float64) @ roots).astype(np.int64)
            res %= moduli
            return res

        for lo in range(0, len(nums), cells):
            block = slice(lo, lo + cells)
            scaled = nums[block].astype(mult.dtype, copy=False) * mult[block]
            acc = digit_residues(scaled, 0)
            for t, fold in enumerate(self._folds, 1):
                res = digit_residues(scaled, t)
                res *= fold[points]
                acc += res
            if self._folds:
                acc %= moduli
            residues[block] = acc
        return residues[self._ids]

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

    def scaled(self, x) -> np.ndarray:
        """L x at every point, reduced."""
        return self.reduce(x * self.scale)

    @functools.cached_property
    def _crt(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Each prime's _interpolation, stacked; the CRT basis, for each
        prime p the multiple of P / p that is 1 modulo p, as Python ints;
        and the product P of the primes."""
        primes = self.primes
        total = math.prod(primes)
        w = np.stack([_interpolation(self.m, p) for p in primes])
        basis = np.array([total // p * pow(total // p, -1, p) for p in primes], dtype=object)
        return w, basis, total

    def lift(self, sides) -> list[Cyclotomic]:
        """The values whose L^2 multiples are the sides at every point.  Each
        prime's points give the power-basis coefficients modulo p, their
        values times _interpolation(m, p); the CRT basis combines those
        into the residue modulo the product P of the primes, and the
        residue of least size is the coefficient.  That is exact because
        every scaled side, not only the difference of two, has coefficients
        within the bound that P exceeds twice (see __init__)."""
        w, basis, total = self._crt
        n = len(basis)
        y = self.reduce(np.array(sides, dtype=np.int64)).reshape(len(sides), -1, n)
        # each coefficient sums phi(m) products below 2^50, below 2^57
        coeffs = y.transpose(2, 0, 1) @ w % self.moduli[:n, None, None]  # [prime, side, e]
        value = coeffs.transpose(1, 2, 0).astype(object) @ basis % total
        value = np.where(value > total // 2, value - total, value)
        return [Cyclotomic(self.m, side, self.denominator**2) for side in value.tolist()]

    def cocycle_row_zero(self, skew):
        """The starred and the direct cocycle witnesses with a = 0, each
        None if the form holds there, and m, the first pair a * m + b left
        to the pass.  The starred difference there is L J*(b, c) times
        L J*(0, b) - L J*(0, b + c), so it fails where L J*(b, c) is not 0
        and the starred row 0 differs between b and b + c; the direct one
        is the same but in column c = -b, where it subtracts skew[b] and
        is multiplied out (module docstring)."""
        m, L, v, neg = self.m, self.scale, self.values, self.neg
        row = self.reduce(v[0] - L)  # L J*(0, b), but at b = 0
        row[0] = self.reduce(row[0] - L)
        nonzero = self._nums.any(axis=1)[self._ids]  # J(b, c) != 0
        nonzero[:, 0] = self.reduce(v[:, 0] - L).any(axis=1)
        nonzero[0] = row.any(axis=1)
        ids = np.array(_first_positions(_row_bytes(row))[0])
        star = nonzero & (ids[:, None] != ids[self.add])
        b = np.arange(m)
        pair = v[b, neg].astype(np.int64)  # L J*(b, -b)
        pair[0] = row[0]
        direct = star.copy()
        direct[b, neg] = self.differs(self.reduce(pair * (row - row[0]) - skew)).any(axis=1)
        star, direct = (_first_true(bad) for bad in (star, direct))
        return star and (0, *star), direct and (0, *direct), m

    @staticmethod
    def exponents(t, roots):
        """The e with t = L r^e, read where roots[e, k] = L r^e at the first
        point k at which L is not 0 mod p, so that the L r^e are distinct;
        t holds points on its last axis.  A value that is no L r^e gets 0."""
        k = int(np.flatnonzero(roots[0])[0])
        return (t[..., k, None] == roots[:, k]).argmax(axis=-1)


class _Complex(_Evaluation):
    """A complex table as an evaluation at one point: values[i, j, 0] is
    J(i, j), a read-only view of the table's own array, L is 1 and
    root_powers[e, 0] is exp(2 pi i e / m).  Nothing is reduced, and a
    difference differs unless it lies within `tolerance`."""

    def __init__(self, table: ApproxTable, tolerance: float):
        super().__init__(table.group)
        m = self.m
        self.values = table.values.reshape(m, m, 1)
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

    @staticmethod
    def scaled(x) -> np.ndarray:
        """x itself, L being 1: a product with 1 + 0j can flip the sign of
        a zero part."""
        return x

    @staticmethod
    def cocycle_row_zero(skew):
        """No cocycle witness decided apart from the pass, which starts at
        pair 0: a product within the tolerance does not say that one of its
        factors is, so the pass multiplies out a = 0 too."""
        return None, None, 0

    @staticmethod
    def lift(sides) -> list[complex]:
        """The sides at the one point."""
        return [side[0] for side in sides]

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
    The evaluation decides the pairs before `start` (cocycle_row_zero);
    each later chunk's direct difference is built and reduced once; the
    starred one is the same but in column c = -b, where it adds the skew
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
    star, direct, start = r.cocycle_row_zero(skew)
    for idx in _chunks(m * m, m * v.shape[2] * r.wide.itemsize, start):
        if star is not None and direct is not None:
            break
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
    return star, direct


# -- witness sides: L^2 times each side of an identity at every point, with
# the terms of its scan, for _Evaluation.lift


def _star_sides(r: _Evaluation, a: int, b: int, c: int):
    """L J*(a, b) L J*(ab, c) and L J*(a, bc) L J*(b, c), where
    L J*(i, j) = L J(i, j) - L d(i) - L d(j)."""
    v, L, add = r.values, r.scale, r.add

    def star(i, j):
        x = v[i, j]
        if i == 0:
            x = x - L
        if j == 0:
            x = x - L
        return x

    ab, bc = add[a, b], add[b, c]
    return (np.multiply(star(a, b), star(ab, c), dtype=r.wide),
            np.multiply(star(a, bc), star(b, c), dtype=r.wide))


def _direct_sides(r: _Evaluation, a: int, b: int, c: int):
    """L J(a, b) L J(ab, c) - L L J(a, -a) d(ab) + L^2 d(a) d(b), and the
    same in (b, c) with L L J(c, -c) d(bc) on the right."""
    v, add, neg = r.values, r.add, r.neg
    ab, bc = add[a, b], add[b, c]
    lhs = np.multiply(v[a, b], v[ab, c], dtype=r.wide)
    if ab == 0:
        lhs = lhs - r.scaled(v[a, neg[a]])
    rhs = np.multiply(v[a, bc], v[b, c], dtype=r.wide)
    if bc == 0:
        rhs = rhs - r.scaled(v[c, neg[c]])
    # the d d terms are added even where they are 0, as the scans add them,
    # which gives a complex zero part its sign
    square = r.scale * r.scale
    return lhs + square * (a == b == 0), rhs + square * (b == c == 0)


def _convolution_sides(r: _Evaluation, a1: int, a2: int, a3: int, a4: int):
    """sum_b L J(a1 + b, a2 - b) L J(a3 + b, a4 - b), folded over b in
    order, and L L J(a1 + a4, a2 + a3)."""
    v, add, addneg = r.values, r.add, r.addneg
    terms = np.multiply(v[add[a1], addneg[a2]], v[add[a3], addneg[a4]], dtype=r.wide)  # [b, k]
    return np.cumsum(terms, axis=0)[-1], r.scaled(v[add[a1, a4], add[a2, a3]])


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
    identity fails at some point, over the points in _chunks.  The scan
    settles a candidate, then confirms it: the first chunk of points with
    a failing row `best` gives the row's first failing pair there as the
    candidate, and each later chunk is checked only for what could precede
    it, the rows before `best` by transforms (none once `best` is 0) and
    the pairs of row `best` before the candidate in the direct domain.  A
    failing row replaces both; a failing pair becomes the candidate."""
    m = r.m
    npoints = r.values.shape[2]
    best, first = m, None  # the first failing s1 row and its first failing pair
    # the four transforms of a chunk of points (w, t, qh, lt) share its
    # bytes, and so do the two wide operands of a row block's comparison
    for points in _chunks(npoints, 4 * r.wide.itemsize * m * m):
        lo = int(points[0])
        if not best:
            # no transforms are left to do, and the remaining points only
            # confirm the candidate
            first = _first_failing_pair(r, 0, first, slice(lo, npoints))
            break
        ks = slice(lo, lo + len(points))
        row = _first_failing_row(r, best, ks)
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
    """The check's outcome at its witness, or a pass; sides(*witness)
    gives the two unequal values."""
    if witness is None:
        return CheckResult(check, True)
    point = tuple(table.group.elements[i] for i in witness)
    return CheckResult(check, False, point, *sides(*witness))


def _check(table, residues, check: str, scan, sides) -> CheckResult:
    """The check decided by scan on the evaluation, its witness's sides
    lifted from sides(r, *witness)."""
    r = residues or _evaluate(table)
    return _result(check, table, scan(r), lambda *w: r.lift(sides(r, *w)))


def check_symmetry(table: _Table, residues: _Evaluation | None = None) -> CheckResult:
    """Exhaustive equality of J(a,b) and J(b,a) over all ordered pairs.  A
    complex table is decided on its whole one-point evaluation.  An exact
    table is decided on its arrays, with no evaluation: equal entries hold
    equal arrays in canonical form, so the first pair, in row-major order,
    whose arrays differ is the first the residues show."""
    if isinstance(table, ApproxTable):
        scan = lambda r: _first_true(r.differs(r.values - r.values.transpose(1, 0, 2)).any(axis=2))
        sides = lambda r, i, j: (r.values[i, j], r.values[j, i])
        return _check(table, residues, "symmetry", scan, sides)
    num, den = table.num, table.den
    witness = _first_true((num != num.transpose(1, 0, 2)).any(axis=2) | (den != den.T))
    return _result("symmetry", table, witness, lambda i, j: (table.entry(i, j), table.entry(j, i)))


def check_cocycle_star(table: _Table, residues: _Evaluation | None = None) -> CheckResult:
    """Exhaustive check of J*(a,b) J*(ab,c) = J*(a,bc) J*(b,c) over all
    triples, by the cocycle pass both forms share on an evaluation.  That
    pass stops only once both forms have a witness, so a call without
    `residues` scans up to the later of the two."""
    scan = lambda r: r.cocycle_witnesses[0]
    return _check(table, residues, "cocycle-star", scan, _star_sides)


def check_cocycle_direct(table: _Table, residues: _Evaluation | None = None) -> CheckResult:
    """Exhaustive check of the delta-corrected form of the cocycle identity,
    by the cocycle pass both forms share on an evaluation.  That pass stops
    only once both forms have a witness, so a call without `residues` scans
    up to the later of the two."""
    scan = lambda r: r.cocycle_witnesses[1]
    return _check(table, residues, "cocycle-direct", scan, _direct_sides)


def check_convolution_sum(table: _Table, residues: _Evaluation | None = None) -> CheckResult:
    """Exhaustive check of the convolution-sum identity over all m^4
    quadruples, decided on the m^3 triples (s1, s2, d)."""
    return _check(table, residues, "convolution-sum", _convolution_witness, _convolution_sides)


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
