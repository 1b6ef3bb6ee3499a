"""Shared builders and caches for the test suite."""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import jacobisum as js
from jacobisum import verifier
from jacobisum.abelian import index_tables, pairing_matrix
from jacobisum.cyclotomic import reduction_data
from jacobisum.ffield import prime_power
from jacobisum.reconstructor import ZERO_SYM, InconsistentTableError
from jacobisum.verifier import CheckResult

# every prime power q with 3 <= q <= 32
PRIME_POWERS = {
    3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
    11: (11, 1), 13: (13, 1), 16: (2, 4), 17: (17, 1), 19: (19, 1),
    23: (23, 1), 25: (5, 2), 27: (3, 3), 29: (29, 1), 31: (31, 1), 32: (2, 5),
}

ACCEPTANCE_Q = sorted(PRIME_POWERS)

# every prime power q with 32 < q <= 64, the rest of the exact range
LARGER_PRIME_POWERS = {
    37: (37, 1), 41: (41, 1), 43: (43, 1), 47: (47, 1), 49: (7, 2),
    53: (53, 1), 59: (59, 1), 61: (61, 1), 64: (2, 6),
}

# groups whose field-oracle addition tables are checked and pinned: cyclic
# ones with a field, and others that admit none
ORACLE_GROUPS = ((1,), (2,), (4,), (6,), (2, 2), (2, 4), (2, 2, 2), (4, 4), (2, 8), (15,))


@functools.lru_cache(maxsize=None)
def field(q: int) -> js.FiniteField:
    p, n = {**PRIME_POWERS, **LARGER_PRIME_POWERS}[q]
    return js.build_field(p, n)


@functools.lru_cache(maxsize=None)
def table(q: int) -> js.JacobiTable:
    return js.compute_jacobi(field(q))


def random_cyclotomic(rng: random.Random, m: int, span: int = 3) -> js.Cyclotomic:
    deg = js.euler_phi(m)
    return js.Cyclotomic.from_coefficients(
        m, [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(deg)]
    )


def random_table(rng: random.Random, factors) -> js.JacobiTable:
    g = js.GroupSpec(tuple(factors))
    rows = [[random_cyclotomic(rng, g.m) for _ in range(g.m)] for _ in range(g.m)]
    return js.JacobiTable(g, rows)


def symmetric_random_table(rng: random.Random, factors) -> js.JacobiTable:
    g = js.GroupSpec(tuple(factors))
    m = g.m
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = random_cyclotomic(rng, m)
    return js.JacobiTable(g, rows)


def random_function(rng: random.Random, group: js.GroupSpec) -> dict:
    return {e: random_cyclotomic(rng, group.m) for e in group.elements}


def idft(group: js.GroupSpec, fhat: dict) -> dict:
    """Inverse transform f(alpha) = (1/m) sum_x fhat(x) * zeta^-<alpha,x>."""
    m = group.m
    out = {}
    for a in group.elements:
        acc = js.Cyclotomic.zero(m)
        for x in group.elements:
            acc = acc + fhat[x].mul_root(-js.pairing(group, a, x))
        out[a] = acc.scale(Fraction(1, m))
    return out


def convolve(group: js.GroupSpec, f1: dict, f2: dict) -> dict:
    """(f1 * f2)(alpha) = sum over beta of f1(beta) f2(alpha - beta)."""
    m = group.m
    out = {}
    for a in group.elements:
        acc = js.Cyclotomic.zero(m)
        for b in group.elements:
            acc = acc + f1[b] * f2[group.sub(a, b)]
        out[a] = acc
    return out


def reference_witness(table: js.JacobiTable, check: str):
    """First failure of an exact check as (point, lhs, rhs), or None: a plain
    loop over the public *_sides functions in lexicographic order, over
    triples for the cocycle forms and quadruples for the convolution sum."""
    els = table.group.elements
    if check == "cocycle-star":
        sides, points = js.cocycle_star_sides, itertools.product(els, repeat=3)
    elif check == "cocycle-direct":
        sides, points = js.cocycle_direct_sides, itertools.product(els, repeat=3)
    else:
        sides, points = js.convolution_sum_sides, itertools.product(els, repeat=4)
    for point in points:
        lhs, rhs = sides(table, *point)
        if lhs != rhs:
            return point, lhs, rhs
    return None


def reference_table(group: js.GroupSpec, pairs) -> js.JacobiTable:
    """J(alpha, beta) = (1/m) sum over index pairs (u, v) of
    zeta^(<alpha, u> + <beta, v>): one root_sum per entry."""
    m, els = group.m, group.elements
    return js.JacobiTable(group, [
        [
            js.Cyclotomic.root_sum(
                m,
                (js.pairing(group, a, els[u]) + js.pairing(group, b, els[v]) for u, v in pairs),
                den=m,
            )
            for b in els
        ]
        for a in els
    ])


def reference_twist_automorphism(table: js.JacobiTable, r: int) -> js.JacobiTable:
    """J(r alpha, r beta) at every (alpha, beta), one entry at a time."""
    g = table.group
    return js.JacobiTable(g, [
        [table.value(g.scale(r, alpha), g.scale(r, beta)) for beta in g.elements]
        for alpha in g.elements
    ])


def reference_twist_galois(table: js.JacobiTable, r: int) -> js.JacobiTable:
    """Every entry under zeta -> zeta^r, one Cyclotomic.galois at a time."""
    return js.JacobiTable(table.group, [[e.galois(r) for e in row] for row in table.values])


def moved_tables(q: int):
    """(name, table) for the field's table and for copies with (1, 2), and
    (2, 1) too where the move keeps symmetry, moved by a root of unity,
    3/7, c/(2^31 - 1), 2^70/3 and 1/2^62: int64 tables and tables of
    Python ints, with small and huge numerators and denominators."""
    t = table(q)
    m = q - 1
    yield f"q{q}", t
    v = t.values
    yield f"q{q}+zeta", t.with_entry(1, 2, v[1][2] + js.root_power(m, 1))
    for name, s in (("3/7", Fraction(3, 7)), ("c/(2^31-1)", Fraction(12345, 2**31 - 1)),
                    ("2^70/3", Fraction(2**70, 3)), ("1/2^62", Fraction(1, 2**62))):
        yield f"q{q}+{name}", t.with_entry(1, 2, v[1][2] + s).with_entry(2, 1, v[2][1] + s)


def extreme_tables(q: int):
    """moved_tables(q), and (1, 2) replaced by -2^63, by 2^63 - 1, by a
    cell whose coefficient strings fit int64 while one of its numerators
    over the cell's denominator 15 (3 * 2^62) does not, and by c (1 - zeta)
    with c = 3 * 2^61, whose Galois images can have the coefficient 2c;
    and the table divided by 2^63 with (1, 2) set to 0, whose zero cell
    alone keeps the denominator 1 while the common one, L, passes 2^63."""
    yield from moved_tables(q)
    t, m = table(q), q - 1
    yield f"q{q}:-2^63", t.with_entry(1, 2, js.Cyclotomic.from_rational(m, -(2**63)))
    yield f"q{q}:2^63-1", t.with_entry(1, 2, js.Cyclotomic.from_rational(m, 2**63 - 1))
    coeffs = [Fraction(1, 3), Fraction(2**62, 5)] + [0] * (js.euler_phi(m) - 2)
    yield f"q{q}:2^62/5", t.with_entry(1, 2, js.Cyclotomic.from_coefficients(m, coeffs))
    c = 3 * 2**61
    yield f"q{q}:c(1-zeta)", t.with_entry(1, 2, c - js.root_power(m, 1) * c)
    shrunk = js.JacobiTable(t.group, [[e * Fraction(1, 2**63) for e in row] for row in t.values])
    yield f"q{q}/2^63:0", shrunk.with_entry(1, 2, js.Cyclotomic.from_rational(m, 0))


def reference_table_from_pairs(group: js.GroupSpec, us, vs) -> js.JacobiTable:
    """table_from_pairs with its product taken in int64: row by row, a
    histogram of the exponents times the power-basis rows of zeta^e."""
    m = group.m
    pair = pairing_matrix(group)
    powers = np.array(reduction_data(m).rows[:m], dtype=np.int64)
    left = pair[:, np.asarray(us, dtype=np.intp)]
    right = pair[:, np.asarray(vs, dtype=np.intp)]
    offsets = np.arange(0, m * m, m)[:, None]
    num = np.empty((m, m, powers.shape[1]), dtype=np.int64)
    for a in range(m):
        bins = (left[a] + right) % m + offsets
        counts = np.bincount(bins.ravel(), minlength=m * m).reshape(m, m)
        np.matmul(counts, powers, out=num[a])
    content = np.gcd(np.gcd.reduce(num, axis=2), m)
    num //= content[:, :, None]
    return js.JacobiTable._from_arrays(group, num, m // content)


def reference_residues(table: js.JacobiTable) -> SimpleNamespace:
    """The arrays of verifier._Residues, evaluated prime by prime in int64:
    the numerators and L / den reduced mod p, their product reduced, times
    the powers of the prime's roots, each point written to its place in
    the interleaved order."""
    m = table.group.m
    red = reduction_data(m)
    deg = red.degree
    nums = table.num
    peaks = np.maximum(nums.max(axis=2), -nums.min(axis=2))
    dens, where = np.unique(table.den, return_inverse=True)
    dens, where = dens.tolist(), where.reshape(m, m)
    scale = math.lcm(*dens)
    mults = [scale // den for den in dens]
    top = max(k * int(peaks[where == i].max()) for i, k in enumerate(mults))
    s = top + 2 * scale
    bound = max(m, 2) * deg * s * s * (1 + deg * red.row_bound) + 2 * scale * (s + scale)
    fields = [verifier._prime_field(m, verifier._PRIME_LIMIT)]
    while math.prod(p for p, _ in fields) <= 2 * bound:
        if len(fields) == verifier._MAX_PRIMES:
            raise ValueError(f"table entries need more than {verifier._MAX_PRIMES} primes")
        fields.append(verifier._prime_field(m, fields[-1][0]))
    primes = [p for p, _ in fields]
    n = len(fields)
    values = np.empty((m, m, n * deg), dtype=np.int32)
    for i, (p, powers) in enumerate(fields):
        mult = np.array([k % p for k in mults])[where, None]
        res = np.remainder(nums, p).astype(np.int64)
        res *= mult
        res %= p
        res = res @ powers[:deg]
        res %= p
        values[:, :, i::n] = res
    return SimpleNamespace(
        values=values,
        moduli=np.tile(primes, deg),
        denominator=scale,
        scale=np.tile([scale % p for p in primes], deg),
        m_inverse=np.tile([pow(m, -1, p) for p in primes], deg),
        root_powers=np.stack([powers for _, powers in fields], axis=2).reshape(m, -1),
    )


def reference_symmetry_witness(r):
    """First (a, b) where J(a, b) and J(b, a) differ at some point of the
    evaluation r, a few rows a at a time: the row-chunked residue scan."""
    v = r.values
    for idx in verifier._chunks(r.m, r.m * v.shape[2] * v.itemsize):
        hit = verifier._first_true(r.differs(v[idx] - v[:, idx].transpose(1, 0, 2)).any(axis=-1))
        if hit is not None:
            i, b = hit
            return (int(idx[i]), b)
    return None


def reference_addition(group: js.GroupSpec, involution, support_map) -> tuple:
    """The carrier's addition as loops over every pair of symbols:
    0 is the identity, x (+) y = 0 if x = c y, else x i(x/y)^-1."""
    els = group.elements
    rows = [list(range(group.m + 1))]
    for x in els:
        row = [group.index(x) + 1]
        for y in els:
            if x == group.add(involution, y):
                row.append(ZERO_SYM)
            else:
                row.append(group.index(group.sub(x, support_map[group.sub(x, y)])) + 1)
        rows.append(row)
    return tuple(map(tuple, rows))


def reference_carrier_addition(field: js.FiniteField, exponents) -> tuple:
    """The field's addition as polynomial sums over every pair of symbols:
    symbol 0 is zero and symbol k >= 1 is generator**exponents[k - 1], for
    q - 1 exponents that are distinct modulo q - 1."""
    carrier = [field.zero] + [field.power(e) for e in exponents]
    sym = {e: i for i, e in enumerate(carrier)}
    return tuple(tuple(sym[field.add(a, b)] for b in carrier) for a in carrier)


def reference_oracle_addition_tables(group: js.GroupSpec) -> tuple:
    """GF(m + 1)'s addition pulled back through every isomorphism of the
    group onto its unit group, by reference_carrier_addition."""
    m = group.m
    pn = prime_power(m + 1)
    if pn is None:
        return ()
    f = js.build_field(*pn)
    tables = set()
    for images in itertools.product(range(m), repeat=len(group.factors)):
        exps = [sum(x * e for x, e in zip(el, images)) % m for el in group.elements]
        # a homomorphism needs n_j * e_j = 0 mod m; an injective one is onto
        if all(n * e % m == 0 for n, e in zip(group.factors, images)) and len(set(exps)) == m:
            tables.add(reference_carrier_addition(f, exps))
    return tuple(sorted(tables))


def reference_field_checks(at: js.AdditionTable) -> tuple[CheckResult, ...]:
    """The commutative, associative, distributive, identity and inverse
    checks on an addition table, as plain loops over every symbol, pair
    and triple in lexicographic order."""
    size = at.size
    t = at.table
    g = at.group

    def mul(i, j):
        if i == ZERO_SYM or j == ZERO_SYM:
            return ZERO_SYM
        return g.index(g.add(g.element(i - 1), g.element(j - 1))) + 1

    commutative = CheckResult("commutative", True)
    for i in range(size):
        for j in range(size):
            if t[i][j] != t[j][i]:
                commutative = CheckResult("commutative", False, (i, j), t[i][j], t[j][i])
                break
        if not commutative.passed:
            break

    associative = CheckResult("associative", True)
    for i in range(size):
        for j in range(size):
            tij = t[i][j]
            for k in range(size):
                if t[tij][k] != t[i][t[j][k]]:
                    associative = CheckResult(
                        "associative", False, (i, j, k), t[tij][k], t[i][t[j][k]]
                    )
                    break
            else:
                continue
            break
        if not associative.passed:
            break

    distributive = CheckResult("distributive", True)
    for z in range(size):
        for i in range(size):
            for j in range(size):
                lhs = mul(z, t[i][j])
                rhs = t[mul(z, i)][mul(z, j)]
                if lhs != rhs:
                    distributive = CheckResult("distributive", False, (z, i, j), lhs, rhs)
                    break
            else:
                continue
            break
        if not distributive.passed:
            break

    identity = CheckResult("identity", True)
    for s in range(size):
        if t[0][s] != s or t[s][0] != s:
            identity = CheckResult("identity", False, (s,), t[0][s], s)
            break

    inverses = CheckResult("inverses", True)
    for s in range(size):
        zeros = [u for u in range(size) if t[s][u] == ZERO_SYM]
        if len(zeros) != 1:
            inverses = CheckResult("inverses", False, (s,), len(zeros), 1)
            break
    return commutative, associative, distributive, identity, inverses


def _reference_transform(table: js.JacobiTable, alpha, x) -> js.Cyclotomic:
    g = table.group
    q_alpha = js.slice_function(table, alpha)
    acc = js.Cyclotomic.zero(g.m)
    for beta in g.elements:
        acc = acc + q_alpha[beta].mul_root(js.pairing(g, beta, x))
    return acc


def reference_fourier_support(table: js.JacobiTable):
    """The support stage as exact Cyclotomic loops: the unit slice's
    transform through js.dft, each value compared with 0 and 1."""
    g = table.group
    m = g.m
    transform = js.dft(g, js.slice_function(table, g.identity))
    zero, one = js.Cyclotomic.zero(m), js.Cyclotomic.root(m, 0)
    support = []
    for x in g.elements:
        v = transform[x]
        if v == one:
            support.append(x)
        elif v != zero:
            raise InconsistentTableError(
                "support", witness=x, detail=f"transform value {v} is not 0 or 1"
            )
    return tuple(support)


def reference_support_map(table: js.JacobiTable, support):
    """The support-map stage as exact Cyclotomic loops: each standard
    generator's transform at each support point matched against the m
    roots of unity."""
    g = table.group
    m = g.m
    generators = g.generators()
    roots = [js.Cyclotomic.root(m, e) for e in range(m)]
    smap = {}
    for x in support:
        exponents = []
        for gen in generators:
            acc = _reference_transform(table, gen, x)
            for e in range(m):
                if acc == roots[e]:
                    exponents.append(e)
                    break
            else:
                raise InconsistentTableError(
                    "support-map",
                    witness=(gen, x),
                    detail=f"transform value {acc} is not a root of unity",
                )
        candidates = [
            y
            for y in g.elements
            if all(js.pairing(g, gen, y) == e for gen, e in zip(generators, exponents))
        ]
        if len(candidates) != 1:
            raise InconsistentTableError(
                "support-map",
                witness=x,
                detail=f"{len(candidates)} dual elements match the transform values",
            )
        smap[x] = candidates[0]
    return smap


def reference_cross_check(table: js.JacobiTable, support, smap):
    """The first (alpha, x), by character and then point, where the
    transform of the slice at alpha is not [x in S] zeta^<alpha, i(x)>,
    summed as exact Cyclotomic loops; None if there is none."""
    g = table.group
    m = g.m
    sset = set(support)
    for alpha in g.elements:
        q_alpha = js.slice_function(table, alpha)
        for x in g.elements:
            acc = js.Cyclotomic.zero(m)
            for beta in g.elements:
                acc = acc + q_alpha[beta].mul_root(js.pairing(g, beta, x))
            want = js.Cyclotomic.root(m, js.pairing(g, alpha, smap[x])) if x in sset else 0
            if acc != want:
                return alpha, x
    return None


def moved_approx(at: js.ApproxTable, cells, change) -> js.ApproxTable:
    """The complex table with change applied to each of the given cells."""
    entries = [list(row) for row in at.entries]
    for i, j in cells:
        entries[i][j] = change(entries[i][j])
    return js.ApproxTable(at.group, tuple(tuple(row) for row in entries))


def _reference_approx_transform(at: js.ApproxTable, alpha_idx: int, x) -> complex:
    g = at.group
    m = g.m
    acc = 0j
    alpha = g.element(alpha_idx)
    for beta in g.elements:
        val = at.entries[g.index(g.sub(alpha, beta))][g.index(beta)]
        acc += val * cmath.exp(2j * cmath.pi * js.pairing(g, beta, x) / m)
    return acc


def reference_fourier_support_approx(at: js.ApproxTable, tol: float):
    """The complex support stage as a loop: one transform per point,
    summed term by term and compared with 0 and 1 within tol."""
    g = at.group
    support = []
    for x in g.elements:
        v = _reference_approx_transform(at, 0, x)
        if abs(v - 1) <= tol:
            support.append(x)
        elif abs(v) > tol:
            raise InconsistentTableError(
                "support", witness=x, detail=f"transform value {v} is not near 0 or 1"
            )
    return tuple(support)


def reference_support_map_approx(at: js.ApproxTable, support, tol: float):
    """The complex support-map stage as a loop: each standard generator's
    transform at each support point rounded to the nearest root of unity,
    which must lie within tol, then matched against every dual element."""
    g = at.group
    m = g.m
    generators = g.generators()
    smap = {}
    for x in support:
        exponents = []
        for gen in generators:
            v = _reference_approx_transform(at, g.index(gen), x)
            e = round(m * (cmath.phase(v) / (2 * cmath.pi))) % m
            if abs(v - cmath.exp(2j * cmath.pi * e / m)) > tol:
                raise InconsistentTableError(
                    "support-map",
                    witness=(gen, x),
                    detail=f"transform value {v} is not near a root of unity",
                )
            exponents.append(e)
        candidates = [
            y
            for y in g.elements
            if all(js.pairing(g, gen, y) == e for gen, e in zip(generators, exponents))
        ]
        if len(candidates) != 1:
            raise InconsistentTableError(
                "support-map",
                witness=x,
                detail=f"{len(candidates)} dual elements match the transform values",
            )
        smap[x] = candidates[0]
    return smap


def reference_cocycle_approx(at: js.ApproxTable, tol: float, star: bool):
    """First failure of a complex cocycle check as (witness, lhs, rhs), or
    None: both sides built as whole m^3 arrays, the first triple whose
    difference is not within tol (NaN included) taken in index order."""
    g = at.group
    m = g.m
    add, neg, _ = index_tables(g)
    t = np.array(at.entries, dtype=complex)
    if star:
        s = t.copy()
        s[0, :] -= 1
        s[:, 0] -= 1
        lhs3 = s[:, :, None] * s[add, :]
        rhs3 = s[:, add] * s[None, :, :]
    else:
        ar = np.arange(m)
        j_inv = t[ar, neg]
        d_vec = (ar == 0).astype(float)
        d_pair = (add == 0).astype(float)
        lhs3 = (
            t[:, :, None] * t[add, :]
            - (j_inv[:, None] * d_pair)[:, :, None]
            + np.outer(d_vec, d_vec)[:, :, None]
        )
        rhs3 = (
            t[:, add] * t[None, :, :]
            - j_inv[None, None, :] * d_pair[None, :, :]
            + np.outer(d_vec, d_vec)[None, :, :]
        )
    bad = np.argwhere(~(np.abs(lhs3 - rhs3) <= tol))
    if not bad.size:
        return None
    a, b, c = bad[0]
    els = g.elements
    return (els[a], els[b], els[c]), lhs3[a, b, c], rhs3[a, b, c]
