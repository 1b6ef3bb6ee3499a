"""Axiom checks for Jacobi-type tables.

Three axioms are decided with exact verdicts and counterexample
witnesses: symmetry of the table, the cocycle identity on centered
values (in its starred form and in the delta-corrected direct form,
which agree triple by triple on any table whose inverse-pair entries
are transpose-symmetric, in particular on every symmetric table), and
the convolution-sum identity.

The convolution-sum check runs in one of three modes: exhaustive over
all argument quadruples, "convolution" (the equivalent slice identity
Q_a * Q_b = Q_ab, valid once symmetry holds, one power of the group
order cheaper), or seeded random sampling of quadruples.

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
are equal.  Each scan runs in lexicographic order and stops at its first
failure, whose two unequal values the scalar *_sides functions compute.
Complex-valued tables are checked against an absolute tolerance and
flagged as approximate; a NaN or infinite difference fails.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .abelian import Element, GroupSpec, index_tables
from .cyclotomic import Cyclotomic, euler_phi, reduction_data
from .ffield import is_prime
from .jacobi import ApproxTable, JacobiTable

DEFAULT_EXHAUSTIVE_MAX = 10
DEFAULT_CONVOLUTION_MAX = 40
DEFAULT_SAMPLE_COUNT = 20000
DEFAULT_SEED = 0
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
    convolution_mode: str
    sample_count: int | None = None
    seed: int | None = None
    approximate: bool = False
    tolerance: float | None = None

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


def default_convolution_mode(
    m: int,
    exhaustive_max: int = DEFAULT_EXHAUSTIVE_MAX,
    convolution_max: int = DEFAULT_CONVOLUTION_MAX,
) -> str:
    if m <= exhaustive_max:
        return "exhaustive"
    if m <= convolution_max:
        return "convolution"
    return "sampled"


# -- per-point identities (witness values) --------------------------------


def _star(table: JacobiTable, i: int, j: int) -> Cyclotomic:
    v = table.values[i][j]
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
    v = table.values
    lhs = v[a][b] * v[ab][c]
    if ab == 0:
        lhs = lhs - v[a][g.index(g.neg(alpha))]
    if a == 0 and b == 0:
        lhs = lhs + 1
    rhs = v[a][bc] * v[b][c]
    if bc == 0:
        rhs = rhs - v[c][g.index(g.neg(gamma))]
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
    powers r^i (i < phi(m)) of the primitive m-th roots of unity r mod p."""
    radicals = [r for r in range(2, m + 1) if m % r == 0 and is_prime(r)]
    p = next(p for p in range((below - 2) // m * m + 1, 1, -m) if is_prime(p))
    candidates = (pow(x, (p - 1) // m, p) for x in range(2, p))
    w = next(w for w in candidates if all(pow(w, m // r, p) != 1 for r in radicals))
    roots = [pow(w, k, p) for k in range(m) if math.gcd(k, m) == 1]
    powers = np.array([[pow(r, i, p) for r in roots] for i in range(euler_phi(m))], dtype=np.int64)
    powers.flags.writeable = False
    return p, powers


class _Residues:
    """The table scaled to integers over its common denominator L and
    evaluated at every primitive m-th root of unity modulo enough primes:
    values[i, j, k] is L * J(i, j) at point k, modulo moduli[k], stored as
    int32 and widened to int64 before any product."""

    def __init__(self, table: JacobiTable):
        g = table.group
        m = g.m
        red = reduction_data(m)
        deg = red.degree
        entries = [e for row in table.values for e in row]
        scale = math.lcm(*(e.den for e in entries))
        mults = [scale // e.den for e in entries]
        peaks = [max(map(abs, e.num)) for e in entries]
        top = max(c * k for c, k in zip(peaks, mults))
        wide = max(peaks) >= 1 << 63  # such numerators stay Python ints
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
        for idx in self.chunks(m, m):
            lo, hi = idx[0], idx[-1] + 1
            nums = np.array(
                [e.num for e in entries[lo * m : hi * m]], dtype=object if wide else np.int64
            ).reshape(hi - lo, m, deg)
            for i, (p, powers) in enumerate(fields):
                res = np.remainder(nums, p).astype(np.int64, copy=False)
                res *= np.array([c % p for c in mults[lo * m : hi * m]]).reshape(hi - lo, m, 1)
                res %= p
                res = res @ powers
                res %= p
                self.values[lo:hi, :, i * deg : (i + 1) * deg] = res
        self.moduli = np.repeat(primes, deg)
        self.scale = np.repeat([scale % p for p in primes], deg)
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


def _first_hit(diff) -> tuple[int, ...] | None:
    """Leading index of the first nonzero evaluation vector, or None."""
    bad = diff.any(axis=-1)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))


def _cocycle_witness(r: _Residues, star: bool):
    """First (a, b, c) where the starred or the delta-corrected cocycle
    identity, scaled by L^2, fails at some point.  The starred form centers
    r.values in place."""
    m, P, L, add, neg = r.m, r.moduli, r.scale, r.add, r.neg
    v = r.values
    if star:
        v[0] -= L
        v[:, 0] -= L
        v %= P
    else:
        # the delta terms sit at b = -a on the left and at c = -b on the right
        ar = np.arange(m)
        left = -L * v[ar, neg] % P
        right = -L * v[neg, ar] % P
        left[0] += L * L
        right[0] += L * L
    for idx in r.chunks(m * m, m):
        a, b = np.divmod(idx, m)
        diff = np.multiply(v[add[a, b]], v[a, b, None], dtype=np.int64)
        diff -= np.multiply(v[a[:, None], add[b]], v[b], dtype=np.int64)
        if not star:
            at = b == neg[a]
            diff[at] += left[a[at], None]
            diff[np.arange(len(idx)), neg[b]] -= right[b]
        diff %= P
        hit = _first_hit(diff)
        if hit is not None:
            i, c = hit
            return (int(a[i]), int(b[i]), c)
    return None


def _quadruple_witness(r: _Residues, quads):
    """First quadruple, of all m^4 in lexicographic order or of the sorted
    array `quads`, where the convolution-sum identity fails at some point."""
    m, P, L, add, addneg = r.m, r.moduli, r.scale, r.add, r.addneg
    v = r.values
    n = m**4 if quads is None else len(quads)
    for idx in r.chunks(n, 2 * m):
        if quads is None:
            a1, a2, a3, a4 = np.unravel_index(idx, (m,) * 4)
        else:
            a1, a2, a3, a4 = quads[idx].T
        diff = np.einsum(
            "qbk,qbk->qk", v[add[a1], addneg[a2]], v[add[a3], addneg[a4]], dtype=np.int64
        )
        diff -= L * v[add[a1, a4], add[a2, a3]]
        diff %= P
        hit = _first_hit(diff)
        if hit is not None:
            i = hit[0]
            return (int(a1[i]), int(a2[i]), int(a3[i]), int(a4[i]))
    return None


def _slice_witness(r: _Residues):
    """First (a, b, chi) where (Q_a * Q_b)(chi) = Q_ab(chi), with
    Q_a(g) = J(a - g, g), fails at some point."""
    m, P, L, add, addneg = r.m, r.moduli, r.scale, r.add, r.addneg
    v = r.values
    ar = np.arange(m)
    for idx in r.chunks(m * m, m * m):
        a, b = np.divmod(idx, m)
        # Q_b(x - g) = J(b - x + g, x - g)
        diff = np.einsum(
            "pgk,pxgk->pxk", v[addneg[a], ar], v[addneg[b][:, addneg], addneg], dtype=np.int64
        )
        diff -= L * v[addneg[add[a, b]], ar]
        diff %= P
        hit = _first_hit(diff)
        if hit is not None:
            i, chi = hit
            return (int(a[i]), int(b[i]), chi)
    return None


# -- exact checks --------------------------------------------------------


def check_symmetry(table: JacobiTable) -> CheckResult:
    """Exhaustive equality of J(a,b) and J(b,a) over all ordered pairs."""
    m = table.group.m
    v = table.values
    for i in range(m):
        for j in range(m):
            if v[i][j] != v[j][i]:
                els = table.group.elements
                return CheckResult(
                    "symmetry", False, (els[i], els[j]), v[i][j], v[j][i]
                )
    return CheckResult("symmetry", True)


def _result(table: JacobiTable, check: str, witness, sides) -> CheckResult:
    if witness is None:
        return CheckResult(check, True)
    point = tuple(table.group.elements[i] for i in witness)
    return CheckResult(check, False, point, *sides(table, *point))


def check_cocycle_star(table: JacobiTable) -> CheckResult:
    """Exhaustive check of J*(a,b) J*(ab,c) = J*(a,bc) J*(b,c) over all triples."""
    witness = _cocycle_witness(_Residues(table), star=True)
    return _result(table, "cocycle-star", witness, cocycle_star_sides)


def check_cocycle_direct(table: JacobiTable) -> CheckResult:
    """Exhaustive check of the delta-corrected form of the cocycle identity."""
    witness = _cocycle_witness(_Residues(table), star=False)
    return _result(table, "cocycle-direct", witness, cocycle_direct_sides)


def _sample_quadruples(m: int, count: int, seed: int) -> list[tuple[int, int, int, int]]:
    """`count` seeded random quadruples of indices below m, deduplicated
    and sorted so the witness is the lexicographically smallest failure.

    Each index is what random.Random(seed).randrange(m) would return at
    that point of the stream: randrange(m) draws getrandbits(m.bit_length())
    until the value falls below m, and doing that here skips its argument
    handling, which is most of its cost.
    """
    bits = random.Random(seed).getrandbits
    k = m.bit_length()

    def draw() -> int:
        r = bits(k)
        while r >= m:
            r = bits(k)
        return r

    return sorted({(draw(), draw(), draw(), draw()) for _ in range(count)})


def check_convolution_sum(
    table: JacobiTable,
    mode: str | None = None,
    *,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = DEFAULT_SEED,
) -> CheckResult:
    """Check the convolution-sum identity in the requested mode.

    mode "exhaustive" scans all quadruples; "convolution" checks the
    slice identity at every (a, b, chi), which is equivalent once the
    symmetry check passes and is required to have passed; "sampled"
    checks seeded random quadruples.
    """
    m = table.group.m
    if mode is None:
        mode = default_convolution_mode(m)
    if mode not in ("exhaustive", "convolution", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "convolution" and not check_symmetry(table).passed:
        raise ValueError("convolution mode requires the symmetry check to pass")
    if mode == "convolution":
        witness = _slice_witness(_Residues(table))
        return _result(table, "convolution-sum", witness, slice_convolution_sides)
    quads = None
    if mode == "sampled":
        quads = np.array(_sample_quadruples(m, sample_count, seed), dtype=np.intp).reshape(-1, 4)
    witness = _quadruple_witness(_Residues(table), quads)
    return _result(table, "convolution-sum", witness, convolution_sum_sides)


# -- approximate (complex) path ------------------------------------------


def _first_bad_index(diff, tol: float) -> tuple[int, ...] | None:
    # a NaN difference fails: it is not within the tolerance
    bad = np.argwhere(~(np.abs(diff) <= tol))
    return tuple(int(i) for i in bad[0]) if bad.size else None


def _approx_checks(at: ApproxTable, tol: float):
    g = at.group
    m = g.m
    els = g.elements
    add, neg, addneg = index_tables(g)
    t = np.array(at.entries, dtype=complex)

    idx = _first_bad_index(t - t.T, tol)
    if idx is None:
        sym = CheckResult("symmetry", True)
    else:
        i, j = idx
        sym = CheckResult("symmetry", False, (els[i], els[j]), t[i, j], t[j, i])

    star = t.copy()
    star[0, :] -= 1
    star[:, 0] -= 1
    lhs3 = star[:, :, None] * star[add, :]
    rhs3 = star[:, add] * star[None, :, :]
    idx = _first_bad_index(lhs3 - rhs3, tol)
    if idx is None:
        coc_star = CheckResult("cocycle-star", True)
    else:
        a, b, c = idx
        coc_star = CheckResult(
            "cocycle-star", False, (els[a], els[b], els[c]), lhs3[a, b, c], rhs3[a, b, c]
        )

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
    idx = _first_bad_index(lhs3 - rhs3, tol)
    if idx is None:
        coc_direct = CheckResult("cocycle-direct", True)
    else:
        a, b, c = idx
        coc_direct = CheckResult(
            "cocycle-direct",
            False,
            (els[a], els[b], els[c]),
            lhs3[a, b, c],
            rhs3[a, b, c],
        )
    return t, sym, coc_star, coc_direct


def _approx_convolution(at: ApproxTable, t, mode, tol, sample_count, seed):
    g = at.group
    m = g.m
    els = g.elements
    add, neg, addneg = index_tables(g)
    if mode == "exhaustive":
        # one slab per first argument keeps memory at O(m^3)
        x4 = t[add[:, None, :], addneg[None, :, :]]  # [a, b, g] = J(a+g, b-g)
        for a1 in range(m):
            lhs = np.einsum("bg,cdg->bcd", x4[a1], x4)
            rhs = t[add[a1][None, None, :], add[:, :, None]]
            idx = _first_bad_index(lhs - rhs, tol)
            if idx is not None:
                quad = (els[a1],) + tuple(els[i] for i in idx)
                return CheckResult("convolution-sum", False, quad, lhs[idx], rhs[idx])
        return CheckResult("convolution-sum", True)
    if mode == "convolution":
        ar = np.arange(m)
        q = t[addneg, ar[None, :]]
        for a in range(m):
            for b in range(m):
                lhs = q[b][addneg] @ q[a]
                rhs = q[add[a, b]]
                idx = _first_bad_index(lhs - rhs, tol)
                if idx is not None:
                    chi = idx[0]
                    return CheckResult(
                        "convolution-sum",
                        False,
                        (els[a], els[b], els[chi]),
                        lhs[chi],
                        rhs[chi],
                    )
        return CheckResult("convolution-sum", True)
    for a1, a2, a3, a4 in _sample_quadruples(m, sample_count, seed):
        acc = 0j
        for b in range(m):
            acc += t[add[a1, b], addneg[a2, b]] * t[add[a3, b], addneg[a4, b]]
        rhs = t[add[a1, a4], add[a2, a3]]
        if not abs(acc - rhs) <= tol:
            quad = (els[a1], els[a2], els[a3], els[a4])
            return CheckResult("convolution-sum", False, quad, acc, rhs)
    return CheckResult("convolution-sum", True)


# -- aggregation ----------------------------------------------------------


def verify_all(
    table: JacobiTable | ApproxTable,
    *,
    c_mode: str | None = None,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Run all axiom checks and aggregate the verdicts.

    The convolution-sum mode defaults by group order (exhaustive, then
    slice convolution, then sampling).  When the mode was auto-selected
    as "convolution" but symmetry failed, sampling is used instead; an
    explicitly requested mode is honored and may raise.
    """
    m = table.group.m
    requested = c_mode
    if isinstance(table, ApproxTable):
        t, sym, coc_star, coc_direct = _approx_checks(table, tolerance)
        mode = requested or default_convolution_mode(m)
        if requested is None and mode == "convolution" and not sym.passed:
            mode = "sampled"
        conv = _approx_convolution(table, t, mode, tolerance, sample_count, seed)
        return VerificationReport(
            symmetry=sym,
            cocycle_star=coc_star,
            cocycle_direct=coc_direct,
            convolution=conv,
            convolution_mode=mode,
            sample_count=sample_count if mode == "sampled" else None,
            seed=seed if mode == "sampled" else None,
            approximate=True,
            tolerance=tolerance,
        )

    sym = check_symmetry(table)
    coc_star = check_cocycle_star(table)
    coc_direct = check_cocycle_direct(table)
    # the two forms are provably triple-by-triple equivalent whenever the
    # inverse-pair entries are transpose-symmetric, so under symmetry any
    # disagreement is an internal bug; without symmetry they may differ
    # at triples whose middle arguments multiply to the identity
    if sym.passed and coc_star.passed != coc_direct.passed:
        raise RuntimeError("cocycle checkers disagree on a symmetric table; this is a bug")
    mode = requested or default_convolution_mode(m)
    if requested is None and mode == "convolution" and not sym.passed:
        mode = "sampled"
    conv = check_convolution_sum(table, mode, sample_count=sample_count, seed=seed)
    return VerificationReport(
        symmetry=sym,
        cocycle_star=coc_star,
        cocycle_direct=coc_direct,
        convolution=conv,
        convolution_mode=mode,
        sample_count=sample_count if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
    )
