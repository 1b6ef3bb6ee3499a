"""Reconstruction of the unique field structure behind a verified table.

The pipeline inverts the Fourier description of a Jacobi-type table:
the transform of the unit slice is a 0/1 indicator whose support S,
together with a map i from S into the dual group, rebuilds the table as

    J(alpha, beta) = (1/m) sum over x in S of alpha(i(x)) beta(i(x) x^-1).

When S misses exactly one square root of the identity c, addition on
the dual group plus a zero symbol is given by x (+) y = 0 if x = c y and
x * i(x/y)^-1 otherwise, and the result is a finite field whose table
reproduces the input.  Full support forces the trivial group (the
boolean degenerate case); anything else means the input was never a
Jacobi function.  The zero symbol annihilates under multiplication:
0 * x = x * 0 = 0.  The addition is held as its Zech vector
x (+) 1 = x i(x)^-1, 0 at x = c, which fixes the rest of the law:
x (+) y = y (x/y (+) 1) for nonzero x and y.

Transforms are read off the verifier's evaluation of the table, the
same stages for both kinds: the transform of the slice at alpha, scaled
by the common denominator L, is L T_alpha(chi_x) = sum_beta
L J(alpha - beta, beta) chi_x(beta) at every point, one matrix product
per point (_Evaluation.transforms, which the convolution scan shares).
For an exact table the points are residues modulo primes; a transform
is a linear sum of entries, so its coefficients stay far below the bound
under which the evaluation proves equality, and "is 0", "is 1" and "is
zeta^e" are decided exactly by comparing residues with 0, L and L r^e at
every point, with e read where the L r^e are distinct.  A complex table is
evaluated at one point, its entries, with L = 1 and r = exp(2 pi i / m);
the same comparisons hold within the tolerance, with e the phase rounded
half to even to the nearest m-th of a turn.  A failure quotes the value
the scalar transform computes, in the table's own arithmetic, at the
failing point only.

The same stages, run at the first evaluation point only, certify an
exact table, and their report is the certificate (see certify).  At a
complex table's one point they certify it when the rebuilt field's
table bounds every scan's difference within the tolerance.  The
verifier accepts a certified table without scanning, and reconstruct
reports a copy of the certificate instead of running the stages again;
it reports a complex table's stages from the run certify made even when
the bound fails.  Each reconstruct evaluates the table once, at one
point if it is certified, and the verifier and the stages read that one
evaluation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .abelian import Element, GroupSpec, index_tables, pairing_matrix
from .cyclotomic import Cyclotomic
from .ffield import prime_power
from .jacobi import ApproxTable, JacobiTable, _embedding, table_from_pairs, table_from_support
from .verifier import (
    DEFAULT_TOLERANCE,
    CheckResult,
    VerificationReport,
    _evaluate,
    _Evaluation,
    _first_true,
    verify_all,
)

ZERO_SYM = 0  # carrier symbol of the additive identity
ONE_SYM = 1  # carrier symbol of the dual-group identity


class InconsistentTableError(Exception):
    """The input cannot come from a Jacobi function; carries the stage
    that failed and a concrete witness."""

    def __init__(self, stage: str, witness=None, detail: str = ""):
        self.stage = stage
        self.witness = witness
        self.detail = detail
        msg = f"inconsistent table at stage {stage!r}"
        if detail:
            msg += f": {detail}"
        if witness is not None:
            msg += f" (witness {witness!r})"
        super().__init__(msg)


@dataclass(frozen=True)
class FieldCase:
    """Support misses exactly one involution; a field reconstruction exists."""

    involution: Element


@dataclass(frozen=True)
class BooleanCase:
    """Full support on the trivial group: the degenerate non-field solution."""


@dataclass(frozen=True)
class AdditionTable:
    """Addition on the carrier {0} + dual group, held as its Zech vector.

    Symbol 0 is the additive identity; symbol k >= 1 is the dual element
    of index k - 1.  zech[t] is the symbol of e_t (+) 1, for e_t the dual
    element of index t, and 0 at the involution c; for nonzero x and y,
    x (+) y = y (x/y (+) 1).
    """

    group: GroupSpec
    zech: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.zech) + 1

    def _rows(self) -> np.ndarray:
        """The (m+1) x (m+1) table of symbols."""
        add, _, sub = index_tables(self.group)
        z = np.asarray(self.zech, dtype=np.intp)[sub]  # [x, y] -> x/y (+) 1
        rows = np.zeros((self.size, self.size), dtype=np.intp)
        rows[0] = rows[:, 0] = np.arange(self.size)
        rows[1:, 1:] = np.where(z == ZERO_SYM, ZERO_SYM, add[np.arange(len(z)), z - 1] + 1)
        return rows

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The (m+1) x (m+1) addition table of symbols."""
        return tuple(map(tuple, self._rows().tolist()))


@dataclass(frozen=True)
class FieldChecks:
    commutative: CheckResult
    associative: CheckResult
    distributive: CheckResult
    identity: CheckResult
    inverses: CheckResult
    characteristic: int | None
    prime_power_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.commutative.passed
            and self.associative.passed
            and self.distributive.passed
            and self.identity.passed
            and self.inverses.passed
            and self.prime_power_ok
        )


@dataclass
class ReconstructionReport:
    group: GroupSpec
    case: str  # "field" | "boolean" | "inconsistent"
    verification: VerificationReport | None = None
    support: tuple[Element, ...] | None = None
    support_map: dict[Element, Element] | None = None
    image: tuple[Element, ...] | None = None
    involution: Element | None = None
    baseline: Cyclotomic | None = None  # J(1,1) - 1
    baseline_ok: bool | None = None  # J(1,a) = baseline + delta(a) for all a
    addition: AdditionTable | None = None
    field_checks: FieldChecks | None = None
    roundtrip_ok: bool | None = None
    inconsistency: dict | None = None
    approximate: bool = False
    # a complex table's bound on every difference its scans compute, proved
    # from the rebuilt table (see _scan_bound); not part of the verdicts
    scan_bound: float | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        if self.case == "inconsistent":
            return False
        if self.verification is not None and not self.verification.passed:
            return False
        if self.case == "field":
            return bool(
                self.field_checks and self.field_checks.passed and self.roundtrip_ok
            )
        return bool(self.roundtrip_ok)


# -- pipeline stages -------------------------------------------------------


_ALL_POINTS = slice(None)
_FIRST_POINT = slice(0, 1)


def _transform_at(table: JacobiTable | ApproxTable, alpha: Element, x: Element):
    """The transform of the slice at alpha, at x, summed term by term in
    the table's own arithmetic: the value a failure quotes."""
    g = table.group
    sub, pair = index_tables(g)[2], pairing_matrix(g)
    a, k = g.index(alpha), g.index(x)
    if isinstance(table, ApproxTable):
        acc, times_root = 0j, lambda value, e: value * cmath.exp(2j * cmath.pi * e / g.m)
    else:
        acc, times_root = Cyclotomic.zero(g.m), Cyclotomic.mul_root
    for b in range(g.m):  # J(alpha - beta, beta) zeta^<beta, x>
        acc = acc + times_root(table.entry(int(sub[a, b]), b), int(pair[b, k]))
    return acc


def _off_target(
    table, stage: str, alpha: Element, x: Element, witness, target: str
) -> InconsistentTableError:
    """The error for a transform at x that is not (near, for a complex
    table) the target value, quoting the value at that point alone."""
    near = " near" if isinstance(table, ApproxTable) else ""
    detail = f"transform value {_transform_at(table, alpha, x)} is not{near} {target}"
    return InconsistentTableError(stage, witness=witness, detail=detail)


def _support(table, one, bad) -> tuple[Element, ...]:
    """The points x where the unit slice's transform is 1 (one[x]), unless
    it is neither 0 nor 1 somewhere (bad[x]): the first such x disproves."""
    g = table.group
    if bad.any():
        x = g.elements[bad.argmax()]
        raise _off_target(table, "support", g.identity, x, x, "0 or 1")
    return tuple(x for x, hit in zip(g.elements, one) if hit)


def _match_support(table, support, generators, exponents, found) -> np.ndarray:
    """Index of the dual element y matched at each support point: the
    unique y with <gen, y> = exponents[x, gen] for every generator, where
    found[x, gen] says the transform there is (near) a root of unity.  At
    the first support point, in order, where one is not (at its first
    such generator) or the match is not unique, the table is inconsistent."""
    g = table.group
    pair = pairing_matrix(g)[[g.index(gen) for gen in generators]]
    candidates = (pair.T[None] == exponents[:, None, :]).all(axis=-1)  # [x, y]
    counts = candidates.sum(axis=1)
    failed = ~found.all(axis=1) | (counts != 1)
    if failed.any():
        i = int(failed.argmax())
        x = support[i]
        if not found[i].all():
            gen = generators[int((~found[i]).argmax())]
            raise _off_target(table, "support-map", gen, x, (gen, x), "a root of unity")
        raise InconsistentTableError(
            "support-map",
            witness=x,
            detail=f"{counts[i]} dual elements match the transform values",
        )
    return candidates.argmax(axis=1)


def fourier_support(
    table: JacobiTable | ApproxTable,
    residues: _Evaluation | None = None,
    *,
    points: slice = _ALL_POINTS,
) -> tuple[Element, ...]:
    """Support of the transformed unit slice; every transform value must
    be 0 or 1 (exactly, or within the tolerance of a complex table's
    evaluation), else the table is inconsistent.  `residues` is the
    table's evaluation, if the caller has it; `points` restricts the
    decision to some of its points, where a value that differs from 0 and
    1 still disproves, but agreement no longer proves."""
    r = residues or _evaluate(table)
    t = r.transforms([0], points)[:, 0].T  # [x, k]; index 0 is the identity
    one = ~r.differs(t - r.scale[points]).any(axis=1)
    return _support(table, one, ~one & r.differs(t).any(axis=1))


def recover_support_map(
    table: JacobiTable | ApproxTable,
    support: tuple[Element, ...],
    *,
    residues: _Evaluation | None = None,
    points: slice = _ALL_POINTS,
) -> dict[Element, Element]:
    """For each support point x, the unique dual element matched by the
    character a -> Q_a-transform at x.

    Only the group's standard generators are interrogated (the pairing
    separates points, so that determines the element).  Support points
    are handled in order, and at each one the generators in order.
    `residues` and `points` are as for fourier_support.
    """
    g = table.group
    generators = g.generators()
    r = residues or _evaluate(table)
    gens = [g.index(gen) for gen in generators]
    xs = [g.index(x) for x in support]
    roots = r.reduce(r.scale[points] * r.root_powers[:, points], points)  # [e, k] = L r^e
    t = r.transforms(gens, points)[:, :, xs].T  # [support point, generator, k]
    # read e, then confirm the transform is L r^e at every point
    exponents = r.exponents(t, roots)
    found = ~r.differs(t - roots[exponents]).any(axis=-1)
    ys = _match_support(table, support, generators, exponents, found)
    return {x: g.elements[y] for x, y in zip(support, ys)}


def classify_support(
    group: GroupSpec,
    support: tuple[Element, ...],
    support_map: dict[Element, Element],
) -> FieldCase | BooleanCase:
    """Decide between the field case and the boolean degenerate case.

    Requires the support closed under inversion and the support map to
    satisfy i(x) = x i(x^-1); full support on a nontrivial group, or any
    other shape, is inconsistent.
    """
    m = group.m
    sset = set(support)
    for x in support:
        nx = group.neg(x)
        if nx not in sset:
            raise InconsistentTableError(
                "classify", witness=x, detail="support not closed under inversion"
            )
        if support_map[x] != group.add(x, support_map[nx]):
            raise InconsistentTableError(
                "classify", witness=x, detail="support map breaks i(x) = x i(x^-1)"
            )
    if len(sset) == m - 1:
        (missing,) = [e for e in group.elements if e not in sset]
        if group.add(missing, missing) != group.identity:
            raise InconsistentTableError(
                "classify",
                witness=missing,
                detail="excluded element is not a square root of the identity",
            )
        image = set(support_map.values())
        if group.identity in image or len(image) != m - 1:
            raise InconsistentTableError(
                "classify",
                witness=tuple(sorted(image)),
                detail="support map is not a bijection onto the non-identity elements",
            )
        return FieldCase(involution=missing)
    if len(sset) == m:
        if m == 1:
            return BooleanCase()
        raise InconsistentTableError(
            "classify",
            witness=None,
            detail="full support on a group of order >= 2 is impossible",
        )
    raise InconsistentTableError(
        "classify",
        witness=len(sset),
        detail=f"support has {len(sset)} elements; expected {m - 1} or {m}",
    )


def build_addition(
    group: GroupSpec, involution: Element, support_map: dict[Element, Element]
) -> AdditionTable:
    """The addition x (+) y = 0 if x = c y, else x i(x/y)^-1, with 0 as
    identity, held as its Zech vector x (+) 1 = x i(x)^-1, 0 at x = c."""
    sub = index_tables(group)[2]
    zech = [
        ZERO_SYM if x == involution else int(sub[k, group.index(support_map[x])]) + 1
        for k, x in enumerate(group.elements)
    ]
    return AdditionTable(group, tuple(zech))


def _first_failure(name: str, lhs, rhs, lead: tuple = ()) -> CheckResult:
    """The first position, in order, where a slab's lhs and rhs differ,
    prefixed by the slab's leading index, or a pass."""
    idx = _first_true(lhs != rhs)
    if idx is None:
        return CheckResult(name, True)
    return CheckResult(name, False, lead + idx, int(lhs[idx]), int(rhs[idx]))


def verify_field(at: AdditionTable) -> FieldChecks:
    """Check the field axioms on the carrier and derive the characteristic,
    confirming the carrier size is a power of it, with the verdicts and
    witnesses of exhaustive scans in lexicographic order, in O(q^2).

    The carrier has 0 as identity, and x (+) y = y (x/y (+) 1) for nonzero
    x and y gives z (x (+) y) = zx (+) zy: it is distributive by
    construction.  Associativity, (i (+) j) (+) k = i (+) (j (+) k), holds
    at every triple with i = 0, by the identity.  For nonzero i, dividing
    by i maps both sides at (i, j, k) to those at (1, j/i, k/i), and
    multiplication is injective, so (i, j, k) fails exactly when
    (1, j/i, k/i) does.  So every slab passes when the slab i = 1 does,
    and otherwise its first failure is the whole scan's, with the same
    witness and sides.  Commutativity and inverses scan the q^2 pairs."""
    a = at._rows()
    commutative = _first_failure("commutative", a, a.T)
    # (1 + j) + k = 1 + (j + k)
    associative = _first_failure("associative", a[a[ONE_SYM]], a[ONE_SYM][a], (ONE_SYM,))
    zeros = (a == ZERO_SYM).sum(axis=1)  # each symbol has one additive inverse
    inverses = _first_failure("inverses", zeros, np.ones_like(zeros))

    acc, copies = ONE_SYM, 1
    while copies <= at.size and acc != ZERO_SYM:
        acc, copies = at.zech[acc - 1], copies + 1  # acc (+) 1
    characteristic = copies if acc == ZERO_SYM else None
    pn = prime_power(at.size)
    return FieldChecks(
        commutative=commutative,
        associative=associative,
        distributive=CheckResult("distributive", True),
        identity=CheckResult("identity", True),
        inverses=inverses,
        characteristic=characteristic,
        prime_power_ok=pn is not None and pn[0] == characteristic,
    )


def recompute_table(at: AdditionTable) -> JacobiTable:
    """Rebuild the table from the addition law:
    J(alpha, beta) = (1/m) sum over nonzero x (+) y = 1 of alpha(x) beta(y).
    For t with f = t (+) 1 nonzero, the pair is y = f^-1 and x = t y."""
    add, neg, _ = index_tables(at.group)
    zech = np.asarray(at.zech, dtype=np.intp)
    ts = np.flatnonzero(zech != ZERO_SYM)
    ys = neg[zech[ts] - 1]
    return table_from_pairs(at.group, add[ts, ys], ys)


_UNIT = 2.0**-53  # float64 unit roundoff


def _scan_bound(values: np.ndarray, embedded: np.ndarray, rebuilt: JacobiTable) -> float:
    """A bound on every difference the cocycle and convolution scans
    compute on the complex table `values`, proved from the exact table
    J_F of the rebuilt field, which satisfies every identity exactly.

    The embedding A of J_F (_embedding) is within delta of it: each float
    root of unity is within 32 u of the true one (u the unit roundoff),
    and each entry sums phi(m) products of its coefficients with them, so
    |A - J_F| <= 2 (phi(m) + 40) u sum |c| / den.  Then eps' = max |J - A|,
    widened by its own rounding, plus delta bounds |J - J_F|, and
    M = max |A| + delta bounds |J_F|.  Each side of every identity sums
    at most max(m, 2) products of two entries plus linear delta terms, and
    a product of two entries within eps' of values of size at most M moves
    by at most 2 M eps' + eps'^2.  So a convolution difference is at most
    m (2 M eps' + eps'^2) + eps', and a cocycle difference, on centered
    entries of size at most M + 2, at most 2 (2 (M + 2) eps' + eps'^2)
    + 2 eps'.

    To each is added the forward error rho of the scans' float64
    arithmetic on entries of size at most X = M + eps'.  The cocycle pass
    takes two complex products of entries (each within sqrt(5) u X^2 of
    the true one) and their difference, then adds the delta terms, each
    -J + 1 or less, and for the starred form in column c = -b the skew
    J(b, -b) - J(-b, b): every one of these is formed with one rounding,
    and each running sum stays below 2 X^2 + 4 X + 2, so to first order
    rho <= (12.5 X^2 + 11 X + 7) u <= 16 u (X + 2)^2, doubled for the
    higher orders: rho <= 32 u (X + 2)^2.  The convolution scan decides
    every row it flags on the inverse transform e[s2, y], the difference at
    (s1, s2, y - s1), and passes every row it does not flag, so a bound on
    every computed e proves it passes.  The slice transforms T_s, of size
    at most T = m X, are m-term sums of products with roots of unity
    within 32 u, Q^_s(chi) = chi(s) T_s(-chi) takes one more product with
    such a root, and e is the product T_s1 Q^_s2, its difference from
    T_{s1+s2} and one inverse transform: to first order rho <= (T^2 + T)
    (3 m + 160) u, doubled for the higher orders.  A last factor
    1 + 64 u covers the rounding of this formula and of |x| in the scans'
    test |x| <= tolerance."""
    m, phi = rebuilt.num.shape[1:]
    u = _UNIT
    spread = (np.abs(rebuilt.num).sum(axis=2) / rebuilt.den).max()
    delta = 2 * (phi + 40) * u * spread
    eps = np.abs(values - embedded).max() * (1 + 3 * u) + delta
    big = np.abs(embedded).max() + delta
    x = big + eps
    t = m * x
    convolution = m * (2 * big * eps + eps**2) + eps + 2 * (t * t + t) * (3 * m + 160) * u
    cocycle = 2 * (2 * (big + 2) * eps + eps**2) + 2 * eps + 32 * (x + 2) ** 2 * u
    return float(max(convolution, cocycle) * (1 + 64 * u))


def _rebuild(
    table: JacobiTable | ApproxTable,
    r: _Evaluation,
    *,
    points: slice = _ALL_POINTS,
) -> ReconstructionReport:
    """Run every stage on the evaluation r, read at the given points, into
    a report: support, map and classification up to the first
    inconsistency, then the carrier's addition and table (the support sum
    in the boolean case), the round trip, the baseline, the field checks,
    and for a complex table the bound on its scans' differences."""
    approx = isinstance(table, ApproxTable)
    g = table.group
    report = ReconstructionReport(group=g, case="inconsistent", approximate=approx)
    try:
        support = fourier_support(table, r, points=points)
        smap = recover_support_map(table, support, residues=r, points=points)
        report.support = support
        report.support_map = smap
        report.image = tuple(sorted(set(smap.values())))
        case = classify_support(g, support, smap)
    except InconsistentTableError as err:
        report.inconsistency = {
            "stage": err.stage,
            "witness": err.witness,
            "detail": err.detail,
        }
        return report

    if isinstance(case, BooleanCase):
        report.case = "boolean"
        rebuilt = table_from_support(g, support, smap)
    else:
        report.case = "field"
        report.involution = case.involution
        report.addition = build_addition(g, case.involution, smap)
        rebuilt = recompute_table(report.addition)
    report.baseline = (rebuilt if approx else table).entry(0, 0) - 1
    # J(1, alpha) = baseline + delta(alpha) for every alpha
    if approx:
        got, embedded = r.values[:, :, 0], _embedding(rebuilt)
        report.roundtrip_ok = not r.differs(got - embedded).any()
        # the rebuilt table's row 0 is the baseline plus delta
        report.baseline_ok = not r.differs(got[0] - embedded[0]).any()
        report.scan_bound = _scan_bound(got, embedded, rebuilt)
    else:
        report.roundtrip_ok = table == rebuilt
        # past J(1, 1) = baseline + 1, the row holds the baseline's arrays
        b = report.baseline
        report.baseline_ok = bool(
            (table.num[0, 1:] == b.num).all() and (table.den[0, 1:] == b.den).all()
        )
    if report.addition is not None:
        report.field_checks = verify_field(report.addition)
    return report


def certify(
    table: JacobiTable | ApproxTable, residues: _Evaluation
) -> ReconstructionReport | str:
    """Rebuild the field behind a table and return the report that proves
    the table passes every check, or the name of the step that failed.

    For an exact table two free tests come first.  A field's table has
    its common denominator L dividing m ("denominator"), and each of its
    rows sums to 0 ("row sums", tested at the first evaluation point): the
    sum over beta of J(alpha, beta) collects the pairs x (+) y = 1 with
    y = 1, and only x = 0 has that.  Then the stages run with the support
    and map read at the first evaluation point only; they stop at an
    inconsistency's stage, or at "classify" in the boolean case.  When the
    carrier's table equals the input exactly ("exact compare", tested
    first) and it passes every field axiom ("field"), the input is a
    field's Jacobi-sum table with its characters relabelled by a group
    isomorphism, so it satisfies all three axioms (the forward direction,
    Berndt, Evans and Williams, Gauss and Jacobi Sums, ch. 2): the exact
    comparison, not the stages, is the proof.

    A complex table runs the stages at its one point, which is every
    point, and their report is kept on the evaluation for reconstruct.
    It stops where an exact table does, "exact compare" meaning a round
    trip beyond the tolerance.  The rebuilt field's table satisfies the
    axioms exactly; when the bound its distance from the input gives on
    every scan's difference (_scan_bound) is within the tolerance, the
    scans would pass, and otherwise ("bound") they decide."""
    approx = isinstance(table, ApproxTable)
    if approx:
        report = residues.rebuilt = _rebuild(table, residues)
    elif table.group.m % residues.denominator:
        return "denominator"
    elif (residues.at(_FIRST_POINT)[:, :, 0].sum(axis=1) % residues.moduli[0]).any():
        return "row sums"
    else:
        report = _rebuild(table, residues, points=_FIRST_POINT)
    if report.inconsistency is not None:
        return report.inconsistency["stage"]
    if report.case != "field":
        return "classify"
    if not report.ok:
        return "field" if report.roundtrip_ok else "exact compare"
    if approx and report.scan_bound > residues.tolerance:
        return "bound"
    return report


# -- the full pipeline -------------------------------------------------------


def reconstruct(
    table: JacobiTable | ApproxTable,
    *,
    force: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ReconstructionReport:
    """Run support recovery, classification, addition synthesis, field
    verification and the round trip, refusing unverified input unless
    forced.  The table is evaluated once, at one point if certified, for
    the verifier and every stage.  A certified table is reported by a copy
    of the certificate: it is the support sum over the pairs
    (i(s), i(s) - s), so the transform of its slice at alpha is
    [x in S] zeta^<alpha, i(x)> at every x, and the stages read at every
    point what the certificate read at the first.  Complex-valued tables
    take the same stages, decided within the tolerance, and their one
    point is every point, so the stages' run in certify is reported
    whether or not it certified."""
    approx = isinstance(table, ApproxTable)
    r = _evaluate(table, tolerance)
    verification = verify_all(table, tolerance=tolerance, residues=r)
    if not verification.passed and not force:
        failed = next(c for c in verification.checks if not c.passed)
        report = ReconstructionReport(
            group=table.group,
            case="inconsistent",
            inconsistency={
                "stage": "verification",
                "check": failed.check,
                "witness": failed.witness,
            },
            approximate=approx,
        )
    elif verification.certificate is not None:
        report = replace(verification.certificate)
    else:
        report = r.rebuilt or _rebuild(table, r)
    report.verification = verification
    return report
