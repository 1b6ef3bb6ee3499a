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
0 * x = x * 0 = 0.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .abelian import Element, GroupSpec, delta, dft, index_tables, pairing
from .cyclotomic import Cyclotomic
from .jacobi import ApproxTable, JacobiTable, slice_function, table_from_pairs, table_from_support
from .verifier import (
    DEFAULT_TOLERANCE,
    CheckResult,
    VerificationReport,
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
    """Addition on the carrier {0} + dual group, as (m+1) x (m+1) symbols.

    Symbol 0 is the additive identity; symbol k >= 1 is the dual element
    of index k - 1.  Multiplication extends the group law with an
    annihilating zero.
    """

    group: GroupSpec
    table: tuple[tuple[int, ...], ...]

    def add_sym(self, i: int, j: int) -> int:
        return self.table[i][j]

    def mul_sym(self, i: int, j: int) -> int:
        return int(self.mul[i, j])

    @cached_property
    def mul(self) -> np.ndarray:
        """The (m+1) x (m+1) multiplication table of symbols, read-only."""
        mul = np.pad(index_tables(self.group)[0] + 1, (1, 0))  # zero row and column
        mul.flags.writeable = False
        return mul

    @property
    def size(self) -> int:
        return len(self.table)


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


def fourier_support(table: JacobiTable) -> tuple[Element, ...]:
    """Support of the transformed unit slice; every transform value must
    be exactly 0 or 1, else the table is inconsistent."""
    g = table.group
    m = g.m
    unit_slice = slice_function(table, g.identity)
    transform = dft(g, unit_slice)
    zero = Cyclotomic.zero(m)
    one = Cyclotomic.one(m)
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


def _transform_at(table: JacobiTable, alpha: Element, x: Element) -> Cyclotomic:
    g = table.group
    q_alpha = slice_function(table, alpha)
    acc = Cyclotomic.zero(g.m)
    for beta in g.elements:
        acc = acc + q_alpha[beta].mul_root(pairing(g, beta, x))
    return acc


def recover_support_map(
    table: JacobiTable,
    support: tuple[Element, ...],
    generators: tuple[Element, ...] | None = None,
    strict: bool = False,
) -> dict[Element, Element]:
    """For each support point x, the unique dual element matched by the
    character a -> Q_a-transform at x.

    Only a generating set of characters is interrogated (the pairing
    separates points, so that determines the element); strict mode
    cross-checks the value at every character.
    """
    g = table.group
    m = g.m
    if generators is None:
        generators = g.generators()
    elif not g.generates(generators):
        raise ValueError("the given elements do not generate the group")
    roots = [Cyclotomic.root(m, e) for e in range(m)]
    slices = {gen: slice_function(table, gen) for gen in generators}

    smap: dict[Element, Element] = {}
    for x in support:
        exponents = []
        for gen in generators:
            acc = Cyclotomic.zero(m)
            q_gen = slices[gen]
            for beta in g.elements:
                acc = acc + q_gen[beta].mul_root(pairing(g, beta, x))
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
            if all(pairing(g, gen, y) == e for gen, e in zip(generators, exponents))
        ]
        if len(candidates) != 1:
            raise InconsistentTableError(
                "support-map",
                witness=x,
                detail=f"{len(candidates)} dual elements match the transform values",
            )
        smap[x] = candidates[0]

    if strict:
        for x in support:
            y = smap[x]
            for alpha in g.elements:
                if _transform_at(table, alpha, x) != roots[pairing(g, alpha, y)]:
                    raise InconsistentTableError(
                        "support-map",
                        witness=(alpha, x),
                        detail="full cross-check failed",
                    )
    return smap


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
    """Tabulate x (+) y = 0 if x = c y, else x i(x/y)^-1, with 0 as identity."""
    m = group.m
    sub = index_tables(group)[2]
    imap = np.array(
        [0 if z == involution else group.index(support_map[z]) for z in group.elements],
        dtype=np.intp,
    )
    rows = np.zeros((m + 1, m + 1), dtype=np.intp)
    rows[0] = rows[:, 0] = np.arange(m + 1)
    rows[1:, 1:] = np.where(
        sub == group.index(involution), ZERO_SYM, sub[np.arange(m)[:, None], imap[sub]] + 1
    )
    return AdditionTable(group, tuple(map(tuple, rows.tolist())))


def _first_failure(name: str, slabs) -> CheckResult:
    """Scan (leading index, lhs, rhs) slabs in order and report the first
    position where lhs and rhs differ, or a pass."""
    for lead, lhs, rhs in slabs:
        bad = lhs != rhs
        if bad.any():
            idx = np.unravel_index(bad.argmax(), bad.shape)
            point = lead + tuple(int(i) for i in idx)
            return CheckResult(name, False, point, int(lhs[idx]), int(rhs[idx]))
    return CheckResult(name, True)


def verify_field(at: AdditionTable) -> FieldChecks:
    """Exhaustively check the field axioms on the carrier and derive the
    characteristic, confirming the carrier size is a power of it.  The
    triple scans take one first index at a time, size^2 symbols a step."""
    size = at.size
    t = at.table
    a = np.array(t, dtype=np.intp)
    mul = at.mul
    commutative = _first_failure("commutative", [((), a, a.T)])
    # (i + j) + k = i + (j + k)
    associative = _first_failure(
        "associative", (((i,), a[a[i]], a[i][a]) for i in range(size))
    )
    # z (i + j) = z i + z j
    distributive = _first_failure(
        "distributive",
        (((z,), mul[z][a], a[mul[z][:, None], mul[z][None, :]]) for z in range(size)),
    )

    identity = CheckResult("identity", True)
    for s in range(size):
        if t[0][s] != s or t[s][0] != s:
            identity = CheckResult("identity", False, (s,), t[0][s], s)
            break

    zeros = (a == ZERO_SYM).sum(axis=1)  # each symbol has one additive inverse
    inverses = _first_failure("inverses", [((), zeros, np.ones_like(zeros))])

    characteristic = None
    acc = ONE_SYM
    copies = 1
    while copies <= size and acc != ZERO_SYM:
        acc = t[acc][ONE_SYM]
        copies += 1
    if acc == ZERO_SYM:
        characteristic = copies
    prime_power_ok = False
    if characteristic is not None and characteristic >= 2:
        p = characteristic
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            q = p
            while q < size:
                q *= p
            prime_power_ok = q == size
    return FieldChecks(
        commutative=commutative,
        associative=associative,
        distributive=distributive,
        identity=identity,
        inverses=inverses,
        characteristic=characteristic,
        prime_power_ok=prime_power_ok,
    )


def recompute_table(at: AdditionTable) -> JacobiTable:
    """Rebuild the table from the addition law:
    J(alpha, beta) = (1/m) sum over nonzero x (+) y = 1 of alpha(x) beta(y)."""
    xs, ys = np.nonzero(np.array(at.table)[1:, 1:] == ONE_SYM)
    return table_from_pairs(at.group, xs, ys)


# -- approximate stages -----------------------------------------------------


def _approx_transform(at: ApproxTable, alpha_idx: int, x: Element) -> complex:
    g = at.group
    m = g.m
    acc = 0j
    alpha = g.element(alpha_idx)
    for beta in g.elements:
        val = at.entries[g.index(g.sub(alpha, beta))][g.index(beta)]
        acc += val * cmath.exp(2j * cmath.pi * pairing(g, beta, x) / m)
    return acc


def _fourier_support_approx(at: ApproxTable, tol: float) -> tuple[Element, ...]:
    g = at.group
    support = []
    for x in g.elements:
        v = _approx_transform(at, 0, x)
        if abs(v - 1) <= tol:
            support.append(x)
        elif abs(v) > tol:
            raise InconsistentTableError(
                "support", witness=x, detail=f"transform value {v} is not near 0 or 1"
            )
    return tuple(support)


def _recover_map_approx(
    at: ApproxTable,
    support: tuple[Element, ...],
    generators: tuple[Element, ...] | None,
    tol: float,
) -> dict[Element, Element]:
    g = at.group
    m = g.m
    if generators is None:
        generators = g.generators()
    elif not g.generates(generators):
        raise ValueError("the given elements do not generate the group")
    smap: dict[Element, Element] = {}
    for x in support:
        exponents = []
        for gen in generators:
            v = _approx_transform(at, g.index(gen), x)
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
            if all(pairing(g, gen, y) == e for gen, e in zip(generators, exponents))
        ]
        if len(candidates) != 1:
            raise InconsistentTableError(
                "support-map",
                witness=x,
                detail=f"{len(candidates)} dual elements match the transform values",
            )
        smap[x] = candidates[0]
    return smap


# -- the full pipeline -------------------------------------------------------


def reconstruct(
    table: JacobiTable | ApproxTable,
    *,
    force: bool = False,
    strict: bool = False,
    generators: tuple[Element, ...] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ReconstructionReport:
    """Run support recovery, classification, addition synthesis, field
    verification and the round trip, refusing unverified input unless
    forced.  Complex-valued tables take the same pipeline after rounding
    the transform decisions within the tolerance."""
    approx = isinstance(table, ApproxTable)
    g = table.group
    m = g.m
    report = ReconstructionReport(group=g, case="inconsistent", approximate=approx)

    verification = verify_all(table, tolerance=tolerance)
    report.verification = verification
    if not verification.passed and not force:
        failed = next(c for c in verification.checks if not c.passed)
        report.inconsistency = {
            "stage": "verification",
            "check": failed.check,
            "witness": failed.witness,
        }
        return report

    try:
        if approx:
            support = _fourier_support_approx(table, tolerance)
            smap = _recover_map_approx(table, support, generators, tolerance)
        else:
            support = fourier_support(table)
            smap = recover_support_map(table, support, generators, strict)
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
        addition = build_addition(g, case.involution, smap)
        report.addition = addition
        report.field_checks = verify_field(addition)
        rebuilt = recompute_table(addition)
    if approx:
        report.baseline = rebuilt.values[0][0] - 1
    else:
        report.baseline = table.values[0][0] - 1
    report.roundtrip_ok = _tables_agree(table, rebuilt, approx, tolerance)
    report.baseline_ok = _baseline_holds(table, report.baseline, approx, tolerance)
    return report


def _tables_agree(table, rebuilt: JacobiTable, approx: bool, tol: float) -> bool:
    if not approx:
        return table == rebuilt
    m = table.group.m
    for i in range(m):
        for j in range(m):
            if abs(table.entries[i][j] - rebuilt.values[i][j].to_complex()) > tol:
                return False
    return True


def _baseline_holds(table, baseline: Cyclotomic, approx: bool, tol: float) -> bool:
    # J(1, alpha) = baseline + delta(alpha) for every alpha
    g = table.group
    for j, alpha in enumerate(g.elements):
        expected = baseline + delta(alpha)
        if approx:
            if abs(table.entries[0][j] - expected.to_complex()) > tol:
                return False
        elif table.values[0][j] != expected:
            return False
    return True
