"""Exhaustive enumeration of all Jacobi functions on a small group.

The search runs over the structural ansatz (an excluded square root of
the identity c, plus a bijection i from the remaining dual elements onto
the non-identity elements satisfying i(x) = x i(x^-1)), builds each
candidate table from that data, and keeps those passing the exhaustive
axiom checks.  An independent oracle counts field structures directly:
it builds GF(m+1) when m+1 is a prime power, enumerates the group
isomorphisms onto its multiplicative group, and pulls back addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .abelian import Element, GroupSpec
from .ffield import build_field, prime_power
from .jacobi import JacobiTable, table_from_support
from .verifier import verify_all

ENUM_MAX = 7  # largest group order enumerated
ORACLE_MAX = 1 << 10

AdditionRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EnumerationResult:
    group: GroupSpec
    tables: tuple[JacobiTable, ...]
    count: int
    oracle_count: int
    agreement: bool


def _table_key(table: JacobiTable) -> tuple:
    m = table.group.m
    return tuple(tuple(table.entry(i, j).to_strings()) for i in range(m) for j in range(m))


def _candidate_maps(group: GroupSpec, excluded: Element):
    """All bijections i on the support satisfying i(x) = x i(x^-1),
    found by assigning one representative per inversion orbit."""
    els = group.elements
    identity = group.identity
    support = [e for e in els if e != excluded]
    for x in support:
        if x != identity and group.neg(x) == x:
            return  # an involution inside the support admits no valid map
    reps = []
    seen = set()
    for x in support:
        if x in seen:
            continue
        seen.add(x)
        seen.add(group.neg(x))
        reps.append(x)
    values = [e for e in els if e != identity]

    def extend(k: int, assignment: dict[Element, Element], used: set[Element]):
        if k == len(reps):
            yield dict(assignment)
            return
        x = reps[k]
        nx = group.neg(x)
        for v in values:
            # forced by i(x) = x i(x^-1); at x = 0 = nx, the only x in the
            # support that is its own inverse, it is v itself
            partner = group.sub(v, x)
            if v in used or partner == identity or partner in used:
                continue
            assignment[x], assignment[nx] = v, partner
            used.update((v, partner))
            yield from extend(k + 1, assignment, used)
            used.difference_update((v, partner))
            del assignment[x]
            assignment.pop(nx, None)

    yield from extend(0, {}, set())


def enumerate_jacobi(group: GroupSpec) -> EnumerationResult:
    """All distinct tables on the group passing the exhaustive axiom suite,
    cross-counted against the field-structure oracle."""
    m = group.m
    if m > ENUM_MAX:
        raise ValueError(f"group order {m} exceeds the enumeration cap {ENUM_MAX}")
    found: dict[tuple, JacobiTable] = {}
    for c in group.elements:
        if group.add(c, c) != group.identity:
            continue
        support = tuple(e for e in group.elements if e != c)
        for smap in _candidate_maps(group, c):
            table = table_from_support(group, support, smap)
            if verify_all(table).passed:
                found.setdefault(_table_key(table), table)
    tables = tuple(found[k] for k in sorted(found))
    oracle = oracle_count(group)
    return EnumerationResult(
        group=group,
        tables=tables,
        count=len(tables),
        oracle_count=oracle,
        agreement=len(tables) == oracle,
    )


def oracle_addition_tables(group: GroupSpec) -> tuple[AdditionRows, ...]:
    """Distinct addition tables on {0} + group obtained by pulling back
    GF(m+1) through every group isomorphism onto its unit group.

    Table layout matches the reconstructor carrier: symbol 0 is the field
    zero, symbol k >= 1 the group element of index k - 1.
    """
    m = group.m
    q = m + 1
    if q > ORACLE_MAX:
        raise ValueError(f"carrier size {q} exceeds the oracle cap {ORACLE_MAX}")
    pn = prime_power(q)
    if pn is None:
        return ()
    field = build_field(*pn)
    els = group.elements

    # exponent lattice: u_j = g**t_j needs order dividing n_j, so t_j is a
    # multiple of m / n_j
    choices = [[s * (m // n) % m for s in range(n)] for n in group.factors]
    tables = set()
    for ts in product(*choices):
        exps = [sum(x_j * t_j for x_j, t_j in zip(x, ts)) % m for x in els]
        if len(set(exps)) == m:  # injective, so an isomorphism
            tables.add(field.carrier_addition(exps))
    return tuple(sorted(tables))


def oracle_count(group: GroupSpec) -> int:
    """Number of field structures on {0} + group extending the group law."""
    return len(oracle_addition_tables(group))
