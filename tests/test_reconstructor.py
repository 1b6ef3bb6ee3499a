"""Field reconstruction: support recovery, classification, addition, round trips."""

from __future__ import annotations

import cmath
import collections
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jacobisum import (
    AdditionTable,
    BooleanCase,
    Cyclotomic,
    FieldCase,
    GroupSpec,
    InconsistentTableError,
    JacobiTable,
    approximate,
    build_addition,
    classify_support,
    compute_jacobi,
    delta,
    enumerate_jacobi,
    fourier_support,
    recompute_table,
    reconstruct,
    recover_support_map,
    root_power,
    table_from_support,
    twist_automorphism,
    twist_galois,
    verify_all,
    verify_field,
)
from jacobisum import enumerator, jacobi, reconstructor, verifier
from jacobisum.harness import field_addition_rows, reconstruction_to_json
from jacobisum.jacobi import ApproxTable

from helpers import (
    LARGER_PRIME_POWERS,
    PRIME_POWERS,
    extreme_tables,
    field,
    moved_approx,
    random_table,
    reference_addition,
    reference_cross_check,
    reference_field_checks,
    reference_fourier_support,
    reference_fourier_support_approx,
    reference_support_map,
    reference_support_map_approx,
    symmetric_random_table,
    table,
)

ROUNDTRIP_Q = (3, 4, 5, 7, 8, 9)


def _one_table(value) -> JacobiTable:
    g = GroupSpec((1,))
    return JacobiTable(g, [[Cyclotomic.from_rational(1, value)]])


def test_f3_support_and_map():
    t = table(3)
    support = fourier_support(t)
    assert support == ((0,),)  # the dual identity; the excluded element is dlog(-1) = 1
    smap = recover_support_map(t, support)
    assert smap == {(0,): (1,)}  # 1/(1+1) = 2 = g^1 in F_3


def test_classical_support_size():
    for q in ROUNDTRIP_Q:
        t = table(q)
        assert len(fourier_support(t)) == q - 2


def test_classical_case_data():
    # c = dlog(-1) and i(x) = x/(1+x) under the discrete-log identification
    for q in ROUNDTRIP_Q:
        f = field(q)
        t = table(q)
        report = reconstruct(t)
        assert report.case == "field" and report.ok
        assert report.involution == (f.dlog(f.neg(f.one)),)
        for x, y in report.support_map.items():
            elem = f.power(x[0])
            expected = f.mul(elem, f.inv(f.add(f.one, elem)))
            assert y == (f.dlog(expected),)


def test_f4_map_values():
    t = table(4)
    smap = recover_support_map(t, fourier_support(t))
    assert smap == {(1,): (2,), (2,): (1,)}  # t/(1+t) = t^2 in GF(4)


def test_roundtrip_matches_field_addition():
    for q in ROUNDTRIP_Q:
        f = field(q)
        report = reconstruct(table(q))
        assert report.roundtrip_ok
        assert report.field_checks.passed
        assert report.field_checks.characteristic == f.p
        assert report.addition.table == field_addition_rows(f)


def test_trivial_group_cases():
    zero = reconstruct(_one_table(0))
    assert zero.case == "field" and zero.ok
    assert zero.addition.table == ((0, 1), (1, 0))  # the two-element field
    assert zero.field_checks.characteristic == 2
    one = reconstruct(_one_table(1))
    assert one.case == "boolean" and one.ok
    assert one.addition is None
    assert one.support == ((0,),)


def test_support_rejects_non_idempotent_transform():
    with pytest.raises(InconsistentTableError) as err:
        fourier_support(_one_table(2))
    assert err.value.stage == "support"


def test_classify_field_case():
    g = GroupSpec((4,))
    case = classify_support(g, ((0,), (1,), (3,)), {(0,): (3,), (1,): (2,), (3,): (1,)})
    assert case == FieldCase(involution=(2,))


def test_classify_boolean_case_only_trivial():
    g1 = GroupSpec((1,))
    assert classify_support(g1, ((0,),), {(0,): (0,)}) == BooleanCase()
    g3 = GroupSpec((3,))
    smap = {x: g3.scale(2, x) for x in g3.elements}  # i(x) = x^2 satisfies the orbit law
    with pytest.raises(InconsistentTableError) as err:
        classify_support(g3, g3.elements, smap)
    assert err.value.stage == "classify"


def test_classify_rejects_bad_data():
    g = GroupSpec((3,))
    with pytest.raises(InconsistentTableError):  # not closed under inversion
        classify_support(g, ((1,),), {(1,): (1,)})
    g4 = GroupSpec((4,))
    with pytest.raises(InconsistentTableError):  # image not a bijection
        classify_support(
            g4, ((0,), (1,), (3,)), {(0,): (2,), (1,): (2,), (3,): (1,)}
        )
    g5 = GroupSpec((5,))
    with pytest.raises(InconsistentTableError):  # excluded element not an involution
        classify_support(
            g5,
            ((0,), (2,), (3,), (4,)),
            {(0,): (4,), (2,): (1,), (3,): (3,), (4,): (2,)},
        )


def test_build_addition_basics():
    t = table(3)
    report = reconstruct(t)
    at = report.addition
    size = at.size
    for s in range(size):
        assert at.table[0][s] == s  # zero row is the identity
    g = at.group
    c_idx = g.index(report.involution)
    for x in range(1, size):
        negated = g.index(g.add(report.involution, g.element(x - 1))) + 1
        assert at.table[x][negated] == 0  # x + c*x = 0
    assert at.table[1][1] == 2  # 1 + 1 = g in the two-element dual


def test_verify_field_detects_corruption():
    at = reconstruct(table(5)).addition
    zech = list(at.zech)
    zech[1], zech[2] = zech[2], zech[1]  # swap two values of x (+) 1
    checks = verify_field(AdditionTable(at.group, tuple(zech)))
    assert not checks.passed
    assert not (checks.commutative.passed and checks.associative.passed
                and checks.inverses.passed)


def _field_checks(checks):
    return (
        checks.commutative, checks.associative, checks.distributive,
        checks.identity, checks.inverses,
    )


def test_verify_field_matches_reference():
    # the O(q^2) checks give the loops' verdicts, witnesses and both values
    rng = random.Random(11)
    failed = set()
    for q in (4, 8, 9, 16):
        g = GroupSpec((q - 1,))
        rows = field_addition_rows(field(q))
        zech = tuple(row[1] for row in rows[1:])  # x (+) 1
        at = AdditionTable(g, zech)
        assert at.table == rows
        assert _field_checks(verify_field(at)) == reference_field_checks(at)
        for _ in range(40):
            cells = list(zech)
            for _ in range(rng.randint(1, 3)):
                cells[rng.randrange(q - 1)] = rng.randrange(q)
            at = AdditionTable(g, tuple(cells))
            checks = verify_field(at)
            assert _field_checks(checks) == reference_field_checks(at)
            failed.update(c.check for c in _field_checks(checks) if not c.passed)
    # a carrier held as its Zech vector has the identity and is
    # distributive, so only these can fail
    assert failed == {"commutative", "associative", "inverses"}


def test_build_addition_on_the_enumerator_carriers():
    # every carrier of a candidate map: the law x (+) y = x i(x/y)^-1, the
    # loops' field checks, the support sum as the rebuilt table, and the
    # carriers that pass are the oracle's fields
    groups = [GroupSpec((m,)) for m in range(2, 11)]
    groups += [GroupSpec(f) for f in ((2, 2), (2, 4), (2, 3), (3, 3), (2, 6))]
    for g in groups:
        fields = set()
        for c in g.elements:
            if g.add(c, c) != g.identity:
                continue
            support = tuple(e for e in g.elements if e != c)
            for smap in enumerator._candidate_maps(g, c):
                at = build_addition(g, c, smap)
                assert at.table == reference_addition(g, c, smap)
                checks = verify_field(at)
                assert _field_checks(checks) == reference_field_checks(at)
                assert recompute_table(at) == table_from_support(g, support, smap)
                if checks.passed:
                    fields.add(at.table)
        assert fields == set(enumerator.oracle_addition_tables(g)), g


def test_reconstructed_zech_vector_is_the_field_one():
    for q in sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}):
        assert reconstruct(table(q)).addition.zech == field(q).zech, q


def test_recompute_table_roundtrip():
    for q in (3, 4, 9):
        t = table(q)
        assert recompute_table(reconstruct(t).addition) == t


def test_baseline_identity():
    # J(1, alpha) = baseline + delta(alpha), with baseline = J(1,1) - 1
    for q in (4, 5, 9, 13):
        t = table(q)
        report = reconstruct(t)
        assert report.baseline == t.values[0][0] - 1
        assert report.baseline_ok
        g = t.group
        for alpha in g.elements:
            assert t.value(g.identity, alpha) == report.baseline + delta(alpha)


def test_star_values_nonzero_off_identity():
    # J*(1, alpha) never vanishes for nontrivial alpha on verified tables
    for q in (4, 5, 7, 9):
        t = table(q)
        g = t.group
        for alpha in g.elements:
            if alpha != g.identity:
                star = t.value(g.identity, alpha) - delta(g.identity) - delta(alpha)
                assert any(star.num)


def test_inverse_pair_values_in_field_case():
    # J(alpha, alpha^-1) = delta(alpha) - alpha(c)/m on reconstructed tables
    for q in (5, 8, 9):
        t = table(q)
        report = reconstruct(t)
        g = t.group
        m = g.m
        c = report.involution
        from jacobisum import pairing

        for alpha in g.elements:
            expected = Cyclotomic.from_rational(m, delta(alpha)) - root_power(
                m, pairing(g, alpha, c)
            ).scale(Fraction(1, m))
            assert t.value(alpha, g.neg(alpha)) == expected


def test_reconstruct_refuses_unverified_input():
    rng = random.Random(21)
    t = random_table(rng, (3,))
    report = reconstruct(t)
    assert report.case == "inconsistent"
    assert report.inconsistency["stage"] == "verification"
    forced = reconstruct(t, force=True)
    assert forced.case == "inconsistent"
    assert forced.inconsistency["stage"] in ("support", "support-map", "classify")


def test_full_support_table_never_passes():
    # case-(b) style inputs on nontrivial groups must fail verification and
    # classify as inconsistent when forced
    for m, t_exp in ((3, 2), (5, 3)):
        g = GroupSpec((m,))
        smap = {x: g.scale(t_exp, x) for x in g.elements}
        t = table_from_support(g, g.elements, smap)
        report = reconstruct(t, force=True)
        assert not report.verification.passed
        assert report.case == "inconsistent"
        assert report.inconsistency["stage"] == "classify"


def test_twisted_table_reconstructs_conjugated_addition():
    t = table(5)
    base = reconstruct(t).addition
    twisted = reconstruct(twist_automorphism(t, 3)).addition
    g = t.group

    def sigma(sym: int) -> int:
        if sym == 0:
            return 0
        return g.index(g.scale(3, g.element(sym - 1))) + 1

    for x in range(base.size):
        for y in range(base.size):
            assert twisted.table[sigma(x)][sigma(y)] == sigma(base.table[x][y])


def test_approximate_pipeline_matches_exact():
    rng = random.Random(22)
    t = table(9)
    exact = reconstruct(t)
    noisy = ApproxTable(
        t.group,
        tuple(
            tuple(
                e.to_complex()
                + complex(rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9))
                for e in row
            )
            for row in t.values
        ),
    )
    report = reconstruct(noisy)
    assert report.approximate and report.ok
    assert report.support == exact.support
    assert report.support_map == exact.support_map
    assert report.involution == exact.involution
    assert report.addition.table == exact.addition.table
    assert report.baseline == exact.baseline


def test_approximate_embedding_without_noise():
    report = reconstruct(approximate(table(7)))
    assert report.ok and report.case == "field"


def test_build_addition_agrees_with_support_sum():
    # the support-sum table and the addition-law table coincide
    t = table(8)
    support = fourier_support(t)
    smap = recover_support_map(t, support)
    case = classify_support(t.group, support, smap)
    at = build_addition(t.group, case.involution, smap)
    assert recompute_table(at) == table_from_support(t.group, support, smap)


def _stage_outcome(stage, *args, **kwargs):
    try:
        return ("ok", stage(*args, **kwargs))
    except InconsistentTableError as err:
        return (err.stage, err.witness, err.detail)


def _stage_tables():
    # field tables and symmetric or one-sided moves of them, random tables,
    # and support-sum tables of random maps, moved once, on cyclic and
    # non-cyclic groups
    rng = random.Random(31)
    for q in (3, 4, 5, 7, 8, 9, 16):
        t = table(q)
        m = q - 1
        yield t
        for _ in range(10):
            i, j = rng.randrange(m), rng.randrange(m)
            shift = rng.choice([
                Fraction(rng.randint(1, 6), 7),
                root_power(m, rng.randrange(m)),
                root_power(m, rng.randrange(m)) - 1,
            ])
            bad = t.with_entry(i, j, t.values[i][j] + shift)
            if rng.random() < 0.6 and i != j:
                bad = bad.with_entry(j, i, t.values[j][i] + shift)
            yield bad
        # moves by the first prime, invisible at that prime's points, in
        # the unit slice (0, 0) and the generator's slice (1, 0)
        first = int(verifier._Residues(t).moduli[0])
        yield t.with_entry(0, 0, t.values[0][0] + first)
        yield t.with_entry(1, 0, t.values[1][0] + first)
    for factors in ((2,), (3,), (2, 2), (4,), (2, 3), (3, 3)):
        yield random_table(rng, factors)
        yield symmetric_random_table(rng, factors)
    for factors in ((3,), (5,), (6,), (2, 2), (2, 4), (3, 3)):
        g = GroupSpec(factors)
        m = g.m
        for _ in range(8):
            support = [x for x in g.elements if rng.random() < 0.85]
            smap = {x: rng.choice(g.elements) for x in support}
            t = table_from_support(g, support, smap)
            yield t
            i, j = rng.randrange(m), rng.randrange(m)
            yield t.with_entry(
                i, j, t.values[i][j] + root_power(m, rng.randrange(m)) - root_power(m, 1)
            )


@pytest.mark.parametrize("scan_bytes", [None, 1])
def test_transform_stages_match_loop_references(monkeypatch, scan_bytes):
    # the residue transforms give the Cyclotomic loops' support, map,
    # failing stage, witness and detail; also, on every third table, with
    # one evaluation point per chunk of characters
    tables = _stage_tables()
    if scan_bytes is not None:
        monkeypatch.setattr(verifier, "_SCAN_BYTES", scan_bytes)
        tables = itertools.islice(tables, 0, None, 3)
    seen = set()
    for t in tables:
        got = _stage_outcome(fourier_support, t)
        assert got == _stage_outcome(reference_fourier_support, t), t
        if got[0] != "ok":
            seen.add(got[2].split(" ")[-1])  # "... is not 0 or 1"
            continue
        support = got[1]
        got = _stage_outcome(recover_support_map, t, support)
        assert got == _stage_outcome(reference_support_map, t, support), t
        seen.add("map" if got[0] == "ok" else got[2].split(" ")[-1])
    # every outcome occurs: a map, a transform not 0 or 1, not a root of
    # unity, and no single matching dual element
    if scan_bytes is None:
        assert seen == {"map", "1", "unity", "values"}


def _candidate_tables(factors):
    """The support sum of every map the enumerator tries on the group:
    the field tables and the rejected tables whose round trip holds."""
    g = GroupSpec(factors)
    for c in g.elements:
        support = tuple(x for x in g.elements if x != c)
        for smap in enumerator._candidate_maps(g, c):
            yield table_from_support(g, support, smap)


def _forced_tables():
    """_stage_tables(), extreme_tables(q) for q in {4, 8, 9, 16}, the
    enumerator's candidates on Z/6, Z/7 and Z/2 x Z/3, and the
    automorphism and Galois twists of each by -1."""
    extremes = (t for q in (4, 8, 9, 16) for _, t in extreme_tables(q))
    candidates = (t for f in ((6,), (7,), (2, 3)) for t in _candidate_tables(f))
    for t in itertools.chain(_stage_tables(), extremes, candidates):
        yield t
        if t.group.m > 2:
            yield twist_automorphism(t, t.group.m - 1)
            yield twist_galois(t, t.group.m - 1)


def test_round_trip_decides_the_full_cross_check():
    # where a forced round trip holds, the input is the support sum over
    # the pairs (i(s), i(s) - s), so the transform of its slice at every
    # alpha is [x in S] zeta^<alpha, i(x)> at every x: a cross-check of
    # every character's transform could fail only where the round trip or
    # an earlier stage already does.  A table that fails verification is
    # never reconstructed as ok.
    outcomes = collections.Counter()
    for t in _forced_tables():
        report = reconstruct(t, force=True)
        if report.roundtrip_ok:
            assert reference_cross_check(t, report.support, report.support_map) is None, t
        if not report.verification.passed:
            assert not report.ok, t
        outcomes[report.verification.passed, bool(report.roundtrip_ok)] += 1
    # rejected tables whose round trip holds occur, among the enumerator's
    # candidates
    assert outcomes[False, True] > 0, outcomes


def test_approximate_round_trip_and_baseline_use_the_tolerance():
    # cells outside the slices at 0 and 1 leave the support and map as
    # they are; the round trip compares every cell within the tolerance,
    # the baseline the cells of the first row
    at = approximate(table(9))
    for cell, in_first_row in (((3, 4), False), ((0, 3), True)):
        for shift, tol in ((0.03, 1e-6), (0.03, 0.05), (0.07, 0.05)):
            moved = moved_approx(at, {cell}, lambda z: z + shift)
            report = reconstruct(moved, force=True, tolerance=tol)
            assert report.case == "field"
            assert report.roundtrip_ok == (shift <= tol)
            assert report.baseline_ok == (shift <= tol or not in_first_row)


def _noisy(t: JacobiTable, rng: random.Random) -> ApproxTable:
    noise = lambda: complex(rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9))
    rows = approximate(t).entries
    return ApproxTable(t.group, tuple(tuple(z + noise() for z in row) for row in rows))


def _slice_cells(at: ApproxTable, s: int):
    """The cells (i, j) with i + j = s, by element index."""
    g = at.group
    return [(i, g.index(g.sub(g.element(s), x))) for i, x in enumerate(g.elements)]


def _complex_stage_cases():
    """(table, tolerance) inputs that reach every outcome of the complex
    support and support-map stages."""
    rng = random.Random(28)
    cases = []
    for q in (4, 8, 9, 16, 64):
        at = _noisy(table(q), rng)
        m = q - 1
        cases.append((at, 1e-6))
        for s in (0, 1):  # the slices the two stages transform
            i = rng.randrange(m)
            j = _slice_cells(at, s)[i][1]
            for shift in (0.5, 1e-3, 0.3j):
                moved = moved_approx(at, {(i, j), (j, i)}, lambda z: z + shift)
                cases.append((moved, 1e-6))
        for _ in range(2):
            i, j = rng.randrange(m), rng.randrange(m)
            cases.append((moved_approx(at, {(i, j)}, lambda z: 0j), 1e-6))
    # at q = 64 and tolerance 0.05 two neighbouring 63rd roots of unity lie
    # within tolerance of a transform half a step between them
    at = _noisy(table(64), rng)
    for turn in (0.3, 0.5, 0.7):
        rotate = cmath.exp(2j * cmath.pi * turn / 63)
        moved = moved_approx(at, _slice_cells(at, 1), lambda z: z * rotate)
        cases.append((moved, 0.05))
    cases.append((at, 0.05))
    cases.append((moved_approx(at, _slice_cells(at, 1), lambda z: z * 1.07), 0.05))
    cases.append((moved_approx(at, {(5, 58), (58, 5)}, lambda z: z + 0.04j), 0.05))
    cases.append((moved_approx(at, {(3, 60)}, lambda z: 0j), 0.05))
    # Z/6 with its slice at 2 rotated by zeta
    at = _noisy(table(7), rng)
    zeta = cmath.exp(2j * cmath.pi / 6)
    cases.append((at, 1e-6))
    cases.append((moved_approx(at, _slice_cells(at, 2), lambda z: z * zeta), 1e-6))
    # an enumerated table on a multi-factor group; its slice at (1, 0),
    # rotated by zeta^2, reads an exponent that <(1, 0), y> never takes
    at = approximate(enumerate_jacobi(GroupSpec((2, 3))).tables[0])
    zeta2 = cmath.exp(2j * cmath.pi * 2 / 6)
    cases.append((at, 1e-6))
    cases.append((moved_approx(at, _slice_cells(at, 3), lambda z: z * zeta2), 1e-6))
    return cases


def test_complex_stages_match_the_loop_references():
    outcomes = collections.Counter()
    for n, (at, tol) in enumerate(_complex_stage_cases()):
        r = verifier._evaluate(at, tol)
        got = _stage_outcome(fourier_support, at, r)
        assert got == _stage_outcome(reference_fourier_support_approx, at, tol), n
        if got[0] != "ok":
            outcomes["support"] += 1
            continue
        support = got[1]
        got = _stage_outcome(recover_support_map, at, support, residues=r)
        assert got == _stage_outcome(reference_support_map_approx, at, support, tol), n
        outcomes["mapped" if got[0] == "ok" else got[2].split()[-1]] += 1
    # support failures, transforms far from every root, non-unique matches
    # and complete maps all occur
    assert set(outcomes) == {"support", "unity", "values", "mapped"}, outcomes


def test_reconstruct_reuses_the_certificate(monkeypatch):
    # one evaluation per call, forced or not; a certified table, forced or
    # not, also takes one rebuilt table and one field check, and its
    # report equals the one built from the stages
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for kind in (verifier._Residues, verifier._Complex):
        monkeypatch.setattr(kind, "__init__", counted("evaluation", kind.__init__))
    for name in ("recompute_table", "verify_field", "build_addition"):
        monkeypatch.setattr(reconstructor, name, counted(name, getattr(reconstructor, name)))
    t = table(9)
    support = fourier_support(t)
    smap = recover_support_map(t, support)
    addition = build_addition(t.group, classify_support(t.group, support, smap).involution, smap)
    for kwargs in ({}, {"force": True}):
        calls.clear()
        report = reconstruct(t, **kwargs)
        assert report.verification.method == "certificate"
        assert sorted(calls) == [
            "build_addition", "evaluation", "recompute_table", "verify_field"
        ], kwargs
        assert report.ok and report.roundtrip_ok and report.baseline_ok
        assert (report.support, report.support_map) == (support, smap)
        assert report.addition == addition
        assert report.field_checks == verify_field(addition)
    third = Fraction(3, 7)
    moved = t.with_entry(1, 2, t.entry(1, 2) + third).with_entry(2, 1, t.entry(2, 1) + third)
    runs = (
        (moved, {}), (moved, {"force": True}),
        (approximate(t), {}), (approximate(moved), {}), (approximate(moved), {"force": True}),
    )
    for u, kwargs in runs:
        calls.clear()
        reconstruct(u, **kwargs)
        assert calls.count("evaluation") == 1, (u, kwargs)


def test_reconstruct_runs_the_stages_once_on_complex_tables(monkeypatch):
    # certify runs the stages at a complex table's one point, which is
    # every point, and reconstruct reports that run whether the table is
    # certified, its bound exceeds the tolerance and the scans pass it, or
    # the stages stop before the bound (a support transform 8 * 2e-7 from
    # 1) and the scans pass it
    rebuild = reconstructor._rebuild
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rebuild(*args, **kwargs)

    monkeypatch.setattr(reconstructor, "_rebuild", counted)
    at = approximate(table(9))
    cells = list(itertools.product(range(8), repeat=2))
    rng = random.Random(29)
    noisy = moved_approx(at, cells, lambda z: z + complex(
        rng.uniform(-6e-8, 6e-8), rng.uniform(-6e-8, 6e-8)))
    shifted = moved_approx(at, cells, lambda z: z + 2e-7)
    assert reconstruct(noisy).scan_bound > 1e-6
    cases = ((at, "certificate", True), (noisy, "scan", True), (shifted, "scan", False))
    for u, method, ok in cases:
        for kwargs in ({}, {"force": True}):
            calls.clear()
            report = reconstruct(u, **kwargs)
            assert len(calls) == 1, (method, kwargs)
            assert report.verification.method == method and report.verification.passed
            assert report.ok == ok
            fresh = rebuild(u, verifier._evaluate(u))
            fresh.verification = report.verification
            assert reconstruction_to_json(fresh) == reconstruction_to_json(report)


def _twisted_field_tables():
    """Every field's table with q <= 64 and its automorphism and Galois
    twists by each r in {1, 5, m - 1} coprime to m."""
    for q in sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}):
        t = table(q)
        m = q - 1
        yield t
        for r in sorted({1, 5, m - 1}):
            if math.gcd(r, m) == 1:
                yield twist_automorphism(t, r)
                yield twist_galois(t, r)


def test_certificate_equals_the_stages_at_every_point():
    # a certified table's support and map are those the stages read at
    # every evaluation point, so reconstruct can take them from the
    # certificate: the certificate is the report the stages give on the
    # full evaluation
    for t in _twisted_field_tables():
        cert = verify_all(t).certificate
        assert cert is not None, t
        support = fourier_support(t)
        assert support == cert.support, t
        assert recover_support_map(t, support) == cert.support_map, t
        full = reconstructor._rebuild(t, verifier._Residues(t))
        for f in dataclasses.fields(full):
            if f.name != "verification":
                assert getattr(cert, f.name) == getattr(full, f.name), (t, f.name)


def test_exact_paths_never_build_the_entry_grid(monkeypatch):
    t = compute_jacobi(field(64))
    v, third = t.values, Fraction(3, 7)
    tables = (
        t,
        compute_jacobi(field(64)),  # a table whose grid was never built
        t.with_entry(1, 2, v[1][2] + third).with_entry(2, 1, v[2][1] + third),
        t.with_entry(1, 2, v[1][2] + root_power(63, 1)),
    )

    def forbidden(self):
        raise AssertionError("the Cyclotomic grid of a table was built")

    monkeypatch.setattr(JacobiTable, "values", property(forbidden))
    for u in tables:
        accepted = verify_all(u).passed
        assert accepted == (u == t)
        assert reconstruct(u).ok == accepted
        reconstruct(u, force=True)


def test_certified_tables_are_evaluated_at_one_point(monkeypatch):
    # the certificate reads the first evaluation point alone, so neither
    # verify_all nor reconstruct, forced or not, evaluates a certified
    # table at every point; the scans of a refused table still do
    def forbidden(self):
        raise RuntimeError("evaluated at every point")

    monkeypatch.setattr(verifier._Residues, "values", property(forbidden))
    for t in _twisted_field_tables():
        assert verify_all(t).method == "certificate", t
        assert reconstruct(t).ok, t
    for kwargs in ({}, {"force": True}):
        assert reconstruct(table(64), **kwargs).ok, kwargs
    t = table(64)
    moved = t.with_entry(1, 2, t.entry(1, 2) + Fraction(1, 7))
    moved = moved.with_entry(2, 1, t.entry(2, 1) + Fraction(1, 7))
    with pytest.raises(RuntimeError, match="every point"):
        verify_all(moved)


def _histogram_delta(m: int, pairs: int) -> float:
    """_scan_bound's delta: how far the embedding read off the pairs'
    histogram may lie from the table of those pairs."""
    return 2 * (m + 40) * 2.0**-53 * pairs / m


def _pair_cases():
    """(group, us, vs): the pairs of every field with q <= 64, of the
    additions reconstructed from their automorphism and Galois twists,
    of random support maps on small groups and of the trivial group's
    boolean table."""
    for q in sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}):
        g = GroupSpec((q - 1,))
        yield (g, *jacobi._zech_pairs(g, field(q).zech))
    for t in _twisted_field_tables():
        yield (t.group, *jacobi._zech_pairs(t.group, reconstruct(t).addition.zech))
    rng = random.Random(37)
    for factors in ((2, 2), (2, 4), (3, 3), (2, 6)):
        g = GroupSpec(factors)
        for _ in range(6):
            support = [x for x in g.elements if rng.random() < 0.85]
            smap = {x: rng.choice(g.elements) for x in support}
            yield (g, *jacobi._support_pairs(g, support, smap))
    g = GroupSpec((1,))
    yield (g, *jacobi._support_pairs(g, g.elements, {g.identity: g.identity}))


def test_histogram_embedding_is_within_delta_of_the_exact_one():
    for g, us, vs in _pair_cases():
        got = jacobi.embedding_from_pairs(g, us, vs)
        exact = approximate(jacobi.table_from_pairs(g, us, vs)).values
        assert np.abs(got - exact).max() <= _histogram_delta(g.m, len(us)), (g, us, vs)


def test_complex_baselines_are_the_rebuilt_tables():
    # a complex report's baseline is K/m - 1 for the rebuilt table's K
    # pairs: the strings of that table's J(0, 0) - 1, also where the
    # input's J(0, 0) is moved within the tolerance
    at = _noisy(table(64), random.Random(41))
    moved = moved_approx(at, {(0, 0)}, lambda z: z + 0.01)
    cases = _complex_stage_cases() + [(moved, 0.05), (approximate(_one_table(1)), 1e-6)]
    cases += [(approximate(t), 1e-6) for t in _twisted_field_tables()]
    seen = set()
    for u, tol in cases:
        report = reconstruct(u, force=True, tolerance=tol)
        seen.add(report.case)
        if report.case == "inconsistent":
            continue
        if report.addition is None:
            rebuilt = table_from_support(u.group, report.support, report.support_map)
        else:
            rebuilt = recompute_table(report.addition)
        assert report.baseline.to_strings() == (rebuilt.entry(0, 0) - 1).to_strings(), u
    assert reconstruct(moved, tolerance=0.05).ok
    assert seen == {"field", "boolean", "inconsistent"}


def test_complex_paths_never_build_an_exact_table(monkeypatch):
    # a complex table's certificate embeds the rebuilt field's table from
    # its pairs, so no exact table is built when the bound certifies the
    # table, when it exceeds the tolerance and the scans pass the table,
    # when the stages stop first, or in the boolean case
    at = approximate(table(64))
    rng = random.Random(43)
    noise = lambda: complex(rng.uniform(-1e-8, 1e-8), rng.uniform(-1e-8, 1e-8))
    noisy = ApproxTable(at.group, [[z + noise() for z in row] for row in at.entries])
    shifted = moved_approx(at, itertools.product(range(63), repeat=2), lambda z: z + 2e-7)
    boolean = approximate(_one_table(1))

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact table was built")

    monkeypatch.setattr(jacobi, "table_from_pairs", forbidden)
    for name in ("recompute_table", "table_from_support"):
        monkeypatch.setattr(reconstructor, name, forbidden)
    cases = (
        (at, "certificate", "field"),
        (noisy, "scan", "field"),
        (shifted, "scan", "inconsistent"),
        (boolean, "scan", "boolean"),
    )
    for u, method, case in cases:
        verification = verify_all(u)
        assert (verification.method, verification.passed) == (method, True), case
        for kwargs in ({}, {"force": True}):
            assert reconstruct(u, **kwargs).case == case, (case, kwargs)
    assert reconstruct(noisy).scan_bound > 1e-6
