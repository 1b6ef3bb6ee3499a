"""Field reconstruction: support recovery, classification, addition, round trips."""

from __future__ import annotations

import random
from fractions import Fraction

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
    delta,
    fourier_support,
    jacobi_star,
    recompute_table,
    reconstruct,
    recover_support_map,
    root_power,
    table_from_support,
    twist_automorphism,
    verify_field,
)
from jacobisum.harness import field_addition_rows
from jacobisum.jacobi import ApproxTable

from helpers import field, random_table, reference_field_checks, table

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


def test_recovery_independent_of_generator_choice():
    t = table(5)
    support = fourier_support(t)
    default_map = recover_support_map(t, support)
    case = classify_support(t.group, support, default_map)
    base_addition = build_addition(t.group, case.involution, default_map)
    for gens in (((3,),), ((2,), (3,))):
        smap = recover_support_map(t, support, generators=gens)
        assert smap == default_map
        assert build_addition(t.group, case.involution, smap).table == (
            base_addition.table
        )
    t9 = table(9)
    support9 = fourier_support(t9)
    assert recover_support_map(t9, support9, generators=((5,), (6,))) == (
        recover_support_map(t9, support9)
    )
    with pytest.raises(ValueError):
        recover_support_map(t9, support9, generators=((2,),))  # 2 generates only half


def test_strict_mode_agrees():
    t = table(7)
    support = fourier_support(t)
    assert recover_support_map(t, support, strict=True) == recover_support_map(t, support)


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
        assert at.add_sym(0, s) == s  # zero row is the identity
    g = at.group
    c_idx = g.index(report.involution)
    for x in range(1, size):
        negated = g.index(g.add(report.involution, g.element(x - 1))) + 1
        assert at.add_sym(x, negated) == 0  # x + c*x = 0
    assert at.add_sym(1, 1) == 2  # 1 + 1 = g in the two-element dual


def test_addition_multiplication_extends_group():
    at = reconstruct(table(5)).addition
    assert at.mul_sym(0, 3) == 0 and at.mul_sym(3, 0) == 0
    assert at.mul_sym(2, 3) == 4  # g^1 * g^2 = g^3
    assert at.mul_sym(1, 3) == 3  # identity acts trivially


def test_verify_field_detects_corruption():
    at = reconstruct(table(5)).addition
    rows = [list(r) for r in at.table]
    rows[1][2] = 3  # break one cell
    from jacobisum import AdditionTable

    broken = AdditionTable(at.group, tuple(tuple(r) for r in rows))
    checks = verify_field(broken)
    assert not checks.passed
    assert not (checks.commutative.passed and checks.associative.passed
                and checks.identity.passed and checks.inverses.passed)


def test_verify_field_matches_reference():
    # the array scans give the loops' verdicts, witnesses and both values
    def scans(checks):
        return checks.commutative, checks.associative, checks.distributive, checks.inverses

    rng = random.Random(11)
    failed = set()
    for q in (4, 8, 9, 16):
        g = GroupSpec((q - 1,))
        rows = field_addition_rows(field(q))
        at = AdditionTable(g, rows)
        assert scans(verify_field(at)) == reference_field_checks(at)
        for _ in range(40):
            cells = [list(r) for r in rows]
            symmetric = rng.random() < 0.5
            for _ in range(rng.randint(1, 3)):
                i, j, v = rng.randrange(q), rng.randrange(q), rng.randrange(q)
                cells[i][j] = v
                if symmetric:
                    cells[j][i] = v
            at = AdditionTable(g, tuple(tuple(r) for r in cells))
            checks = verify_field(at)
            assert scans(checks) == reference_field_checks(at)
            failed.update(
                c.check for c in (checks.commutative, checks.associative, checks.distributive)
                if not c.passed
            )
    assert failed == {"commutative", "associative", "distributive"}


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
                assert not jacobi_star(t, g.identity, alpha).is_zero()


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
            assert twisted.add_sym(sigma(x), sigma(y)) == sigma(base.add_sym(x, y))


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
