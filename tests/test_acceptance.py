"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything is exact unless a tolerance is stated.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from jacobisum import (
    Cyclotomic,
    GroupSpec,
    JacobiTable,
    check_cocycle_direct,
    check_cocycle_star,
    check_convolution_sum,
    check_symmetry,
    classify_support,
    cocycle_direct_sides,
    cocycle_star_sides,
    enumerate_jacobi,
    oracle_addition_tables,
    reconstruct,
    table_from_support,
    twist_automorphism,
    twist_galois,
    verify_all,
)
from jacobisum.harness import field_addition_rows
from jacobisum.jacobi import ApproxTable
from jacobisum.reconstructor import InconsistentTableError

from helpers import (
    ACCEPTANCE_Q,
    field,
    random_table,
    symmetric_random_table,
    table,
)


def _report(number: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {number}] {label}: {status}{suffix}")


def test_criterion_1_axiom_suite():
    start = time.time()
    ok = True
    for q in ACCEPTANCE_Q:
        t = table(q)
        ok = ok and check_symmetry(t).passed
        ok = ok and check_cocycle_star(t).passed
        ok = ok and check_cocycle_direct(t).passed
        ok = ok and check_convolution_sum(t).passed
    elapsed = time.time() - start
    _report(1, f"axiom suite over {len(ACCEPTANCE_Q)} prime powers", ok,
            f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 300


def test_criterion_2_field_reconstruction_roundtrip():
    start = time.time()
    ok = True
    for q in ACCEPTANCE_Q:
        q_start = time.time()
        f = field(q)
        t = table(q)
        report = reconstruct(t)
        good = report.case == "field" and report.ok
        good = good and report.involution == (f.dlog(f.neg(f.one)),)
        for x, y in (report.support_map or {}).items():
            elem = f.power(x[0])
            expected = f.mul(elem, f.inv(f.add(f.one, elem)))
            good = good and y == (f.dlog(expected),)
        good = good and report.addition.table == field_addition_rows(f)
        good = good and report.roundtrip_ok is True
        good = good and (time.time() - q_start) < 60
        ok = ok and good
    _report(2, "field reconstruction round trip, exact", ok,
            f"{time.time() - start:.1f}s")
    assert ok


def test_criterion_3_cocycle_form_equivalence():
    # the two forms are triple-by-triple equivalent on every table whose
    # inverse-pair entries are transpose-symmetric; random symmetric
    # tables exercise exactly that hypothesis
    rng = random.Random(0)
    groups = ((2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3))
    tables = 0
    ok = True
    for factors in groups:
        g = GroupSpec(factors)
        for _ in range(15):
            t = symmetric_random_table(rng, factors)
            tables += 1
            for a in g.elements:
                for b in g.elements:
                    for c in g.elements:
                        ls, rs = cocycle_star_sides(t, a, b, c)
                        ld, rd = cocycle_direct_sides(t, a, b, c)
                        ok = ok and ((ls == rs) == (ld == rd))
    # on fully arbitrary tables the two sides differ by exactly
    # delta(bc) * (J(b, b^-1) - J(c, c^-1)); pin that identity too
    for factors in groups:
        g = GroupSpec(factors)
        for _ in range(3):
            t = random_table(rng, factors)
            for a in g.elements:
                for b in g.elements:
                    for c in g.elements:
                        ls, rs = cocycle_star_sides(t, a, b, c)
                        ld, rd = cocycle_direct_sides(t, a, b, c)
                        corr = (
                            t.value(b, g.neg(b)) - t.value(c, g.neg(c))
                            if g.add(b, c) == g.identity
                            else Cyclotomic.zero(g.m)
                        )
                        ok = ok and (ls - ld) - (rs - rd) == corr
    _report(3, f"per-triple cocycle-form agreement on {tables} random tables", ok)
    assert tables >= 100
    assert ok


def test_criterion_4_trivial_group():
    g = GroupSpec((1,))
    samples = [-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-3, 7), Fraction(22, 7)]
    ok = True
    for a in samples:
        t = JacobiTable(g, [[Cyclotomic.from_rational(1, a)]])
        ok = ok and verify_all(t).passed == (a in (0, 1))
    zero = reconstruct(JacobiTable(g, [[Cyclotomic.zero(1)]]))
    ok = ok and zero.case == "field" and zero.ok
    ok = ok and zero.addition.table == ((0, 1), (1, 0))
    ok = ok and zero.field_checks.characteristic == 2
    one = reconstruct(JacobiTable(g, [[Cyclotomic.root(1, 0)]]))
    ok = ok and one.case == "boolean" and one.ok and one.addition is None
    _report(4, "trivial group accepts exactly the 0/1 tables", ok)
    assert ok


def test_criterion_5_enumeration_vs_oracle():
    start = time.time()
    ok = True
    for factors in ((2,), (3,), (4,), (2, 2), (5,), (6,)):
        g = GroupSpec(factors)
        result = enumerate_jacobi(g)
        ok = ok and result.agreement
        if factors == (2, 2):
            ok = ok and result.count == 0
        rebuilt = set()
        for t in result.tables:
            report = reconstruct(t)
            ok = ok and report.case == "field" and report.ok
            rebuilt.add(report.addition.table)
        ok = ok and rebuilt == set(oracle_addition_tables(g))
    elapsed = time.time() - start
    _report(5, "enumeration agrees with the field oracle (orders 2..6)", ok,
            f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 120


def test_criterion_6_twist_coherence():
    ok = True
    for q in (5, 7, 13):
        t = table(q)
        base = reconstruct(t).addition
        g = t.group
        m = q - 1
        for r in range(1, m):
            if math.gcd(r, m) != 1:
                continue
            pre = twist_automorphism(t, r)
            ok = ok and pre == twist_galois(t, r)
            ok = ok and verify_all(pre).passed
            report = reconstruct(pre)
            ok = ok and report.case == "field" and report.ok

            def sigma(sym: int) -> int:
                if sym == 0:
                    return 0
                return g.index(g.scale(r, g.element(sym - 1))) + 1

            twisted = report.addition
            for x in range(base.size):
                for y in range(base.size):
                    twin = twisted.table[sigma(x)][sigma(y)]
                    ok = ok and twin == sigma(base.table[x][y])
    _report(6, "twists coincide, verify, and conjugate the addition law", ok)
    assert ok


def test_criterion_7_degeneracy_detection():
    ok = True
    # full-support inputs built from a valid structural map (odd orders;
    # any other involution in the support admits no such map at all)
    for m, power in ((3, 2), (5, 3)):
        g = GroupSpec((m,))
        smap = {x: g.scale(power, x) for x in g.elements}
        t = table_from_support(g, g.elements, smap)
        verification = verify_all(t)
        forced = reconstruct(t, force=True)
        ok = ok and not verification.passed
        ok = ok and forced.case == "inconsistent"
        ok = ok and not (verification.passed and forced.case == "boolean")
    # direct classification of full support on any nontrivial group
    for m in (2, 3, 4, 5, 6):
        g = GroupSpec((m,))
        identity_map = {x: x for x in g.elements}
        try:
            case = classify_support(g, g.elements, identity_map)
            ok = ok and False  # must never classify as case (b)
        except InconsistentTableError:
            pass
    # random perturbations of classical tables never verify as case (b)
    rng = random.Random(1)
    for _ in range(40):
        q = rng.choice((3, 4, 5, 7))
        t = table(q)
        m = q - 1
        i, j = rng.randrange(m), rng.randrange(m)
        bad = t.with_entry(
            i, j, t.values[i][j] + Fraction(rng.randint(1, 4), rng.randint(1, 4))
        )
        verification = verify_all(bad)
        if verification.passed:
            report = reconstruct(bad)
            ok = ok and report.case != "boolean"
        else:
            forced = reconstruct(bad, force=True)
            ok = ok and forced.case != "boolean"
    _report(7, "full-support inputs never verify as the degenerate case", ok)
    assert ok


def test_criterion_8_float_path():
    rng = random.Random(2)
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
    report = reconstruct(noisy, tolerance=1e-6)
    ok = report.approximate and report.ok
    ok = ok and report.support == exact.support
    ok = ok and report.support_map == exact.support_map
    ok = ok and report.involution == exact.involution
    ok = ok and report.addition.table == exact.addition.table
    _report(8, "noisy complex table reproduces the exact reconstruction", ok)
    assert ok
