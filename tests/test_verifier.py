"""Axiom checks: verdicts, witnesses, modes, and the exact engine against a reference scan."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from jacobisum import (
    Cyclotomic,
    GroupSpec,
    JacobiTable,
    approximate,
    check_cocycle_direct,
    check_cocycle_star,
    check_convolution_sum,
    check_symmetry,
    cocycle_direct_sides,
    cocycle_star_sides,
    convolution_sum_sides,
    default_convolution_mode,
    root_power,
    slice_convolution_sides,
    verify_all,
)
from jacobisum.jacobi import ApproxTable
from jacobisum.verifier import _Residues

from helpers import reference_witness, random_table, symmetric_random_table, table


def _one_table(value) -> JacobiTable:
    g = GroupSpec((1,))
    return JacobiTable(g, [[Cyclotomic.from_rational(1, value)]])


def test_classical_tables_pass_all_checks():
    for q in (4, 5, 7, 8):
        t = table(q)
        assert check_symmetry(t).passed
        assert check_cocycle_star(t).passed
        assert check_cocycle_direct(t).passed
        assert check_convolution_sum(t, "exhaustive").passed
        assert check_convolution_sum(t, "convolution").passed


def test_symmetry_witness():
    t = table(5)
    bad = t.with_entry(0, 2, -t.values[0][2])
    result = check_symmetry(bad)
    assert not result.passed
    assert result.witness == ((0,), (2,))
    assert result.lhs != result.rhs  # the witness re-checks as a genuine inequality


def test_symmetry_trivial_group():
    assert check_symmetry(_one_table(Fraction(7, 3))).passed


def test_cocycle_trivial_group_any_value():
    # on the trivial group the cocycle identity holds for every value
    for a in (-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-22, 7)):
        t = _one_table(a)
        assert check_cocycle_star(t).passed
        assert check_cocycle_direct(t).passed


def test_convolution_trivial_group_is_idempotency():
    # the single quadruple reduces to a^2 = a
    for a in (-2, -1, 0, 1, 2, 3, Fraction(1, 2)):
        result = check_convolution_sum(_one_table(a), "exhaustive")
        assert result.passed == (a in (0, 1))


def test_random_table_fails_cocycle_with_verified_witness():
    rng = random.Random(10)
    t = random_table(rng, (3,))
    result = check_cocycle_star(t)
    assert not result.passed
    lhs, rhs = cocycle_star_sides(t, *result.witness)
    assert (lhs, rhs) == (result.lhs, result.rhs)
    assert lhs != rhs


def test_cocycle_forms_agree_per_triple_on_random_tables():
    rng = random.Random(11)
    for factors in ((2,), (3,), (2, 2)):
        g = GroupSpec(factors)
        for _ in range(5):
            t = random_table(rng, factors)
            for a in g.elements:
                for b in g.elements:
                    for c in g.elements:
                        ls, rs = cocycle_star_sides(t, a, b, c)
                        ld, rd = cocycle_direct_sides(t, a, b, c)
                        assert (ls == rs) == (ld == rd)


def test_perturbed_table_fails_both_cocycle_forms_at_same_triple():
    # a diagonal perturbation keeps the table symmetric, where the two
    # forms are triple-by-triple equivalent
    t = table(4)
    bad = t.with_entry(1, 1, t.values[1][1] + 1)
    star = check_cocycle_star(bad)
    direct = check_cocycle_direct(bad)
    assert not star.passed and not direct.passed
    assert star.witness == direct.witness


def test_cocycle_forms_can_differ_only_at_identity_products():
    # without symmetry the delta-corrected form may disagree with the
    # starred form, but only at triples whose middle pair multiplies to
    # the identity
    t = table(4)
    bad = t.with_entry(1, 2, t.values[1][2] + 1)  # asymmetric perturbation
    g = bad.group
    for a in g.elements:
        for b in g.elements:
            for c in g.elements:
                ls, rs = cocycle_star_sides(bad, a, b, c)
                ld, rd = cocycle_direct_sides(bad, a, b, c)
                if (ls == rs) != (ld == rd):
                    assert g.add(b, c) == g.identity


def _assert_matches_reference(t):
    runs = [
        ("cocycle-star", None, check_cocycle_star(t)),
        ("cocycle-direct", None, check_cocycle_direct(t)),
    ]
    modes = ["exhaustive", "sampled"]
    if check_symmetry(t).passed:
        modes.append("convolution")
    for mode in modes:
        result = check_convolution_sum(t, mode, sample_count=500, seed=3)
        runs.append(("convolution-sum", mode, result))
    for check, mode, result in runs:
        expected = reference_witness(t, check, mode)
        assert result.passed == (expected is None), (t, check, mode)
        if expected is not None:
            assert (result.witness, result.lhs, result.rhs) == expected, (t, check, mode)


def test_engines_agree():
    # the multi-modular engine against a plain scan on random tables
    rng = random.Random(12)
    for factors in ((1,), (2,), (3,), (2, 2), (4,)):
        _assert_matches_reference(random_table(rng, factors))
        _assert_matches_reference(symmetric_random_table(rng, factors))
    t = table(8)
    for mode in ("exhaustive", "convolution"):
        assert check_convolution_sum(t, mode).passed


def test_engine_fallback_on_huge_entries():
    # entries past int64 need no fallback path: the engine still answers exactly
    for value in (Fraction(1 << 70, 3), (1 << 63) + 1):
        huge = Cyclotomic.from_rational(2, value)
        _assert_matches_reference(
            JacobiTable(GroupSpec((2,)), [[huge, huge], [huge, Cyclotomic.one(2)]])
        )
        t = JacobiTable(GroupSpec((2,)), [[huge, huge], [huge, huge]])
        _assert_matches_reference(t)
        assert isinstance(check_cocycle_star(t).passed, bool)


def test_engine_matches_reference_scan():
    # perturbations chosen to be invisible modulo some but not all primes
    for q in (8, 9):
        t = table(q)
        m = q - 1
        # the table with the first prime added passes modulo that prime alone
        first = int(_Residues(t).moduli[0])
        for shift in (root_power(m, 3), Fraction(3, 7), Fraction(5, 2**31 - 1), first):
            _assert_matches_reference(
                t.with_entry(1, 2, t.values[1][2] + shift).with_entry(
                    2, 1, t.values[2][1] + shift
                )
            )


def test_engine_rejects_entries_beyond_its_primes():
    # the denominator 3^600 needs coefficients of about 1900 bits
    tiny = Cyclotomic.from_rational(2, Fraction(1, 3**600))
    t = JacobiTable(GroupSpec((2,)), [[tiny, tiny], [tiny, tiny]])
    with pytest.raises(ValueError):
        verify_all(t)


def test_approximate_table_rejects_non_finite_entries():
    g = GroupSpec((2,))
    for bad in (complex("nan"), complex(0, float("inf"))):
        with pytest.raises(ValueError):
            ApproxTable(g, ((bad, 1j), (1j, 1j)))
    with pytest.raises(ValueError):
        ApproxTable(g, tuple(tuple(complex("nan+nanj") for _ in range(2)) for _ in range(2)))


def test_approximate_overflow_fails_cocycle_checks():
    # products overflow to inf and inf - inf is NaN, which must not pass
    g = GroupSpec((3,))
    big = ApproxTable(g, tuple(tuple(1e200 + 0j for _ in range(3)) for _ in range(3)))
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_all(big)
    assert not report.cocycle_star.passed and not report.cocycle_direct.passed
    assert not report.passed


def test_convolution_requires_symmetry():
    t = table(5)
    bad = t.with_entry(0, 2, -t.values[0][2])
    with pytest.raises(ValueError):
        check_convolution_sum(bad, "convolution")


def test_convolution_witness_verifies():
    t = table(4)
    bad = t.with_entry(1, 1, t.values[1][1] + 1)  # diagonal keeps symmetry
    exhaustive = check_convolution_sum(bad, "exhaustive")
    assert not exhaustive.passed
    lhs, rhs = convolution_sum_sides(bad, *exhaustive.witness)
    assert (lhs, rhs) == (exhaustive.lhs, exhaustive.rhs)
    slice_mode = check_convolution_sum(bad, "convolution")
    assert not slice_mode.passed
    lhs, rhs = slice_convolution_sides(bad, *slice_mode.witness)
    assert (lhs, rhs) == (slice_mode.lhs, slice_mode.rhs)


def test_cross_mode_verdicts_on_diagonal_perturbations():
    # exhaustive and slice-convolution modes agree on single-entry
    # (diagonal, symmetry-preserving) perturbations
    rng = random.Random(13)
    count = 0
    while count < 100:
        q = rng.choice((3, 4, 5, 7))
        t = table(q)
        m = q - 1
        k = rng.randrange(m)
        shift = root_power(m, rng.randrange(m)).scale(
            Fraction(rng.randint(1, 3), rng.randint(1, 3))
        )
        bad = t.with_entry(k, k, t.values[k][k] + shift)
        exhaustive = check_convolution_sum(bad, "exhaustive")
        slice_mode = check_convolution_sum(bad, "convolution")
        assert exhaustive.passed == slice_mode.passed
        count += 1


def test_sampled_mode_with_full_coverage_equals_exhaustive():
    t = table(4)
    m = 3
    n = 40 * m**4
    bad = t.with_entry(1, 1, t.values[1][1] + 1)
    from jacobisum.verifier import _sample_quadruples

    assert len(_sample_quadruples(m, n, seed=1)) == m**4  # full coverage
    for tab in (t, bad):
        sampled = check_convolution_sum(tab, "sampled", sample_count=n, seed=1)
        exhaustive = check_convolution_sum(tab, "exhaustive")
        assert sampled.passed == exhaustive.passed
        assert sampled.witness == exhaustive.witness


def test_sampled_mode_is_deterministic():
    rng = random.Random(14)
    t = random_table(rng, (4,))
    first = check_convolution_sum(t, "sampled", sample_count=100, seed=5)
    second = check_convolution_sum(t, "sampled", sample_count=100, seed=5)
    assert first == second


def test_sampled_quadruples_follow_the_seeded_stream():
    from jacobisum.verifier import _sample_quadruples

    # a power of two, where every draw is accepted, and orders that reject
    for m in (13, 16, 48, 63):
        rng = random.Random(5)
        drawn = {tuple(rng.randrange(m) for _ in range(4)) for _ in range(20000)}
        assert _sample_quadruples(m, 20000, 5) == sorted(drawn)


def test_default_mode_thresholds():
    assert default_convolution_mode(10) == "exhaustive"
    assert default_convolution_mode(11) == "convolution"
    assert default_convolution_mode(40) == "convolution"
    assert default_convolution_mode(41) == "sampled"


def test_verify_all_aggregation():
    report = verify_all(table(9))
    assert report.passed
    assert report.convolution_mode == "exhaustive"
    report = verify_all(table(13))
    assert report.passed
    assert report.convolution_mode == "convolution"
    t = table(5)
    bad = t.with_entry(0, 2, -t.values[0][2])
    report = verify_all(bad)
    assert not report.passed
    assert not report.symmetry.passed


def test_verify_all_falls_back_when_symmetry_breaks():
    t = table(13)  # default mode would be convolution
    bad = t.with_entry(0, 2, -t.values[0][2])
    report = verify_all(bad)
    assert report.convolution_mode == "sampled"
    with pytest.raises(ValueError):
        verify_all(bad, c_mode="convolution")  # explicit request propagates


def test_verify_all_approximate():
    rng = random.Random(15)
    t = table(9)
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
    report = verify_all(noisy)
    assert report.approximate and report.passed
    # a perturbation far beyond the tolerance must be caught
    entries = [list(row) for row in noisy.entries]
    entries[1][2] += 0.5
    entries[2][1] += 0.5
    broken = ApproxTable(t.group, tuple(tuple(r) for r in entries))
    report = verify_all(broken)
    assert not report.passed


def test_approximate_modes():
    at = approximate(table(13))
    for mode in ("exhaustive", "convolution", "sampled"):
        report = verify_all(at, c_mode=mode)
        assert report.passed and report.convolution_mode == mode


def test_approximate_agrees_with_exact_on_embedded_tables():
    rng = random.Random(16)
    from helpers import symmetric_random_table

    for _ in range(8):
        t = symmetric_random_table(rng, rng.choice(((2,), (3,), (4,), (2, 2))))
        exact = verify_all(t, c_mode="exhaustive")
        approx = verify_all(approximate(t), c_mode="exhaustive")
        assert exact.convolution.passed == approx.convolution.passed
        if not exact.convolution.passed:
            assert exact.convolution.witness == approx.convolution.witness
        assert exact.cocycle_star.passed == approx.cocycle_star.passed
