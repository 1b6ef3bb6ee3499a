"""Enumeration of all Jacobi functions on small groups vs the field oracle."""

from __future__ import annotations

import pytest

from jacobisum import (
    GroupSpec,
    enumerate_jacobi,
    oracle_addition_tables,
    oracle_count,
    reconstruct,
    twist_automorphism,
)

from helpers import ORACLE_GROUPS, reference_oracle_addition_tables, table

SMALL_GROUPS = ((1,), (2,), (3,), (4,), (2, 2), (5,), (6,))


def test_oracle_examples():
    assert oracle_count(GroupSpec((2,))) == 1  # one isomorphism onto F_3*
    assert oracle_count(GroupSpec((4,))) == 2  # two pullbacks from F_5
    assert oracle_count(GroupSpec((2, 2))) == 0  # F_5* is cyclic
    assert oracle_count(GroupSpec((5,))) == 0  # 6 is not a prime power
    assert oracle_count(GroupSpec((1,))) == 1  # the two-element field


def test_enumeration_counts_match_oracle():
    for factors in SMALL_GROUPS:
        result = enumerate_jacobi(GroupSpec(factors))
        assert result.agreement, factors
        assert result.count == result.oracle_count


def test_enumeration_finds_the_classical_tables():
    z2 = enumerate_jacobi(GroupSpec((2,)))
    assert z2.count == 1
    assert z2.tables[0] == table(3)
    z4 = enumerate_jacobi(GroupSpec((4,)))
    assert z4.count == 2
    t5 = table(5)
    assert {t5, twist_automorphism(t5, 3)} == set(z4.tables)


def test_every_enumerated_table_passes_and_reconstructs():
    for factors in SMALL_GROUPS:
        g = GroupSpec(factors)
        result = enumerate_jacobi(g)
        oracle_tables = set(oracle_addition_tables(g))
        reconstructed = set()
        for t in result.tables:
            report = reconstruct(t)
            assert report.case == "field" and report.ok
            if g.m >= 2:
                assert len(report.support) == g.m - 1  # never full support
            reconstructed.add(report.addition.table)
        # bijection at the level of addition tables, not just counts
        assert reconstructed == oracle_tables


def test_oracle_tables_match_the_reference_pullback():
    for factors in ORACLE_GROUPS:
        g = GroupSpec(factors)
        assert oracle_addition_tables(g) == reference_oracle_addition_tables(g), factors


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_jacobi(GroupSpec((8,)))
    with pytest.raises(ValueError):
        oracle_addition_tables(GroupSpec((2048,)))


def test_tables_are_pairwise_distinct():
    result = enumerate_jacobi(GroupSpec((6,)))
    assert len(set(result.tables)) == result.count


def test_multi_factor_presentation_of_a_cyclic_group():
    # Z/2 x Z/3 is Z/6 in disguise; the count must not depend on the
    # presentation and the multi-factor pairing must reconstruct cleanly
    g = GroupSpec((2, 3))
    result = enumerate_jacobi(g)
    assert result.agreement
    assert result.count == enumerate_jacobi(GroupSpec((6,))).count == 2
    for t in result.tables:
        report = reconstruct(t)
        assert report.case == "field" and report.ok
        assert report.involution == (1, 0)  # the unique element of order 2
        assert report.field_checks.characteristic == 7


def test_noncyclic_group_with_prime_power_carrier():
    # order 8 carrier exists (GF(8)) but its unit group is Z/7, so
    # Z/7 gets its count from the oracle too
    result = enumerate_jacobi(GroupSpec((7,)))
    assert result.agreement
    assert result.count == oracle_count(GroupSpec((7,)))
