"""Jacobi-sum tables: frozen small values, identities, and twists."""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobisum import (
    ApproxTable,
    Cyclotomic,
    GroupSpec,
    JacobiTable,
    approximate,
    build_field,
    compute_jacobi,
    delta,
    root_power,
    slice_function,
    table_from_support,
    twist_automorphism,
    twist_galois,
    verify_all,
)
from jacobisum.cyclotomic import reduction_data
from jacobisum.harness import dumps, table_from_json, table_to_json
from jacobisum.jacobi import table_from_pairs
from jacobisum.verifier import _evaluate

from helpers import (
    LARGER_PRIME_POWERS,
    PRIME_POWERS,
    convolve,
    extreme_tables,
    field,
    reference_table,
    reference_table_from_pairs,
    reference_twist_automorphism,
    reference_twist_galois,
    table,
)

# (9,), (12,), (15,) and (2, 6) have row orbits of several sizes
KERNEL_GROUPS = ((1,), (2,), (2, 2), (2, 4), (3, 3), (7,), (9,), (12,), (15,), (2, 6))


def _float_jacobi(f):
    """Independent oracle: the defining double sum in complex floats."""
    m = f.q - 1
    out = [[0j] * m for _ in range(m)]
    for x in f.elements:
        if x == f.zero:
            continue
        y = f.sub(f.one, x)
        if y == f.zero:
            continue
        dx, dy = f.dlog(x), f.dlog(y)
        for a in range(m):
            for b in range(m):
                out[a][b] += cmath.exp(2j * cmath.pi * ((a * dx + b * dy) % m) / m)
    return [[v / m for v in row] for row in out]


def test_f3_table_frozen():
    # single pair (2, 2) solves x + y = 1 in F_3*, so J(a, b) = (-1)^(a+b)/2
    t = table(3)
    half = Cyclotomic.from_rational(2, Fraction(1, 2))
    assert t.values[0][0] == half
    assert t.values[0][1] == -half
    assert t.values[1][0] == -half
    assert t.values[1][1] == half


def test_f4_table_frozen():
    # pairs (t, t^2) and (t^2, t); J(a, b) = 2/3 when a = b, else -1/3
    t = table(4)
    two_thirds = Cyclotomic.from_rational(3, Fraction(2, 3))
    minus_third = Cyclotomic.from_rational(3, Fraction(-1, 3))
    for a in range(3):
        for b in range(3):
            assert t.values[a][b] == (two_thirds if a == b else minus_third)


def test_trivial_character_value():
    # all q - 2 terms collapse to 1 at the trivial character pair
    for q in (3, 4, 5, 7, 8, 9, 13):
        t = table(q)
        m = q - 1
        assert t.values[0][0] == Cyclotomic.from_rational(m, Fraction(q - 2, q - 1))


def test_against_float_oracle():
    for q in (5, 8, 9):
        f = field(q)
        exact = table(q)
        approx = _float_jacobi(f)
        for a in range(q - 1):
            for b in range(q - 1):
                assert abs(exact.values[a][b].to_complex() - approx[a][b]) < 1e-10


def test_symmetry_of_classical_tables():
    for q in (5, 8, 9, 13):
        t = table(q)
        m = q - 1
        for a in range(m):
            for b in range(m):
                assert t.values[a][b] == t.values[b][a]


def test_entries_are_integral_after_scaling():
    # m * J is an algebraic integer: every denominator divides m
    for q in (5, 9, 16):
        t = table(q)
        m = q - 1
        for row in t.values:
            for e in row:
                assert m % e.den == 0


def test_jacobi_star_values():
    # the centered values J*(a, b) = J(a, b) - delta(a) - delta(b)
    def jacobi_star(t, alpha, beta):
        return t.value(alpha, beta) - delta(alpha) - delta(beta)

    t = table(3)
    m32 = Cyclotomic.from_rational(2, Fraction(-3, 2))
    assert jacobi_star(t, (0,), (0,)) == m32
    assert jacobi_star(t, (0,), (1,)) == m32
    assert jacobi_star(t, (1,), (1,)) == t.values[1][1]  # deltas vanish
    g1 = GroupSpec((1,))
    t1 = JacobiTable(g1, [[Cyclotomic.root(1, 0)]])
    assert jacobi_star(t1, (0,), (0,)) == Cyclotomic.from_rational(1, -1)


def test_slice_function():
    t = table(3)
    q1 = slice_function(t, (0,))
    half = Cyclotomic.from_rational(2, Fraction(1, 2))
    assert q1 == {(0,): half, (1,): half}
    # J(alpha, beta) = Q_{alpha beta}(beta) by definition
    t5 = table(5)
    g = t5.group
    for alpha in g.elements:
        for beta in g.elements:
            q = slice_function(t5, g.add(alpha, beta))
            assert q[beta] == t5.value(alpha, beta)


def test_slice_convolution_identity():
    # Q_alpha * Q_beta = Q_{alpha beta}, exhaustively for m <= 8
    for q in (5, 8, 9):
        t = table(q)
        g = t.group
        for alpha in g.elements:
            q_a = slice_function(t, alpha)
            for beta in g.elements:
                lhs = convolve(g, q_a, slice_function(t, beta))
                assert lhs == slice_function(t, g.add(alpha, beta))


def test_inverse_pair_special_value():
    # J(alpha, alpha^-1) = delta(alpha) - alpha(-1)/m with alpha(-1) via dlog
    for q in (3, 4, 5, 7, 9, 13):
        f = field(q)
        t = table(q)
        m = q - 1
        c = f.dlog(f.neg(f.one))
        g = t.group
        for alpha in g.elements:
            a = alpha[0]
            expected = (
                Cyclotomic.from_rational(m, delta(alpha))
                - root_power(m, a * c).scale(Fraction(1, m))
            )
            assert t.value(alpha, g.neg(alpha)) == expected


def test_twist_automorphism_examples():
    t = table(5)
    assert twist_automorphism(t, 1) == t
    g = t.group
    inverted = twist_automorphism(t, 3)  # 3 = -1 mod 4
    for alpha in g.elements:
        for beta in g.elements:
            assert inverted.value(alpha, beta) == t.value(g.neg(alpha), g.neg(beta))
    assert verify_all(twist_automorphism(t, 3)).passed


def test_twist_galois_examples():
    t = table(5)
    assert twist_galois(t, 1) == t
    conjugated = twist_galois(t, 3)  # r = m - 1 conjugates every entry
    for a in range(4):
        for b in range(4):
            assert conjugated.values[a][b] == t.values[a][b].galois(3)


def test_twists_agree_on_classical_tables():
    for q in (5, 7, 9, 13):
        t = table(q)
        m = q - 1
        for r in range(1, m):
            if math.gcd(r, m) == 1:
                assert twist_automorphism(t, r) == twist_galois(t, r)


def test_twists_preserve_axioms():
    t = table(7)
    for r in (1, 5):
        assert verify_all(twist_automorphism(t, r)).passed
        assert verify_all(twist_galois(t, r)).passed


def test_twist_rejects_non_automorphism():
    t = table(5)
    with pytest.raises(ValueError):
        twist_automorphism(t, 2)
    with pytest.raises(ValueError):
        twist_galois(t, 2)


def test_table_from_support_matches_classical():
    # the F_3 table comes from support {1} with i(1) = g
    g = GroupSpec((2,))
    rebuilt = table_from_support(g, [(0,)], {(0,): (1,)})
    assert rebuilt == table(3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_from_pairs_matches_root_sums(data):
    g = GroupSpec(data.draw(st.sampled_from(KERNEL_GROUPS)))
    index = st.integers(0, g.m - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=2 * g.m))
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    got = table_from_pairs(g, us, vs)
    assert got == reference_table(g, pairs)
    _assert_same_arrays(got, reference_table_from_pairs(g, us, vs))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_unit_scaling_is_the_galois_action(data):
    # J(r alpha, r beta) = sigma_r J(alpha, beta) for every pair list and
    # unit r, the identity table_from_pairs builds on, here on root sums
    g = GroupSpec(data.draw(st.sampled_from(KERNEL_GROUPS)))
    index = st.integers(0, g.m - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=2 * g.m))
    t = reference_table(g, pairs)
    for r in range(1, g.m + 1):
        if math.gcd(r, g.m) == 1:
            assert twist_automorphism(t, r) == twist_galois(t, r), r


def _assert_same_arrays(got: JacobiTable, want: JacobiTable):
    assert (got.num.dtype, got.den.dtype) == (want.num.dtype, want.den.dtype)
    assert np.array_equal(got.num, want.num) and np.array_equal(got.den, want.den)


@pytest.mark.parametrize("q", sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}))
def test_table_kernel_matches_the_int64_kernel(q):
    # the float64 product gives the arrays, dtypes included, that the
    # int64 product gave for every field in the exact range
    f = field(q)
    xs = f.elements[2:]
    us = [f.dlog(x) for x in xs]
    vs = [f.dlog(f.sub(f.one, x)) for x in xs]
    _assert_same_arrays(compute_jacobi(f), reference_table_from_pairs(GroupSpec((q - 1,)), us, vs))


def test_table_kernel_bound_holds_to_order_255():
    # a table is built from at most m pairs (q - 2 for a field, one per
    # support point), each adding at most row_bound to a coefficient
    for m in range(1, 256):
        assert m * reduction_data(m).row_bound < 2**53, m


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_table_from_support_matches_root_sums(data):
    g = GroupSpec(data.draw(st.sampled_from([(2, 2), (2, 4), (3, 3)])))
    support = data.draw(st.lists(st.sampled_from(g.elements), unique=True))
    smap = {x: data.draw(st.sampled_from(g.elements)) for x in support}
    pairs = [(g.index(smap[x]), g.index(g.sub(smap[x], x))) for x in support]
    assert table_from_support(g, support, smap) == reference_table(g, pairs)


def test_table_validation():
    g = GroupSpec((2,))
    with pytest.raises(ValueError):
        JacobiTable(g, [[Cyclotomic.root(2, 0)]])
    with pytest.raises(ValueError):
        JacobiTable(g, [[Cyclotomic.root(3, 0)] * 2] * 2)


def test_approximate_embedding():
    t = table(4)
    at = approximate(t)
    assert at.group == t.group
    assert abs(at.entry(0, 0) - (2 / 3)) < 1e-12


def test_random_tables_are_not_jacobi():
    rng = random.Random(9)
    g = GroupSpec((3,))
    rows = [
        [Cyclotomic.from_rational(3, Fraction(rng.randint(-6, 6), 2)) for _ in range(3)]
        for _ in range(3)
    ]
    t = JacobiTable(g, rows)
    report = verify_all(t)
    assert not report.passed


def _dtype_of(values) -> type:
    """int64 when every value lies strictly within +-2^63, else object."""
    return np.int64 if all(-(2**63) < v < 2**63 for v in values) else object


@pytest.mark.parametrize("q", [4, 9, 64])
def test_table_arrays_are_canonical(q):
    for name, t in extreme_tables(q):
        cells = [e for row in t.values for e in row]
        assert t.num.dtype == _dtype_of(c for e in cells for c in e.num), name
        assert t.den.dtype == _dtype_of(e.den for e in cells), name
        routes = (
            JacobiTable(t.group, t.values),
            table_from_json(json.loads(dumps(table_to_json(t)))),
            JacobiTable._from_arrays(t.group, t.num.astype(object), t.den.astype(object)),
        )
        for u in routes:
            assert (u.num.dtype, u.den.dtype) == (t.num.dtype, t.den.dtype), name
            assert np.array_equal(u.num, t.num) and np.array_equal(u.den, t.den), name
            assert u == t and hash(u) == hash(t), name
            assert u.values == t.values, name
        assert (t == table(q)) == (name == f"q{q}"), name


@pytest.mark.parametrize("q", [4, 9, 64])
def test_from_arrays_divides_out_each_cells_content(q):
    # unreduced input: every cell scaled by k, or every cell over the
    # table's common denominator L, must give the canonical arrays back
    for name, t in extreme_tables(q):
        num, den = t.num.astype(object), t.den.astype(object)
        scale = math.lcm(*den.ravel().tolist())
        inputs = [(num * k, den * k) for k in (2, 6, 2**40)]
        inputs.append((num * (scale // den)[:, :, None], scale))
        for k, (n, d) in zip((2, 6, 2**40, "L"), inputs):
            u = JacobiTable._from_arrays(t.group, n, d)
            assert (u.num.dtype, u.den.dtype) == (t.num.dtype, t.den.dtype), (name, k)
            assert np.array_equal(u.num, t.num) and np.array_equal(u.den, t.den), (name, k)
            assert u.den.shape == t.den.shape and u.den.flags.writeable, (name, k)
            assert u == t and hash(u) == hash(t), (name, k)


@pytest.mark.parametrize("q", [4, 9, 64])
def test_entry_equals_the_canonicalising_constructor(q):
    # entry takes the arrays' canonical form as it is; the constructor,
    # which canonicalises again, must give the same value, with Python ints
    seen = set()
    for name, t in extreme_tables(q):
        seen.add(t.num.dtype)
        m = t.group.m
        for i, j in itertools.product(range(m), repeat=2):
            got = t.entry(i, j)
            want = Cyclotomic(m, t.num[i, j].tolist(), t.den.item(i, j))
            assert got == want and hash(got) == hash(want), (name, i, j)
            assert (got.m, got.num, got.den) == (want.m, want.num, want.den), (name, i, j)
            assert all(type(c) is int for c in got.num + (got.den,)), (name, i, j)
    assert seen == {np.dtype(np.int64), np.dtype(object)}


def test_table_equality_across_dtypes():
    t = table(9)
    big = t.with_entry(1, 2, t.entry(1, 2) + Fraction(2**70, 3))
    back = big.with_entry(1, 2, t.entry(1, 2))
    assert (t.num.dtype, big.num.dtype, back.num.dtype) == (np.int64, object, np.int64)
    assert big != t and back == t and hash(back) == hash(t)


def _grid_with_entry(t: JacobiTable, i: int, j: int, value: Cyclotomic) -> JacobiTable:
    rows = [list(row) for row in t.values]
    rows[i][j] = value
    return JacobiTable(t.group, rows)


def test_with_entry_equals_the_grid_built_table():
    # with_entry edits copies of the arrays; the table built from the whole
    # Cyclotomic grid is the reference, dtypes included
    t = table(9)
    big = _grid_with_entry(t, 1, 2, t.entry(1, 2) + Fraction(2**70, 3))
    cases = (
        (t, 2, 1, t.entry(2, 1) + Fraction(3, 7)),  # an int64 table stays int64
        (t, 1, 2, t.entry(1, 2) + 2**63),  # a new value past 2^63
        (t, 0, 0, Cyclotomic.from_rational(8, -(2**63))),  # -2^63 does not fit
        (big, 2, 1, t.entry(2, 1) + 1),  # a table already of Python ints
        (big, 1, 2, t.entry(1, 2)),  # ... whose only big value is replaced
    )
    for u, i, j, value in cases:
        got, want = u.with_entry(i, j, value), _grid_with_entry(u, i, j, value)
        assert (got.num.dtype, got.den.dtype) == (want.num.dtype, want.den.dtype), value
        assert np.array_equal(got.num, want.num) and np.array_equal(got.den, want.den), value
    assert u.num.dtype == object and got.num.dtype == np.int64
    with pytest.raises(ValueError):
        t.with_entry(0, 0, Cyclotomic.root(3, 0))


@pytest.mark.parametrize("q", sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}))
def test_approximate_matches_to_complex_bit_for_bit(q):
    tables = extreme_tables(q) if q in (4, 8, 27, 49, 64) else [(f"q{q}", table(q))]
    for name, t in tables:
        want = tuple(tuple(e.to_complex() for e in row) for row in t.values)
        assert repr(approximate(t).entries) == repr(want), name


def test_approximate_on_the_trivial_group():
    t = compute_jacobi(build_field(2, 1))
    assert repr(approximate(t).entries) == repr(((t.entry(0, 0).to_complex(),),))


def test_approx_table_holds_one_read_only_array():
    # the scans read the table's own array, which nothing can change: not
    # a caller through values, nor the source array the table was built from
    for t in (compute_jacobi(build_field(2, 1)), table(4), table(9), table(64)):
        at, m = approximate(t), t.group.m
        assert at.values.dtype == np.complex128 and at.values.shape == (m, m)
        assert not at.values.flags.writeable
        with pytest.raises(ValueError):
            at.values[0, 0] = 0
        assert ApproxTable(at.group, at.entries) == at
        assert all(type(at.entry(i, j)) is complex and at.entry(i, j) == at.entries[i][j]
                   for i in range(m) for j in range(m))
        assert np.shares_memory(_evaluate(at).values, at.values)
    source = at.values.copy()
    copied = ApproxTable(at.group, source)
    source[1, 2] += 1
    assert copied == at and copied != ApproxTable(at.group, source)
    with pytest.raises(ValueError, match="table must be 3 x 3"):
        ApproxTable(GroupSpec((3,)), [[0j] * 3] * 2)


@pytest.mark.parametrize("q", [4, 9, 16, 27])
def test_twists_match_per_entry_references(q):
    m = q - 1
    for name, t in extreme_tables(q):
        for r in range(1, m):
            if math.gcd(r, m) == 1:
                assert twist_automorphism(t, r) == reference_twist_automorphism(t, r), (name, r)
                assert twist_galois(t, r) == reference_twist_galois(t, r), (name, r)


def test_twists_match_per_entry_references_at_q64():
    t = table(64)
    for r in (5, 62):
        assert twist_automorphism(t, r) == reference_twist_automorphism(t, r)
        assert twist_galois(t, r) == reference_twist_galois(t, r)
