"""Group structure, the dual pairing, and exact Fourier analysis."""

from __future__ import annotations

import math
import random

import pytest

from jacobisum import (
    Cyclotomic,
    GroupSpec,
    delta,
    dft,
    pairing,
)
from jacobisum.abelian import index_tables, pairing_matrix, row_orbits

from helpers import convolve, idft, random_function


def test_pairing_examples():
    z4 = GroupSpec((4,))
    assert pairing(z4, (1,), (1,)) == 1
    assert pairing(z4, (2,), (3,)) == 2  # 2*3 mod 4
    z2xz4 = GroupSpec((2, 4))
    assert z2xz4.m == 8
    assert pairing(z2xz4, (1, 0), (1, 0)) == 4  # 1*1*(8/2) mod 8


def test_pairing_bilinearity():
    g = GroupSpec((2, 4))
    m = g.m
    rng = random.Random(0)
    for _ in range(50):
        a, b, x = (g.elements[rng.randrange(m)] for _ in range(3))
        assert pairing(g, g.add(a, b), x) == (pairing(g, a, x) + pairing(g, b, x)) % m
        assert pairing(g, x, g.add(a, b)) == (pairing(g, x, a) + pairing(g, x, b)) % m


def test_index_tables_and_pairing_matrix_follow_the_group_law():
    for factors in ((), (1,), (2,), (5,), (2, 2), (2, 4), (3, 3), (2, 3, 2)):
        g = GroupSpec(factors)
        els = g.elements
        add, neg, sub = index_tables(g)
        assert add.tolist() == [[g.index(g.add(a, b)) for b in els] for a in els]
        assert neg.tolist() == [g.index(g.neg(a)) for a in els]
        assert sub.tolist() == [[g.index(g.sub(a, b)) for b in els] for a in els]
        assert pairing_matrix(g).tolist() == [[pairing(g, a, x) for x in els] for a in els]


def test_row_orbits_label_every_element_by_its_rep():
    for factors in ((), (1,), (2,), (7,), (9,), (12,), (15,), (2, 2), (2, 4), (2, 6),
                    (3, 3), (4, 4), (2, 2, 4)):
        g = GroupSpec(factors)
        m, els = g.m, g.elements
        reps, rows, twist = row_orbits(g)
        units = [r for r in range(1, m + 1) if math.gcd(r, m) == 1]
        orbits = {frozenset(g.index(g.scale(r, x)) for r in units) for x in els}
        # one rep per orbit, its least element, in increasing order
        assert reps.tolist() == sorted(min(orbit) for orbit in orbits), factors
        for x in range(m):
            p, r = rows[x, 0] // m, twist[x, 1 % m]
            assert math.gcd(r, m) == 1 and g.scale(r, els[reps[p]]) == els[x], (factors, x)
            s = pow(int(r), -1, m)
            assert rows[x].tolist() == [p * m + g.index(g.scale(s, b)) for b in els], (factors, x)
            assert twist[x].tolist() == [r * e % m for e in range(m)], (factors, x)
    assert row_orbits(GroupSpec((1,)))[0].tolist() == [0]


def test_pairing_nondegenerate():
    for factors in ((4,), (2, 2), (2, 4), (6,)):
        g = GroupSpec(factors)
        for a in g.elements:
            if a != g.identity:
                assert any(pairing(g, a, x) != 0 for x in g.elements)


def test_malformed_elements():
    g = GroupSpec((2, 3))
    with pytest.raises(ValueError):
        pairing(g, (2, 0), (0, 0))
    with pytest.raises(ValueError):
        pairing(g, (0, 0), (0, 3))
    with pytest.raises(ValueError):
        g.index((1,))


def test_bad_factors():
    with pytest.raises(ValueError):
        GroupSpec((0, 2))


def test_delta():
    assert delta((0, 0)) == 1
    assert delta((1, 0)) == 0
    assert delta((0,)) == 1  # trivial group's only element


def test_character_orthogonality():
    # sum over x of alpha(x) equals m * delta(alpha), exactly
    for factors in ((1,), (2,), (5,), (2, 2), (2, 4), (6,)):
        g = GroupSpec(factors)
        m = g.m
        for a in g.elements:
            total = Cyclotomic.root_sum(m, (pairing(g, a, x) for x in g.elements))
            assert total == Cyclotomic.from_rational(m, m * delta(a))


def test_dft_on_z2():
    g = GroupSpec((2,))
    one = Cyclotomic.root(2, 0)
    constant = {e: one for e in g.elements}
    out = dft(g, constant)
    assert out[(0,)] == Cyclotomic.from_rational(2, 2)
    assert out[(1,)] == Cyclotomic.zero(2)
    indicator = {(0,): Cyclotomic.zero(2), (1,): one}
    out = dft(g, indicator)
    assert out[(0,)] == one
    assert out[(1,)] == Cyclotomic.from_rational(2, -1)


def test_fourier_inversion():
    rng = random.Random(3)
    for factors in ((6,), (2, 3), (2, 2)):
        g = GroupSpec(factors)
        f = random_function(rng, g)
        assert idft(g, dft(g, f)) == f


def test_dft_requires_total_function():
    g = GroupSpec((3,))
    with pytest.raises(ValueError):
        dft(g, {(0,): Cyclotomic.root(3, 0)})


def test_convolution_unit():
    rng = random.Random(4)
    g = GroupSpec((5,))
    f = random_function(rng, g)
    unit = {e: Cyclotomic.zero(5) for e in g.elements}
    unit[g.identity] = Cyclotomic.root(5, 0)
    assert convolve(g, f, unit) == f


def test_convolution_of_singletons():
    g = GroupSpec((2, 3))
    m = g.m

    def indicator(e):
        out = {x: Cyclotomic.zero(m) for x in g.elements}
        out[e] = Cyclotomic.root(m, 0)
        return out

    b, c = (1, 2), (1, 1)
    assert convolve(g, indicator(b), indicator(c)) == indicator(g.add(b, c))


def test_convolution_theorem():
    rng = random.Random(5)
    g = GroupSpec((4,))
    f1 = random_function(rng, g)
    f2 = random_function(rng, g)
    lhs = dft(g, convolve(g, f1, f2))
    f1_hat = dft(g, f1)
    f2_hat = dft(g, f2)
    assert lhs == {x: f1_hat[x] * f2_hat[x] for x in g.elements}


def test_convolution_commutative_associative():
    rng = random.Random(6)
    g = GroupSpec((2, 3))
    f1, f2, f3 = (random_function(rng, g) for _ in range(3))
    assert convolve(g, f1, f2) == convolve(g, f2, f1)
    assert convolve(g, convolve(g, f1, f2), f3) == convolve(g, f1, convolve(g, f2, f3))


def test_element_indexing_is_lexicographic():
    g = GroupSpec((2, 3))
    assert g.elements == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert g.index((1, 2)) == 5
    assert g.element(0) == g.identity


def test_generators():
    g = GroupSpec((2, 1, 4))
    assert g.generators() == ((1, 0, 0), (0, 0, 1))
