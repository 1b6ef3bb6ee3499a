"""Axiom checks: verdicts, witnesses, and the exact and complex scans against reference loops."""

from __future__ import annotations

import cmath
import hashlib
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
    enumerate_jacobi,
    euler_phi,
    root_power,
    slice_convolution_sides,
    twist_automorphism,
    twist_galois,
    verify_all,
)
from jacobisum import reconstructor, verifier
from jacobisum.enumerator import _candidate_maps
from jacobisum.harness import dumps, table_from_json, table_to_json, verification_to_json
from jacobisum.jacobi import ApproxTable, table_from_support
from jacobisum.verifier import _Residues

from helpers import (
    LARGER_PRIME_POWERS,
    PRIME_POWERS,
    extreme_tables,
    moved_approx,
    moved_tables,
    random_cyclotomic,
    reference_cocycle_approx,
    reference_residues,
    reference_symmetry_witness,
    reference_witness,
    random_table,
    symmetric_random_table,
    table,
)


def _one_table(value) -> JacobiTable:
    g = GroupSpec((1,))
    return JacobiTable(g, [[Cyclotomic.from_rational(1, value)]])


def test_classical_tables_pass_all_checks():
    for q in (4, 5, 7, 8):
        t = table(q)
        assert check_symmetry(t).passed
        assert check_cocycle_star(t).passed
        assert check_cocycle_direct(t).passed
        assert check_convolution_sum(t).passed


def test_symmetry_witness():
    t = table(5)
    bad = t.with_entry(0, 2, -t.values[0][2])
    result = check_symmetry(bad)
    assert not result.passed
    assert result.witness == ((0,), (2,))
    assert result.lhs != result.rhs  # the witness re-checks as a genuine inequality


def test_symmetry_on_the_arrays_matches_the_residue_scan(monkeypatch):
    # an exact table's symmetry is read off its arrays, with no residues,
    # and gives the pair the residue scan finds first: one-cell moves by
    # small and huge values, int64 and Python-int arrays, and random tables
    rng = random.Random(12)
    tables = [t for _, t in extreme_tables(9)] + [t for _, t in moved_tables(16)]
    for factors in ((3,), (2, 2), (2, 4), (7,)):
        tables += [random_table(rng, factors), symmetric_random_table(rng, factors)]
    scans = [reference_symmetry_witness(_Residues(t)) for t in tables]
    assert None in scans and len(set(scans)) > 2

    def refuse(self, table):
        raise AssertionError("symmetry built the residues")

    monkeypatch.setattr(_Residues, "__init__", refuse)
    for t, scan in zip(tables, scans):
        result = check_symmetry(t)
        assert result.passed == (scan is None), t
        if scan is not None:
            assert tuple(t.group.index(x) for x in result.witness) == scan, t
            assert (result.lhs, result.rhs) == (t.entry(*scan), t.entry(*scan[::-1]))


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
        result = check_convolution_sum(_one_table(a))
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


def _certified(t, report) -> bool:
    """Whether the certificate should have accepted the table: exactly
    when it passes and its reconstruction is a field."""
    return report.passed and reconstructor.reconstruct(t).case == "field"


def _assert_matches_reference(t):
    # verify_all shares one evaluation of the table across its scans
    report = verify_all(t)
    assert report.method == ("certificate" if _certified(t, report) else "scan")
    alone = (check_cocycle_star(t), check_cocycle_direct(t), check_convolution_sum(t))
    for result, single in zip(report.checks[1:], alone):
        assert result == single, (t, result.check)
        expected = reference_witness(t, result.check)
        assert result.passed == (expected is None), (t, result.check)
        if expected is not None:
            assert (result.witness, result.lhs, result.rhs) == expected, (t, result.check)


def test_engines_agree():
    # the multi-modular engine against a plain scan on random tables
    rng = random.Random(12)
    for factors in ((1,), (2,), (3,), (2, 2), (4,), (2, 4), (3, 3), (2, 2, 2)):
        _assert_matches_reference(random_table(rng, factors))
        _assert_matches_reference(symmetric_random_table(rng, factors))
    assert check_convolution_sum(table(8)).passed


def test_engine_fallback_on_huge_entries():
    # entries past int64 need no fallback path: the engine still answers exactly
    for value in (Fraction(1 << 70, 3), (1 << 63) + 1):
        huge = Cyclotomic.from_rational(2, value)
        _assert_matches_reference(
            JacobiTable(GroupSpec((2,)), [[huge, huge], [huge, Cyclotomic.root(2, 0)]])
        )
        t = JacobiTable(GroupSpec((2,)), [[huge, huge], [huge, huge]])
        _assert_matches_reference(t)
        assert isinstance(check_cocycle_star(t).passed, bool)


def test_residue_primes_depend_on_entry_sizes_only():
    # the coefficient bound, and so the primes, depend on the sizes of the
    # entries, not on their signs or cells: -2^63 fits int64 and 2^63 does
    # not, yet both have size 2^63, and an integer entry is scaled by the
    # common denominator whichever cell the denominator's entry sits in
    g = GroupSpec((2,))
    one = Cyclotomic.root(2, 0)
    pairs = (
        (1 << 63, 1),
        (1 << 40, Fraction(1, 1 << 40)),
        (Fraction(1 << 70, 3), Fraction(5, 2**31 - 1)),
    )
    for a, b in pairs:
        primes = set()
        for x, y in ((a, b), (b, a), (-a, b), (b, -a)):
            rows = [[Cyclotomic.from_rational(2, x), one], [one, Cyclotomic.from_rational(2, y)]]
            primes.add(tuple(_Residues(JacobiTable(g, rows)).moduli))
        assert len(primes) == 1, (a, b)


def _assert_residues_match_reference(t: JacobiTable, name: str):
    r, ref = _Residues(t), reference_residues(t)
    for key in ("values", "moduli", "scale", "m_inverse", "root_powers"):
        got, want = getattr(r, key), getattr(ref, key)
        assert got.dtype == want.dtype and np.array_equal(got, want), (name, key)
    assert r.denominator == ref.denominator, name


@pytest.mark.parametrize("q", sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}))
def test_residues_match_the_int64_reference(q):
    # the float64 digit products give the arrays, dtypes included, of the
    # prime-by-prime int64 evaluation: every field's table, and at some
    # sizes its copies with cells moved by zeta, 3/7, c/(2^31 - 1), 2^70/3
    # and 1/2^62 or replaced by -2^63, 2^63 - 1, (1/3, 2^62/5) and c(1 - zeta),
    # and divided by 2^63 with a zero cell
    tables = extreme_tables(q) if q in (4, 8, 27, 49, 64) else [(f"q{q}", table(q))]
    for name, t in tables:
        _assert_residues_match_reference(t, name)


@pytest.mark.parametrize("q", sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}))
def test_first_point_alone_equals_the_full_evaluation(q):
    # the first point evaluated alone, before any other, holds the int32
    # residues of the full evaluation's first point, byte for byte: every
    # field's table, and at some sizes its moved and extreme copies
    tables = extreme_tables(q) if q in (4, 8, 27, 49, 64) else [(f"q{q}", table(q))]
    for name, t in tables:
        r = _Residues(t)
        first = r.at(slice(0, 1))
        assert "values" not in r.__dict__, name
        full = _Residues(t).values[:, :, :1]
        assert first.dtype == full.dtype == np.int32, name
        assert first.shape == full.shape and first.tobytes() == full.tobytes(), name
        # once values is built, every read slices it
        values = r.values
        assert np.shares_memory(r.at(slice(0, 1)), values), name


def _per_entry_residues(t: JacobiTable, r: _Residues) -> np.ndarray:
    """L J(i, j) at every point of r, entry by entry in Python ints: the
    entry's coefficients at the point's root, times L / den, modulo the
    point's prime."""
    m, deg = t.group.m, t.num.shape[2]
    out = np.empty((m, m, len(r.moduli)), dtype=np.int32)
    for k, p in enumerate(r.moduli.tolist()):
        root = int(r.root_powers[min(1, m - 1), k])
        powers = [pow(root, e, p) for e in range(deg)]
        for i, j in itertools.product(range(m), repeat=2):
            value = sum(c * w for c, w in zip(t.num[i, j].tolist(), powers))
            out[i, j, k] = value * (r.denominator // t.den.item(i, j)) % p
    return out


def _decoded(doc: dict, cells: dict) -> JacobiTable:
    """The table of a document with some cells' strings replaced, decoded
    from its text."""
    entries = [list(row) for row in doc["entries"]]
    for (i, j), value in cells.items():
        entries[i][j] = value.to_strings() if isinstance(value, Cyclotomic) else value
    return table_from_json(json.loads(dumps(dict(doc, entries=entries))))


def _gathered_tables():
    """(name, table) for decoded tables shaped like the rejected inputs of the
    benchmark (a cell moved by a root of unity, a symmetric pair moved by
    c/7 and by c/(2^31 - 1)), built tables, a with_entry table and both
    twists, a table of Python ints, a document that writes 1/2 as "1/2"
    and as "2/4", a table whose cells never repeat, and one whose cells
    differ only where -128 and 128 stand."""
    for q in (4, 8, 9, 16):
        t, m = table(q), q - 1
        doc, v = table_to_json(t), t.values
        yield f"q{q}:asym", _decoded(doc, {(1, 2): v[1][2] + root_power(m, 2)})
        for name, s in (("sym", Fraction(3, 7)), ("bigden", Fraction(12345, 2**31 - 1))):
            yield f"q{q}:{name}", _decoded(doc, {(1, 2): v[1][2] + s, (2, 1): v[2][1] + s})
        yield f"q{q}", t
    t, m = table(16), 15
    yield "q16:with_entry", t.with_entry(3, 4, t.entry(3, 4) + Fraction(1, 3))
    yield "q16:automorphism", twist_automorphism(t, 7)
    yield "q16:galois", twist_galois(t, 7)
    yield "q16:2^70/3", t.with_entry(1, 2, t.entry(1, 2) + Fraction(2**70, 3))
    zeros = ["0"] * (euler_phi(m) - 1)
    yield "q16:1/2,2/4", _decoded(table_to_json(t), {(1, 2): ["1/2", *zeros], (3, 4): ["2/4", *zeros]})
    rng = np.random.default_rng(5)
    yield "q16:unrepeated", JacobiTable._from_arrays(
        t.group, rng.integers(-9, 10, size=(m, m, euler_phi(m))), 1)
    yield "q16:+-128", JacobiTable._from_arrays(
        t.group, rng.choice([-128, 1, 128], size=(m, m, euler_phi(m))), 1)


def test_gathered_evaluation_equals_the_per_entry_reference():
    # each distinct cell is evaluated once and gathered by the numbering;
    # the residues, all points or the first alone, are those of every entry
    # evaluated by itself
    for name, t in _gathered_tables():
        r = _Residues(t)
        want = _per_entry_residues(t, r)
        first = _Residues(t).at(slice(0, 1))
        assert first.dtype == np.int32 and first.tobytes() == want[:, :, :1].tobytes(), name
        assert r.values.dtype == np.int32 and r.values.tobytes() == want.tobytes(), name


def _assert_numbered(t: JacobiTable, name: str) -> int:
    """Equal numbers hold equal (num, den) rows, and firsts[k] holds number
    k, numbered in order of first appearance; returns the count of numbers."""
    m = t.group.m
    ids, firsts = t.cells
    num, den = t.num.reshape(m * m, -1), t.den.ravel()
    assert np.array_equal(ids[firsts], np.arange(len(firsts))), name
    assert (np.diff(firsts) > 0).all(), name
    assert np.array_equal(num[firsts][ids], num) and np.array_equal(den[firsts][ids], den), name
    return len(firsts)


def test_cell_numbers_hold_equal_entries():
    # a table that numbers its own cells tells every two unequal cells
    # apart, while a document's "1/2" and "2/4" are numbered apart; both
    # twists and with_entry copies of a numbered table derive their
    # numbering from its own, so they number those two cells apart too
    tables = dict(_gathered_tables())
    for name, t in tables.items():
        m, count = t.group.m, _assert_numbered(t, name)
        fresh = JacobiTable._from_arrays(t.group, t.num, t.den)
        rows = {(d, *n) for d, n in zip(t.den.ravel().tolist(), t.num.reshape(m * m, -1).tolist())}
        assert _assert_numbered(fresh, name) == len(rows), name
        for twist in (twist_automorphism(t, m - 1), twist_galois(t, m - 1)):
            assert twist._cells is not None, name  # derived, not numbered on first read
            assert _assert_numbered(twist, name) == count, name
        # with_entry gives the replaced cell a fresh number, and drops its
        # old one where no other cell holds it
        ids = t.cells[0].reshape(m, m)
        for i, j in ((1, 2), (0, 0), (m - 1, 0)):
            copy = t.with_entry(i, j, t.entry(i, j) + Fraction(1, 3))
            assert copy._cells is not None, name
            alone = int((ids == ids[i, j]).sum() == 1)
            assert _assert_numbered(copy, name) == count + 1 - alone, (name, i, j)
        assert fresh.with_entry(1, 2, t.entry(1, 2))._cells is not None, name
        bare = JacobiTable._from_arrays(t.group, t.num, t.den)
        assert bare.with_entry(1, 2, t.entry(1, 2))._cells is None, name
    assert len(tables["q16:unrepeated"].cells[1]) == 15 * 15
    unrepeated = tables["q16:unrepeated"]
    assert len(unrepeated.with_entry(3, 4, unrepeated.entry(5, 6)).cells[1]) == 15 * 15
    halves = tables["q16:1/2,2/4"]
    ids = halves.cells[0].reshape(15, 15)
    assert halves.entry(1, 2) == halves.entry(3, 4) and ids[1, 2] != ids[3, 4]
    # -1 moves (1, 2) and (3, 4) to (14, 13) and (12, 11)
    ids = twist_automorphism(halves, 14).cells[0].reshape(15, 15)
    assert ids[14, 13] != ids[12, 11]
    ids = twist_galois(halves, 14).cells[0].reshape(15, 15)
    assert ids[1, 2] != ids[3, 4]
    ids = halves.with_entry(0, 0, halves.entry(0, 0) + 1).cells[0].reshape(15, 15)
    assert ids[1, 2] != ids[3, 4]


def test_residues_at_the_prime_cap():
    # over conductor 3, a cell of 2^795 takes all the primes the cap
    # allows and 40 digits over Python ints; a cell of 2^1000 takes more
    t = table(4)
    under = t.with_entry(1, 2, Cyclotomic.from_rational(3, 2**795))
    assert under.num.dtype == object
    assert len(set(_Residues(under).moduli.tolist())) == verifier._MAX_PRIMES
    _assert_residues_match_reference(under, "2^795")
    over = t.with_entry(1, 2, Cyclotomic.from_rational(3, 2**1000))
    with pytest.raises(ValueError, match=f"more than {verifier._MAX_PRIMES} primes"):
        verify_all(over)


def test_residue_products_are_exact_to_order_255():
    # each float64 sum adds phi(m) products of a digit, of size at most
    # 2^_DIGIT_BITS, and a root power below the prime
    for m in range(1, 256):
        assert euler_phi(m) * 2**verifier._DIGIT_BITS * (verifier._PRIME_LIMIT - 1) < 2**53, m


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


def _moved(t: JacobiTable, i: int, j: int, shift) -> JacobiTable:
    """The table with cell (i, j) and its transpose moved by `shift`."""
    t = t.with_entry(i, j, t.values[i][j] + shift)
    return t if i == j else t.with_entry(j, i, t.values[j][i] + shift)


def test_chunked_scans_match_reference_scan(monkeypatch):
    # with one pair, one point and one s1 row per chunk, and again with the
    # default chunks.  A move by the first prime is invisible at that
    # prime's points, point 0 among them, which the scan reads first:
    # moving (1, 3) so fails
    # the convolution sum at s1 = 0, after the move of (0, 1) by zeta failed
    # it at s1 = 1, and moving (0, 1) or (1, 4) so fails s1 = 1 at a pair
    # before the ones the move of (0, 5) fails, (1, 4) at the pair just
    # before.  The move of (2, 5), in slice m - 1, first fails the pair
    # (d, a4) = (1, 5) of row 1, after 13 passing pairs; moving (4, 7) by
    # the first prime fails (1, 2), which only the second prime's points
    # show.  On the group (3, 3), a table built from a candidate support
    # map passes the convolution sum until (8, 7) moves, and a move of
    # (1, 2) by the first prime then fails an earlier pair
    t = table(9)
    first = int(_Residues(t).moduli[0])
    zeta = root_power(8, 1)
    g = GroupSpec((3, 3))
    support = [x for x in g.elements if x != g.identity]
    t33 = table_from_support(g, support, next(_candidate_maps(g, g.identity)))
    first33 = int(_Residues(t33).moduli[0])
    cases = [
        (_moved(t, 0, 1, zeta), (1, 0, 1)),
        (_moved(_moved(t, 0, 1, zeta), 1, 3, first), (0, 0, 4)),
        (_moved(_moved(t, 0, 5, zeta), 0, 1, first), (1, 0, 1)),
        (_moved(_moved(t, 0, 5, zeta), 1, 4, first), (1, 0, 4)),
        (_moved(t, 2, 5, zeta), (1, 1, 5)),
        (_moved(_moved(t, 2, 5, zeta), 4, 7, first), (1, 1, 2)),
        (_moved(t33, 8, 7, Fraction(1, 3)), (0, 0, 3)),
        (_moved(_moved(t33, 8, 7, Fraction(1, 3)), 1, 2, first33), (0, 0, 0)),
    ]
    assert check_convolution_sum(t33).passed
    for scan_bytes in (1, verifier._SCAN_BYTES):
        monkeypatch.setattr(verifier, "_SCAN_BYTES", scan_bytes)
        for bad, (s1, d, a4) in cases:
            els = bad.group.elements
            assert check_convolution_sum(bad).witness == (els[0], els[s1], els[d], els[a4])
            _assert_matches_reference(bad)


def test_first_prime_move_at_q64():
    # (1, 2) and (2, 1) moved by the first prime: invisible at that prime's
    # points, which are interleaved with the second prime's, so the
    # convolution scan meets a failing row at its first chunk.  Witnesses
    # and values are those the prime-by-prime point order gave, pinned
    # with the report's bytes
    t = table(64)
    first = _first_prime(64)
    bad = _moved(t, 1, 2, first)
    r = _Residues(bad)
    assert r.moduli[0] == first and r.moduli[1] != first
    report = verify_all(bad)
    assert report.symmetry.passed
    els = bad.group.elements
    assert report.cocycle_star.witness == report.cocycle_direct.witness == (els[1], els[1], els[2])
    conv = report.convolution
    assert conv.witness == (els[0], els[0], els[0], els[3])
    assert (conv.lhs, conv.rhs) == (Fraction(-22369033, 21), Fraction(-1, 63))
    text = dumps(verification_to_json(report))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1da0514420c238eafde478914388595460c4b44d38e1d97eda26a356cc20c6cb"
    )


def test_reject_witnesses_at_q64():
    # cell (1, 2) moved alone by a root of unity, and with its transpose by
    # a root of unity, by 3/7 and by c/(2^31 - 1), whose denominator needs
    # more primes; the m^4 reference loop is too slow at this size
    t = table(64)
    zeta = root_power(63, 5)
    cases = [
        (t.with_entry(1, 2, t.values[1][2] + zeta), (1, 1, 1)),
        (_moved(t, 1, 2, zeta), (1, 1, 2)),
        (_moved(t, 1, 2, Fraction(3, 7)), (1, 1, 2)),
        (_moved(t, 1, 2, Fraction(12345, 2**31 - 1)), (1, 1, 2)),
    ]
    for bad, cocycle in cases:
        report = verify_all(bad)
        assert report.symmetry.passed == (bad.values[1][2] == bad.values[2][1])
        for result in report.checks[1:3]:
            assert result.witness == tuple((i,) for i in cocycle)
        conv = report.convolution
        assert conv.witness == ((0,), (0,), (0,), (3,))
        assert (conv.lhs, conv.rhs) == convolution_sum_sides(bad, *conv.witness)
        assert conv.lhs != conv.rhs


# q = 64 with one side of an inverse pair (b, -b) moved by zeta: the two
# cocycle forms fail at different triples, the starred one in its column
# c = -b.  Witnesses and report hashes are those of the two separate scans
INVERSE_PAIR_PINNED = {
    (1, 62): ((1, 1, 61), (0, 1, 62),
              "b654edd6ae38eb62d7d3efa8589da5186669119823de9e4891bd717191a13dd4"),
    (2, 61): ((1, 1, 61), (0, 2, 61),
              "4cb39dffe794da1daa70d2fce976a0fa7aacb912057e95d2932aab16743d943a"),
    (5, 58): ((1, 4, 58), (0, 5, 58),
              "ccde5293e2de15d76b1b30c7fc3acd8cfd0a5755fc939355ec2fb684f64038ea"),
}


@pytest.mark.parametrize("cell", sorted(INVERSE_PAIR_PINNED))
def test_inverse_pair_moves_at_q64_are_pinned(cell):
    star, direct, digest = INVERSE_PAIR_PINNED[cell]
    t = table(64)
    bad = t.with_entry(*cell, t.entry(*cell) + root_power(63, 1))
    report = verify_all(bad)
    assert report.cocycle_star.witness == tuple((i,) for i in star)
    assert report.cocycle_direct.witness == tuple((i,) for i in direct)
    text = dumps(verification_to_json(report))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("q", sorted(q for q in PRIME_POWERS if q <= 16))
def test_cocycle_pass_matches_reference_on_inverse_pair_moves(q):
    # one side of an inverse pair moved, and sometimes a second cell: the
    # one pass gives each form's first witness of the plain triple loop
    rng = random.Random(f"inverse-pair/{q}")
    t, m = table(q), q - 1
    shifts = (root_power(m, 1), Fraction(3, 7), Fraction(1, 2**62), Fraction(2**70, 3))
    differ = 0
    for _ in range(4):
        b = rng.randrange(m)
        cell = (b, (-b) % m)
        bad = t.with_entry(*cell, t.entry(*cell) + rng.choice(shifts))
        if rng.random() < 0.5:
            i, j = rng.randrange(m), rng.randrange(m)
            bad = bad.with_entry(i, j, bad.entry(i, j) + root_power(m, rng.randrange(m)))
        r = _Residues(bad)
        results = check_cocycle_star(bad, r), check_cocycle_direct(bad, r)
        for result in results:
            expected = reference_witness(bad, result.check)
            assert result.passed == (expected is None), (cell, result.check)
            if expected is not None:
                assert (result.witness, result.lhs, result.rhs) == expected, (cell, result.check)
        differ += results[0].witness != results[1].witness
    assert differ or m < 3


def _zero_factor_table(rng: random.Random, factors) -> JacobiTable:
    """A table whose starred row 0, J*(0, b) = J(0, b) - 1 - d(b), is a
    random u at b = 0 and u or 0 elsewhere, so that the starred form holds
    at b = 0, and about half of whose other starred entries
    J*(a, b) = J(a, b) - d(b) are 0, the rest random."""
    g = GroupSpec(tuple(factors))
    m = g.m
    u = random_cyclotomic(rng, m)
    zero = Cyclotomic.zero(m)
    rows = [[(u if b == 0 or rng.random() < 0.5 else zero) + 1 + (b == 0) for b in range(m)]]
    for _ in range(1, m):
        rows.append([random_cyclotomic(rng, m) if rng.random() < 0.5
                     else Cyclotomic.from_rational(m, int(b == 0)) for b in range(m)])
    return JacobiTable(g, rows)


def _coboundary_table(rng: random.Random, factors) -> JacobiTable:
    """J(a, b) = f(a) f(b) / f(a + b) + d(a) + d(b) for f(x) = c_x zeta^k_x
    with random rationals c_x != 0: J* is a coboundary, so both cocycle
    forms hold at every triple (and skew is 0)."""
    g = GroupSpec(tuple(factors))
    m, els = g.m, g.elements
    f = [(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)), rng.randrange(m))
         for _ in range(m)]

    def entry(a, b):
        (ca, ka), (cb, kb) = f[a], f[b]
        cab, kab = f[g.index(g.add(els[a], els[b]))]
        return root_power(m, (ka + kb - kab) % m) * (ca * cb / cab) + (a == 0) + (b == 0)

    return JacobiTable(g, [[entry(a, b) for b in range(m)] for a in range(m)])


def _row_zero_tables():
    """(name, table) for the cocycle pass's a = 0 block: field tables, whose
    starred row 0 is constant, with cells of row or column 0 moved, alone
    or with their transposes, and with one side of an inverse pair moved,
    which fails the direct form alone in column c = -b; zero-factor
    tables; coboundary tables; and random and symmetric random tables, on
    non-cyclic groups among others."""
    rng = random.Random("row-zero")
    for q in (4, 8, 9, 16):
        t, m = table(q), q - 1
        for cell in sorted({(0, 0), (0, 1), (1, 0), (0, m - 1), (m - 1, 0), (0, m // 2)}):
            for shift in (Fraction(1, 7), root_power(m, 1)):
                yield f"q{q}{cell}+{shift}", t.with_entry(*cell, t.entry(*cell) + shift)
                yield f"q{q}{cell}+{shift} both", _moved(t, *cell, shift)
        yield f"q{q}(1, -1)", t.with_entry(1, m - 1, t.entry(1, m - 1) + root_power(m, 1))
    for factors in ((5,), (6,), (2, 2), (2, 4), (3, 3)):
        for k in range(4):
            yield f"{factors} zero factor {k}", _zero_factor_table(rng, factors)
            yield f"{factors} coboundary {k}", _coboundary_table(rng, factors)
        yield f"{factors} random", random_table(rng, factors)
        yield f"{factors} symmetric random", symmetric_random_table(rng, factors)


def _star_row_zero_difference(t: JacobiTable) -> tuple[int, int, int] | None:
    """The first (0, b, c) where the starred row 0 differs between b and
    b + c, the triples where the starred form fails unless J*(b, c) = 0."""
    g = t.group
    row = [verifier._star(t, 0, b) for b in range(g.m)]
    for b, c in itertools.product(range(g.m), repeat=2):
        if row[b] != row[g.index(g.add(g.elements[b], g.elements[c]))]:
            return 0, b, c
    return None


def test_cocycle_row_zero_matches_the_full_pass_and_the_reference(monkeypatch):
    # the a = 0 block decided by comparing entries gives each form the
    # witness and sides of the plain triple loop, and of the pass that
    # multiplies the block out at every point
    tables = list(_row_zero_tables())
    decided = []
    for _, t in tables:
        r = _Residues(t)
        decided.append((check_cocycle_star(t, r), check_cocycle_direct(t, r)))
    monkeypatch.setattr(_Residues, "cocycle_row_zero", staticmethod(lambda skew: (None, None, 0)))
    seen = {"star at a = 0": 0, "direct alone at a = 0": 0, "zero factor": 0, "pass": 0}
    for (name, t), results in zip(tables, decided):
        r = _Residues(t)
        assert results == (check_cocycle_star(t, r), check_cocycle_direct(t, r)), name
        for result in results:
            expected = reference_witness(t, result.check)
            assert result.passed == (expected is None), (name, result.check)
            if expected is not None:
                assert (result.witness, result.lhs, result.rhs) == expected, (name, result.check)
        g = t.group
        star, direct = (None if c.passed else tuple(map(g.index, c.witness)) for c in results)
        seen["pass"] += star is direct is None
        seen["star at a = 0"] += star is not None and star[0] == 0
        seen["direct alone at a = 0"] += direct is not None and direct[0] == 0 != star[0]
        # a zero J*(b, c) hides a difference of the starred row 0
        first = _star_row_zero_difference(t)
        seen["zero factor"] += first is not None and (star is None or first < star)
        if "coboundary" in name:
            assert star is direct is None, name
    assert min(seen.values()) >= 4, seen


def test_chunks_cover_the_range_and_fit_the_cap():
    # the first chunk fits _FIRST_CHUNK_BYTES and each next one doubles up
    # to _SCAN_BYTES; a shorter remainder joins the chunk before it where
    # the two fit _SCAN_BYTES, so q = 8's 6 points of 1,568 bytes are one
    assert [len(c) for c in verifier._chunks(6, 1568)] == [6]
    assert [len(c) for c in verifier._chunks(10, 1 << 12, 2)] == [2, 6]
    for n, size, start in ((72, 4 * 8 * 63 * 63, 0), (3969, 63 * 72 * 8, 63), (49, 1, 0),
                           (100, 1 << 20, 0), (5, 1 << 12, 5)):
        chunks = list(verifier._chunks(n, size, start))
        assert [i for c in chunks for i in c.tolist()] == list(range(start, n)), (n, size)
        cap = max(1, verifier._SCAN_BYTES // size)
        assert all(len(c) <= cap for c in chunks), (n, size)


@pytest.mark.parametrize("q", sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}))
def test_transform_products_equal_the_int64_product(q):
    # the two-limb float64 product equals the int64 product, and so does
    # its reduction mod p at every point: the transforms of every field's
    # table, and at some sizes of its moved and extreme copies; and on the
    # field's table, whose first prime is the largest, residues of p - 1
    # times p - 1
    tables = extreme_tables(q) if q in (4, 8, 27, 49, 64) else [(f"q{q}", table(q))]
    for name, t in tables:
        r = _Residues(t)
        m, moduli = t.group.m, r.moduli[:, None, None]
        w = r.root_powers[r.pairing].transpose(2, 0, 1)
        cases = [(r.values[np.arange(m), r.addneg].transpose(2, 0, 1), w)]
        if name == f"q{q}":
            top = np.broadcast_to(moduli - 1, w.shape)
            cases += [(top, top), (top, w)]
        for a, b in cases:
            want = a.astype(np.int64) @ b
            got = r.product(a, b)
            assert got.dtype == np.int64 and np.array_equal(got, want), name
            assert np.array_equal(r.reduce(got, slice(None), 0), want % moduli), name
    assert 256 * (2**verifier._DIGIT_BITS - 1) * (verifier._PRIME_LIMIT - 1) < 2**53


def test_verify_all_leaves_the_evaluation_as_it_was():
    # the scans read r.values and write nothing into it
    t8, t64 = table(8), table(64)
    tables = [
        _moved(t8, 1, 2, Fraction(3, 7)),
        t8.with_entry(1, 6, t8.entry(1, 6) + root_power(7, 1)),
        t64.with_entry(1, 62, t64.entry(1, 62) + root_power(63, 1)),
        moved_approx(approximate(t8), {(1, 6)}, lambda z: z + 0.25),
        moved_approx(approximate(t8), {(0, 3), (3, 0)}, lambda z: z + 0.25j),
    ]
    for t in tables:
        r = verifier._evaluate(t)
        before = r.values.copy()
        report = verify_all(t, residues=r)
        assert not report.passed and report.method == "scan"
        assert r.values.dtype == before.dtype and r.values.tobytes() == before.tobytes()


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
        forced = reconstructor.reconstruct(big, force=True)
    assert not report.cocycle_star.passed and not report.cocycle_direct.passed
    assert not report.passed
    # the transforms stay finite, and the unit slice's is 3e200 everywhere
    assert forced.inconsistency == {
        "stage": "support",
        "witness": (0,),
        "detail": "transform value (3e+200+0j) is not near 0 or 1",
    }


@pytest.mark.parametrize("one_index_per_chunk", [False, True])
def test_chunked_complex_cocycle_scans_match_whole_arrays(monkeypatch, one_index_per_chunk):
    # the witness and both of its values, signed zeros included, must be
    # those of the whole m^3 arrays; with one first index per chunk, the
    # move of (62, 61) at q = 64 first fails at a = 1, in the second chunk
    if one_index_per_chunk:
        monkeypatch.setattr(verifier, "_SCAN_BYTES", 1)
    rng = random.Random(34)
    big = ApproxTable(GroupSpec((3,)), tuple(tuple(1e200 + 0j for _ in range(3)) for _ in range(3)))
    at64 = approximate(table(64))
    cases = [big, at64, moved_approx(at64, {(62, 61)}, lambda z: z + 0.5)]
    for q in (4, 8, 9, 16):
        at = approximate(table(q))
        m = q - 1
        i, j = rng.randrange(m), rng.randrange(m)
        cases.append(moved_approx(at, {(i, j)}, lambda z: z + 0.25j))
        cases.append(moved_approx(at, {(i, j), (j, i)}, lambda z: 0j))
    # one side of (1, 0) moved: the direct form first fails at (1, 0, 0),
    # where both delta terms of its right side are nonzero
    at = approximate(table(8))
    cases.append(moved_approx(at, {(1, 0)}, lambda z: z + 0.25))
    for factors in ((2, 2), (2, 3)):
        cases.append(approximate(random_table(rng, factors)))
    for at in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_all(at)
            expected = [reference_cocycle_approx(at, 1e-6, star) for star in (True, False)]
        for result, reference in zip((report.cocycle_star, report.cocycle_direct), expected):
            assert result.passed == (reference is None)
            if reference is not None:
                witness, lhs, rhs = reference
                assert result.witness == witness
                assert (repr(result.lhs), repr(result.rhs)) == (repr(lhs), repr(rhs))
    moved = verify_all(cases[2])
    assert moved.cocycle_star.witness == moved.cocycle_direct.witness == ((1,), (61,), (61,))


def _reject_tables(q: int, seed: int):
    """(name, table) for decoded tables shaped like the rejected inputs of
    the benchmark: (1, 2) moved by a root of unity, and (1, 2) with (2, 1)
    moved by c/7 and by c/(2^31 - 1)."""
    rng = random.Random(f"reject/{seed}/{q}")
    t, m = table(q), q - 1
    doc, v = table_to_json(t), t.values
    zeta = root_power(m, rng.randrange(1, m))
    yield f"q{q}/{seed}:asym", _decoded(doc, {(1, 2): v[1][2] + zeta})
    for name, s in (("sym", Fraction(rng.randrange(1, 7), 7)),
                    ("bigden", Fraction(rng.randrange(1, 2**20), 2**31 - 1))):
        yield f"q{q}/{seed}:{name}", _decoded(doc, {(1, 2): v[1][2] + s, (2, 1): v[2][1] + s})


def _command_line_tables():
    """(name, table) for the q = 64 tables the command-line chains reject:
    (1, 2), (2, 1) moved by 1/(2^61 - 1) and (3, 4), (4, 3) by 1/(2^31 - 1),
    decoded; (1, 62) moved by zeta; and a table whose cells never repeat."""
    t = table(64)
    s, u = Fraction(1, 2**61 - 1), Fraction(1, 2**31 - 1)
    cells = {(1, 2): t.entry(1, 2) + s, (2, 1): t.entry(2, 1) + s,
             (3, 4): t.entry(3, 4) + u, (4, 3): t.entry(4, 3) + u}
    yield "d64", _decoded(table_to_json(t), cells)
    yield "p64", t.with_entry(1, 62, t.entry(1, 62) + root_power(63, 1))
    rng = random.Random(1)
    cell = lambda: Cyclotomic.from_coefficients(63, [rng.randint(-9, 9) for _ in range(36)])
    yield "u64", JacobiTable(GroupSpec((63,)), [[cell() for _ in range(63)] for _ in range(63)])


_REFERENCE_SIDES = {
    "cocycle-star": cocycle_star_sides,
    "cocycle-direct": cocycle_direct_sides,
    "convolution-sum": convolution_sum_sides,
}


def _assert_sides_are_the_references(t: JacobiTable, name: str) -> int:
    """Every failing check's two sides, lifted from the evaluation, are the
    Cyclotomic values of the reference functions at its witness; returns
    the number of failing checks."""
    report = verify_all(t)
    failed = [c for c in report.checks if not c.passed]
    for c in failed:
        if c.check == "symmetry":
            a, b = c.witness
            want = t.value(a, b), t.value(b, a)
        else:
            want = _REFERENCE_SIDES[c.check](t, *c.witness)
        assert (c.lhs, c.rhs) == want and c.lhs != c.rhs, (name, c.check)
        assert type(c.lhs) is type(c.rhs) is Cyclotomic, (name, c.check)
    return len(failed)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 7, 12, 15, 48, 63, 64, 127, 128, 242, 255])
def test_interpolation_inverts_the_root_powers(m):
    # V[e, j] = r_j^e for e < phi(m), at the first three primes: each
    # product sums phi(m) terms below 2^50, exact in int64
    below = verifier._PRIME_LIMIT
    for _ in range(3):
        p, powers = verifier._prime_field(m, below)
        w = verifier._interpolation(m, p)
        v = powers[:euler_phi(m)]
        assert w.shape == v.shape and not w.flags.writeable, (m, p)
        assert np.array_equal(v @ w % p, np.eye(len(v), dtype=np.int64)), (m, p)
        below = p


@pytest.mark.parametrize("q", [8, 16, 32, 49, 64])
def test_lifted_sides_are_the_references_on_reject_tables(q):
    for seed in (1, 2, 3):
        for name, t in _reject_tables(q, seed):
            assert _assert_sides_are_the_references(t, name) == (4 if "asym" in name else 3)


@pytest.mark.parametrize("q", sorted(q for q in {**PRIME_POWERS, **LARGER_PRIME_POWERS} if q >= 4))
def test_lifted_sides_are_the_references_on_extreme_tables(q):
    # moved and replaced cells, up to 2^70/3 and 2^63, need up to 8 primes
    failing = sum(_assert_sides_are_the_references(t, name) > 0 for name, t in extreme_tables(q))
    assert failing >= 8, q


def test_lifted_sides_are_the_references_on_command_line_tables():
    # d64 needs 9 primes, and u64 evaluates every one of its 3,969 cells
    for name, t in _command_line_tables():
        assert _assert_sides_are_the_references(t, name) >= 2, name
    assert len(_Residues(dict(_command_line_tables())["d64"]).primes) == 9


# sha256 of the reports of _complex_witness_tables, one after another: every
# witness and both of its complex sides, signed zeros included, as the
# Cyclotomic-style arithmetic on one-point arrays gave them
COMPLEX_REPORTS_PINNED = "1b62ce0d2990539c76f16ae5076e31b817cb368bb7c20df281ee7cde94ab8ee3"


def _complex_witness_tables():
    """Complex tables that fail every check or all but symmetry: embedded
    field tables with (1, 2) moved by 0.25i, (1, 2) and (2, 1) moved by 3/7
    or set to 0, and (1, 2) moved by 0.25 once every entry is conjugated
    and its zero parts negated."""
    for q in (4, 8, 16, 27, 64):
        at, m = approximate(table(q)), q - 1
        yield moved_approx(at, {(1, 2)}, lambda z: z + 0.25j)
        yield moved_approx(at, {(1, 2), (2, 1)}, lambda z: z + 3 / 7)
        yield moved_approx(at, {(1, 2), (2, 1)}, lambda z: 0j)
        conjugate = moved_approx(at, itertools.product(range(m), repeat=2),
                                 lambda z: complex(z.real or -0.0, -z.imag or -0.0))
        yield moved_approx(conjugate, {(1, 2)}, lambda z: z + 0.25)


def test_complex_witness_reports_are_pinned():
    digest = hashlib.sha256()
    for at in _complex_witness_tables():
        report = verify_all(at)
        assert not report.passed and all(type(c.lhs) is np.complex128 for c in report.checks
                                         if not c.passed)
        digest.update(dumps(verification_to_json(report)).encode())
    assert digest.hexdigest() == COMPLEX_REPORTS_PINNED


@pytest.mark.parametrize("first_bytes, scan_bytes", [(1, 1), (1, 1 << 30), (1 << 30, 1 << 30)])
def test_convolution_witness_is_independent_of_the_chunks(monkeypatch, first_bytes, scan_bytes):
    # one point per chunk, one then all points, and all at once: the
    # candidate and its confirmation read the same points in the same
    # order, so the witness and its sides are those of the default chunks
    t9 = table(9)
    tables = [t for q in (16, 49, 64) for _, t in _reject_tables(q, 1)]
    tables += [_moved(t9, 0, 1, root_power(8, 1)), _moved(t9, 2, 5, root_power(8, 1)),
               moved_approx(approximate(table(16)), {(1, 2), (2, 1)}, lambda z: z + 3 / 7)]
    expected = [check_convolution_sum(t) for t in tables]
    assert {r.witness[1] for r in expected} == {(0,), (1,)}
    monkeypatch.setattr(verifier, "_FIRST_CHUNK_BYTES", first_bytes)
    monkeypatch.setattr(verifier, "_SCAN_BYTES", scan_bytes)
    for t, want in zip(tables, expected):
        got = check_convolution_sum(t)
        assert got.witness == want.witness
        assert (repr(got.lhs), repr(got.rhs)) == (repr(want.lhs), repr(want.rhs))


def test_convolution_witness_verifies():
    t = table(4)
    bad = t.with_entry(1, 1, t.values[1][1] + 1)  # diagonal keeps symmetry
    result = check_convolution_sum(bad)
    assert not result.passed
    lhs, rhs = convolution_sum_sides(bad, *result.witness)
    assert (lhs, rhs) == (result.lhs, result.rhs)


def test_slice_convolution_sides():
    # on a symmetric table the slice identity Q_a * Q_b = Q_ab is the
    # convolution sum, so it holds everywhere on a classical table and
    # fails somewhere once the convolution sum does
    t = table(4)
    bad = t.with_entry(1, 1, t.values[1][1] + 1)
    points = list(itertools.product(t.group.elements, repeat=3))
    assert all(lhs == rhs for lhs, rhs in (slice_convolution_sides(t, *p) for p in points))
    assert not check_convolution_sum(bad).passed
    assert any(lhs != rhs for lhs, rhs in (slice_convolution_sides(bad, *p) for p in points))


def test_verify_all_aggregation():
    report = verify_all(table(9))
    assert report.passed
    assert report.convolution_mode == "exhaustive"
    report = verify_all(table(13))
    assert report.passed
    assert report.convolution_mode == "exhaustive"
    t = table(5)
    bad = t.with_entry(0, 2, -t.values[0][2])
    report = verify_all(bad)
    assert not report.passed
    assert not report.symmetry.passed


def _scans(t: JacobiTable):
    residues = _Residues(t)
    return (
        check_symmetry(t),
        check_cocycle_star(t, residues),
        check_cocycle_direct(t, residues),
        check_convolution_sum(t, residues),
    )


def _assert_certified(t: JacobiTable):
    report = verify_all(t)
    assert report.method == "certificate", t
    assert report.passed and report.checks == _scans(t), t


def test_certificate_verdicts_equal_scans_on_field_tables():
    # every field in the exact range, and twists of the smaller ones: the
    # certificate accepts them and the scans pass them
    for q in sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS}):
        t = table(q)
        m = q - 1
        _assert_certified(t)
        units = [r for r in range(2, m) if math.gcd(r, m) == 1]
        for r in units if q <= 16 else units[:1] if q <= 32 else ():
            _assert_certified(twist_automorphism(t, r))
            _assert_certified(twist_galois(t, r))


def test_certificate_verdicts_equal_scans_on_enumeration_candidates():
    # every candidate the enumerator tries on groups of order <= 7, the
    # tables it keeps among them: certified exactly when the scans pass,
    # GF(2)'s zero table on the trivial group included
    certified = kept = 0
    for factors in ((1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3), (7,)):
        g = GroupSpec(factors)
        kept += enumerate_jacobi(g).count
        for c in g.elements:
            if g.add(c, c) != g.identity:
                continue
            support = tuple(e for e in g.elements if e != c)
            for smap in _candidate_maps(g, c):
                t = table_from_support(g, support, smap)
                report = verify_all(t)
                assert report.checks == _scans(t), t
                assert report.method == ("certificate" if _certified(t, report) else "scan"), t
                certified += report.method == "certificate"
    assert certified == kept == 11


def _certificate_stop(t: JacobiTable) -> str | None:
    """The step at which the certificate gives up on a table, or None."""
    result = reconstructor.certify(t, _Residues(t))
    return result if isinstance(result, str) else None


def _square(t: JacobiTable, a: int, b: int, shift) -> JacobiTable:
    """The table with cells (a, a) and (b, b) moved by `shift` and (a, b)
    and (b, a) by -shift: still symmetric, with the same row sums."""
    t = _moved(_moved(t, a, a, shift), b, b, shift)
    return _moved(t, a, b, -shift)


def _first_prime(q: int) -> int:
    return int(_Residues(table(q)).moduli[0])


@pytest.mark.parametrize("stage, make, witnesses", [
    # a symmetric one-cell move changes two row sums: the benchmark's cell
    pytest.param("row sums", lambda: _moved(table(8), 1, 2, Fraction(3, 7)),
                 ((1, 1, 2), (1, 1, 2), (0, 0, 0, 3)), id="row-sums"),
    # the unit slice J(-b, b) moved: the transform is no longer 0 or 1
    pytest.param("support", lambda: _square(table(9), 1, 7, Fraction(3, 8)),
                 ((1, 1, 2), (1, 1, 2), (0, 0, 0, 0)), id="support"),
    # the generator's slice J(1 - b, b) moved: no longer a root of unity
    pytest.param("support-map", lambda: _square(table(9), 2, 7, Fraction(3, 8)),
                 ((1, 1, 2), (1, 1, 2), (0, 0, 0, 4)), id="support-map"),
    # the benchmark's reject cell and a late one, outside slices 0 and 1:
    # the stages rebuild the field, whose table differs from the input
    pytest.param("exact compare", lambda: _square(table(64), 1, 2, Fraction(3, 7)),
                 ((1, 1, 2), (1, 1, 2), (0, 0, 0, 2)), id="first-point"),
    pytest.param("exact compare", lambda: _square(table(64), 62, 61, Fraction(3, 7)),
                 ((1, 60, 61), (1, 60, 61), (0, 0, 0, 59)), id="first-point-late"),
    # the zero table on the group of order 2 is the support sum of the
    # empty support; it satisfies the convolution sum
    pytest.param("classify", lambda: table_from_support(GroupSpec((2,)), [], {}),
                 ((0, 0, 1), (0, 0, 1), None), id="classify"),
    # a move by the first prime is invisible at every point of that prime
    pytest.param("exact compare", lambda: _square(table(64), 1, 2, _first_prime(64)),
                 ((1, 1, 2), (1, 1, 2), (0, 0, 0, 2)), id="exact-compare"),
])
def test_certificate_falls_through_to_scans(stage, make, witnesses):
    # symmetric tables whose common denominator divides m, each stopping
    # the certificate at a different step: the scans then run as without
    # it and give the witnesses the scans alone give
    bad = make()
    assert _certificate_stop(bad) == stage
    report = verify_all(bad)
    assert report.method == "scan" and report.certificate is None
    assert report.checks == _scans(bad)
    assert report.symmetry.passed
    got = tuple(c.witness and tuple(x for (x,) in c.witness) for c in report.checks[1:])
    assert got == witnesses
    if bad.group.m <= 8:
        _assert_matches_reference(bad)


@pytest.mark.parametrize("stage, make, witnesses", [
    pytest.param("denominator", lambda: _moved(table(64), 1, 2, Fraction(1, 2**31 - 1)),
                 (None, (1, 1, 2), (1, 1, 2), (0, 0, 0, 3)), id="denominator"),
    pytest.param("row sums", lambda: _moved(table(64), 1, 2, Fraction(1, 7)),
                 (None, (1, 1, 2), (1, 1, 2), (0, 0, 0, 3)), id="row-sums"),
    pytest.param("exact compare", lambda: _square(table(64), 1, 2, Fraction(3, 7)),
                 (None, (1, 1, 2), (1, 1, 2), (0, 0, 0, 2)), id="exact-compare"),
    pytest.param(None, lambda: table(64).with_entry(1, 2, table(64).entry(1, 2) + root_power(63, 1)),
                 ((1, 2), (1, 1, 1), (1, 1, 1), (0, 0, 0, 3)), id="asymmetric"),
])
def test_refused_tables_scan_as_on_a_full_evaluation(stage, make, witnesses):
    # the certificate reads the first point alone; the scans that follow
    # it evaluate every point and find the witnesses they find on an
    # evaluation built in full before the certificate ran
    bad = make()
    if stage is not None:
        assert _certificate_stop(bad) == stage
    eager = _Residues(bad)
    assert eager.values.dtype == np.int32
    report = verify_all(bad)
    assert report.checks == verify_all(bad, residues=eager).checks
    got = tuple(c.witness and tuple(x for (x,) in c.witness) for c in report.checks)
    assert got == witnesses


def test_exact_compare_refuses_after_one_field_check(monkeypatch):
    # a candidate whose rebuilt table differs from the input is refused at
    # "exact compare" after one check of its carrier, which certify then
    # discards, and the scans give the witnesses they give alone; a forced
    # reconstruction checks the carrier of its own run once more
    calls = []
    check = reconstructor.verify_field
    monkeypatch.setattr(reconstructor, "verify_field", lambda at: calls.append(at) or check(at))
    bad = _square(table(64), 1, 2, Fraction(3, 7))
    assert _certificate_stop(bad) == "exact compare" and len(calls) == 1
    report = verify_all(bad)
    assert report.method == "scan" and report.checks == _scans(bad) and len(calls) == 2
    got = tuple(c.witness and tuple(x for (x,) in c.witness) for c in report.checks)
    assert got == (None, (1, 1, 2), (1, 1, 2), (0, 0, 0, 2))
    forced = reconstructor.reconstruct(bad, force=True)
    assert forced.field_checks.passed and not forced.roundtrip_ok and len(calls) == 4
    assert verify_all(table(64)).passed and len(calls) == 5


def test_certificate_preconditions():
    # no certificate without symmetry, and none when the common
    # denominator does not divide m, which no field's table has; the scans
    # then decide alone.  On the trivial group, GF(2)'s table J = 0 is
    # certified; the boolean J = 1, whose row sums to 1, is not, and its
    # complex copy stops where the boolean case does, at "classify"
    t = table(8)
    assert verify_all(t.with_entry(1, 2, t.values[1][2] + 1)).method == "scan"
    zero, one = _one_table(0), _one_table(1)
    assert _certificate_stop(zero) is None
    report = verify_all(zero)
    assert report.passed and report.method == "certificate"
    certificate = report.certificate
    assert certificate.case == "field" and certificate.field_checks.characteristic == 2
    assert _certificate_stop(one) == "row sums"
    complex_one = approximate(one)
    assert reconstructor.certify(complex_one, verifier._evaluate(complex_one)) == "classify"
    for u in (one, complex_one):
        report = verify_all(u)
        assert report.passed and report.method == "scan"
    for q, shift in ((8, Fraction(1, _first_prime(8))), (8, Fraction(1, 2)), (16, Fraction(3, 7))):
        bad = _moved(table(q), 1, 2, shift)
        assert _certificate_stop(bad) == "denominator"
        report = verify_all(bad)
        assert report.method == "scan" and report.checks == _scans(bad)
        assert not report.passed


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
    assert report.approximate and report.passed and report.method == "certificate"
    assert report.tolerance == 1e-6
    # a perturbation far beyond the tolerance must be caught
    entries = [list(row) for row in noisy.entries]
    entries[1][2] += 0.5
    entries[2][1] += 0.5
    broken = ApproxTable(t.group, tuple(tuple(r) for r in entries))
    report = verify_all(broken)
    assert not report.passed


def _noisy_field_table(q: int, amplitude: float, seed: int) -> ApproxTable:
    """The embedded table of the field with q elements, each part of every
    entry moved by up to `amplitude`."""
    rng = random.Random(seed)
    cells = itertools.product(range(q - 1), repeat=2)
    return moved_approx(approximate(table(q)), cells, lambda z: z + complex(
        rng.uniform(-amplitude, amplitude), rng.uniform(-amplitude, amplitude)))


def _complex_scans(at: ApproxTable, tolerance: float):
    r = verifier._evaluate(at, tolerance)
    return tuple(check(at, r) for check in (
        check_symmetry, check_cocycle_star, check_cocycle_direct, check_convolution_sum))


@settings(max_examples=30, deadline=None)
@given(
    q=st.sampled_from(sorted({**PRIME_POWERS, **LARGER_PRIME_POWERS})),
    exponent=st.floats(-13, -6),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_complex_tables_pass_every_scan(q, exponent, seed):
    # the certificate's bound proves every scan passes on the evaluation
    # it read, so a certified verdict is the scans' verdict
    at = _noisy_field_table(q, 10.0**exponent, seed)
    r = verifier._evaluate(at, 1e-6)
    report = verify_all(at, residues=r)
    if report.method == "certificate":
        assert report.passed and report.checks == _complex_scans(at, 1e-6)
        for check in (check_cocycle_star, check_cocycle_direct, check_convolution_sum):
            assert check(at, r).passed


@pytest.mark.parametrize("q", [4, 9, 27, 64])
def test_complex_certificate_flips_at_its_bound(q):
    # with the tolerance at the bound the certificate holds; one float
    # below it the scans decide, and both give the scans' checks
    at = _noisy_field_table(q, 1e-9, q)
    bound = reconstructor._rebuild(at, verifier._evaluate(at)).scan_bound
    for tolerance, method in ((bound, "certificate"), (math.nextafter(bound, 0), "scan")):
        report = verify_all(at, tolerance=tolerance)
        assert report.method == method and report.tolerance == tolerance, tolerance
        assert report.passed and report.checks == _complex_scans(at, tolerance)


def test_approximate_agrees_with_exact_on_embedded_tables():
    rng = random.Random(16)
    from helpers import symmetric_random_table

    for _ in range(8):
        t = symmetric_random_table(rng, rng.choice(((2,), (3,), (4,), (2, 2))))
        exact = verify_all(t)
        approx = verify_all(approximate(t))
        assert exact.convolution.passed == approx.convolution.passed
        if not exact.convolution.passed:
            assert exact.convolution.witness == approx.convolution.witness
        assert exact.cocycle_star.passed == approx.cocycle_star.passed


def _approx_convolution_sides(at: ApproxTable):
    """Every quadruple in lexicographic order with both sides of the
    complex convolution-sum identity there."""
    g = at.group
    t = at.entries
    idx, add, neg = g.index, g.add, g.neg
    for quad in itertools.product(g.elements, repeat=4):
        a1, a2, a3, a4 = quad
        lhs = sum(
            t[idx(add(a1, b))][idx(add(a2, neg(b)))] * t[idx(add(a3, b))][idx(add(a4, neg(b)))]
            for b in g.elements
        )
        yield quad, lhs, t[idx(add(a1, a4))][idx(add(a2, a3))]


def _approx_convolution_reference(at: ApproxTable, tol: float):
    """First quadruple in lexicographic order where the complex
    convolution-sum identity misses the tolerance, with both sides."""
    for quad, lhs, rhs in _approx_convolution_sides(at):
        if not abs(lhs - rhs) <= tol:
            return quad, lhs, rhs
    return None


def _assert_matches_quadruple_loop(at: ApproxTable, result, tol: float = 1e-6):
    """The scan's verdict agrees with the quadruple loop up to rounding at
    the tolerance itself: within eps of it either verdict is right, since
    the scan and the loop sum in different orders.  A witness w must have
    |D(w)| > tol - eps and every earlier quadruple |D| <= tol + eps; a
    pass needs every |D| <= tol + eps.  The sides at a witness are
    compared as they are."""
    eps = 1e-12
    for quad, lhs, rhs in _approx_convolution_sides(at):
        if quad == result.witness:
            assert abs(lhs - rhs) > tol - eps, quad
            assert abs(result.lhs - lhs) < 1e-9 and abs(result.rhs - rhs) < 1e-9
            return
        assert abs(lhs - rhs) <= tol + eps, (quad, result.witness)
    assert result.passed


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_approximate_convolution_matches_quadruple_loop(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    if data.draw(st.booleans()):
        t = table(data.draw(st.sampled_from((3, 4, 5, 7, 8, 9))))
    else:
        t = random_table(rng, data.draw(st.sampled_from(((2,), (3,), (2, 2), (4,), (2, 4)))))
    at = approximate(t)
    m = t.group.m
    i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    shift = data.draw(st.sampled_from((0, 1e-3, 0.25j, -1 + 1j, 1e-9)))
    entries = [list(row) for row in at.entries]
    entries[i][j] += shift
    moved = ApproxTable(at.group, tuple(tuple(row) for row in entries))
    _assert_matches_quadruple_loop(moved, verify_all(moved).convolution)


def test_approximate_convolution_at_the_tolerance_itself():
    # on q = 3 with cell (0, 0) moved by 1e-3, |D| at (0, 0, 0, 0) is
    # delta^2 = 1e-6, the tolerance itself: the loop can read it just
    # above and the scan just below, and then the scan's witness is
    # (0, 0, 0, 1); either witness is right
    moved = moved_approx(approximate(table(3)), {(0, 0)}, lambda z: z + 1e-3)
    result = verify_all(moved).convolution
    assert result.witness in (((0,),) * 4, ((0,), (0,), (0,), (1,)))
    _assert_matches_quadruple_loop(moved, result)


def _transform_differences(at: ApproxTable, s1: int):
    """F[s2, x] = T_s1(chi_x) Q^_s2(chi_x) - T_{s1+s2}(chi_x) on a cyclic
    group, where Q_s(u) = J(u, s - u), Q^_s is its transform and
    T_s(chi) = chi(s) Q^_s(-chi) = sum_beta J(s - beta, beta) chi(beta)
    is the transform of the slice at s."""
    m = at.group.m
    ar = np.arange(m)
    z = np.exp(2j * np.pi * np.outer(ar, ar) / m)  # z[x, u] = chi_x(u)
    q = np.array(at.entries)[ar[None, :], (ar[:, None] - ar[None, :]) % m]  # [s, u]
    qh = q @ z
    t = z * qh[:, -ar % m]
    return t[s1] * qh - t[(s1 + ar) % m]


@pytest.mark.parametrize("kind", ["exact", "complex"])
def test_scan_transforms_are_the_slice_transforms(monkeypatch, kind):
    # the convolution scan's transforms L Q^_s(chi), once the product of
    # u -> L J(u, s - u) with the characters, are chi(s) L T_s(-chi):
    # exactly on residues, within 1e-12 of the transforms' size on complex
    # tables.  With one point per chunk of characters, the transforms of
    # any slices at any points are those of one unchunked call
    rng = random.Random(20)
    tables = [t for q in (4, 8, 9, 27, 49, 64) for _, t in extreme_tables(q)]
    tables += [random_table(rng, factors) for factors in ((2, 2), (2, 4), (3, 3))]
    for t in tables:
        r = verifier._evaluate(t if kind == "exact" else approximate(t))
        m, every = r.m, slice(None)
        w = r.characters(every)
        q = r.values[np.arange(m), r.addneg].transpose(2, 0, 1)  # [k, s, u] = L J(u, s - u)
        direct = r.reduce(r.product(q, w), every, 0)
        transforms = r.transforms(np.arange(m))
        derived = r.reduce(transforms[:, :, r.neg] * w, every, 0)
        if kind == "exact":
            assert (derived == direct).all(), t
        else:
            size = max(1.0, np.abs(direct).max())
            assert np.abs(derived - direct).max() <= 1e-12 * size, t
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "_SCAN_BYTES", 1)
            assert (r.transforms(np.arange(m)) == transforms).all(), t
            later = slice(min(1, r.values.shape[2] - 1), None)
            assert (r.transforms([0, m - 1], later) == transforms[later][:, [0, m - 1]]).all(), t


def test_approximate_convolution_goes_past_rows_the_transforms_flag():
    # every entry moved by 2e-7 moves the transforms at the trivial
    # character by about 2e-7 m, past the tolerance, while each
    # direct-domain difference stays within it: |D| <= max |F| bounds one
    # way only.  With a cell pair also moved by a root of unity, row 0 is
    # flagged, then passes in the direct domain, and the witness lies in row 1
    m = 8
    shifted = moved_approx(approximate(table(9)), itertools.product(range(m), repeat=2),
                           lambda z: z + 2e-7)
    zeta = cmath.exp(2j * cmath.pi / m)
    for cell in ((0, 1), (0, 5), (2, 5)):
        moved = moved_approx(shifted, {cell, cell[::-1]}, lambda z: z + zeta)
        assert np.abs(_transform_differences(moved, 0)).max() > 1e-6, cell
        result = verify_all(moved).convolution
        witness, lhs, rhs = _approx_convolution_reference(moved, 1e-6)
        assert result.witness == witness and witness[1] == (1,), cell
        assert abs(result.lhs - lhs) < 1e-9 and abs(result.rhs - rhs) < 1e-9
