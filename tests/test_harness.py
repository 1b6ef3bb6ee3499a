"""CLI surface, JSON formats, golden files, and determinism."""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

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
    euler_phi,
    reconstruct,
    twist_automorphism,
    twist_galois,
    verify_all,
)
from jacobisum.harness import (
    _entries_text,
    dumps,
    field_addition_rows,
    field_from_json,
    field_to_json,
    main,
    read_json,
    reconstruction_to_json,
    approx_table_to_json,
    table_from_json,
    table_to_json,
    verification_to_json,
    write_json,
)

from helpers import extreme_tables, field, random_table, table

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_Q = (3, 4, 5, 7, 8, 9)


def test_golden_files_rederive(tmp_path):
    for q in GOLDEN_Q:
        assert dumps(field_to_json(field(q))) == (GOLDEN / f"field_q{q}.json").read_text()
        assert dumps(table_to_json(table(q))) == (GOLDEN / f"table_q{q}.json").read_text()


def test_field_json_roundtrip():
    for q in (3, 4, 9, 16):
        f = field(q)
        restored = field_from_json(field_to_json(f))
        assert (restored.p, restored.n, restored.modulus, restored.generator) == (
            f.p,
            f.n,
            f.modulus,
            f.generator,
        )


def test_table_json_roundtrip():
    for q in (3, 8):
        t = table(q)
        assert table_from_json(table_to_json(t)) == t


CODEC_GROUPS = [(3,), (4,), (2, 2), (7,)]

# small and mixed denominators, and numerators on both sides of 2^63
COEFFICIENTS = st.builds(
    Fraction,
    st.one_of(st.integers(-6, 6), st.integers(2**63 - 2, 2**70), st.integers(-(2**70), -(2**63))),
    st.one_of(st.sampled_from([1, 2, 3, 7, 2**31 - 1]), st.integers(1, 2**65)),
)


def per_entry_strings(table: JacobiTable) -> list:
    return [[e.to_strings() for e in row] for row in table.values]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_table_codec_matches_per_entry_codec(data):
    g = GroupSpec(data.draw(st.sampled_from(CODEC_GROUPS)))
    m, degree = g.m, euler_phi(g.m)
    # unique: a document in which no coefficient string repeats
    coeffs = data.draw(st.lists(COEFFICIENTS, min_size=m * m * degree,
                                max_size=m * m * degree, unique=data.draw(st.booleans())))
    cells = [Cyclotomic.from_coefficients(m, coeffs[k:k + degree])
             for k in range(0, len(coeffs), degree)]
    t = JacobiTable(g, [cells[i * m:(i + 1) * m] for i in range(m)])
    doc = table_to_json(t)
    assert doc["entries"] == per_entry_strings(t)
    assert table_from_json(doc) == t


# strings the grammar accepts that no encoder writes: unreduced, padded, "-0"
RAW_COEFFICIENTS = st.builds(
    lambda sign, num, den, pad: f"{sign}{'0' * pad}{num}" + ("" if den is None else f"/{den}"),
    st.sampled_from(["", "-"]),
    st.one_of(st.integers(0, 12), st.integers(2**63, 2**66)),
    st.one_of(st.none(), st.integers(1, 12), st.integers(2**63, 2**64)),
    st.integers(0, 2),
)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_table_decode_matches_from_strings(data):
    g = GroupSpec(data.draw(st.sampled_from(CODEC_GROUPS)))
    m, degree = g.m, euler_phi(g.m)
    cell = st.lists(RAW_COEFFICIENTS, min_size=degree, max_size=degree)
    entries = data.draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=m, max_size=m))
    doc = {"schema": "jacobi-table/1", "factors": list(g.factors), "conductor": m,
           "entries": entries}
    expected = [[Cyclotomic.from_strings(m, c) for c in row] for row in entries]
    assert table_from_json(doc).values == tuple(tuple(row) for row in expected)


def test_table_bytes_match_per_entry_encoding():
    for p, n in ((2, 4), (2, 5), (7, 2), (2, 6)):
        t = compute_jacobi(build_field(p, n))
        doc = table_to_json(t)
        reference = dict(doc, entries=per_entry_strings(t))
        assert dumps(doc) == dumps(reference)


def _cells(m: int, coefficient) -> JacobiTable:
    """The table on Z/m whose cell (i, j) has the coefficients
    coefficient(i, j, k) for k < phi(m)."""
    degree = euler_phi(m)
    return JacobiTable(GroupSpec((m,)), [
        [Cyclotomic.from_coefficients(m, [coefficient(i, j, k) for k in range(degree)])
         for j in range(m)] for i in range(m)
    ])


def _encoder_tables():
    rng = random.Random(13)
    # numerators near +-2^40, a span far wider than the 49 cells: the dict path
    wide = _cells(7, lambda i, j, k: rng.choice([-1, 1]) * (2**40 + rng.randrange(20)))
    # 20 distinct denominators over the numerators -1, 0, 1: the key table
    dens = _cells(21, lambda i, j, k: Fraction(k % 3 - 1, 1009 + (i + j) % 20))
    # every numerator 2^63 - 1: a span of one at the top of int64
    top = _cells(2, lambda i, j, k: 2**63 - 1)
    # numerators past int64 over 49 distinct denominators: the dict path
    huge = _cells(7, lambda i, j, k: Fraction(rng.randrange(-(2**70), 2**70), 1009 + 7 * i + j))
    return {"field": table(64), "wide-span": wide, "many-denominators": dens,
            "int64-top": top, "python-ints": huge}


@pytest.mark.filterwarnings("error")  # no int64 overflow, even a harmless one
@pytest.mark.parametrize("name", ["field", "wide-span", "many-denominators", "int64-top", "python-ints"])
def test_encoder_key_paths_match_per_entry_strings(name):
    t = _encoder_tables()[name]
    assert (t.num.dtype == object) == (name == "python-ints")
    assert table_to_json(t)["entries"] == per_entry_strings(t)


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _with_cells(doc: dict, cells: dict) -> dict:
    """A copy of a table document with some cells replaced, whose other
    cells are the original's lists, as the benchmark makes its inputs."""
    entries = [list(row) for row in doc["entries"]]
    for (i, j), cell in cells.items():
        entries[i][j] = cell
    return dict(doc, entries=entries)


@pytest.mark.parametrize("name", ["field", "wide-span", "many-denominators", "int64-top",
                                  "python-ints", "q49"])
def test_dumps_writes_the_bytes_of_json_dumps(name):
    # "field" is the q = 64 field table
    t = table(49) if name == "q49" else _encoder_tables()[name]
    doc = table_to_json(t)
    cells = [cell for row in doc["entries"] for cell in row]
    # one list per distinct cell, shared by the rows
    assert len({id(cell) for cell in cells}) == len({tuple(cell) for cell in cells})
    assert _entries_text(doc) is not None
    assert dumps(doc) == _json_dumps(doc)


def test_dumps_of_a_document_with_replaced_cells():
    t = table(64)
    doc = table_to_json(t)
    value = t.entry(1, 2) + Fraction(1, 7)
    moved = _with_cells(doc, {
        (1, 2): value.to_strings(),  # fresh lists, equal to each other
        (2, 1): value.to_strings(),
        (3, 4): doc["entries"][5][6],  # a cell shared with other positions
        (0, 0): list(doc["entries"][0][0]),  # a copy of a shared cell
    })
    assert dumps(moved) == _json_dumps(moved)
    expected = t.with_entry(1, 2, value).with_entry(2, 1, value).with_entry(3, 4, t.entry(5, 6))
    assert table_from_json(json.loads(dumps(moved))) == expected
    # a shared cell changed in place is written as changed wherever it sits
    doc["entries"][1][2][0] = "-7/3"
    assert dumps(doc) == _json_dumps(doc)


@pytest.mark.parametrize("change", [
    pytest.param(lambda cell: [1, *cell[1:]], id="int-coefficient"),
    pytest.param(lambda cell: [], id="empty-cell"),
    pytest.param(tuple, id="tuple-cell"),
    pytest.param(lambda cell: ['1"', *cell[1:]], id="quote"),
    pytest.param(lambda cell: ["1\\", *cell[1:]], id="backslash"),
    pytest.param(lambda cell: ["\u00e9", *cell[1:]], id="e-acute"),
    pytest.param(lambda cell: ["\ud800", *cell[1:]], id="lone-surrogate"),
    pytest.param(lambda cell: ["1,2", *cell[1:]], id="comma"),
    pytest.param(lambda cell: ["1\n", *cell[1:]], id="newline"),
])
def test_dumps_leaves_other_cells_to_json_dumps(change):
    doc = table_to_json(table(64))
    doc = _with_cells(doc, {(1, 2): change(doc["entries"][1][2])})
    assert _entries_text(doc) is None
    assert dumps(doc) == _json_dumps(doc)


def test_dumps_leaves_other_documents_to_json_dumps():
    doc = table_to_json(table(8))
    others = (dict(doc, schema="jacobi-table-approx/1"), dict(doc, entries=tuple(doc["entries"])),
              approx_table_to_json(approximate(table(8))), {"schema": "jacobi-table/1"})
    for other in others:
        assert _entries_text(other) is None
        assert dumps(other) == _json_dumps(other)
    with pytest.raises(TypeError):  # keys json.dumps cannot sort
        dumps({**doc, 1: 0})


def test_table_decode_refuses_cells_that_join_alike():
    # ["1,2", "3"] and ["1", "2,3"] join to the same text, "1,2,3": the
    # first in document order holds a comma, and its first bad string is named
    for first, last, bad in ((["1,2", "3"], ["1", "2,3"], "1,2"),
                             (["1", "2,3"], ["1,2", "3"], "2,3")):
        doc = table_to_json(table(4))
        doc["entries"][0][1], doc["entries"][2][0] = first, last
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            table_from_json(doc)
        # a bad string earlier in the document is named instead
        doc["entries"][0][0] = ["x", "0"]
        with pytest.raises(ValueError, match="got 'x'"):
            table_from_json(doc)
    # cells whose strings concatenate alike are told apart
    doc = table_to_json(table(4))
    doc["entries"][0][1], doc["entries"][2][0] = ["1", "23"], ["12", "3"]
    t = table_from_json(doc)
    assert (t.entry(0, 1).to_strings(), t.entry(2, 0).to_strings()) == (["1", "23"], ["12", "3"])


# sha256 of the table document and of the reconstruction report
PINNED = {
    49: ("79d9f6750a8ce3d9eaccc79c453dfc6a7859d4a0e21e8b3959c7bc6e990a9205",
         "017f987436c43233f0352bd04468adf3ef17e4568f02241a0d8bebff5a839a67"),
    64: ("d09a2542e7cae81ac323ec16c625e96b76e4e91b619ae1b8cd23a4d4d4ca742c",
         "a738c4941838046022f98819de5f1248980202ad995d8018db1e7912a0380add"),
}


@pytest.mark.parametrize("q", sorted(PINNED))
def test_table_and_reconstruction_bytes_are_pinned(q):
    t = table(q)
    digests = [
        hashlib.sha256(dumps(doc).encode()).hexdigest()
        for doc in (table_to_json(t), reconstruction_to_json(reconstruct(t)))
    ]
    assert tuple(digests) == PINNED[q]


# sha256 of the verification report of q = 64 tables the verifier rejects,
# and of the forced reconstruction report of the first
REJECT_PINNED = {
    "1/7": "693ee7dee9b9f5950a883d0acaba56f6fa3e987f4b5ef8414fdeb7da3937203c",
    "1/(2^31-1)": "4f7181e11e3753eea3be36ea7194d16a99105831eaaf764837d5986ec103673f",
    "zeta": "9c3751c207a76d2e982d6bc5b415bb5fbeb4bb85fe5c0ff7026b817cc71535c8",
    "1/7 forced": "570eb4101c357f63c9d7fe4a5d258f892208475657982425c406c61a451952d8",
}


def test_reject_path_bytes_are_pinned():
    # (1, 2) and (2, 1) moved by 1/7 and by 1/(2^31 - 1), and (1, 2) alone
    # by zeta: the tables a rejecting verifier reads
    t = table(64)
    moved = {
        name: t.with_entry(1, 2, t.entry(1, 2) + s).with_entry(2, 1, t.entry(2, 1) + s)
        for name, s in (("1/7", Fraction(1, 7)), ("1/(2^31-1)", Fraction(1, 2**31 - 1)))
    }
    moved["zeta"] = t.with_entry(1, 2, t.entry(1, 2) + Cyclotomic.root(63, 1))
    docs = {name: verification_to_json(verify_all(u)) for name, u in moved.items()}
    docs["1/7 forced"] = reconstruction_to_json(reconstruct(moved["1/7"], force=True))
    digests = {name: hashlib.sha256(dumps(doc).encode()).hexdigest() for name, doc in docs.items()}
    assert digests == REJECT_PINNED


# sha256 over the verification report and the forced and unforced
# reconstruction reports of every table below, each document on its own line
REPORTS_PINNED = "a7c845bf48641580e25f4dc31f0e2d6bdcb32c3424ec3fb9df5fac4415a3d0c8"


def _pinned_report_tables():
    """extreme_tables(q) for q in {4, 8, 9, 16} with their -1 automorphism
    and Galois twists, and the one-cell tables 0, 1 and 2 on the trivial
    group written three ways; each table exact, then approximated."""
    exact = []
    for q in (4, 8, 9, 16):
        for _, t in extreme_tables(q):
            exact += [t, twist_automorphism(t, q - 2), twist_galois(t, q - 2)]
    for factors in ((), (1,), (1, 1)):
        g = GroupSpec(factors)
        exact += [JacobiTable(g, [[Cyclotomic.from_rational(1, j)]]) for j in (0, 1, 2)]
    for t in exact:
        yield t
        yield approximate(t)


def test_report_bytes_are_pinned():
    digest = hashlib.sha256()
    for t in _pinned_report_tables():
        for doc in (verification_to_json(verify_all(t)),
                    reconstruction_to_json(reconstruct(t)),
                    reconstruction_to_json(reconstruct(t, force=True))):
            digest.update(dumps(doc).encode() + b"\n")
    assert digest.hexdigest() == REPORTS_PINNED


def test_approx_table_json_roundtrip():
    at = approximate(table(5))
    restored = table_from_json(approx_table_to_json(at))
    assert restored.group == at.group
    assert all(
        abs(restored.entry(i, j) - at.entry(i, j)) < 1e-15
        for i in range(4)
        for j in range(4)
    )


def _unshared(doc: dict) -> dict:
    """A table document whose every cell is its own list, so that an edit in
    place changes one cell (table_to_json's rows share one list per distinct
    cell)."""
    return dict(doc, entries=[[list(cell) for cell in row] for row in doc["entries"]])


def test_table_json_rejects_bad_documents():
    doc = table_to_json(table(3))
    doc["conductor"] = 5
    with pytest.raises(ValueError):
        table_from_json(doc)
    with pytest.raises(ValueError):
        table_from_json({"schema": "something-else/1"})
    # of two bad coefficients, the first in document order is reported
    doc = _unshared(table_to_json(table(4)))
    doc["entries"][2][0][1] = "last"
    doc["entries"][0][1][0] = "first"
    with pytest.raises(ValueError, match="first"):
        table_from_json(doc)
    # a shape fault, or an array in place of a coefficient, anywhere wins
    # over a bad string before it
    shape = _unshared(table_to_json(table(4)))
    shape["entries"][0][1][0] = "first"
    shape["entries"][2][0] = ["0"]
    with pytest.raises(ValueError, match="each entry must be a list of 2 coefficient strings"):
        table_from_json(shape)
    array = _unshared(table_to_json(table(4)))
    array["entries"][0][1][0] = "first"
    array["entries"][2][0][1] = ["0"]
    with pytest.raises(ValueError, match="coefficients must be strings"):
        table_from_json(array)
    # 1 and True are equal keys: the first in document order is named
    for first, last in ((1, True), (True, 1)):
        doc = _unshared(table_to_json(table(4)))
        doc["entries"][0][1][0] = first
        doc["entries"][2][0][1] = last
        with pytest.raises(ValueError, match=f"got {first}$"):
            table_from_json(doc)
    with pytest.raises(ValueError):
        field_from_json({"schema": "nope"})


def test_table_decode_past_int64_at_q64():
    # a cell moved by 2^70 puts the numerators past int64: an object array
    # that holds what Cyclotomic.from_strings reads from every cell
    t = table(64)
    doc = table_to_json(t.with_entry(1, 2, t.entry(1, 2) + 2**70))
    decoded = table_from_json(doc)
    m = t.group.m
    grid = JacobiTable(t.group, [[Cyclotomic.from_strings(m, c) for c in row]
                                 for row in doc["entries"]])
    assert decoded.num.dtype == grid.num.dtype == object
    assert decoded.den.dtype == grid.den.dtype
    assert (decoded.num == grid.num).all() and (decoded.den == grid.den).all()


@pytest.mark.parametrize("wide", [False, True], ids=["cells-fit-int64", "cell-past-int64"])
def test_table_decode_over_coprime_denominators_at_q64(wide):
    # cells over pairwise coprime primes, one cell over two of them, put
    # the lcm of the document's denominators past 2^63, so the numerators
    # are gathered over it as Python ints; reduced cell by cell they fit
    # int64 again, unless a cell's own denominator is 63 (2^61 - 1)
    t = table(64)
    m = t.group.m
    zeros = [0] * (euler_phi(m) - 2)
    moves = {(1, 2): Fraction(1, 2**31 - 1), (3, 4): Fraction(5, 2**19 - 1),
             (2, 1): Cyclotomic.from_coefficients(m, [Fraction(1, 8191), Fraction(2, 131071)] + zeros)}
    if wide:
        moves[(5, 6)] = Fraction(1, 2**61 - 1)
    for (i, j), s in moves.items():
        t = t.with_entry(i, j, t.entry(i, j) + s)
    doc = table_to_json(t)
    decoded = table_from_json(doc)
    grid = JacobiTable(t.group, [[Cyclotomic.from_strings(m, c) for c in row]
                                 for row in doc["entries"]])
    assert (decoded.num.dtype, decoded.den.dtype) == (grid.num.dtype, grid.den.dtype)
    assert decoded.num.dtype == decoded.den.dtype == (object if wide else np.int64)
    assert (decoded.num == grid.num).all() and (decoded.den == grid.den).all()
    assert decoded == t and dumps(table_to_json(decoded)) == dumps(doc)


def _primes_below(n: int, count: int) -> list[int]:
    """The `count` largest primes below n, for 2^40 < n < 2^64: Miller-Rabin
    with the first twelve primes as bases decides every number below 2^64."""
    primes = []
    while len(primes) < count:
        n -= 1
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break  # a witnesses that n is composite
        else:
            primes.append(n)
    return primes


def test_table_decode_over_hundreds_of_coprime_denominators_at_q64(tmp_path, capsys):
    # 400 cells, each moved by 1/p for its own prime p near 2^61, put the
    # lcm of the document's denominators near 24,000 bits; the decoder
    # takes each cell over its own denominator instead, so no integer grows
    # with the number of cells moved, and the verifier refuses the table
    # for its prime cap at once
    t = table(64)
    m = t.group.m
    doc = table_to_json(t)
    cells = [(i, j) for i in range(m) for j in range(m)][::9]
    for (i, j), p in zip(cells, _primes_below(2**61, 400)):
        coefficients = doc["entries"][i][j] = list(doc["entries"][i][j])  # cells share lists
        coefficients[0] = str(Fraction(coefficients[0]) + Fraction(1, p))
    start = time.perf_counter()
    decoded = table_from_json(doc)
    assert time.perf_counter() - start < 1
    grid = JacobiTable(t.group, [[Cyclotomic.from_strings(m, c) for c in row]
                                 for row in doc["entries"]])
    assert (decoded.num.dtype, decoded.den.dtype) == (grid.num.dtype, grid.den.dtype)
    assert (decoded.num == grid.num).all() and (decoded.den == grid.den).all()
    tpath = tmp_path / "t.json"
    write_json(tpath, doc)
    start = time.perf_counter()
    assert _run("verify", "--table", tpath) == 2
    assert time.perf_counter() - start < 1
    assert "more than 64 primes" in capsys.readouterr().err


def test_report_json_shapes():
    t = table(5)
    vdoc = verification_to_json(verify_all(t))
    assert vdoc["passed"] and vdoc["convolution_mode"] == "exhaustive"
    rdoc = reconstruction_to_json(reconstruct(t))
    assert rdoc["case"] == "field" and rdoc["ok"]
    assert rdoc["involution"] == [2]
    assert len(rdoc["addition"]) == 5
    assert rdoc["baseline"] == ["-1/4", "0"]
    bad = t.with_entry(0, 2, -t.values[0][2])
    vdoc = verification_to_json(verify_all(bad))
    assert not vdoc["passed"]
    assert vdoc["symmetry"]["witness"] == [[0], [2]]
    rng = random.Random(30)
    rdoc = reconstruction_to_json(reconstruct(random_table(rng, (2,)), force=True))
    assert rdoc["case"] == "inconsistent" and "inconsistency" in rdoc


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def test_cli_field_jacobi_verify_reconstruct(tmp_path):
    fpath = tmp_path / "f.json"
    tpath = tmp_path / "t.json"
    rpath = tmp_path / "r.json"
    assert _run("field", "--p", 3, "--n", 2, "--out", fpath) == 0
    assert _run("jacobi", "--field", fpath, "--out", tpath) == 0
    assert _run("verify", "--table", tpath) == 0
    assert _run("reconstruct", "--table", tpath, "--out", rpath) == 0
    report = read_json(rpath)
    assert report["case"] == "field" and report["roundtrip_ok"]


def test_cli_outputs_are_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        fpath = tmp_path / f"{name}_f.json"
        tpath = tmp_path / f"{name}_t.json"
        assert _run("field", "--p", 5, "--n", 1, "--out", fpath) == 0
        assert _run("jacobi", "--field", fpath, "--out", tpath) == 0
        outs.append((fpath.read_bytes(), tpath.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_verify_failure_exit(tmp_path):
    t = table(5)
    bad = t.with_entry(0, 2, -t.values[0][2])
    tpath = tmp_path / "bad.json"
    rpath = tmp_path / "rep.json"
    write_json(tpath, table_to_json(bad))
    assert _run("verify", "--table", tpath, "--out", rpath) == 1
    assert read_json(rpath)["passed"] is False
    assert _run("reconstruct", "--table", tpath, "--out", rpath) == 1


def test_cli_malformed_inputs(tmp_path, capsys):
    assert _run("field", "--p", 4, "--n", 1, "--out", tmp_path / "x.json") == 2
    tpath = tmp_path / "t.json"
    write_json(tpath, table_to_json(table(3)))
    assert _run("verify", "--table", tpath, "--tolerance", -1) == 2
    assert _run("jacobi", "--field", tmp_path / "missing.json", "--out", tmp_path / "t.json") == 2
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert _run("verify", "--table", bad) == 2
    assert _run("enumerate", "--group", "2,x") == 2
    assert _run("nonsense") == 2
    assert _run("--threads", 2, "jacobi", "--field", tmp_path / "f.json", "--out", tpath) == 2
    # the convolution-sum check has no modes, samples or seed
    for flag, value in (("--mode", "exhaustive"), ("--samples", 10), ("--seed", 1)):
        assert _run("verify", "--table", tpath, flag, value) == 2
    # reconstruction has one mode
    assert _run("reconstruct", "--table", tpath, "--out", tmp_path / "r.json", "--strict") == 2
    # a document whose top level is not an object, or that nests past the
    # decoder's recursion limit, is malformed input, not a failed check
    # or an internal error
    deep = "[" * 100_000 + "]" * 100_000
    out = tmp_path / "out.json"
    for text in ("[]", '"x"', "5", "null", deep):
        bad.write_text(text)
        for args in (("verify", "--table", bad, "--out", out),
                     ("reconstruct", "--table", bad, "--out", out),
                     ("twist", "--table", bad, "--r", 1, "--out", out),
                     ("jacobi", "--field", bad, "--out", out)):
            capsys.readouterr()
            assert _run(*args) == 2, (text[:8], args[0])
            assert capsys.readouterr().err.startswith("error: "), (text[:8], args[0])
            assert not out.exists(), (text[:8], args[0])
    # so is a field document whose modulus is empty
    fdoc = field_to_json(field(4))
    fdoc["modulus"] = []
    write_json(bad, fdoc)
    capsys.readouterr()
    assert _run("jacobi", "--field", bad, "--out", out) == 2
    assert capsys.readouterr().err == "error: modulus must be monic of degree n\n"
    assert not out.exists()
    # a missing key is named, and a value of the wrong shape gets the
    # message of its document's other shape errors
    tdoc, fdoc = table_to_json(table(4)), field_to_json(field(4))
    without = lambda doc, key: {k: v for k, v in doc.items() if k != key}
    shape = "entries must form an 3 x 3 array"
    integers = "factors and conductor must be JSON integers"
    field_integers = "p, n, modulus and generator must be JSON integers"
    cases = [
        ("verify", without(tdoc, "entries"), "the document has no 'entries'"),
        ("verify", without(tdoc, "factors"), "the document has no 'factors'"),
        ("verify", dict(tdoc, entries=None), shape),
        ("verify", dict(tdoc, entries=[1, 2, 3]), shape),
        ("verify", dict(tdoc, entries=["abc"] * 3), shape),
        ("verify", dict(tdoc, factors=3), integers),
        ("jacobi", without(fdoc, "p"), "the document has no 'p'"),
        ("jacobi", dict(fdoc, modulus=5), field_integers),
        ("jacobi", dict(fdoc, generator=None), field_integers),
    ]
    for command, doc, message in cases:
        write_json(bad, doc)
        flag = "--table" if command == "verify" else "--field"
        capsys.readouterr()
        assert _run(command, flag, bad, "--out", out) == 2, message
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.filterwarnings("error")  # a numpy warning fails the test
def test_cli_complex_overflow_fails_without_warnings(tmp_path, capsys):
    # products of entries 1e200 overflow to inf, and inf - inf is NaN,
    # which the checks count as differing: exit 1 with the library's
    # report bytes, and nothing on stderr
    big = ApproxTable(GroupSpec((3,)), tuple(tuple(1e200 + 0j for _ in range(3)) for _ in range(3)))
    tpath, out = tmp_path / "big.json", tmp_path / "report.json"
    write_json(tpath, approx_table_to_json(big))
    with np.errstate(over="ignore", invalid="ignore"):
        verified = verification_to_json(verify_all(big))
        rebuilt = reconstruction_to_json(reconstruct(big))
    before = np.geterr()
    for command, doc in (("verify", verified), ("reconstruct", rebuilt)):
        capsys.readouterr()
        assert _run(command, "--table", tpath, "--out", out) == 1
        assert capsys.readouterr().err == ""
        assert out.read_text() == dumps(doc)
    assert np.geterr() == before


@pytest.mark.parametrize("cell, coefficient", [
    pytest.param("10", None, id="string-cell"),  # iterated, it would read as ["1", "0"]
    pytest.param(["1"], None, id="short-cell"),
    pytest.param(None, True, id="boolean"),
    pytest.param(None, 1, id="number"),
    pytest.param(None, 0.5, id="float"),
    pytest.param(None, ["1"], id="array"),
    pytest.param(None, "0.5", id="decimal"),
    pytest.param(None, "1e10000000", id="exponent"),  # Fraction spends ~12 s expanding it
    pytest.param(None, "+1", id="plus-sign"),
    pytest.param(None, "1/0", id="zero-denominator"),
    pytest.param(None, "9" * 5000, id="too-many-digits"),  # past the int conversion limit
])
def test_cli_rejects_malformed_coefficients(tmp_path, capsys, cell, coefficient):
    doc = table_to_json(table(4))  # conductor 3: two coefficients a cell
    if cell is not None:
        doc["entries"][1][2] = cell
    else:
        doc["entries"][1][2][1] = coefficient
    tpath = tmp_path / "bad.json"
    write_json(tpath, doc)
    assert _run("verify", "--table", tpath) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert _run("reconstruct", "--table", tpath, "--out", tmp_path / "r.json") == 2


@pytest.mark.parametrize("kind, key, value", [
    pytest.param("table", "factors", [7.9], id="factor-float"),
    pytest.param("table", "conductor", 7.5, id="conductor-float"),
    pytest.param("table", "conductor", "7", id="conductor-string"),
    pytest.param("field", "p", 2.9, id="p-float"),
    pytest.param("field", "n", "3", id="n-string"),
    pytest.param("field", "modulus", [1.5, 1, 0, 1], id="modulus-float"),
    pytest.param("field", "generator", [0, True, 0], id="generator-boolean"),
])
def test_cli_refuses_header_numbers_that_are_not_integers(tmp_path, capsys, kind, key, value):
    # each value, truncated, parsed or read as 1, is the one the q = 8
    # document holds, and was accepted so
    path = tmp_path / "doc.json"
    doc = table_to_json(table(8)) if kind == "table" else field_to_json(field(8))
    doc[key] = value
    write_json(path, doc)
    if kind == "table":
        assert _run("verify", "--table", path) == 2
    else:
        assert _run("jacobi", "--field", path, "--out", tmp_path / "t.json") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_non_finite_approximate_tables(tmp_path):
    doc = approx_table_to_json(approximate(table(4)))
    doc["entries"][1][2] = [float("nan"), 0.0]
    tpath = tmp_path / "nan.json"
    write_json(tpath, doc)
    rpath = tmp_path / "r.json"
    assert _run("verify", "--table", tpath) == 2
    assert _run("reconstruct", "--table", tpath, "--out", rpath) == 2


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
def test_cli_rejects_bad_tolerances(tmp_path, tolerance):
    # inf used to pass this table, whose entry is off by 5 + 5i
    doc = approx_table_to_json(approximate(table(9)))
    doc["entries"][1][2][0] += 5.0
    doc["entries"][1][2][1] += 5.0
    tpath = tmp_path / "moved.json"
    write_json(tpath, doc)
    assert _run("verify", "--table", tpath) == 1
    assert _run("verify", "--table", tpath, "--tolerance", tolerance) == 2
    rpath = tmp_path / "r.json"
    assert _run("reconstruct", "--table", tpath, "--out", rpath, "--tolerance", tolerance) == 2
    assert not rpath.exists()


@pytest.mark.parametrize("cell", [
    pytest.param([True, False], id="booleans"),
    pytest.param([True, False, 99], id="booleans-and-extra"),
    pytest.param([0.5, 0.0, 99], id="three-numbers"),
    pytest.param([0.5], id="one-number"),
    pytest.param([0.5, None], id="null"),
    pytest.param([0.5, "0"], id="string"),
    pytest.param("05", id="string-cell"),
    pytest.param({"re": 0.5, "im": 0.0}, id="object"),
    pytest.param([10**400, 0], id="huge-integer"),  # past float range
])
def test_cli_rejects_malformed_approximate_cells(tmp_path, capsys, cell):
    doc = approx_table_to_json(approximate(table(4)))
    doc["entries"][1][2] = cell
    tpath = tmp_path / "bad.json"
    write_json(tpath, doc)
    assert _run("verify", "--table", tpath) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert _run("reconstruct", "--table", tpath, "--out", tmp_path / "r.json") == 2


def test_approximate_decode_matches_complex_bit_for_bit():
    parts = [-0.0, 2**53 + 1, 2**63, -(2**64) - 3, 1.7e308, -1.7e308, 0, 0.1, -(2**53) - 1]
    cells = [[parts[k % len(parts)], parts[(k * 5 + 1) % len(parts)]] for k in range(9)]
    doc = {"schema": "jacobi-table-approx/1", "factors": [3], "conductor": 3,
           "entries": [cells[3 * i:3 * i + 3] for i in range(3)]}
    loaded = table_from_json(doc)
    for i in range(3):
        for j in range(3):
            got, want = loaded.entry(i, j), complex(*cells[3 * i + j])
            assert type(got) is complex
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("huge", [(0, 1), (1, 0)])
def test_cli_names_the_first_faulty_approximate_cell(tmp_path, capsys, huge):
    # an integer past float range comes before booleans at (1, 2), in an
    # earlier row or earlier in the same row
    doc = approx_table_to_json(approximate(table(4)))
    doc["entries"][huge[0]][huge[1]] = [10**400, 0.0]
    doc["entries"][1][2] = [True, False]
    tpath = tmp_path / "bad.json"
    write_json(tpath, doc)
    assert _run("verify", "--table", tpath) == 2
    assert capsys.readouterr().err == "error: approximate entries must be within float range\n"


def test_cli_rejects_entries_beyond_the_prime_cap(tmp_path, capsys):
    # a cell of 2^1000 parses, but its residues would need more primes
    # than the verifier takes: malformed input, reported without a traceback
    t = table(4)
    tpath = tmp_path / "big.json"
    write_json(tpath, table_to_json(t.with_entry(1, 2, Cyclotomic.from_rational(3, 2**1000))))
    assert _run("verify", "--table", tpath) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "primes" in err and "Traceback" not in err


def test_cli_verdicts_on_a_zero_cell_over_a_huge_denominator(tmp_path, capsys):
    # the zero cell keeps denominator 1 while the others' pass 2^63, so
    # their common one L does too: a well-formed table that fails, not
    # malformed input
    t = table(4)
    shrunk = JacobiTable(t.group, [[e * Fraction(1, 2**63) for e in row] for row in t.values])
    tpath = tmp_path / "t.json"
    rpath = tmp_path / "r.json"
    write_json(tpath, table_to_json(shrunk.with_entry(1, 2, Cyclotomic.from_rational(3, 0))))
    assert _run("verify", "--table", tpath) == 1
    assert "symmetry: FAIL witness=((1,), (2,))" in capsys.readouterr().out
    assert _run("reconstruct", "--table", tpath, "--out", rpath) == 1
    doc = read_json(rpath)
    assert doc["case"] == "inconsistent" and doc["inconsistency"]["stage"] == "verification"


@pytest.mark.parametrize("p", [1099511627791, 2**61 - 1])
def test_cli_rejects_field_files_beyond_the_size_limit(tmp_path, capsys, p):
    # a field file is held to the same 2^16 limit as --p and --n, checked
    # before p is tested for primality or a single element is listed
    fpath = tmp_path / "f.json"
    write_json(fpath, {"schema": "field/1", "p": p, "n": 1, "modulus": [0, 1], "generator": [3]})
    start = time.perf_counter()
    assert _run("jacobi", "--field", fpath, "--out", tmp_path / "t.json") == 2
    assert time.perf_counter() - start < 1
    assert "exceeds the bound 65536" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_cli_rejects_groups_beyond_the_exact_limit(tmp_path, capsys):
    # GF(67) is small, but its table would live on a group of order 66
    fpath = tmp_path / "f67.json"
    write_json(fpath, {"schema": "field/1", "p": 67, "n": 1, "modulus": [0, 1], "generator": [2]})
    assert _run("jacobi", "--field", fpath, "--out", tmp_path / "t.json") == 2
    assert "exact-table limit" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()
    # the entries are never read: the declared factors alone exceed the limit
    doc = {"schema": "jacobi-table/1", "factors": [5, 13], "conductor": 65, "entries": []}
    with pytest.raises(ValueError, match="exact-table limit"):
        table_from_json(doc)
    tpath = tmp_path / "t65.json"
    write_json(tpath, doc)
    assert _run("verify", "--table", tpath) == 2
    assert _run("reconstruct", "--table", tpath, "--out", tmp_path / "r.json") == 2
    # approximate tables share the limit
    doc["schema"] = "jacobi-table-approx/1"
    with pytest.raises(ValueError, match="limit"):
        table_from_json(doc)
    write_json(tpath, doc)
    assert _run("verify", "--table", tpath) == 2


def test_cli_internal_errors_exit_3(tmp_path, monkeypatch, capsys):
    from jacobisum import harness

    tpath = tmp_path / "t.json"
    write_json(tpath, table_to_json(table(3)))

    def fail(exc):
        def raiser(*args, **kwargs):
            raise exc
        return raiser

    monkeypatch.setattr(harness, "verify_all", fail(RuntimeError("checkers disagree")))
    assert _run("verify", "--table", tpath) == 3
    assert "internal error: RuntimeError: checkers disagree" in capsys.readouterr().err
    monkeypatch.setattr(harness, "compute_jacobi", fail(MemoryError()))
    assert _run("roundtrip", "--p", 3) == 3
    assert "internal error: MemoryError" in capsys.readouterr().err


def test_cli_roundtrip():
    assert _run("roundtrip", "--p", 7, "--n", 1) == 0
    assert _run("roundtrip", "--p", 2, "--n", 4) == 0
    assert _run("roundtrip", "--p", 6, "--n", 1) == 2


def test_cli_enumerate(tmp_path, capsys):
    assert _run("enumerate", "--group", "2,2") == 0
    out = capsys.readouterr().out
    assert "tables: 0" in out and "agreement: true" in out
    assert _run("enumerate", "--group", "4", "--list", "--out-dir", tmp_path) == 0
    files = sorted(tmp_path.glob("jacobi_4_*.json"))
    assert len(files) == 2
    for path in files:
        assert verify_all(table_from_json(read_json(path))).passed


def test_cli_twist(tmp_path):
    tpath = tmp_path / "t5.json"
    write_json(tpath, table_to_json(table(5)))
    out_a = tmp_path / "tw_a.json"
    out_g = tmp_path / "tw_g.json"
    assert _run("twist", "--table", tpath, "--r", 3, "--out", out_a) == 0
    assert _run("twist", "--table", tpath, "--r", 3, "--galois", "--out", out_g) == 0
    assert out_a.read_bytes() == out_g.read_bytes()
    assert _run("twist", "--table", tpath, "--r", 2, "--out", tmp_path / "nope.json") == 2


def test_cli_verify_approximate(tmp_path):
    at = approximate(table(9))
    tpath = tmp_path / "approx.json"
    write_json(tpath, approx_table_to_json(at))
    rpath = tmp_path / "rep.json"
    assert _run("verify", "--table", tpath, "--out", rpath) == 0
    assert read_json(rpath)["approximate"] is True
    assert _run("reconstruct", "--table", tpath, "--out", rpath) == 0
    doc = read_json(rpath)
    assert doc["approximate"] is True and doc["case"] == "field"


def test_cli_verify_trivial_group(tmp_path):
    tpath = tmp_path / "one.json"
    write_json(
        tpath,
        {"schema": "jacobi-table/1", "factors": [1], "conductor": 1,
         "entries": [[["1"]]]},
    )
    assert _run("verify", "--table", tpath) == 0
    write_json(
        tpath,
        {"schema": "jacobi-table/1", "factors": [1], "conductor": 1,
         "entries": [[["2"]]]},
    )
    assert _run("verify", "--table", tpath) == 1


def test_field_addition_rows_layout():
    f = field(4)
    rows = field_addition_rows(f)
    assert rows[0] == (0, 1, 2, 3)
    assert rows[1][1] == 0  # characteristic 2: x + x = 0
