"""Command-line front end and JSON file formats.

All files are self-describing JSON with a "schema" field.  Exact table
entries travel as lists of "p/q" strings (lowest terms, little-endian in
the power basis), which is bit-exact; complex tables carry [re, im]
pairs.  Output is deterministic: sorted keys, compact separators, one
trailing newline.

Exit codes: 0 all checks passed, 1 a check or comparison failed,
2 malformed input or arguments, 3 an internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from itertools import chain, count, product
from pathlib import Path

import numpy as np

from .abelian import GroupSpec
from .cyclotomic import Cyclotomic, euler_phi, parse_coefficient
from .enumerator import enumerate_jacobi
from .ffield import FiniteField, build_field
from .jacobi import (
    ApproxTable,
    JacobiTable,
    compute_jacobi,
    require_exact_order,
    twist_automorphism,
    twist_galois,
)
from .reconstructor import ReconstructionReport, reconstruct
from .verifier import DEFAULT_TOLERANCE, CheckResult, VerificationReport, verify_all

FIELD_SCHEMA = "field/1"
TABLE_SCHEMA = "jacobi-table/1"
APPROX_TABLE_SCHEMA = "jacobi-table-approx/1"
VERIFICATION_SCHEMA = "verification-report/1"
RECONSTRUCTION_SCHEMA = "reconstruction-report/1"

TABLE_DUMP_MAX = 64  # field files include full op tables up to this size
_COEFFICIENT_CHARS = b"-0123456789/,"  # a coefficient's characters, and the separator


# -- JSON helpers -------------------------------------------------------------


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps(obj) -> str:
    """json.dumps with sorted keys and compact separators, and a newline.
    A table document's entries are written once per distinct cell object."""
    entries = _entries_text(obj)
    if entries is None:
        return _compact(obj) + "\n"
    return "{" + ",".join(
        _compact(key) + ":" + (entries if key == "entries" else _compact(obj[key]))
        for key in sorted(obj)) + "}\n"


def _entries_text(doc) -> str | None:
    """The text json.dumps gives a jacobi-table/1 document's entries, made
    once per distinct cell object; None, and json.dumps writes it, unless
    every key of the document is a str and every cell a non-empty list of
    strings over -0123456789/, which JSON writes verbatim."""
    if not (type(doc) is dict and doc.get("schema") == TABLE_SCHEMA
            and all(type(key) is str for key in doc)):
        return None
    entries = doc.get("entries")
    if type(entries) is not list or any(type(row) is not list for row in entries):
        return None
    cells = {id(cell): cell for cell in chain.from_iterable(entries)}
    if set(map(type, cells.values())) - {list} or 0 in map(len, cells.values()):
        return None
    try:
        joined = list(map(",".join, cells.values()))
    except TypeError:  # a coefficient that is not a string
        return None
    # every comma a separator, so each string is over the coefficient
    # characters; ASCII first, as a lone surrogate does not encode
    flat = ",".join(joined)
    if (flat.count(",") != sum(map(len, cells.values())) - 1 or not flat.isascii()
            or flat.encode().translate(None, _COEFFICIENT_CHARS)):
        return None
    text = dict(zip(cells, ('["' + t.replace(",", '","') + '"]' for t in joined)))
    return "[" + ",".join("[" + ",".join(map(text.__getitem__, map(id, row))) + "]"
                          for row in entries) + "]"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("JSON document nests too deeply") from None


def _schema(doc) -> object:
    """The schema tag of a document, whose top level must be an object."""
    if not isinstance(doc, dict):
        raise ValueError("the document is not a JSON object")
    return doc.get("schema")


def _fields(doc: dict, *keys: str) -> list:
    """The values of the given keys, each of which the document must have."""
    if missing := [key for key in keys if key not in doc]:
        raise ValueError(f"the document has no {missing[0]!r}")
    return [doc[key] for key in keys]


# -- field files --------------------------------------------------------------


def field_to_json(field: FiniteField) -> dict:
    doc = {
        "schema": FIELD_SCHEMA,
        "p": field.p,
        "n": field.n,
        "q": field.q,
        "modulus": list(field.modulus),
        "generator": list(field.generator),
    }
    if field.q <= TABLE_DUMP_MAX:
        els = field.elements
        index = {e: i for i, e in enumerate(els)}
        doc["addition"] = [
            [index[field.add(a, b)] for b in els] for a in els
        ]
        doc["multiplication"] = [
            [index[field.mul(a, b)] for b in els] for a in els
        ]
    return doc


def field_from_json(doc: dict) -> FiniteField:
    schema = _schema(doc)
    if schema != FIELD_SCHEMA:
        raise ValueError(f"not a field file (schema {schema!r})")
    p, n, modulus, generator = _fields(doc, "p", "n", "modulus", "generator")
    if type(modulus) is not list or type(generator) is not list or any(
            type(x) is not int for x in (p, n, *modulus, *generator)):
        raise ValueError("p, n, modulus and generator must be JSON integers")
    return FiniteField(p, n, tuple(modulus), tuple(generator))


# -- table files --------------------------------------------------------------


def _first_positions(keys) -> tuple[list[int], list[int]]:
    """Each key's number, in order of first appearance, and the position
    where each number first appears."""
    ids = list(map(defaultdict(count().__next__).__getitem__, keys))
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return ids, sorted(first.values())


def _row_bytes(a: np.ndarray) -> list[bytes]:
    """Each row of a 2-d integer array as bytes, a key that tells rows apart."""
    return np.ascontiguousarray(a).view((np.void, a.itemsize * a.shape[1])).ravel().tolist()


def _encode_entries(table: JacobiTable) -> list[list[list[str]]]:
    """Every entry's to_strings(), one list per distinct cell, which the rows
    share: copy a cell before changing it in place.  Each distinct
    (denominator, numerator) pair of the distinct cells is formatted once,
    and the distinct cells are gathered from those strings.  A pair's key
    is its (denominator rank, numerator - least numerator) when at most m^2
    keys cover the span, as in every field table, and a cell is told apart
    by the bytes of its row of keys; otherwise by its denominator and
    numerators, and a dict numbers the pairs."""
    m, degree = table.den.shape[0], table.num.shape[2]
    num, den = table.num.reshape(m * m, degree), table.den.ravel()
    dens, drank = np.unique(den, return_inverse=True)
    width = 0 if num.dtype == object else int(num.max()) - int(num.min()) + 1
    if 0 < len(dens) * width <= den.size:
        lo = num.min()
        keys = (num - lo).astype(np.min_scalar_type(den.size))
        keys += (drank * width).astype(keys.dtype)[:, None]
        ids, distinct = _first_positions(_row_bytes(keys))
        keys = keys[distinct].astype(np.intp)
        pairs = product(dens.tolist(), (lo + np.arange(width)).tolist())
    else:
        rows = np.column_stack((den, num))
        ids, distinct = _first_positions(map(tuple, rows.tolist()) if rows.dtype == object
                                         else _row_bytes(rows))
        pairs = defaultdict(count().__next__)
        dd, nn = np.repeat(den[distinct], degree).tolist(), num[distinct].ravel().tolist()
        keys = np.fromiter(map(pairs.__getitem__, zip(dd, nn)), np.intp, len(nn)).reshape(-1, degree)
    names = np.array([str(Fraction(n, d)) for d, n in pairs], dtype=object)
    # a gather of m cells at a time, which keeps the object arrays small
    cells = list(chain.from_iterable(
        names[keys[i:i + m]].tolist() for i in range(0, len(keys), m)))
    return [list(map(cells.__getitem__, ids[i:i + m])) for i in range(0, m * m, m)]


def _decode_entries(m: int, entries) -> tuple[np.ndarray, int | np.ndarray]:
    """The numerators of a table document's cells over the lcm L of all its
    coefficient denominators, and L, int64 when L and each |num| * L / den
    are below 2^63; past 2^63, over each cell's own lcm, and those, so no
    integer grows with the number of distinct denominators.

    The work is done once per distinct cell.  A cell's key is its strings
    joined by commas; a comma is never valid in a coefficient, so two cells
    that differ share a key only when the first holds a comma, which is
    refused.  Where a coefficient is not a string, the key is the cell's
    tuple.  The distinct cells' distinct strings are parsed once each, in
    document order, so the first bad string is named, and the numerators
    are gathered by cell."""
    degree = euler_phi(m)
    cells = list(chain.from_iterable(entries))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {degree}:
        raise ValueError(f"each entry must be a list of {degree} coefficient strings")
    try:
        ids, distinct = _first_positions(map(",".join, cells))
    except TypeError:  # a coefficient that is not a string
        try:
            ids, distinct = _first_positions(map(tuple, cells))
        except TypeError:  # an array or object in place of a coefficient
            raise ValueError("coefficients must be strings") from None
    code = defaultdict(count().__next__)
    strings = chain.from_iterable(map(cells.__getitem__, distinct))
    idx = np.fromiter(map(code.__getitem__, strings), np.intp,
                      len(distinct) * degree).reshape(-1, degree)
    nums, dens = zip(*map(parse_coefficient, code))
    lcm = reduce(lambda a, d: a if a >> 63 else math.lcm(a, d), set(dens), 1)
    if lcm >> 63:
        nums, dens = (np.array(x, dtype=object)[idx] for x in (nums, dens))
        den = np.lcm.reduce(dens, axis=1)
        num = nums * (den[:, None] // dens)
        return num[ids].reshape(m, m, degree), den[ids].reshape(m, m)
    scaled = [n * (lcm // d) for n, d in zip(nums, dens)]
    wide = max(map(abs, scaled)) >> 63
    num = np.array(scaled, dtype=object if wide else np.int64)[idx]
    return num[ids].reshape(m, m, degree), lcm


def table_to_json(table: JacobiTable) -> dict:
    return {
        "schema": TABLE_SCHEMA,
        "factors": list(table.group.factors),
        "conductor": table.group.m,
        "entries": _encode_entries(table),
    }


def approx_table_to_json(table: ApproxTable) -> dict:
    return {
        "schema": APPROX_TABLE_SCHEMA,
        "factors": list(table.group.factors),
        "conductor": table.group.m,
        "entries": [
            [[z.real, z.imag] for z in row] for row in table.entries
        ],
    }


def table_from_json(doc: dict) -> JacobiTable | ApproxTable:
    schema = _schema(doc)
    if schema not in (TABLE_SCHEMA, APPROX_TABLE_SCHEMA):
        raise ValueError(f"not a table file (schema {schema!r})")
    factors, conductor, entries = _fields(doc, "factors", "conductor", "entries")
    if type(factors) is not list or any(type(x) is not int for x in (conductor, *factors)):
        raise ValueError("factors and conductor must be JSON integers")
    group = GroupSpec(tuple(factors))
    if conductor != group.m:
        raise ValueError("conductor does not match the factor list")
    m = group.m
    # checked before the entries are read; it bounds the complex checks
    # too, whose convolution-sum scan does O(m^4) work
    require_exact_order(m)
    if type(entries) is not list or len(entries) != m or any(
            type(row) is not list or len(row) != m for row in entries):
        raise ValueError(f"entries must form an {m} x {m} array")
    if schema == TABLE_SCHEMA:
        return JacobiTable._from_arrays(group, *_decode_entries(m, entries))
    return ApproxTable(group, tuple(tuple(map(_complex_cell, row)) for row in entries))


def _complex_cell(cell) -> complex:
    """A [re, im] cell of an approximate table: exactly two JSON numbers."""
    if (type(cell) is not list or len(cell) != 2
            or type(cell[0]) not in (int, float) or type(cell[1]) not in (int, float)):
        raise ValueError("each approximate entry must be a [re, im] pair of numbers")
    try:
        return complex(*cell)
    except OverflowError:  # an integer beyond float range
        raise ValueError("approximate entries must be within float range") from None


# -- reports ------------------------------------------------------------------


def _value_json(value):
    if value is None:
        return None
    if isinstance(value, Cyclotomic):
        return {"kind": "exact", "coefficients": value.to_strings()}
    if isinstance(value, complex):
        return {"kind": "complex", "re": value.real, "im": value.imag}
    if isinstance(value, (int, float)):
        return value
    return str(value)


def _check_json(result: CheckResult) -> dict:
    doc = {"passed": result.passed}
    if not result.passed:
        doc["witness"] = [list(w) if isinstance(w, tuple) else w for w in result.witness]
        doc["lhs"] = _value_json(result.lhs)
        doc["rhs"] = _value_json(result.rhs)
    return doc


def verification_to_json(report: VerificationReport) -> dict:
    doc = {
        "schema": VERIFICATION_SCHEMA,
        "passed": report.passed,
        "symmetry": _check_json(report.symmetry),
        "cocycle_star": _check_json(report.cocycle_star),
        "cocycle_direct": _check_json(report.cocycle_direct),
        "convolution_sum": _check_json(report.convolution),
        "convolution_mode": report.convolution_mode,
        "approximate": report.approximate,
    }
    if report.approximate:
        doc["tolerance"] = report.tolerance
    return doc


def reconstruction_to_json(report: ReconstructionReport) -> dict:
    g = report.group
    doc = {
        "schema": RECONSTRUCTION_SCHEMA,
        "factors": list(g.factors),
        "case": report.case,
        "ok": report.ok,
        "approximate": report.approximate,
    }
    if report.verification is not None:
        doc["verification"] = verification_to_json(report.verification)
    if report.support is not None:
        doc["support"] = [list(x) for x in report.support]
    if report.support_map is not None:
        doc["support_map"] = [
            [list(x), list(y)] for x, y in sorted(report.support_map.items())
        ]
    if report.image is not None:
        doc["image"] = [list(x) for x in report.image]
    if report.involution is not None:
        doc["involution"] = list(report.involution)
    if report.baseline is not None:
        doc["baseline"] = report.baseline.to_strings()
    if report.baseline_ok is not None:
        doc["baseline_ok"] = report.baseline_ok
    if report.addition is not None:
        doc["addition"] = [list(row) for row in report.addition.table]
    if report.field_checks is not None:
        fc = report.field_checks
        doc["field_checks"] = {
            "passed": fc.passed,
            "commutative": _check_json(fc.commutative),
            "associative": _check_json(fc.associative),
            "distributive": _check_json(fc.distributive),
            "identity": _check_json(fc.identity),
            "inverses": _check_json(fc.inverses),
            "characteristic": fc.characteristic,
            "prime_power_ok": fc.prime_power_ok,
        }
    if report.roundtrip_ok is not None:
        doc["roundtrip_ok"] = report.roundtrip_ok
    if report.inconsistency is not None:
        doc["inconsistency"] = {
            "stage": report.inconsistency.get("stage"),
            "detail": report.inconsistency.get("detail", ""),
            "witness": repr(report.inconsistency.get("witness")),
        }
    return doc


# -- expected addition of a known field, for round trips ----------------------


def field_addition_rows(field: FiniteField) -> tuple[tuple[int, ...], ...]:
    """The field's addition in reconstruction-carrier layout: symbol 0 is
    zero, symbol k >= 1 is the element with discrete log k - 1."""
    return field.carrier_addition(range(field.q - 1))


# -- CLI ----------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """A --tolerance value: inf would pass any table and NaN fail every one."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobi",
        description="Exact Jacobi-sum tables, axiom verification, and field reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="construct GF(p^n) and write its description")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("jacobi", help="compute the Jacobi-sum table of a field file")
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="check the three axioms on a table file")
    p.add_argument("--table", required=True)
    p.add_argument("--out")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("reconstruct", help="recover the field structure from a table file")
    p.add_argument("--table", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("roundtrip", help="field -> table -> verify -> reconstruct -> compare")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("enumerate", help="enumerate all Jacobi functions on a small group")
    p.add_argument("--group", required=True, help="comma-separated cyclic factors, e.g. 2,4")
    p.add_argument("--list", action="store_true", help="write the tables as JSON files")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("twist", help="twist a table by a power automorphism")
    p.add_argument("--table", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--galois", action="store_true",
                   help="act on values (zeta -> zeta^r) instead of re-indexing")
    p.add_argument("--out", required=True)
    return parser


def _load_exact_table(path: str) -> JacobiTable:
    table = table_from_json(read_json(path))
    if not isinstance(table, JacobiTable):
        raise ValueError("an exact table file is required here")
    return table


def _float_errors(table) -> np.errstate:
    """A complex table's products may overflow to inf, and inf - inf is
    NaN, which its checks count as differing: numpy's warnings about them
    are silenced.  An exact table's error state is left as it is."""
    quiet = "ignore" if isinstance(table, ApproxTable) else None
    return np.errstate(over=quiet, invalid=quiet)


def _print_verification(report: VerificationReport) -> None:
    for result in report.checks:
        line = f"{result.check}: {'pass' if result.passed else 'FAIL'}"
        if result.check == "convolution-sum":
            line += f" [{report.convolution_mode}]"
        if not result.passed:
            line += f" witness={result.witness}"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    try:
        return _dispatch(args)
    except (ValueError, OSError, KeyError, TypeError, ZeroDivisionError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as err:
        # a bug guard or an exhausted machine, never a verdict on the input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "field":
        field = build_field(args.p, args.n)
        write_json(args.out, field_to_json(field))
        print(f"wrote GF({field.q}) to {args.out}")
        return 0

    if args.command == "jacobi":
        field = field_from_json(read_json(args.field))
        table = compute_jacobi(field)
        write_json(args.out, table_to_json(table))
        print(f"wrote {table.group.m} x {table.group.m} table to {args.out}")
        return 0

    if args.command == "verify":
        table = table_from_json(read_json(args.table))
        with _float_errors(table):
            report = verify_all(table, tolerance=args.tolerance)
        _print_verification(report)
        if args.out:
            write_json(args.out, verification_to_json(report))
        return 0 if report.passed else 1

    if args.command == "reconstruct":
        table = table_from_json(read_json(args.table))
        with _float_errors(table):
            report = reconstruct(table, force=args.force, tolerance=args.tolerance)
        write_json(args.out, reconstruction_to_json(report))
        print(f"case: {report.case}; ok: {report.ok}")
        return 0 if report.ok else 1

    if args.command == "roundtrip":
        return _roundtrip(args)

    if args.command == "enumerate":
        factors = tuple(int(part) for part in args.group.split(","))
        result = enumerate_jacobi(GroupSpec(factors))
        print(f"tables: {result.count}")
        print(f"oracle: {result.oracle_count}")
        print(f"agreement: {str(result.agreement).lower()}")
        if args.list:
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            tag = "x".join(str(n) for n in factors)
            for i, table in enumerate(result.tables):
                path = out_dir / f"jacobi_{tag}_{i}.json"
                write_json(path, table_to_json(table))
                print(f"wrote {path}")
        return 0 if result.agreement else 1

    if args.command == "twist":
        table = _load_exact_table(args.table)
        twisted = twist_galois(table, args.r) if args.galois else twist_automorphism(
            table, args.r
        )
        write_json(args.out, table_to_json(twisted))
        print(f"wrote twist r={args.r} to {args.out}")
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def _roundtrip(args) -> int:
    field = build_field(args.p, args.n)
    table = compute_jacobi(field)
    report = reconstruct(table)
    if args.out:
        write_json(args.out, reconstruction_to_json(report))
    if not report.ok or report.case != "field":
        print(f"roundtrip FAILED: case={report.case}, ok={report.ok}")
        return 1
    expected = field_addition_rows(field)
    got = report.addition.table
    if got != expected:
        print("roundtrip FAILED: reconstructed addition differs from the field")
        return 1
    print(f"roundtrip ok: GF({field.q}) addition recovered exactly")
    return 0


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
