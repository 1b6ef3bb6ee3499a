"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every operation replays the documented CLI chain in memory, with JSON
strings standing in for files.  Operations call the library through
module attributes (``verifier.verify_all``), so the tracer's wrappers see
them; output checks use the functions imported by name below, which the
tracer never replaces.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from jacobisum import ffield, harness, jacobi, reconstructor, verifier
from jacobisum.cyclotomic import Cyclotomic
from jacobisum.harness import field_addition_rows
from jacobisum.verifier import (
    cocycle_direct_sides,
    cocycle_star_sides,
    convolution_sum_sides,
    slice_convolution_sides,
)

# (q, p, n): exhaustive convolution mode at 8, slice at 16 and 32, sampled
# at 49 and 64; characteristic 2 and 7
SIZES = ((8, 2, 3), (16, 2, 4), (32, 2, 5), (49, 7, 2), (64, 2, 6))

# reject tables are perturbed at (1, 2), and its transpose when symmetric.
# The scans stop at their first failure, and where that is depends on the
# position, so a seeded position would make the work depend on the seed;
# the seed draws the perturbation values instead.
REJECT_POSITION = (1, 2)
BIG_PRIME = 2**31 - 1  # its reciprocal exceeds the verifier's int64 bound
NOISE = 1e-9


@dataclass
class Input:
    q: int
    kind: str
    text: str = ""  # the JSON document the operation loads
    p: int = 0
    n: int = 0
    expected: tuple | None = None  # the field's addition, where checked


@dataclass
class Outcome:
    table: object = None
    report: object = None
    text: str = ""  # the JSON report the operation wrote
    table_bytes: int = 0  # size of the table JSON the operation loaded
    load_error: str | None = None


OK, KNOWN, FAIL = "ok", "known-defect", "failed"


def _dump_table(doc: dict, span) -> str:
    with span("harness.table_dump"):
        return harness.dumps(doc)


def _load_table(text: str, span):
    with span("harness.table_load"):
        return harness.table_from_json(json.loads(text))


def _classical(p: int, n: int):
    field = ffield.build_field(p, n)
    return field, jacobi.compute_jacobi(field)


def _exact(value: Cyclotomic) -> dict:
    return {"kind": "exact", "coefficients": value.to_strings()}


# A workload's slot lists its short sizes, with how many samples of each
# to take before and after every longer size.  The machine's speed drifts
# over seconds, so spreading samples over the pass steadies their median.
class Roundtrip:
    name = "roundtrip"
    slot = {8: 3, 16: 3}
    why = (
        "The accept path: every layer runs, and the exact verifier does most "
        "of the work. Classical tables have no free parameter, so the seed "
        "changes nothing here."
    )

    def generate(self, seed: int, sizes, span) -> dict[int, list[Input]]:
        inputs = {}
        for q, p, n in sizes:
            expected = field_addition_rows(ffield.build_field(p, n))
            inputs[q] = [Input(q, "classical", p=p, n=n, expected=expected)]
        return inputs

    def run(self, inp: Input, span) -> Outcome:
        field = ffield.build_field(inp.p, inp.n)
        table = jacobi.compute_jacobi(field)
        with span("harness.table_dump"):
            text = harness.dumps(harness.table_to_json(table))
        loaded = _load_table(text, span)
        report = reconstructor.reconstruct(loaded)
        with span("harness.report_dump"):
            out = harness.dumps(harness.reconstruction_to_json(report))
        return Outcome(report=report, text=out, table_bytes=len(text))

    def check(self, inputs: list[Input], outcomes: list[Outcome]) -> list[tuple[str, str]]:
        verdicts = []
        for inp, out in zip(inputs, outcomes):
            report, doc = out.report, json.loads(out.text)
            if not (report.ok and report.case == "field" and report.verification.passed):
                verdicts.append((FAIL, f"q={inp.q}: case={report.case} ok={report.ok}"))
            elif report.addition.table != inp.expected or doc["addition"] != [
                list(row) for row in inp.expected
            ]:
                verdicts.append((FAIL, f"q={inp.q}: addition differs from the field"))
            else:
                verdicts.append((OK, ""))
        return verdicts


class Reject:
    name = "reject"
    slot = {8: 3, 16: 3, 32: 1}
    why = (
        "Failing tables use the verifier differently: per-check setup, early "
        "exit, witness recomputation, the fallback to sampling and the scalar "
        "engine. Table loading dominates; the reconstructor does no work."
    )
    kinds = ("asym", "sym", "bigden")

    def generate(self, seed: int, sizes, span) -> dict[int, list[Input]]:
        i, j = REJECT_POSITION
        inputs = {}
        for q, p, n in sizes:
            rng = random.Random(f"reject/{seed}/{q}")
            m = q - 1
            _, table = _classical(p, n)
            with span("harness.table_dump"):
                doc = harness.table_to_json(table)
            v = table.values
            # asym: one entry moved by a root of unity, so symmetry fails and
            # the auto mode falls back to sampling
            asym = {(i, j): v[i][j] + Cyclotomic.root(m, rng.randrange(1, m))}
            # sym: an entry and its transpose moved by c/7; every scan stops
            # at its first failure
            small = Fraction(rng.randrange(1, 7), 7)
            sym = {(i, j): v[i][j] + small, (j, i): v[j][i] + small}
            # bigden: the same cells moved by c/(2^31 - 1), past the int64
            # bound, so the scalar engine runs and must find the same witness
            big = Fraction(rng.randrange(1, 2**20), BIG_PRIME)
            bigden = {(i, j): v[i][j] + big, (j, i): v[j][i] + big}
            inputs[q] = [
                Input(q, kind, text=_dump_table(_with_entries(doc, cells), span))
                for kind, cells in (("asym", asym), ("sym", sym), ("bigden", bigden))
            ]
        return inputs

    def run(self, inp: Input, span) -> Outcome:
        table = _load_table(inp.text, span)
        report = verifier.verify_all(table)
        with span("harness.report_dump"):
            out = harness.dumps(harness.verification_to_json(report))
        return Outcome(table=table, report=report, text=out, table_bytes=len(inp.text))

    def check(self, inputs: list[Input], outcomes: list[Outcome]) -> list[tuple[str, str]]:
        verdicts = []
        witnesses = {}
        for inp, out in zip(inputs, outcomes):
            problem = self._check_one(inp, out)
            witnesses[inp.kind] = [c.witness for c in out.report.checks[1:]]
            verdicts.append((FAIL, problem) if problem else (OK, ""))
        if witnesses["bigden"] != witnesses["sym"]:
            kind = self.kinds.index("bigden")
            verdicts[kind] = (FAIL, f"q={inputs[0].q}: bigden and sym witnesses differ")
        return verdicts

    def _check_one(self, inp: Input, out: Outcome) -> str:
        report, table, doc = out.report, out.table, json.loads(out.text)
        where = f"q={inp.q} {inp.kind}"
        if doc["passed"] is not False or report.passed:
            return f"{where}: accepted"
        failed = {key for key in ("symmetry", "cocycle_star", "cocycle_direct",
                                  "convolution_sum") if not doc[key]["passed"]}
        expected = {"cocycle_star", "cocycle_direct", "convolution_sum"}
        if inp.kind == "asym":
            expected.add("symmetry")
        if failed != expected:
            return f"{where}: failed checks {sorted(failed)}, expected {sorted(expected)}"
        for key, result in zip(("symmetry", "cocycle_star", "cocycle_direct",
                                "convolution_sum"), report.checks):
            if result.passed:
                continue
            w = result.witness
            if key == "symmetry":
                lhs, rhs = table.value(w[0], w[1]), table.value(w[1], w[0])
            elif key == "cocycle_star":
                lhs, rhs = cocycle_star_sides(table, *w)
            elif key == "cocycle_direct":
                lhs, rhs = cocycle_direct_sides(table, *w)
            elif report.convolution_mode == "convolution":
                lhs, rhs = slice_convolution_sides(table, *w)
            else:
                lhs, rhs = convolution_sum_sides(table, *w)
            entry = doc[key]
            if lhs == rhs or entry["witness"] != [list(e) for e in w] or (
                entry["lhs"], entry["rhs"]) != (_exact(lhs), _exact(rhs)):
                return f"{where}: {key} witness {w} does not reproduce"
        return ""


class Approx:
    name = "approx"
    slot = {8: 3, 16: 3, 32: 1}
    why = (
        "Complex tables: the exact int64 engine does nothing; the complex "
        "checks and transforms and the exact recompute_table do the work. "
        "Holds the known NaN defect."
    )

    def generate(self, seed: int, sizes, span) -> dict[int, list[Input]]:
        inputs = {}
        for q, p, n in sizes:
            rng = random.Random(f"approx/{seed}/{q}")
            m = q - 1
            field, table = _classical(p, n)
            entries = [
                [[z.real + rng.uniform(-NOISE, NOISE), z.imag + rng.uniform(-NOISE, NOISE)]
                 for z in row]
                for row in jacobi.approximate(table).entries
            ]
            doc = {
                "schema": harness.APPROX_TABLE_SCHEMA,
                "factors": list(table.group.factors),
                "conductor": m,
                "entries": entries,
            }
            # the NaN cell avoids the two slices reconstruction reads
            # (i + j = 0 and 1), so the whole pipeline runs wherever it lands
            while True:
                i, j = rng.randrange(m), rng.randrange(m)
                if (i + j) % m not in (0, 1):
                    break
            nan = {(i, j): [float("nan"), float("nan")]}
            expected = field_addition_rows(field)
            inputs[q] = [
                Input(q, "noisy", text=_dump_table(doc, span), expected=expected),
                Input(q, "nan", text=_dump_table(_with_entries(doc, nan), span)),
            ]
        return inputs

    def run(self, inp: Input, span) -> Outcome:
        try:
            table = _load_table(inp.text, span)
        except ValueError as err:  # a rejection at load is a valid outcome
            return Outcome(load_error=str(err), table_bytes=len(inp.text))
        report = reconstructor.reconstruct(table)
        with span("harness.report_dump"):
            out = harness.dumps(harness.reconstruction_to_json(report))
        return Outcome(report=report, text=out, table_bytes=len(inp.text))

    def check(self, inputs: list[Input], outcomes: list[Outcome]) -> list[tuple[str, str]]:
        verdicts = []
        for inp, out in zip(inputs, outcomes):
            where = f"q={inp.q} {inp.kind}"
            report = out.report
            if inp.kind == "nan":
                if out.load_error is not None or not report.verification.passed:
                    verdicts.append((OK, ""))
                else:
                    # the NaN table must be rejected; today it is accepted
                    verdicts.append((KNOWN, f"{where}: NaN table accepted (ok={report.ok})"))
            elif out.load_error is not None:
                verdicts.append((FAIL, f"{where}: rejected at load: {out.load_error}"))
            elif not (report.ok and report.case == "field" and report.approximate
                      and report.verification.passed and json.loads(out.text)["ok"]):
                verdicts.append((FAIL, f"{where}: case={report.case} ok={report.ok}"))
            elif report.addition.table != inp.expected:
                verdicts.append((FAIL, f"{where}: addition differs from the field"))
            else:
                verdicts.append((OK, ""))
        return verdicts


def _with_entries(doc: dict, cells: dict) -> dict:
    """Copy of a table document with some cells replaced."""
    entries = [list(row) for row in doc["entries"]]
    for (i, j), value in cells.items():
        entries[i][j] = value.to_strings() if isinstance(value, Cyclotomic) else value
    return dict(doc, entries=entries)


WORKLOADS = {w.name: w for w in (Roundtrip(), Reject(), Approx())}
