"""Spans and counters recorded from outside the library.

The tracer wraps jacobisum's public functions where they live as module
attributes, in every jacobisum module that holds them, so calls the
library makes internally (``reconstruct`` calling ``verify_all``, which
calls ``check_cocycle_star``) are recorded too.  Each span keeps its name,
start, end, parent span, operation id and phase.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import random
import sys
from collections import defaultdict
from time import perf_counter

# (module, public function, span name); several functions may share a span
SPANNED = (
    ("ffield", "build_field", "ffield.build_field"),
    ("jacobi", "compute_jacobi", "jacobi.compute_jacobi"),
    ("jacobi", "slice_function", "jacobi.slice_function"),
    ("verifier", "verify_all", "verifier.verify_all"),
    ("verifier", "check_symmetry", "verifier.symmetry"),
    ("verifier", "check_cocycle_star", "verifier.cocycle_star"),
    ("verifier", "check_cocycle_direct", "verifier.cocycle_direct"),
    ("verifier", "check_convolution_sum", "verifier.convolution"),
    ("verifier", "cocycle_star_sides", "verifier.witness_sides"),
    ("verifier", "cocycle_direct_sides", "verifier.witness_sides"),
    ("verifier", "convolution_sum_sides", "verifier.witness_sides"),
    ("verifier", "slice_convolution_sides", "verifier.witness_sides"),
    ("reconstructor", "reconstruct", "reconstructor.reconstruct"),
    ("reconstructor", "fourier_support", "reconstructor.fourier_support"),
    ("reconstructor", "recover_support_map", "reconstructor.recover_support_map"),
    ("reconstructor", "classify_support", "reconstructor.classify_support"),
    ("reconstructor", "build_addition", "reconstructor.build_addition"),
    ("reconstructor", "verify_field", "reconstructor.verify_field"),
    ("reconstructor", "recompute_table", "reconstructor.recompute_table"),
    ("abelian", "dft", "abelian.dft"),
)

# spans the benchmark opens itself around the JSON steps of an operation
HARNESS_SPANS = ("harness.table_load", "harness.table_dump", "harness.report_dump")

# Cyclotomic methods whose calls make up the cyclotomic.ops count
COUNTED_METHODS = ("__add__", "__sub__", "__mul__", "mul_root")
COUNTED_CLASSMETHODS = ("root_sum", "from_strings")

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANNED)) + HARNESS_SPANS

_NO_SPAN = contextlib.nullcontext()


def no_span(name: str):
    """Stand-in for Tracer.span when tracing is off."""
    return _NO_SPAN


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), None, parent, t.op, t.phase])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._stack.pop()
        return False


class Tracer:
    """In-memory spans, counters and verification reports of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, phase]
        self.op: int | None = None
        self.phase = "setup"
        self.ops = 0  # calls to the counted Cyclotomic methods
        self.table_bytes = 0  # table JSON loaded by traced operations
        self.op_info: dict[int, dict] = {}  # operation id -> workload, q, kind
        self.reports: list = []  # (group, VerificationReport) per verify_all call
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- installing the wrappers --------------------------------------

    def install(self) -> None:
        mods = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "jacobisum" or name.startswith("jacobisum.")
        ]
        for modname, attr, name in SPANNED:
            orig = getattr(importlib.import_module(f"jacobisum.{modname}"), attr)
            wrapper = self._wrap(orig, name, keep_report=attr == "verify_all")
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        cls = importlib.import_module("jacobisum.cyclotomic").Cyclotomic
        for attr in COUNTED_METHODS:
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._count(orig))
        for attr in COUNTED_CLASSMETHODS:
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, classmethod(self._count(orig.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    def _wrap(self, fn, name: str, keep_report: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(tracer, name):
                result = fn(*args, **kwargs)
            if keep_report:
                tracer.reports.append((args[0].group, result))
            return result

        return traced

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.ops += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def paused_counts(self):
        """Leave the counters as they were across a block (output checks)."""
        ops = self.ops
        reports = len(self.reports)
        try:
            yield
        finally:
            self.ops = ops
            del self.reports[reports:]

    # -- summaries ----------------------------------------------------

    def self_times(self, phases: tuple[str, ...]) -> dict[str, float]:
        """Total self time per span name over the spans of the given phases."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op, phase in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op, phase) in enumerate(self.spans):
            if phase in phases:
                totals[name] += (end - start) - covered[i]
        return totals

    def points_scanned(self) -> int:
        return sum(points_scanned(group, report) for group, report in self.reports)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for op, info in self.op_info.items():
                out.write(json.dumps(dict(info, op=op)) + "\n")
            for i, (name, start, end, parent, op, phase) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "phase": phase}
                    )
                    + "\n"
                )


# -- points scanned, derived from a verification report ------------------


@functools.lru_cache(maxsize=None)
def _sample_ranks(m: int, count: int, seed: int) -> dict[tuple, int]:
    # the verifier's sampled mode scans these quadruples, deduplicated and
    # sorted, so a witness's rank in this order is the number scanned
    rng = random.Random(seed)
    quads = [
        (rng.randrange(m), rng.randrange(m), rng.randrange(m), rng.randrange(m))
        for _ in range(count)
    ]
    return {quad: rank for rank, quad in enumerate(sorted(set(quads)), 1)}


def _lex_rank(group, witness, m: int) -> int:
    rank = 0
    for element in witness:
        rank = rank * m + group.index(element)
    return rank + 1


def points_scanned(group, report) -> int:
    """Points the four checks of one report scanned, up to and including
    each witness (lexicographic scan order), or all of them on a pass."""
    m = group.m
    total = 0
    for result, arity in ((report.symmetry, 2), (report.cocycle_star, 3),
                          (report.cocycle_direct, 3)):
        total += m**arity if result.passed else _lex_rank(group, result.witness, m)
    conv = report.convolution
    if report.convolution_mode == "sampled":
        ranks = _sample_ranks(m, report.sample_count, report.seed)
        if conv.passed:
            total += len(ranks)
        else:
            total += ranks[tuple(group.index(e) for e in conv.witness)]
    else:
        arity = 3 if report.convolution_mode == "convolution" else 4
        total += m**arity if conv.passed else _lex_rank(group, conv.witness, m)
    return total
