"""Benchmark of the jacobisum pipeline over the field-size ladder q = 8..64.

    python3 bench/run.py --workload roundtrip|reject|approx --seed N \
        --seconds S --trace 0|1

One process, one client, one operation at a time (a closed loop), as a
CLI user runs the tool.  Set-up imports the library, generates the
workload's inputs from the seed and runs a warm-up pass at q = 8; it is
repeated and its median reported as setup_s.  Then one whole pass runs,
and after it further passes take each size whose last sample still fits
in --seconds, until none does.  A pass processes every input of each
size once; the workload's short sizes are repeated within a pass so that
their medians hold.  Every output is checked.

With --trace 0 the last line reports the end-to-end metrics (per-size
medians and set-up time in reference seconds, see calibration.py, and
peak memory).  With --trace 1 one untraced and one
traced pass run, the spans are written to .bench_out/, and the last line
reports each layer's self time over the traced set-up and pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import SPAN_NAMES, Tracer, no_span

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
WARM_UP_Q = 8
MAX_SECONDS = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be between 1 and {MAX_SECONDS}")
    return args


class Runner:
    """Runs operations one at a time, times them and checks their outputs."""

    def __init__(self, tracer, calibration):
        self.tracer = tracer
        self.calibration = calibration
        self.span = None
        self.traced = False  # whether self.span records spans
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.messages: Counter[str] = Counter()
        self.outcomes: list = []  # of the last run_size call
        self._op = 0

    def set_tracing(self, on: bool) -> None:
        if on != self.traced and self.tracer is not None:
            if on:
                self.tracer.install()
            else:
                self.tracer.uninstall()
        self.traced = on and self.tracer is not None
        self.span = self.tracer.span if self.traced else no_span

    def run_size(self, workload, inputs) -> tuple[float, float]:
        """Every input of one size once; returns the summed operation time
        in wall seconds (less calibration probes) and in reference seconds
        (equal to the first when there is no calibration)."""
        outcomes = []
        total = 0.0
        first = perf_counter()
        for inp in inputs:
            gc.collect()
            self._op += 1
            if self.traced:
                self.tracer.op = self._op
                self.tracer.op_info[self._op] = {
                    "workload": workload.name, "q": inp.q, "kind": inp.kind}
            start = perf_counter()
            try:
                with self.span("bench.op"):
                    out = workload.run(inp, self.span)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                out = None
            end = perf_counter()
            total += end - start
            if self.calibration is not None:
                total -= self.calibration.probe_seconds(start, end)
            outcomes.append(out)
        factor = 1.0
        if self.calibration is not None:
            factor = self.calibration.factor(first, perf_counter())
        self.outcomes = outcomes
        if self.tracer is not None:
            self.tracer.op = None
            if self.traced:
                self.tracer.table_bytes += sum(
                    out.table_bytes for out in outcomes if out is not None
                )
        self._record(workload, inputs, outcomes)
        return total, total * factor

    def _record(self, workload, inputs, outcomes) -> None:
        from workloads import FAIL, KNOWN

        self.attempted += len(inputs)
        if any(out is None for out in outcomes):
            self.failed += len(inputs)
            self.messages[f"{workload.name} q={inputs[0].q}: an operation raised"] += 1
            return
        if self.tracer is not None:
            with self.tracer.paused_counts():
                verdicts = workload.check(inputs, outcomes)
        else:
            verdicts = workload.check(inputs, outcomes)
        for status, message in verdicts:
            if status == FAIL:
                self.failed += 1
            elif status == KNOWN:
                self.known += 1
            if message:
                self.messages[f"{workload.name} {message}"] += 1

    def run_pass(self, workload, inputs, samples, fits=None) -> float:
        """Every size once, with the workload's short sizes (its ``slot``)
        sampled again before and after each long one, so their samples
        spread over the pass.  With ``fits``, a size runs only if
        ``fits(q)``.  Appends (wall, reference) seconds per size; returns
        wall seconds."""
        total = 0.0
        slot = [q for q, count in workload.slot.items() for _ in range(count)]
        order = []
        for q in inputs:
            if q not in workload.slot:
                order += slot + [q]
        order += slot
        for q in order:
            if fits is not None and not fits(q):
                continue
            wall, ref = self.run_size(workload, inputs[q])
            samples.setdefault(q, []).append((wall, ref))
            total += wall
        return total


def _summary(name: str, ref: list[float], wall: list[float]) -> str:
    n = len(ref)
    line = (f"  {name} median {statistics.median(ref):.6g} s "
            f"(wall {statistics.median(wall):.6g} s), n={n}")
    if n >= 20:  # the highest percentile with ten samples above it
        line += f", p{100 * (n - 10) // n} {sorted(ref)[n - 11]:.6g} s"
    return line


def _set_up(runner, workload, warm_up, seed: int):
    """Generate the inputs and run the warm-up, SETUP_REPEATS times when
    untraced; returns the set-up times (probes excluded), the window they
    span and the inputs."""
    from workloads import SIZES

    small = [s for s in SIZES if s[0] == WARM_UP_Q]
    calibration = runner.calibration
    times = []
    window_start = perf_counter()
    for _ in range(1 if runner.tracer else SETUP_REPEATS):
        start = perf_counter()
        inputs = workload.generate(seed, SIZES, runner.span)
        for w in warm_up:
            runner.run_size(w, w.generate(seed, small, runner.span)[WARM_UP_Q])
        end = perf_counter()
        if calibration is not None:
            end -= calibration.probe_seconds(start, end)
        times.append(end - start)
    return times, window_start, perf_counter(), inputs


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "jacobisum" / "__init__.py").is_file():
        print(f"error: jacobisum sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("JACOBI_THREADS", None)  # the library default of 1 applies

    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    from calibration import REF_S, Calibration

    import_s = perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # the warm-up runs the workload's own inputs plus a roundtrip and a
    # reject at q = 8, so every layer's code has run before timing starts
    warm_up = dict.fromkeys(
        (workloads.WORKLOADS["roundtrip"], workloads.WORKLOADS["reject"], workload)
    )

    # traced runs report raw self times, so they need no calibration
    tracer = Tracer() if args.trace else None
    calibration = None if tracer else Calibration()
    runner = Runner(tracer, calibration)
    runner.set_tracing(tracer is not None)
    if calibration is not None:
        calibration.start()
    try:
        setup_times, setup_start, setup_end, inputs = _set_up(runner, workload, warm_up, args.seed)
        runner.set_tracing(False)
        samples: dict[int, list[tuple[float, float]]] = {}
        measure_start = perf_counter()
        pass_times = [runner.run_pass(workload, inputs, samples)]

        def fits(q: int) -> bool:
            # a size runs again if its last sample still fits in --seconds
            last_wall = samples[q][-1][0]
            return perf_counter() - measure_start + last_wall <= args.seconds

        # after the first whole pass, further passes take the sizes that fit
        while tracer is None and any(fits(q) for q in inputs):
            pass_times.append(runner.run_pass(workload, inputs, samples, fits))
    finally:
        if calibration is not None:
            calibration.stop()

    if tracer is not None:
        tracer.phase = "pass"
        runner.set_tracing(True)
        traced_time = runner.run_pass(workload, inputs, {})
        runner.set_tracing(False)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl")

    print(f"workload {workload.name}, seed {args.seed}: {len(pass_times)} measured "
          f"pass(es), the later ones without the sizes that no longer fit, "
          f"{runner.attempted} operations")
    for message, count in runner.messages.items():
        print(f"  {message} ({count}x)")
    failed_ratio = (runner.failed + runner.known) / runner.attempted
    print(f"  failed_ratio {failed_ratio:.4g} ({runner.failed} failed, "
          f"{runner.known} known defects, of {runner.attempted})")

    metrics = {}
    if tracer is None:
        # time metrics in reference seconds; the wall medians are printed too
        cal = calibration.times
        print(f"  calibration: {len(cal)} probes, median {statistics.median(cal) * 1000:.4g} "
              f"ms, quartiles {' '.join(f'{t * 1000:.4g}' for t in statistics.quantiles(cal))} "
              f"ms, reference {REF_S * 1000:.4g} ms")
        setup_s = import_s + statistics.median(setup_times)
        print(f"  setup_s wall {setup_s:.6g} s: import {import_s:.4g} s + median of "
              + ", ".join(f"{t:.4g}" for t in setup_times))
        setup_ref = setup_s * calibration.factor(setup_start, setup_end)
        metrics["setup_s"] = {"value": setup_ref, "unit": "s"}
        for q, pairs in samples.items():
            wall = [w for w, _ in pairs]
            ref = [r for _, r in pairs]
            print(_summary(f"q{q}_s", ref, wall))
            metrics[f"q{q}_s"] = {"value": statistics.median(ref), "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    else:
        totals = tracer.self_times(("setup", "pass"))
        for name in SPAN_NAMES:
            metrics[f"{name}_s"] = {"value": totals.get(name, 0.0), "unit": "s"}
        metrics["harness.table_bytes"] = {
            "value": tracer.table_bytes, "unit": "count"}
        metrics["verifier.points_scanned"] = {
            "value": tracer.points_scanned(), "unit": "count"}
        metrics["cyclotomic.ops"] = {"value": tracer.ops, "unit": "count"}
        metrics["trace.overhead_ratio"] = {
            "value": traced_time / pass_times[0] - 1, "unit": "ratio"}
        pass_totals = tracer.self_times(("pass",))
        print(f"  traced pass {traced_time:.4g} s, untraced {pass_times[0]:.4g} s; "
              "self time share of the traced pass:")
        for name, value in sorted(pass_totals.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<36} {value:9.4f} s {100 * value / traced_time:6.2f}%")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
