"""Smoke test of the benchmark itself, at q = 8 only.

    python3 bench/selftest.py

Runs all three workloads at q = 8, untraced and traced, and fails (exit 1)
unless every span name the benchmark reports appears in the traced run,
the traced run counts Cyclotomic operations and scanned points, every
operation has the same outcome with tracing on and off, and the
calibration scales a sample taken before its timer first fires.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _outcome(out) -> tuple:
    if out is None:
        return ("raised",)
    if out.load_error is not None:
        return ("rejected at load", out.load_error)
    report = json.loads(out.text)
    return (report.get("passed"), report.get("ok"), out.text)


def _check_calibration() -> list[str]:
    """The calibration must scale a sample that ends before its timer first
    fires, and must not start a probe inside a running one."""
    from calibration import Calibration

    problems = []
    calibration = Calibration()
    calibration.start()
    try:
        now = perf_counter()
        if not calibration.factor(now, now) > 0:
            problems.append("calibration factor is not positive")
        count = len(calibration.times)
        calibration._busy = True  # as inside a running probe
        calibration.probe()
        if len(calibration.times) != count:
            problems.append("a probe started inside a running probe")
        calibration._busy = False
    except Exception as err:  # a crash here is what the check looks for
        problems.append(f"calibration raised {err!r}")
    finally:
        calibration.stop()
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from run import Runner
    from spans import SPAN_NAMES, Tracer

    sizes = [s for s in workloads.SIZES if s[0] == 8]
    tracer = Tracer()
    runner = Runner(tracer, None)
    outcomes = {}
    for traced in (False, True):
        runner.set_tracing(traced)
        for w in workloads.WORKLOADS.values():
            inputs = w.generate(0, sizes, runner.span)[8]
            runner.run_size(w, inputs)
            for inp, out in zip(inputs, runner.outcomes):
                outcomes.setdefault((w.name, inp.kind), []).append(_outcome(out))
    runner.set_tracing(False)

    problems = []
    seen = {span[0] for span in tracer.spans}
    missing = [name for name in SPAN_NAMES if name not in seen]
    if missing:
        problems.append(f"spans never recorded: {missing}")
    if tracer.ops == 0:
        problems.append("no Cyclotomic operations counted")
    if tracer.points_scanned() == 0:
        problems.append("no verification reports kept")
    for key, results in outcomes.items():
        if results[0] != results[1]:
            problems.append(f"{key}: outcome differs with tracing on")
    if runner.failed:
        problems.append(f"{runner.failed} of {runner.attempted} operations failed: "
                        f"{list(runner.messages)}")
    problems += _check_calibration()
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAILED" if problems else f"ok ({len(tracer.spans)} spans)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
