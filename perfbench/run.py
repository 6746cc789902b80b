"""Benchmark of the a2tp command line on three workloads, with a traced per-layer run.

    python3 perfbench/run.py --workload table|twists|files --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports a2tp from `src/`, calls
`a2tp.cli.main(argv)` in this process, one call at a time (a closed loop with
one caller), and checks every group and order against an oracle.  It runs the
workload's calls round-robin, at least one whole pass, until `--seconds` have
gone by; `total_s` is the sum over the calls of each call's median time.

Times are CPU seconds of this process (`time.process_time`), not wall
seconds: the program is single-threaded and waits for nothing, and on a
shared host the wall time also counts the periods when the host runs someone
else on this CPU, which made it swing by a quarter from one run to the next.
The CPU time itself changes with the host's load, so every reported time is
then rescaled by a reference loop that runs between the calls (see `Speed`).

The last line of stdout is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of traced passes, each run
next to an untraced one so that the tracing overhead can be reported.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

from spans import Tracer, layer_metrics
from workloads import BUDGET_EXHAUSTED, WORKLOADS, WrongAnswer, is_failure

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 21

# The host's CPU speed changes by up to a fifth over minutes, in CPU time too.
# A fixed reference loop runs between the measured calls, for REF_SHARE of the
# measured CPU time, and every reported time is rescaled to the speed at which
# one reference chunk takes REF_CHUNK_S: "reference seconds".
REF_SHARE = 0.05
REF_CHUNK_S = 0.01

UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def fresh_import():
    """Import a2tp and a2tp.cli from `src/` anew, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "a2tp" or n.startswith("a2tp.")]:
        del sys.modules[name]
    a2tp = importlib.import_module("a2tp")
    importlib.import_module("a2tp.cli")
    if Path(a2tp.__file__).resolve().parent != SRC / "a2tp":
        raise ImportError(f"a2tp was imported from {a2tp.__file__}, not from {SRC}")
    return a2tp


def reference_chunk() -> float:
    """A fixed pure-Python loop of integer arithmetic and dict stores; its CPU seconds."""
    start = time.process_time()
    acc, table = 0, {}
    for i in range(60000):
        acc += i * i % 7
        table[i & 255] = acc
    return time.process_time() - start


class Speed:
    """Reference chunks run in step with the measured CPU time; gives the rescaling factor."""

    def __init__(self) -> None:
        self.measured = 0.0
        self.chunks: list[float] = []

    def after(self, seconds: float) -> float:
        """Account `seconds` of measured CPU time, run the chunks now due; return `seconds`."""
        self.measured += seconds
        while not self.chunks or sum(self.chunks) < REF_SHARE * self.measured:
            self.chunks.append(reference_chunk())
        return seconds

    def factor(self) -> float:
        """Reference seconds per CPU second of this run."""
        return REF_CHUNK_S * len(self.chunks) / sum(self.chunks)


def set_up(build, seed: int, workdir: Path, speed: Speed):
    """Import and build the inputs SETUP_REPS times; return the last, and the median CPU time."""
    times = []
    for rep in range(SETUP_REPS):
        # A fresh directory each time: overwriting files is much slower and
        # noisier than creating them on a filesystem that discards freed blocks.
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir()
        start = time.process_time()
        a2tp = fresh_import()
        ops = build(a2tp, seed, rep_dir)
        times.append(speed.after(time.process_time() - start))
    return a2tp, ops, median(times)


def run_op(a2tp, op, outcomes: list, speed: Speed) -> float:
    """One CLI call, its outcomes appended as one entry; returns its CPU seconds."""
    out = io.StringIO()
    start = time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = a2tp.cli.main(op.argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = None
    elapsed = time.process_time() - start
    outcomes.append(op.check(code, out.getvalue()))
    return speed.after(elapsed)


def run_pass(a2tp, ops, outcomes: list, speed: Speed) -> float:
    """One pass over the workload's calls; returns its CPU seconds."""
    return sum(run_op(a2tp, op, outcomes, speed) for op in ops)


def run_timed(a2tp, ops, outcomes: list, seconds: float, speed: Speed) -> list[list[float]]:
    """The calls round-robin, at least one whole pass, until `seconds` of wall time have gone by.

    Returns each call's CPU seconds, one list per call.
    """
    times: list[list[float]] = [[] for _ in ops]
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        times[i % len(ops)].append(run_op(a2tp, ops[i % len(ops)], outcomes, speed))
        i += 1
    return times


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "a2tp" / "__init__.py").is_file():
        print(f"error: no a2tp sources at {SRC / 'a2tp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    outcomes: list = []
    plain: list[float] = []
    traced: list[float] = []
    tracer = Tracer()
    speed = Speed()
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            a2tp, ops, setup_s = set_up(WORKLOADS[args.workload], args.seed, Path(tmp), speed)
            if args.trace:
                start = time.perf_counter()
                while not plain or time.perf_counter() - start < args.seconds:
                    plain.append(run_pass(a2tp, ops, outcomes, speed))
                    with tracer.installed(a2tp):
                        traced.append(run_pass(a2tp, ops, outcomes, speed))
            else:
                op_times = run_timed(a2tp, ops, outcomes, args.seconds, speed)
                plain = [sum(t) for t in zip(*op_times)]  # the passes that ran whole
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1

    # Every call gives the same outcomes each time, so the ratios are taken over
    # the first pass, which is whole: they do not depend on how far a run got.
    first_pass = [o for call in outcomes[: len(ops)] for o in call]
    outcomes = [o for call in outcomes for o in call]
    failed = [o for o in outcomes if is_failure(o)]
    for reason in sorted({o for o in first_pass if o is not None}):
        kind = "not passed, not failed" if reason == BUDGET_EXHAUSTED else "failed"
        print(f"{kind} {first_pass.count(reason)} of the {len(first_pass)} presentations: {reason}")
    not_passed_ratio = 1 - first_pass.count(None) / len(first_pass)
    if args.trace:
        spans = tracer.finish()
        metrics = layer_metrics(spans, tracer.counters, len(traced))
        metrics["trace.overhead_s"] = median(traced) - median(plain)
        metrics["fail_ratio"] = not_passed_ratio
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps([list(s) for s in spans]))
        print(f"{len(spans)} spans written to {path}")
    else:
        metrics = {
            "total_s": sum(median(t) for t in op_times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "pass_ratio": 1 - not_passed_ratio,
        }
    k = speed.factor()
    metrics = {name: v * k if unit(name) == "s" else v for name, v in metrics.items()}
    print(f"{len(outcomes)} presentations analysed; whole untraced passes took "
          + " ".join(f"{t:.3f}" for t in plain) + f" CPU s; {k:.4f} reference s per CPU s"
          + f" ({len(speed.chunks)} reference chunks)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": True,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
