"""The benchmark's tracer, `perfbench/spans.py`, wraps the program from outside.

A traced run must print what an untraced run prints and exit the same way,
and uninstalling the tracer must give back every object it replaced.  The
tracer's source is compiled here from the file and nothing is written
beside it.
"""

import types
from pathlib import Path

import a2tp
import a2tp.cli

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
GOLDEN_FILE = ROOT / "tests" / "golden" / "files" / "t0_q4_s15.a2tp"
RUNS = [
    ["analyze", "--q", "4"],
    ["analyze", "--file", str(GOLDEN_FILE), "--budget", "200"],
    ["table", "--q-min", "2", "--q-max", "3"],
]


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def program_objects() -> dict:
    """Every callable of the layers the tracer wraps, and every member of FpAbelianGroup."""
    objects = {
        (layer, name): value
        for layer in ("cli", "gf", "plane", "presentation", "coinv", "zlinalg")
        for name, value in vars(getattr(a2tp, layer)).items()
        if callable(value)
    }
    objects.update({("group", name): value for name, value in vars(a2tp.FpAbelianGroup).items()})
    return objects


def run_all(capsys) -> list:
    results = []
    for argv in RUNS:
        code = a2tp.cli.main(argv)  # looked up on each call, so the traced main runs
        results.append((code, capsys.readouterr().out))
    return results


def test_traced_runs_print_what_untraced_runs_print(capsys):
    untraced = run_all(capsys)
    before = program_objects()
    tracer = load_spans().Tracer()
    tracer.install(a2tp)
    try:
        assert program_objects() != before  # the layers are wrapped
        traced = run_all(capsys)
    finally:
        tracer.uninstall()
    assert program_objects() == before
    assert traced == untraced
    assert [code for code, _ in untraced] == [0, 0, 0]
    spans = tracer.finish()
    assert [s.name for s in spans if s.parent == -1] == ["cli.main"] * len(RUNS)
    assert any(s.name == "zlinalg.snf" for s in spans)
