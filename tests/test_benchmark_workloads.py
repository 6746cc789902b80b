"""Every benchmark workload, `perfbench/workloads.py`, runs clean against the program.

Each workload's operations are built at one seed and run once through
`a2tp.cli.main`, and every outcome its oracle reports must be a pass.  A
change that drops a name or an option the benchmark uses fails here.  The
workloads' source is compiled here from the file and nothing is written
beside it.
"""

import types
from pathlib import Path

import pytest

import a2tp
import a2tp.cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEED = 1701


def load_workloads() -> types.ModuleType:
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_operation_of_the_workload_passes(tmp_path, capsys, name):
    ops = workloads.WORKLOADS[name](a2tp, SEED, tmp_path)
    assert ops
    for op in ops:
        code = a2tp.cli.main(op.argv)
        outcomes = op.check(code, capsys.readouterr().out)
        assert outcomes and outcomes == [None] * len(outcomes), (op.argv, outcomes)
