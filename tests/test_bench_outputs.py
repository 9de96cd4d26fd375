"""The oracle commands the benchmark times still print its expected bytes.

The benchmark compares the ``--json`` output of every timed command with
a file under ``bench/expected/``.  This runs the oracle's commands the
same way, on the inputs ``bench/workloads.py`` writes, so a change to
their output fails here as well as in a benchmark run.  Nothing under
``bench/`` is written.
"""

import os
import sys

import pytest

from fistab.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

# decompose on the triangle at n = 14, 15, 16; decompose on E at n = 10
# and evaluate on E at n = 9
COMMANDS = workloads.WORKLOADS["high_degree"] + workloads.WORKLOADS["oracle"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {}
    for name, text in workloads.inputs(0).items():
        path = root / f"{name}.fipres"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.label)
def test_output_matches_expected_bytes(command, files, capsysbinary, monkeypatch):
    monkeypatch.delenv("FISTAB_ORACLE_CAP", raising=False)
    assert main(command.argv(files)) == 0
    with open(os.path.join(BENCH, "expected", f"{command.label}.json"), "rb") as handle:
        expected = handle.read()
    assert capsysbinary.readouterr().out == expected
