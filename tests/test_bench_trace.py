"""The benchmark's traced run still finds every boundary it reads.

The traced benchmark wraps public names of fistab from outside (see
bench/spans.py) and reads the caches of ``evaluate_degree``,
``mn_character`` and ``standard_tableaux``.  A refactor that renames one
of them, or routes a call around it, would fail the traced run or zero
a layer; this runs one traced ``verify`` the way the benchmark does.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "spans.json"
    result = subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "invoke.py"),
            "--trace", str(path),
            "verify", os.path.join(ROOT, "demos", "e.fipres"),
            "--n", "7", "--json",
        ],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"]
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_required_rational_span_is_recorded(trace):
    recorded = {span[0] for span in trace["spans"]}
    missing = set(workloads.REQUIRED_SPANS["rational"]) - recorded
    assert not missing


def test_every_cache_reader_returns_an_int(trace):
    assert trace["caches"]
    for key, value in trace["caches"].items():
        assert type(value) is int, key


def test_verify_builds_the_table_once(trace):
    names = [span[0] for span in trace["spans"]]
    assert names.count("multiplicity.table") == 1
    assert names.count("multiplicity.polynomial") == 1
