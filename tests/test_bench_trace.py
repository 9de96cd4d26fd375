"""The benchmark's traced run still finds every boundary it reads.

The traced benchmark wraps public names of fistab from outside (see
bench/spans.py) and reads the caches of ``evaluate_degree``,
``mn_character`` and ``standard_tableaux``.  A refactor that renames one
of them, or routes a call around it, would fail the traced run or zero
a layer; this runs one traced ``verify``, one traced ``decompose`` of
the triangle, and the two commands of the ``table`` workload, the way
the benchmark does.  The nonzeros the benchmark counts on the
transported matrices, those of the reduced presentation of each size,
are checked against the reference transport.
"""

import json
import os
import subprocess
import sys

import pytest

from fistab.combinatorics import partitions
from fistab.presentation import _reduced_presentation

from conftest import dense_rows, reference_transport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def run_traced(path, *argv) -> tuple[dict, dict]:
    """Run one fistab command with ``--json`` through the benchmark's
    traced child; return its output and its recorded trace."""
    result = subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "invoke.py"),
            "--trace", str(path), *argv, "--json",
        ],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert result.returncode == 0, result.stderr
    with open(path, encoding="utf-8") as handle:
        return json.loads(result.stdout), json.load(handle)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "spans.json"
    output, trace = run_traced(
        path, "verify", os.path.join(ROOT, "demos", "e.fipres"), "--n", "7"
    )
    assert output["passed"]
    return trace


TRIANGLE_N = 8


@pytest.fixture(scope="module")
def decompose_trace(tmp_path_factory):
    """One traced decompose of the triangle of the oracle workloads."""
    folder = tmp_path_factory.mktemp("decompose")
    path = folder / "triangle.fipres"
    text = workloads.inputs(workloads.DEFAULT_SEED)["triangle"]
    path.write_text(text, encoding="utf-8")
    return run_traced(
        folder / "spans.json", "decompose", path, "--n", str(TRIANGLE_N)
    )[1]


@pytest.fixture(scope="module")
def table_traces(tmp_path_factory):
    """One traced multiplicities and one traced dimension on E: the
    commands of the table workload, which only the pair of them covers."""
    folder = tmp_path_factory.mktemp("table")
    demo = os.path.join(ROOT, "demos", "e.fipres")
    return [
        run_traced(folder / f"{command}.json", command, demo)[1]
        for command in ("multiplicities", "dimension")
    ]


def test_every_required_rational_span_is_recorded(trace):
    recorded = {span[0] for span in trace["spans"]}
    missing = set(workloads.REQUIRED_SPANS["rational"]) - recorded
    assert not missing


@pytest.mark.parametrize("workload", ["oracle", "high_degree"])
def test_every_required_decompose_span_is_recorded(decompose_trace, workload):
    recorded = {span[0] for span in decompose_trace["spans"]}
    missing = set(workloads.REQUIRED_SPANS[workload]) - recorded
    assert not missing


def test_decompose_takes_one_trace_per_cycle_count_vector(decompose_trace):
    # the triangle's largest generator degree is 2: its 22 classes at
    # n = 8 have 17 distinct numbers of 1-cycles and 2-cycles
    names = [span[0] for span in decompose_trace["spans"]]
    assert names.count("oracle.trace") == 17


def test_every_cache_reader_returns_an_int(trace):
    assert trace["caches"]
    for key, value in trace["caches"].items():
        assert type(value) is int, key


def test_verify_builds_the_table_once(trace):
    names = [span[0] for span in trace["spans"]]
    assert names.count("multiplicity.table") == 1
    assert names.count("multiplicity.polynomial") == 1


def test_every_required_table_span_is_recorded(table_traces):
    recorded = {span[0] for trace in table_traces for span in trace["spans"]}
    missing = set(workloads.REQUIRED_SPANS["table"]) - recorded
    assert not missing


def test_transport_spans_count_cells_and_nonzeros(table_traces):
    transports = [
        span for trace in table_traces for span in trace["spans"]
        if span[0] == "presentation.transport"
    ]
    assert transports
    for span in transports:
        counts = span[4]
        assert type(counts["cells"]) is int and type(counts["nnz"]) is int
        assert 0 <= counts["nnz"] <= counts["cells"]


def test_transport_nonzeros_match_the_reference(table_traces, e_presentation):
    # the benchmark counts a row's stored entries that are not 0, which is
    # its nonzeros only while a matrix stores no zero entry; the table
    # transports the reduced presentation of each size, not E itself
    counted = sum(
        span[4]["nnz"] for span in table_traces[0]["spans"]
        if span[0] == "presentation.transport"
    )
    expected = 0
    for size in range(e_presentation.max_generator_degree + 1):
        core = _reduced_presentation(e_presentation, size)
        expected += sum(
            v != 0
            for lam in partitions(size)
            for row in dense_rows(reference_transport(lam, core))
            for v in row
        )
    assert counted == expected
