"""Tests for the benchmark's span arithmetic, output checks and inputs.

    python3 -m pytest bench -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, parent, start, end, counts=None):
    return [name, parent, start, end, counts]


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    trace = [
        span("cli.main", None, 0.0, 10.0),
        span("multiplicity.table", 0, 1.0, 9.0),
        span("presentation.transport", 1, 2.0, 5.0),
        span("ratmat.rank", 1, 5.0, 6.0),
        span("ratmat.rank", 2, 3.0, 4.0),
    ]
    assert spans.self_times(trace) == pytest.approx([2.0, 4.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    trace = [
        span("a", None, 0.0, 10.0),
        span("b", 0, 1.0, 4.0),
        span("c", 0, 3.0, 6.0),
        span("d", 0, 9.0, 12.0),
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_of_leaf_is_its_duration():
    assert spans.self_times([span("a", None, 2.5, 4.0)]) == [1.5]


def test_count_span_is_charged_to_no_layer():
    trace = {
        "spans": [
            span("multiplicity.table", None, 0.0, 10.0),
            span("presentation.transport", 0, 1.0, 4.0, {"cells": 8, "nnz": 2}),
            span(spans.COUNT_SPAN, 0, 4.0, 7.0),
        ],
        "caches": {"evaluate_hits": 0, "character_evals": 0, "tableaux_shapes": 3},
    }
    metrics = spans.layer_metrics([trace])
    assert metrics["multiplicity.table_s"] == pytest.approx(4.0)
    assert metrics["presentation.transport_s"] == pytest.approx(3.0)
    assert metrics["presentation.density"] == pytest.approx(0.25)
    assert metrics["combinatorics.tableaux_shapes"] == 3


def test_layer_metrics_sum_over_commands_and_form_ratios():
    def evaluate(counts):
        return {
            "spans": [
                span("cli.main", None, 0.0, 2.0),
                span("oracle.evaluate", 0, 0.5, 1.5, counts),
            ],
            "caches": {"evaluate_hits": 1, "character_evals": 5,
                       "tableaux_shapes": 0},
        }

    fresh = {"ambient_rows": 720, "relation_rows": 5040, "rank": 595}
    metrics = spans.layer_metrics([evaluate(fresh), evaluate(None)])
    assert metrics["oracle.evaluate_calls"] == 2
    assert metrics["oracle.evaluate_s"] == pytest.approx(2.0)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["oracle.relation_rows"] == 5040
    assert metrics["oracle.independent_ratio"] == pytest.approx(595 / 5040)
    assert metrics["oracle.evaluate_hits"] == 2
    assert metrics["specht.character_evals"] == 10
    assert metrics["presentation.density"] == 0
    assert set(metrics) == set(spans.LAYER_UNITS)


def test_tracer_records_nesting_and_counting_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x * 2, "inner", lambda args, r: {"value": r})
    outer = tracer.wrap(lambda x: inner(x) + 1, "outer")
    assert outer(5) == 11
    names = [(s[0], s[1]) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), (spans.COUNT_SPAN, 0)]
    assert tracer.spans[1][4] == {"value": 10}
    # ticks: outer 0-5, inner 1-2, counting 3-4
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_tracer_closes_span_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0][3] is not None
    assert tracer.wrap(lambda: 1, "after")() == 1
    assert tracer.spans[1][1] is None


def test_span_counts():
    traces = [{"spans": [span("a", None, 0, 1), span("b", 0, 0, 1)]},
              {"spans": [span("a", None, 0, 1)]}]
    assert spans.span_counts(traces) == {"a": 2, "b": 1}


# -- rel_time ------------------------------------------------------------------

def test_rel_time_divides_by_loops_of_the_pass_and_its_neighbours():
    from types import SimpleNamespace

    result = run.Run.__new__(run.Run)
    result.commands = ["a", "b"]
    # one loop before the first pass, then one after each command
    result.calibration_s = [1.0, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0]
    result.passes = [
        SimpleNamespace(wall_s=10.0, first_calibration=i) for i in (0, 2, 4)
    ]
    # windows: loops 0-4, 0-6 and 2-6; harmonic means 1.25, 14/9 and 2
    assert result.rel_times() == pytest.approx([8.0, 90 / 14, 5.0])


# -- output checks -----------------------------------------------------------

def test_bytes_check_passes_only_on_exact_output():
    assert checks.judge("bytes", 0, b"{}\n", b"{}\n") == checks.OK
    mismatch = checks.judge("bytes", 0, b"{} \n", b"{}\n")
    assert mismatch.failed and mismatch.wrong


def test_nonzero_exit_and_timeout_fail_without_being_wrong():
    for verdict in (
        checks.judge("bytes", 2, b"", b"{}\n"),
        checks.judge("bytes", None, b"", b"{}\n"),
        checks.judge("verify", None, b"", None),
    ):
        assert verdict.failed and not verdict.wrong


def test_verify_judged_by_exit_code_and_passed():
    passed = b'{"n": 8, "pre_stable": false, "passed": true}'
    failed = b'{"n": 3, "pre_stable": false, "passed": false}'
    assert checks.judge("verify", 0, passed, None) == checks.OK
    verdict = checks.judge("verify", 1, failed, None)
    assert verdict.failed and not verdict.wrong
    assert "FAIL" in verdict.reason
    assert checks.judge("verify", 0, failed, None).wrong
    assert checks.judge("verify", 1, passed, None).wrong
    assert checks.judge("verify", 1, b"Traceback", None).wrong


def test_pre_stable_verify_counts_as_failed():
    report = b'{"n": 2, "pre_stable": true, "passed": false}'
    verdict = checks.judge("verify", 0, report, None)
    assert verdict.failed and not verdict.wrong


def test_verify_report_needs_passed_and_pre_stable():
    report = b'{"n": 8, "pre_stable": false, "passed": true}'
    assert checks.verify_report(report)["passed"] is True
    assert checks.verify_report(b'{"n": 8}') is None
    assert checks.verify_report(b"Traceback") is None


def test_repeat_check():
    assert checks.judge_repeat(b"a", b"a") == checks.OK
    assert checks.judge_repeat(b"a", b"b").wrong


def test_tally_counts_a_reported_fail_once_per_invocation():
    tally = checks.Tally()
    report = b'{"n": 3, "pre_stable": false, "passed": false}'
    for _ in range(2):
        tally.add("verify-free3", "verify", 1, report, None)
        tally.add("dimension-e", "bytes", 0, b"{}\n", b"{}\n")
    assert (tally.attempted, tally.failed, tally.correct) == (4, 2, True)
    assert tally.reasons == {"verify-free3: verify FAIL at n=3": 2}


def test_tally_flags_output_that_changes_between_passes():
    tally = checks.Tally()
    tally.add("verify-r", "verify", 0, b'{"n": 8, "pre_stable": false, '
              b'"passed": true}', None)
    tally.add("verify-r", "verify", 0, b'{"n": 8, "pre_stable": false, '
              b'"passed": true, "extra": 1}', None)
    tally.add("verify-r", "verify", None, b"", None)
    assert (tally.attempted, tally.failed, tally.correct) == (3, 2, False)


# -- inputs ------------------------------------------------------------------

def test_every_byte_checked_command_has_an_expected_output():
    for commands in workloads.WORKLOADS.values():
        for command in commands:
            if command.check == "bytes":
                path = os.path.join(HERE, "expected", f"{command.label}.json")
                assert os.path.isfile(path), path


def test_known_defects_are_verify_commands_outside_the_timed_passes():
    for workload, commands in workloads.KNOWN_DEFECTS.items():
        assert workload in workloads.WORKLOADS
        for command in commands:
            assert command.check == "verify"
            assert command not in workloads.WORKLOADS[workload]


def test_workload_inputs_are_fixed_except_the_seeded_presentation():
    a, b = workloads.inputs(1), workloads.inputs(2)
    assert a == workloads.inputs(1)
    assert {k for k in a if a[k] != b[k]} == {"rational2"}


def test_e_is_the_demo_presentation():
    from fistab.cli import parse_presentation

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "demos", "e.fipres"), encoding="utf-8") as f:
        demo = parse_presentation(f.read())
    assert parse_presentation(workloads.inputs(0)["e"]) == demo


@pytest.mark.parametrize("seed", range(8))
def test_seeded_presentations_share_one_nonzero_table(seed):
    from fistab.cli import parse_presentation
    from fistab.multiplicity import eventual_multiplicities
    from fistab.presentation import augmentation_matrix

    z = parse_presentation(workloads.rational2(seed))
    base = parse_presentation(workloads.rational2(0))
    assert z.generator_degrees == (2, 3) and z.relation_degrees == (3, 4)
    assert augmentation_matrix(z).corank() >= 1
    assert eventual_multiplicities(z) == eventual_multiplicities(base)
