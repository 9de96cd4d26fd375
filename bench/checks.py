"""Output checks and failure accounting for one CLI invocation.

A command has failed when it exits nonzero, times out, or prints output
that contradicts its reference.  A warning on stderr alone is not a
failure.  Only the last kind makes a run incorrect: a nonzero exit is the
program reporting a failure it detected itself (``verify`` exiting 1 on a
FAIL), and a timeout has no output to judge.

References:
- ``multiplicities``, ``dimension``, ``evaluate``, ``decompose``: every
  input they run on is fixed, so their ``--json`` bytes must equal the
  expected file kept under ``expected/``;
- ``verify``: its JSON must parse, its degree must not be pre-stable,
  ``"passed"`` must be true, and the exit code must agree with the
  report (0 on PASS or pre-stable, 1 on FAIL);
- every command: the bytes must be identical in every pass of a run,
  which is the only byte check the seeded input gets.
"""

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    failed: bool
    wrong: bool
    reason: str = ""


OK = Verdict(False, False)


def verify_report(stdout: bytes) -> dict | None:
    """The JSON report ``verify`` printed, or None if it printed none."""
    try:
        report = json.loads(stdout)
        report["passed"], report["pre_stable"]
    except (ValueError, KeyError, TypeError):
        return None
    return report


def judge(check: str, returncode, stdout: bytes, expected: bytes | None) -> Verdict:
    """Verdict for one invocation; returncode None means it timed out.

    ``expected`` holds the reference bytes of a "bytes" check and is
    ignored by a "verify" check.
    """
    if returncode is None:
        return Verdict(True, False, "timed out")
    if check == "bytes":
        if returncode != 0:
            return Verdict(True, False, f"exit code {returncode}")
        if stdout != expected:
            return Verdict(True, True, "output differs from the expected bytes")
        return OK
    report = verify_report(stdout)
    if report is None:
        return Verdict(True, True, "verify printed no readable report")
    passed, pre_stable = report["passed"], report["pre_stable"]
    if returncode != (0 if passed or pre_stable else 1):
        return Verdict(
            True, True, f"exit code {returncode} disagrees with passed={passed}"
        )
    if pre_stable:
        return Verdict(True, False, "verify degree is below the onset")
    if not passed:
        return Verdict(True, False, f"verify FAIL at n={report.get('n')}")
    return OK


def judge_repeat(first: bytes, again: bytes) -> Verdict:
    """Verdict for an output that must repeat one from an earlier pass."""
    if first != again:
        return Verdict(True, True, "output differs between passes")
    return OK


class Tally:
    """Failure accounting over every invocation of a run.

    Each invocation counts once as attempted, and once as failed if any
    check on it fails.  Its output must also repeat the first output of
    the same command in the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: dict[str, int] = {}
        self._first: dict[str, bytes] = {}

    def add(self, label, check, returncode, stdout, expected) -> None:
        verdicts = [judge(check, returncode, stdout, expected)]
        if returncode is not None:
            first = self._first.setdefault(label, stdout)
            verdicts.append(judge_repeat(first, stdout))
        failures = [v for v in verdicts if v.failed]
        self.attempted += 1
        self.failed += bool(failures)
        for verdict in failures:
            self.correct &= not verdict.wrong
            key = f"{label}: {verdict.reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1
