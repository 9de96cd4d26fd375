"""Every pinned CLI output, printed again and compared byte for byte.

``tests/data/NAME-COMMAND.json`` and ``tests/data/NAME-COMMAND-N.json``
hold the output of ``fistab COMMAND tests/data/NAME.fipres [--n N]
--json``.  ``bench/expected/LABEL.json`` holds the output of each
byte-checked command of ``bench/workloads.py``, run on the inputs that
module writes for its default seed; they are written to a temporary
directory, and nothing under ``bench/`` is written.  A pin is added by
adding its file; a change that alters a pin names it in ``CHANGES.md``.
"""

import os
import re
import sys

import pytest

from fistab.cli import COMMANDS, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
EXPECTED = os.path.join(ROOT, "bench", "expected")
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

PIN = re.compile(rf"(.+)-({'|'.join(COMMANDS)})(?:-(\d+))?\.json")
FILES = sorted(os.listdir(DATA))
PINS = [name for name in FILES if name.endswith(".json")]
PRESENTATIONS = [name[:-len(".fipres")] for name in FILES if name.endswith(".fipres")]
INPUTS = workloads.inputs(workloads.DEFAULT_SEED)


def data_case(pin: str):
    name, command, n = PIN.fullmatch(pin).groups()
    options = ["--n", n] if n else []
    argv = [command, os.path.join(DATA, f"{name}.fipres"), *options, "--json"]
    return pytest.param(os.path.join(DATA, pin), argv, id=pin[:-len(".json")])


def bench_case(command: workloads.Command):
    # each case runs in the directory the inputs fixture writes
    argv = command.argv({name: f"{name}.fipres" for name in INPUTS})
    return pytest.param(
        os.path.join(EXPECTED, f"{command.label}.json"), argv, id=command.label
    )


CASES = [data_case(pin) for pin in PINS if PIN.fullmatch(pin)] + [
    bench_case(command)
    for commands in workloads.WORKLOADS.values()
    for command in commands if command.check == "bytes"
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, text in INPUTS.items():
        (root / f"{name}.fipres").write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize("pin, argv", CASES)
def test_output_matches_the_pin(pin, argv, inputs, capsysbinary, monkeypatch):
    monkeypatch.chdir(inputs)
    # the cap admits cyclic-10, whose matrices of z are sized
    monkeypatch.setenv("FISTAB_ORACLE_CAP", "50000")
    assert main(argv) == 0
    with open(pin, "rb") as handle:
        assert capsysbinary.readouterr().out == handle.read()


def test_every_pin_has_its_presentation_and_every_presentation_its_pins():
    assert [pin for pin in PINS if not PIN.fullmatch(pin)] == []
    assert {PIN.fullmatch(pin)[1] for pin in PINS} - set(PRESENTATIONS) == set()
    # test_multiplicity.py requires each dimension pin, test_oracle.py
    # the relation-free-beside oracle pins
    required = {f"{name}-multiplicities.json" for name in PRESENTATIONS}
    assert required - set(PINS) == set()
