"""Every pinned output, printed again and compared byte for byte.

A pin in ``tests/data`` is named for what prints it:

- ``NAME-COMMAND[-N].json`` holds the output of ``fistab COMMAND
  tests/data/NAME.fipres [--n N] --json``, and ``NAME-COMMAND[-N].txt``
  the same without ``--json``; both exit 0 and print nothing on stderr.
  They run with ``FISTAB_ORACLE_CAP=50000``.
- ``NAME-COMMAND[-N].err`` holds the stderr of a refusal: the command
  exits 2 and prints nothing on stdout.  It runs with the cap unset, so
  the message names the budget a user meets.
- ``demo-NAME.txt`` holds the stdout of ``python demos/NAME.py``, run with
  the cap unset; it exits 0 and prints nothing on stderr.  No demo prints
  a hash-ordered collection.

``bench/expected/LABEL.json`` holds the output of each byte-checked
command of ``bench/workloads.py``, run at the cap of 50000 on the inputs
that module writes for its default seed; they are written to a temporary
directory, and nothing under ``bench/`` is written.  A pin is added by
adding its file; a change that alters a pin names it in ``CHANGES.md``.
"""

import os
import re
import subprocess
import sys

import pytest

from fistab.cli import COMMANDS, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
DEMOS = os.path.join(ROOT, "demos")
EXPECTED = os.path.join(ROOT, "bench", "expected")
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

DEMO = re.compile(r"demo-(\w+)\.txt")
PIN = re.compile(rf"(.+)-({'|'.join(COMMANDS)})(?:-(\d+))?\.(json|txt|err)")
FILES = sorted(os.listdir(DATA))
DEMO_PINS = [name for name in FILES if DEMO.fullmatch(name)]
PINS = [name for name in FILES if PIN.fullmatch(name) and name not in DEMO_PINS]
PRESENTATIONS = [name[:-len(".fipres")] for name in FILES if name.endswith(".fipres")]
DEMO_NAMES = [name[:-len(".py")] for name in os.listdir(DEMOS) if name.endswith(".py")]
INPUTS = workloads.inputs(workloads.DEFAULT_SEED)

# pins that must exist: each presentation's table and each demo's
# output; test_multiplicity.py requires each dimension pin, and
# test_oracle.py the relation-free-beside oracle pins
REQUIRED = [
    *(f"{name}-multiplicities.json" for name in PRESENTATIONS),
    *(f"demo-{name}.txt" for name in DEMO_NAMES),
]


def case(pin: str, argv: list[str]):
    return pytest.param(pin, argv, id=os.path.basename(pin).removesuffix(".json"))


def data_case(pin: str):
    name, command, n, kind = PIN.fullmatch(pin).groups()
    options = (["--n", n] if n else []) + (["--json"] if kind == "json" else [])
    argv = [command, os.path.join(DATA, f"{name}.fipres"), *options]
    return case(os.path.join(DATA, pin), argv)


def demo_case(pin: str):
    demo = os.path.join(DEMOS, f"{DEMO.fullmatch(pin)[1]}.py")
    return case(os.path.join(DATA, pin), [sys.executable, demo])


def bench_case(command: workloads.Command):
    # each case runs in the directory the inputs fixture writes
    pin = os.path.join(EXPECTED, f"{command.label}.json")
    return case(pin, command.argv({name: f"{name}.fipres" for name in INPUTS}))


CASES = [
    *(demo_case(pin) for pin in DEMO_PINS),
    *(data_case(pin) for pin in PINS),
    *(bench_case(command) for commands in workloads.WORKLOADS.values()
      for command in commands if command.check == "bytes"),
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
    refusal, demo = pin.endswith(".err"), argv[0] == sys.executable
    if refusal or demo:
        monkeypatch.delenv("FISTAB_ORACLE_CAP", raising=False)
    else:
        # the cap admits cyclic-10, whose matrices of z are sized
        monkeypatch.setenv("FISTAB_ORACLE_CAP", "50000")
    if demo:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        run = subprocess.run(argv, capture_output=True, env=env, timeout=300)
        printed = (run.returncode, run.stdout, run.stderr)
    else:
        printed = (main(argv), *capsysbinary.readouterr())
    with open(pin, "rb") as handle:
        pinned = handle.read()
    assert printed == ((2, b"", pinned) if refusal else (0, pinned, b""))


def test_every_pin_has_its_presentation_and_every_presentation_its_pins():
    parsed = {*PINS, *DEMO_PINS, *(f"{name}.fipres" for name in PRESENTATIONS)}
    assert [name for name in FILES if name not in parsed] == []
    assert {PIN.fullmatch(pin)[1] for pin in PINS} - set(PRESENTATIONS) == set()
    assert set(REQUIRED) - set(FILES) == set()
