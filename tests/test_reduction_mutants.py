"""Fault injection into the elimination of unit pivots.

Each mutant edits lines of the source of
``presentation._reduced_presentation``, and the edited function is put in
place with ``monkeypatch``, where ``multiplicity`` looks it up too.  A
mutant must make ``verify`` fail or raise on some presentation of the
fault-injection corpus, or fail the one-pivot check of
``test_reduction.py``.  Coranks are blind to some wrong multipliers, so
``verify`` alone does not catch every mutant here.
"""

import inspect
import textwrap

import pytest

import fistab.multiplicity as multiplicity
import fistab.presentation as presentation

from test_oracle_mutants import CORPUS, verify_fails
from test_reduction import one_pivot_cases, one_step_failures

# name: [(line as written, line as mutated), ...]
MUTANTS = {
    "no sigma inverse": [("back = inverse(sigma)", "back = sigma")],
    "product order swapped": [(
        "key = tuple(map(g.__getitem__, alpha))",
        "key = compose(alpha, g[1:])",
    )],
    "a two-term entry accepted as a pivot": [
        ("len(rows[r][q]) == 1", "len(rows[r][q]) <= 2"),
        ("len(row.get(q, ())) != 1", "len(row.get(q, ())) not in (1, 2)"),
        ("(sigma, c), = row[q].items()", "(sigma, c), *_ = row[q].items()"),
    ],
}


def apply(monkeypatch, name: str) -> None:
    """Put the mutant's edited function in place of the original."""
    source = textwrap.dedent(
        inspect.getsource(presentation._reduced_presentation)
    )
    for line, mutated in MUTANTS[name]:
        assert source.count(line) == 1, f"{name}: {line!r} not found once"
        source = source.replace(line, mutated)
    namespace = dict(vars(presentation))
    exec(compile(source, presentation.__file__, "exec"), namespace)
    mutant = namespace["_reduced_presentation"]
    monkeypatch.setattr(presentation, "_reduced_presentation", mutant)
    monkeypatch.setattr(multiplicity, "_reduced_presentation", mutant)


def one_step_fails() -> bool:
    try:
        return bool(one_step_failures(one_pivot_cases()))
    except (ArithmeticError, LookupError, ValueError):
        return True


def test_unmutated_passes_both_checks():
    assert not any(verify_fails(z) for z in CORPUS.values())
    assert not one_step_fails()


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(monkeypatch, name):
    apply(monkeypatch, name)
    caught = [label for label, z in CORPUS.items() if verify_fails(z)]
    assert caught or one_step_fails(), f"{name} passes both checks"
