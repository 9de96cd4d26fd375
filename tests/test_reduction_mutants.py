"""Fault injection into the closed form's lift and its elimination of
unit pivots.

Each mutant edits lines of the source of
``presentation._reduced_presentation`` or ``presentation._lift``, and the
edited function is put in place with ``monkeypatch``, where
``multiplicity`` looks it up too.  A mutant must make ``verify`` fail or
raise on some presentation of the fault-injection corpus, or fail the
one-pivot check of ``test_reduction.py``.  Coranks are blind to some
wrong multipliers and to some wrong placements, so ``verify`` alone does
not catch every mutant here.  Two mutants must also give a core whose
corank differs from z's on cyclic-5 with shift coefficients (1, 2), so
that catching them does not rest on the one-pivot check alone.
"""

import inspect
import textwrap

import pytest

import fistab.multiplicity as multiplicity
import fistab.presentation as presentation

from test_oracle_mutants import CORPUS, verify_fails
from test_reduction import (
    NAMED,
    corank_mismatches,
    one_pivot_cases,
    one_step_failures,
)

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
    "updated generator not scaled by c": [(
        "q2: entry if c == 1 else {t: c * v for t, v in entry.items()}",
        "q2: entry",
    )],
    "denominators dropped, not cleared": [(
        "entry[sigma] = c.numerator * (scale // c.denominator)",
        "entry[sigma] = c.numerator",
    )],
}

# mutants of _lift, as name: (edits as above, whether verify sees it)
LIFT_MUTANTS = {
    "placement permutation inverted": ([(
        "sigma = sorting_permutation(fp)",
        "sigma = inverse(sorting_permutation(fp))",
    )], False),
    "every coefficient replaced by 1": ([(
        "entry[sigma] = entry.get(sigma, 0) + coeff",
        "entry[sigma] = entry.get(sigma, 0) + 1",
    )], True),
    "cancelled sums kept": ([(
        "entry = {sigma: c for sigma, c in entry.items() if c}",
        "entry = dict(entry)",
    )], True),
    "generator offset lost": ([(
        "enumerate(sources[s.source], gen_starts[i])",
        "enumerate(sources[s.source], gen_starts[0])",
    )], True),
}

# mutants whose core has a wrong corank on cyclic-5 (1, 2)
CORANK_CAUGHT = ("no sigma inverse", "generator offset lost")


def apply(monkeypatch, name: str) -> None:
    """Put the mutant's edited function in place of the original."""
    if name in LIFT_MUTANTS:
        function, edits = "_lift", LIFT_MUTANTS[name][0]
    else:
        function, edits = "_reduced_presentation", MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(getattr(presentation, function)))
    for line, mutated in edits:
        assert source.count(line) == 1, f"{name}: {line!r} not found once"
        source = source.replace(line, mutated)
    namespace = dict(vars(presentation))
    exec(compile(source, presentation.__file__, "exec"), namespace)
    mutant = namespace[function]
    monkeypatch.setattr(presentation, function, mutant)
    if function == "_reduced_presentation":
        monkeypatch.setattr(multiplicity, function, mutant)


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


@pytest.mark.parametrize("name", list(LIFT_MUTANTS))
def test_lift_mutant_is_caught(monkeypatch, name):
    apply(monkeypatch, name)
    caught = [label for label, z in CORPUS.items() if verify_fails(z)]
    if LIFT_MUTANTS[name][1]:
        assert caught, f"{name} passes verify on the whole corpus"
    else:
        # every corank of the corpus is unchanged
        assert caught == []
        assert one_step_fails(), f"{name} passes both checks"


@pytest.mark.parametrize("name", CORANK_CAUGHT)
def test_mutant_changes_a_core_corank(monkeypatch, name):
    apply(monkeypatch, name)
    assert corank_mismatches(NAMED["cyclic-5 (1, 2)"]), (
        f"{name} keeps every corank of cyclic-5 (1, 2)"
    )
