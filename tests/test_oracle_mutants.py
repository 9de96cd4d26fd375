"""Fault injection into the oracle's relation rows.

Each mutant edits one line of the source of ``oracle._patterns`` or
``oracle._evaluate``, and the edited function is put in place with
``monkeypatch``.  A mutant that changes the span of the relation rows
must make ``verify`` fail or raise on some presentation of a small fixed
corpus.  A mutant that keeps the span leaves every output unchanged,
because the echelon's basis does not depend on which spanning rows it is
fed or in what order; ``verify`` cannot see it, and it must show in the
rows fed to the echelon, which the feed test in ``test_oracle.py``
compares with a reference.
"""

import inspect
import textwrap

import pytest

from fistab.cli import parse_presentation
from fistab.oracle import ResourceCapError, evaluate_degree, verify
from fistab.presentation import FormalSum, PresentationMatrix
from fistab.ratmat import Echelon
import fistab.oracle as oracle

from conftest import E_FILE, free_module
from test_oracle import TRIANGLE, all_injection_feed, primitive, workloads

# Two generators of degree 1 tied by one relation of degree 2.
TWO_GENERATORS = PresentationMatrix((1, 1), (2,), {
    (0, 0): FormalSum(1, 2, {(1,): 1, (2,): 1}),
    (1, 0): FormalSum(1, 2, {(2,): -1}),
})

CORPUS = {
    "E": parse_presentation(E_FILE),
    "triangle": TRIANGLE,
    "rational2": parse_presentation(workloads.rational2(0)),
    "M(3)": free_module(3),
    "two generators": TWO_GENERATORS,
    # unequal coefficients on the shifts, so a lift that replaces every
    # coefficient by 1 changes a corank
    "cyclic-2 (1, 2)": parse_presentation(workloads.cyclic(2, (1, 2))),
    # the shifts' coefficients sum to 0, so a size-0 lift that keeps the
    # zero sum pivots on it and loses the empty shape's multiplicity
    "cyclic-3 (1, -1)": parse_presentation(workloads.cyclic(3, (1, -1))),
}

# name: (function, line as written, line as mutated, whether the mutant
# changes the span of the relation rows)
MUTANTS = {
    "drop one pattern": (
        "_patterns",
        "for items, pi in first.items()",
        "for items, pi in list(first.items())[1:]",
        True,
    ),
    "relabel with a reversed": (
        "_evaluate",
        "positions[lift(a)]",
        "positions[lift(a[::-1])]",
        False,
    ),
    "skip the sign normalisation": (
        "_patterns",
        "c = -c",
        "c = c",
        False,
    ),
    "lose a generator's offset": (
        "_evaluate",
        "(offsets[i], index[i], _precomposer(u))",
        "(offsets[0], index[i], _precomposer(u))",
        True,
    ),
}


def apply(monkeypatch, name: str) -> None:
    """Put the mutant's edited function in place of the original."""
    function, line, mutated, _ = MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(getattr(oracle, function)))
    assert source.count(line) == 1, f"{name}: {line!r} not found once"
    namespace = dict(vars(oracle))
    exec(compile(source.replace(line, mutated), oracle.__file__, "exec"), namespace)
    monkeypatch.setattr(oracle, function, namespace[function])


def verify_fails(z: PresentationMatrix) -> bool:
    evaluate_degree.cache_clear()
    try:
        return not verify(z).passed
    except (ArithmeticError, LookupError, ValueError):
        return True
    finally:
        evaluate_degree.cache_clear()


def feed_differs(monkeypatch, z: PresentationMatrix) -> bool:
    """Whether the rows fed to the echelon at degrees up to 6 differ from
    the primitive rows of the all-injection reference."""
    add_row = Echelon.add_row
    for n in range(7):
        calls = []
        monkeypatch.setattr(
            Echelon, "add_row",
            lambda self, row: calls.append(dict(row)) or add_row(self, row),
        )
        evaluate_degree.cache_clear()
        try:
            evaluate_degree(z, n)
        except ResourceCapError:
            continue
        except (ArithmeticError, LookupError, ValueError):
            return True
        finally:
            monkeypatch.setattr(Echelon, "add_row", add_row)
            evaluate_degree.cache_clear()
        if calls != [primitive(row) for row in all_injection_feed(z, n)]:
            return True
    return False


def test_corpus_passes_unmutated(monkeypatch):
    for z in CORPUS.values():
        assert not verify_fails(z)
        assert not feed_differs(monkeypatch, z)


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(monkeypatch, name):
    apply(monkeypatch, name)
    caught = [label for label, z in CORPUS.items() if verify_fails(z)]
    if MUTANTS[name][3]:
        assert caught, f"{name} passes verify on the whole corpus"
    else:
        # the span, and so every output, is unchanged
        assert caught == []
        assert any(feed_differs(monkeypatch, z) for z in CORPUS.values())
