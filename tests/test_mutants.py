"""Fault injection into both routes and the code they share.

Each mutant edits lines of the source of one function or method.
``apply`` runs the edited source and puts the result in place of the
original: on its class for a method, and otherwise in every ``fistab``
module still bound to the original, so a mutant of shared code reaches
both the closed form and the oracle.  Test modules keep the original,
so the references they compute stay unmutated.

The corpus and the core corank check's input are built as
``PresentationMatrix`` values, not parsed, so a fault of the parser
cannot rewrite them; ``test_corpus_is_the_parsed_text`` ties each one
that has a text form to that text.  Four checks look for a mutant
(``CHECKS``):

- ``verify`` fails or raises on some presentation of the corpus;
- ``feed``: the rows the oracle feeds its echelon at degrees up to 6
  differ from the primitive rows of the all-injection reference of
  ``test_oracle.py``;
- ``one pivot``: the Schur complement check of ``test_reduction.py``;
- ``core corank``: a core of cyclic-5 with shift coefficients (1, 2) has
  a corank that differs from z's.

Each mutant declares the exact set of checks that catch it, and each one
that ``verify`` misses says why.  ``test_catch_set`` runs each check on
each mutant, so a failure names both.  A mutant that no check catches
names the tier-1 tests that do (``SEEN_BY``), and
``test_uncaught_mutant_fails_its_named_tests`` runs them on it.
"""

import inspect
import sys
import textwrap
from fractions import Fraction

import pytest

from fistab.cli import parse_presentation
from fistab.oracle import ResourceCapError, verify
from fistab.presentation import FormalSum, PresentationMatrix
import fistab.combinatorics as combinatorics
import fistab.multiplicity as multiplicity
import fistab.oracle as oracle
import fistab.presentation as presentation
import fistab.ratmat as ratmat

from conftest import E_FILE, free_module
from test_oracle import all_injection_feed, fed_rows, primitive, workloads
from test_reduction import corank_mismatches, one_pivot_cases, one_step_failures
import test_cli
import test_presentation
import test_ratmat
import test_reduction


def symmetriser_beside(sigma) -> PresentationMatrix:
    """Two generators and three relations, all of degree 3.

    Generator 0 has y = (1, 2, 3) + (2, 1, 3) at relation 0 and the unit
    sigma at relation 2, the first pivot; generator 1 has y at relation 1
    and (1, 3, 2) at relation 2.  The core is generator 1, with y and
    -y o sigma^-1 o (1, 3, 2).  y has rank 1 on S^(2,1), so whether the
    image of that product on S^(2,1) is y's decides the (2, 1) multiplicity.
    """
    y = FormalSum(3, 3, {(1, 2, 3): 1, (2, 1, 3): 1})
    return PresentationMatrix((3, 3), (3, 3, 3), {
        (0, 0): y, (0, 2): FormalSum(3, 3, {sigma: 1}),
        (1, 1): y, (1, 2): FormalSum(3, 3, {(1, 3, 2): 1}),
    })


def cyclic_matrix(x: int, coefficients=(1,)) -> PresentationMatrix:
    """The presentation of ``workloads.cyclic(x, coefficients)``, built
    without the parser: one generator of degree x, one relation of degree
    x + 1 and one entry summing the x + 1 cyclic shifts of [1 .. x], shift
    k weighted by coefficients[k % len(coefficients)]."""
    shifts = {
        tuple((k + i) % (x + 1) + 1 for i in range(x)):
            coefficients[k % len(coefficients)]
        for k in range(x + 1)
    }
    return PresentationMatrix((x,), (x + 1,), {(0, 0): FormalSum(x, x + 1, shifts)})


# The benchmark's rational2(0) (bench/workloads.py), built without the
# parser.
RATIONAL2 = PresentationMatrix((2, 3), (3, 4), {
    (0, 0): FormalSum(2, 3, {(2, 3): Fraction(9, 4), (1, 2): Fraction(-9, 4)}),
    (0, 1): FormalSum(2, 4, {(4, 2): Fraction(3, 8), (3, 2): Fraction(-3, 8)}),
    (1, 0): FormalSum(3, 3, {(2, 1, 3): Fraction(3, 2), (3, 2, 1): Fraction(3, 4)}),
    (1, 1): FormalSum(3, 4, {(3, 1, 4): Fraction(-9, 8), (3, 2, 1): Fraction(3, 2)}),
})

# Every presentation is built as a value, not parsed, so that a fault of
# the parser cannot rewrite the corpus and with it the catch sets.
CORPUS = {
    "E": cyclic_matrix(3),
    "triangle": cyclic_matrix(2),
    "rational2": RATIONAL2,
    "M(3)": free_module(3),
    # two generators of degree 1 tied by one relation of degree 2
    "two generators": PresentationMatrix((1, 1), (2,), {
        (0, 0): FormalSum(1, 2, {(1,): 1, (2,): 1}),
        (1, 0): FormalSum(1, 2, {(2,): -1}),
    }),
    # unequal coefficients on the shifts, so a lift that replaces every
    # coefficient by 1 changes a corank
    "cyclic-2 (1, 2)": cyclic_matrix(2, (1, 2)),
    # the shifts' coefficients sum to 0, so a size-0 lift that keeps the
    # zero sum pivots on it and loses the empty shape's multiplicity
    "cyclic-3 (1, -1)": cyclic_matrix(3, (1, -1)),
    # rational shift coefficients, so a core that drops the denominators,
    # or does not scale an updated generator by the pivot's coefficient,
    # has a wrong corank
    "cyclic-2 (1/2, 1)": cyclic_matrix(2, (Fraction(1, 2), 1)),
    "cyclic-3 (1, -3/2)": cyclic_matrix(3, (1, Fraction(-3, 2))),
    # the product taken in the other order, or with every placement
    # inverted, changes the (2, 1) multiplicity of the first; without
    # sigma^-1, or with every placement inverted, that of the second
    "symmetriser, pivot (1, 2, 3)": symmetriser_beside((1, 2, 3)),
    "symmetriser, pivot (2, 3, 1)": symmetriser_beside((2, 3, 1)),
}

CYCLIC_5_1_2 = cyclic_matrix(5, (1, 2))

# Each presentation above that the benchmark, the demos or the other
# tests read from text, with that text.
PARSED = {
    **{name: (CORPUS[name], text) for name, text in [
        ("E", E_FILE),
        ("triangle", workloads.inputs(0)["triangle"]),
        ("rational2", workloads.rational2(0)),
        ("cyclic-2 (1, 2)", workloads.cyclic(2, (1, 2))),
        ("cyclic-3 (1, -1)", workloads.cyclic(3, (1, -1))),
        ("cyclic-2 (1/2, 1)", workloads.cyclic(2, (Fraction(1, 2), 1))),
        ("cyclic-3 (1, -3/2)", workloads.cyclic(3, (1, Fraction(-3, 2)))),
    ]},
    "core corank: cyclic-5 (1, 2)": (CYCLIC_5_1_2, workloads.cyclic(5, (1, 2))),
}

SPAN_KEPT = "keeps the span of the relation rows, and with it every output"

# name: (module, function or Class.method, [(line as written, line as
# mutated), ...], the checks that catch it, why verify does not)
MUTANTS = {
    "drop one pattern": (oracle, "_patterns", [(
        "for items, pi in first.items()", "for items, pi in list(first.items())[1:]",
    )], {"verify", "feed"}, ""),
    "relabel with a reversed": (oracle, "_evaluate", [(
        "positions[lift(a)]", "positions[lift(a[::-1])]",
    )], {"feed"}, SPAN_KEPT),
    "skip the sign normalisation": (oracle, "_patterns", [(
        "c = -c", "c = c",
    )], {"feed"}, SPAN_KEPT),
    "the tail predecessor is never consulted": (oracle, "_evaluate", [(
        "entry[1] |= mask", "entry[1] |= mask * (k < len(a) - 1)",
    )], {"feed"}, "every row it no longer skips is dependent and is fed "
        "as well, which keeps the span of the relation rows and with it "
        "every output"),
    "skip when a smaller key had any dependent pattern": (oracle, "_evaluate", [(
        "or skip == full:", "or skip:",
    )], {"verify", "feed"}, ""),
    "lose a generator's offset": (oracle, "_evaluate", [(
        "total + a", "a",
    )], {"verify", "feed"}, ""),
    "the plan skips the last generator": (oracle, "_evaluate", [(
        "for positions in index", "for positions in index[:-1]",
    )], {"verify"}, ""),
    "no sigma inverse": (presentation, "_reduced_presentation", [(
        "back = inverse(sigma)", "back = sigma",
    )], {"verify", "one pivot", "core corank"}, ""),
    "product order swapped": (presentation, "_reduced_presentation", [(
        "key = tuple(map(g.__getitem__, alpha))", "key = compose(alpha, g[1:])",
    )], {"verify", "one pivot"}, ""),
    "a two-term entry accepted as a pivot": (presentation, "_reduced_presentation", [
        ("if len(e) == 1]", "if len(e) <= 2]"),
        ("(sigma, c), = row[q].items()", "(sigma, c), *_ = row[q].items()"),
    ], {"verify", "one pivot", "core corank"}, ""),
    "term limit ignored": (presentation, "_reduced_presentation", [(
        "pivoted = terms + change <= limit", "pivoted = True",
    )], set(), "the limit bounds only the size of the core, and no corank "
        "depends on where the elimination stops"),
    "updated generator not scaled by c": (presentation, "_reduced_presentation", [(
        "q2: entry if c == 1 else {t: c * v for t, v in entry.items()}", "q2: entry",
    )], {"verify", "one pivot", "core corank"}, ""),
    "denominators dropped, not cleared": (presentation, "_reduced_presentation", [(
        "sigma: c.numerator * (scale // c.denominator)", "sigma: c.numerator",
    )], {"verify", "one pivot"}, ""),
    "placement permutation inverted": (presentation, "_lift", [(
        "sigma = sorting_permutation(fp)", "sigma = inverse(sorting_permutation(fp))",
    )], {"verify", "one pivot"}, ""),
    "every coefficient replaced by 1": (presentation, "_lift", [(
        "entry[sigma] = entry.get(sigma, 0) + coeff",
        "entry[sigma] = entry.get(sigma, 0) + 1",
    )], {"verify", "one pivot"}, ""),
    "cancelled sums kept": (presentation, "_reduced_presentation", [(
        "for sigma, c in entry.items() if c", "for sigma, c in entry.items()",
    )], {"verify"}, ""),
    "generator offset lost": (presentation, "_lift", [(
        "enumerate(sources[s.source], gen_starts[i])",
        "enumerate(sources[s.source], gen_starts[0])",
    )], {"verify", "one pivot", "core corank"}, ""),
    "first column's removed root taken one too high": (
        multiplicity, "dimension_polynomial", [(
            "removed = {k + j - c for j, c in enumerate(conj)}",
            "removed = {k + j + (j == 0) - c for j, c in enumerate(conj)}",
        )], {"verify"}, ""),
    "a pivot's weight taken as 1": (oracle, "_evaluate", [(
        "col: (row, scale // row[col])", "col: (row, 1)",
    )], {"verify"}, ""),
    # code that both routes share
    "partitions drops (1, 1, 1)": (combinatorics, "partitions", [(
        "return tuple(gen(k, k, ()))",
        "return tuple(p for p in gen(k, k, ()) if p != (1, 1, 1))",
    )], {"verify"}, ""),
    "hook length count + 1 at (2, 1)": (combinatorics, "hook_length_count", [(
        "return factors[0] if factors else 1",
        "return (factors[0] if factors else 1) + (lam == (2, 1))",
    )], {"verify", "one pivot", "core corank"}, ""),
    "echelon drops every 50th row": (ratmat, "Echelon.add_row", [(
        "if not new:", "if not new or len(pivots) % 50 == 49:",
    )], {"verify", "feed"}, ""),
    "a cleared row's new column not indexed": (ratmat, "Echelon.add_row", [(
        "holders[k].add(p)", "pass",
    )], {"verify", "feed", "core corank"}, ""),
    "integral Fractions kept": (ratmat, "_norm", [(
        "return int(v) if v.denominator == 1 else v", "return v",
    )], set(), "only the number type changes"),
    "compose reads f backwards": (combinatorics, "compose", [(
        "for v in f)", "for v in f[::-1])",
    )], {"verify", "one pivot", "core corank"}, ""),
    # the closed form lists monotone injections; the oracle walks to its own
    "last monotone injection dropped": (combinatorics, "monotone_injections", [(
        "list(combinations(range(1, n + 1), k))",
        "list(combinations(range(1, n + 1), k))[:-1]",
    )], {"verify", "one pivot", "core corank"}, ""),
    "monotone injections reversed": (combinatorics, "monotone_injections", [(
        "list(combinations(range(1, n + 1), k))",
        "list(combinations(range(1, n + 1), k))[::-1]",
    )], set(), "only the order of each basis changes, and no rank depends on it"),
    # the file format: the corpus is built without the parser, and parsing
    # it inside a check would not help, since 4 of its presentations change
    # after a serialize/parse round trip and verify passes on each
    "parser reads '-' as '+'": (presentation, "_parse_terms", [(
        'sign = -1 if match.group("sep") == "-" else 1', "sign = 1",
    )], set(), "both routes read the one parsed presentation, so no "
        "comparison of the two can see a parser fault"),
    # the corpus is built before a mutant is applied and keeps every
    # entry; what the checks see is a core of the closed form, built by
    # this constructor, that loses one.  A presentation file loses its
    # last entry before either route reads it, and that loss alone, like
    # a parser fault, no comparison of the two routes can see.
    "last entry given dropped": (presentation, "PresentationMatrix.__init__", [(
        "for (i, j), s in (entries or {}).items():",
        "for (i, j), s in list((entries or {}).items())[:-1]:",
    )], {"verify", "one pivot", "core corank"}, ""),
}

# For each mutant that no check catches, tier-1 tests that fail on it.
SEEN_BY = {
    "integral Fractions kept": [
        test_ratmat.TestConstruction().test_normalizes_integral_fractions,
        test_presentation.TestFormalSum().test_integral_coefficients_are_ints,
    ],
    "monotone injections reversed": [
        test_presentation.TestTransportOfInjections().test_single_row_shape_golden,
    ],
    "parser reads '-' as '+'": [
        test_cli.TestParser().test_leading_minus_and_merging,
    ],
    "term limit ignored": [test_reduction.test_term_limit_keeps_the_whole_lift],
}


def fistab_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "fistab"]


def clear_caches() -> None:
    """Empty every cache of the package, the mutants' own included."""
    for module in fistab_modules():
        for value in list(vars(module).values()):
            getattr(value, "cache_clear", lambda: None)()


def apply(monkeypatch, name: str) -> None:
    """Put the mutant's edited function in place of the original."""
    module, qualname, edits = MUTANTS[name][:3]
    *owner, attr = qualname.split(".")
    holder = getattr(module, owner[0]) if owner else module
    original = getattr(holder, attr)
    source = textwrap.dedent(inspect.getsource(original))
    for line, mutated in edits:
        assert source.count(line) == 1, f"{name}: {line!r} not found once"
        source = source.replace(line, mutated)
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    for place in [holder] if owner else fistab_modules():
        for key, value in list(vars(place).items()):
            if value is original:
                monkeypatch.setattr(place, key, namespace[attr])


def feed_differs() -> bool:
    with pytest.MonkeyPatch.context() as monkeypatch:
        for z in CORPUS.values():
            for n in range(7):
                # a mutant _evaluate has a cache of its own, which
                # evaluate_degree.cache_clear does not empty
                clear_caches()
                try:
                    fed = fed_rows(monkeypatch, z, n)[1]
                except ResourceCapError:
                    continue
                if fed != [primitive(row) for row in all_injection_feed(z, n)]:
                    return True
    return False


CHECKS = {
    "verify": lambda: any(not verify(z).passed for z in CORPUS.values()),
    "feed": feed_differs,
    "one pivot": lambda: bool(one_step_failures(one_pivot_cases())),
    "core corank": lambda: bool(corank_mismatches(CYCLIC_5_1_2)),
}


def fails(check) -> bool:
    clear_caches()
    try:
        return check()
    except (ArithmeticError, LookupError, ValueError):
        return True


@pytest.fixture
def fresh(monkeypatch):
    """The monkeypatch of a test, with every cache emptied after it, so
    that no result of a mutant outlives the test."""
    yield monkeypatch
    monkeypatch.undo()
    clear_caches()


@pytest.mark.parametrize("name", list(PARSED))
def test_corpus_is_the_parsed_text(name):
    value, text = PARSED[name]
    assert value == parse_presentation(text)


@pytest.mark.parametrize("check", list(CHECKS))
def test_unmutated_passes(check):
    assert not fails(CHECKS[check])


@pytest.mark.parametrize("check", list(CHECKS))
@pytest.mark.parametrize("name", list(MUTANTS))
def test_catch_set(fresh, name, check):
    """Over the four checks, the checks that fail on the mutant are
    exactly its declared catch set."""
    apply(fresh, name)
    assert fails(CHECKS[check]) == (check in MUTANTS[name][3])


def test_each_verify_miss_has_a_reason():
    for name, (*_, caught, reason) in MUTANTS.items():
        assert bool(reason) == ("verify" not in caught), name


def test_each_uncaught_mutant_names_its_tests():
    assert set(SEEN_BY) == {name for name, row in MUTANTS.items() if not row[3]}


@pytest.mark.parametrize("name", list(SEEN_BY))
def test_uncaught_mutant_fails_its_named_tests(fresh, name):
    apply(fresh, name)
    for test in SEEN_BY[name]:
        with pytest.raises(AssertionError):
            test()
