"""The value classes behave as the dataclasses they replaced, and the CLI
imports no module it does not use.

Each class is compared with a test-local ``dataclasses`` reference of
the same name and fields: repr, equality, hash and, for the frozen ones,
refusal to be changed.
"""

import itertools
import os
import subprocess
import sys
from dataclasses import field, make_dataclass
from pathlib import Path

import pytest

from fistab.multiplicity import (
    DimensionPolynomial,
    MultiplicityTable,
    dimension_polynomial,
    eventual_multiplicities,
)
from fistab.oracle import (
    DegreeEvaluation,
    ShapeCheck,
    VerificationReport,
    evaluate_degree,
    verify,
)
from fistab.presentation import PresentationMatrix

ROOT = Path(__file__).resolve().parents[1]

HIDDEN = ("_z", "_offsets", "_injections", "_index", "_basis")
FIELDS = {
    MultiplicityTable: ("counts", "max_generator_degree", "max_relation_degree"),
    DimensionPolynomial: ("coeffs", "onset"),
    DegreeEvaluation: ("n", "ambient_dim", "rank") + HIDDEN,
    ShapeCheck: ("shape", "tail", "predicted", "observed"),
    VerificationReport: (
        "n", "onset", "checks", "invisible",
        "oracle_dimension", "polynomial_dimension",
    ),
}
FROZEN = [MultiplicityTable, DimensionPolynomial, ShapeCheck, VerificationReport]


def reference(cls):
    """The dataclass cls was written as, with its name and fields."""
    specs = [
        (name, object, field(repr=False)) if name in HIDDEN else (name, object)
        for name in FIELDS[cls]
    ]
    return make_dataclass(cls.__name__, specs, frozen=cls in FROZEN)


@pytest.fixture(scope="module")
def samples(e_presentation):
    """Two instances of each class that differ in every field."""
    two = PresentationMatrix((1, 1), ())
    report = verify(e_presentation)
    pairs = {
        MultiplicityTable: (
            eventual_multiplicities(e_presentation), eventual_multiplicities(two)
        ),
        DimensionPolynomial: (
            dimension_polynomial(e_presentation), dimension_polynomial(two)
        ),
        DegreeEvaluation: (
            evaluate_degree(e_presentation, 4), evaluate_degree(two, 3)
        ),
        ShapeCheck: (report.checks[1], report.checks[2]),
        # below the onset of two, so its one shape is invisible
        VerificationReport: (report, verify(two, 1)),
    }
    out = {
        cls: [tuple(getattr(x, name) for name in FIELDS[cls]) for x in pair]
        for cls, pair in pairs.items()
    }
    for a, b in out.values():
        assert all(x != y for x, y in zip(a, b))
    return out


def variants(a, b):
    """a, and a with each field in turn taken from b."""
    return [a] + [a[:i] + (b[i],) + a[i + 1:] for i in range(len(a))]


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as error:
        return str(error)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
class TestAsDataclass:
    def test_repr(self, cls, samples):
        ref = reference(cls)
        for args in samples[cls]:
            assert repr(cls(*args)) == repr(ref(*args))

    def test_positional_and_keyword_construction_agree(self, cls, samples):
        for args in samples[cls]:
            keywords = dict(zip(FIELDS[cls], args))
            assert cls(*args) == cls(**keywords)
            for name, value in keywords.items():
                assert getattr(cls(**keywords), name) is value

    def test_equality(self, cls, samples):
        ref = reference(cls)
        cases = variants(*samples[cls])
        for a, b in itertools.product(cases, repeat=2):
            assert (cls(*a) == cls(*b)) == (ref(*a) == ref(*b))
            assert (cls(*a) != cls(*b)) == (ref(*a) != ref(*b))
        assert cls(*cases[0]) != cases[0]

    def test_hash(self, cls, samples):
        ref = reference(cls)
        for args in samples[cls]:
            assert hash_or_error(cls(*args)) == hash_or_error(ref(*args))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_classes_refuse_changes(cls, samples):
    args = samples[cls][0]
    obj = cls(*args)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = None
    assert obj == cls(*args)


def test_cli_imports_no_introspection_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    script = (
        "import sys, fistab.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
