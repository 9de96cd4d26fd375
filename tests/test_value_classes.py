"""The value classes behave as the dataclasses they replaced, stay
immutable, and the CLI imports no module it does not use.

``MultiplicityTable``, ``DimensionPolynomial``, ``DegreeEvaluation``,
``ShapeCheck`` and ``VerificationReport`` get construction, equality,
hash, repr and immutability from ``fistab.record.Record``;
``DegreeEvaluation`` only shortens its repr.  Each is compared with a
test-local frozen ``dataclasses`` reference of the same name and
fields: repr, equality, hash, construction, the ``TypeError`` of a bad
call and refusal to be changed.  ``FormalSum``, ``PresentationMatrix``
and ``RationalMatrix`` validate their own arguments and take
immutability from the base too, which is the only module that defines
``__setattr__`` or ``__delattr__``.  All eight ``Record`` classes
survive ``copy``, ``deepcopy`` and a ``pickle`` round trip, and
``import fistab.cli`` loads neither ``copy`` nor ``pickle``.
"""

import ast
import copy
import itertools
import pickle
import os
import subprocess
import sys
from dataclasses import field, make_dataclass
from fractions import Fraction
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
from fistab.presentation import FormalSum, PresentationMatrix
from fistab.ratmat import RationalMatrix

ROOT = Path(__file__).resolve().parents[1]

HIDDEN = ("_z", "_plan", "_pivots", "_scale")
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


def reference(cls):
    """The dataclass cls was written as, with its name and fields."""
    specs = [
        (name, object, field(repr=False)) if name in HIDDEN else (name, object)
        for name in FIELDS[cls]
    ]
    return make_dataclass(cls.__name__, specs, frozen=True)


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
        # E at 7 has pivot values 1 and 2, so its scale is not two's 1
        DegreeEvaluation: (
            evaluate_degree(e_presentation, 7), evaluate_degree(two, 3)
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

    def test_bad_calls_raise_type_error(self, cls, samples):
        ref = reference(cls)
        args = samples[cls][0]
        first = FIELDS[cls][0]
        rest = dict(zip(FIELDS[cls][1:], args[1:]))
        calls = [
            (args[:-1], {}),  # a field missing
            ((), rest),  # the first field missing
            (args, {"extra": None}),  # an unknown keyword
            (args, {first: args[0]}),  # a field given twice
            (args + (None,), {}),  # too many positional arguments
        ]
        for positional, keywords in calls:
            for make in (ref, cls):
                with pytest.raises(TypeError):
                    make(*positional, **keywords)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
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


VALIDATING = {
    "FormalSum": lambda: FormalSum(1, 2, {(1,): 1, (2,): Fraction(1, 2)}),
    "PresentationMatrix": lambda: PresentationMatrix(
        (1,), (2,), {(0, 0): FormalSum(1, 2, {(2,): 3})}
    ),
    "RationalMatrix": lambda: RationalMatrix([{0: 1}, {1: Fraction(2, 3)}], 2),
}


@pytest.mark.parametrize("make", VALIDATING.values(), ids=list(VALIDATING))
def test_validating_classes_refuse_changes(make):
    obj = make()
    for name in obj.__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = None
    assert obj == make()
    assert hash(obj) == hash(make())


RECORDS = {
    "MultiplicityTable": lambda e: eventual_multiplicities(e),
    "DimensionPolynomial": lambda e: DimensionPolynomial((1,), 0),
    "DegreeEvaluation": lambda e: evaluate_degree(e, 7),
    "ShapeCheck": lambda e: verify(e).checks[1],
    "VerificationReport": lambda e: verify(e),
    **{name: lambda e, make=make: make() for name, make in VALIDATING.items()},
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
@pytest.mark.parametrize("duplicate", [
    copy.copy,
    copy.deepcopy,
    lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
def test_records_copy_and_pickle(make, duplicate, e_presentation):
    # the fields are restored without the subclass's constructor, whose
    # arguments need not be its fields (RationalMatrix takes rows and
    # ncols), and the copy is as immutable as the original
    obj = make(e_presentation)
    twin = duplicate(obj)
    assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
    for name in obj.__slots__:
        assert getattr(twin, name) == getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(twin, name, None)
    if duplicate is copy.copy:
        assert all(getattr(twin, name) is getattr(obj, name) for name in obj.__slots__)


def test_only_the_record_base_defines_setattr_or_delattr():
    guarded = {"__setattr__", "__delattr__"}
    definers = set()
    for path in sorted((ROOT / "src" / "fistab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {node.name}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = {node.id}
            else:
                continue
            if names & guarded:
                definers.add(path.name)
    assert definers == {"record.py"}


def test_cli_imports_no_introspection_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy", "pickle")
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
