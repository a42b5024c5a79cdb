"""The result records behave as immutable values, and importing fink stays light."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fink
from fink import (
    AlmostDisjointFamily,
    Combination,
    CommonElement,
    DecompositionGraph,
    DiagonalStep,
    DiagonalTrace,
    ExtractionResult,
    HorizonValuation,
    InvalidCombination,
    SmallnessCertificate,
    SpanEnumeration,
    StabilityCheck,
    Subblock,
    make_builtin,
    parse_stream_spec,
    run_diagonalization,
    validate_family,
)
from fink.sweep import _Reach, _Sweep

SRC = Path(__file__).resolve().parent.parent / "src"

R = Subblock.from_pairs(2, [(0, 2)])
C0 = Combination(((0, 0),))
C1 = Combination(((0, 0), (2, 1)))
CE = CommonElement(R, C0, C0)
HV = HorizonValuation(3, 9, 2)
SC = StabilityCheck(0, HV, HV)
DS = DiagonalStep(1, 0, R, None, (SC,))

# class, field names in order, sample values, and (field, another value)
RECORDS = [
    (Combination, ("terms", "starred"), (C1.terms, False), ("starred", True)),
    (HorizonValuation, ("value", "horizon", "element_count"), (3, 9, 2), ("value", 4)),
    (
        SpanEnumeration,
        ("elements", "includes_empty"),
        (((R, C0),), False),
        ("includes_empty", True),
    ),
    (
        CommonElement,
        ("block", "left_witness", "right_witness"),
        (R, C0, C0),
        ("right_witness", C1),
    ),
    (
        DecompositionGraph,
        ("left", "right", "edges"),
        ((0,), (0, 1), ((0, 0),)),
        ("edges", ((0, 0), (0, 1))),
    ),
    (ExtractionResult, ("prefix_length", "element"), (2, CE), ("prefix_length", 3)),
    (
        SmallnessCertificate,
        ("tail_index", "horizon", "verdict", "witness"),
        (1, 9, "nonempty", CE),
        ("verdict", "empty_at_horizon"),
    ),
    (
        AlmostDisjointFamily,
        ("members", "k", "tail_index", "horizon", "bounds", "truncations"),
        (("P", "Q"), 2, 1, 9, ((None, HV), (HV, None)), ((), ())),
        ("horizon", 10),
    ),
    (
        StabilityCheck,
        ("member", "before", "after"),
        (0, HV, HV),
        ("after", HorizonValuation(None, 9, 0)),
    ),
    (
        DiagonalStep,
        ("index", "member", "block", "between_index", "checks"),
        (1, 0, R, None, (SC,)),
        ("between_index", 0),
    ),
    (DiagonalTrace, ("steps", "finals"), ((DS,), (HV,)), ("finals", ())),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, change", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, names, values, change):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(record, name) is value


def test_defaults():
    assert Combination(C0.terms).starred is False
    assert Combination(C0.terms) == Combination(C0.terms, False)
    certificate = SmallnessCertificate(0, 9, "empty_at_horizon")
    assert certificate.witness is None
    assert certificate == SmallnessCertificate(0, 9, "empty_at_horizon", None)


@pytest.mark.parametrize("cls, names, values, change", RECORDS, ids=IDS)
def test_equality_and_hash_are_by_value(cls, names, values, change):
    record = cls(*values)
    twin = cls(*values)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert copy.copy(record) == record
    field, other = change
    differs = cls(**{**dict(zip(names, values)), field: other})
    assert record != differs and not record == differs


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=IDS)
def test_equality_across_classes_is_not_implemented(index):
    cls, _, values, _ = RECORDS[index]
    other_cls, _, other_values, _ = RECORDS[(index + 1) % len(RECORDS)]
    record, other = cls(*values), other_cls(*other_values)
    assert record.__eq__(other) is NotImplemented
    assert record != other
    assert record != tuple(values)


@pytest.mark.parametrize("cls, names, values, change", RECORDS, ids=IDS)
def test_repr_lists_fields_in_order(cls, names, values, change):
    body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, names, values, change", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, names, values, change):
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values)


def filled_records():
    """Records the library fills through their slot setters: a run's steps
    and checks with their valuations, and sweep elements with their
    witnesses and blocks, bottom valuations among them."""
    members = [make_builtin(name, 2) for name in ("example13_P", "example13_Q", "evens")]
    family = validate_family(members, tail_index=1, horizon=21)
    trace = run_diagonalization(family, cycles=2)
    records = [*family.bounds[0][1:], *trace.finals]
    for step in trace.steps:
        records += [step, *step.checks]
        records += [v for check in step.checks for v in (check.before, check.after)]
    left, right = family.truncations[:2]
    sweeps = [_Sweep(left, right), _Sweep(left, right, walk=True), _Reach(left, right)]
    elements = [sweeps[0].peak_element(), *sweeps[1].elements(), sweeps[2].least("value")]
    records += [sweeps[0].valuation(21), _Sweep(left.prefix(0), right).valuation(21)]
    for element in elements:
        records += [element, element.left_witness, element.right_witness]
    return records, [element.block for element in elements]


def test_records_filled_through_setters_match_their_init_twins():
    records, blocks = filled_records()
    assert {type(record) for record in records} == {
        DiagonalStep, StabilityCheck, HorizonValuation, CommonElement, Combination
    }
    assert any(r.value is None for r in records if type(r) is HorizonValuation)
    for record in (*records, *blocks):
        if isinstance(record, Subblock):
            twin = Subblock.from_pairs(record.k, record.pairs)
        else:
            twin = type(record)(*record._fields(record))
        assert record == twin and twin == record
        assert hash(record) == hash(twin) and repr(record) == repr(twin)
        # copy and pickle rebuild through the checking constructors
        for rebuilt in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(rebuilt) is type(record)
            assert rebuilt == record and hash(rebuilt) == hash(record)
            assert repr(rebuilt) == repr(record)


def test_a_family_and_its_streams_survive_copy_and_pickle():
    members = [make_builtin(name, 2) for name in ("example13_P", "example13_Q", "evens")]
    family = validate_family(members, tail_index=1, horizon=21)
    for value in (family, *family.members):
        for rebuilt in (
            copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
        ):
            assert rebuilt == value and value == rebuilt
            assert hash(rebuilt) == hash(value)


def test_streams_compare_by_their_blocks():
    evens = make_builtin("evens", 2)
    periodic = parse_stream_spec("kind=periodic shift=2 k=2 base=0:2")
    assert evens == periodic and hash(evens) == hash(periodic)
    assert evens.describe() == "kind=builtin name=evens k=2"
    assert periodic.describe() == "kind=periodic shift=2 k=2 base=0:2"
    assert evens != make_builtin("evens", 3)
    assert evens != parse_stream_spec("kind=periodic shift=3 k=2 base=0:2")
    assert make_builtin("example13_P", 2) != make_builtin("example13_Q", 2)
    assert evens.__eq__(evens.truncate(9)) is NotImplemented
    assert evens != (evens.k, evens.head, evens.base, evens.shift)


@pytest.mark.parametrize(
    "terms, starred, message",
    [
        (((1, 0), (0, 0)), False, "indices must strictly increase at (0, 0)"),
        (((0, 0), (0, 1)), True, "indices must strictly increase at (0, 1)"),
        (((0, -1),), True, "negative exponent at (0, -1)"),
        ((), False, "an unstarred combination needs at least one term"),
        (((0, 1), (1, 2)), False, "an unstarred combination needs minimal exponent 0"),
    ],
)
def test_combination_validation_errors(terms, starred, message):
    with pytest.raises(InvalidCombination) as caught:
        Combination(terms, starred)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((None, 3, 1), "value is bottom exactly for the empty set"),
        ((1, 3, 0), "value is bottom exactly for the empty set"),
        ((4, 3, 1), "valuation 4 exceeds horizon 3"),
    ],
)
def test_horizon_valuation_validation_errors(args, message):
    with pytest.raises(ValueError) as caught:
        HorizonValuation(*args)
    assert str(caught.value) == message


# (script, modules it must load, modules it must not load)
IMPORTS = [
    ("import fink, fink.cli", {"fink.cli"}, {"dataclasses", "inspect", "ast", "dis", "tokenize"}),
    # every submodule waits for its first use
    ("import fink", {"fink"}, None),
    (
        "import fink.cli",
        {"fink.cli"},
        {"fink.streams", "fink.structure", "fink.diagonal", "json"},
    ),
]


def test_import_loads_no_code_introspection_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for statement, loaded, unloaded in IMPORTS:
        script = (
            f"import sys; bare = set(sys.modules); {statement}; "
            "print(' '.join(sorted(set(sys.modules) - bare)))"
        )
        out = set(subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout.split())
        if unloaded is None:
            assert out == loaded, statement
        else:
            assert loaded <= out and not unloaded & out, (statement, out)


SUBMODULES = ("blocks", "errors", "span", "streams", "structure", "diagonal")


def test_lazy_names_resolve_to_their_home_objects():
    homes = {name: importlib.import_module(f"fink.{name}") for name in SUBMODULES}
    assert "__version__" in vars(fink)
    for name in fink.__all__:
        if name == "__version__":
            continue
        owners = [module for module in homes.values() if name in vars(module)]
        assert owners and all(getattr(fink, name) is vars(m)[name] for m in owners), name
    for name, module in homes.items():
        assert getattr(fink, name) is module
    assert set(fink.__all__) | set(SUBMODULES) <= set(dir(fink))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fink.no_such_name
