"""The value records: constructors, equality, hashing, repr, freezing and copies.

The repr strings are pinned from the frozen dataclasses these classes used
to be, so printed reports and failure messages keep their text.
"""
from __future__ import annotations

import copy
import pickle

import pytest

from spinalg import verify
from spinalg.dualgraph import DualGraph
from spinalg.field import FieldConfig
from spinalg.modules import LinearSource, ModulePresentation, SymPowerSource, TensorSource
from spinalg.oracle import SpinChart
from spinalg.products import AlgebraWindow, AutomorphismGroup, automorphisms
from spinalg.ring import LaurentRing, NodeRing
from spinalg.twists import TwistData, index_from_twist


def _module() -> ModulePresentation:
    return ModulePresentation(NodeRing(FieldConfig(7, 3), 3), 1, 2)


# (factory of a fresh record, its repr, a constructor call that must fail or
# None, that call's error message)
RECORDS = {
    FieldConfig: (lambda: FieldConfig(7, 3), "FieldConfig(p=7, r=3)",
                  lambda: FieldConfig(11, 3), "need p = 1 (mod r); got p=11, r=3"),
    NodeRing: (lambda: NodeRing(FieldConfig(7, 3), 3), "NodeRing(p=7, l=3)",
               lambda: NodeRing(FieldConfig(7, 3), 0), "node parameter l must be a positive integer"),
    LaurentRing: (lambda: LaurentRing(FieldConfig(7, 3), "y"),
                  "LaurentRing(field=FieldConfig(p=7, r=3), var='y')", None, None),
    ModulePresentation: (_module, "M(1,2)@l=3",
                         lambda: ModulePresentation(_module().ring, 1, 1),
                         "module exponents must be (0, 0) or positive with i + j = l; "
                         "got (1, 1) over l=3"),
    LinearSource: (lambda: LinearSource(_module()), "LinearSource(module=M(1,2)@l=3)", None, None),
    TensorSource: (lambda: TensorSource(_module(), _module().grade(2)),
                   "TensorSource(left=M(1,2)@l=3, right=M(2,1)@l=3)", None, None),
    SymPowerSource: (lambda: SymPowerSource(_module(), 3), "SymPowerSource(module=M(1,2)@l=3, power=3)",
                     lambda: SymPowerSource(_module(), 0), "symmetric power must be at least 1"),
    AlgebraWindow: (lambda: AlgebraWindow({0: _module().grade(0)}, {}),
                    "AlgebraWindow(grades={0: M(0,0)@l=3}, products={})", None, None),
    AutomorphismGroup: (lambda: automorphisms(_module(), 3),
                        "AutomorphismGroup(pairs=((1, 1), (2, 2), (4, 4)), order=3, diagonal=True)",
                        None, None),
    SpinChart: (lambda: SpinChart(FieldConfig(97, 1), 3, 2),
                "SpinChart(field=FieldConfig(p=97, r=1), l=3, b=2)",
                lambda: SpinChart(FieldConfig(97, 1), 4, 2),
                "symbol character must be a unit mod l; got b=2, l=4"),
    DualGraph: (lambda: DualGraph((("a", 0), ("b", 1)), (("a", "b"),), (("a", 1), ("b", 2))),
                "DualGraph(vertices=(('a', 0), ('b', 1)), edges=(('a', 'b'),), legs=(('a', 1), ('b', 2)))",
                lambda: DualGraph((("a", 0), ("b", 0)), (), ()), "dual graph must be connected"),
    TwistData: (lambda: index_from_twist(2, 6), "TwistData(k=2, r=6, l=3, a=1, b=2)",
                lambda: TwistData(3, 3, 1, 0, 0), "twist must satisfy 0 <= k < r; got k=3, r=3"),
    verify.SuiteResult: (lambda: verify.SuiteResult("ring-laws", False, 3, ["bad case"]),
                         "SuiteResult(name='ring-laws', passed=False, cases=3, failures=['bad case'])",
                         None, None),
}
UNHASHABLE = (AlgebraWindow, verify.SuiteResult)  # a dict field; a mutable record
MUTABLE = (verify.SuiteResult,)


def _copies(record):
    yield copy.copy(record)
    yield copy.deepcopy(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(record, protocol))


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    make, text, bad, message = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and not hasattr(a, "__dict__")
    assert repr(a) == text

    # value equality, over the fields in _fields, by keyword too
    values = tuple(getattr(a, name) for name in cls._fields)
    assert a == b and not a != b
    assert cls(**dict(zip(cls._fields, values))) == a
    assert a != object() and (a == object()) is False
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)

    # frozen: no field can be assigned or deleted
    name = cls._fields[-1]
    if cls in MUTABLE:
        setattr(a, name, values[-1])
    else:
        with pytest.raises(AttributeError):
            setattr(a, name, values[-1])
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is values[-1]

    # copies are equal records of the same class; node rings stay interned
    for twin in _copies(a):
        assert type(twin) is cls and twin == a and repr(twin) == text
        assert (twin is a) == (cls is NodeRing)

    if bad is not None:
        with pytest.raises(ValueError) as exc:
            bad()
        assert str(exc.value) == message


def test_a_copied_module_keeps_the_interned_ring():
    pres = _module()
    for twin in _copies(pres):
        assert twin.ring is pres.ring


def test_unequal_records():
    f = FieldConfig(7, 3)
    assert f != FieldConfig(7, 1) and f != FieldConfig(13, 3)
    assert _module() != _module().grade(2)
    # equal fields in different classes are not equal records
    assert LinearSource(_module()) != SymPowerSource(_module(), 1)
    assert SymPowerSource(_module(), 2) != SymPowerSource(_module(), 3)
