"""The frozen-record contract of the library's result types.

Each type takes its fields by position or keyword, with its defaults;
compares equal only to an instance of its own class with equal fields;
hashes as the tuple of its fields; prints as ``Name(field=value, ...)``
(``tests/golden/transfer_reports.json`` pins ``CheckReport``'s repr);
refuses to set or delete a field; and carries no ``__dict__``.  The
tests use the standard library only, so an interpreter without pytest
can call them.
"""

import copy
import pickle
from fractions import Fraction

from eltlab.core import BOTTOM, TOP, parse_scalar
from eltlab.matrix import CycleInfo
from eltlab.poly import (
    CornerRoot,
    EnvelopeReport,
    IntervalRoot,
    LayerSolutions,
    MonomialStatus,
    RootDescription,
)
from eltlab.transfer import (
    Add,
    CannedIdentity,
    CheckReport,
    Const,
    MonomialTable,
    Mul,
    Var,
    parse_expression,
)

HALF = LayerSolutions(False, (Fraction(1, 2),))
CORNER = CornerRoot(Fraction(1), (0, 2), {0: Fraction(1), 2: Fraction(-1)}, HALF)
INTERVAL = IntervalRoot(BOTTOM, Fraction(0), 1, LayerSolutions(True))

# (class, field names in order, one value per field)
RECORDS = (
    (CycleInfo, ("vertices", "weight", "mean"), ((0, 1), parse_scalar("3^[2]"), Fraction(3, 2))),
    (EnvelopeReport, ("statuses", "intervals", "corners"),
     ({0: MonomialStatus.ESSENTIAL}, {0: (BOTTOM, TOP)}, ())),
    (LayerSolutions, ("all_layers", "values"), (False, (Fraction(1, 2), Fraction(2)))),
    (CornerRoot, ("tangible", "degrees", "layer_equation", "layers"), tuple(
        getattr(CORNER, name) for name in ("tangible", "degrees", "layer_equation", "layers"))),
    (IntervalRoot, ("lower", "upper", "degree", "layers"), (Fraction(0), TOP, 2, HALF)),
    (RootDescription, ("corners", "intervals", "neg_infinity_root"), ((CORNER,), (INTERVAL,), True)),
    (Const, ("value",), (1,)),
    (Var, ("index",), (2,)),
    (Add, ("args",), ((Var(1), Const(1)),)),
    (Mul, ("args",), ((Var(1), Var(2)),)),
    (MonomialTable, ("nvars", "entries"), (2, {(1, 0): (1, 0), (0, 1): (0, 1)})),
    (CheckReport,
     ("relation", "ring_ok", "maxplus_ok", "elt_ok", "strong_ok", "trials", "seed", "counterexamples"),
     ("surpass", True, True, False, None, 5, 3, ("x1 = 0^[1]",))),
    (CannedIdentity, ("name", "relation", "components", "strong"),
     ("commute", "equal", ((parse_expression("x1*x2"), parse_expression("x2*x1")),), True)),
)

HASHABLE = (Const, Var, Add, Mul, LayerSolutions, IntervalRoot)


def raises(error, action):
    try:
        action()
    except error:
        return True
    return False


def test_records_take_their_fields_by_position_and_by_keyword():
    for cls, names, values in RECORDS:
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
        for record in (by_position, by_keyword, mixed):
            assert tuple(getattr(record, name) for name in names) == values, cls
        assert by_position == by_keyword == mixed, cls


def test_omitted_trailing_fields_take_their_defaults():
    assert LayerSolutions(True) == LayerSolutions(True, ())
    assert LayerSolutions(all_layers=False).values == ()
    canned = CannedIdentity("name", "surpass", ())
    assert canned.strong is False
    assert canned == CannedIdentity("name", "surpass", (), False)


def test_a_call_that_does_not_bind_every_field_once_is_refused():
    for cls in (Var, MonomialTable):
        for call in (
            lambda: cls(),  # a field without a default left out
            lambda: cls(1, {}, 2),  # a value too many
            lambda: cls(1, {}, **{cls.__slots__[0]: 1}),  # a field given twice
            lambda: cls(position=1),  # no such field
        ):
            assert raises(TypeError, call), cls
    assert raises(TypeError, lambda: LayerSolutions(values=()))
    assert raises(TypeError, lambda: CannedIdentity("name", relation="equal", strong=True))


def test_records_equal_only_records_of_their_own_class():
    x = (Var(1),)
    assert Add(x) == Add((Var(1),)) and Add(x) != Mul(x) and Mul(x) != Add(x)
    assert Const(1) != Const(0) and Const(1) != Var(1)
    for cls, _, values in RECORDS:
        record = cls(*values)
        assert record != values and values != record, cls
        assert not record == values, cls
        assert record.__eq__(values) is NotImplemented, cls


def test_equal_hashable_records_hash_as_their_field_tuples():
    for cls, names, values in RECORDS:
        if cls in HASHABLE:
            assert hash(cls(*values)) == hash(cls(**dict(zip(names, values)))) == hash(values), cls
    assert len({Add((Var(1),)), Add((Var(1),)), Mul((Var(1),))}) == 2


def test_records_print_as_a_dataclass_does():
    for cls, names, values in RECORDS:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})", cls
    assert repr(Add((Var(1), Const(0)))) == "Add(args=(Var(index=1), Const(value=0)))"
    assert repr(HALF) == "LayerSolutions(all_layers=False, values=(Fraction(1, 2),))"


def test_records_refuse_to_set_or_delete_a_field_and_keep_no_dict():
    for cls, names, values in RECORDS:
        record = cls(*values)
        for name in names:
            assert raises(AttributeError, lambda: setattr(record, name, None)), (cls, name)
            assert raises(AttributeError, lambda: delattr(record, name)), (cls, name)
        assert raises(AttributeError, lambda: setattr(record, "other", None)), cls
        assert tuple(getattr(record, name) for name in names) == values, cls
        assert not hasattr(record, "__dict__"), cls


def test_records_survive_copy_and_pickle():
    for cls, _, values in RECORDS:
        record = cls(*values)
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record, cls
