"""The value classes built on ``core.Record``: construction, equality,
hashing, repr, immutability and the checks each one runs on its fields."""

import inspect

import pytest

from balpack import core, factorization, gf, latin, oracle, sumcode, transversal
from balpack.core import BalancedPacking, Labeling, VerificationReport


def _packing():
    return core.make_packing(6, 2, 3, (1, 1, -1, -1, 1, -1),
                             [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])


# (class, a valid instance, its fields in constructor order)
RECORDS = [
    (Labeling, lambda: Labeling((1, -1, 1)), ("signs",)),
    (BalancedPacking, _packing, ("v", "t", "k", "labeling", "blocks")),
    (VerificationReport, lambda: core.verify(_packing()),
     ("regular", "packing", "balanced", "n_blocks", "max_intersection",
      "discrepancies", "p_plus", "p_minus", "mixed_signs", "bound",
      "bound_ok", "overlap", "unbalanced")),
    (factorization.OneFactorization, lambda: factorization.one_factorization(4),
     ("n", "classes")),
    (factorization.PartitionablePacking,
     lambda: factorization.from_one_factorization(factorization.one_factorization(4)),
     ("t_prime", "k", "v", "classes")),
    (gf.FieldSpec, lambda: gf.make_field(3, 2), ("p", "m", "modulus", "xi_index")),
    (latin.SeedSets, lambda: latin.seed_sets(8),
     ("p_plus", "positive_pairs", "negative_pairs")),
    (latin.LatinRectangle, lambda: latin.fill(latin.seed_sets(4)),
     ("p_plus", "cols", "cells")),
    (oracle.SearchBudget, lambda: oracle.SearchBudget(max_nodes=50, time_cap=2.5),
     ("max_nodes", "time_cap")),
    (sumcode.SumCodeParams, lambda: sumcode.SumCodeParams(6, 3), ("v", "k")),
    (transversal.TransversalDesign, lambda: transversal.construct_td(2, 3, 3),
     ("t", "k", "q", "blocks")),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, make, fields):
    a, b = make(), make()
    assert type(a) is cls
    assert a == b and not a != b
    assert hash(a) == hash(b)
    values = tuple(getattr(a, name) for name in fields)
    assert hash(a) == hash(values)
    assert cls(*values) == a
    assert cls(**dict(zip(fields, values))) == a
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == a
    # the exact class is part of equality: a subclass with the same values differs
    other = type("Other", (cls,), {})(*values)
    assert a != other and other != a
    assert a != values


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, make, fields):
    a = make()
    inner = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({inner})"


def test_repr_text():
    assert repr(Labeling((1, -1))) == "Labeling(signs=(1, -1))"
    assert repr(oracle.SearchBudget()) == "SearchBudget(max_nodes=100000000, time_cap=600.0)"
    assert repr(sumcode.SumCodeParams(v=6, k=3)) == "SumCodeParams(v=6, k=3)"


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_records_are_frozen(cls, make, fields):
    a = make()
    before = getattr(a, fields[0])
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert getattr(a, fields[0]) == before
    assert not hasattr(a, "not_a_field")


def test_keywords_and_defaults():
    assert oracle.SearchBudget() == oracle.SearchBudget(10**8, 600.0)
    assert oracle.SearchBudget(max_nodes=50) == oracle.SearchBudget(50, 600.0)
    assert oracle.SearchBudget(time_cap=1.0).max_nodes == 10**8
    report = VerificationReport(
        regular=True, packing=True, balanced=True, n_blocks=0,
        max_intersection=None, discrepancies=(), p_plus=1, p_minus=0,
        mixed_signs=False, bound=None, bound_ok=None)
    assert report.overlap is None and report.unbalanced is None
    assert report.passed


# The texts are those of the ``__init__`` a frozen dataclass generates.
@pytest.mark.parametrize("call, message", [
    (lambda: oracle.SearchBudget(1, 2, 3),
     "SearchBudget.__init__() takes from 1 to 3 positional arguments but 4 were given"),
    (lambda: sumcode.SumCodeParams(1, 2, 3),
     "SumCodeParams.__init__() takes 3 positional arguments but 4 were given"),
    (lambda: oracle.SearchBudget(nodes=5),
     "SearchBudget.__init__() got an unexpected keyword argument 'nodes'"),
    (lambda: oracle.SearchBudget(5, max_nodes=5),
     "SearchBudget.__init__() got multiple values for argument 'max_nodes'"),
    (lambda: sumcode.SumCodeParams(k=3),
     "SumCodeParams.__init__() missing 1 required positional argument: 'v'"),
    (lambda: sumcode.SumCodeParams(),
     "SumCodeParams.__init__() missing 2 required positional arguments: 'v' and 'k'"),
    (lambda: gf.FieldSpec(m=1),
     "FieldSpec.__init__() missing 3 required positional arguments: "
     "'p', 'modulus', and 'xi_index'"),
])
def test_bad_arguments_raise_type_error(call, message):
    with pytest.raises(TypeError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_constructor_signature_lists_the_fields(cls, make, fields):
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = {name: p.default for name, p in params.items()
                if p.default is not inspect.Parameter.empty}
    assert defaults == cls._defaults


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_one_positional_argument_too_many(cls, make, fields):
    a = make()
    most = len(fields) + 1  # counting self
    takes = f"from {most - len(cls._defaults)} to {most}" if cls._defaults else most
    with pytest.raises(TypeError) as caught:
        cls(*(getattr(a, name) for name in fields), None)
    assert str(caught.value) == (f"{cls.__name__}.__init__() takes {takes} positional "
                                 f"arguments but {most + 1} were given")


@pytest.mark.parametrize("call, error", [
    (lambda: Labeling((1, 0)), core.LabelConstraint),
    (lambda: BalancedPacking(3, 2, 3, Labeling((1, 1, -1)), ((0, 1, 3),)), core.OutOfRange),
    (lambda: factorization.OneFactorization(3, ()), factorization.OddOrder),
    (lambda: factorization.PartitionablePacking(2, 2, 4, (((0, 1),), ((0, 1),))),
     factorization.ClassesNotDisjoint),
    (lambda: latin.SeedSets(5, (), ()), core.PreconditionViolated),
    (lambda: latin.LatinRectangle(4, 3, ()), core.PreconditionViolated),
    (lambda: oracle.SearchBudget(max_nodes=0), core.PreconditionViolated),
    (lambda: sumcode.SumCodeParams(5, 3), sumcode.OddGroundSet),
    (lambda: transversal.TransversalDesign(0, 3, 3, ()), core.PreconditionViolated),
    # a list where a tuple belongs: the record's own error, not "unhashable type"
    (lambda: Labeling([1, -1, 1]), core.LabelConstraint),
    (lambda: BalancedPacking(3, 2, 2, Labeling((1, -1, 1)), [(0, 1), (1, 2)]),
     core.PackingError),
    (lambda: factorization.PartitionablePacking(1, 2, 4, (([0, 1],),)),
     core.PreconditionViolated),
    (lambda: factorization.PartitionablePacking(1, 2, 4, ([(0, 1)],)),
     core.PreconditionViolated),
    (lambda: factorization.PartitionablePacking(1, 2, 4, [((0, 1),)]),
     core.PreconditionViolated),
], ids=["Labeling", "BalancedPacking", "OneFactorization", "PartitionablePacking",
        "SeedSets", "LatinRectangle", "SearchBudget", "SumCodeParams",
        "TransversalDesign", "Labeling-list-signs", "BalancedPacking-list-blocks",
        "PartitionablePacking-list-block", "PartitionablePacking-list-class",
        "PartitionablePacking-list-classes"])
def test_post_init_checks_the_fields(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


class Row(tuple):
    """A tuple subclass: accepted wherever a tuple is."""


def test_records_accept_tuple_subclasses_and_hash():
    labeling = Labeling(Row((1, -1, 1)))
    packing = BalancedPacking(3, 2, 2, labeling, Row((Row((0, 1)), Row((1, 2)))))
    classes = factorization.PartitionablePacking(1, 2, 4, Row((Row((Row((0, 1)),)),)))
    assert core.verify(packing).passed
    assert len({labeling, packing, classes}) == 3


def test_post_init_is_looked_up_on_the_class(monkeypatch):
    seen = []
    original = BalancedPacking.__post_init__

    def counted(self):
        seen.append(self.v)
        original(self)

    monkeypatch.setattr(BalancedPacking, "__post_init__", counted)
    p = _packing()
    assert seen == [6]
    assert p.with_labeling(p.labeling) == p and seen == [6, 6]


def test_field_tables_are_lazy_and_cached():
    spec = gf.make_field(3, 2)
    fresh = gf.FieldSpec(spec.p, spec.m, spec.modulus, spec.xi_index)
    assert fresh == spec
    assert "exp" not in vars(fresh) and "log" not in vars(fresh)
    table = fresh.exp
    assert table == spec.exp and len(table) == 2 * (9 - 1) - 1
    assert vars(fresh)["exp"] is table and fresh.exp is table
    assert fresh.log[table[3]] == 3
    assert hash(fresh) == hash(spec)
