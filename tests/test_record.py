"""The value classes built on ``core.Record``: construction, equality,
hashing, repr, immutability and the checks each one runs on its fields."""

import functools
import inspect
import time

import pytest

from balpack import (babai_frankl, bounds, core, factorization, gf, latin, oracle, sumcode,
                     transversal)
from balpack.cli import latin_dispatch
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
    (lambda: factorization.OneFactorization(4, [[(0, 1), (2, 3)], [(0, 2), (1, 3)],
                                                [(0, 3), (1, 2)]]),
     core.PreconditionViolated),
    (lambda: factorization.OneFactorization(4, None), core.PreconditionViolated),
    (lambda: transversal.TransversalDesign(1, 2, 2, [(0, 2), (1, 3)]),
     core.PreconditionViolated),
    (lambda: transversal.TransversalDesign(1, 2, 2, None), core.PreconditionViolated),
    # a float or bool point or parameter: the int rule of BalancedPacking's points
    (lambda: factorization.PartitionablePacking(1, 2, 4, (((0.0, 1.0),), ((2.0, 3.0),))),
     core.PreconditionViolated),
    (lambda: factorization.PartitionablePacking(1, 2, 4, (((False, True),),)),
     core.PreconditionViolated),
    (lambda: factorization.PartitionablePacking(1, 2, 4.0, (((0, 1),),)),
     core.PreconditionViolated),
    (lambda: factorization.PartitionablePacking(1.0, 2, 4, (((0, 1),),)),
     core.PreconditionViolated),
    (lambda: factorization.OneFactorization(4, (((0.0, 1.0), (2.0, 3.0)),
                                                ((0.0, 2.0), (1.0, 3.0)),
                                                ((0.0, 3.0), (1.0, 2.0)))),
     core.PreconditionViolated),
    (lambda: transversal.TransversalDesign(1.0, 2, 2, ((0, 2), (1, 3))),
     core.PreconditionViolated),
    (lambda: transversal.TransversalDesign(1, 2, 2.0, ((0, 2), (1, 3))),
     core.PreconditionViolated),
    (lambda: BalancedPacking(3.0, 2, 2, Labeling((1, -1, 1)), ((0, 1),)), core.PackingError),
    (lambda: BalancedPacking(3, True, 2, Labeling((1, -1, 1)), ((0, 1),)), core.PackingError),
], ids=["Labeling", "BalancedPacking", "OneFactorization", "PartitionablePacking",
        "SeedSets", "LatinRectangle", "SearchBudget", "SumCodeParams",
        "TransversalDesign", "Labeling-list-signs", "BalancedPacking-list-blocks",
        "PartitionablePacking-list-block", "PartitionablePacking-list-class",
        "PartitionablePacking-list-classes", "OneFactorization-list-classes",
        "OneFactorization-none-classes", "TransversalDesign-list-blocks",
        "TransversalDesign-none-blocks", "PartitionablePacking-float-points",
        "PartitionablePacking-bool-points", "PartitionablePacking-float-v",
        "PartitionablePacking-float-t_prime", "OneFactorization-float-matchings",
        "TransversalDesign-float-t", "TransversalDesign-float-q", "BalancedPacking-float-v",
        "BalancedPacking-bool-t"])
def test_post_init_checks_the_fields(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


# a float or str order or size given to a construction route: refused by the
# route's own check, naming the parameter, before any block is built
@pytest.mark.parametrize("call, message", [
    (lambda: factorization.one_factorization(4.0), "n must be an integer, got 4.0"),
    (lambda: factorization.OneFactorization("4", ()), "n must be an integer, got '4'"),
    (lambda: factorization.singleton_classes(2.0), "n must be an integer, got 2.0"),
    (lambda: transversal.construct_td(2.0, 3, 5),
     "t, k and q must be integers, got (2.0, 3, 5)"),
    (lambda: babai_frankl.construct(4.0, 3, 2), "t, k and q must be integers, got (2, 3, 4.0)"),
    (lambda: factorization.triples_from_factorization(4.0, 3),
     "p_plus must be an integer, got 4.0"),
    (lambda: transversal.augment_34(2.0), "m must be an integer, got 2.0"),
    (lambda: transversal.augment_34_char2(2.0), "m must be an integer, got 2.0"),
    (lambda: latin.seed_sets(8.0), "p_plus must be an integer, got 8.0"),
    (lambda: transversal.construct_td_sum(2, 3.0), "t and m must be integers, got (2, 3.0)"),
    (lambda: latin.LatinRectangle(4.0, 3, ()), "p_plus must be an integer, got 4.0"),
    (lambda: transversal.construct_td(2, 3, 4.0), "t, k and q must be integers, got (2, 3, 4.0)"),
    (lambda: factorization.triples_from_factorization(6, 2.0),
     "p_minus must be an integer, got 2.0"),
    (lambda: factorization.triples_from_factorization(6, "2"),
     "p_minus must be an integer, got '2'"),
], ids=["one_factorization", "OneFactorization", "singleton_classes", "construct_td-t",
        "babai_frankl", "triples_from_factorization", "augment_34", "augment_34_char2",
        "seed_sets", "construct_td_sum", "LatinRectangle", "construct_td-q",
        "triples_from_factorization-float-p_minus", "triples_from_factorization-str-p_minus"])
def test_route_parameters_take_the_integer_rule(call, message):
    with pytest.raises(core.PreconditionViolated) as caught:
        call()
    assert str(caught.value) == message


# an int parameter keeps its message, from the one owner of each rule
@pytest.mark.parametrize("call, error, message", [
    (lambda: factorization.one_factorization(5), factorization.OddOrder,
     "n=5 must be even and >= 2"),
    (lambda: factorization.triples_from_factorization(5, 3), factorization.OddOrder,
     "p_plus=5 must be even and >= 2"),
    (lambda: transversal.augment_34(3), factorization.OddOrder, "m=3 must be even and >= 2"),
    (lambda: latin.SeedSets(5, (), ()), core.PreconditionViolated,
     "p_plus=5 must be even and >= 4"),
    (lambda: latin.seed_sets(2), core.PreconditionViolated, "p_plus=2 must be even and >= 4"),
    (lambda: factorization.singleton_classes(0), core.PreconditionViolated,
     "need at least one class"),
    (lambda: latin.LatinRectangle(4, 3, ()), core.PreconditionViolated, "cols must be 4 or 5"),
    (lambda: transversal.construct_td(2, 3, 2**17), core.PreconditionViolated,
     "q=131072 exceeds the field size cap 65536"),
    (lambda: babai_frankl.construct(6, 3, 2), core.PreconditionViolated,
     "q=6 is not a prime power"),
    (lambda: transversal.construct_td(3, 2, 5), core.PreconditionViolated,
     "need 1 <= t <= k <= q, got t=3, k=2, q=5"),
], ids=["one_factorization", "triples_from_factorization", "augment_34", "SeedSets",
        "seed_sets", "singleton_classes", "LatinRectangle", "construct_td-cap",
        "babai_frankl-prime-power", "construct_td-range"])
def test_route_rules_keep_their_messages(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def test_parameter_errors_are_preconditions():
    assert issubclass(factorization.OddOrder, core.PreconditionViolated)
    assert issubclass(gf.FieldError, core.PreconditionViolated)
    for call in (lambda: gf.make_field(4), lambda: gf.make_field(2, 0),
                 lambda: gf.make_field(2, 17)):
        with pytest.raises(core.PreconditionViolated):
            call()


@pytest.mark.parametrize("call, error, message", [
    # typed cache: neither a bool nor a float reaches or leaves a cached field
    (lambda: (gf.make_field(3, 1), gf.make_field(3, True)), gf.FieldError,
     "p and m must be integers, got (3, True)"),
    (lambda: (gf.make_field(5, 1), gf.make_field(5, 1.0)), gf.FieldError,
     "p and m must be integers, got (5, 1.0)"),
    (lambda: gf.make_field(7, 1.0), gf.FieldError, "p and m must be integers, got (7, 1.0)"),
    (lambda: gf.make_field("2"), gf.FieldError, "p and m must be integers, got ('2', 1)"),
    # checked before the cache hashes the arguments
    (lambda: gf.make_field([2]), gf.FieldError, "p and m must be integers, got ([2], 1)"),
    (lambda: gf.make_field(2, [1]), gf.FieldError, "p and m must be integers, got (2, [1])"),
    (lambda: latin.LatinRectangle(8, 8.0, ()), core.PreconditionViolated,
     "cols must be an integer, got 8.0"),
    (lambda: latin.LatinRectangle(8, "8", ()), core.PreconditionViolated,
     "cols must be an integer, got '8'"),
    (lambda: oracle.interval_labeling(8, 0), core.PreconditionViolated,
     "need integers v and k >= 1, got (8, 0)"),
    (lambda: oracle.interval_labeling(8, -2), core.PreconditionViolated,
     "need integers v and k >= 1, got (8, -2)"),
    (lambda: oracle.interval_labeling(8.0, 2), core.PreconditionViolated,
     "v and k must be integers, got (8.0, 2)"),
    (lambda: core.interval_labeling(0, 3), core.PreconditionViolated,
     "need integers v and k >= 1, got (0, 3)"),
    (lambda: core.interval_labeling(-6, 3), core.PreconditionViolated,
     "need integers v and k >= 1, got (-6, 3)"),
    (lambda: oracle.existence_reference(100, 0, 2), core.PreconditionViolated,
     "need v, k >= 1 and t >= 0, got v=100, k=0, t=2"),
    (lambda: oracle.existence_reference(100, 5, 2.0), core.PreconditionViolated,
     "v, k and t must be integers, got (100, 5, 2.0)"),
    (lambda: sumcode.missing_pair_predicate(0, 1, 2), core.PreconditionViolated,
     "v must be >= 1, got 0"),
    (lambda: sumcode.missing_pair_predicate(12, 1.0, 2), core.PreconditionViolated,
     "v, x and y must be integers, got (12, 1.0, 2)"),
    # SumCodeParams checks v and k for construct and failure_rate alike
    (lambda: sumcode.construct(8.0, 3), core.PreconditionViolated,
     "v and k must be integers, got (8.0, 3)"),
    (lambda: sumcode.construct("8", 3), core.PreconditionViolated,
     "v and k must be integers, got ('8', 3)"),
    (lambda: sumcode.failure_rate(8, 3.0), core.PreconditionViolated,
     "v and k must be integers, got (8, 3.0)"),
    # k > v leaves no seed choice
    (lambda: sumcode.failure_rate(4, 6), core.PreconditionViolated, "k=6 must be at most v=4"),
    (lambda: sumcode.failure_rate(4, 9), core.PreconditionViolated, "k=9 must be at most v=4"),
    (lambda: sumcode.failure_rate(6, 8), core.PreconditionViolated, "k=8 must be at most v=6"),
    (lambda: sumcode.construct(4, 9), core.PreconditionViolated, "k=9 must be at most v=4"),
    (lambda: latin_dispatch("8"), core.PreconditionViolated, "v must be an integer, got '8'"),
    (lambda: latin_dispatch(None), core.PreconditionViolated, "v must be an integer, got None"),
    (lambda: latin_dispatch(8.0), core.PreconditionViolated, "v must be an integer, got 8.0"),
    (lambda: latin_dispatch(7), core.PackingError, "dispatcher covers v >= 8, got 7"),
    (lambda: babai_frankl.label_points(5.0, 3), core.PreconditionViolated,
     "q and k must be integers, got (5.0, 3)"),
    (lambda: babai_frankl.label_points(True, 2), core.PreconditionViolated,
     "q and k must be integers, got (True, 2)"),
    (lambda: babai_frankl.evaluation_set(gf.make_field(5), 2.0), core.PreconditionViolated,
     "k must be an integer, got 2.0"),
    (lambda: babai_frankl.label_points(5, 0), core.PreconditionViolated,
     "need q >= 1 and k >= 1, got q=5, k=0"),
    (lambda: babai_frankl.label_points(0, 3), core.PreconditionViolated,
     "need q >= 1 and k >= 1, got q=0, k=3"),
    (lambda: babai_frankl.label_points(-2, 3), core.PreconditionViolated,
     "need q >= 1 and k >= 1, got q=-2, k=3"),
    (lambda: oracle.structured_random(9, 3, 1, 10, (1, 2)), core.PreconditionViolated,
     "rng_seed must be None, an int, a float, a str or bytes, got (1, 2)"),
    (lambda: oracle.structured_random(100, 5, 2, -1, 1), core.PreconditionViolated,
     "need trials >= 0, got -1"),
    (lambda: transversal.construct_td_sum(0, 3), core.PreconditionViolated,
     "need t >= 1 and m >= 1, got t=0, m=3"),
    (lambda: transversal.construct_td_sum(2, 0), core.PreconditionViolated,
     "need t >= 1 and m >= 1, got t=2, m=0"),
    (lambda: bounds.lemma1_bound(2.0, 3, 4, 3), core.PreconditionViolated,
     "t, k, p_plus and p_minus must be integers, got (2.0, 3, 4, 3)"),
    (lambda: bounds.theorem1_gap([2], 3, 9), core.PreconditionViolated,
     "t, k and v must be integers, got ([2], 3, 9)"),
    (lambda: oracle.max_balanced_packing(True, 3, 8), core.PreconditionViolated,
     "t, k and v must be integers, got (True, 3, 8)"),
    (lambda: oracle.SearchBudget("5"), core.PreconditionViolated,
     "max_nodes must be an integer, got '5'"),
    (lambda: core.is_packing(-1, ((0, 1),)), core.PreconditionViolated, "t must be >= 0"),
    (lambda: latin.SeedSets(4, ((0, 3),), ((2, 1),)), core.PreconditionViolated,
     "bad pair (2, 1)"),
    (lambda: latin.SeedSets(4, ((0, 4),), ((1, 2),)), core.PreconditionViolated,
     "bad pair (0, 4)"),
    (lambda: latin.LatinRectangle(4, 4, (((3, False),) * 4,) * 3), core.PreconditionViolated,
     "cell array has the wrong shape"),
    (lambda: latin.LatinRectangle(4, 4, (((3, False),) * 5,) * 4), core.PreconditionViolated,
     "cell array has the wrong shape"),
    (lambda: latin.LatinRectangle(4, 4, (((3, 1),) * 4,) * 4), core.PreconditionViolated,
     "bad cell (3, 1)"),
    (lambda: latin.LatinRectangle(4, 4, (((4, False),) * 4,) * 4), core.PreconditionViolated,
     "bad cell (4, False)"),
    (lambda: transversal.TransversalDesign(1, 2, 0, ()), core.PreconditionViolated,
     "group size must be positive, got 0"),
    (lambda: transversal.TransversalDesign(1, 2, 2, ((1, 3), (0, 2))),
     core.PreconditionViolated, "blocks must be sorted and duplicate-free"),
    (lambda: transversal.TransversalDesign(1, 2, 2, ((0, 2), (0, 2))),
     core.PreconditionViolated, "blocks must be sorted and duplicate-free"),
    (lambda: factorization.mds_product(factorization.PartitionablePacking(
        2, 3, 8, (((0, 1, 2),),))), factorization.ClassesNotSteiner,
     "no (2,3,8) Steiner system can exist"),
    (lambda: factorization.mds_45_product(factorization.PartitionablePacking(
        2, 3, 9, (((0, 1, 2),),)), 8), core.PreconditionViolated, "need 7 classes, got 1"),
], ids=["make_field-bool-after-int", "make_field-float-after-int", "make_field-float",
        "make_field-str", "make_field-unhashable-p", "make_field-unhashable-m",
        "LatinRectangle-float-cols", "LatinRectangle-str-cols",
        "interval_labeling-zero", "interval_labeling-negative", "interval_labeling-float",
        "interval_labeling-zero-v", "interval_labeling-negative-v",
        "existence_reference-zero", "existence_reference-float", "missing_pair_predicate-zero",
        "missing_pair_predicate-float", "sumcode-float-v", "sumcode-str-v",
        "failure_rate-float-k", "failure_rate-k6-v4", "failure_rate-k9-v4",
        "failure_rate-k8-v6", "sumcode-k9-v4", "latin_dispatch-str", "latin_dispatch-none",
        "latin_dispatch-float", "latin_dispatch-v7", "label_points-float-q", "label_points-bool-q",
        "evaluation_set-float-k", "label_points-zero-k", "label_points-zero-q",
        "label_points-negative-q", "structured_random-tuple-seed",
        "structured_random-negative-trials", "construct_td_sum-zero-t", "construct_td_sum-zero-m",
        "lemma1_bound-float-t",
        "theorem1_gap-unhashable-t", "max_balanced_packing-bool-t", "SearchBudget-str-max_nodes",
        "is_packing-negative-t", "SeedSets-descending-pair", "SeedSets-pair-above-p",
        "LatinRectangle-short", "LatinRectangle-long-rows", "LatinRectangle-int-flag",
        "LatinRectangle-value-p", "TransversalDesign-zero-q", "TransversalDesign-unsorted",
        "TransversalDesign-repeat", "mds_product-no-steiner", "mds_45_product-class-count"])
def test_helpers_refuse_parameters_they_cannot_use(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


# Every public entry that takes an int parameter, under the integer rule:
# each entry with one valid call, and every int parameter in turn replaced
# by each hostile value.  A float, a str, None, a list or a bool is refused,
# never read as an int.  derive_subdesign is the documented exception: a
# point that is not an int lies outside the ground set (OutOfRange).
HOSTILE = {"float": 2.0, "str": "3", "none": None, "list": [2], "bool": True}
INT_ENTRIES = [
    ("lemma1_bound", bounds.lemma1_bound, {"t": 2, "k": 3, "p_plus": 4, "p_minus": 3}),
    ("corollary_bound", bounds.corollary_bound, {"t": 2, "k": 3, "v": 9}),
    ("type_lp_bound", bounds.type_lp_bound, {"t": 2, "k": 3, "v": 9}),
    ("steiner_size", bounds.steiner_size, {"t": 2, "k": 3, "v": 9}),
    ("theorem1_gap", bounds.theorem1_gap, {"t": 2, "k": 3, "v": 9}),
    ("max_balanced_packing", oracle.max_balanced_packing, {"t": 2, "k": 3, "v": 6}),
    ("structured_random", functools.partial(oracle.structured_random, rng_seed=0),
     {"v": 9, "k": 3, "t": 1, "trials": 10}),
    ("SearchBudget", oracle.SearchBudget, {"max_nodes": 50}),
    ("triples_from_factorization", factorization.triples_from_factorization,
     {"p_plus": 6, "p_minus": 2}),
    ("one_factorization", factorization.one_factorization, {"n": 4}),
    ("singleton_classes", factorization.singleton_classes, {"n": 4}),
    ("large_set_sts", factorization.large_set_sts, {"v": 9}),
    ("augment_34", transversal.augment_34, {"m": 4}),
    ("augment_34_char2", transversal.augment_34_char2, {"m": 4}),
    ("construct_td", transversal.construct_td, {"t": 2, "k": 3, "q": 3}),
    ("construct_td_sum", transversal.construct_td_sum, {"t": 2, "m": 3}),
    ("babai_frankl.construct", babai_frankl.construct, {"q": 5, "k": 3, "t": 2}),
    ("sumcode.construct", sumcode.construct, {"v": 10, "k": 3}),
    ("seed_sets", latin.seed_sets, {"p_plus": 4}),
    ("latin_dispatch", latin_dispatch, {"v": 8}),
    ("make_field", gf.make_field, {"p": 3, "m": 2}),
    ("is_packing", functools.partial(core.is_packing, blocks=((0, 1, 2), (0, 3, 4))),
     {"t": 2}),
    ("interval_labeling", core.interval_labeling, {"v": 8, "k": 2}),
    ("mds_45_product", functools.partial(factorization.mds_45_product,
                                         factorization.large_set_sts(9)), {"p_minus": 8}),
]
INT_PARAMETERS = [pytest.param(call, kwargs, name, id=f"{entry}-{name}")
                  for entry, call, kwargs in INT_ENTRIES for name in kwargs]


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE)
@pytest.mark.parametrize("call, kwargs, name", INT_PARAMETERS)
def test_entries_refuse_every_non_integer_parameter(call, kwargs, name, value):
    call(**kwargs)
    with pytest.raises(core.PreconditionViolated):
        call(**{**kwargs, name: value})


@pytest.mark.parametrize("value", [10**5000, -10**5000], ids=["huge", "huge-negative"])
@pytest.mark.parametrize("call, kwargs, name", INT_PARAMETERS)
def test_entries_refuse_a_parameter_past_the_bit_budget(call, kwargs, name, value):
    # core.VALUE_BITS holds for parameters as it does for computed values:
    # refused at once by the one gate, naming the parameter and quoting
    # no value, so no message meets Python's 4 300-digit limit on printing
    start = time.perf_counter()
    with pytest.raises(core.PackingError, match="bits"):
        call(**{**kwargs, name: value})
    assert time.perf_counter() - start < 0.1


def _derivable():
    return core.make_packing(6, 2, 3, (1, 1, 1, -1, -1, -1), [(0, 1, 3), (0, 2, 4)])


# an int past the bit budget where a point or a pair belongs: the refusal
# quotes it by its bit length, in a short message
@pytest.mark.parametrize("call, error", [
    (lambda: BalancedPacking(3, 2, 2, Labeling((1, -1, 1)), ((0, 10**5000),)), core.OutOfRange),
    (lambda: core.discrepancy((0, 10**5000), Labeling((1, -1, 1))), core.OutOfRange),
    (lambda: latin.SeedSets(4, ((0, 10**5000),), ((1, 2),)), core.PreconditionViolated),
    (lambda: core.derive_subdesign(_derivable(), 10**5000, 2), core.OutOfRange),
], ids=["BalancedPacking-point", "discrepancy-point", "SeedSets-pair", "derive_subdesign-e1"])
def test_values_past_the_bit_budget_are_quoted_by_size(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and "bits" in str(caught.value)
    assert len(str(caught.value)) <= 200


def test_short_quotes_a_huge_int_by_its_bit_length():
    assert core._short(10**5000) == "<int of 16610 bits>"
    assert core._short(-10**5000) == "<int of 16610 bits>"
    assert core._short(2**8192 - 1) == "109074813561941592...6505665475715792895"  # within it
    assert len(core._short([10**5000] * 9)) <= 60


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
