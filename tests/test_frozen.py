"""The private ``abelian._frozen`` decorator against ``dataclass(frozen=True)``.

Each of kfour's twelve value classes is rebuilt as a frozen dataclass from
the same annotations, defaults, ``__post_init__`` and ``__repr__``; the two
must construct, compare, hash, print and refuse mutation alike.
"""

import dataclasses
import inspect

import pytest
from conftest import make_ring

from kfour import (
    CohomologyRing,
    Counterexample,
    CupForm,
    FgGroup,
    GroupStructureReport,
    IntMatrix,
    KClass,
    OracleComparison,
    RelationCheck,
    ValidationIssue,
    ValidationReport,
    VerificationReport,
)

Z2 = FgGroup(0, (2,))
RP4 = make_ring(Z2, Z2, {(0, 0): (1,)})
CP2 = make_ring(FgGroup(1), FgGroup(1), {(0, 0): (1,)})
CHECK = RelationCheck("r1", "L(0) = 1", 4, 0)
REPORT = VerificationReport((CHECK,))
GROUP = GroupStructureReport(0, (4,))
INVALID = CohomologyRing(Z2, FgGroup(1), CupForm(1, 1, (((0, 0), (1,)),)))  # 2x^2 != 0

# per class: argument tuples, the later ones differing from or equal to the
# earlier ones; keyword forms and defaults are derived from these
CASES = {
    FgGroup: [(), (1,), (1, [3, 2]), (1, (3, 2)), (0, (2,))],
    IntMatrix: [(0, 0, ()), (2, 2, [[1, 2], [3, 4]]), (2, 2, ((1, 2), (3, 4))), (1, 2, [(5, 6)])],
    GroupStructureReport: [(0,), (1, [2, 4]), (1, (2, 4)), (0, (2,))],
    CupForm: [(1, 1, [((0, 0), [1])]), (1, 1, (((0, 0), (1,)),)), (2, 1, [((1, 0), (1,)), ((0, 1), (1,))])],
    ValidationIssue: [("symmetry", 0, 1, "m"), ("torsion", 0, 0, "m"), ("symmetry", 0, 1, "m")],
    ValidationReport: [(), ((ValidationIssue("symmetry", 0, 1, "m"),),), ((),)],
    CohomologyRing: [
        (Z2, Z2, CupForm(1, 1, (((0, 0), (1,)),))),
        (Z2, Z2, CupForm(1, 1, (((0, 0), (3,)),))),  # reduced to RP4's form
        (Z2, Z2, CupForm(1, 1, (((0, 0), (2,)),))),  # reduced to the zero form
        (FgGroup(1), FgGroup(1), CupForm(1, 1, (((0, 0), (1,)),))),
    ],
    KClass: [(RP4, 1, (0,), (0,)), (RP4, 1, [3], [-1]), (RP4, 1, (1,), (1,)), (CP2, 1, (1,), (1,))],
    Counterexample: [((("a", 1),), 2, 3), ((("a", 1),), 2, 3), ((), None, [1])],
    RelationCheck: [("r1", "L(0) = 1", 4, 0), ("r1", "L(0) = 1", 4, 0, ()), ("r2", "d", 1, 1)],
    VerificationReport: [((CHECK,),), ((),), ((CHECK, CHECK),)],
    OracleComparison: [
        (GROUP, GROUP, REPORT, REPORT, True),
        (GROUP, GROUP, REPORT, REPORT, False),
        (GROUP, GroupStructureReport(0, (2, 2)), REPORT, REPORT, True),
    ],
}

# construction errors that __post_init__ raises, identically on both sides
REFUSED = {
    FgGroup: [(-1,), (0, (1,))],
    IntMatrix: [(-1, 0, ()), (2, 1, [(1,)]), (1, 2, [(1,)])],
    GroupStructureReport: [(-1,), (0, (1,)), (0, (4, 2))],
    CupForm: [(1, 1, [((0, 1), (1,))]), (1, 1, [((0, 0), (1,)), ((0, 0), (1,))])],
    CohomologyRing: [(Z2, Z2, CupForm(2, 1, ()))],
    KClass: [(INVALID, 0, (0,), (0,)), (RP4, 0, (0, 0), (0,))],
}


def fields(cls):
    return list(cls.__dict__["__annotations__"])


def twin(cls):
    """A frozen dataclass with the same fields, defaults and hooks as cls."""
    body = {n: cls.__dict__[n] for n in fields(cls) if n in cls.__dict__}
    body["__annotations__"] = dict(cls.__dict__["__annotations__"])
    source = inspect.getsource(cls)
    for hook in ("__post_init__", "__repr__"):
        if f"def {hook}(" in source:  # the class body wrote it; no decorator did
            body[hook] = cls.__dict__[hook]
    made = type(cls.__name__, (), body)
    made.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(made)


TWINS = {cls: twin(cls) for cls in CASES}


def values(cls):
    return [cls(*args) for args in CASES[cls]], [TWINS[cls](*args) for args in CASES[cls]]


def as_tuple(value):
    return tuple(getattr(value, n) for n in fields(type(value)))


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as err:  # a field holds an unhashable value
        return str(err)


def test_every_value_class_is_covered():
    import kfour

    frozen = {
        obj for obj in vars(kfour).values()
        if isinstance(obj, type) and "__setattr__" in vars(obj)
    }
    assert frozen == set(CASES)
    assert len(CASES) == 12
    assert [cls for cls in CASES if "__repr__" in vars(TWINS[cls])] == list(CASES)
    assert [cls for cls in CASES if TWINS[cls].__repr__ is cls.__repr__] == [KClass]


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
class TestAgainstDataclass:
    def test_signature(self, cls):
        ours = inspect.signature(cls).parameters.values()
        theirs = inspect.signature(TWINS[cls]).parameters.values()
        assert [(p.name, p.kind, p.default) for p in ours] == [
            (p.name, p.kind, p.default) for p in theirs
        ]

    def test_positional_keyword_and_default_construction(self, cls):
        for args in CASES[cls]:
            ours, theirs = cls(*args), TWINS[cls](*args)
            assert as_tuple(ours) == as_tuple(theirs)  # __post_init__ canonicalised
            keywords = dict(zip(fields(cls), args))
            assert as_tuple(cls(**keywords)) == as_tuple(theirs)
            assert as_tuple(TWINS[cls](**keywords)) == as_tuple(theirs)
        defaults = [n for n in fields(cls) if n in cls.__dict__]
        if len(defaults) == len(fields(cls)):
            assert as_tuple(cls()) == as_tuple(TWINS[cls]())

    def test_wrong_arguments_raise_type_error(self, cls):
        for build in (cls, TWINS[cls]):
            with pytest.raises(TypeError):
                build(*CASES[cls][-1], None, None, None, None, None, None)
            with pytest.raises(TypeError):
                build(no_such_field=1)

    def test_refusals_match(self, cls):
        for args in REFUSED.get(cls, []):
            with pytest.raises(Exception) as ours:
                cls(*args)
            with pytest.raises(Exception) as theirs:
                TWINS[cls](*args)
            assert (type(ours.value), str(ours.value)) == (
                type(theirs.value), str(theirs.value)
            )

    def test_repr(self, cls):
        for ours, theirs in zip(*values(cls)):
            assert repr(ours) == repr(theirs)

    def test_equality_and_hash(self, cls):
        ours, theirs = values(cls)
        again, _ = values(cls)
        for i, (a, ta) in enumerate(zip(ours, theirs)):
            for b, tb in zip(again, theirs):
                assert (a == b) == (ta == tb)
                assert (a != b) == (ta != tb)
                if a == b:
                    assert hash_or_error(a) == hash_or_error(b)
            assert hash_or_error(a) == hash_or_error(ta)  # the same tuple of fields
            assert a == again[i] and a is not again[i]

    def test_other_classes_and_tuples_are_not_equal(self, cls):
        for side in (0, 1):
            mine, peers = values(cls)[side], values(cls)[1 - side]
            others = [values(other)[side][0] for other in CASES if other is not cls]
            for a, peer in zip(mine, peers):
                for other in [as_tuple(a), peer, *others]:
                    assert a.__eq__(other) is NotImplemented
                    assert (a == other, a != other) == (False, True)

    def test_mutation_raises_attribute_error(self, cls):
        for value in [*values(cls)[0][:1], *values(cls)[1][:1]]:
            for name in [*fields(cls), "new_attribute"]:
                with pytest.raises(AttributeError):
                    setattr(value, name, 1)
                with pytest.raises(AttributeError):
                    delattr(value, name)
            assert as_tuple(value) == as_tuple(type(value)(*CASES[cls][0]))


def test_field_twins_with_equal_values_are_unequal():
    # same field values in two classes: dataclass equality requires the class
    assert FgGroup(1, (2,)) != GroupStructureReport(1, (2,))
    assert TWINS[FgGroup](1, (2,)) != TWINS[GroupStructureReport](1, (2,))


def test_cached_properties_still_cache():
    group = FgGroup(1, (2, 3))
    assert group._moduli is group._moduli == (0, 2, 3)
    ring = make_ring(Z2, Z2, {(0, 0): (1,)})
    assert ring._validation is ring.validate()
    assert "_moduli" in vars(group) and "_validation" in vars(ring)


def test_own_repr_is_kept():
    # KClass's own __repr__ leaves the ring out; the decorator's would print it
    assert repr(KClass(RP4, 1, (3,), (1,))) == "KClass(rank=1, c1=(1,), c2=(1,))"
