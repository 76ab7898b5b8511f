"""The frozen-record contract of every result and value class.

``base.record`` stands in for ``@dataclass(frozen=True)``; each class
is checked against a real frozen dataclass with the same fields.
"""

import dataclasses

import pytest

from braidkernel import (
    RP2, AbelianInvariants, CenterDescription, CoverDecision, DerivationChain,
    DerivationReport, DerivationStep, GroupHom, HomCheckResult, KernelDescription, Presentation,
    RewriteSystem, SurfaceKind, Word, can_cover, center_table, kernel_description, knuth_bendix,
    presentation, quaternion_presentation,
)
from braidkernel.base import record

Z3 = presentation("Z3", ["a"], ["a^3"])
A = Z3.gen("a")

RECORDS = {
    "Word": lambda: Z3.word("a^2"),
    "Presentation": lambda: Z3,
    "AbelianInvariants": lambda: AbelianInvariants(1, (2, 4)),
    "GroupHom": lambda: GroupHom(Z3, Z3, (A ** 2,)),
    "HomCheckResult": lambda: HomCheckResult("failed", 0),
    "CenterDescription": lambda: center_table(RP2, 2),
    "DerivationStep": lambda: DerivationStep(0, 1, -1, 2),
    "DerivationChain": lambda: DerivationChain(Z3, A, (DerivationStep(0, 0, 1, 0),), A ** 4),
    "DerivationReport": lambda: DerivationReport(True, None, "valid: 1 steps replayed", A),
    "RewriteSystem": lambda: knuth_bendix(Z3),
    "SurfaceKind": lambda: SurfaceKind(False, 2),
    "CoverDecision": lambda: can_cover(SurfaceKind(False, 2), SurfaceKind(True, 1), 2),
    "KernelDescription": lambda: kernel_description(RP2, 2, True),
}


def field_values(obj):
    return tuple(getattr(obj, name) for name in type(obj).__annotations__)


def dataclass_twin(cls):
    """A frozen dataclass with the fields and defaults of ``cls``, and no checks."""
    return dataclasses.make_dataclass(
        cls.__qualname__,
        [(name, object, dataclasses.field(default=cls.__dict__[name]))
         if name in cls.__dict__ else (name, object) for name in cls.__annotations__],
        frozen=True)


def test_every_record_class_is_covered():
    assert len(RECORDS) == 13
    for name, make in RECORDS.items():
        assert type(make()).__qualname__ == name


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_matches_a_frozen_dataclass(make):
    obj = make()
    cls = type(obj)
    values = field_values(obj)
    twin = dataclass_twin(cls)(*values)
    assert repr(obj) == repr(twin)
    assert hash(obj) == hash(values) == hash(twin)
    assert obj != twin and twin != obj
    assert obj != values and obj.__eq__(values) is NotImplemented


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_construction_and_equality(make):
    obj = make()
    cls = type(obj)
    values = field_values(obj)
    by_name = dict(zip(cls.__annotations__, values))
    assert cls(*values) == obj == cls(**by_name)
    assert not cls(*values) != obj
    assert len({obj, cls(*values)}) == 1
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{next(iter(by_name)): values[0]})
    with pytest.raises(TypeError):
        cls(**by_name, no_such_field=1)
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_is_frozen(make):
    obj = make()
    for name in (*type(obj).__annotations__, "no_such_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert field_values(obj) == field_values(make())


def test_pinned_reprs():
    assert repr(Z3.word("a^2")) == "Word(alphabet=('a',), syllables=((0, 2),))"
    assert repr(SurfaceKind(False, 1)) == "SurfaceKind(orientable=False, genus=1)"
    assert repr(DerivationStep(0, 1, -1, 2)) == \
        "DerivationStep(relator=0, rotation=1, direction=-1, position=2)"


@pytest.mark.parametrize("cls,args,field,default", [
    (HomCheckResult, ("verified",), "relator_index", None),
    (DerivationReport, (False, 3, "step 3 does not apply"), "end", None),
    (CoverDecision, (True, None, "no obstruction"), "witness", None),
])
def test_defaults(cls, args, field, default):
    obj = cls(*args)
    assert getattr(obj, field) is default
    assert obj == cls(*args, **{field: default})
    assert getattr(cls(*args, **{field: 7}), field) == 7


@pytest.mark.parametrize("build,message", [
    (lambda: Word(("a",), ((1, 1),)), "generator index 1 out of range"),
    (lambda: Word(alphabet=("a",), syllables=((0, 0),)), "zero exponent"),
    (lambda: Presentation("G", ("a", "a"), ()), "duplicate generator name"),
    (lambda: Presentation("G", ("b",), (A,)), "over a different alphabet"),
    (lambda: AbelianInvariants(-1, ()), "negative free rank"),
    (lambda: AbelianInvariants(rank=0, torsion=(2, 3)), "divisibility chain"),
    (lambda: AbelianInvariants(0, (1, 2)), "torsion coefficients must be >= 2"),
    (lambda: GroupHom(Z3, Z3, ()), "expected 1 generator images, got 0"),
    (lambda: GroupHom(Z3, quaternion_presentation(), (A,)), "wrong alphabet"),
    (lambda: SurfaceKind(orientable=True, genus=-1), "orientable genus must be >= 0"),
    (lambda: SurfaceKind(False, 0), "crosscaps"),
])
def test_post_init_validates(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_post_init_normalises_with_object_setattr():
    b = presentation("G", ["a", "b"], []).gen("b")
    p = Presentation("G", b.alphabet, (b * b.inverse(), b * b * b.inverse(), b))
    assert p.relators == (b,)
    assert field_values(p) == ("G", ("a", "b"), (b,))
    assert hash(p) == hash(("G", ("a", "b"), (b,)))


def test_cached_property_keeps_equality_and_hash():
    rs = knuth_bendix(Z3)
    fresh = RewriteSystem(rs.alphabet, rs.rules, rs.confluent)
    index = rs.index
    assert rs.index is index and "index" in vars(rs) and "index" not in vars(fresh)
    assert rs == fresh and fresh == rs
    assert hash(rs) == hash(fresh) == hash((rs.alphabet, rs.rules, rs.confluent))
    assert repr(rs) == repr(fresh)
    assert rs != RewriteSystem(rs.alphabet, rs.rules, not rs.confluent)
    assert fresh.index == index



def test_one_field_record_keeps_the_tuple_hash():
    @record
    class Single:
        value: int

    assert hash(Single(3)) == hash((3,))
    assert repr(Single(value=3)).endswith("Single(value=3)")
    assert Single(3) == Single(3) != Single(4)
