"""The record classes (reports, problems, specs and constants) as values:
they pickle and copy to equal records, the frozen ones reject assignment,
a new VerdictReport's containers are fresh, and constructors validate."""

import copy
import pickle
from fractions import Fraction

import pytest

from ekrlab.families import EdgeGround, SetFamily, UniformFamily
from ekrlab.measures import InfluenceVector
from ekrlab.numerics import Checked
from ekrlab.report import HypothesisFlag, VerdictReport
from ekrlab.search import SearchCertificate, SearchProblem
from ekrlab.verify import DerivedConstants, ScanReport, TheoremCase
from ekrlab.zoo import FamilySpec, RootInfo

F = Fraction

CHECKED = Checked(F(1, 4), F(1, 3), F(1, 12), True, False, True, 30)
PAIRS = UniformFamily(4, 2, (0b0011, 0b0101, 0b1001))
CUBE = SetFamily(3, 0b10010110)
assert 0b011 not in CUBE  # fills the private byte cache

#: one instance of every record class, frozen ones first
FROZEN = [
    EdgeGround(4),
    CUBE,
    PAIRS,
    InfluenceVector(2, ((0, 1, 0), (0, 1, 0)), (0, 2, 0)),
    CHECKED,
    SearchProblem(6, 3, "t-intersecting", 2, 100, True),
    DerivedConstants(F(1, 2), F(1, 4), 2),
    TheoremCase("Biased1", {"p": F(1, 4), "eps": F(1, 16)}),
    FamilySpec("dictatorship", {"n": 3}),
    RootInfo(F(1, 2), True),
    HypothesisFlag("h", "holds", "1/4", "1/3", "note"),
    SearchCertificate(3, None, 17, {"nodes": 17}, False, True, True),
    pytest.param(SearchCertificate(3, PAIRS, 17, {"nodes": 17}, True, True,
                                   True), id="SearchCertificate-witness"),
    ScanReport("WilsonSharp", {"n": 9}, 12, [{"size": 4}], True, ["note"]),
]


def _verdict():
    rep = VerdictReport("Biased1")
    rep.add_flag("h", "fails")
    rep.witness = {"umvirate": [1]}
    rep.conclusion_holds = False
    rep.add_slack("slack", F(1, 2))
    rep.notes.append("a note")
    return rep


MUTABLE = [_verdict()]


def _state(x):
    """A record as its class and public field values, nested records
    included (a slot starting with "_" is a cache, not state)."""
    if hasattr(type(x), "__slots__") and type(x).__module__.startswith("ekrlab"):
        return (type(x), tuple(_state(getattr(x, s)) for s in x.__slots__
                               if not s.startswith("_")))
    if isinstance(x, (list, tuple)):
        return type(x)(map(_state, x))
    return x


@pytest.mark.parametrize("rec", FROZEN + MUTABLE, ids=lambda r: type(r).__name__)
def test_pickle_and_copy_round_trip(rec):
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec),
                 copy.deepcopy(rec)):
        assert type(twin) is type(rec)
        assert _state(twin) == _state(rec)


def test_copies_start_with_an_empty_cache():
    assert CUBE._buf is not None
    for twin in (pickle.loads(pickle.dumps(CUBE)), copy.copy(CUBE),
                 copy.deepcopy(CUBE)):
        assert twin._buf is None


@pytest.mark.parametrize("cls", [
    Checked, InfluenceVector, RootInfo, DerivedConstants, HypothesisFlag,
    ScanReport, SearchCertificate,
], ids=lambda c: c.__name__)
def test_plain_records_take_one_value_per_field(cls):
    # these records have no constructor of their own
    assert "__init__" not in vars(cls)
    fields = len(cls.__slots__)
    for count in (fields - 1, fields + 1):
        with pytest.raises(TypeError, match=rf"^{cls.__name__} takes "
                           rf"{fields} values .*, got {count}$"):
            cls(*range(count))


@pytest.mark.parametrize("rec", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_reject_assignment(rec):
    name = type(rec).__slots__[0]
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        rec.undeclared = 0
    assert getattr(rec, name) is before


@pytest.mark.parametrize("make, fields", [
    (lambda: VerdictReport("c"), ("hypotheses", "slacks", "notes")),
], ids=["VerdictReport"])
def test_default_containers_are_fresh(make, fields):
    # FamilySpec's default params are fresh too, but every family needs
    # parameters, so a spec built on them raises (see below)
    a, b = make(), make()
    for name in fields:
        assert getattr(a, name) == type(getattr(a, name))()
        assert getattr(a, name) is not getattr(b, name)


@pytest.mark.parametrize("make, message", [
    (lambda: SetFamily(-1, 0), r"ground size must be in \[0, 30\], got -1"),
    (lambda: SetFamily(31, 0), r"ground size must be in \[0, 30\], got 31"),
    (lambda: EdgeGround(1), "edge ground needs at least 2 vertices"),
    (lambda: EdgeGround(9), r"C\(9,2\) exceeds the dense family cap"),
    (lambda: SearchProblem(5, 2, "disjoint"), "unknown predicate 'disjoint'"),
    (lambda: SearchProblem(5, 2, t=0), "need t >= 1"),
    (lambda: SearchProblem(5, 2, budget=0), "need budget >= 1, got budget=0"),
    (lambda: FamilySpec("nope"), "unknown family 'nope'"),
    (lambda: FamilySpec("dictatorship"), r"missing parameters: \['n'\]"),
    (lambda: FamilySpec("dictatorship", [3]), r"params must be an object, got \[3\]"),
    (lambda: FamilySpec("dictatorship", {"n": "3"}),
     "parameter 'n' must be an integer"),
    (lambda: TheoremCase("Nope", {}), "unknown theorem 'Nope'"),
])
def test_constructors_validate(make, message):
    with pytest.raises(ValueError, match=message):
        make()
