import pytest

from formgaps.analytic_constants import TruncatedValue
from formgaps.arith import Factorization, factorize
from formgaps.census import CensusRecord
from formgaps.characters import DirichletCharacter, chi4, kronecker_character
from formgaps.errors import InvariantError
from formgaps.gaps import GapWitness
from formgaps.record import Record
from formgaps.repr_sets import SQUARE2, SetId, diamond
from formgaps.verify import CheckResult

# One instance of each record, then for each field a value that differs
# from the instance's.
RECORDS = {
    "Factorization": (Factorization(12, ((2, 2), (3, 1))),
                      {"value": 18, "factors": ((2, 1), (3, 2))}),
    "DirichletCharacter": (DirichletCharacter("chi4", -4, 4),
                           {"name": "chi4'", "disc": -3, "modulus": 12}),
    "SetId": (SetId("diamond", -4), {"tag": "diamond'", "disc": -23}),
    "CensusRecord": (CensusRecord(SQUARE2, SQUARE2, 1, 1, 9, 4, (1, 4, 8, 9)),
                     {"set1": diamond(-4), "set2": diamond(-4), "a": 2, "x": 2, "H": 8,
                      "count": 3, "witnesses": (1, 4, 8)}),
    "TruncatedValue": (TruncatedValue(0.5, 1e-16, 3),
                       {"value": 0.25, "error_bound": 0.0, "terms_used": 4}),
    "GapWitness": (GapWitness(3, 100, 101, "SQ2_SQ2", {"s": 10}),
                   {"a": 4, "x": 99, "n": 102, "branch": "GENERIC", "params": {"s": 11}}),
    "CheckResult": (CheckResult("oracles", "r2", True, 8), {"suite": "lemmas", "name": "R2",
                                                           "ok": False, "checks": 9,
                                                           "detail": "[1]"}),
}


def changed(r, field, value):
    """r with one field replaced, past __post_init__ (a Factorization's two
    fields cannot change alone)."""
    new = object.__new__(type(r))
    vars(new).update({**{f: getattr(r, f) for f in r._fields}, field: value})
    return new


@pytest.mark.parametrize("name", RECORDS)
def test_fields_keep_their_order_and_construction(name):
    r, others = RECORDS[name]
    assert r._fields == tuple(others)
    values = [getattr(r, f) for f in r._fields]
    assert type(r)(*values) == r == type(r)(**dict(zip(r._fields, values)))
    with pytest.raises(TypeError):
        type(r)(*values, 0)  # one positional too many
    with pytest.raises(TypeError):
        type(r)(*values[1:], **{r._fields[0]: values[0], r._fields[1]: values[1]})


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hashing_read_every_field(name):
    r, others = RECORDS[name]
    twin = changed(r, r._fields[0], getattr(r, r._fields[0]))
    assert twin == r and twin is not r and not twin != r
    for field, value in others.items():
        other = changed(r, field, value)
        assert other != r and not other == r, field
        if name != "GapWitness":  # its params dict is unhashable, as is the record
            assert hash(other) != hash(r) and len({r, other}) == 2, field
    if name != "GapWitness":
        assert hash(twin) == hash(r) and {r: 1}[twin] == 1
    assert r != tuple(getattr(r, f) for f in r._fields)  # not a tuple, unlike a NamedTuple


def test_gap_witness_is_unhashable():
    with pytest.raises(TypeError):
        hash(RECORDS["GapWitness"][0])


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    r, _ = RECORDS[name]
    for field in (*r._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(r, field, 0)
        with pytest.raises(AttributeError):
            delattr(r, field)


def test_repr_names_each_field():
    assert repr(SetId("diamond", -4)) == "SetId(tag='diamond', disc=-4)"
    assert repr(SetId("square2")) == "SetId(tag='square2', disc=None)"
    assert repr(TruncatedValue(0.5, 0.0, 3)) == \
        "TruncatedValue(value=0.5, error_bound=0.0, terms_used=3)"
    assert repr(factorize(12)) == "Factorization(value=12, factors=((2, 2), (3, 1)))"


def test_defaults():
    assert SetId("square2").disc is None and SetId("square2") == SQUARE2
    assert SetId(tag="diamond", disc=5) == SetId("diamond", 5)
    assert CheckResult("s", "n", True, 1).detail == ""
    with pytest.raises(TypeError):
        SetId()


def test_post_init_checks_run():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        TruncatedValue(1.0, -1.0, 3)
    with pytest.raises(InvariantError):
        GapWitness(1, 10, 10, "SQ2_SQ2", {})


def test_cached_property_survives_the_frozen_record():
    psi = DirichletCharacter("kronecker(-20)", -20, 20)
    assert "values" not in vars(psi)
    values = psi.values
    assert vars(psi)["values"] is values and psi.values is values
    assert psi == DirichletCharacter("kronecker(-20)", -20, 20)  # the cache is no field
    assert kronecker_character(-20) is kronecker_character(-20) and chi4() is chi4()


def test_fields_are_the_class_annotations():
    class Point(Record):
        x: int
        y: int = 0

    assert Point._fields == ("x", "y") and Point(1) == Point(x=1, y=0)
    assert Point(1) != RECORDS["SetId"][0] and Point(1, 2) != Point(2, 1)
