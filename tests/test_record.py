"""The record contract of ggt's value classes, one sample per class."""

import copy
import pickle

import pytest

import ggt
from ggt import (CharPolyShape, Constituent, Cyc, FrobeniusOrbit, G2Check,
                 OrderSet, PrimePair, RealParameter, RootOfUnity, RootSystem,
                 SearchCertificate, SearchRequest, TameParameter,
                 TypeNPWitness, build_g2_jordan, build_so_wild,
                 build_tame_parameter, char_poly_shape, frobenius_orbit,
                 real_parameter, root_data)
from ggt.record import Record

SEVEN = [RootOfUnity(k, 7) for k in (0, 1, -1, 2, -2, 3, -3)]

SAMPLES = {
    "Cyc": lambda: Cyc(3, (1, 2, 0)),
    "TypeNPWitness": lambda: TypeNPWitness(7, 6, (1, 3, 2, 6, 4, 5)),
    "PrimePair": lambda: PrimePair(43, 7, 6),
    "SearchRequest": lambda: SearchRequest(3, 3, 3, 5),
    "SearchCertificate": lambda: SearchCertificate(
        SearchRequest(3, 3, 3, 5), PrimePair(43, 7, 6), 3, {"ok": True}),
    "FrobeniusOrbit": lambda: frobenius_orbit(RootOfUnity(1, 43), 7),
    "OrderSet": lambda: OrderSet(frozenset({1, 2, 3, 6}), "closed_form"),
    "RootData": lambda: root_data("G2"),
    "RootSystem": lambda: RootSystem(("A1", "G2")),
    "CharPolyShape": lambda: char_poly_shape(SEVEN),
    "G2Check": lambda: G2Check(True, "single orbit"),
    "RealParameter": lambda: real_parameter(["1/2", 1, "3/2"]),
    "TameParameter": lambda: build_tame_parameter(
        7, [RootOfUnity(1, 43)], 3),
    "Constituent": lambda: Constituent(0, 7, True, True),
    "G2JordanGroup": build_g2_jordan,
    "WildImageSO": lambda: build_so_wild(3),
}


def _values(rec) -> tuple:
    return tuple(getattr(rec, name) for name in type(rec)._fields)


def _hash(x):
    try:
        return hash(x)
    except TypeError as err:  # a dict or mappingproxy field
        return str(err)


def test_every_exported_record_class_has_a_sample():
    records = {name for name in ggt.__all__
               if isinstance(getattr(ggt, name), type)
               and issubclass(getattr(ggt, name), Record)}
    assert records == set(SAMPLES) and len(records) == 16


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_fields_give_equal_records(name):
    rec = SAMPLES[name]()
    assert type(rec).__name__ == name
    twin = type(rec)(*_values(rec))
    assert twin is not rec and twin == rec and not twin != rec
    assert _hash(twin) == _hash(rec)
    if name != "Cyc":  # Cyc hashes its reduced form, below
        assert _hash(rec) == _hash(_values(rec))


@pytest.mark.parametrize("name", SAMPLES)
def test_a_record_of_another_class_is_not_equal(name):
    rec = SAMPLES[name]()
    fields = type(rec)._fields
    lookalike = type("Lookalike", (Record,),
                     {"__annotations__": dict.fromkeys(fields, "object")})
    other = object.__new__(lookalike)
    vars(other).update(zip(fields, _values(rec)))
    assert other._fields == fields
    assert rec != other and other != rec
    assert rec != _values(rec)


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    rec = SAMPLES[name]()
    values = _values(rec)
    for field in type(rec)._fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(rec, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(rec, field)
    with pytest.raises(AttributeError, match="cannot assign"):
        rec.extra = 1
    assert _values(rec) == values


@pytest.mark.parametrize("name", SAMPLES)
def test_copies_and_pickles_are_equal(name):
    rec = SAMPLES[name]()
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_copies_of_the_shared_g2_group_are_that_group():
    # its matrix field is a read-only mappingproxy, which pickle and
    # deepcopy cannot take apart; the record reduces to build_g2_jordan
    group = build_g2_jordan()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(group, protocol)) is group
    assert copy.deepcopy(group) is group
    assert copy.copy(group) is group


@pytest.mark.parametrize("name", [n for n in SAMPLES if n != "Cyc"])
def test_repr_names_the_fields(name):
    rec = SAMPLES[name]()
    fields = ", ".join(f"{field}={value!r}" for field, value
                       in zip(type(rec)._fields, _values(rec)))
    assert repr(rec) == f"{name}({fields})"


def test_repr_of_a_prime_pair():
    assert repr(PrimePair(43, 7, 6)) == "PrimePair(p=43, q=7, m=6)"
    assert repr(RootSystem(("G2",))) == "RootSystem(components=('G2',))"


def test_repr_of_the_shared_g2_group_holds_no_address():
    # the same in every process: the FinGroup field prints its order and
    # generator count, not an object address
    text = repr(build_g2_jordan())
    assert " at 0x" not in text
    assert ", group=FinGroup(order=168, generators=3), jordan=" in text


def test_cyc_compares_and_hashes_by_its_value_in_the_ring():
    # 1 + 2z = z - z^2 in Z[zeta_3]
    a, b = Cyc(3, (1, 2, 0)), Cyc(3, (0, 1, -1))
    assert a == b and hash(a) == hash(b) and a.vec != b.vec
    assert repr(a) == "Cyc(3: 1*z^0 + 2*z^1)"


def test_cached_values_stay_out_of_equality_and_hash():
    # an orbit reads its selfdual when it is made, a tame parameter its
    # checks when first asked: both keep them out of the fields, so
    # equality and hash see the fields alone
    orbit = frobenius_orbit(RootOfUnity(1, 43), 7)
    fresh = FrobeniusOrbit(orbit.q, orbit.den, orbit.exponents)
    assert orbit.selfdual and fresh.selfdual
    assert FrobeniusOrbit._fields == ("q", "den", "exponents")
    assert "selfdual" in vars(fresh)
    assert orbit == fresh and hash(orbit) == hash(fresh)
    param = SAMPLES["TameParameter"]()
    again = TameParameter(*_values(param))
    assert "_checks" in vars(param) and "_checks" not in vars(again)
    assert param == again and hash(param) == hash(again)


def test_defaults_and_keywords_follow_the_fields():
    request = SearchRequest(n=3, ell=3, t=3, d=5)
    assert request.conductor_bound == 100
    cert = SearchCertificate(request=request, pair=PrimePair(43, 7, 6),
                             k_min=3, checks={})
    assert cert.flags == ()
    assert RealParameter._fields == ("a",)
    assert CharPolyShape._fields == ("passes", "coeffs")


@pytest.mark.parametrize("build", [
    lambda: PrimePair(5, 5, 4),
    lambda: PrimePair(43, 7, 3),
    lambda: SearchRequest(0, 3, 3, 5),
    lambda: SearchRequest(3, 4, 3, 5),
    lambda: Cyc(3, (1, 2)),
    lambda: RootSystem(("G2", "A1")),
])
def test_constructor_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()
