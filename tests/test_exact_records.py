"""The record contract of `exact`'s four frozen records. Each writes its own
`__init__`, and dataclass generates the rest, so these tests pin what the
rest of the program relies on: the constructor matches the field list, the
fields cannot be set, and `dataclasses.replace`, pickling, eq, hash and repr
behave as for a generated record."""

import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from rationalqm.exact import (CosineKind, ExactCosine, RationalAngle, Surd,
                              TriangleVerdict, itc_verdict, niven_cosine,
                              spherical_third_side)

RECORDS = [RationalAngle, Surd, ExactCosine, TriangleVerdict]


def _samples():
    """(id, record) for at least one instance of each class, every kind of
    ExactCosine and both verdicts among them."""
    surd_cert = niven_cosine(RationalAngle(Fraction(1, 8)))
    crossed = spherical_third_side(Fraction(3, 5), Fraction(4, 5),
                                   RationalAngle(Fraction(1, 7)))
    return [
        ("angle", RationalAngle(Fraction(1, 5))),
        ("surd", surd_cert.surd),
        ("rational-surd", Surd(Fraction(1, 2), Fraction(0), Fraction(4))),
        ("cos-rational", niven_cosine(RationalAngle(Fraction(1, 6)))),
        ("cos-surd", surd_cert),
        ("cos-niven", niven_cosine(RationalAngle(Fraction(2, 7)))),
        ("cos-niven-crossed", crossed),
        ("verdict-impossible", itc_verdict(Fraction(3, 5), Fraction(4, 5),
                                           RationalAngle(Fraction(1, 360)))),
        ("verdict-possible", itc_verdict(Fraction(3, 5), Fraction(3, 5),
                                         RationalAngle(Fraction(1, 2)))),
    ]


SAMPLES = _samples()
SAMPLE_IDS = [name for name, _ in SAMPLES]
SAMPLE_RECORDS = [record for _, record in SAMPLES]


def test_samples_cover_every_record_and_kind():
    assert {type(r) for r in SAMPLE_RECORDS} == set(RECORDS)
    assert {r.kind for r in SAMPLE_RECORDS if type(r) is ExactCosine} == set(CosineKind)
    assert {r.possible for r in SAMPLE_RECORDS if type(r) is TriangleVerdict} == {
        True, False}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_init_parameters_are_the_fields(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(params)
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        for f in fields]


@pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=SAMPLE_IDS)
def test_instance_holds_exactly_its_fields(record):
    assert list(vars(record)) == [f.name for f in dataclasses.fields(record)]


@pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=SAMPLE_IDS)
def test_every_field_is_frozen(record):
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
        assert getattr(record, f.name) is value


@pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=SAMPLE_IDS)
def test_replace_round_trip(record):
    copy = dataclasses.replace(record)
    assert copy is not record and type(copy) is type(record)
    assert copy == record and hash(copy) == hash(record)
    assert repr(copy) == repr(record)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=SAMPLE_IDS)
def test_pickle_round_trip(record, protocol):
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert type(copy) is type(record)
    assert copy == record and hash(copy) == hash(record)
    assert list(vars(copy)) == list(vars(record))


def test_repr_and_eq_are_generated():
    assert repr(RationalAngle(Fraction(1, 5))) == "RationalAngle(turns=Fraction(1, 5))"
    assert repr(Surd(Fraction(0), Fraction(1, 2), Fraction(2))) == (
        "Surd(a=Fraction(0, 1), b=Fraction(1, 2), d=Fraction(2, 1))")
    assert ExactCosine(CosineKind.RATIONAL, rational=Fraction(1, 2)) == (
        ExactCosine.from_rational(Fraction(1, 2)))
    assert ExactCosine(CosineKind.RATIONAL, rational=Fraction(1, 2)) != (
        ExactCosine(CosineKind.RATIONAL, rational=Fraction(-1, 2)))
    assert RationalAngle(Fraction(1, 5)) != Fraction(1, 5)


def test_replace_runs_the_constructor_checks():
    angle = RationalAngle(Fraction(1, 5))
    assert dataclasses.replace(angle, turns=Fraction(7, 6)).turns == Fraction(1, 6)
    with pytest.raises(TypeError):
        dataclasses.replace(angle, turns=0.5)
    surd = niven_cosine(RationalAngle(Fraction(1, 8))).surd
    with pytest.raises(ValueError, match="perfect square"):
        dataclasses.replace(surd, d=Fraction(4))


@pytest.mark.parametrize("turns", [
    0, 1, -1, 3, -7, True, Fraction(1), Fraction(-1), Fraction(7, 6),
    Fraction(-1, 6), Fraction(-5, 2), Fraction(13, 5), Fraction(-13, 5),
])
def test_turns_normalised_like_fraction_mod_one(turns):
    got = RationalAngle(turns).turns
    assert type(got) is Fraction
    assert got == Fraction(turns) % 1


@pytest.mark.parametrize("turns", [Fraction(0), Fraction(1, 5), Fraction(999, 1000)])
def test_in_range_turns_kept_as_given(turns):
    assert RationalAngle(turns).turns is turns


@pytest.mark.parametrize("possible", [True, False])
def test_replace_flips_a_verdict(possible):
    # The benchmark's self-test corrupts an ITC verdict this way.
    verdict = itc_verdict(Fraction(3, 5), Fraction(4, 5),
                          RationalAngle(Fraction(1, 360)))
    flipped = dataclasses.replace(verdict, possible=possible)
    assert flipped.possible is possible and verdict.possible is False
    assert flipped.third_side is verdict.third_side
    assert flipped.reason is verdict.reason
    assert (flipped == verdict) is (possible is False)
