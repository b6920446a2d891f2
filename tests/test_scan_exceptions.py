"""`exact.exceptional_triangles` visits one bucket of sides per side and
angle; the plain double loop over every pair of sides and every angle is the
reference. `scan-exceptions` only lists what the generator yields."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalqm import exact
from rationalqm.cli import cmd_scan_exceptions
from rationalqm.exact import (RationalAngle, exceptional_triangles,
                              spherical_third_side)


def reference_scan(max_den: int, turns: list) -> list:
    sides = [c for q in range(2, max_den + 1) for p in range(1 - q, q)
             if (c := Fraction(p, q)).denominator == q]
    return [(a, b, phi.turns, third.rational)
            for a in sides for b in sides if b.denominator >= a.denominator
            for phi in turns
            if (third := spherical_third_side(a, b, phi)).is_rational
            and a * b != third.rational]


def scan(max_den: int, turns: list) -> list:
    return list(exceptional_triangles(max_den, turns))


def angles(text: str) -> list:
    return [RationalAngle(Fraction(part)) for part in text.split(",")]


TURN_SETS = {
    "default": "1/8,3/8,1/12,5/12",
    "rational-cos-sq": "0,1/2,1/3,2/3,1/4,3/4,1/6,5/6,1/8,5/8,7/8,7/12,11/12",
    "mixed-with-repeats": "1/5,1/8,2/7,1/10,1/8,1/6,1/24,5/12,1/3",
    "irrational-cos-sq": "1/5,1/7,1/9,1/10,1/16,1/24",
}


@pytest.mark.parametrize("name", sorted(TURN_SETS))
def test_matches_the_double_loop_up_to_12(name):
    turns = angles(TURN_SETS[name])
    for max_den in range(2, 13):
        assert scan(max_den, turns) == reference_scan(max_den, turns), max_den


@settings(max_examples=40, deadline=None)
@given(max_den=st.integers(2, 9),
       turns=st.lists(st.builds(Fraction, st.integers(0, 24), st.integers(1, 24)),
                      min_size=1, max_size=5))
def test_matches_the_double_loop_on_random_turn_sets(max_den, turns):
    angles = [RationalAngle(t) for t in turns]
    assert scan(max_den, angles) == reference_scan(max_den, angles)


def _refuse(*args, **kwargs):
    raise AssertionError("the scan built a certificate")


def test_the_scan_builds_no_certificate(monkeypatch):
    # The kernel identity decides each triangle, and one isqrt gives its
    # third side: no certificate is built for any candidate.
    turns = angles(TURN_SETS["default"])
    expected = reference_scan(12, turns)
    monkeypatch.setattr(exact, "spherical_third_side", _refuse)
    monkeypatch.setattr(exact, "_surd", _refuse)
    monkeypatch.setattr(exact.ExactCosine, "__init__", _refuse)
    assert scan(12, turns) == expected


def test_a_candidate_without_a_square_root_raises(monkeypatch):
    # With every kernel 1, all sides share one bucket, and the first candidate
    # (-1/2, -1/2 at 1/8 turn) has R = 3 * 3 * 2, which is not a square.
    monkeypatch.setattr(exact, "_product_kernel", lambda x, y: 1)
    with pytest.raises(RuntimeError, match=r"-1/2, -1/2, 1/8 turns"):
        scan(12, angles(TURN_SETS["default"]))


@pytest.mark.parametrize("irrational", ["1/5", "1/10", "1/5,1/10"])
@pytest.mark.parametrize("max_den", [2, 12, 20])
def test_an_angle_with_irrational_cos_squared_adds_nothing(irrational, max_den):
    alone = scan(max_den, angles("1/8"))
    assert scan(max_den, angles(f"1/8,{irrational}")) == alone
    assert scan(max_den, angles(f"{irrational},1/8")) == alone
    assert scan(max_den, angles(irrational)) == []


def test_the_command_lists_what_the_generator_yields():
    turns = angles(TURN_SETS["default"])
    report, lines = cmd_scan_exceptions(SimpleNamespace(max_den=12, turns=turns))
    expected = reference_scan(12, turns)
    assert len(expected) == 496
    assert report == {"max_den": 12, "triangles": [
        {"cos_ab": a, "cos_bc": b, "turns": t, "third_side": c}
        for a, b, t, c in expected]}
    assert lines == [f"cos_ab={a}, cos_bc={b}, phi={t} turns -> {c}"
                     for a, b, t, c in expected] + ["496 exceptional triangles found"]
