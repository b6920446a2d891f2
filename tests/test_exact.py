import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalqm.exact import (CosineKind, ExactCosine,
                              RATIONAL_COS_DENOMINATORS,
                              RATIONAL_COS_SQ_DENOMINATORS, RationalAngle,
                              Surd, cos_squared, is_perfect_square,
                              itc_verdict, niven_cosine, parse_fraction,
                              spherical_third_side)

TOL = mpmath.mpf(2) ** -150


def numeric_cos(turns: Fraction) -> mpmath.mpf:
    with mpmath.workprec(200):
        return mpmath.cos(2 * mpmath.pi * mpmath.mpf(turns.numerator)
                          / turns.denominator)


class TestNivenCosine:
    def test_sixth_turn_is_one_half(self):
        out = niven_cosine(RationalAngle(Fraction(1, 6)))
        assert out.is_rational and out.rational == Fraction(1, 2)

    def test_zero_turn_is_one(self):
        out = niven_cosine(RationalAngle(Fraction(0)))
        assert out.is_rational and out.rational == 1

    def test_fifth_turn_is_irrational_with_witness(self):
        out = niven_cosine(RationalAngle(Fraction(1, 5)))
        assert out.kind is CosineKind.IRRATIONAL_BY_NIVEN
        assert out.witness.turns == Fraction(1, 5)

    def test_eighth_turn_is_half_sqrt_two(self):
        out = niven_cosine(RationalAngle(Fraction(1, 8)))
        assert out.kind is CosineKind.IRRATIONAL_SURD
        assert out.surd == Surd(Fraction(0), Fraction(1, 2), Fraction(2))

    @pytest.mark.parametrize("turns,value", [
        (Fraction(1, 2), -1), (Fraction(1, 3), Fraction(-1, 2)),
        (Fraction(2, 3), Fraction(-1, 2)), (Fraction(1, 4), 0),
        (Fraction(3, 4), 0), (Fraction(5, 6), Fraction(1, 2)),
    ])
    def test_rational_table(self, turns, value):
        out = niven_cosine(RationalAngle(turns))
        assert out.is_rational and out.rational == value

    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    @settings(max_examples=300)
    def test_rational_iff_denominator_in_set(self, turns):
        angle = RationalAngle(turns)
        out = niven_cosine(angle)
        assert out.is_rational == (angle.denominator in RATIONAL_COS_DENOMINATORS)
        # every classification agrees with a 200-bit evaluation
        assert abs(out.numeric(200) - numeric_cos(angle.turns)) < TOL

    def test_cos_squared_denominators(self):
        for d in range(1, 40):
            angle = RationalAngle(Fraction(1, d))
            c2 = cos_squared(angle)
            if angle.denominator in RATIONAL_COS_SQ_DENOMINATORS:
                assert c2 is not None
                assert abs(float(c2) - math.cos(2 * math.pi / d) ** 2) < 1e-12
            else:
                assert c2 is None


class TestPerfectSquare:
    def test_rational_square(self):
        assert is_perfect_square(Fraction(144, 625)) == Fraction(12, 25)

    def test_one(self):
        assert is_perfect_square(Fraction(1)) == 1

    def test_two_is_not_square(self):
        assert is_perfect_square(Fraction(2)) is None

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            is_perfect_square(Fraction(-1, 4))

    @given(st.fractions(min_value=0, max_value=100, max_denominator=50))
    def test_square_then_root(self, r):
        assert is_perfect_square(r * r) == r


class TestSurd:
    # Surds reach the public API only as certificates, so canonical form is
    # checked on third sides at interior angles with rational cos^2.
    def test_perfect_square_radicand_collapses(self):
        # sqrt(8/9) * cos(pi/4) = sqrt(4/9)
        out = spherical_third_side(Fraction(1, 3), Fraction(0),
                                   RationalAngle(Fraction(1, 8)))
        assert out.is_rational and out.rational == Fraction(2, 3)

    def test_small_square_factors_extracted(self):
        # 1/9 + sqrt(64/81) * cos(pi/4) = 1/9 + sqrt(2592)/81 = 1/9 + 4/9 * sqrt(2)
        out = spherical_third_side(Fraction(1, 3), Fraction(1, 3),
                                   RationalAngle(Fraction(1, 8)))
        assert out.surd == Surd(Fraction(1, 9), Fraction(4, 9), Fraction(2))

    def test_certificate_invariants(self):
        sides = [Fraction(p, q) for q in range(1, 6) for p in range(-q + 1, q)]
        for turns in ("1/8", "3/8", "1/12", "5/12"):
            for a in sides:
                for b in sides:
                    out = spherical_third_side(a, b,
                                               RationalAngle.from_string(turns))
                    if out.kind is CosineKind.IRRATIONAL_SURD:
                        s = out.surd
                        assert s.b != 0 and s.d.denominator == 1
                        assert is_perfect_square(s.d) is None


class TestSphericalThirdSide:
    def test_straight_angle_example(self):
        # direct evaluation: 9/25 - sqrt((16/25)^2) = 9/25 - 16/25
        out = spherical_third_side(Fraction(3, 5), Fraction(3, 5),
                                   RationalAngle(Fraction(1, 2)))
        assert out.is_rational and out.rational == Fraction(-7, 25)

    def test_degenerate_triangle(self):
        for q in (Fraction(2, 7), Fraction(-1, 3), Fraction(0)):
            out = spherical_third_side(Fraction(1), q, RationalAngle(Fraction(1, 5)))
            assert out.is_rational and out.rational == q

    def test_generic_angle_is_by_niven(self):
        out = spherical_third_side(Fraction(3, 5), Fraction(4, 5),
                                   RationalAngle(Fraction(1, 7)))
        assert out.kind is CosineKind.IRRATIONAL_BY_NIVEN

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            spherical_third_side(Fraction(3, 2), Fraction(0),
                                 RationalAngle(Fraction(1, 5)))

    def test_surd_exception_with_cos_sq_rational(self):
        # (1 - 0)(1 - 1/9) * cos^2(pi/4) = (8/9)(1/2) = (2/3)^2
        out = spherical_third_side(Fraction(0), Fraction(1, 3),
                                   RationalAngle(Fraction(1, 8)))
        assert out.is_rational and out.rational == Fraction(2, 3)
        out = spherical_third_side(Fraction(0), Fraction(1, 3),
                                   RationalAngle(Fraction(3, 8)))
        assert out.is_rational and out.rational == Fraction(-2, 3)

    def test_numeric_oracle_random_inputs(self):
        # classification value always matches the 200-bit cosine rule
        rng = random.Random(20240817)
        with mpmath.workprec(200):
            for _ in range(10_000):
                qa, qb = rng.randint(2, 12), rng.randint(2, 12)
                cos_ab = Fraction(rng.randint(-qa, qa), qa)
                cos_bc = Fraction(rng.randint(-qb, qb), qb)
                d = rng.randint(1, 24)
                phi = RationalAngle(Fraction(rng.randrange(d), d))
                out = spherical_third_side(cos_ab, cos_bc, phi)
                expected = (mpmath.mpf(cos_ab.numerator) / cos_ab.denominator
                            * cos_bc.numerator / cos_bc.denominator)
                sin_ab = mpmath.sqrt(1 - (mpmath.mpf(cos_ab.numerator)
                                          / cos_ab.denominator) ** 2)
                sin_bc = mpmath.sqrt(1 - (mpmath.mpf(cos_bc.numerator)
                                          / cos_bc.denominator) ** 2)
                expected += sin_ab * sin_bc * mpmath.cos(phi.radians(200))
                assert abs(out.numeric(200) - expected) < TOL
                if out.kind is CosineKind.IRRATIONAL_SURD:
                    assert out.surd.b != 0
                    assert is_perfect_square(out.surd.d) is None


class TestItcVerdict:
    def test_impossible_at_one_degree(self):
        v = itc_verdict(Fraction(3, 5), Fraction(4, 5), RationalAngle(Fraction(1, 360)))
        assert not v.possible

    def test_possible_at_straight_angle(self):
        v = itc_verdict(Fraction(3, 5), Fraction(3, 5), RationalAngle(Fraction(1, 2)))
        assert v.possible and v.third_side.rational == Fraction(-7, 25)

    def test_orthogonal_triad(self):
        v = itc_verdict(Fraction(0), Fraction(0), RationalAngle(Fraction(1, 4)))
        assert v.possible and v.third_side.rational == 0

    def test_degenerate_verdict(self):
        v = itc_verdict(Fraction(1), Fraction(1, 3), RationalAngle(Fraction(1, 7)))
        assert v.possible and v.reason == "degenerate"


class TestRationalAngle:
    def test_normalised_to_unit_interval(self):
        assert RationalAngle(Fraction(7, 6)).turns == Fraction(1, 6)
        assert RationalAngle(Fraction(-1, 6)).turns == Fraction(5, 6)

    def test_cosine_sign(self):
        assert RationalAngle(Fraction(1, 8)).cosine_sign() == 1
        assert RationalAngle(Fraction(3, 8)).cosine_sign() == -1
        assert RationalAngle(Fraction(1, 4)).cosine_sign() == 0
        assert RationalAngle(Fraction(7, 8)).cosine_sign() == 1

    def test_parse_fraction_rejects_decimals(self):
        with pytest.raises(ValueError):
            parse_fraction("0.5")
        assert parse_fraction(" 3/4 ") == Fraction(3, 4)

    @pytest.mark.parametrize("text", [
        "1e-1", "1E3", "1_0", "\u0661/\u0662", "\u00b2", "1/-2", "1 / 2", "/2",
        "1/", "+-1", "", "nan", "inf", "0x10"])
    def test_parse_fraction_only_ascii_p_over_q(self, text):
        with pytest.raises(ValueError, match="not a finite fraction p/q"):
            parse_fraction(text)

    @pytest.mark.parametrize("text,value", [
        ("-3/4", Fraction(-3, 4)), ("+3", Fraction(3)), ("007/014", Fraction(1, 2)),
        (" -0 ", Fraction(0))])
    def test_parse_fraction_accepts_signed_p_over_q(self, text, value):
        assert parse_fraction(text) == value

    def test_parse_fraction_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_fraction("1/0")

    @pytest.mark.parametrize("turns", [0.1, Decimal("0.1"), "1/10", None])
    def test_inexact_turns_rejected(self, turns):
        with pytest.raises(TypeError):
            RationalAngle(turns)

    def test_integer_turns(self):
        assert RationalAngle(3).turns == 0 and RationalAngle(-2).denominator == 1

    def test_by_niven_rejects_bad_witness(self):
        with pytest.raises(ValueError):
            ExactCosine.by_niven(RationalAngle(Fraction(1, 8)))
