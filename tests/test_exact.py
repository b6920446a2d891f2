import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalqm.exact import (CosineKind, ExactCosine, RationalAngle, Surd,
                              itc_verdict, niven_cosine, parse_fraction,
                              spherical_third_side)

from certificates import certified_cos_squared

TOL = mpmath.mpf(2) ** -150

# Niven's theorem, stated here rather than read from the module: the reduced
# turn-denominators at which cos, and cos^2, of a rational turn is rational.
RATIONAL_COS_DENOMINATORS = {1, 2, 3, 4, 6}
RATIONAL_COS_SQ_DENOMINATORS = {1, 2, 3, 4, 6, 8, 12}


def numeric_cos(turns: Fraction) -> mpmath.mpf:
    with mpmath.workprec(200):
        return mpmath.cos(2 * mpmath.pi * mpmath.mpf(turns.numerator)
                          / turns.denominator)


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def certificate_value(cert: ExactCosine) -> mpmath.mpf:
    """The number a certificate names, evaluated at 200 bits from its fields
    alone, so the oracle shares no code with the library that built it."""
    with mpmath.workprec(200):
        if cert.kind is CosineKind.RATIONAL:
            return _mpf(cert.rational)
        if cert.kind is CosineKind.IRRATIONAL_SURD:
            s = cert.surd
            return _mpf(s.a) + _mpf(s.b) * mpmath.sqrt(_mpf(s.d))
        value = numeric_cos(cert.witness.turns)
        if cert.cross_radicand is None:
            return value
        return _mpf(cert.cross_base) + mpmath.sqrt(_mpf(cert.cross_radicand)) * value


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
        assert out.is_rational == (angle.turns.denominator in RATIONAL_COS_DENOMINATORS)
        # every classification agrees with a 200-bit evaluation
        assert abs(certificate_value(out) - numeric_cos(angle.turns)) < TOL

    def test_cos_squared_denominators(self):
        for d in range(1, 40):
            angle = RationalAngle(Fraction(1, d))
            c2 = certified_cos_squared(angle)
            if angle.turns.denominator in RATIONAL_COS_SQ_DENOMINATORS:
                assert c2 is not None
                assert abs(float(c2) - math.cos(2 * math.pi / d) ** 2) < 1e-12
            else:
                assert c2 is None


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
                                               RationalAngle(parse_fraction(turns)))
                    if out.kind is CosineKind.IRRATIONAL_SURD:
                        s = out.surd
                        assert s.b != 0 and s.d.denominator == 1
                        assert math.isqrt(s.d.numerator) ** 2 != s.d.numerator

    @pytest.mark.parametrize("d", [Fraction(4), Fraction(1, 2), Fraction(0),
                                   Fraction(-2)])
    def test_radicand_must_be_a_non_square_positive_integer(self, d):
        with pytest.raises(ValueError, match="radicand"):
            Surd(Fraction(1), Fraction(1, 3), d)

    @pytest.mark.parametrize("d", [Fraction(2), Fraction(12)])
    def test_non_square_integer_radicand_accepted(self, d):
        assert Surd(Fraction(1), Fraction(1, 3), d).d == d

    @pytest.mark.parametrize("d", [Fraction(4), Fraction(1, 2), Fraction(0),
                                   Fraction(-2), Fraction(2)])
    def test_any_radicand_accepted_without_a_radical(self, d):
        assert Surd(Fraction(1), Fraction(0), d).d == d


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
        # classification value always matches the 200-bit cosine rule; the
        # first input's radicand keeps the square factor 101^2
        rng = random.Random(20240817)
        inputs = [(Fraction(0), Fraction(15301, 15302), RationalAngle(Fraction(1, 8)))]
        for _ in range(10_000):
            qa, qb = rng.randint(2, 12), rng.randint(2, 12)
            cos_ab = Fraction(rng.randint(-qa, qa), qa)
            cos_bc = Fraction(rng.randint(-qb, qb), qb)
            d = rng.randint(1, 24)
            inputs.append((cos_ab, cos_bc, RationalAngle(Fraction(rng.randrange(d), d))))
        with mpmath.workprec(200):
            for cos_ab, cos_bc, phi in inputs:
                out = spherical_third_side(cos_ab, cos_bc, phi)
                expected = (mpmath.mpf(cos_ab.numerator) / cos_ab.denominator
                            * cos_bc.numerator / cos_bc.denominator)
                sin_ab = mpmath.sqrt(1 - (mpmath.mpf(cos_ab.numerator)
                                          / cos_ab.denominator) ** 2)
                sin_bc = mpmath.sqrt(1 - (mpmath.mpf(cos_bc.numerator)
                                          / cos_bc.denominator) ** 2)
                expected += sin_ab * sin_bc * numeric_cos(phi.turns)
                assert abs(certificate_value(out) - expected) < TOL
                if out.kind is CosineKind.IRRATIONAL_SURD:
                    d = out.surd.d.numerator
                    assert out.surd.b != 0 and math.isqrt(d) ** 2 != d


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

    def test_degenerate_third_side_is_the_product(self):
        # at a pole the third side is cos_ab * cos_bc, whatever the angle
        v = itc_verdict(Fraction(1), Fraction(3, 5), RationalAngle(Fraction(1, 5)))
        assert v.possible and v.reason == "degenerate"
        assert v.third_side == ExactCosine.from_rational(Fraction(3, 5))

    @pytest.mark.parametrize("turns", [Fraction(1, 6), Fraction(3, 8), Fraction(1, 5)],
                             ids=["rational-cos", "surd-cos", "niven-cos-sq"])
    @pytest.mark.parametrize("pole", [1, -1, Fraction(1), Fraction(-1)],
                             ids=["int+1", "int-1", "Fraction+1", "Fraction-1"])
    @pytest.mark.parametrize("at_ab", [True, False], ids=["cos_ab", "cos_bc"])
    def test_every_pole_is_degenerate(self, turns, pole, at_ab):
        other = Fraction(2, 7)
        sides = (pole, other) if at_ab else (other, pole)
        v = itc_verdict(*sides, RationalAngle(turns))
        assert v.possible and v.reason == "degenerate"
        assert v.third_side == ExactCosine.from_rational(pole * other)

    def test_radicand_keeps_square_factors_of_large_primes(self):
        # 73119686694 = 101^2 * 7167894; only primes up to 97 are divided out
        v = itc_verdict(Fraction(0), Fraction(15301, 15302), RationalAngle(Fraction(1, 8)))
        assert v.third_side.surd == Surd(Fraction(0), Fraction(1, 33450172),
                                         Fraction(73119686694))


@pytest.mark.parametrize("certify", [itc_verdict, spherical_third_side])
@pytest.mark.parametrize("cosine", [0.1, Decimal("0.1"), "1/10"],
                         ids=["float", "Decimal", "str"])
def test_inexact_side_cosines_rejected(certify, cosine):
    phi = RationalAngle(Fraction(1, 5))
    with pytest.raises(TypeError, match="cos_ab"):
        certify(cosine, Fraction(0), phi)
    with pytest.raises(TypeError, match="cos_bc"):
        certify(Fraction(0), cosine, phi)


class TestRationalAngle:
    def test_normalised_to_unit_interval(self):
        assert RationalAngle(Fraction(7, 6)).turns == Fraction(1, 6)
        assert RationalAngle(Fraction(-1, 6)).turns == Fraction(5, 6)

    def test_full_turn_is_zero(self):
        # [0, 1) is half-open: a full turn is turn 0, given as an int or not
        assert RationalAngle(Fraction(1)).turns == 0
        assert RationalAngle(1).turns == 0

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
        assert RationalAngle(3).turns == 0 and RationalAngle(-2).turns.denominator == 1

    def test_by_niven_rejects_bad_witness(self):
        with pytest.raises(ValueError):
            ExactCosine.by_niven(RationalAngle(Fraction(1, 8)))
