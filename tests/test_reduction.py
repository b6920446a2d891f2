import dataclasses
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rationalqm.lattice import PNO, LatticePoint
from rationalqm.reduction import IntegerPair, measure, to_integer_pair
from rationalqm.states import make_qubit

bits_strategy = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=64).map(tuple)


def halve(p):
    """One halving step: both integers lose their last base-2 digit."""
    return IntegerPair(plus=p.plus >> 1, width=p.width - 1)


def eager_halving_chain(s):
    """Every pair of the halving dynamics, built up front one step at a time."""
    pair = to_integer_pair(s)
    chain = [pair]
    while pair.width > 1:
        pair = halve(pair)
        chain.append(pair)
    return chain


class TestIntegerPair:
    def test_encoding(self):
        p = to_integer_pair((1, -1, -1, 1))
        assert (p.plus, p.minus, p.width) == (0b1001, 0b0110, 4)
        assert p.bit_strings() == ("1001", "0110")

    def test_width_at_least_one(self):
        with pytest.raises(ValueError, match="width must be >= 1, got 0"):
            IntegerPair(plus=0, width=0)

    def test_complementarity_enforced(self):
        # minus is derived from plus, so the stored fact to check is that
        # plus fits in width digits
        for plus in (0b1000, 0b1111, -1):
            with pytest.raises(ValueError):
                IntegerPair(plus=plus, width=3)
        assert IntegerPair(plus=0b101, width=3).minus == 0b010

    def test_round_trip_exhaustive(self):
        for L in range(1, 13):
            for combo in itertools.product((1, -1), repeat=L):
                plus, minus = to_integer_pair(combo).bit_strings()
                assert tuple(1 if c == "1" else -1 for c in plus) == combo
                assert tuple(-1 if c == "1" else 1 for c in minus) == combo

    @given(bits_strategy)
    def test_complement_is_structural(self, s):
        p = to_integer_pair(s)
        assert p.plus ^ p.minus == (1 << p.width) - 1
        assert p.plus & p.minus == 0

    def test_matches_bit_by_bit_loop(self):
        """The one-parse conversion against the loop it replaced."""
        rng = random.Random(2024)
        for width in [1, 2, 63, 64, 65, 4096] + [rng.randint(1, 4096) for _ in range(40)]:
            bits = tuple(rng.choice((1, -1)) for _ in range(width))
            plus = 0
            for b in bits:
                plus = (plus << 1) | (1 if b == 1 else 0)
            assert to_integer_pair(bits) == IntegerPair(plus=plus, width=width)

    def test_accepts_what_validation_accepts(self):
        assert to_integer_pair([True, -1.0, 1.0, -1]).plus == 0b1010
        with pytest.raises(ValueError):
            to_integer_pair((1, 0, -1))
        with pytest.raises(ValueError):
            to_integer_pair(())

    def test_bad_entry_in_a_generator_names_the_whole_string(self):
        with pytest.raises(ValueError) as info:
            to_integer_pair(b for b in (1, 0, -1))
        assert str(info.value) == "bit string entries must be +1 or -1, got (1, 0, -1)"

    def test_unhashable_entry_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"got \(1, \[1\]\)"):
            to_integer_pair((1, [1]))


class TestReduction:
    def test_single_step_halves_both(self):
        q = measure((1, -1, -1, 1)).steps[1]
        assert (q.plus, q.minus, q.width) == (0b100, 0b011, 3)

    def test_trace_display(self):
        trace = measure((1, -1, -1, 1))
        shown = [p.bit_strings() for p in trace.steps]
        assert shown == [("1001", "0110"), ("100", "011"),
                         ("10", "01"), ("1", "0")]
        assert trace.outcome == 1
        assert trace.step_count == 3

    def test_all_minus_gives_minus(self):
        trace = measure((-1, -1, -1))
        assert trace.outcome == -1
        assert trace.steps[-1] == IntegerPair(plus=0, width=1)

    def test_complementarity_preserved_along_trace(self):
        for L in range(1, 11):
            for combo in itertools.product((1, -1), repeat=L):
                for step in measure(combo).steps:
                    assert step.plus ^ step.minus == (1 << step.width) - 1

    @given(bits_strategy)
    def test_outcome_is_first_bit(self, s):
        assert measure(s).outcome == s[0]

    @given(bits_strategy)
    def test_step_count(self, s):
        assert measure(s).step_count == len(s) - 1

    @given(bits_strategy)
    def test_lazy_steps_equal_eager_chain(self, s):
        trace = measure(s)
        assert trace.steps == eager_halving_chain(s)
        assert len(trace.steps) == trace.step_count + 1 == len(s)
        assert trace.outcome == (1 if trace.steps[-1].plus else -1)

    def test_trace_is_its_pair(self):
        # measure returns the string's pair, which stores only plus and
        # width: the outcome and the steps are read from them, so no trace
        # can disagree with its own pair.
        s = (1, -1, -1, 1)
        assert measure(s) == to_integer_pair(s)  # dataclass == checks the type
        assert [f.name for f in dataclasses.fields(IntegerPair)] == ["plus", "width"]
        assert IntegerPair(plus=0b100, width=3).outcome == 1
        assert IntegerPair(plus=0b011, width=3).outcome == -1
        assert IntegerPair(plus=1, width=1).outcome == 1
        assert IntegerPair(plus=0, width=1).outcome == -1

    def test_invalid_string_rejected(self):
        with pytest.raises(ValueError):
            measure((1, 0, -1))
        with pytest.raises(ValueError):
            measure(())

    def test_born_statistics_small(self):
        # point (m=3, L=4): outcome +1 with probability 3/4 under uniform xi
        trials = 20_000
        hits = 0
        point = LatticePoint(3, 0, 4)
        for seed in range(trials):
            q = make_qubit(point, PNO.from_seed(seed, 4))
            if measure(q.string).outcome == 1:
                hits += 1
        p = 0.75
        sigma = (trials * p * (1 - p)) ** 0.5
        assert abs(hits - trials * p) < 4 * sigma


class TestTwoAdic:
    def test_reduction_merges_two_adically_close_pairs(self):
        # strings that differ only in their trailing digits become identical
        # once those digits are truncated away
        p = to_integer_pair((1, -1, -1, 1, 1, -1))
        q = to_integer_pair((1, -1, -1, 1, -1, 1))
        assert p.plus != q.plus
        assert halve(halve(p)).plus == halve(halve(q)).plus
