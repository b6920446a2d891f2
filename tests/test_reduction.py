import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rationalqm.lattice import LatticePoint
from rationalqm.reduction import (AlreadyReducedError, IntegerPair, measure,
                                  reduce_step, to_integer_pair,
                                  two_adic_distance, two_adic_valuation)
from rationalqm.states import HiddenPermutation, make_qubit

bits_strategy = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=64).map(tuple)


def eager_halving_chain(s):
    """Every pair of the halving dynamics, built up front."""
    pair = to_integer_pair(s)
    chain = [pair]
    while pair.width > 1:
        pair = reduce_step(pair)
        chain.append(pair)
    return chain


class TestIntegerPair:
    def test_encoding(self):
        p = to_integer_pair((1, -1, -1, 1))
        assert (p.plus, p.minus, p.width) == (0b1001, 0b0110, 4)
        assert p.bit_strings() == ("1001", "0110")

    def test_complementarity_enforced(self):
        with pytest.raises(ValueError):
            IntegerPair(plus=0b101, minus=0b101, width=3)

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


class TestReduction:
    def test_single_step_halves_both(self):
        p = to_integer_pair((1, -1, -1, 1))
        q = reduce_step(p)
        assert (q.plus, q.minus, q.width) == (0b100, 0b011, 3)

    def test_width_one_cannot_reduce(self):
        with pytest.raises(AlreadyReducedError):
            reduce_step(IntegerPair(plus=1, minus=0, width=1))

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
        assert trace.steps[-1] == IntegerPair(plus=0, minus=1, width=1)

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
            q = make_qubit(point, HiddenPermutation.from_seed(seed, 4))
            if measure(q.string).outcome == 1:
                hits += 1
        p = 0.75
        sigma = (trials * p * (1 - p)) ** 0.5
        assert abs(hits - trials * p) < 4 * sigma


class TestTwoAdic:
    def test_examples(self):
        assert two_adic_valuation(8) == 3
        assert two_adic_valuation(5) == 0
        assert two_adic_distance(8, 0) == Fraction(1, 8)
        assert two_adic_distance(5, 1) == Fraction(1, 4)
        assert two_adic_distance(3, 3) == 0

    def test_valuation_of_zero_rejected(self):
        with pytest.raises(ValueError):
            two_adic_valuation(0)

    @given(st.integers(min_value=-10**9, max_value=10**9),
           st.integers(min_value=-10**9, max_value=10**9))
    def test_symmetry(self, a, b):
        assert two_adic_distance(a, b) == two_adic_distance(b, a)

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=-10**6, max_value=10**6))
    def test_ultrametric(self, a, b, c):
        assert two_adic_distance(a, c) <= max(two_adic_distance(a, b),
                                              two_adic_distance(b, c))

    def test_reduction_merges_two_adically_close_pairs(self):
        # strings that differ only in their trailing digits become identical
        # once those digits are truncated away
        p = to_integer_pair((1, -1, -1, 1, 1, -1))
        q = to_integer_pair((1, -1, -1, 1, -1, 1))
        assert two_adic_distance(p.plus, q.plus) == 1
        assert reduce_step(reduce_step(p)).plus == reduce_step(reduce_step(q)).plus
