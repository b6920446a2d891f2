import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalqm.cli import to_jsonable
from rationalqm.lattice import LatticePoint, ones_fraction
from rationalqm.states import (HiddenPermutation, LatticeUnrealisableError,
                               TwoQubitParams, canonical_two_qubit_strings,
                               counterfactual_setting_change,
                               exact_singlet_correlation, make_qubit,
                               make_singlet, make_two_qubit, qubit_to_json,
                               singlet_params, swap_perspective,
                               two_qubit_to_json)


class TestHiddenPermutation:
    def test_seed_reproducible(self):
        a = HiddenPermutation.from_seed(42, 16)
        b = HiddenPermutation.from_seed(42, 16)
        assert a.perm == b.perm

    def test_negative_seed_rejected(self):
        # random.Random seeds with abs(seed): -5 would replay seed 5.
        with pytest.raises(ValueError, match="seed"):
            HiddenPermutation.from_seed(-5, 12)

    def test_apply_is_a_reordering(self):
        xi = HiddenPermutation(size=4, perm=(2, 0, 3, 1))
        assert xi.apply((1, 1, -1, -1)) == (-1, 1, -1, 1)
        assert xi.perm[0] == 2

    def test_bad_perm_rejected(self):
        with pytest.raises(ValueError):
            HiddenPermutation(size=3, perm=(0, 0, 1))

    def test_needs_seed_or_perm(self):
        with pytest.raises(ValueError):
            HiddenPermutation(size=3)

    def test_uniform_front_source(self):
        # Fisher-Yates from uniform seeds: front position close to uniform
        L, trials = 8, 20_000
        counts = [0] * L
        for seed in range(trials):
            counts[HiddenPermutation.from_seed(seed, L).perm[0]] += 1
        expected = trials / L
        for c in counts:
            assert abs(c - expected) < 5 * (trials * (1 / L) * (1 - 1 / L)) ** 0.5


class TestQubitState:
    def test_identity_xi_gives_canonical_string(self):
        identity = HiddenPermutation(size=4, perm=range(4))
        q = make_qubit(LatticePoint(2, 0, 4), identity)
        assert q.string == (1, 1, -1, -1)

    def test_specific_xi(self):
        xi = HiddenPermutation(size=4, perm=(0, 2, 3, 1))
        q = make_qubit(LatticePoint(2, 0, 4), xi)
        assert q.string == (1, -1, -1, 1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_qubit(LatticePoint(2, 0, 4),
                       HiddenPermutation(size=6, perm=range(6)))

    def test_equivalence_class_independent_of_xi(self):
        p = LatticePoint(3, 2, 7)
        strings = [make_qubit(p, HiddenPermutation.from_seed(s, 7)).string
                   for s in range(20)]
        assert len({tuple(sorted(s)) for s in strings}) == 1

    @given(st.integers(min_value=2, max_value=32), st.integers(min_value=0),
           st.data())
    @settings(max_examples=200)
    def test_ones_invariant_under_xi(self, L, seed, data):
        m = data.draw(st.integers(min_value=0, max_value=L))
        n = data.draw(st.integers(min_value=0, max_value=L - 1))
        q = make_qubit(LatticePoint(m, n, L), HiddenPermutation.from_seed(seed, L))
        assert ones_fraction(q.string) == q.point.ones

    def test_json_round_trip(self):
        q = make_qubit(LatticePoint(2, 1, 4), HiddenPermutation.from_seed(7, 4))
        record = json.loads(json.dumps(to_jsonable(qubit_to_json(q))))
        assert record["L"] == 4 and record["m"] == 2 and record["n"] == 1
        assert record["xi_seed"] == 7
        assert tuple(record["string"]) == q.string


class TestTwoQubit:
    def test_product_like_layout(self):
        params = TwoQubitParams(top_ones=Fraction(1, 2),
                                cond_plus=Fraction(1), cond_minus=Fraction(0))
        top, bottom = canonical_two_qubit_strings(params, 4)
        assert top == (1, 1, -1, -1)
        assert bottom == (1, 1, -1, -1)

    def test_conditional_fractions_by_counting(self):
        rng = random.Random(99)
        for _ in range(100):
            L = rng.randrange(2, 40)
            m1 = rng.randrange(0, L + 1)
            kp = rng.randrange(0, m1 + 1)
            km = rng.randrange(0, L - m1 + 1)
            params = TwoQubitParams(
                top_ones=Fraction(m1, L),
                cond_plus=Fraction(kp, m1) if m1 else Fraction(0),
                cond_minus=Fraction(km, L - m1) if L - m1 else Fraction(0))
            top, bottom = canonical_two_qubit_strings(params, L)
            assert sum(1 for b in top if b == 1) == m1
            got_kp = sum(1 for a, b in zip(top, bottom) if a == 1 and b == 1)
            got_km = sum(1 for a, b in zip(top, bottom) if a == -1 and b == 1)
            assert got_kp == kp and got_km == km

    def test_sub_block_shifts(self):
        params = TwoQubitParams(top_ones=Fraction(1, 2),
                                cond_plus=Fraction(1, 2),
                                cond_minus=Fraction(1, 2),
                                shift_plus=Fraction(1, 2))
        top, bottom = canonical_two_qubit_strings(params, 4)
        assert top == (1, 1, -1, -1)
        # shifted +1 sub-block (-1, 1) over the top's +1 positions
        assert bottom == (-1, 1, 1, -1)

    def test_unrealisable_count_raises_with_fraction_named(self):
        params = TwoQubitParams(top_ones=Fraction(1, 2),
                                cond_plus=Fraction(1, 3),
                                cond_minus=Fraction(0))
        with pytest.raises(LatticeUnrealisableError, match="lattice-unrealisable"):
            canonical_two_qubit_strings(params, 4)

    def test_unrealisable_shift_raises(self):
        params = TwoQubitParams(top_ones=Fraction(1, 2),
                                cond_plus=Fraction(1, 2),
                                cond_minus=Fraction(1, 2),
                                shift_plus=Fraction(1, 3))
        with pytest.raises(LatticeUnrealisableError):
            canonical_two_qubit_strings(params, 4)

    def test_out_of_range_params(self):
        with pytest.raises(LatticeUnrealisableError):
            TwoQubitParams(top_ones=Fraction(3, 2), cond_plus=Fraction(0),
                           cond_minus=Fraction(0))

    def test_common_xi_applied_to_both(self):
        params = TwoQubitParams(top_ones=Fraction(1, 2),
                                cond_plus=Fraction(1), cond_minus=Fraction(0))
        xi = HiddenPermutation.from_seed(3, 6)
        state = make_two_qubit(params, 6, xi)
        assert state.top == xi.apply(state.top_canonical)
        assert state.bottom == xi.apply(state.bottom_canonical)
        assert state.outcome_pair() == (state.top[0], state.bottom[0])

    def test_json_record(self):
        params = TwoQubitParams(top_ones=Fraction(1, 2),
                                cond_plus=Fraction(1), cond_minus=Fraction(0))
        state = make_two_qubit(params, 4, HiddenPermutation.from_seed(11, 4))
        record = two_qubit_to_json(state)
        assert record["params"]["top_ones"] == Fraction(1, 2)
        assert to_jsonable(record)["params"]["top_ones"] == "1/2"
        assert record["xi_seed"] == 11
        assert len(record["top"]) == len(record["bottom"]) == 4


class TestSinglet:
    def test_aligned_settings_anticorrelate(self):
        # cos theta_AB = 1: bottom is the bitwise negation of the top
        for seed in range(10):
            state = make_singlet(Fraction(1), 8, HiddenPermutation.from_seed(seed, 8))
            assert state.bottom == tuple(-b for b in state.top)

    def test_opposite_settings_correlate(self):
        state = make_singlet(Fraction(-1), 8, HiddenPermutation.from_seed(0, 8))
        assert state.bottom == state.top

    def test_sixty_degree_layout(self):
        # cos = 1/2: conditional +1 fractions 1/4 and 3/4 over halves of L=8
        top, bottom = canonical_two_qubit_strings(singlet_params(Fraction(1, 2)), 8)
        assert top == (1, 1, 1, 1, -1, -1, -1, -1)
        assert bottom == (1, -1, -1, -1, 1, 1, 1, -1)

    def test_exact_correlation_is_minus_cos(self):
        for L in (4, 8, 12, 60):
            for m in range(0, L + 1, 2):
                cos = Fraction(2 * m - L, L)
                assert exact_singlet_correlation(cos, L) == -cos

    def test_odd_L_rejected(self):
        with pytest.raises(LatticeUnrealisableError):
            make_singlet(Fraction(0), 7, HiddenPermutation(size=7, perm=range(7)))

    def test_unrealisable_cos_rejected(self):
        with pytest.raises(LatticeUnrealisableError):
            make_singlet(Fraction(1, 2), 6, HiddenPermutation(size=6, perm=range(6)))


class TestSwapPerspective:
    def test_strings_exchange(self):
        state = make_singlet(Fraction(1, 2), 8, HiddenPermutation.from_seed(5, 8))
        swapped = swap_perspective(state)
        assert swapped.top == state.bottom
        assert swapped.bottom == state.top

    def test_joint_outcomes_preserved_at_every_position(self):
        state = make_singlet(Fraction(1, 2), 8, HiddenPermutation.from_seed(5, 8))
        swapped = swap_perspective(state)
        for i in range(8):
            assert (swapped.top[i], swapped.bottom[i]) == (state.bottom[i], state.top[i])

    def test_partner_permutation_reproduces_strings(self):
        rng = random.Random(17)
        for _ in range(50):
            L = 2 * rng.randrange(1, 10)
            m = 2 * rng.randrange(0, L // 2 + 1)
            cos = Fraction(2 * m - L, L)
            state = make_singlet(cos, L, HiddenPermutation.from_seed(rng.randrange(10**6), L))
            swapped = swap_perspective(state)
            assert swapped.xi.apply(swapped.top_canonical) == swapped.top
            assert swapped.xi.apply(swapped.bottom_canonical) == swapped.bottom

    def test_involution_on_ordered_strings(self):
        state = make_singlet(Fraction(0), 12, HiddenPermutation.from_seed(23, 12))
        twice = swap_perspective(swap_perspective(state))
        assert twice.top == state.top
        assert twice.bottom == state.bottom


class TestCounterfactual:
    def test_top_string_unchanged(self):
        state = make_singlet(Fraction(1, 2), 8, HiddenPermutation.from_seed(1, 8))
        changed = counterfactual_setting_change(state, singlet_params(Fraction(-1, 2)))
        assert changed.top == state.top
        assert changed.bottom != state.bottom

    def test_same_setting_is_identity(self):
        state = make_singlet(Fraction(1, 2), 8, HiddenPermutation.from_seed(1, 8))
        changed = counterfactual_setting_change(state, singlet_params(Fraction(1, 2)))
        assert changed.top == state.top
        assert changed.bottom == state.bottom

    def test_top_string_mismatch_raises(self):
        # a real exception, not an assert that python -O strips
        state = make_singlet(Fraction(1, 2), 8, HiddenPermutation.from_seed(1, 8))
        tampered = dataclasses.replace(state, top=tuple(-b for b in state.top))
        with pytest.raises(RuntimeError, match="locality"):
            counterfactual_setting_change(tampered, singlet_params(Fraction(-1, 2)))

    def test_selected_outcome_unchanged(self):
        for seed in range(30):
            state = make_singlet(Fraction(0), 12, HiddenPermutation.from_seed(seed, 12))
            changed = counterfactual_setting_change(state, singlet_params(Fraction(1)))
            assert changed.outcome_pair()[0] == state.outcome_pair()[0]
