import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalqm.cli import to_jsonable
from rationalqm.lattice import (PNO, QUATERNIONS, LatticePoint, canonical_bitstring,
                               ones_fraction)
from rationalqm.states import (HiddenPermutation, LatticeUnrealisableError,
                               TwoQubitParams, _require_integer, _sub_block,
                               canonical_two_qubit_strings,
                               counterfactual_setting_change,
                               exact_singlet_correlation, make_qubit,
                               make_singlet, make_two_qubit, singlet_params)


def reference_two_qubit_strings(params, L):
    """The per-bit merge that canonical_two_qubit_strings replaced: a buffer
    filled position by position from two counters into the sub-blocks."""
    m1 = _require_integer(params.top_ones * L, f"top +1 count ({params.top_ones} of {L})")
    top = _sub_block(L, params.top_ones, params.top_shift, "top")
    plus_block = _sub_block(m1, params.cond_plus, params.shift_plus, "bottom(+) sub-block")
    minus_block = _sub_block(L - m1, params.cond_minus, params.shift_minus,
                             "bottom(-) sub-block")
    bottom = [0] * L
    ip = im = 0
    for i, b in enumerate(top):
        if b == 1:
            bottom[i] = plus_block[ip]
            ip += 1
        else:
            bottom[i] = minus_block[im]
            im += 1
    return top, tuple(bottom)


def lattice_fractions(length):
    """(ones, shift) for every +1 count and shift of a sub-block of this
    length; an empty sub-block takes any fraction, so try a few."""
    if length == 0:
        return [(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(1, 2))]
    return [(Fraction(k, length), Fraction(s, length))
            for k in range(length + 1) for s in range(length)]


def random_lattice_fractions(rng, length):
    """(ones, shift) of a random +1 count and shift of a sub-block."""
    n = max(length, 1)
    return Fraction(rng.randint(0, length), n), Fraction(rng.randrange(n), n)


def realisable_params(L):
    for m1 in range(L + 1):
        for top_shift in range(L):
            for cond_plus, shift_plus in lattice_fractions(m1):
                for cond_minus, shift_minus in lattice_fractions(L - m1):
                    yield TwoQubitParams(Fraction(m1, L), cond_plus, cond_minus,
                                         Fraction(top_shift, L), shift_plus,
                                         shift_minus)


def build_or_error(builder, params, L):
    try:
        return builder(params, L)
    except LatticeUnrealisableError as exc:
        return str(exc)


class TestHiddenPermutation:
    def test_is_the_sign_free_pno(self):
        assert HiddenPermutation is PNO
        assert HiddenPermutation.from_seed(3, 5).signs is None

    def test_seed_reproducible(self):
        a = HiddenPermutation.from_seed(42, 16)
        b = HiddenPermutation.from_seed(42, 16)
        assert a.perm == b.perm

    def test_negative_seed_rejected(self):
        # random.Random seeds with abs(seed): -5 would replay seed 5.
        with pytest.raises(ValueError, match="seed"):
            HiddenPermutation.from_seed(-5, 12)

    def test_apply_is_a_reordering(self):
        xi = PNO((2, 0, 3, 1))
        assert xi.apply((1, 1, -1, -1)) == (-1, 1, -1, 1)
        assert xi.perm[0] == 2

    def test_bad_perm_rejected(self):
        with pytest.raises(ValueError):
            PNO((0, 0, 1))

    def test_needs_seed_or_perm(self):
        # no permutation at all, and no seed: never one drawn from os entropy
        with pytest.raises(TypeError):
            PNO()
        with pytest.raises(TypeError):
            PNO.from_seed(None, 3)

    @pytest.mark.parametrize("size", [0, -3])
    def test_size_must_be_positive(self, size):
        with pytest.raises(ValueError, match="L must be positive"):
            PNO.from_seed(0, size)

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
        identity = PNO(tuple(range(4)))
        q = make_qubit(LatticePoint(2, 0, 4), identity)
        assert q.string == (1, 1, -1, -1)

    def test_specific_xi(self):
        xi = PNO((0, 2, 3, 1))
        q = make_qubit(LatticePoint(2, 0, 4), xi)
        assert q.string == (1, -1, -1, 1)

    def test_size_mismatch_rejected(self):
        # PNO.apply is the one size check, for one and two qubits alike
        with pytest.raises(ValueError, match="operator arity 6 != string length 4"):
            make_qubit(LatticePoint(2, 0, 4),
                       PNO(tuple(range(6))))
        with pytest.raises(ValueError, match="operator arity 6 != string length 4"):
            make_singlet(Fraction(0), 4, PNO(tuple(range(6))))

    def test_signed_xi_rejected(self):
        # a signed xi would flip bits: the north pole would read (1, 1, -1, -1)
        with pytest.raises(ValueError, match="sign-free"):
            make_qubit(LatticePoint(4, 0, 4), QUATERNIONS["I"])

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
        record = json.loads(json.dumps(q, default=to_jsonable))
        assert record["point"] == {"m": 2, "n": 1, "L": 4}
        assert record["xi"]["signs"] is None
        assert tuple(record["string"]) == q.string
        xi = PNO(tuple(record["xi"]["perm"]))
        assert xi.apply(canonical_bitstring(q.point)) == q.string


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

    def test_matches_the_per_bit_merge_at_every_small_L(self):
        count = 0
        for L in range(1, 7):
            for params in realisable_params(L):
                assert (canonical_two_qubit_strings(params, L)
                        == reference_two_qubit_strings(params, L)), (params, L)
                count += 1
        assert count > 5000

    def test_matches_the_per_bit_merge_at_random_L(self):
        rng = random.Random(20261019)
        for _ in range(500):
            L = rng.randint(1, 64)
            m1 = rng.randint(0, L)
            plus = random_lattice_fractions(rng, m1)
            minus = random_lattice_fractions(rng, L - m1)
            params = TwoQubitParams(Fraction(m1, L), plus[0], minus[0],
                                    Fraction(rng.randrange(L), L), plus[1], minus[1])
            assert (canonical_two_qubit_strings(params, L)
                    == reference_two_qubit_strings(params, L)), (params, L)

    def test_unrealisable_params_give_the_per_bit_merge_message(self):
        # Fractions of small denominators: most miss the lattice, each at the
        # first check that fails, which names the same count or shift.
        rng = random.Random(7)
        errors = set()
        for _ in range(3000):
            L = rng.randint(1, 12)
            fractions = [Fraction(rng.randint(0, d), d)
                         for d in (rng.randint(1, 7) for _ in range(6))]
            params = TwoQubitParams(*fractions)
            got = build_or_error(canonical_two_qubit_strings, params, L)
            assert got == build_or_error(reference_two_qubit_strings, params, L)
            if isinstance(got, str):
                errors.add(got.split(" (")[0])
        assert errors == {
            "lattice-unrealisable parameters: " + what
            for what in ("top +1 count", "top shift",
                         "bottom(+) sub-block +1 count", "bottom(+) sub-block shift",
                         "bottom(-) sub-block +1 count", "bottom(-) sub-block shift")}

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
        top_c, bottom_c = canonical_two_qubit_strings(params, 6)
        assert state.top == xi.apply(top_c)
        assert state.bottom == xi.apply(bottom_c)
        assert state.outcome_pair() == (state.top[0], state.bottom[0])

    def test_signed_xi_rejected(self):
        params = TwoQubitParams(top_ones=Fraction(1, 2),
                                cond_plus=Fraction(1), cond_minus=Fraction(0))
        with pytest.raises(ValueError, match="sign-free"):
            make_two_qubit(params, 4, QUATERNIONS["J"])

    def test_json_record(self):
        params = TwoQubitParams(top_ones=Fraction(1, 2),
                                cond_plus=Fraction(1), cond_minus=Fraction(0))
        state = make_two_qubit(params, 4, HiddenPermutation.from_seed(11, 4))
        record = json.loads(json.dumps(state, default=to_jsonable))
        assert record["params"]["top_ones"] == "1/2"
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
        # the equatorial top string needs L/2 +1s, and no other check says so
        with pytest.raises(LatticeUnrealisableError,
                           match=re.escape("top +1 count (1/2 of 7) = 7/2 is not")):
            make_singlet(Fraction(0), 7, PNO(tuple(range(7))))
        # a cosine out of range is a bad value at any L, odd L included
        with pytest.raises(ValueError, match=r"\|cos theta_AB\| must be <= 1") as exc:
            make_singlet(Fraction(2), 7, PNO(tuple(range(7))))
        assert not isinstance(exc.value, LatticeUnrealisableError)

    def test_unrealisable_cos_rejected(self):
        with pytest.raises(LatticeUnrealisableError):
            make_singlet(Fraction(1, 2), 6, PNO(tuple(range(6))))


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
