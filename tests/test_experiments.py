import math
import random
from fractions import Fraction

import mpmath
import pytest

from rationalqm import experiments
from rationalqm.exact import RationalAngle, cos_squared
from rationalqm.experiments import (SnapInfeasibleError,
                                    _sum_at_uniform_positions,
                                    aggregate_directions,
                                    bell_run, delayed_choice, exact_setting,
                                    mz_simulate,
                                    position_momentum_aggregate,
                                    sg_counterfactual, single_trial_outcomes,
                                    snap_to_lattice, uncertainty_check)
from rationalqm.states import HiddenPermutation, make_singlet


def angle(text):
    return RationalAngle.from_string(text)


def reference_position_sum(values, trials, rng):
    """The per-trial loop that the bulk sampler reproduces draw for draw."""
    L = len(values)
    return sum(values[rng.randrange(L)] for _ in range(trials))


class TestMachZehnder:
    def test_quarter_turn(self):
        report = mz_simulate(angle("1/4"))
        assert report.inside_definable
        assert report.output_definable
        assert report.output_probabilities == (Fraction(1, 2), Fraction(1, 2))
        assert report.numeric_residual < 2.0 ** -150

    def test_zero_phase_is_deterministic(self):
        report = mz_simulate(angle("0"))
        assert report.output_probabilities == (Fraction(0), Fraction(1))

    def test_sixth_turn(self):
        report = mz_simulate(angle("1/6"))
        assert report.output_definable
        assert report.output_probabilities == (Fraction(1, 4), Fraction(3, 4))

    def test_residual_check_survives_optimisation(self, monkeypatch):
        # a real exception, not an assert that python -O strips
        monkeypatch.setattr(experiments, "RESIDUAL_TOL", mpmath.mpf(-1))
        with pytest.raises(ArithmeticError):
            mz_simulate(angle("1/7"))

    def test_fifth_turn_output_undefinable(self):
        report = mz_simulate(angle("1/5"))
        assert report.inside_definable
        assert not report.output_definable
        p_sin, p_cos = report.output_probabilities
        assert abs(float(p_sin) - math.sin(math.pi / 5) ** 2) < 1e-12
        assert abs(float(p_sin) + float(p_cos) - 1) < 1e-12


class TestDelayedChoice:
    def test_mirror_out_always_satisfied(self):
        for t in ("1/5", "1/7", "1/4"):
            report = delayed_choice(angle(t), second_mirror_in=False)
            assert report.satisfied
            assert report.demanded == "phi/2pi rational"

    def test_mirror_in_needs_rational_cosine(self):
        assert delayed_choice(angle("1/6"), True).satisfied
        assert not delayed_choice(angle("1/5"), True).satisfied

    def test_late_insertion_changes_the_demand_not_the_phase(self):
        phi = angle("1/5")
        late_in = delayed_choice(phi, True)
        late_out = delayed_choice(phi, False)
        assert late_in.demanded != late_out.demanded
        assert late_in.certificate == late_out.certificate


def half_difference(phi_a, phi_b):
    return RationalAngle((angle(phi_a).turns - angle(phi_b).turns) / 2)


class TestIdentitySplit:
    """The split amplitude 2cos((a-b)/2) of two phases is rational exactly
    when cos^2 of the half difference is."""

    def test_equal_phases(self):
        assert cos_squared(half_difference("1/5", "1/5")) == 1

    def test_exceptional_pair(self):
        # half difference 1/12 of a turn: cos^2 = 3/4 rational
        assert cos_squared(half_difference("1/6", "0")) == Fraction(3, 4)

    def test_generic_pair_clashes(self):
        # half difference 1/10 of a turn: cos^2 irrational
        assert cos_squared(half_difference("1/5", "0")) is None


class TestUncertainty:
    def test_exact_triple_holds(self):
        report = uncertainty_check((Fraction(0), Fraction(3, 5), Fraction(4, 5)))
        assert report.holds
        assert float(report.sigma_product) == pytest.approx(0.48)
        assert report.mu_abs == 0

    def test_pole_is_the_equality_case(self):
        report = uncertainty_check((Fraction(1), Fraction(0), Fraction(0)))
        assert report.holds
        assert float(report.sigma_product) == 1.0 and report.mu_abs == 1

    def test_exact_rational_triples(self):
        triples = [(Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)),
                   (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
                   (Fraction(3, 13), Fraction(4, 13), Fraction(12, 13))]
        for t in triples:
            assert uncertainty_check(t).holds

    def test_float_triple(self):
        c = 1 / math.sqrt(3)
        report = uncertainty_check((c, c, c), tol=1e-12)
        assert report.holds

    def test_non_unit_sum_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_check((Fraction(1), Fraction(1), Fraction(0)))

    def test_random_directions_always_hold(self):
        rng = random.Random(4242)
        for _ in range(1_000):
            c = rng.uniform(-1, 1)
            phi = rng.uniform(0, 2 * math.pi)
            s = math.sqrt(1 - c * c)
            report = uncertainty_check((c, s * math.cos(phi), s * math.sin(phi)),
                                       tol=1e-9)
            assert report.holds


class TestAggregate:
    def test_deterministic_given_seed(self):
        a = position_momentum_aggregate(2_000, seed=5)
        b = position_momentum_aggregate(2_000, seed=5)
        assert (a.bound, a.mean_abs_cos) == (b.bound, b.mean_abs_cos)

    def test_bound_exceeds_half(self):
        report = position_momentum_aggregate(10_000, seed=1)
        assert report.holds
        assert report.bound >= 0.5
        assert abs(report.mean_abs_cos - 0.5) < 0.02

    def test_single_pole_sample_is_degenerate(self):
        report = aggregate_directions([(1.0, 0.0)])
        assert report.degenerate
        assert report.bound == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_directions([])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            position_momentum_aggregate(50, seed=-2)


class TestSnapping:
    def test_exact_hit(self):
        setting = snap_to_lattice(-0.5, 8)
        assert setting.snapped.m == 2
        assert setting.exact_cos == Fraction(-1, 2)

    def test_poles(self):
        assert snap_to_lattice(1.0, 6).snapped.m == 6
        assert snap_to_lattice(-1.0, 6).snapped.m == 0

    def test_tight_epsilon_infeasible(self):
        with pytest.raises(SnapInfeasibleError):
            snap_to_lattice(0.3, 4, epsilon=Fraction(1, 100))

    def test_default_epsilon_always_feasible(self):
        rng = random.Random(8)
        for _ in range(200):
            target = rng.uniform(-1, 1)
            setting = snap_to_lattice(target, 360)
            assert abs(float(setting.exact_cos) - target) <= 2 / 360

    def test_parity_restriction(self):
        setting = snap_to_lattice(0.0, 10, parity=1)
        assert setting.snapped.m % 2 == 1
        assert abs(float(setting.exact_cos)) <= 4 / 10

    def test_exact_setting(self):
        setting = exact_setting(Fraction(3, 5))
        assert setting.exact_cos == Fraction(3, 5)
        assert setting.snapped.L == 10 and setting.snapped.m == 8


class TestSternGerlach:
    def test_generic_settings_not_definable(self):
        report = sg_counterfactual(exact_setting(Fraction(3, 5)),
                                   exact_setting(Fraction(4, 5)),
                                   angle("179/360"))
        assert not report.definable

    def test_exceptional_settings_definable(self):
        report = sg_counterfactual(exact_setting(Fraction(3, 5)),
                                   exact_setting(Fraction(3, 5)),
                                   angle("1/2"))
        assert report.definable
        assert report.verdict.third_side.rational == Fraction(-7, 25)

    def test_degenerate(self):
        report = sg_counterfactual(exact_setting(Fraction(1)),
                                   exact_setting(Fraction(1, 3)),
                                   angle("1/7"))
        assert report.definable and report.degenerate


class TestBellHarness:
    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError):
            bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 360, 50, 1)

    def test_rejects_odd_L(self):
        with pytest.raises(ValueError):
            bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 361, 1000, 1)

    def test_small_run_structure(self):
        report = bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3),
                          360, 500, seed=3)
        assert [p.label for p in report.pairs] == ["AB", "AC", "BC"]
        assert report.bell_quantity_nominal == pytest.approx(1.5, abs=1e-9)
        for p in report.pairs:
            assert -1 <= p.correlation <= 1
            assert p.trials == 500

    def test_rejects_negative_seed(self):
        # random.Random seeds with abs(), so seed -1 would replay seed 1's
        # AB stream (pair seeds -1000003 and 1000003)
        with pytest.raises(ValueError):
            bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 360, 1000, -1)

    # Per-pair sums of trial products (correlation * trials) at angles
    # 0, 1/6, 1/3 with 2^14 + 5 trials, as drawn by the per-trial
    # randrange loop.
    GOLDEN_TOTALS = {
        (360, 0): (-8263, 8167, -8145),
        (360, 7): (-8315, 8127, -8383),
        (720, 2): (-8207, 8089, -8381),
        (720, 11): (-8355, 8047, -8157),
        (1024, 1): (-7961, 8185, -8181),
        (1024, 123): (-8137, 8103, -8043),
    }

    @pytest.mark.parametrize("L, seed", sorted(GOLDEN_TOTALS))
    def test_golden_correlations(self, L, seed):
        trials = 2 ** 14 + 5
        report = bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3),
                          L, trials, seed)
        assert [p.correlation for p in report.pairs] == [
            total / trials for total in self.GOLDEN_TOTALS[L, seed]]

    def test_deterministic_given_seed(self):
        a = bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 360, 500, 11)
        b = bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 360, 500, 11)
        assert a.bell_quantity == b.bell_quantity

    def test_full_path_agrees_with_position_sampling(self):
        # the harness samples a uniform position; the reference path builds
        # the whole permuted state and runs the halving dynamics on both
        # strings; the joint outcome distributions must agree
        L, cos = 8, Fraction(1, 2)
        state_counts = {}
        for seed in range(4_000):
            pair = single_trial_outcomes(cos, L, seed)
            state_counts[pair] = state_counts.get(pair, 0) + 1
        from rationalqm.states import canonical_two_qubit_strings, singlet_params
        top, bottom = canonical_two_qubit_strings(singlet_params(cos), L)
        pos_counts = {}
        for pos in range(L):
            key = (top[pos], bottom[pos])
            pos_counts[key] = pos_counts.get(key, 0) + 1
        for key, expected_over_L in pos_counts.items():
            expected = 4_000 * expected_over_L / L
            sigma = math.sqrt(4_000 * (expected_over_L / L)
                              * (1 - expected_over_L / L))
            assert abs(state_counts.get(key, 0) - expected) < 4 * sigma

    def test_aligned_singlet_always_anticorrelates(self):
        for seed in range(100):
            a, b = single_trial_outcomes(Fraction(1), 8, seed)
            assert a * b == -1

    def test_reference_path_outcome_is_front_position(self):
        for seed in range(50):
            xi = HiddenPermutation.from_seed(seed, 8)
            state = make_singlet(Fraction(1, 2), 8, xi)
            pos = xi.perm[0]
            assert single_trial_outcomes(Fraction(1, 2), 8, seed) == (
                state.top_canonical[pos], state.bottom_canonical[pos])


class TestUniformPositionSum:
    @pytest.mark.parametrize("L", [2, 3, 4, 256, 360, 361, 1024])
    @pytest.mark.parametrize("trials", [1, 2 ** 14, 2 ** 14 + 1])
    def test_matches_randrange_loop(self, L, trials):
        g = random.Random(L)
        cases = [[g.randrange(-2, 3) for _ in range(L)],
                 [1 if 3 * i < L else -1 if 3 * i < 2 * L else 1
                  for i in range(L)]]
        for values in cases:
            bulk, loop = random.Random(L * trials), random.Random(L * trials)
            assert (_sum_at_uniform_positions(values, trials, bulk)
                    == reference_position_sum(values, trials, loop))
            assert bulk.getstate() == loop.getstate()

    def test_odd_L_golden(self):
        # the reference loop gives 576 here and leaves the stream so that
        # the next random() is 0.3273901190152425
        values = [(-1) ** (i // 7) * (1 + i % 3) for i in range(361)]
        rng = random.Random(2024)
        assert _sum_at_uniform_positions(values, 2 ** 14 + 1, rng) == 576
        assert rng.random() == 0.3273901190152425

    def test_rejects_draws_wider_than_a_lane(self):
        with pytest.raises(ValueError):
            _sum_at_uniform_positions(range(2 ** 31), 1, random.Random(0))
        with pytest.raises(ValueError):
            _sum_at_uniform_positions([], 1, random.Random(0))


class TestBellSum:
    """The Bell sum is defined for a pair of settings exactly when the
    Stern-Gerlach counterfactual third setting is."""

    def test_generic_settings_undefined(self):
        report = sg_counterfactual(exact_setting(Fraction(3, 5)),
                                   exact_setting(Fraction(4, 5)),
                                   angle("181/360"))
        assert not report.definable and not report.degenerate

    def test_exceptional_settings_defined(self):
        report = sg_counterfactual(exact_setting(Fraction(3, 5)),
                                   exact_setting(Fraction(3, 5)),
                                   angle("1/2"))
        assert report.definable and not report.degenerate

    def test_degenerate_settings(self):
        report = sg_counterfactual(exact_setting(Fraction(1)),
                                   exact_setting(Fraction(0)),
                                   angle("1/5"))
        assert report.definable and report.degenerate
