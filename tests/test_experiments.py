import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from rationalqm import experiments, states
from rationalqm.cli import build_parser, parse_args
from rationalqm.exact import (RationalAngle, itc_verdict, niven_cosine,
                              parse_fraction)
from rationalqm.experiments import (_pair_seed, _singlet_product_sum,
                                    _sqrt_float,
                                    aggregate_directions,
                                    bell_run, mz_simulate,
                                    position_momentum_aggregate,
                                    single_trial_outcomes,
                                    snap_to_lattice, uncertainty_check)
from rationalqm.lattice import PNO
from rationalqm.states import (canonical_two_qubit_strings, make_singlet,
                               singlet_params)

from certificates import certified_cos_squared


def angle(text):
    return RationalAngle(parse_fraction(text))


def turns_up_to(max_den):
    """Every reduced turn p/q in [0, 1) with q <= max_den."""
    return sorted({Fraction(p, q) for q in range(1, max_den + 1) for p in range(q)})


def reference_position_sum(values, trials, rng):
    """The per-trial loop that the bulk sampler reproduces draw for draw."""
    L = len(values)
    return sum(values[rng.randrange(L)] for _ in range(trials))


def reference_interval_sum(L, k, trials, rng):
    """The same loop over the interval [k, L - k) where the snapped
    singlet's products are -1; it builds no length-L list, so it reaches
    the widest lanes."""
    return sum(-1 if k <= rng.randrange(L) < L - k else 1 for _ in range(trials))


class TestMachZehnder:
    def test_quarter_turn(self):
        report = mz_simulate(angle("1/4"))
        assert report.inside_definable
        assert report.output_definable
        assert report.output_probabilities == (Fraction(1, 2), Fraction(1, 2))

    def test_zero_phase_is_deterministic(self):
        report = mz_simulate(angle("0"))
        assert report.output_probabilities == (Fraction(0), Fraction(1))

    def test_sixth_turn(self):
        report = mz_simulate(angle("1/6"))
        assert report.output_definable
        assert report.output_probabilities == (Fraction(1, 4), Fraction(3, 4))

    def test_fifth_turn_output_undefinable(self):
        report = mz_simulate(angle("1/5"))
        assert report.inside_definable
        assert not report.output_definable
        p_sin, p_cos = report.output_probabilities
        assert abs(float(p_sin) - math.sin(math.pi / 5) ** 2) < 1e-12
        assert abs(float(p_sin) + float(p_cos) - 1) < 1e-12

    def test_amplitude_identity_at_200_bits(self):
        # |(1 + e^{i phi})/2|^2 = cos^2(phi/2) and |(1 - e^{i phi})/2|^2 =
        # sin^2(phi/2), the identity behind the output probabilities
        with mpmath.workprec(200):
            for t in turns_up_to(12):
                half = mpmath.pi * mpmath.mpf(t.numerator) / t.denominator
                e = mpmath.exp(2j * half)
                assert abs(abs((1 + e) / 2) ** 2 - mpmath.cos(half) ** 2) < 2 ** -190
                assert abs(abs((1 - e) / 2) ** 2 - mpmath.sin(half) ** 2) < 2 ** -190

    def test_probabilities_against_200_bit_values(self):
        # exact Fractions where cos(phi) is rational, else within 8 ulp
        for t in turns_up_to(60):
            report = mz_simulate(RationalAngle(t))
            with mpmath.workprec(200):
                half = mpmath.pi * mpmath.mpf(t.numerator) / t.denominator
                exact = (mpmath.sin(half) ** 2, mpmath.cos(half) ** 2)
                for got, want in zip(report.output_probabilities, exact):
                    if report.output_definable:
                        assert isinstance(got, Fraction)
                        assert abs(mpmath.mpf(got.numerator) / got.denominator
                                   - want) < 2 ** -190
                    else:
                        assert isinstance(got, float)
                        want = float(want)
                        assert abs(got - want) <= 8 * math.ulp(want), t


def delayed_choice(turns, mirror):
    """The report of `rationalqm delayed-choice --turns TURNS --mirror MIRROR`."""
    args = parse_args(build_parser(), ["delayed-choice", "--turns", str(turns),
                                       "--mirror", mirror])
    report, _ = args.func(args)
    return report


class TestDelayedChoice:
    def test_mirror_out_always_satisfied(self):
        for t in ("1/5", "1/7", "1/4"):
            report = delayed_choice(t, "out")
            assert report["satisfied"]
            assert report["demanded"] == "phi/2pi rational"

    def test_mirror_in_needs_rational_cosine(self):
        assert delayed_choice("1/6", "in")["satisfied"]
        assert not delayed_choice("1/5", "in")["satisfied"]

    def test_late_insertion_changes_the_demand_not_the_phase(self):
        late_in = delayed_choice("1/5", "in")
        late_out = delayed_choice("1/5", "out")
        assert late_in["demanded"] != late_out["demanded"]
        assert late_in["phi"] == late_out["phi"]
        assert late_in["certificate"] == late_out["certificate"]

    @pytest.mark.parametrize("mirror", ["in", "out"])
    def test_every_turn_to_denominator_24(self, mirror):
        # With the mirror in, cos(phi) must be rational: by Niven's theorem,
        # exactly at the reduced denominators 1, 2, 3, 4 and 6. With it out,
        # every rational turn is which-path definable.
        for t in turns_up_to(24):
            report = delayed_choice(t, mirror)
            assert report["phi"] == RationalAngle(t)
            assert report["second_mirror_in"] is (mirror == "in")
            want = t.denominator in {1, 2, 3, 4, 6} if mirror == "in" else True
            assert report["satisfied"] is want, t
            assert report["certificate"] == niven_cosine(RationalAngle(t)), t


def half_difference(phi_a, phi_b):
    return RationalAngle((angle(phi_a).turns - angle(phi_b).turns) / 2)


class TestIdentitySplit:
    """The split amplitude 2cos((a-b)/2) of two phases is rational exactly
    when cos^2 of the half difference is."""

    def test_equal_phases(self):
        assert certified_cos_squared(half_difference("1/5", "1/5")) == 1

    def test_exceptional_pair(self):
        # half difference 1/12 of a turn: cos^2 = 3/4 rational
        assert certified_cos_squared(half_difference("1/6", "0")) == Fraction(3, 4)

    def test_generic_pair_clashes(self):
        # half difference 1/10 of a turn: cos^2 irrational
        assert certified_cos_squared(half_difference("1/5", "0")) is None


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

    @pytest.mark.parametrize("cosines,error", [
        # within tol = 1e-9 of a unit sum, yet 1 - cp^2 < 0
        ((0.0, 1 + 1e-10, 0.0), None),
        ((math.nan, 0.0, 1.0), "finite"),
        ((math.inf, 0.0, 1.0), "finite"),
        ((0.0, -math.inf, 1.0), "finite"),
        # too large for a float: only the unit-sum check rejects it
        ((Fraction(10 ** 400), Fraction(0), Fraction(1)), "unit square sum"),
    ], ids=["overshoot", "nan", "inf", "-inf", "huge-fraction"])
    def test_edge_inputs(self, cosines, error):
        if error is None:
            report = uncertainty_check(cosines, tol=1e-9)
            assert report.holds and report.sigma_product == 0.0
        else:
            with pytest.raises(ValueError, match=error):
                uncertainty_check(cosines, tol=1e-9)

    def test_sigma_product_is_correctly_rounded(self):
        # against the test's own mpmath at 2000 bits, far past any tie a
        # 53-bit rounding could meet at these sizes
        rng = random.Random(20)
        values = [Fraction(0)]
        for _ in range(10_000):
            num, den = (rng.getrandbits(rng.randint(3, 700)) for _ in range(2))
            values.append(Fraction(num, den or 1))
        values += [Fraction(rng.getrandbits(rng.randint(1, 350)),
                            rng.getrandbits(rng.randint(1, 350)) or 1) ** 2
                   for _ in range(200)]  # exact squares
        with mpmath.workprec(2000):
            for x in values:
                want = float(mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator))
                assert _sqrt_float(x) == want, x

    def test_sigma_product_rounds_once_below_the_normal_range(self):
        # mpmath's own float() rounds twice there, so compare distances
        rng = random.Random(21)
        with mpmath.workprec(3000):
            for _ in range(1_000):
                x = Fraction(rng.getrandbits(60) | 1, 1 << rng.randint(2050, 2140))
                root = mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator)
                got = _sqrt_float(x)
                for other in (math.nextafter(got, 0), math.nextafter(got, 1)):
                    assert abs(got - root) <= abs(other - root), x

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
        with pytest.raises(ValueError, match="need at least one direction"):
            aggregate_directions([])
        with pytest.raises(ValueError, match="need at least one direction"):
            aggregate_directions(iter(()))

    def test_iterator_matches_list(self):
        rng = random.Random(3)
        directions = [(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2 * math.pi))
                      for _ in range(500)]
        assert (aggregate_directions(iter(directions), seed=3)
                == aggregate_directions(directions, seed=3))

    def test_samples_not_held_in_memory(self):
        # the M directions stream through the sums: a list of 20,000
        # (cos, phi) tuples alone would take over 2 MiB
        tracemalloc.start()
        try:
            report = position_momentum_aggregate(20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.samples == 20_000
        assert peak < 256 * 1024

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            position_momentum_aggregate(50, seed=-2)


def reference_snap(target: Fraction, L: int) -> int:
    """The even m in [0, L] whose 2m/L - 1 is nearest the target, by search;
    of two equally near, the one with m/2 even."""
    return min(range(0, L + 1, 2),
               key=lambda m: (abs(Fraction(2 * m - L, L) - target), m // 2 % 2))


class TestSnapping:
    def test_exact_hit(self):
        point = snap_to_lattice(-0.5, 8)
        assert (point.m, point.n, point.L) == (2, 0, 8)
        assert point.cos_theta == Fraction(-1, 2)

    def test_poles(self):
        assert snap_to_lattice(1.0, 6).m == 6
        assert snap_to_lattice(-1.0, 6).m == 0

    def test_default_epsilon_always_feasible(self):
        # even m is a grid of spacing 4/L, so no target is more than 2/L off
        rng = random.Random(8)
        for _ in range(200):
            target = rng.uniform(-1, 1)
            point = snap_to_lattice(target, 360)
            assert abs(float(point.cos_theta) - target) <= 2 / 360

    def test_parity_restriction(self):
        point = snap_to_lattice(0.0, 10)
        assert point.m == 4 and point.cos_theta == Fraction(-1, 5)
        for L in (2, 4, 6, 10, 12, 30):
            for k in range(-2 * L, 2 * L + 1):
                target = Fraction(k, 2 * L)
                assert snap_to_lattice(target, L).m == reference_snap(target, L)

    @pytest.mark.parametrize("L", [0, -2, 1, 7])
    def test_rejects_odd_or_small_L(self, L):
        with pytest.raises(ValueError, match="even"):
            snap_to_lattice(0.0, L)

    @pytest.mark.parametrize("target", [1.5, Fraction(-9, 8)])
    def test_rejects_target_out_of_range(self, target):
        with pytest.raises(ValueError, match="target_cos"):
            snap_to_lattice(target, 8)


class TestSternGerlach:
    """The swapped-order Stern-Gerlach world is definable exactly when the
    impossible-triangle check finds a rational third cosine, and the Bell
    sum is defined for a pair of settings exactly when that counterfactual
    third setting is."""

    NIVEN_REASON = ("cos^2 of the interior angle is irrational, so the cross term "
                    "cannot be rational")

    @pytest.mark.parametrize("cos_ab,cos_bc,turns,possible,reason,third", [
        ("3/5", "4/5", "179/360", False, NIVEN_REASON, None),
        ("3/5", "4/5", "181/360", False, NIVEN_REASON, None),
        ("3/5", "3/5", "1/2", True, "third side has rational cosine -7/25",
         Fraction(-7, 25)),
        ("1", "1/3", "1/7", True, "degenerate", Fraction(1, 3)),
        ("1", "0", "1/5", True, "degenerate", Fraction(0)),
    ])
    def test_verdict(self, cos_ab, cos_bc, turns, possible, reason, third):
        verdict = itc_verdict(Fraction(cos_ab), Fraction(cos_bc), angle(turns))
        assert (verdict.possible, verdict.reason) == (possible, reason)
        assert verdict.third_side.rational == third

    def test_cosines_range_checked_by_name(self):
        with pytest.raises(ValueError, match=r"\|cos_ab\| must be <= 1"):
            itc_verdict(Fraction(2), Fraction(1, 3), angle("1/5"))
        with pytest.raises(ValueError, match=r"\|cos_bc\| must be <= 1"):
            itc_verdict(Fraction(1, 2), Fraction(-3, 2), angle("1/5"))


class TestBellHarness:
    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError):
            bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 360, 50, 1)

    def test_rejects_odd_L(self):
        with pytest.raises(ValueError):
            bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 361, 1000, 1)

    def test_checks_draw_width_before_building_strings(self, monkeypatch):
        # bell builds nothing of length L: at L = 2^30 it runs in well under
        # a MiB, and 2^31 is refused because its draws do not fit a lane
        def no_strings(*args):
            raise AssertionError("singlet strings built by the Bell harness")
        monkeypatch.setattr(experiments, "canonical_two_qubit_strings", no_strings,
                            raising=False)
        monkeypatch.setattr(states, "canonical_two_qubit_strings", no_strings)
        tracemalloc.start()
        try:
            bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 2 ** 30, 1000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        with pytest.raises(ValueError, match="at most 31"):
            bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 2 ** 31, 100, 1)

    def test_lane_width_is_checked_before_the_seed(self):
        with pytest.raises(ValueError, match="at most 31"):
            bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 2 ** 31, 100, -1)

    def test_small_run_structure(self):
        report = bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3),
                          360, 500, seed=3)
        assert [p.label for p in report.pairs] == ["AB", "AC", "BC"]
        assert report.bell_quantity_nominal == pytest.approx(1.5, abs=1e-9)
        for p in report.pairs:
            assert -1 <= p.correlation <= 1
            assert p.trials == 500

    def test_rational_nominal_cosines_are_exact(self):
        # at the README angles every relative turn has a rational cosine,
        # and math.cos would give 0.5000000000000001 and -0.5000000000000004
        report = bell_run(Fraction(0), Fraction(1, 6), Fraction(1, 3), 360, 100, 7)
        assert [p.nominal_cos for p in report.pairs] == [0.5, -0.5, 0.5]
        assert [p.predicted_nominal for p in report.pairs] == [-0.5, 0.5, -0.5]
        assert report.bell_quantity_nominal == 1.5
        niven = bell_run(Fraction(0), Fraction(1, 5), Fraction(2, 7), 1024, 100, 3)
        assert [p.nominal_cos for p in niven.pairs] == [
            math.cos(2 * math.pi * float(p.relative_turns)) for p in niven.pairs]

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

    @pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 360, 362, 1024])
    @pytest.mark.parametrize("angles", ["0,1/6,1/3", "0,1/4,1/2", "0,1/5,2/7"])
    def test_totals_match_loop_over_singlet_strings(self, L, angles):
        # each pair's total is the per-trial randrange loop over the
        # products of the snapped singlet's canonical strings
        trials, seed = 2 ** 14 + 5, 4
        report = bell_run(*map(parse_fraction, angles.split(",")), L, trials, seed)
        for i, p in enumerate(report.pairs):
            top, bottom = canonical_two_qubit_strings(
                singlet_params(p.snapped_cos), L)
            products = [a * b for a, b in zip(top, bottom)]
            expected = reference_position_sum(products, trials,
                                              random.Random(_pair_seed(seed, i)))
            assert p.correlation == expected / trials

    @pytest.mark.parametrize("L", [2, 6, 362])
    def test_mirror_image_settings_snap_alike(self, L):
        # AB and BC sit at relative turn 3/4 in one run and 1/4 in its
        # mirror; both cosines are 0, a rounding tie when L = 2 mod 4, which
        # must go to even and not to the sign of the float's noise
        one, mirror = (bell_run(Fraction(0), b, Fraction(1, 2), L, 100, 1)
                       for b in (Fraction(1, 4), Fraction(3, 4)))
        expected = Fraction(2 * reference_snap(Fraction(0), L) - L, L)
        for p, q in zip(one.pairs, mirror.pairs):
            if p.label != "AC":
                assert p.snapped_cos == q.snapped_cos == expected

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
            xi = PNO.from_seed(seed, 8)
            state = make_singlet(Fraction(1, 2), 8, xi)
            top_c, bottom_c = canonical_two_qubit_strings(state.params, state.L)
            pos = xi.perm[0]
            assert single_trial_outcomes(Fraction(1, 2), 8, seed) == (
                top_c[pos], bottom_c[pos])


class TestUniformPositionSum:
    @pytest.mark.parametrize("L", [2, 3, 4, 256, 360, 361, 362, 1024])
    @pytest.mark.parametrize("trials", [1, 2 ** 13, 2 ** 13 + 1, 2 ** 14, 2 ** 14 + 1])
    def test_matches_randrange_loop(self, L, trials):
        for k in sorted({0, 1, L // 3, L // 2}):
            values = [1] * k + [-1] * (L - 2 * k) + [1] * k
            bulk, loop = random.Random(L * trials + k), random.Random(L * trials + k)
            assert (_singlet_product_sum(L, k, trials, bulk)
                    == reference_position_sum(values, trials, loop))
            assert bulk.getstate() == loop.getstate()

    M = experiments._MAX_LANES

    @pytest.mark.parametrize("L", [1, 2, 3, 2 ** 16 + 1, 2 ** 30 - 1, 2 ** 30,
                                   2 ** 30 + 1, 2 ** 31 - 2, 2 ** 31 - 1])
    @pytest.mark.parametrize("trials", [1, 100, M - 1, M, M + 1, 2 * M + 1],
                             ids=["1", "100", "M-1", "M", "M+1", "2M+1"])
    def test_matches_interval_loop_at_every_width(self, L, trials):
        # draws of 1 to 31 bits, with trials at the edges of a round of
        # M lanes
        self.check_against_interval_loop(L, trials)

    @pytest.mark.parametrize("L, fields", [(1, 16), (2, 10), (4, 8), (8, 6), (16, 5),
                                           (32, 4), (128, 3), (512, 2),
                                           (2 ** 15 - 1, 2), (2 ** 15, 1)])
    @pytest.mark.parametrize("lanes, extra", [(1, -1), (M, -1), (M, 0), (M, 1)],
                             ids=["fields-1", "fields*M-1", "fields*M", "fields*M+1"])
    def test_matches_interval_loop_at_packed_round_edges(self, L, fields, lanes, extra):
        # fields = 32 // (L.bit_length() + 1) draws share a lane; trials one
        # short of a full lane, and one short of, equal to and one past a
        # full round of M lanes
        assert fields == 32 // (L.bit_length() + 1)
        self.check_against_interval_loop(L, fields * lanes + extra)

    @staticmethod
    def check_against_interval_loop(L, trials):
        # totals and the stream's end state both match
        for k in sorted({0, 1, L // 3, L // 2}):
            if 2 * k > L:
                continue
            bulk, loop = random.Random(L + trials + k), random.Random(L + trials + k)
            assert (_singlet_product_sum(L, k, trials, bulk)
                    == reference_interval_sum(L, k, trials, loop))
            assert bulk.getstate() == loop.getstate()
