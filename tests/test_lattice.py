import csv
import io
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rationalqm import lattice
from rationalqm.lattice import (I_GENERATOR, LatticePoint, PNO, QUATERNIONS,
                                block_string, build_spinorial_circle,
                                canonical_bitstring, interpolated_circle,
                                iter_lattice, lattice_size, lattice_to_csv,
                                negate, ones_fraction, zeta)

bits_strategy = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=64).map(tuple)


def reference_lattice_csv(L):
    """The per-point CSV dump that lattice_to_csv reproduces byte for byte."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["m", "n", "L", "cos_theta", "bits"])
    for p in iter_lattice(L):
        c = p.cos_theta
        writer.writerow([p.m, p.n, p.L, f"{c.numerator}/{c.denominator}",
                         " ".join(str(b) for b in canonical_bitstring(p))])
    return out.getvalue()


class TestIGenerator:
    """The i-generator {a1, a2} -> {-a2, a1}, applied as the length-2 PNO."""

    def test_quarter_turn(self):
        assert I_GENERATOR.apply((1, 1)) == (-1, 1)

    def test_square_is_negation(self):
        for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            assert I_GENERATOR.apply(I_GENERATOR.apply(s)) == negate(s)

    def test_fourth_power_is_identity(self):
        for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            t = s
            for _ in range(4):
                t = I_GENERATOR.apply(t)
            assert t == s

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="arity 2"):
            I_GENERATOR.apply((1, 1, 1))


def all_length4_strings():
    out = []
    for a in (1, -1):
        for b in (1, -1):
            for c in (1, -1):
                for d in (1, -1):
                    out.append((a, b, c, d))
    return out


class TestQuaternions:
    def test_listed_actions_on_all_ones(self):
        s = (1, 1, 1, 1)
        assert QUATERNIONS["I"].apply(s) == (1, 1, -1, -1)
        assert QUATERNIONS["J"].apply(s) == (1, -1, -1, 1)
        assert QUATERNIONS["K"].apply(s) == (-1, 1, -1, 1)

    def test_units_square_to_minus_one(self):
        for name in ("I", "J", "K"):
            op = QUATERNIONS[name]
            for s in all_length4_strings():
                assert op.apply(op.apply(s)) == negate(s)

    def test_ij_equals_k(self):
        I, J, K = QUATERNIONS["I"], QUATERNIONS["J"], QUATERNIONS["K"]
        for s in all_length4_strings():
            assert I.apply(J.apply(s)) == K.apply(s)

    def test_jk_equals_i_and_ki_equals_j(self):
        I, J, K = QUATERNIONS["I"], QUATERNIONS["J"], QUATERNIONS["K"]
        for s in all_length4_strings():
            assert J.apply(K.apply(s)) == I.apply(s)
            assert K.apply(I.apply(s)) == J.apply(s)

    def test_anticommutation(self):
        I, J = QUATERNIONS["I"], QUATERNIONS["J"]
        for s in all_length4_strings():
            assert I.apply(J.apply(s)) == negate(J.apply(I.apply(s)))

    def test_inverse(self):
        # each unit squares to -1, so its inverse is its negation
        for op in QUATERNIONS.values():
            for s in all_length4_strings():
                assert op.apply(negate(op.apply(s))) == s


class TestPNO:
    def test_bad_perm_rejected(self):
        with pytest.raises(ValueError):
            PNO((0, 0), (1, 1))

    def test_signs_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="signs must be"):
            PNO(perm=(1, 0), signs=(1, 0))


class TestZeta:
    def test_single_step(self):
        assert zeta((1, 1, -1, -1)) == (1, -1, -1, 1)

    def test_full_cycle_is_identity(self):
        s = (1, -1, -1, 1, 1)
        assert zeta(s, 5) == s

    def test_empty_string_is_its_own_shift(self):
        assert zeta((), 3) == ()

    def test_ones_fraction_of_empty_string_rejected(self):
        with pytest.raises(ValueError, match="empty bit string"):
            ones_fraction(())

    @given(bits_strategy, st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=200))
    def test_group_action(self, s, j, k):
        assert zeta(zeta(s, j), k) == zeta(s, j + k)

    @given(bits_strategy)
    def test_order_divides_length(self, s):
        L = len(s)
        order = next(k for k in range(1, L + 1) if zeta(s, k) == s)
        assert L % order == 0

    @given(bits_strategy, st.integers(min_value=0, max_value=200))
    def test_ones_fraction_invariant(self, s, k):
        assert ones_fraction(zeta(s, k)) == ones_fraction(s)


class TestLatticePoint:
    def test_properties(self):
        p = LatticePoint(3, 1, 4)
        assert p.ones == Fraction(3, 4)
        assert p.cos_theta == Fraction(1, 2)

    def test_pole_longitude_normalised(self):
        assert LatticePoint(0, 3, 8).n == 0
        assert LatticePoint(8, 5, 8).n == 0

    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            LatticePoint(5, 0, 4)
        with pytest.raises(ValueError):
            LatticePoint(2, 4, 4)

    def test_block_needs_m_within_L(self):
        with pytest.raises(ValueError, match="m must be in"):
            block_string(5, 4)

    def test_canonical_bitstring(self):
        assert canonical_bitstring(LatticePoint(2, 0, 4)) == (1, 1, -1, -1)
        assert canonical_bitstring(LatticePoint(2, 1, 4)) == (1, -1, -1, 1)

    @given(st.integers(min_value=1, max_value=24), st.data())
    def test_ones_fraction_matches_point(self, L, data):
        m = data.draw(st.integers(min_value=0, max_value=L))
        n = data.draw(st.integers(min_value=0, max_value=L - 1))
        p = LatticePoint(m, n, L)
        s = canonical_bitstring(p)
        assert ones_fraction(s) == Fraction(m, L)
        assert 2 * ones_fraction(s) - 1 == p.cos_theta


class TestSpinorialCircle:
    def test_base_case(self):
        assert build_spinorial_circle(2) == [
            (1, 1), (-1, 1), (-1, -1), (1, -1)]

    def test_length_four_circle(self):
        # the full 4pi cycle at L=4, all eight strings in order
        assert build_spinorial_circle(4) == [
            (1, 1, 1, 1), (1, 1, -1, 1), (1, 1, -1, -1), (1, -1, -1, -1),
            (-1, -1, -1, -1), (-1, -1, 1, -1), (-1, -1, 1, 1), (-1, 1, 1, 1)]

    def test_length_four_circle_from_recursion_structure(self):
        half = build_spinorial_circle(2)
        circle = build_spinorial_circle(4)
        assert len(circle) == 8
        assert circle[0] == half[0] + half[0]
        # first run steps the second half forward, second run the first
        # half backward
        assert circle[1] == half[0] + half[1]
        assert circle[3] == half[-1] + half[2]

    def test_cycle_closes(self):
        for L in (2, 4, 8, 16):
            circle = build_spinorial_circle(L)
            assert len(circle) == 2 * L
            assert len(set(circle)) == 2 * L
            assert all(len(s) == L for s in circle)

    def test_closure_check_survives_optimisation(self, monkeypatch):
        # a half circle of the wrong length cannot close the cycle; the
        # check is a real exception, not an assert that python -O strips
        build = lattice.build_spinorial_circle

        def overlong(L):
            circle = build(L)
            return circle + [circle[1]] if L == 4 else circle

        monkeypatch.setattr(lattice, "build_spinorial_circle", overlong)
        with pytest.raises(RuntimeError, match="does not close"):
            lattice.build_spinorial_circle(8)

    def test_antipodal_halves(self):
        # a 2pi rotation is global negation; the second L strings are the
        # negations of the first L
        for L in (2, 4, 8):
            circle = build_spinorial_circle(L)
            for k in range(L):
                assert circle[k + L] == negate(circle[k])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_spinorial_circle(6)


class TestInterpolatedCircle:
    def test_length_three(self):
        assert interpolated_circle(3) == [
            (1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)]
        assert 2 * ones_fraction((1, 1, -1)) - 1 == Fraction(1, 3)

    def test_consistent_with_spinorial_mod_shift(self):
        # the monotone interpolation agrees with the spinorial half-circle up
        # to a cyclic shift at each latitude
        spin = build_spinorial_circle(2)[:3]
        interp = interpolated_circle(2)
        for a, b in zip(interp, spin):
            assert any(zeta(a, k) == b for k in range(len(a)))

    def test_latitudes_descend(self):
        circle = interpolated_circle(5)
        lats = [2 * ones_fraction(s) - 1 for s in circle]
        assert lats == [Fraction(2 * m - 5, 5) for m in range(5, -1, -1)]

    def test_needs_L_at_least_2(self):
        with pytest.raises(ValueError, match="L must be >= 2, got 1"):
            interpolated_circle(1)


class TestLatticeEnumeration:
    def test_point_count(self):
        for L in (1, 2, 3, 8):
            pts = list(iter_lattice(L))
            assert len(pts) == (L - 1) * L + 2 == lattice_size(L)
            assert len(set(pts)) == len(pts)

    @pytest.mark.parametrize("L", [0, -2])
    def test_size_needs_positive_L(self, L):
        with pytest.raises(ValueError, match="positive"):
            lattice_size(L)
        with pytest.raises(ValueError, match="positive"):
            lattice_to_csv(L, io.StringIO())

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 16, 64])
    def test_csv_matches_per_point_writer(self, L):
        buf = io.StringIO(newline="")
        rows = lattice_to_csv(L, buf)
        assert buf.getvalue() == reference_lattice_csv(L)
        assert rows == lattice_size(L)

    def test_csv_pieces_match_per_latitude_join(self):
        """At L = 130 a latitude's 130 rows go out in pieces of 64, 64 and 2,
        and the bytes are those of one join per latitude."""
        L = 130
        expected = ["m,n,L,cos_theta,bits\r\n"]
        for m in range(L + 1):
            block = ["1"] * m + ["-1"] * (L - m)
            c = Fraction(2 * m - L, L)
            expected.append("".join(
                f"{m},{n},{L},{c.numerator}/{c.denominator},"
                f"{' '.join(block[n:] + block[:n])}\r\n"
                for n in ((0,) if m in (0, L) else range(L))))
        writes = []
        buf = io.StringIO(newline="")
        buf.write = lambda text: writes.append(text) or len(text)
        assert lattice_to_csv(L, buf) == lattice_size(L)
        assert "".join(writes) == "".join(expected)
        assert len(writes) == 1 + 2 + 3 * (L - 1)
        assert max(w.count("\n") for w in writes) == 64

    def test_csv_dump(self):
        buf = io.StringIO()
        rows = lattice_to_csv(4, buf)
        lines = buf.getvalue().strip().splitlines()
        assert rows == 14
        assert lines[0] == "m,n,L,cos_theta,bits"
        assert len(lines) == rows + 1
        assert lines[1].startswith("0,0,4,-1/1,")
