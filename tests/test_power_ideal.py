"""Closed forms for Hilbert functions, initial-ideal membership, and the
lattice counts controlling the dimension correction.

Frozen values here were computed by hand from the prefix inequalities and
cross-checked against the rank oracle (see test_oracle.py for the live
comparisons).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splinedim.power_ideal import (
    TiePair,
    colon_membership,
    degree_thresholds,
    hilbert_colon,
    hilbert_power_ideal,
    homology_dim,
    homology_regularity,
    in_membership,
    intersection_initdeg,
    supersmoothness_threshold,
)
from splinedim.exact import binom


# ---------------------------------------------------------------- Hilbert

def test_hilbert_power_ideal_values():
    assert hilbert_power_ideal((2, 3), 4) == 3
    assert hilbert_power_ideal((2, 3), 2) == 0
    assert hilbert_power_ideal((2, 3), 3) == 1
    assert hilbert_power_ideal((6, 6, 6), 7) == 3
    assert hilbert_power_ideal((6, 6, 6), 6) == 0
    # saturates at the full space once the sum passes d + 1
    assert hilbert_power_ideal((1, 1, 1), 9) == 10


def test_hilbert_power_ideal_order_independent():
    assert hilbert_power_ideal((3, 1, 2), 5) == hilbert_power_ideal((1, 2, 3), 5)


def test_hilbert_power_ideal_negative_degree():
    assert hilbert_power_ideal((2, 2), -1) == 0


def test_hilbert_power_ideal_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_power_ideal((), 3)
    with pytest.raises(ValueError):
        hilbert_power_ideal((2, -1), 3)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=5), st.integers(0, 25))
def test_hilbert_bounded_and_monotone(a, d):
    h = hilbert_power_ideal(a, d)
    assert 0 <= h <= d + 1
    # the ideal piece can only grow with d, and by at most one less than full
    assert hilbert_power_ideal(a, d + 1) >= h


@given(st.lists(st.integers(0, 9), min_size=2, max_size=5), st.integers(0, 25))
def test_hilbert_eventually_full(a, d):
    # with two or more generators the piece fills up once d > sum(a)
    big = max(d, sum(a) + 1)
    assert hilbert_power_ideal(a, big) == big + 1


@given(st.integers(0, 9), st.integers(0, 30))
def test_hilbert_single_generator_is_principal(a1, d):
    # one generator of multiplicity a is the principal ideal of ell^(a+1)
    assert hilbert_power_ideal((a1,), d) == max(d - a1, 0)


def test_hilbert_colon_values():
    assert hilbert_colon((6, 6, 6), 7, 0) == 0
    assert hilbert_colon((6, 6, 6), 7, 1) == 0
    assert hilbert_colon((6, 6, 6), 7, 2) == 2
    assert hilbert_colon((6, 6, 6), 7, 3) == 4
    # e = 0 reduces to the plain Hilbert function
    for d in range(12):
        assert hilbert_colon((2, 4, 5), 0, d) == hilbert_power_ideal((2, 4, 5), d)
    # a negative degree gives 0, whether d + e is negative or not
    for e, d in ((0, -1), (2, -3), (3, -1), (7, -2), (9, -4)):
        assert hilbert_colon((1, 1, 2), e, d) == 0


@given(st.lists(st.integers(0, 8), min_size=1, max_size=5),
       st.integers(0, 8), st.integers(0, 20))
def test_hilbert_colon_bounds(a, e, d):
    h = hilbert_colon(a, e, d)
    assert 0 <= h <= d + 1
    # coloning by a deeper power can only enlarge the ideal
    assert hilbert_colon(a, e + 1, d) >= h


# ---------------------------------------------------------- membership

def test_in_membership_prefix_criterion():
    # a = (2, 3): x^3 beats the first prefix (2 < 3)
    assert in_membership((2, 3), 3, 0)
    assert not in_membership((2, 3), 2, 0)
    assert in_membership((2, 3), 2, 2)  # j = 2: 5 < 4 + 2
    # pure y-powers enter only once the j = 2 prefix is beaten
    assert not in_membership((2, 3), 0, 5)
    assert in_membership((2, 3), 0, 6)
    # with a single generator the y-exponent never matters
    assert not in_membership((2,), 0, 99)
    assert in_membership((2,), 3, 99)


def test_in_membership_rejects_negative_exponents():
    with pytest.raises(ValueError):
        in_membership((2, 3), -1, 0)
    with pytest.raises(ValueError):
        in_membership((2, 3), 0, -2)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=5),
       st.integers(0, 20), st.integers(0, 20))
def test_membership_upward_closed(a, ex, ey):
    # monomial ideal: divisibility preserves membership
    if in_membership(a, ex, ey):
        assert in_membership(a, ex + 1, ey)
        assert in_membership(a, ex, ey + 1)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=5), st.integers(0, 22))
def test_membership_counts_match_hilbert(a, d):
    count = sum(1 for ex in range(d + 1) if in_membership(a, ex, d - ex))
    assert count == hilbert_power_ideal(a, d)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=5), st.integers(0, 22))
def test_membership_is_lex_segment(a, d):
    # within a degree, membership is an upper segment in the x-exponent
    flags = [in_membership(a, ex, d - ex) for ex in range(d + 1)]
    # flags go from False (low x-power) to True with a single switch
    for lo, hi in zip(flags, flags[1:]):
        assert hi or not lo


def test_equal_multiplicity_membership_closed_form():
    # s copies of r: membership collapses to s*r < s*A + (s-1)*B
    for s in range(1, 6):
        for r in range(0, 8):
            a = (r,) * s
            for ex in range(0, 3 * r + 4):
                for ey in range(0, 3 * r + 4):
                    expected = s * r < s * ex + (s - 1) * ey
                    assert in_membership(a, ex, ey) == expected


@given(st.lists(st.integers(0, 8), min_size=1, max_size=5),
       st.integers(0, 8), st.integers(0, 15), st.integers(0, 15))
def test_colon_membership_is_shift(a, e, ex, ey):
    assert colon_membership(a, e, ex, ey) == in_membership(a, ex, ey + e)


@given(st.lists(st.integers(0, 8), min_size=1, max_size=5),
       st.integers(0, 8), st.integers(0, 20))
def test_colon_membership_counts_match_hilbert_colon(a, e, d):
    count = sum(1 for ex in range(d + 1) if colon_membership(a, e, ex, d - ex))
    assert count == hilbert_colon(a, e, d)


def test_colon_nonmembers_triple_six():
    # a = (6,6,6), e = 7: outside the colon initial ideal iff 3A + 2C <= 4
    outside = {(ex, ec) for ex in range(10) for ec in range(10)
               if not colon_membership((6, 6, 6), 7, ex, ec)}
    assert outside == {(ex, ec) for ex in range(10) for ec in range(10)
                       if 3 * ex + 2 * ec <= 4}


def test_colon_nonmembers_quadruple_five():
    # a = (5,5,5,5), e = 6: outside iff 4B + 3C <= 2
    outside = {(ey, ec) for ey in range(8) for ec in range(8)
               if not colon_membership((5, 5, 5, 5), 6, ey, ec)}
    assert outside == {(ey, ec) for ey in range(8) for ec in range(8)
                       if 4 * ey + 3 * ec <= 2}


def _mingens(member):
    """Minimal generators of a monomial ideal given by a membership predicate."""
    gens = []
    for tot in range(0, 25):
        for ex in range(tot, -1, -1):
            ec = tot - ex
            if not member(ex, ec):
                continue
            covered = (ex > 0 and member(ex - 1, ec)) or (ec > 0 and member(ex, ec - 1))
            if not covered:
                gens.append((ex, ec))
    return sorted(gens)


def test_min_generators_of_star_initial_ideals_r6():
    # the two power ideals at the edge endpoints for (s, t, r) = (3, 4, 6):
    # three and four forms, all to the 7th power
    gens1 = _mingens(lambda ex, ec: in_membership((6, 6, 6), ex, ec))
    assert gens1 == sorted(
        [(7, 0), (6, 1), (5, 2), (4, 4), (3, 5), (2, 7), (1, 8), (0, 10)])
    gens2 = _mingens(lambda ex, ec: in_membership((6, 6, 6, 6), ex, ec))
    assert gens2 == sorted(
        [(7, 0), (6, 1), (5, 2), (4, 3), (3, 5), (2, 6), (1, 7), (0, 9)])


def test_min_generators_of_colon_r6():
    # coloning the (6,6,6) ideal by the 7th power of a new form leaves x^2, xz, z^3
    gens = _mingens(lambda ex, ec: colon_membership((6, 6, 6), 7, ex, ec))
    assert gens == sorted([(2, 0), (1, 1), (0, 3)])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: hilbert_colon((2, 3), -1, 4), id="hilbert_colon-negative-e"),
    pytest.param(lambda: colon_membership((2, 3), -1, 0, 0), id="colon_membership-negative-e"),
    # integer arguments only: int() or a bool would answer for another input
    pytest.param(lambda: hilbert_power_ideal([2.7, 1], 5), id="multiplicity-float"),
    pytest.param(lambda: hilbert_power_ideal(["2", True], 5), id="multiplicity-str-bool"),
    pytest.param(lambda: in_membership([1, 2], 1.5, 1), id="in_membership-float-exponent"),
    pytest.param(lambda: in_membership([1, 2], 1, True), id="in_membership-bool-exponent"),
    pytest.param(lambda: TiePair(2, 2, True), id="TiePair-bool-r"),
    pytest.param(lambda: TiePair(2.0, 2, 3), id="TiePair-float-s"),
    pytest.param(lambda: hilbert_power_ideal([1, 2], 4.5), id="hilbert_power_ideal-float-d"),
    pytest.param(lambda: hilbert_power_ideal([1, 2], True), id="hilbert_power_ideal-bool-d"),
    pytest.param(lambda: hilbert_colon([1, 2], 1.5, 3), id="hilbert_colon-float-e"),
    pytest.param(lambda: hilbert_colon([1, 2], 1, 2.5), id="hilbert_colon-float-d"),
    pytest.param(lambda: colon_membership([1, 2], True, 1, 1), id="colon_membership-bool-e"),
    pytest.param(lambda: homology_dim(TiePair(2, 2, 1), 4.5), id="homology_dim-float-d"),
    pytest.param(lambda: homology_dim(TiePair(2, 2, 1), True), id="homology_dim-bool-d"),
    # integers 2 <= s <= t and r >= 0 only, the range f_explicit relies on
    pytest.param(lambda: degree_thresholds(True, 3, 4), id="degree_thresholds-bool-s"),
    pytest.param(lambda: degree_thresholds(2.5, 3, 4), id="degree_thresholds-float-s"),
    pytest.param(lambda: degree_thresholds(2, 1, 3), id="degree_thresholds-t-below-2"),
    pytest.param(lambda: degree_thresholds(0, 2, 3), id="degree_thresholds-s-zero"),
    pytest.param(lambda: degree_thresholds(3, 2, 3), id="degree_thresholds-s-above-t"),
    pytest.param(lambda: degree_thresholds(2, 3, -1), id="degree_thresholds-negative-r"),
])
def test_argument_contracts(call):
    with pytest.raises(ValueError):
        call()


# ------------------------------------------------------------- TiePair

def test_tie_pair_validation():
    TiePair(2, 2, 1)
    TiePair(3, 4, 6)
    with pytest.raises(ValueError):
        TiePair(1, 2, 5)
    with pytest.raises(ValueError):
        TiePair(3, 2, 5)
    with pytest.raises(ValueError):
        TiePair(2, 7, 5)


def test_homology_dim_values():
    assert homology_dim(TiePair(3, 4, 8), 12) == 1
    assert homology_dim(TiePair(2, 3, 5), 9) == 1
    assert homology_dim(TiePair(2, 2, 1), 2) == 1
    assert homology_dim(TiePair(2, 2, 1), 3) == 0


@given(st.integers(1, 12), st.data())
def test_homology_dim_zero_below_r_plus_one(r, data):
    s = data.draw(st.integers(2, r + 1))
    t = data.draw(st.integers(s, r + 1))
    d = data.draw(st.integers(0, r))
    assert homology_dim(TiePair(s, t, r), d) == 0


def homology_dim_planar(tp, d):
    """The lattice count with C = d - (r+1) - A - B eliminated, as a referee."""
    s, t, r = tp.s, tp.t, tp.r
    level = d - (r + 1)
    if level < 0:
        return 0
    count = 0
    for aa in range(level + 1):
        for bb in range(level - aa + 1):
            if aa - bb * (s - 1) <= s * r - d * (s - 1) and bb - aa * (t - 1) <= t * r - d * (t - 1):
                count += 1
    return count


@settings(max_examples=60)
@given(st.integers(1, 12), st.data())
def test_homology_dim_matches_planar_route(r, data):
    s = data.draw(st.integers(2, r + 1))
    t = data.draw(st.integers(s, r + 1))
    tp = TiePair(s, t, r)
    for d in range(0, 3 * r + 3):
        assert homology_dim(tp, d) == homology_dim_planar(tp, d)


@pytest.mark.parametrize("r", [40, 97])
def test_homology_dim_matches_planar_route_at_large_r(r):
    for s, t in [(2, 2), (2, 3), (3, 4), (5, 7), (r + 1, r + 1)]:
        tp = TiePair(s, t, r)
        for d in range(r + 1, homology_regularity(tp) + 3):
            assert homology_dim(tp, d) == homology_dim_planar(tp, d), (s, t, r, d)


def test_homology_regularity_values():
    assert homology_regularity(TiePair(3, 4, 6)) == 8
    assert homology_regularity(TiePair(3, 4, 10)) == 15
    assert homology_regularity(TiePair(3, 4, 8)) == 12
    assert homology_regularity(TiePair(2, 2, 5)) == 10
    assert homology_regularity(TiePair(2, 2, 1)) == 2


@given(st.integers(1, 11), st.data())
def test_regularity_is_last_nonzero_degree(r, data):
    s = data.draw(st.integers(2, r + 1))
    t = data.draw(st.integers(s, r + 1))
    tp = TiePair(s, t, r)
    reg = homology_regularity(tp)
    assert homology_dim(tp, reg) > 0
    assert homology_dim(tp, reg + 1) == 0
    assert homology_dim(tp, reg + 2) == 0


@given(st.integers(1, 14), st.data())
def test_regularity_window(r, data):
    s = data.draw(st.integers(2, r + 1))
    t = data.draw(st.integers(s, r + 1))
    reg = homology_regularity(TiePair(s, t, r))
    lo = (r + 1) // s + (r + 1) // t + r - 1
    hi_frac = Fraction(r + 1, s) + Fraction(r + 1, t) + r - 1
    hi = hi_frac.numerator // hi_frac.denominator
    assert lo <= reg <= hi


@given(st.integers(1, 14), st.data())
def test_no_gaps_in_nonzero_range(r, data):
    s = data.draw(st.integers(2, r + 1))
    t = data.draw(st.integers(s, r + 1))
    tp = TiePair(s, t, r)
    reg = homology_regularity(tp)
    for d in range(r + 1, reg + 1):
        assert homology_dim(tp, d) > 0


def test_two_two_regularity_is_2r():
    # s = t = 2: congruence holds exactly for odd r + 1, the closed form
    # lands on 2r either way
    for r in range(1, 15):
        assert homology_regularity(TiePair(2, 2, r)) == 2 * r


# ------------------------------------------------- threshold and initdeg

def test_supersmoothness_threshold_values():
    assert supersmoothness_threshold(TiePair(3, 4, 6)) == Fraction(26, 3)
    assert supersmoothness_threshold(TiePair(2, 2, 1)) == 2
    assert supersmoothness_threshold(TiePair(2, 3, 5)) == Fraction(35, 4)


def test_intersection_initdeg_values():
    assert intersection_initdeg(TiePair(2, 2, 1)) == 1
    assert intersection_initdeg(TiePair(3, 4, 6)) == 3
    # (1, 0, 2) violates both bounds at (s, t, r) = (3, 4, 8)
    assert intersection_initdeg(TiePair(3, 4, 8)) == 3


def test_intersection_initdeg_brute_force():
    for r in range(1, 11):
        for s in range(2, r + 2):
            for t in range(s, r + 2):
                tp = TiePair(s, t, r)
                best = None
                bound = 3 * r + 6
                for aa in range(bound):
                    for bb in range(bound - aa):
                        for cc in range(bound - aa - bb):
                            if s * aa + (s - 1) * cc > r + 1 - s and \
                               t * bb + (t - 1) * cc > r + 1 - t:
                                tot = aa + bb + cc
                                if best is None or tot < best:
                                    best = tot
                assert intersection_initdeg(tp) == best


@given(st.integers(1, 12), st.data())
def test_initdeg_exceeds_threshold_bound(r, data):
    s = data.draw(st.integers(2, r + 1))
    t = data.draw(st.integers(s, r + 1))
    tp = TiePair(s, t, r)
    assert intersection_initdeg(tp) > Fraction(t * r, s * (t - 1)) - 1


def test_schumaker_binomial_sanity():
    # the star-term binomials used downstream vanish in low degree
    assert binom(0, 2) == 0
    assert binom(1, 2) == 0
    assert binom(2, 2) == 1
