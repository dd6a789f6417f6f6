"""Hilbert functions of ideals generated by powers of distinct linear forms.

Everything here is closed-form combinatorics in the multiplicity data.  The
matching rank computations live in the oracle module and are kept strictly
independent so the two routes can be played against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exact import check_ints


def _multiplicities(a: Iterable[int]) -> tuple[int, ...]:
    seq = tuple(a)
    if not seq:
        raise ValueError("empty multiplicity sequence")
    check_ints("multiplicities", *seq, low=0)
    # ascending order is what the prefix criterion below assumes
    return tuple(sorted(seq))


def hilbert_power_ideal(a: Iterable[int], d: int) -> int:
    """Dimension of the degree d piece of an ideal of powers of distinct forms.

    For s distinct linear forms in two variables with prescribed multiplicities
    a_1 <= ... <= a_s, the ideal generated by the (a_i + 1)-th powers has
    degree d slice of dimension min(d + 1, sum_i max(d - a_i, 0)).
    """
    mults = _multiplicities(a)
    check_ints("d", d)
    if d < 0:
        return 0
    return min(d + 1, sum(d - ai for ai in mults if ai < d))


def in_membership(a: Iterable[int], expo_x: int, expo_y: int) -> bool:
    """Whether x^A y^B lies in the initial ideal (lex with x > y).

    Membership holds exactly when some prefix of the multiplicity sequence is
    beaten: sum_{i<=j} a_i < j*A + (j-1)*B for some j.
    """
    mults = _multiplicities(a)
    check_ints("expo_x and expo_y", expo_x, expo_y, low=0)
    prefix = 0
    for j, ai in enumerate(mults, start=1):
        prefix += ai
        if prefix < j * expo_x + (j - 1) * expo_y:
            return True
    return False


def hilbert_colon(a: Iterable[int], e: int, d: int) -> int:
    """Dimension of the degree d piece of the colon by the e-th power of a new form,
    max(hilbert_power_ideal(a, d + e) - e, 0); it is 0 for every d < 0."""
    mults = _multiplicities(a)
    check_ints("e and d", e, d)
    check_ints("e", e, low=0)
    return max(hilbert_power_ideal(mults, d + e) - e, 0)


def colon_membership(a: Iterable[int], e: int, expo_x: int, expo_y: int) -> bool:
    """Initial-ideal membership for the colon: shift the y exponent by e.

    The exponents are checked as given, before the shift.
    """
    check_ints("e", e, low=0)
    check_ints("expo_x and expo_y", expo_x, expo_y, low=0)
    return in_membership(a, expo_x, expo_y + e)


@dataclass(frozen=True)
class TiePair:
    """Slope counts (s, t) at the two endpoints of a totally interior edge,
    together with the smoothness order r.  Only the range 2 <= s <= t <= r + 1
    carries a nonzero correction; anything outside it is a trivial regime."""

    s: int
    t: int
    r: int

    def __post_init__(self) -> None:
        check_ints("s, t and r", self.s, self.t, self.r)
        if not 2 <= self.s <= self.t <= self.r + 1:
            raise ValueError(f"need 2 <= s <= t <= r+1, got {self!r}")


def homology_dim(tp: TiePair, d: int) -> int:
    """Lattice count behind the gap between the spline dimension and its lower bound.

    Counts triples (A, B, C) of nonnegative integers with A + B + C = d - (r+1),
    s*A + (s-1)*C <= r + 1 - s and t*B + (t-1)*C <= r + 1 - t.
    """
    check_ints("d", d)
    s, t, r = tp.s, tp.t, tp.r
    level = d - (r + 1)
    count = 0
    for cc in range(level + 1):
        rem1 = r + 1 - s - (s - 1) * cc
        rem2 = r + 1 - t - (t - 1) * cc
        if rem1 < 0 or rem2 < 0:
            break
        # the admissible A form one interval; t*B <= rem2 with B = level - C - A bounds it below
        count += max(0, min(rem1 // s, level - cc) - max(0, level - cc - rem2 // t) + 1)
    return count


def congruence_case(tp: TiePair) -> bool:
    """Whether r + 1 is one short of a multiple of both s and t."""
    return (tp.r + 1) % tp.s == tp.s - 1 and (tp.r + 1) % tp.t == tp.t - 1


def homology_regularity(tp: TiePair) -> int:
    """Largest degree with a nonzero lattice count, in closed form."""
    s, t, r = tp.s, tp.t, tp.r
    base = (r + 1) // s + (r + 1) // t + r
    return base if congruence_case(tp) else base - 1


def _thresholds(s: int, t: int, r: int) -> tuple[int, int, int, int]:
    """The numerator and the denominator of low, then of high, all integers,
    for 2 <= s <= t and r >= 0; checks nothing.

    low = t r / (s (t - 1)) + r is (t r + r s (t - 1)) / (s (t - 1)), and
    high = (r + 1)/s + (r + 1)/t + r - 1 is ((r + 1)(s + t) + (r - 1) s t) / (s t).
    Both denominators are positive, so an integer d is at most a threshold
    exactly when d times its denominator is at most its numerator.
    """
    return t * r + r * s * (t - 1), s * (t - 1), (r + 1) * (s + t) + (r - 1) * s * t, s * t


def _branch(s: int, t: int, d: int, r: int) -> int:
    """0, 1 or 2 as d <= low, low < d <= high or d > high (_thresholds);
    checks nothing."""
    low_num, low_den, high_num, high_den = _thresholds(s, t, r)
    if d * low_den <= low_num:
        return 0
    if d * high_den <= high_num:
        return 1
    return 2


def degree_thresholds(s: int, t: int, r: int) -> tuple[Fraction, Fraction]:
    """The two degrees that split the closed form into three branches.

    Up to low = t*r / (s*(t-1)) + r the dimension is the companion mesh's
    lower bound; past high = (r+1)/s + (r+1)/t + r - 1 it is the plain lower
    bound; in between a finite sum adds to the plain bound.  Both are read
    from _thresholds, as _branch reads them.
    """
    check_ints("s, t and r", s, t, r)
    check_ints("r", r, low=0)
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got {s!r}, {t!r}")
    low_num, low_den, high_num, high_den = _thresholds(s, t, r)
    return Fraction(low_num, low_den), Fraction(high_num, high_den)


def supersmoothness_threshold(tp: TiePair) -> Fraction:
    """Degree bound t*r / (s*(t-1)) + r under which extra smoothness is forced.

    For d up to this value the spline space matches the one on the companion
    mesh with the shared edge removed, so smoothness across the edge upgrades
    for free.
    """
    return degree_thresholds(tp.s, tp.t, tp.r)[0]


def intersection_initdeg(tp: TiePair) -> int:
    """Least total degree of a monomial violating both prefix bounds at once.

    This is the initial degree of the intersection of the two colon ideals;
    it controls where the supersmoothness identity can stop holding.
    """
    s, t, r = tp.s, tp.t, tp.r
    gaps = ((r + 1 - s - (s - 1) * cc, r + 1 - t - (t - 1) * cc, cc) for cc in range(r + 3))
    # g // n + 1 <= 0 exactly when the gap g is negative
    return min(max(0, g1 // s + 1) + max(0, g2 // t + 1) + cc for g1, g2, cc in gaps)
