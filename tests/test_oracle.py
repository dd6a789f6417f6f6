"""Rank-based oracles played against the closed forms.

Every function here recomputes a dimension by exact linear algebra on a
monomial basis, with no shared code path to the formulas being checked.
"""

from itertools import combinations_with_replacement
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from splinedim import oracle as orc
from splinedim import triangulation as tg
from splinedim import dimension as dm
from splinedim.exact import binom
from splinedim.power_ideal import (
    TiePair,
    hilbert_colon,
    hilbert_power_ideal,
    homology_dim,
    homology_regularity,
)

import conftest


def _gens(slopes, mults, nvars=2):
    """Power-ideal generators: (x + m*y)^(a+1) for each slope m."""
    out = []
    for m, a in zip(slopes, mults):
        coeffs = [1, m] + [0] * (nvars - 2)
        out.append((tuple(coeffs), a + 1))
    return out


# ------------------------------------------------------- spline oracle

def test_oracle_single_triangle():
    tri = conftest.single_triangle()
    for d in range(0, 5):
        for r in range(0, 3):
            assert orc.dim_spline_oracle(tri, d, r) == binom(d + 2, 2)


def test_oracle_square_pair():
    tri = conftest.square_pair()
    # one interior edge: a polynomial on each side, glued to order r
    for d in range(0, 6):
        for r in range(0, 4):
            assert orc.dim_spline_oracle(tri, d, r) == \
                binom(d + 2, 2) + binom(d + 1 - r, 2)


def test_oracle_low_degree_is_polynomials(fig2):
    for r in range(0, 4):
        for d in range(0, r + 1):
            assert orc.dim_spline_oracle(fig2, d, r) == binom(d + 2, 2)


def test_oracle_tohaneanu_c1_quadratics(toh):
    assert orc.dim_spline_oracle(toh, 2, 1) == 10


def test_oracle_figure2_golden(fig2):
    assert orc.dim_spline_oracle(fig2, 12, 8) == 135


def test_oracle_cross_cut():
    tri = conftest.cross_cut_square()
    assert orc.dim_spline_oracle(tri, 2, 1) == 8


def test_oracle_affine_invariance(toh):
    moved = tg.affine_transform(toh, [(2, 1), (0, "1/3")], ("5/2", -7))
    for d, r in ((2, 1), (4, 2), (5, 1)):
        assert orc.dim_spline_oracle(moved, d, r) == orc.dim_spline_oracle(toh, d, r)


def test_oracle_size_guard(fig2):
    with pytest.raises(orc.TooLarge):
        orc.dim_spline_oracle(fig2, 40, 1)
    # the override runs the same computation; spot check a modest size
    assert orc.dim_spline_oracle(fig2, 5, 1, allow_large=True) == \
        orc.dim_spline_oracle(fig2, 5, 1)


def test_oracle_negative_degree(fig2):
    with pytest.raises(ValueError):
        orc.dim_spline_oracle(fig2, -1, 1)
    with pytest.raises(ValueError):
        orc.dim_spline_oracle(fig2, 3, -2)


_MIDX2 = {m: k for k, m in enumerate(orc._monomials_exact(2, 2))}
_PAIR = ([((1, 0, 1), 2)], [((0, 1, 1), 2)], (0, 0, 1))


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: orc.hilbert_ideal_oracle([((1, 0), 2)], -1), 0, id="ideal-negative-d"),
    pytest.param(lambda: orc.hilbert_colon_oracle([((1, 0), 2)], (0, 1), -1, 3), ValueError,
                 id="colon-negative-e"),
    pytest.param(lambda: orc.hilbert_colon_oracle([((1, 0), 2)], (0, 1), 1, -1), 0,
                 id="colon-negative-d"),
    pytest.param(lambda: orc.colon_pair_dims(*_PAIR, -1, 2), ValueError, id="pair-negative-e"),
    pytest.param(lambda: orc.colon_pair_dims(*_PAIR, 1, -1), (0, 0, 0), id="pair-negative-d"),
    # generators, form and exponents are checked at d < 0 as at any other degree
    pytest.param(lambda: orc.hilbert_ideal_oracle([((0, 0), 2)], -1), ValueError,
                 id="ideal-negative-d-zero-form"),
    pytest.param(lambda: orc.hilbert_ideal_oracle([((1, 0), -1)], -1), ValueError,
                 id="ideal-negative-d-negative-exponent"),
    pytest.param(lambda: orc.hilbert_colon_oracle([((0, 0), 2)], (1, 1), 1, -1), ValueError,
                 id="colon-negative-d-zero-form"),
    pytest.param(lambda: orc.colon_pair_dims([((0, 0, 0), 2)], [((0, 1, 1), 2)], (0, 0, 1), 1, -1),
                 ValueError, id="pair-negative-d-zero-form"),
    pytest.param(lambda: orc._multiple_rows([((1, 0, 0), 1)], 2, _MIDX2, 2), ValueError,
                 id="rows-arity-mismatch"),
    pytest.param(lambda: orc._multiple_rows([((1, 0), -1)], 2, _MIDX2, 2), ValueError,
                 id="rows-negative-exponent"),
    # bool and float degrees are refused as dim() refuses them
    pytest.param(lambda: orc.dim_spline_oracle(tg.load_bundled("figure2"), True, False),
                 ValueError, id="spline-bool-degree"),
    pytest.param(lambda: orc.dim_spline_oracle(tg.load_bundled("figure2"), 4.0, 1),
                 ValueError, id="spline-float-degree"),
    # so are bool and float degrees, exponents and counts in the ideal oracles
    pytest.param(lambda: orc.hilbert_ideal_oracle([((1, 0), 2)], True), ValueError,
                 id="ideal-bool-d"),
    pytest.param(lambda: orc.hilbert_ideal_oracle([((1, 0), 2)], 2.5), ValueError,
                 id="ideal-float-d"),
    pytest.param(lambda: orc.hilbert_ideal_oracle([((1, 0), 2.5)], 3), ValueError,
                 id="ideal-float-exponent"),
    pytest.param(lambda: orc.hilbert_colon_oracle([((1, 0), 2)], (1, 2), True, 3), ValueError,
                 id="colon-bool-e"),
    pytest.param(lambda: orc.hilbert_colon_oracle([((1, 0), 2)], (1, 2), 1.5, 3), ValueError,
                 id="colon-float-e"),
    pytest.param(lambda: orc.colon_pair_dims(*_PAIR, 1.5, 2), ValueError, id="pair-float-e"),
    pytest.param(lambda: orc.homology_dim_oracle(2, 2, True, [1, 2], [3, 4], 3), ValueError,
                 id="homology-bool-r"),
    pytest.param(lambda: orc.homology_dim_oracle(2, 2, 1.0, [1, 2], [3, 4], 3), ValueError,
                 id="homology-float-r"),
    pytest.param(lambda: orc.homology_dim_oracle(2, 2, 1, [1, 2], [3, 4], 3.0), ValueError,
                 id="homology-float-d"),
    pytest.param(lambda: orc.homology_dim_oracle(2.0, 2, 1, [1, 2], [3, 4], 3), ValueError,
                 id="homology-float-s"),
])
def test_argument_contracts(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


# -------------------------------------------------------- ideal oracle

def test_hilbert_ideal_oracle_distinct_powers():
    gens = _gens([1, -1, 2], [6, 6, 6])
    assert orc.hilbert_ideal_oracle(gens, 7) == 3
    assert orc.hilbert_ideal_oracle(gens, 6) == 0


def test_hilbert_ideal_oracle_principal():
    gens = [((1, 3), 4)]
    for d in range(0, 9):
        assert orc.hilbert_ideal_oracle(gens, d) == max(d - 3, 0)


def test_hilbert_ideal_oracle_empty():
    assert orc.hilbert_ideal_oracle([], 5) == 0


@pytest.mark.parametrize("power", [2, 5])
def test_hilbert_ideal_oracle_rejects_zero_form(power):
    # the form is checked even when its power exceeds the degree
    with pytest.raises(ValueError, match="zero linear form"):
        orc.hilbert_ideal_oracle([((0, 0), power)], 3)


def _monomials_referee(nvars, d):
    """Exponent tuples of degree d from sorted combinations, largest first."""
    return sorted((tuple(bars.count(v) for v in range(nvars))
                   for bars in combinations_with_replacement(range(nvars), d)), reverse=True)


@pytest.mark.parametrize("nvars", range(5))
def test_monomials_exact_descending_lex(nvars):
    for d in range(-3, 14):
        # no monomial has a negative degree, in any number of variables
        assert orc._monomials_exact(nvars, d) == (_monomials_referee(nvars, d) if d >= 0 else [])


def test_hilbert_ideal_oracle_rejects_zero_form_in_no_variables():
    with pytest.raises(ValueError, match="zero linear form"):
        orc.hilbert_ideal_oracle([((), 1)], 2)


@pytest.mark.parametrize("form", [(1,), (3, -2), (0, 5), (2, 0), (1, -1, 2), (0, 3, 0),
                                  (-2, 0, 7), (4, 5, -6)])
def test_power_expands_form(form):
    points = [(1, 1, 1), (2, -1, 3), (-3, 4, 0), (5, 2, -7)]
    for n in range(10):
        power = orc._power(form, n)
        assert all(sum(m) == n and c for m, c in power.items())
        for x in points:
            x = x[:len(form)]
            value = sum(c * prod(xi ** ei for xi, ei in zip(x, m)) for m, c in power.items())
            assert value == sum(w * xi for w, xi in zip(form, x)) ** n


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.integers(0, 14))
def test_hilbert_oracle_matches_closed_form(mults, d):
    slopes = [1, -1, 2, -2][: len(mults)]
    gens = _gens(slopes, mults)
    assert orc.hilbert_ideal_oracle(gens, d) == hilbert_power_ideal(mults, d)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4),
       st.integers(0, 6), st.integers(0, 12))
def test_colon_oracle_matches_closed_form(mults, e, d):
    slopes = ["1/2", 3, -1, "5/2"][: len(mults)]
    gens = _gens(slopes, mults)
    # colon by a power of a form not among the generators
    assert orc.hilbert_colon_oracle(gens, (1, -7), e, d) == hilbert_colon(mults, e, d)


def test_colon_oracle_e_zero_is_ideal():
    gens = _gens([2, 5, "-2/3"], [3, 4, 4])
    for d in range(0, 10):
        assert orc.hilbert_colon_oracle(gens, (0, 1), 0, d) == \
            orc.hilbert_ideal_oracle(gens, d)


def test_quotient_hilbert_colon_sum_r6():
    """(s, t, r) = (3, 4, 6): the sum of the two colon ideals has quotient
    Hilbert function 1, 2, 0, 0, ... which matches the monomials outside
    the monomial ideal generated by x^2, xz, y, z^2."""
    r = 6
    gens1 = [((1, 0, b), r + 1) for b in (1, -1, 2)]
    gens2 = [((0, 1, c), r + 1) for c in (3, -2, "1/2", 5)]
    expected = {0: 1, 1: 2, 2: 0, 3: 0}
    for ell, want in expected.items():
        dim1, dim2, dim_both = orc.colon_pair_dims(gens1, gens2, (0, 0, 1), r + 1, ell)
        n_ell = len(orc._monomials_exact(3, ell))
        assert n_ell - (dim1 + dim2 - dim_both) == want


def test_colon_pair_dims_consistency():
    gens1 = _gens([1, -1], [3, 3], nvars=3)
    gens2 = [((0, 1, 2), 4), ((0, 1, -1), 4)]
    for d in range(0, 8):
        dim1, dim2, dim_both = orc.colon_pair_dims(gens1, gens2, (0, 0, 1), 2, d)
        assert 0 <= dim_both <= min(dim1, dim2)


# ----------------------------------------------------- homology oracle

def test_homology_oracle_golden():
    assert orc.homology_dim_oracle(3, 4, 8, (1, -1, 2), (3, -2, "1/2", 5), 12) == 1
    assert orc.homology_dim_oracle(3, 4, 8, (1, -1, 2), (3, -2, "1/2", 5), 14) == 0


def test_homology_oracle_validates():
    with pytest.raises(orc.DegenerateSlopes):
        orc.homology_dim_oracle(2, 2, 3, (1, 1), (2, 3), 5)
    with pytest.raises(orc.DegenerateSlopes):
        orc.homology_dim_oracle(2, 2, 3, (0, 1), (2, 3), 5)
    with pytest.raises(ValueError):
        orc.homology_dim_oracle(3, 2, 3, (1, 2), (3, 4), 5)
    with pytest.raises(ValueError):
        orc.homology_dim_oracle(2, 2, -1, (1, 2), (3, 4), 5)


def test_homology_oracle_below_level():
    assert orc.homology_dim_oracle(2, 2, 4, (1, 2), (3, 4), 4) == 0


SLOPE_BANK = [
    (1, -1, 2, -2, 3, -3, 4, -4),
    ("1/2", 3, -1, "5/2", -4, 2, "7/3", -5),
    (2, 5, "-2/3", 1, -3, "3/4", -6, 7),
]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.data())
def test_homology_oracle_matches_lattice_count(r, data):
    s = data.draw(st.integers(2, r + 1))
    t = data.draw(st.integers(s, r + 1))
    d = data.draw(st.integers(r + 1, 2 * r + 3))
    tp = TiePair(s, t, r)
    bank = SLOPE_BANK[data.draw(st.integers(0, 2))]
    got = orc.homology_dim_oracle(s, t, r, bank[:s], bank[:t], d)
    assert got == homology_dim(tp, d)


def test_homology_oracle_full_sweep_r3():
    # exhaustive at r = 3: every (s, t) and every degree through stabilization
    r = 3
    bank = SLOPE_BANK[0]
    for s in range(2, r + 2):
        for t in range(s, r + 2):
            tp = TiePair(s, t, r)
            reg = homology_regularity(tp)
            for d in range(0, reg + 2):
                got = orc.homology_dim_oracle(s, t, r, bank[:s], bank[:t], d)
                assert got == homology_dim(tp, d), (s, t, d)


@pytest.mark.parametrize("r", [20, 30])
def test_homology_oracle_rational_slopes_large_r(r):
    # rational slopes at r = 20 and 30: rows in the colon systems pass
    # thousands of bits during elimination
    tp = TiePair(4, 5, r)
    b, c = (1, -2, "3/2", "5/3"), ("-1/2", "7/3", 4, "-5/2", "2/7")
    for d in range(r + 1, homology_regularity(tp) + 2):
        assert orc.homology_dim_oracle(4, 5, r, b, c, d) == homology_dim(tp, d), d


# ------------------------------------------------- spline-vs-formula

def test_spline_oracle_vs_dispatcher_spot(fig2, toh):
    cells = [(fig2, 4, 2), (fig2, 9, 6), (fig2, 12, 8), (toh, 6, 2), (toh, 8, 3)]
    for tri, d, r in cells:
        assert orc.dim_spline_oracle(tri, d, r) == dm.dim(tri, d, r).total


def test_spline_oracle_two_tie_strip():
    # the dispatcher refuses this topology, the oracle still works
    tri = conftest.two_tie_strip()
    lower = dm.schumaker_lower_bound(tri, 3, 1)
    got = orc.dim_spline_oracle(tri, 3, 1)
    assert got >= lower


def test_spline_oracle_slope_collision_star():
    # a shared-edge slope collision makes the mesh quasi-cross-cut, so auto
    # answers with the lower bound while the one-tie routes refuse
    tri = conftest.slope_collision_star()
    for d, r in ((3, 1), (5, 1), (6, 2), (8, 3), (10, 4)):
        rep = dm.dim(tri, d, r)
        assert rep.method == "quasi-cross-cut"
        assert rep.total == orc.dim_spline_oracle(tri, d, r)
    for method in ("lattice", "explicit"):
        with pytest.raises(dm.TrivialCase):
            dm.dim(tri, 10, 4, method=method)


@pytest.mark.parametrize("name, edge", [("figure2", (2, 10)), ("tohaneanu", (3, 4))])
def test_spline_oracle_third_interior_vertex(name, edge):
    # the one-tie routes rebase their correction on the mesh-level bound,
    # which here counts an interior vertex away from the shared edge
    tri = conftest.glue_quad(tg.load_bundled(name), *edge)
    assert len(tri.interior_vertices) == 3
    for r in range(1, 4):
        for d in range(0, 3 * r + 3):
            total = orc.dim_spline_oracle(tri, d, r)
            rep = dm.dim(tri, d, r)
            assert rep.total == total, (d, r)
            for method in ("lattice", "explicit"):
                if rep.method == "trivial-case":
                    with pytest.raises(dm.TrivialCase):
                        dm.dim(tri, d, r, method=method)
                else:
                    assert dm.dim(tri, d, r, method=method).total == total, (d, r, method)
