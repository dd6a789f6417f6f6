"""Rank-based oracles played against the closed forms.

Every function here recomputes a dimension by exact linear algebra on a
monomial basis, with no shared code path to the formulas being checked.
"""

import re
from collections import Counter
from itertools import combinations_with_replacement
from math import prod

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from splinedim import oracle as orc
from splinedim import triangulation as tg
from splinedim import dimension as dm
from splinedim.exact import binom, pivot_rows, rank_sparse
from splinedim.power_ideal import (
    TiePair,
    hilbert_colon,
    hilbert_power_ideal,
    homology_dim,
    homology_regularity,
)

import conftest
from conftest import affine_images, mesh_data, one_tie_stars
from spline_referee import referee_dim_spline


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


def test_oracle_morgan_scott_special_position():
    # C^1_2 depends on the geometry, not only on the slopes at each vertex;
    # the tie cycle makes the sign of each cofactor at each end matter
    special, generic = conftest.morgan_scott(), conftest.morgan_scott(inner_b=(16, 12))
    for d, r, dim in ((2, 1, 6), (4, 2, 15)):
        assert orc.dim_spline_oracle(special, d, r) == referee_dim_spline(special, d, r) == dim + 1
        assert orc.dim_spline_oracle(generic, d, r) == referee_dim_spline(generic, d, r) == dim


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


# a rational affine map whose images grow the oracle's coefficients fast
_RATIONAL_MAP = ([("3/7", "2/5"), ("-1/3", "5/4")], ("1/2", "-2/9"))


def test_oracle_pins_slow_direct_assembly_cells(fig2):
    # a rational affine image at high r and figure2 at d = 40, where
    # coefficient growth cost the direct assembly seconds to tens of seconds
    image = tg.affine_transform(fig2, *_RATIONAL_MAP)
    assert orc.dim_spline_oracle(image, 18, 12) == dm.dim(image, 18, 12).total == 282
    assert orc.dim_spline_oracle(fig2, 40, 10, allow_large=True) == \
        dm.dim(fig2, 40, 10).total == 4876


def test_oracle_pins_rational_image_in_vertex_frames(fig2):
    # with every vertex read in (X, Y) this cell took about three minutes on a
    # 2-vCPU host; in vertex frames it takes about a second
    image = tg.affine_transform(fig2, *_RATIONAL_MAP)
    assert orc.dim_spline_oracle(image, 60, 20, allow_large=True) == \
        dm.dim(image, 60, 20).total == 8519


def test_oracle_pins_tie_by_tie_column_order():
    # 120 ties, each translated to its far end; with the tie columns ordered
    # by degree across ties instead of tie by tie this cell took 43-51 s
    grid = tg.build(*conftest.grid_data(8, 8))
    assert orc.dim_spline_oracle(grid, 12, 3, allow_large=True) == \
        dm.dim(grid, 12, 3).total == 4140


# ------------------------------------------- spline oracle against the referee

_FIG2, _TOH = tg.load_bundled("figure2"), tg.load_bundled("tohaneanu")
_STRIP, _SQUARE_PAIR = conftest.two_tie_strip(), conftest.square_pair()
_MIRRORED = conftest.reflect_across(_FIG2, 2, 10)
_MORGAN_SCOTT = conftest.morgan_scott()
# a one-tie star whose far-end frame map has denominator 3
_STAR_IMAGE = tg.affine_transform(tg.build(*conftest.one_tie_star()), [(1, 1), (0, 3)], (0, 0))
NAMED_MESHES = [_FIG2, _TOH, _STRIP, _SQUARE_PAIR, _MIRRORED, conftest.reflect_across(_TOH, 3, 4),
                _MORGAN_SCOTT, conftest.morgan_scott(inner_b=(16, 12)),
                conftest.glue_quad(_FIG2, 2, 10), conftest.glue_quad(_TOH, 3, 4),
                conftest.cross_cut_square(), conftest.single_triangle(),
                conftest.slope_collision_star()]


@st.composite
def referee_meshes(draw):
    """A named mesh, a type-1 grid of up to 3 x 3 cells or a one-tie star,
    as it is or as a rational affine image."""
    data = draw(st.one_of(st.sampled_from(NAMED_MESHES).map(mesh_data),
                          st.builds(conftest.grid_data, st.integers(1, 3), st.integers(1, 3)),
                          one_tie_stars()))
    if draw(st.booleans()):
        data = draw(affine_images(st.just(data)))
    return tg.build(*data)


_R_AND_D = st.integers(0, 3).flatmap(lambda r: st.tuples(st.just(r), st.integers(0, 2 * r + 4)))


# The loaded profile's count when it is larger (--hypothesis-profile=ci: 1000).
@settings(max_examples=max(100, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(referee_meshes(), _R_AND_D)
# r = 0; polynomials only (d <= r); chords, whose cofactors are free; two and five ties;
# a tie cycle in special position, and its rational image; frames: a spoke parallel to
# the tie, framed ends meeting a two-tie vertex (as drawn and as a rational image), a
# vertex with no tie, and a far-end map with a denominator
@example(tg.build(*conftest.grid_data(2, 2)), (0, 4))
@example(_FIG2, (3, 3))
@example(_SQUARE_PAIR, (1, 6))
@example(tg.build(*conftest.grid_data(1, 3)), (2, 8))
@example(_STRIP, (1, 5))
@example(_MIRRORED, (2, 8))
@example(tg.build(*conftest.grid_data(3, 3)), (1, 6))
@example(_MORGAN_SCOTT, (1, 2))
@example(tg.affine_transform(_MORGAN_SCOTT, *_RATIONAL_MAP), (2, 4))
@example(conftest.slope_collision_star(), (2, 7))
@example(tg.affine_transform(_STRIP, *_RATIONAL_MAP), (1, 5))
@example(conftest.glue_quad(_FIG2, 2, 10), (2, 7))
@example(_STAR_IMAGE, (2, 7))
def test_spline_oracle_matches_referee(tri, rd):
    r, d = rd
    assert orc.dim_spline_oracle(tri, d, r, allow_large=True) == referee_dim_spline(tri, d, r)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(referee_meshes(), _R_AND_D)
# a vertex on one horizontal and one vertical line: the degree-3 monomials
# X Y^2 and X^2 Y have no term at r = 2
@example(conftest.cross_cut_square(), (2, 3))
# no spoke is parallel to an axis, so only the frames give one-entry columns
@example(tg.affine_transform(_FIG2, *_RATIONAL_MAP), (2, 6))
def test_conformality_rows_contract(tri, rd):
    # no zero entry and no empty row (the tracer counts entries as nnz), columns
    # in range, one cofactor per interior edge, and at most one row per
    # (interior vertex, degree m, monomial)
    r, d = rd
    rows, ncols = orc._conformality_rows(tri, d, r)
    if d <= r:
        assert (rows, ncols) == ([], 0)
    assert all(row and all(row.values()) for row in rows)
    assert all(0 <= c < ncols for row in rows for c in row)
    assert ncols == len(tri.interior_edges()) * binom(d - r + 1, 2)
    assert len(rows) <= len(tri.interior_vertices) * sum(m + 1 for m in range(r + 1, d + 1))
    # a vertex with a spoke and at most one tie reads l_s as X', so the columns
    # of the spoke l_s comes from, binom(d - r + 1, 2) of them, have one entry
    # each: the sweep takes them as pivots with nothing to eliminate.  Spoke
    # columns come first, grouped by home in the order of the interior vertices
    entries = Counter(c for row in rows for c in row)
    start = 0
    for v in tri.interior_vertices:
        ties = sum(i in tri.ties for i in tri.edges_at[v])
        end = start + (len(tri.edges_at[v]) - ties) * binom(d - r + 1, 2)
        if ties <= 1:
            assert sum(entries[c] == 1 for c in range(start, end)) >= binom(d - r + 1, 2)
        start = end


_MIDX2 = orc._monomials_exact(2, 2)
_PAIR = ([((1, 0, 1), 2)], [((0, 1, 1), 2)], (0, 0, 1))
# x and y (and z) fill every degree from 1 on, so an oracle could stop before the last generator
_FULL2 = [((1, 0), 1), ((0, 1), 1)]
_FULL3 = [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)]
_ARITY = ValueError("generator arity mismatch")
_NEG = ValueError("generator exponent must be at least 0, got -1")
_ZERO = ValueError("zero linear form")


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
    # a bad generator or form after generators that already fill the degree is still refused
    pytest.param(lambda: orc.hilbert_ideal_oracle(_FULL2 + [((1, 0, 0), 1)], 4), _ARITY,
                 id="ideal-full-then-arity-mismatch"),
    pytest.param(lambda: orc.hilbert_ideal_oracle(_FULL2 + [((1, 1), -1)], 4), _NEG,
                 id="ideal-full-then-negative-exponent"),
    pytest.param(lambda: orc.hilbert_ideal_oracle(_FULL2 + [((0, 0), 2)], 4), _ZERO,
                 id="ideal-full-then-zero-form"),
    pytest.param(lambda: orc.hilbert_colon_oracle(_FULL2 + [((1, 0, 0), 1)], (1, 1), 1, 3),
                 _ARITY, id="colon-full-then-arity-mismatch"),
    pytest.param(lambda: orc.hilbert_colon_oracle(_FULL2 + [((1, 1), -1)], (1, 1), 1, 3), _NEG,
                 id="colon-full-then-negative-exponent"),
    pytest.param(lambda: orc.hilbert_colon_oracle(_FULL2 + [((0, 0), 2)], (1, 1), 1, 3), _ZERO,
                 id="colon-full-then-zero-form"),
    pytest.param(lambda: orc.hilbert_colon_oracle(_FULL2, (0, 0), 1, 3), _ZERO,
                 id="colon-full-then-zero-colon-form"),
    pytest.param(lambda: orc.colon_pair_dims(_FULL3 + [((1, 0), 1)], _FULL3, (0, 0, 1), 1, 3),
                 _ARITY, id="pair-full-then-arity-mismatch"),
    pytest.param(lambda: orc.colon_pair_dims(_FULL3, _FULL3 + [((1, 1, 1), -1)], (0, 0, 1), 1, 3),
                 _NEG, id="pair-full-then-negative-exponent"),
    pytest.param(lambda: orc.colon_pair_dims(_FULL3, _FULL3 + [((0, 0, 0), 2)], (0, 0, 1), 1, 3),
                 _ZERO, id="pair-full-then-zero-form"),
    pytest.param(lambda: orc.colon_pair_dims(_FULL3, _FULL3, (0, 0, 0), 1, 3), _ZERO,
                 id="pair-full-then-zero-colon-form"),
])
def test_argument_contracts(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    elif isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
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
        midx = orc._monomials_exact(nvars, d)
        # no monomial has a negative degree, in any number of variables
        assert list(midx) == (_monomials_referee(nvars, d) if d >= 0 else [])
        assert list(midx.values()) == list(range(len(midx)))


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


_COEFF = st.sampled_from([0, 1, -1, 2, -3, "1/2", "-2/3", "5/3"])


def _forms(nvars):
    return st.lists(_COEFF, min_size=nvars, max_size=nvars).filter(
        lambda c: any(x != 0 for x in c)).map(tuple)


def _rows(gens, d, nvars):
    """Every generator's multiples in degree d, in one list."""
    midx = orc._monomials_exact(nvars, d)
    return [row for rows in orc._multiple_rows(gens, d, midx, nvars) for row in rows]


def _colon_referee(ideal_rows, zrows):
    """Kernel dimension of zrows modulo the span of ideal_rows, every row eliminated."""
    basis = list(pivot_rows(ideal_rows))
    return len(zrows) - (rank_sparse(basis + zrows) - len(basis))


@settings(deadline=None)
@given(st.data())
def test_ideal_oracles_match_full_elimination(data):
    # exponent 0 makes a generator 1, so low exponents and high degrees fill every column
    nvars = data.draw(st.sampled_from([2, 3]))
    gens1, gens2 = (data.draw(st.lists(st.tuples(_forms(nvars), st.integers(0, 5)),
                                       min_size=1, max_size=4)) for _ in range(2))
    form = data.draw(_forms(nvars))
    e = data.draw(st.integers(0, 4))
    d = data.draw(st.integers(-2, 12 if nvars == 2 else 7))
    assert orc.hilbert_ideal_oracle(gens1, d) == rank_sparse(_rows(gens1, d, nvars))
    rows1, rows2 = _rows(gens1, d + e, nvars), _rows(gens2, d + e, nvars)
    zrows = _rows([(form, e)], d + e, nvars)
    dim1 = _colon_referee(rows1, zrows)
    assert orc.hilbert_colon_oracle(gens1, form, e, d) == dim1
    n = len(orc._monomials_exact(nvars, d + e))

    def shift(row):
        return {n + k: v for k, v in row.items()}

    both = _colon_referee(rows1 + [shift(row) for row in rows2],
                          [row | shift(row) for row in zrows])
    assert orc.colon_pair_dims(gens1, gens2, form, e, d) == \
        (dim1, _colon_referee(rows2, zrows), both)


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
