"""Rank-based oracles played against the closed forms.

Every function here recomputes a dimension by exact linear algebra on a
monomial basis, with no shared code path to the formulas being checked.
"""

import gc
import random
import re
import weakref
from fractions import Fraction as F
from math import factorial, gcd, lcm, prod

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
import ideal_referee as ref
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


def test_mesh_frames_keep_no_mesh_alive():
    # the per-mesh frames, and the powers of each r called at, are kept only
    # while the mesh lives
    tri = tg.build(*conftest.one_tie_star())
    assert orc.dim_spline_oracle(tri, 5, 1) == referee_dim_spline(tri, 5, 1)
    assert orc.dim_spline_oracle(tri, 7, 2) == referee_dim_spline(tri, 7, 2)
    assert tri in orc._MESH_FRAMES
    assert set(orc._MESH_FRAMES[tri][4]) == {1, 2}
    ref = weakref.ref(tri)
    del tri
    gc.collect()
    assert ref() is None


def test_far_end_powers_grow_in_place():
    # rising d at one r extends each far-end list to the largest n = d - r - 1
    # asked for, keeping the powers it holds, and a smaller d adds nothing
    tri, r = tg.build(*mesh_data(_FIG2)), 2
    orc._conformality_rows(tri, r + 1, r)
    far = orc._MESH_FRAMES[tri][4][r][1]
    kept = {key: (powers, powers[0]) for key, powers in far.items()}
    assert kept and all(len(powers) == 1 for powers, _ in kept.values())
    for d in range(r + 1, r + 21):
        orc._conformality_rows(tri, d, r)
    orc._conformality_rows(tri, r + 5, r)
    assert far.keys() == kept.keys()
    for key, powers in far.items():
        assert len(powers) == 20 and powers is kept[key][0] and powers[0] is kept[key][1]


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(lambda f: f[0] or f[1]),
       st.lists(st.integers(0, 7), min_size=1, max_size=4), st.integers(0, 9))
def test_affine_powers_grow_to_the_expansion(form, ns, cap):
    # grown in steps, each power lists its nonzero terms below cap in ascending
    # (X exponent, degree), with the multinomial coefficients of (p X + q Y + c)^x;
    # a cap above every n keeps them all
    p, q, c = form
    powers = []
    for n in ns:
        orc._affine_powers(powers, form, n, cap)
    assert len(powers) == max(ns) + 1
    for x, terms in enumerate(powers):
        assert terms == [(a, e, v) for a in range(x + 1) for e in range(a, x + 1)
                         if e < cap
                         and (v := factorial(x) // (factorial(a) * factorial(e - a) * factorial(x - e))
                              * p ** a * q ** (e - a) * c ** (x - e))]


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


def _jitter_interior(n, m, moves):
    """The type-1 n x m grid with its interior vertices, in index order, moved
    by moves; the boundary stays straight."""
    verts, tris = conftest.grid_data(n, m)
    inner = [k for k, (x, y) in enumerate(verts) if 0 < x < n and 0 < y < m]
    for k, (dx, dy) in zip(inner, moves):
        x, y = verts[k]
        verts[k] = (x + dx, y + dy)
    return tg.build(verts, tris)


@st.composite
def interior_jittered_grids(draw):
    """A type-1 grid of 2..4 x 2..3 cells with each interior vertex moved by
    at most 1/8 in each coordinate, which keeps every triangle positive.

    Its slopes are generic, so in a row of three interior vertices the
    middle one, with two ties, keeps (X, Y), the outer ones are framed, and
    the tie from the middle reads its far end through a dense affine map.
    """
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    den = draw(st.sampled_from([8, 16, 24, 40]))
    jitter = st.integers(-den // 8, den // 8).map(lambda k: F(k, den))
    moves = st.lists(st.tuples(jitter, jitter), min_size=(n - 1) * (m - 1), max_size=(n - 1) * (m - 1))
    return _jitter_interior(n, m, draw(moves))


# the row of three such vertices in a 4 x 2 grid
_JITTERED_STRIP = _jitter_interior(4, 2, [(F(1, 16), F(-1, 8)), (F(1, 16), 0), (F(1, 8), F(1, 8))])


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


@st.composite
def cell_walks(draw):
    """(d, r) cells with r <= 6 and d <= 3r + 5: runs of rising or falling d,
    with r drawn again between runs."""
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(0, 6))
        ds = sorted(draw(st.lists(st.integers(0, 3 * r + 5), min_size=1, max_size=4, unique=True)),
                    reverse=draw(st.booleans()))
        cells += [(d, r) for d in ds]
    return cells


_IMAGES = st.sampled_from([_FIG2, _TOH]).map(mesh_data).flatmap(lambda data: affine_images(st.just(data)))


# The loaded profile's count when it is larger (--hypothesis-profile=ci: 1000).
@settings(max_examples=max(100, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.sampled_from(NAMED_MESHES), _IMAGES.map(lambda data: tg.build(*data))), cell_walks())
# a far end with two ties, which keeps (X, Y), and framed ones, with r rising and falling
@example(_MORGAN_SCOTT, [(4, 1), (2, 1), (9, 3), (7, 2), (11, 2)])
@example(_FIG2, [(3, 2), (9, 2), (6, 1), (10, 4), (8, 2)])
# a framed far end of a tie whose home keeps (X, Y), through a dense map
@example(_JITTERED_STRIP, [(8, 3), (10, 3), (9, 3), (5, 1), (11, 4)])
def test_warm_rows_equal_cold_rows(tri, cells):
    # each call on a mesh whose record earlier calls filled gives the rows of
    # the same call on a copy with an empty record
    warm = tg.build(tri.vertices, tri.triangles)
    for d, r in cells:
        assert orc._conformality_rows(warm, d, r) == \
            orc._conformality_rows(tg.build(tri.vertices, tri.triangles), d, r)


_R_AND_D = st.integers(0, 3).flatmap(lambda r: st.tuples(st.just(r), st.integers(0, 2 * r + 4)))


# The loaded profile's count when it is larger (--hypothesis-profile=ci: 1000).
@settings(max_examples=max(100, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(referee_meshes(), _R_AND_D)
# r = 0; polynomials only (d <= r); chords, whose cofactors are free; two and five ties;
# a tie cycle in special position, and its rational image; frames: a spoke parallel to
# the tie, framed ends meeting a two-tie vertex (as drawn and as a rational image), a
# vertex with no tie, and a far-end map with a denominator; counted blocks (d >= 2r + 1)
# at both ends of a tie, at a vertex with no tie and beside a spoke parallel to the tie,
# and at r = 0, where every block of a framed vertex is counted
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
@example(_FIG2, (2, 7))
@example(tg.affine_transform(_TOH, *_RATIONAL_MAP), (1, 5))
@example(conftest.glue_quad(_TOH, 3, 4), (1, 6))
@example(conftest.slope_collision_star(), (1, 6))
@example(_FIG2, (0, 3))
def test_spline_oracle_matches_referee(tri, rd):
    r, d = rd
    assert orc.dim_spline_oracle(tri, d, r, allow_large=True) == referee_dim_spline(tri, d, r)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(interior_jittered_grids(), _R_AND_D)
@example(_JITTERED_STRIP, (3, 10))
def test_spline_oracle_on_interior_jittered_grids(tri, rd):
    # dim either answers, and then with the oracle's value, or refuses a mesh
    # with several ties, whose dimension is still at least the lower bound
    r, d = rd
    oracle = orc.dim_spline_oracle(tri, d, r, allow_large=True)
    assert oracle == referee_dim_spline(tri, d, r)
    try:
        rep = dm.dim(tri, d, r)
    except dm.UnsupportedTopology:
        assert dm.schumaker_lower_bound(tri, d, r) <= oracle
    else:
        assert rep.total == oracle


# ------------------------------------------- the conformality rows' layout
#
# What each column of _conformality_rows holds, as the oracle module's
# docstring gives it, derived here without the row builder.


def _frame_at(tri, v):
    """The frame (X', Y') = (l_s, l_t) of interior vertex v, as (X, Y)
    coefficient rows with a positive determinant, and its spoke s; (X, Y) and
    no s at a vertex with two or more ties."""
    mine = [i for i in tri.edges_at[v] if i in tri.ties]
    if len(mine) > 1:
        return ((1, 0), (0, 1)), None
    spokes = [i for i in tri.edges_at[v] if i not in tri.ties]
    t = tri.edges[mine[0]].slope if mine else None
    s = next(i for i in spokes if tri.edges[i].slope != t)
    ls = tri.edges[s].slope
    t = t or next(tri.edges[i].slope for i in spokes if tri.edges[i].slope != ls)
    sign = 1 if ls.dx * t.dy - ls.dy * t.dx > 0 else -1
    return ((sign * ls.dy, -sign * ls.dx), (t.dy, -t.dx)), s


def _in_frame(slope, frame):
    """The edge form dy X - dx Y as p X' + q Y', scaled to primitive integers
    with its sign kept."""
    (a, b), (c, e) = frame
    det = a * e - b * c
    p, q = F(slope.dy * e + slope.dx * c, det), F(-slope.dx * a - slope.dy * b, det)
    scale = F(lcm(p.denominator, q.denominator), gcd(p.numerator, q.numerator))
    return int(p * scale), int(q * scale)


def _counted(frames, v, k, r):
    """Whether the block of vertex v and cofactor degree k is counted, not
    built: at a framed vertex, from k = r on."""
    return frames[v][1] is not None and k >= r


def _layout(tri, d, r):
    """Each interior vertex's frame and spoke s, and each column's (edge, home,
    k, x): the coefficient of X'^x Y'^(k-x) in its home's frame.  Spokes by
    (home, degree) but in counted blocks, those with a one-variable form
    first, x descending at a framed home; then ties by (tie, degree), x
    ascending; the free columns follow."""
    frames = {v: _frame_at(tri, v) for v in tri.interior_vertices}
    cols = []
    for v, (frame, s) in frames.items():
        spokes = sorted((i for i in tri.edges_at[v] if i not in tri.ties and i != s),
                        key=lambda i: 0 not in _in_frame(tri.edges[i].slope, frame))
        for k in range(d - r):
            if _counted(frames, v, k, r):
                break
            xs = range(k, -1, -1) if s is not None else range(k + 1)
            cols += [(i, v, k, x) for i in spokes for x in xs]
    cols += [(i, tri.edges[i].u, k, x) for i in tri.ties for k in range(d - r) for x in range(k + 1)]
    return frames, cols


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(referee_meshes(), _R_AND_D)
# a vertex on one horizontal and one vertical line: the degree-3 monomials
# X Y^2 and X^2 Y have no term at r = 2
@example(conftest.cross_cut_square(), (2, 3))
# no spoke is parallel to an axis, so only the frames give one-entry columns
@example(tg.affine_transform(_FIG2, *_RATIONAL_MAP), (2, 6))
# counted blocks (m >= 2r + 1) at every framed vertex kind: a tie's ends, no
# tie, a spoke parallel to the tie, every block at r = 0; and vertices with two
# or more ties, which count none
@example(_FIG2, (2, 8))
@example(conftest.glue_quad(_FIG2, 2, 10), (1, 6))
@example(conftest.slope_collision_star(), (1, 5))
@example(_TOH, (0, 3))
@example(tg.build(*conftest.grid_data(3, 3)), (1, 6))
def test_conformality_rows_contract(tri, rd):
    # no zero entry and no empty row (the tracer counts entries as nnz), columns
    # in range, one cofactor per interior edge but each framed vertex's spoke s;
    # a framed vertex's blocks of degree k >= r have no rows and no spoke
    # columns, only their spoke columns less r + 1 as free columns in no row;
    # at most r + 1 rows per other framed (vertex, degree m) and m + 1 per
    # unframed one
    r, d = rd
    rows, ncols = orc._conformality_rows(tri, d, r)
    if d <= r:
        assert (rows, ncols) == ([], 0)
    assert all(row and all(row.values()) for row in rows)
    assert all(0 <= c < ncols for row in rows for c in row)
    frames, cols = _layout(tri, d, r)
    framed = {v for v, (_, s) in frames.items() if s is not None}
    assert ncols == ((len(tri.interior_edges()) - len(framed)) * binom(d - r + 1, 2)
                     - len(framed) * (r + 1) * max(0, d - 2 * r))
    bound = {v: sum(0 if _counted(frames, v, m - r - 1, r) else r + 1 if v in framed else m + 1
                    for m in range(r + 1, d + 1)) for v in tri.interior_vertices}
    assert len(rows) <= sum(bound.values())
    # the built columns are as _layout lists them; the free ones, the chords'
    # and the counted blocks', are last and in no row
    assert all(c < len(cols) for row in rows for c in row)
    # a row of vertex v and degree m meets the spokes of v in degree m - r - 1
    # only; the rows that meet no spoke are counted below
    group = {c: (v, k) for c, (i, v, k, _) in enumerate(cols) if i not in tri.ties}
    blocks, tie_only = {}, 0
    for row in rows:
        keys = {group[c] for c in row if c in group}
        assert len(keys) <= 1
        if keys:
            blocks.setdefault(keys.pop(), []).append(row)
        else:
            tie_only += 1
    for (v, k), block in blocks.items():
        assert not _counted(frames, v, k, r)
        assert len(block) <= (r + 1 if v in framed else k + r + 2)
        # with a framed vertex's spoke columns in descending x, its rows with
        # a <= k lead at k + 1 distinct columns of the first spoke with q != 0
        if v in framed:
            assert len({min(row) for row in block}) >= k + 1
    # a framed vertex's built block always has a spoke with q != 0, which meets
    # every row X'^a Y'^(m-a) with a <= k; so only rows with a > k, r - k of
    # them per block, can lack a spoke column there
    assert tie_only <= sum(bound[v] for v in tri.interior_vertices if v not in framed) + sum(
        r - k for v in framed for k in range(min(r, d - r)))


def _kernel_vector(rows, ncols, rng):
    """A random vector of the rows' kernel: random free columns, the pivots' by
    back substitution on the echelon basis of pivot_rows."""
    z = [F(rng.randint(-99, 99)) for _ in range(ncols)]
    for row in reversed(list(pivot_rows(rows))):
        lead = min(row)
        z[lead] = -sum((v * z[c] for c, v in row.items() if c != lead), F(0)) / row[lead]
    return z


def _frame_coords(frame, origin, point):
    (a, b), (c, e) = frame
    x, y = point[0] - origin.x, point[1] - origin.y
    return a * x + b * y, c * x + e * y


def _sigma(tri, v, i):
    """-1 when the walk counterclockwise around v enters edge i's first triangle."""
    e = tri.edges[i]
    t = tri.triangles[e.triangles[0]]
    return -1 if any((t[j], t[(j + 1) % 3]) == (v, e.u + e.v - v) for j in range(3)) else 1


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(referee_meshes(), st.integers(0, 2).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(r + 1, 2 * r + 4))), st.integers(0, 2 ** 32))
# framed tie ends whose far-end map has a denominator, as drawn and as images
@example(_FIG2, (2, 6), 0)
@example(_TOH, (1, 5), 0)
@example(tg.affine_transform(_FIG2, *_RATIONAL_MAP), (1, 5), 0)
@example(_STAR_IMAGE, (2, 7), 0)
@example(_STRIP, (1, 5), 0)
@example(tg.affine_transform(_MORGAN_SCOTT, *_RATIONAL_MAP), (1, 4), 0)
def test_conformality_rows_meet_the_conditions(tri, rd, seed):
    # Read every column as the docstring says: spoke (k, x) is X'^x Y'^(k-x) in
    # its home's frame, tie (k, x) is (D X'_u)^x (D Y'_u)^(k-x), D the least
    # common denominator of the map F_u F_v^-1 X' + F_u w from the far end's
    # frame coordinates to the home's.  A random kernel vector of the rows then
    # gives cofactors whose conditions sum_tau sigma_tau l_tau^(r+1) q_tau,
    # each l_tau primitive in the vertex's frame, vanish at every interior
    # vertex once the unknowns it does not build are solved for: the dropped
    # spoke s's cofactor, and in each counted block the other spokes' degree-k
    # parts.  At random points the sum over the built columns is then minus
    # the sum over those spokes of sigma l^(r+1) times some polynomial.
    r, d = rd
    rng = random.Random(seed)
    rows, ncols = orc._conformality_rows(tri, d, r)
    frames, cols = _layout(tri, d, r)
    scales = {}
    for i in tri.ties:
        e = tri.edges[i]
        (fu, _), (fv, _) = frames[e.u], frames[e.v]
        (a, b), (c, g) = fv
        det = a * g - b * c
        inv = ((F(g, det), F(-b, det)), (F(-c, det), F(a, det)))
        w = [q - p for p, q in zip(tri.vertices[e.u], tri.vertices[e.v])]
        terms = [fu[j][0] * inv[0][l] + fu[j][1] * inv[1][l] for j in range(2) for l in range(2)]
        terms += [fu[j][0] * w[0] + fu[j][1] * w[1] for j in range(2)]
        scales[i] = lcm(*(t.denominator for t in terms))
    n = d - r - 1
    monomials = [(k, x) for k in range(n + 1) for x in range(k + 1)]
    z = _kernel_vector(rows, ncols, rng)
    for v, (frame, s) in frames.items():
        pv = tri.vertices[v]
        # unknowns: the coefficients at X'^x Y'^(k-x) of s's cofactor and of the
        # other spokes' in the counted blocks, then the right-hand side
        unknowns = [(s, k, x) for k, x in monomials] if s is not None else []
        unknowns += [(i, k, x) for i in tri.edges_at[v] if i not in tri.ties and i != s
                     for k, x in monomials if _counted(frames, v, k, r)]
        rhs = len(unknowns)
        system = []
        for _ in range(binom(d + 2, 2) + 3):
            point = (pv.x + rng.randint(-30, 30), pv.y + rng.randint(-30, 30))
            coords = {h: _frame_coords(frames[h][0], tri.vertices[h], point) for h in frames}
            X, Y = coords[v]
            ell = {i: _sigma(tri, v, i) * (p * X + q * Y) ** (r + 1)
                   for i in tri.edges_at[v] for p, q in [_in_frame(tri.edges[i].slope, frame)]}
            total = sum(ell[i] * z[col] * scales.get(i, 1) ** k * coords[h][0] ** x * coords[h][1] ** (k - x)
                        for col, (i, h, k, x) in enumerate(cols) if i in ell)
            row = [ell[i] * X ** x * Y ** (k - x) for i, k, x in unknowns]
            row.append(-total)
            den = lcm(*(c.denominator for c in map(F, row)))
            system.append({j: int(c * den) for j, c in enumerate(row) if c})
        # solvable: the right-hand side's column adds no rank
        assert rank_sparse(system) == rank_sparse([{j: c for j, c in eq.items() if j != rhs}
                                                   for eq in system])


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
    pytest.param(lambda: orc.hilbert_colon_oracle([((1, 1), -1)], (1, 0), 1, -1), _NEG,
                 id="colon-negative-d-negative-exponent"),
    pytest.param(lambda: orc.colon_pair_dims(*_PAIR[:1], [((0, 1), 2)], (0, 0, 1), 1, -1), _ARITY,
                 id="pair-negative-d-arity-mismatch"),
    pytest.param(lambda: orc.hilbert_colon_oracle([((1, 0, 0), 1)], (1, 0), 1, 2), _ARITY,
                 id="rows-arity-mismatch"),
    pytest.param(lambda: orc.hilbert_ideal_oracle([((1, 0), -1)], 2), _NEG,
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


@pytest.mark.parametrize("nvars", range(5))
def test_monomials_exact_descending_lex(nvars):
    caps_bank = [list(range(1, nvars + 1)), [3] * nvars, [0] + [9] * (nvars - 1)][:3 if nvars else 0]
    for d in range(-3, 14):
        midx = orc._monomials_exact(nvars, d)
        # no monomial has a negative degree, in any number of variables
        assert list(midx) == ref.monomials(nvars, d)
        assert list(midx.values()) == list(range(len(midx)))
        # caps keep the monomials whose k-th exponent is below caps[k], renumbered
        for caps in caps_bank:
            kept = orc._monomials_exact(nvars, d, caps)
            assert list(kept) == [m for m in midx if all(a < c for a, c in zip(m, caps))]
            assert list(kept.values()) == list(range(len(kept)))


def test_hilbert_ideal_oracle_rejects_zero_form_in_no_variables():
    with pytest.raises(ValueError, match="zero linear form"):
        orc.hilbert_ideal_oracle([((), 1)], 2)


@pytest.mark.parametrize("form", [(1,), (3, -2), (0, 5), (2, 0), (1, -1, 2), (0, 3, 0),
                                  (-2, 0, 7), (4, 5, -6)])
def test_power_expands_form(form):
    # every exponent up to 9: the referee's terms, keys in descending lex order,
    # no zero coefficient, and the form's power at each point
    points = [(1, 1, 1), (2, -1, 3), (-3, 4, 0), (5, 2, -7)]
    for n in range(10):
        power = orc._power(form, n)
        assert power == ref.expand_power(form, n)
        assert list(power) == sorted(power, reverse=True)
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


def _colon_referee(ideal_rows, zrows):
    """Kernel dimension of zrows modulo the span of ideal_rows, every row eliminated."""
    basis = list(pivot_rows(ideal_rows))
    return len(zrows) - (rank_sparse(basis + zrows) - len(basis))


def _match_full_elimination(gens1, gens2, form, e, d):
    """All three ideal oracles against the unframed rows of the ideal referee."""
    nvars = len(form)
    assert orc.hilbert_ideal_oracle(gens1, d) == rank_sparse(ref.multiple_rows(gens1, d, nvars))
    rows1, rows2 = (ref.multiple_rows(gens, d + e, nvars) for gens in (gens1, gens2))
    zrows = ref.multiple_rows([(form, e)], d + e, nvars)
    dim1 = _colon_referee(rows1, zrows)
    assert orc.hilbert_colon_oracle(gens1, form, e, d) == dim1
    n = len(ref.monomials(nvars, d + e))

    def shift(row):
        return {n + k: v for k, v in row.items()}

    both = _colon_referee(rows1 + [shift(row) for row in rows2],
                          [row | shift(row) for row in zrows])
    assert orc.colon_pair_dims(gens1, gens2, form, e, d) == \
        (dim1, _colon_referee(rows2, zrows), both)


@settings(deadline=None)
@given(st.data())
def test_ideal_oracles_match_full_elimination(data):
    # exponent 0 makes a generator 1, so low exponents and high degrees fill every column
    nvars = data.draw(st.sampled_from([2, 3, 4]))
    gens1, gens2 = (data.draw(st.lists(st.tuples(_forms(nvars), st.integers(0, 5)),
                                       min_size=1, max_size=4)) for _ in range(2))
    form = data.draw(_forms(nvars))
    e = data.draw(st.integers(0, 4))
    d = data.draw(st.integers(-2, {2: 12, 3: 7, 4: 4}[nvars]))
    _match_full_elimination(gens1, gens2, form, e, d)


_Y3 = [((0, 1, 2), 2), ((0, 1, -1), 3)]


@pytest.mark.parametrize("gens1, gens2, form, e, d", [
    # two independent generators cover every column from degree a1 + a2 - 1 on
    pytest.param([((1, 2), 2), ((3, -1), 3)], [((1, 1), 2)], (1, 5), 1, 6, id="covered-fill-all"),
    pytest.param([((1, 2), 2), ((3, -1), 3)], [((1, 1), 2)], (1, 5), 2, 2, id="covered-fill-all-colon"),
    # forms on one line through the origin, and three forms in one plane
    pytest.param([((1, 2), 2), ((2, 4), 3), ((-1, -2), 1)], [((1, 2), 4)], (1, 0), 2, 3,
                 id="one-line-2"),
    pytest.param([((1, 0, 1), 2), ((0, 1, 1), 2), ((1, 1, 2), 1)], _Y3, (1, -1, 0), 1, 3,
                 id="one-plane-3"),
    pytest.param([((1, 1), 3), ((1, 1), 3), ((1, -1), 2), ((1, -1), 4)], [((1, -1), 3)] * 2,
                 (2, 1), 2, 4, id="repeated-generator"),
    pytest.param([((1, 2), 0), ((1, 1), 3)], [((1, -1), 0)], (1, 3), 2, 3, id="exponent-0"),
    pytest.param([((1, 3), 3), ((2, -1), 0)], [((2, 1), 2)], (1, 1), 0, 2,
                 id="exponent-0-second"),
    # a coordinate generator past the degree covers nothing
    pytest.param([((1, 0), 9), ((1, 1), 2)], [((0, 1), 7), ((1, -1), 3)], (0, 1), 1, 4,
                 id="coordinate-past-degree"),
    pytest.param([((0, 0, 1), 8), ((1, 1, 0), 2), ((1, 0, 2), 3)], _Y3, (0, 0, 1), 2, 3,
                 id="coordinate-past-degree-3"),
    pytest.param([((3,), 2)], [((-2,), 4)], (5,), 1, 3, id="one-variable"),
    pytest.param([(("1/2",), 0)], [((7,), 9)], ("-3",), 4, 2, id="one-variable-exponent-0"),
    # the colon form is a generator's form, or a scaled copy of it
    pytest.param([((1, 2), 3), ((1, -1), 2)], [((1, 2), 2)], (1, 2), 2, 4, id="colon-by-generator"),
    pytest.param([((1, 0, 1), 2), ((0, 1, 1), 3)], [((0, 1, 1), 2)], (0, -2, -2), 1, 3,
                 id="colon-by-generator-3"),
])
def test_ideal_oracles_match_full_elimination_pins(gens1, gens2, form, e, d):
    _match_full_elimination(gens1, gens2, form, e, d)


def _matrices(nvars):
    return st.lists(st.lists(_COEFF, min_size=nvars, max_size=nvars),
                    min_size=nvars, max_size=nvars).filter(
        lambda m: _det_fraction([[F(c) for c in row] for row in m]) != 0)


def _det_fraction(m):
    """Determinant by expansion along the first row, exact on Fractions."""
    if not m:
        return 1
    return sum((-1) ** j * c * _det_fraction([row[:j] + row[j + 1:] for row in m[1:]])
               for j, c in enumerate(m[0]) if c)


@settings(deadline=None)
@given(st.data())
def test_ideal_oracles_invariant_under_coordinate_change(data):
    # x = M y maps every form c to c M; an automorphism keeps all three answers
    nvars = data.draw(st.sampled_from([2, 3]))
    m = [[F(c) for c in row] for row in data.draw(_matrices(nvars))]

    def moved(coeffs):
        return tuple(sum(F(c) * m[i][j] for i, c in enumerate(coeffs)) for j in range(nvars))

    gens1, gens2 = (data.draw(st.lists(st.tuples(_forms(nvars), st.integers(0, 5)),
                                       min_size=1, max_size=4)) for _ in range(2))
    form = data.draw(_forms(nvars))
    e = data.draw(st.integers(0, 4))
    d = data.draw(st.integers(0, 10 if nvars == 2 else 6))
    new1, new2 = ([(moved(c), a) for c, a in gens] for gens in (gens1, gens2))
    assert orc.hilbert_ideal_oracle(new1, d) == orc.hilbert_ideal_oracle(gens1, d)
    assert orc.hilbert_colon_oracle(new1, moved(form), e, d) == \
        orc.hilbert_colon_oracle(gens1, form, e, d)
    assert orc.colon_pair_dims(new1, new2, moved(form), e, d) == \
        orc.colon_pair_dims(gens1, gens2, form, e, d)


@settings(deadline=None)
@given(st.data())
def test_ideal_frame_contract(data):
    # the frame is the first independent candidates, then coordinate vectors;
    # the k-th of them reads +-x_k in it, every other form c reads c F^-1 scaled
    nvars = data.draw(st.sampled_from([1, 2, 3, 4]))
    cands = [orc._int_linear_form(c) for c in data.draw(st.lists(_forms(nvars), max_size=5))]
    units = [tuple(int(i == k) for i in range(nvars)) for k in range(nvars)]
    frame = []
    for c in cands + units:
        if len(frame) < nvars and rank_sparse([dict(enumerate(row)) for row in frame + [c]]) > len(frame):
            frame.append(c)
    cols = orc._ideal_frame(cands, nvars)
    for k, row in enumerate(frame):
        assert [abs(x) for x in orc._in_frame(row, cols)] == list(units[k])
    for c in cands + units:
        w = orc._in_frame(c, cols)
        back = [sum(wk * row[j] for wk, row in zip(w, frame)) for j in range(nvars)]
        assert gcd(*w) == 1 and any(back)
        assert all(back[i] * c[j] == back[j] * c[i] for i in range(nvars) for j in range(nvars))
    # in two variables with two independent generators of exponents a1 and a2
    # (a1 the first chosen), only X'^i Y'^(d-i) with d - a2 < i < a1 is kept
    if nvars == 2 and len(cands) >= 2:
        powers = data.draw(st.lists(st.integers(0, 6), min_size=len(cands), max_size=len(cands)))
        d = data.draw(st.integers(0, 12))
        gens = sorted(((c, a) for c, a in zip(cands, powers) if a <= d), key=lambda g: g[1])
        a2 = next((a for c, a in gens[1:]
                   if rank_sparse([dict(enumerate(gens[0][0])), dict(enumerate(c))]) == 2), None)
        if a2 is not None:
            a1 = gens[0][1]
            cols = orc._ideal_frame([c for c, _ in gens], 2)
            _, kidx, _ = orc._framed_basis(list(zip(cands, powers)), cols, d)
            assert list(kidx) == [(i, d - i) for i in range(d, -1, -1) if d - a2 < i < a1]


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
