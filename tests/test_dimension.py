"""Lower bounds, the two correction routes, and the dispatching dim() front end.

Formula golden values below are hand-evaluations of the closed forms; the
mesh-level ones are cross-checked against the rank oracle in test_oracle.py
and the acceptance suite.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from splinedim import dimension as dm
from splinedim import triangulation as tg
from splinedim.exact import binom
from splinedim.power_ideal import TiePair, homology_dim, homology_regularity

import conftest
from conftest import affine_images, mesh_data


_FIG2, _TOH = tg.load_bundled("figure2"), tg.load_bundled("tohaneanu")


def _fig2_params():
    return tg.OneTieParams(tau=(0, 1), v1=0, v2=1, p=6, q=5, s=3, t=4,
                           trivial_slope_collision=False)


def _toh_params():
    return tg.OneTieParams(tau=(0, 1), v1=0, v2=1, p=4, q=4, s=2, t=2,
                           trivial_slope_collision=False)


# ------------------------------------------------------------ lower bound

def test_lower_bound_figure2_values(fig2):
    assert dm.schumaker_lower_bound(fig2, 10, 6) == 118
    assert dm.schumaker_lower_bound(fig2, 12, 8) == 134


def test_lower_bound_low_degree_is_polynomials(fig2, toh):
    # below r + 1 every spline is a single polynomial
    for tri in (fig2, toh):
        for r in range(0, 5):
            for d in range(0, r + 1):
                assert dm.schumaker_lower_bound(tri, d, r) == binom(d + 2, 2)


def test_lower_bound_params_matches_mesh(fig2, toh):
    # on these meshes every interior edge is at one of the two star vertices,
    # so the parameterized bound agrees with the mesh walk
    for tri, params in ((fig2, _fig2_params()), (toh, _toh_params())):
        for r in range(1, 7):
            for d in range(0, 15):
                a = dm.schumaker_lower_bound(tri, d, r)
                b = dm.schumaker_lower_bound_params(
                    params.p, params.q, params.s, params.t, d, r)
                assert a == b


def test_tohaneanu_prime_closed_form():
    # removing the shared edge leaves two slopes at each endpoint:
    # L' = C(d+2,2) + 4 C(d+1-r,2) + 2 C(d-2r,2)
    for r in range(1, 8):
        for d in range(0, 20):
            expected = binom(d + 2, 2) + 4 * binom(d + 1 - r, 2) + 2 * binom(d - 2 * r, 2)
            assert dm.schumaker_lower_bound_prime(4, 4, 2, 2, d, r) == expected


def test_figure2_prime_low_degree():
    # for d <= 8 at r = 6 the companion bound is C(d+2,2) + 4 C(d-5,2)
    for d in range(0, 9):
        assert dm.schumaker_lower_bound_prime(6, 5, 3, 4, d, 6) == \
            binom(d + 2, 2) + 4 * binom(d - 5, 2)


def test_vertex_star_data():
    # a star of 4 edges on 4 slopes at r = 6: 4*7 = 28 = alpha*3 + nu with
    # 0 <= nu < 3 gives alpha = 9, nu = 1, mu = 2, and the edge terms cancel
    for d in range(0, 20):
        assert dm._lower_bound(4, [4], d, 6) == \
            binom(d + 2, 2) + 2 * binom(d + 2 - 9, 2) + 1 * binom(d + 1 - 9, 2)
    with pytest.raises(ValueError):
        dm._lower_bound(3, [1], 5, 3)


def test_check_dr_rejects_negative(fig2):
    with pytest.raises(ValueError):
        dm.schumaker_lower_bound(fig2, -1, 2)
    with pytest.raises(ValueError):
        dm.dim(fig2, 3, -1)


@pytest.mark.parametrize("d, r", [(True, False), (5, True), (False, 2), (4.0, 1)])
def test_check_dr_rejects_non_integers(toh, d, r):
    # bool is an int subclass, but True is not a degree
    with pytest.raises(ValueError, match="d and r must be integers"):
        dm.dim(toh, d, r)
    with pytest.raises(ValueError, match="d and r must be integers"):
        dm.schumaker_lower_bound(toh, d, r)


# --------------------------------------------------------- closed forms

def test_f_explicit_golden_values():
    assert dm.f_explicit(2, 3, 9, 5) == 1
    assert dm.f_explicit(3, 4, 12, 8) == 1


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: dm.f_explicit(1, 4, 12, 8), ValueError, id="f_explicit-s-below-2"),
    pytest.param(lambda: dm.f_explicit(4, 3, 12, 8), ValueError, id="f_explicit-s-above-t"),
    pytest.param(lambda: dm.f_explicit(2.5, 3, 9, 4), ValueError, id="f_explicit-float-s"),
    pytest.param(lambda: dm.f_explicit(2, 3.0, 9, 4), ValueError, id="f_explicit-float-t"),
    pytest.param(lambda: dm.schumaker_lower_bound_params(6.5, 5, 3, 4, 12, 8), ValueError,
                 id="bound_params-float-p"),
    pytest.param(lambda: dm.schumaker_lower_bound_params(True, 5, 3, 4, 12, 8), ValueError,
                 id="bound_params-bool-p"),
    pytest.param(lambda: dm.schumaker_lower_bound_prime(6, 5, 3, 4.0, 12, 8), ValueError,
                 id="bound_prime-float-t"),
    pytest.param(lambda: dm.classify(_FIG2, -1), ValueError, id="classify-negative-r"),
    pytest.param(lambda: dm.classify(_FIG2, 1.5), ValueError, id="classify-float-r"),
    pytest.param(lambda: dm.classify(_TOH, True), ValueError, id="classify-bool-r"),
    pytest.param(lambda: dm.classify(conftest.cross_cut_square(), -1), ValueError,
                 id="classify-quasi-cross-cut-negative-r"),
    pytest.param(lambda: dm.stabilization_degree(_fig2_params(), -1), ValueError,
                 id="stabilization_degree-negative-r"),
])
def test_argument_contracts(call, error):
    with pytest.raises(error):
        call()


def test_f_explicit_out_of_branch():
    with pytest.raises(dm.OutOfBranch):
        dm.f_explicit(3, 4, 8, 6)  # below the threshold
    with pytest.raises(dm.OutOfBranch):
        dm.f_explicit(3, 4, 20, 8)  # past stabilization
    with pytest.raises(dm.OutOfBranch):
        dm.f_explicit(2, 2, 5, 2)  # s = t = 2 has an empty middle branch


@settings(max_examples=40)
@given(st.integers(3, 12), st.data())
def test_f_explicit_matches_lattice_count(r, data):
    s = data.draw(st.integers(2, r + 1))
    t = data.draw(st.integers(max(s, 3), r + 1))
    from fractions import Fraction
    tp = TiePair(s, t, r)
    low = Fraction(t * r, s * (t - 1)) + r
    high = Fraction(r + 1, s) + Fraction(r + 1, t) + r - 1
    for d in range(r + 1, 3 * r + 4):
        if low < d <= high:
            assert dm.f_explicit(s, t, d, r) == homology_dim(tp, d)


def test_dim_explicit_figure2_r8():
    rep = dm.dim_explicit(_fig2_params(), 12, 8)
    assert rep.total == 135
    assert rep.correction == 1
    assert rep.lower_bound == 134


def test_dim_explicit_branches_figure2_r6():
    params = _fig2_params()
    # d <= 26/3: companion bound; 26/3 < d <= 9: middle; d >= 10: plain bound
    for d in range(0, 9):
        rep = dm.dim_explicit(params, d, 6)
        assert rep.total == dm.schumaker_lower_bound_prime(6, 5, 3, 4, d, 6)
    rep9 = dm.dim_explicit(params, 9, 6)
    assert rep9.correction == dm.f_explicit(3, 4, 9, 6)
    for d in range(10, 16):
        rep = dm.dim_explicit(params, d, 6)
        assert rep.correction == 0


def test_figure2_closed_form_tables_r6_r7_r8():
    """Degree-by-degree dimension tables for r = 6, 7, 8 on the figure mesh,
    written out as explicit binomial sums for both branch formulas."""
    params = _fig2_params()

    def expected(d, r):
        if r == 6:
            if d <= 8:
                return binom(d + 2, 2) + 4 * binom(d - 5, 2) + 2 * binom(d - 7, 2) + \
                    2 * binom(d - 8, 2) + binom(d - 9, 2)
            # f(9) = 0, so the plain bound takes over already at d = 9
            return binom(d + 2, 2) + 3 * binom(d - 5, 2) + binom(d - 6, 2) + \
                5 * binom(d - 7, 2) + binom(d - 8, 2)
        if r == 7:
            # no integer lies strictly between 91/9 and 128/12
            if d <= 10:
                return binom(d + 2, 2) + 4 * binom(d - 6, 2) + binom(d - 8, 2) + \
                    2 * binom(d - 9, 2) + 2 * binom(d - 10, 2)
            return binom(d + 2, 2) + 3 * binom(d - 6, 2) + 5 * binom(d - 8, 2) + \
                2 * binom(d - 9, 2)
        if d <= 11:
            return binom(d + 2, 2) + 4 * binom(d - 7, 2) + 3 * binom(d - 10, 2) + \
                binom(d - 11, 2) + binom(d - 12, 2)
        if d == 12:
            return 135
        return binom(d + 2, 2) + 3 * binom(d - 7, 2) + 3 * binom(d - 9, 2) + \
            4 * binom(d - 10, 2)

    for r in (6, 7, 8):
        for d in range(0, 26):
            assert dm.dim_explicit(params, d, r).total == expected(d, r), (d, r)


def test_lattice_explicit_agree_on_figure2():
    params = _fig2_params()
    for r in (3, 4, 5, 6, 7, 8):
        for d in range(0, 3 * r + 3):
            a = dm.dim_lattice(params, d, r)
            b = dm.dim_explicit(params, d, r)
            assert (a.total, a.correction) == (b.total, b.correction)


def test_trivial_cases_raise():
    params = _fig2_params()
    with pytest.raises(dm.TrivialCase):
        dm.dim_lattice(params, 5, 2)  # r = 2: endpoint has r + 3 slopes
    collided = tg.OneTieParams(tau=(0, 1), v1=0, v2=1, p=6, q=5, s=3, t=4,
                               trivial_slope_collision=True)
    with pytest.raises(dm.TrivialCase):
        dm.dim_explicit(collided, 9, 6)


def test_stabilization_degree_values():
    assert dm.stabilization_degree(_fig2_params(), 6) == 9
    assert dm.stabilization_degree(_fig2_params(), 8) == 13
    for r in range(1, 9):
        assert dm.stabilization_degree(_toh_params(), r) == 2 * r + 1


def test_stabilization_is_sharp():
    params = _fig2_params()
    for r in (3, 5, 6, 8):
        stab = dm.stabilization_degree(params, r)
        assert dm.dim_lattice(params, stab, r).correction == 0
        assert dm.dim_lattice(params, stab - 1, r).correction > 0


def test_correction_monotone_total():
    params = _fig2_params()
    for r in (4, 6):
        prev = 0
        for d in range(0, 3 * r + 4):
            tot = dm.dim_lattice(params, d, r).total
            assert tot >= prev
            prev = tot


def test_dim_report_invariant():
    # total is derived, so a report whose total disagrees cannot be built
    with pytest.raises(TypeError):
        dm.DimReport(r=1, d=2, lower_bound=5, correction=1, total=7, method="x")
    rep = dm.DimReport(r=1, d=2, lower_bound=5, correction=1, method="x")
    assert rep.total == rep.lower_bound + rep.correction == 6


# ------------------------------------------------------------ dispatcher

def test_dim_auto_figure2(fig2):
    rep = dm.dim(fig2, 12, 8)
    assert (rep.lower_bound, rep.correction, rep.total) == (134, 1, 135)
    assert rep.method == "lattice"


def test_dim_auto_trivial_figure2(fig2):
    rep = dm.dim(fig2, 7, 2)
    assert rep.method == "trivial-case"
    assert rep.correction == 0
    assert rep.total == dm.schumaker_lower_bound(fig2, 7, 2)


def test_dim_auto_quasi_cross_cut():
    tri = conftest.cross_cut_square()
    rep = dm.dim(tri, 2, 1)
    assert rep.method == "quasi-cross-cut"
    assert rep.correction == 0
    assert rep.total == 8  # classic count for C^1 quadratics on a cross cut


def test_dim_auto_rejects_two_ties():
    tri = conftest.two_tie_strip()
    with pytest.raises(dm.UnsupportedTopology):
        dm.dim(tri, 4, 1)


def test_dim_method_oracle_matches(fig2, toh):
    for tri, d, r in ((toh, 2, 1), (fig2, 7, 3)):
        auto = dm.dim(tri, d, r)
        orc = dm.dim(tri, d, r, method="oracle")
        assert orc.total == auto.total
        assert orc.method == "oracle"
        assert orc.lower_bound == auto.lower_bound


def test_dim_method_explicit_and_lattice(fig2):
    a = dm.dim(fig2, 12, 8, method="lattice")
    b = dm.dim(fig2, 12, 8, method="explicit")
    assert a.total == b.total == 135
    assert a.method == "lattice"
    assert b.method == "explicit"


def test_dim_unknown_method(fig2):
    with pytest.raises(ValueError):
        dm.dim(fig2, 3, 1, method="guess")


def test_dim_tohaneanu_supersmooth_range(toh):
    # for d <= 2r the dimension equals the companion bound
    for r in (1, 2, 3):
        for d in range(0, 2 * r + 1):
            rep = dm.dim(toh, d, r)
            assert rep.total == dm.schumaker_lower_bound_prime(4, 4, 2, 2, d, r)
        rep = dm.dim(toh, 2 * r + 1, r)
        assert rep.correction == 0


# ------------------------------------ properties of dim(auto), no oracle

@st.composite
def bundled_cells(draw):
    """figure2 or tohaneanu, or a rational affine image of one, with 0 <= r <= 100
    and 0 <= d <= stabilization degree + 2 (2r + 3 where the case is trivial)."""
    base = draw(st.sampled_from([_FIG2, _TOH]))
    tri = base
    if draw(st.booleans()):
        tri = tg.build(*draw(affine_images(st.just(mesh_data(base)))))
    return (tri, *_draw_cell(draw, tri))


def _draw_cell(draw, tri):
    """classify's params (None where there are none or the mesh is refused),
    0 <= d <= stabilization degree + 2 (2r + 3 without a live correction)
    and 0 <= r <= 100."""
    r = draw(st.integers(0, 100))
    try:
        kind, _, params = dm.classify(tri, r)
    except dm.UnsupportedTopology:
        kind, params = None, None
    top = dm.stabilization_degree(params, r) if kind == "one-tie" else 2 * r + 1
    return params, draw(st.integers(0, top + 2)), r


_cell_settings = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_cell_settings
@given(bundled_cells())
def test_dim_falls_as_r_rises(cell):
    tri, _, d, r = cell
    assert dm.dim(tri, d, r + 1).total <= dm.dim(tri, d, r).total


@_cell_settings
@given(bundled_cells())
def test_dim_rises_with_d(cell):
    tri, _, d, r = cell
    assert dm.dim(tri, d, r).total <= dm.dim(tri, d + 1, r).total


@_cell_settings
@given(bundled_cells())
def test_dim_at_least_both_bounds(cell):
    # L' is the bound of the companion mesh with the totally interior edge removed
    tri, params, d, r = cell
    rep = dm.dim(tri, d, r)
    companion = dm.schumaker_lower_bound_prime(params.p, params.q, params.s, params.t, d, r)
    assert rep.total >= max(rep.lower_bound, companion)


# Meshes for the invariance and refinement properties: the bundled one-tie
# meshes, each with an interior vertex glued away from its tie, a
# quasi-cross-cut mesh and, for invariance only, a mesh dim(auto) refuses.
_REFINABLE = (_FIG2, _TOH, conftest.glue_quad(_FIG2, 2, 10), conftest.glue_quad(_TOH, 3, 4),
              conftest.cross_cut_square())
_INVARIANCE_MESHES = _REFINABLE + (conftest.two_tie_strip(),)


@st.composite
def relabelled_cells(draw):
    """A mesh, its image under a drawn composition of a vertex relabelling, a
    triangle shuffle, per-triangle orientation flips and a rational affine
    map, and a cell (d, r)."""
    tri = draw(st.sampled_from(_INVARIANCE_MESHES))
    verts, tris = mesh_data(tri)
    if draw(st.booleans()):
        new = draw(st.permutations(range(len(verts))))
        moved = [None] * len(verts)
        for label, v in zip(new, verts):
            moved[label] = v
        verts, tris = moved, [tuple(new[i] for i in t) for t in tris]
    if draw(st.booleans()):
        tris = draw(st.permutations(tris))
    if draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=len(tris), max_size=len(tris)))
        tris = [t[::-1] if flip else t for t, flip in zip(tris, flips)]
    if draw(st.booleans()):
        verts, tris = draw(affine_images(st.just((verts, tris))))
    return (tri, tg.build(verts, tris), *_draw_cell(draw, tri)[1:])


def _invariants(tri, d, r):
    """dim(auto)'s report and classify's verdict up to the order of p and q
    (with s = t a relabelling may swap the endpoints), or the error's class."""
    try:
        rep = dm.dim(tri, d, r)
        kind, _, params = dm.classify(tri, r)
    except dm.DimensionError as exc:
        return type(exc)
    tie = params and (params.s, params.t, params.trivial_slope_collision,
                      sorted((params.p, params.q)))
    return (rep.lower_bound, rep.correction, rep.total, rep.method), kind, tie


@_cell_settings
@given(relabelled_cells())
def test_dim_invariant_under_relabelling_and_affine_maps(cell):
    tri, image, d, r = cell
    assert _invariants(image, d, r) == _invariants(tri, d, r)


@st.composite
def refined_cells(draw):
    """A mesh, the mesh with the triangle on a drawn boundary edge (a, b) split
    at a rational point m strictly between a and b, and a cell (d, r).

    m is a boundary vertex, so the split adds no totally interior edge."""
    tri = draw(st.sampled_from(_REFINABLE))
    verts, tris = mesh_data(tri)
    edge = draw(st.sampled_from([e for e in tri.edges if e.kind == "boundary"]))
    lam = draw(st.fractions(0, 1, max_denominator=7).filter(lambda x: 0 < x < 1))
    (ax, ay), (bx, by) = verts[edge.u], verts[edge.v]
    m = len(verts)
    verts = verts + [(ax + lam * (bx - ax), ay + lam * (by - ay))]
    (k,) = edge.triangles
    t = tris[k]
    # each half keeps the orientation of t: m replaces one endpoint of the edge
    halves = [tuple(m if v == end else v for v in t) for end in (edge.u, edge.v)]
    tris = tris[:k] + tuple(halves) + tris[k + 1:]
    return (tri, tg.build(verts, tris), *_draw_cell(draw, tri)[1:])


@_cell_settings
@given(refined_cells())
def test_dim_rises_under_boundary_refinement(cell):
    # every spline on the coarse mesh is a spline on the refined one
    tri, fine, d, r = cell
    assert dm.dim(fine, d, r).total >= dm.dim(tri, d, r).total
