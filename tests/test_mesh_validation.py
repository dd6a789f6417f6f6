"""build()'s local certificate against the all-pairs referee, and build at scale.

The referee (mesh_referee.referee_validate) is the Fraction validator with
the quadratic crossing and hanging-vertex scans.  Both must accept the
same meshes: generated valid ones (jittered rational grids, rational
affine images, one-tie stars), hand-made broken ones, and random
perturbations and triangle soups that are mostly broken.  On the accepted
ones, is_quasi_cross_cut must agree with the union-find referee
(mesh_referee.referee_quasi_cross_cut), and every field build() returns
must match a recomputation from the input.  On one-tie stars and rational
affine images of the bundled one-tie meshes, dim(auto) must equal the
spline oracle.
"""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from splinedim import dimension as dm
from splinedim import oracle as orc
from splinedim import triangulation as tg
from splinedim.power_ideal import TiePair, homology_dim

import conftest
from conftest import affine_images, mesh_data, one_tie_stars, tie_stars_to_order
from mesh_referee import _orient as referee_orient, referee_quasi_cross_cut, referee_validate


def _verdict(check, verts, tris):
    """None when check accepts the mesh, else the class of the error it raises."""
    try:
        check(verts, tris)
    except (tg.MeshError, ValueError) as exc:
        return type(exc)
    return None


def _assert_agree(verts, tris):
    new = _verdict(tg.build, verts, tris)
    ref = _verdict(referee_validate, verts, tris)
    assert (new is None) == (ref is None), (new, ref, verts, tris)
    return new


# ------------------------------------------------------------ generators

small = st.integers(1, 4)


@st.composite
def jittered_grids(draw):
    """A type-1 grid with every vertex moved by at most 1/8 in each coordinate.

    That keeps every triangle positive and the boundary simple.
    """
    verts, tris = conftest.grid_data(draw(small), draw(small))
    den = draw(st.sampled_from([8, 16, 24, 40]))
    jitter = st.integers(-den // 8, den // 8)
    verts = [(x + F(draw(jitter), den), y + F(draw(jitter), den)) for x, y in verts]
    return verts, tris


valid_meshes = st.one_of(jittered_grids(), one_tie_stars(),
                         affine_images(st.one_of(jittered_grids(), one_tie_stars())))


@st.composite
def perturbed_meshes(draw):
    """A valid mesh with one vertex moved to a random rational point nearby."""
    verts, tris = draw(st.one_of(jittered_grids(), one_tie_stars()))
    i = draw(st.integers(0, len(verts) - 1))
    coord = st.fractions(-2, 5, max_denominator=4)
    verts = list(verts)
    verts[i] = (draw(coord), draw(coord))
    return verts, tris


@st.composite
def glued_ears(draw):
    """A valid mesh with one to three more triangles, each outside a boundary
    edge with its apex a new point or an existing vertex: a valid larger
    mesh, or ears that pinch, overlap each other, cross the boundary or
    leave a vertex inside an edge."""
    verts, tris = draw(st.one_of(jittered_grids(), affine_images(one_tie_stars())))
    mesh = tg.build(verts, tris)
    keys = draw(st.lists(st.sampled_from([e.key for e in mesh.boundary_edges()]),
                         min_size=1, max_size=3, unique=True))
    verts, tris = list(verts), list(tris)
    coord = st.fractions(-2, 6, max_denominator=2)
    for u, v in keys:
        (t,) = (t for t in mesh.triangles if {u, v} <= set(t))
        if (t.index(v) - t.index(u)) % 3 != 1:
            u, v = v, u  # the mesh lies to the left of u -> v
        pu, pv = mesh.vertices[u], mesh.vertices[v]
        outside = [i for i, p in enumerate(mesh.vertices) if referee_orient(pu, pv, p) < 0]
        w = draw(st.one_of(st.tuples(coord, coord),
                           *([st.sampled_from(outside)] if outside else [])))
        if isinstance(w, tuple):
            w = tg.Point2(*w)
            if referee_orient(pu, pv, w) > 0:
                w = tg.Point2(pu.x + pv.x - w.x, pu.y + pv.y - w.y)
            verts.append(w)
            w = len(verts) - 1
        tris.append((u, v, w))
    return verts, tris


@st.composite
def triangle_soups(draw):
    """A few triangles on a small lattice, every vertex used."""
    pts = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        min_size=3, max_size=8, unique=True))
    idx = st.integers(0, len(pts) - 1)
    tris = draw(st.lists(st.tuples(idx, idx, idx), min_size=1, max_size=7))
    used = sorted({i for t in tris for i in t})
    if len(used) < 3:
        used = sorted(set(used) | set(range(3)))
    new = {old: k for k, old in enumerate(used)}
    return [pts[i] for i in used], [tuple(new[i] for i in t) for t in tris]


# ------------------------------------------------------------ differential

# These two guard build's certificate against the referee, so they take the
# loaded profile's count when it is larger (--hypothesis-profile=ci: 1000).

@settings(max_examples=max(100, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_meshes)
def test_valid_meshes_accepted_by_both(mesh):
    verts, tris = mesh
    assert _verdict(referee_validate, verts, tris) is None
    tri = tg.build(verts, tris)
    assert len(tri.vertices) - len(tri.edges) + len(tri.triangles) == 1


@settings(max_examples=50, deadline=None)
@given(one_tie_stars())
def test_one_tie_stars_have_one_tie(mesh):
    tri = tg.build(*mesh)
    (tie,) = (tri.edges[i] for i in tri.ties)
    assert tie.key == (0, 1)
    assert tri.interior_vertices == (0, 1)


@settings(max_examples=max(200, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(perturbed_meshes(), glued_ears(), triangle_soups()))
def test_broken_meshes_agree(mesh):
    _assert_agree(*mesh)


# A fan whose link is a pentagram: five wedges of 144 degrees around (0, 0).
_PENTAGON = [(0, 10), (-10, 3), (-6, -8), (6, -8), (10, 3)]

ADVERSARIAL = {
    "fold": conftest.INVALID_MESHES["fold"],
    "pentagram-fan": ([(0, 0)] + _PENTAGON,
                      [(0, 1 + k, 1 + (k + 2) % 5) for k in range(5)], tg.EdgeCrossing),
    # two closed fans around the same vertex: its link is two cycles
    "double-fan": ([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (2, 1), (-1, 2), (-2, -1), (1, -2)],
                   [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
                    (0, 5, 6), (0, 6, 7), (0, 7, 8), (0, 8, 5)], tg.EdgeCrossing),
    "nested-triangles": ([(0, 0), (10, 0), (0, 10), (1, 1), (2, 1), (1, 2)],
                         [(0, 1, 2), (3, 4, 5)], tg.DisconnectedOrHoley),
    # nested triangles sharing a corner
    "nested-at-corner": ([(0, 0), (4, 0), (0, 4), (2, 1), (1, 2)],
                         [(0, 1, 2), (0, 3, 4)], tg.DisconnectedOrHoley),
    # boundary edges (0, 1) and (3, 4) overlap along [1, 2] x {0}
    "collinear-overlap": ([(0, 0), (2, 0), (1, 1), (1, 0), (3, 0), (2, -1)],
                          [(0, 1, 2), (3, 4, 5)], tg.HangingVertex),
    # the same along the vertical line x = 0, where the sweep's x-ranges only touch
    "collinear-overlap-vertical": ([(0, 0), (0, 2), (-1, 1), (0, 1), (0, 3), (1, 2)],
                                   [(0, 1, 2), (3, 4, 5)], tg.HangingVertex),
    "bowtie-pinch": ([(-2, -1), (0, 0), (-2, 1), (2, -1), (2, 1)],
                     [(0, 1, 2), (1, 3, 4)], tg.DisconnectedOrHoley),
    # a 3 x 3 square with a 1 x 1 hole: one edge-connected piece, V - E + T = 0
    "annulus": ([(0, 0), (3, 0), (3, 3), (0, 3), (1, 1), (2, 1), (2, 2), (1, 2)],
                [(0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5),
                 (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7)], tg.DisconnectedOrHoley),
    # a triangle inside a closed fan, at its centre: two pieces sharing a vertex, no pinch
    "nested-at-fan-centre": ([(0, 0), (4, 0), (0, 4), (-4, 0), (0, -4),
                              (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2))],
                             [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (0, 5, 6)],
                             tg.DisconnectedOrHoley),
    # an octahedron flattened onto the plane: a closed surface with no boundary edge,
    # so two triangles of some edge at the rightmost vertex lie on one side of it
    "closed-octahedron": ([(0, 0), (6, 0), (0, 6), (1, 1), (3, 1), (1, 3)],
                          [(0, 1, 2), (3, 4, 5), (0, 1, 4), (0, 4, 3),
                           (1, 2, 5), (1, 5, 4), (2, 0, 3), (2, 3, 5)], tg.NonManifoldEdge),
    "poke-across-boundary": conftest.INVALID_MESHES["crossing"],
    # (1, 1) lies inside the diagonal of a square, which borders two triangles
    "vertex-in-interior-edge": ([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (3, 1)],
                                [(0, 1, 2), (0, 2, 3), (4, 1, 5)], tg.EdgeCrossing),
    # (1, 1) splits the diagonal of a square on one side only
    "t-junction": ([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)],
                   [(0, 1, 2), (0, 4, 3), (4, 2, 3)], tg.HangingVertex),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_meshes_rejected_by_both(name):
    verts, tris, cls = ADVERSARIAL[name]
    assert _verdict(referee_validate, verts, tris) is not None
    assert _assert_agree(verts, tris) is cls


def test_fan_check_names_the_vertex():
    verts, tris, _ = ADVERSARIAL["pentagram-fan"]
    with pytest.raises(tg.EdgeCrossing, match="at vertex 0 wind 2 times"):
        tg.build(verts, tris)
    verts, tris, _ = ADVERSARIAL["double-fan"]
    with pytest.raises(tg.EdgeCrossing, match="at vertex 0 wind 2 times"):
        tg.build(verts, tris)


@pytest.mark.parametrize("name", sorted(conftest.INVALID_MESHES))
def test_invalid_meshes_agree(name):
    verts, tris, cls = conftest.INVALID_MESHES[name]
    assert _verdict(referee_validate, verts, tris) is cls
    assert _verdict(tg.build, verts, tris) is cls


# ------------------------------------------------------- quasi-cross-cut

@st.composite
def plain_grids(draw):
    """A type-1 grid of up to 6 x 6 cells: quasi-cross-cut, with long chains
    of totally interior edges that reach the boundary."""
    return conftest.grid_data(draw(st.integers(1, 6)), draw(st.integers(1, 6)))


def _raw_ties(tris):
    """The edges on two triangles with neither endpoint on an edge of one
    triangle, read from the triangles' vertex indices alone."""
    count = Counter(tuple(sorted(pair)) for t in tris for pair in combinations(t, 2))
    outer = {v for e, n in count.items() if n == 1 for v in e}
    return sorted(e for e, n in count.items() if n == 2 and not outer.intersection(e))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(valid_meshes, glued_ears(), plain_grids(), affine_images(plain_grids())),
       st.integers(0, 8))
@example(mesh_data(conftest.two_tie_strip()), 3)
@example(mesh_data(conftest.slope_collision_star()), 4)
@example(mesh_data(conftest.cross_cut_square()), 2)
@example(mesh_data(conftest.square_pair()), 1)
def test_quasi_cross_cut_walk_matches_union_find(mesh, r):
    try:
        tri = tg.build(*mesh)
    except tg.MeshError:
        reject()
    assert [tri.edges[i].key for i in tri.ties] == _raw_ties(mesh[1])
    qcc = referee_quasi_cross_cut(tri)
    assert tg.is_quasi_cross_cut(tri) == qcc
    # classify refuses exactly the meshes that are neither quasi-cross-cut nor one-tie
    unsupported = not qcc and len(tri.ties) != 1
    try:
        dm.classify(tri, r)
    except dm.UnsupportedTopology:
        assert unsupported
    else:
        assert not unsupported


# ------------------------------------------------------- build's output

@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(valid_meshes, glued_ears(), plain_grids(), affine_images(plain_grids())))
def test_build_output_matches_a_recomputation(mesh):
    """Every field of a built mesh, recomputed from the input alone."""
    verts, tris = mesh
    try:
        tri = tg.build(verts, tris)
    except tg.MeshError:
        reject()
    pts = tuple(tg.Point2(F(x), F(y)) for x, y in verts)
    assert tri.vertices == pts
    # each triangle keeps its input's vertices, counterclockwise
    assert len(tri.triangles) == len(tris)
    for t, raw in zip(tri.triangles, tris):
        assert sorted(t) == sorted(raw) and referee_orient(*(pts[i] for i in t)) > 0
    # every pair of a triangle's vertices is an edge, listed once in key order with the
    # ascending indices of the triangles holding both its endpoints
    held = {key: tuple(k for k, t in enumerate(tris) if set(key) <= set(t))
            for key in sorted({tuple(sorted(pair)) for t in tris for pair in combinations(t, 2)})}
    assert [(e.key, e.triangles) for e in tri.edges] == list(held.items())
    for e in tri.edges:
        # the primitive direction, dx > 0 or dx == 0 < dy
        dx, dy = pts[e.v].x - pts[e.u].x, pts[e.v].y - pts[e.u].y
        assert e.slope == ((dy / dx).denominator, (dy / dx).numerator) if dx else (0, 1)
    outer = {v for key, ks in held.items() if len(ks) == 1 for v in key}
    assert tri.vertex_kind == tuple("boundary" if v in outer else "interior"
                                    for v in range(len(pts)))
    assert tri.edges_at == tuple(tuple(i for i, e in enumerate(tri.edges) if v in e.key)
                                 for v in range(len(pts)))
    assert tri.ties == tuple(i for i, e in enumerate(tri.edges) if not outer.intersection(e.key))


# ------------------------------------------------------- dim against the oracle

_FIG2, _TOH = tg.load_bundled("figure2"), tg.load_bundled("tohaneanu")
ONE_TIE_BASES = [_FIG2, _TOH, conftest.glue_quad(_FIG2, 2, 10), conftest.glue_quad(_TOH, 3, 4)]


@st.composite
def oracle_meshes(draw):
    """A mesh paired with what its classification must match, or with None.

    One of:
    - a one-tie star built to order and its sorted slope counts (s, t),
      which it must classify with, as one-tie or trivial-case;
    - a star of one_tie_stars or its affine image, with None: its circle
      holds (+-1, 0), on the tie's line, so it is quasi-cross-cut through
      the slope collision at the tie;
    - a rational affine image of a bundled one-tie mesh, with or without a
      glued interior vertex, with that bundled mesh.
    """
    base = draw(st.one_of(st.none(), st.just("to order"), st.sampled_from(ONE_TIE_BASES)))
    if base is None:
        return None, tg.build(*draw(st.one_of(one_tie_stars(), affine_images(one_tie_stars()))))
    if base == "to order":
        counts, mesh = draw(tie_stars_to_order())
        return counts, tg.build(*mesh)
    return base, tg.build(*draw(affine_images(st.just(mesh_data(base)))))


def _tie_summary(tri, r):
    kind, _, params = dm.classify(tri, r)
    return kind, params and (params.p, params.q, params.s, params.t)


# The loaded profile's count when it is larger (--hypothesis-profile=ci: 1000).
@settings(max_examples=max(100, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(oracle_meshes(), st.integers(0, 3).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(0, 2 * r + 3))))
# each glued mesh one slope short of trivial (t + 1 = r + 2), where the correction is 1
@example((ONE_TIE_BASES[2], ONE_TIE_BASES[2]), (3, 4))
@example((ONE_TIE_BASES[3], ONE_TIE_BASES[3]), (1, 2))
def test_dim_auto_matches_spline_oracle_on_generated_meshes(mesh, rd):
    base, tri = mesh
    r, d = rd
    assert dm.dim(tri, d, r).total == orc.dim_spline_oracle(tri, d, r)
    if isinstance(base, tuple):
        kind, _, params = dm.classify(tri, r)
        assert kind in ("one-tie", "trivial-case") and (params.s, params.t) == base
    elif base is not None:
        assert _tie_summary(tri, r) == _tie_summary(base, r)


@pytest.mark.parametrize("base, a, b", [(_FIG2, 2, 10), (_TOH, 3, 4)],
                         ids=["figure2-across-2-10", "tohaneanu-across-3-4"])
def test_mirrored_one_tie_mesh_doubles_the_correction(base, a, b):
    # ROADMAP item 2's hypothesis on two vertex-disjoint ties: each adds its own correction
    tri = conftest.reflect_across(base, a, b)
    first, second = (set(tri.edges[i].key) for i in tri.ties)
    assert not first & second and not tg.is_quasi_cross_cut(tri)
    with pytest.raises(dm.UnsupportedTopology):
        dm.dim(tri, 4, 2)
    params = tg.extract_one_tie_params(base)
    nonzero = 0
    for r in range(1, 4):
        trivial = dm._trivial_reason(params, r) is not None
        for d in range(r, 3 * r + 3):
            corr = 0 if trivial else homology_dim(TiePair(params.s, params.t, r), d)
            nonzero += corr > 0
            assert orc.dim_spline_oracle(tri, d, r) == dm.schumaker_lower_bound(tri, d, r) + 2 * corr
    assert nonzero > 0


# ------------------------------------------------------------------ scale

def _census(tri):
    return (len(tri.vertices), len(tri.boundary_vertices), len(tri.interior_vertices),
            len(tri.triangles), len(tri.edges), len(tri.boundary_edges()),
            len(tri.interior_edges()))


def test_30x30_grid_census():
    grid = tg.build(*conftest.grid_data(30, 30))
    census = (961, 120, 841, 1800, 2760, 120, 2640)
    assert _census(grid) == census
    image = tg.affine_transform(grid, [("3/2", "1/3"), ("-2/5", "7/4")], ("1/7", "-5/3"))
    assert _census(image) == census
    assert image.vertex_kind == grid.vertex_kind
    assert [e.kind for e in image.edges] == [e.kind for e in grid.edges]
