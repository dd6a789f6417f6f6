"""Mesh building, validation errors, slope bookkeeping, and the parameters
read off the unique totally interior edge."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from splinedim import dimension as dm
from splinedim import oracle as orc
from splinedim import triangulation as tg

import conftest
from mesh_referee import _orient as referee_orient


# ------------------------------------------------------------ censuses

def test_figure2_census(fig2):
    assert len(fig2.vertices) == 11
    assert len(fig2.triangles) == 11
    assert len(fig2.edges) == 21
    assert len(fig2.boundary_edges()) == 9
    assert len(fig2.interior_edges()) == 12
    assert len(fig2.boundary_vertices) == 9
    assert fig2.interior_vertices == (0, 1)
    assert len(fig2.ties) == 1


def test_tohaneanu_census(toh):
    assert len(toh.vertices) == 8
    assert len(toh.triangles) == 8
    assert len(toh.edges) == 15
    assert len(toh.boundary_edges()) == 6
    assert len(toh.interior_edges()) == 9
    assert len(toh.ties) == 1


def test_euler_formula_on_examples(fig2, toh):
    for tri in (fig2, toh, conftest.single_triangle(), conftest.square_pair(),
                conftest.cross_cut_square(), conftest.two_tie_strip()):
        assert len(tri.vertices) - len(tri.edges) + len(tri.triangles) == 1


def test_edge_classification(fig2):
    tie = fig2.edges[fig2.ties[0]]
    assert tie.kind == "interior"
    assert fig2.vertex_kind[tie.u] == fig2.vertex_kind[tie.v] == "interior"
    assert tie.key == (0, 1)
    some_boundary = fig2.boundary_edges()[0]
    assert some_boundary.kind == "boundary"


# ------------------------------------------------------- slope helpers

def test_primitive_canonical():
    # opposite directions share one slope, reduced by the gcd
    assert tg._primitive(2, 4) == tg._primitive(-2, -4) == tg.Slope(1, 2)
    assert tg._primitive(0, -3) == tg.Slope(0, 1)
    assert tg._primitive(-4, 0) == tg.Slope(1, 0)


def test_edge_slope_with_fraction_vertices():
    # fractions reduce to a primitive integer direction
    tri = tg.build([(F(0), F(0)), (F(1, 2), F(3, 4)), (F(0), F(1))], [(0, 1, 2)])
    (edge,) = (e for e in tri.edges if e.key == (0, 1))
    assert edge.slope == tg.Slope(2, 3)


def test_slope_count_at_interior_vertices(fig2):
    assert tg.slope_count(fig2, 0) == 4
    assert tg.slope_count(fig2, 1) == 5


def test_slope_count_requires_interior(fig2):
    with pytest.raises(tg.NotInteriorVertex):
        tg.slope_count(fig2, 4)
    # a bool, a float and an index past either end are refused, not read as an index
    for vertex, message in [(-10, "vertex must be at least 0, got -10"),
                            (True, "vertex must be an integer, got True"),
                            (1.0, "vertex must be an integer, got 1.0"),
                            (11, "vertex must be at most 10, got 11")]:
        with pytest.raises(ValueError) as info:
            tg.slope_count(fig2, vertex)
        assert type(info.value) is ValueError and str(info.value) == message


# ----------------------------------------------------- quasi-cross-cut

def test_quasi_cross_cut_flags(fig2, toh):
    assert not tg.is_quasi_cross_cut(fig2)
    assert not tg.is_quasi_cross_cut(toh)
    assert tg.is_quasi_cross_cut(conftest.single_triangle())
    assert tg.is_quasi_cross_cut(conftest.square_pair())
    assert tg.is_quasi_cross_cut(conftest.cross_cut_square())
    assert not tg.is_quasi_cross_cut(conftest.two_tie_strip())


def test_quasi_cross_cut_after_removing_tie(fig2, toh):
    # dropping the totally interior edge leaves a quasi-cross-cut partition,
    # which is what makes the companion lower bound exact: every other
    # interior edge already reaches the boundary
    for tri in (fig2, toh):
        (tie,) = (tri.edges[i] for i in tri.ties)
        for e in tri.interior_edges():
            if e != tie:
                assert "boundary" in (tri.vertex_kind[e.u], tri.vertex_kind[e.v])


# ------------------------------------------------------- tie parameters

def test_figure2_params(fig2):
    p = tg.extract_one_tie_params(fig2)
    assert (p.p, p.q, p.s, p.t) == (6, 5, 3, 4)
    assert p.tau == (0, 1)
    assert not p.trivial_slope_collision
    assert dm._trivial_reason(p, 2) is not None
    assert dm._trivial_reason(p, 3) is None
    assert dm._trivial_reason(p, 6) is None


def test_tohaneanu_params(toh):
    p = tg.extract_one_tie_params(toh)
    assert (p.p, p.q, p.s, p.t) == (4, 4, 2, 2)
    assert not p.trivial_slope_collision
    # t + 1 = 3 >= r + 3 only for r = 0
    assert dm._trivial_reason(p, 0) is not None
    assert dm._trivial_reason(p, 1) is None


def test_params_swap_endpoints_to_put_fewer_slopes_first(fig2):
    # with vertices 0 and 1 relabelled, the tie's first endpoint carries t = 4 slopes
    swap = {0: 1, 1: 0}
    tri = tg.build([fig2.vertices[swap.get(i, i)] for i in range(len(fig2.vertices))],
                   [tuple(swap.get(i, i) for i in t) for t in fig2.triangles])
    p = tg.extract_one_tie_params(tri)
    assert (p.p, p.q, p.s, p.t) == (6, 5, 3, 4)
    for r in range(1, 9):
        for d in range(20):
            assert dm.dim(tri, d, r) == dm.dim(fig2, d, r), (d, r)
    assert orc.dim_spline_oracle(tri, 12, 8) == 135


def test_extract_params_requires_unique_tie():
    with pytest.raises(tg.NoTotallyInteriorEdge):
        tg.extract_one_tie_params(conftest.square_pair())
    with pytest.raises(tg.MultipleTotallyInteriorEdges):
        tg.extract_one_tie_params(conftest.two_tie_strip())


def test_one_tie_params_validation():
    with pytest.raises(ValueError):
        tg.OneTieParams(tau=(0, 1), p=2, q=4, s=3, t=4,
                        trivial_slope_collision=False)
    with pytest.raises(ValueError):
        tg.OneTieParams(tau=(0, 1), p=5, q=4, s=4, t=3,
                        trivial_slope_collision=False)
    # counts are integers: a float or a bool is refused before any range check
    for bad in ({"p": 6.5}, {"s": 3.0}, {"q": True}, {"t": 4.0}):
        fields = {"p": 6, "q": 5, "s": 3, "t": 4} | bad
        with pytest.raises(ValueError, match="p, q, s and t must be integers"):
            tg.OneTieParams(tau=(0, 1), trivial_slope_collision=False, **fields)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: tg.OneTieParams(tau=(0, 1), p=3, q=3, s=3, t=4,
                                         trivial_slope_collision=False),
                 ValueError, id="OneTieParams-t-above-q"),
    pytest.param(lambda: tg.load_bundled("nosuch"), FileNotFoundError, id="load_bundled-unknown"),
])
def test_argument_contracts(call, error):
    with pytest.raises(error):
        call()


# ------------------------------------------------------ build rejects

def test_build_degenerate_triangle():
    with pytest.raises(tg.DegenerateTriangle):
        tg.build([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_build_repeated_vertex_in_triangle():
    with pytest.raises(tg.DegenerateTriangle):
        tg.build([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)])


def test_build_duplicate_vertices():
    with pytest.raises(tg.DuplicateVertex):
        tg.build([(0, 0), (1, 0), (0, 1), ("0/1", 0)], [(0, 1, 2)])


def test_build_vertex_index_out_of_range():
    with pytest.raises(ValueError):
        tg.build([(0, 0), (1, 0), (0, 1)], [(0, 1, 7)])


@pytest.mark.parametrize("index", [2.7, "2", True])
def test_build_rejects_non_int_index(index):
    with pytest.raises(tg.MeshFormatError, match="triangle 0 must be an"):
        tg.build([(0, 0), (1, 0), (0, 1)], [(0, 1, index)])


@pytest.mark.parametrize("vertex", ["01", 5, (0, 1, 2)])
def test_build_rejects_non_pair_vertex(vertex):
    with pytest.raises(tg.MeshFormatError, match="vertex 2 must be a"):
        tg.build([(0, 0), (1, 0), vertex], [(0, 1, 2)])


def test_build_checks_structure_before_geometry():
    # the coincident vertices 0 and 3 are found only after every index is checked
    with pytest.raises(tg.MeshFormatError, match="triangle 1 references a missing vertex"):
        tg.build([(0, 0), (1, 0), (0, 1), (0, 0)], [(0, 1, 2), (0, 1, 9)])
    with pytest.raises(tg.MeshFormatError, match="non-rational coordinate None"):
        tg.build([(0, 0), (1, 0), (0, None)], [(0, 1, 1)])


def test_build_duplicate_triangle():
    with pytest.raises(tg.NonManifoldEdge):
        tg.build([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (1, 2, 0)])


def test_build_three_triangles_on_edge():
    with pytest.raises(tg.NonManifoldEdge):
        tg.build([(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)],
                 [(0, 1, 2), (1, 0, 3), (0, 1, 4)])


def test_build_same_side_overlap():
    with pytest.raises(tg.NonManifoldEdge):
        tg.build([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (0, 1, 3)])


def test_build_hanging_vertex():
    with pytest.raises(tg.HangingVertex):
        tg.build([(0, 0), (2, 0), (1, 2), (1, 0), (1, -2)],
                 [(0, 1, 2), (0, 4, 3), (3, 4, 1)])


# Boundary edges on one line through a common endpoint: vertex 2 lies inside
# edge (0, 1).  In the double slit both its boundary edges run along (0, 1);
# in the fan slit the fan at vertex 0 turns all the way round from (0, 1) to (0, 2).
@pytest.mark.parametrize("verts, tris", [
    pytest.param([(0, 0), (2, 0), (1, 0), (1, 1), (1, -1)], [(0, 1, 3), (0, 2, 4), (2, 1, 4)],
                 id="double-slit"),
    pytest.param([(0, 0), (2, 0), (1, 0), (0, 2), (-2, 0), (0, -2)],
                 [(0, 1, 3), (0, 3, 4), (0, 4, 5), (0, 5, 2)], id="fan-slit"),
])
def test_build_collinear_boundary_edges_at_a_vertex(verts, tris):
    with pytest.raises(tg.HangingVertex, match=r"^vertex 2 lies inside edge \(0,1\)$"):
        tg.build(verts, tris)


def test_build_isolated_vertex():
    with pytest.raises(tg.DisconnectedOrHoley):
        tg.build([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)])


def test_build_crossing_triangles():
    with pytest.raises(tg.EdgeCrossing):
        tg.build([(0, 0), (4, 0), (0, 4), (1, 1), (5, 1), (1, 5)],
                 [(0, 1, 2), (3, 4, 5)])


def test_build_disconnected():
    with pytest.raises(tg.DisconnectedOrHoley):
        tg.build([(0, 0), (1, 0), (0, 1), (10, 0), (11, 0), (10, 1)],
                 [(0, 1, 2), (3, 4, 5)])


def test_build_bowtie_pinch():
    with pytest.raises(tg.DisconnectedOrHoley):
        tg.build([(-2, -1), (0, 0), (-2, 1), (2, -1), (2, 1)],
                 [(0, 1, 2), (1, 3, 4)])


_PENTAGON = [(0, 10), (-10, 3), (-6, -8), (6, -8), (10, 3)]


# Meshes with several faults: build names the one its documented check order meets first.
@pytest.mark.parametrize("verts, tris, error, message", [
    pytest.param([(0, 0), (1, 0), (2, 0), (0, 1), (1, 0)], [(0, 1, 2), (0, 1, 3)],
                 tg.DuplicateVertex,
                 "vertices 1 and 4 coincide at Point2(x=Fraction(1, 1), y=Fraction(0, 1))",
                 id="duplicate-vertex-and-zero-area"),
    pytest.param([(0, 0), (1, 0), (0, 1), (2, 0)], [(0, 1, 2), (0, 1, 3), (2, 1, 0)],
                 tg.DegenerateTriangle, "triangle 1 has zero area",
                 id="zero-area-before-duplicate-triangle"),
    # each triangle runs check 2 and the repeated-triangle check before the next one does
    pytest.param([(0, 0), (1, 0), (0, 1), (2, 0)], [(0, 1, 2), (2, 1, 0), (0, 1, 3)],
                 tg.NonManifoldEdge, "triangle 1 duplicates an earlier triangle",
                 id="duplicate-triangle-before-zero-area"),
    # (0, 1) and (2, 3) each get a second triangle on the side of their first; the fold
    # across (0, 1) is listed first and (0, 1) sorts first, but (2, 3) is in triangle 0
    pytest.param([(0, 0), (2, 0), (2, 2), (0, 2), (F(1, 2), F(3, 2)), (F(3, 2), F(1, 2))],
                 [(0, 2, 3), (0, 1, 2), (0, 1, 5), (2, 3, 4)],
                 tg.NonManifoldEdge, "triangles overlap across edge (2,3)",
                 id="two-folds-first-edge-named"),
    # a fan whose link winds twice around vertex 0, and an isolated vertex 6
    pytest.param([(0, 0)] + _PENTAGON + [(20, 20)], [(0, 1 + k, 1 + (k + 2) % 5) for k in range(5)],
                 tg.DisconnectedOrHoley, "vertex 6 belongs to no triangle",
                 id="isolated-vertex-and-folded-fan"),
])
def test_build_reports_the_earliest_check(verts, tris, error, message):
    with pytest.raises(error) as info:
        tg.build(verts, tris)
    assert type(info.value) is error and str(info.value) == message


def test_build_normalizes_orientation():
    # clockwise input triangles come out counterclockwise
    tri = tg.build([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    a, b, c = (tri.vertices[i] for i in tri.triangles[0])
    assert referee_orient(a, b, c) > 0


# ---------------------------------------------------------- mesh files

def test_parse_mesh_rejects_floats():
    text = json.dumps({"vertices": [[0.5, 0], [1, 0], [0, 1]],
                       "triangles": [[0, 1, 2]]})
    with pytest.raises(tg.MeshFormatError):
        tg.parse_mesh(text)
    # json hands these three literals to parse_constant, not parse_float
    for literal in ("NaN", "-Infinity", "Infinity"):
        for text in ('{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]], '
                     f'"note": {literal}}}',
                     f'{{"vertices": [[0, 0], [1, 0], [0, {literal}]], "triangles": [[0, 1, 2]]}}'):
            with pytest.raises(tg.MeshFormatError, match=f"float literal '{literal}'"):
                tg.parse_mesh(text)


def test_load_mesh_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "latin.mesh"
    path.write_bytes(b'{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]], '
                     b'"note": "\xff\xfe"}')
    with pytest.raises(tg.MeshFormatError, match="not UTF-8"):
        tg.load_mesh(path)


def test_parse_mesh_rejects_malformed():
    with pytest.raises(tg.MeshFormatError):
        tg.parse_mesh("{not json")
    with pytest.raises(tg.MeshFormatError):
        tg.parse_mesh(json.dumps({"vertices": [[0, 0]]}))
    with pytest.raises(tg.MeshFormatError):
        tg.parse_mesh(json.dumps({"vertices": [[0, 0, 3], [1, 0], [0, 1]],
                                  "triangles": [[0, 1, 2]]}))


_scalars = st.one_of(st.integers(-1, 3),
                     st.builds("{}/{}".format, st.integers(-2, 2), st.integers(0, 3)),
                     st.text(max_size=3), st.booleans(), st.none())
_items = st.one_of(_scalars, st.lists(_scalars, min_size=1, max_size=4))
# lists of int pairs and of int triples are drawn on their own often enough
# that some inputs get past the structural checks into the geometry
_pairs = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
_triples = st.lists(st.integers(0, 4), min_size=3, max_size=3)
_json_vertices = st.one_of(st.lists(_pairs, min_size=3, max_size=5, unique_by=tuple),
                           st.lists(st.one_of(_pairs, _items), max_size=5))
_json_triangles = st.one_of(st.lists(_triples, min_size=1, max_size=3),
                            st.lists(st.one_of(_triples, _items), max_size=3))


def _outcome(make):
    try:
        tri = make()
    except Exception as exc:
        return type(exc), str(exc)
    return tri.vertices, tri.triangles, tri.edges, tri.vertex_kind, tri.edges_at


@given(_json_vertices, _json_triangles)
def test_build_and_parse_mesh_agree(verts, tris):
    # parse_mesh only decodes JSON, so it must give what build gives on the same data
    direct = _outcome(lambda: tg.build(verts, tris))
    parsed = _outcome(lambda: tg.parse_mesh(json.dumps({"vertices": verts, "triangles": tris})))
    assert direct == parsed
    assert direct[0] not in (TypeError, IndexError, KeyError)


def test_round_trip_through_text(fig2, toh):
    for tri in (fig2, toh):
        again = tg.parse_mesh(tg.dump_mesh(tri))
        assert again.vertices == tri.vertices
        assert again.triangles == tri.triangles


def test_rational_coordinates_survive_round_trip():
    tri = tg.build([(0, 0), (1, 0), ("1/3", "7/2")], [(0, 1, 2)])
    again = tg.parse_mesh(tg.dump_mesh(tri))
    assert again.vertices == tri.vertices


def test_bundled_names():
    names = tg.bundled_mesh_names()
    assert "figure2.mesh" in names
    assert "tohaneanu.mesh" in names


# ------------------------------------------------------------- affine

def test_affine_identity(fig2):
    moved = tg.affine_transform(fig2, [(1, 0), (0, 1)], (0, 0))
    assert moved.vertices == fig2.vertices
    assert moved.triangles == fig2.triangles


@pytest.mark.parametrize("matrix,shift", [
    ([(2, 0), (0, 1)], (0, 1)),
    ([(-1, 0), (0, 1)], (0, 0)),
    ([(1, 2), (0, 1)], ("1/2", "-3/7")),
    ([(0, -1), (1, 0)], (5, 5)),
])
def test_affine_preserves_tie_parameters(fig2, matrix, shift):
    moved = tg.affine_transform(fig2, matrix, shift)
    before = tg.extract_one_tie_params(fig2)
    after = tg.extract_one_tie_params(moved)
    assert (after.p, after.q, after.s, after.t) == (before.p, before.q, before.s, before.t)
    assert after.trivial_slope_collision == before.trivial_slope_collision
    assert len(moved.edges) == len(fig2.edges)


def test_affine_rejects_singular(fig2):
    with pytest.raises(tg.SingularMap):
        tg.affine_transform(fig2, [(1, 2), (2, 4)], (0, 0))


def test_affine_preserves_quasi_cross_cut():
    tri = conftest.cross_cut_square()
    moved = tg.affine_transform(tri, [(3, 1), (0, "2/3")], (4, -1))
    assert tg.is_quasi_cross_cut(moved)
