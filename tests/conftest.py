"""Shared fixtures: bundled meshes, a few tiny hand-built ones and rational affine images."""

import pytest
from hypothesis import assume, settings, strategies as st

from splinedim import triangulation as tg

# many more examples for a separate CI run: pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def fig2():
    return tg.load_bundled("figure2")


@pytest.fixture(scope="session")
def toh():
    return tg.load_bundled("tohaneanu")


def single_triangle():
    return tg.build([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


def square_pair():
    # one interior edge, both endpoints on the boundary
    return tg.build([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])


def cross_cut_square():
    # interior vertex with two slopes through it, both chains reach the boundary
    verts = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return tg.build(verts, tris)


def two_tie_strip():
    """Three collinear interior vertices, so two totally interior edges."""
    verts = [
        (-1, -1), (1, -1), (3, -1), (5, -1),
        (-1, 1), (1, 1), (3, 1), (5, 1),
        (0, 0), (2, 0), (4, 0),
    ]
    a, b, c = 8, 9, 10
    tris = [
        (0, 1, a), (1, b, a), (1, 2, b), (2, c, b), (2, 3, c),
        (3, 7, c), (c, 7, 6), (c, 6, b), (b, 6, 5), (b, 5, a),
        (a, 5, 4), (0, a, 4),
    ]
    return tg.build(verts, tris)


def slope_collision_star():
    """One totally interior edge v1-v2 whose slope reappears at v1 (edge v1-L).

    The chain L-v1-v2 reaches the boundary at L and every other interior edge
    has a boundary endpoint, so the mesh is quasi-cross-cut.
    """
    v1, v2, L, A, B, C, R, D, E, F = range(10)
    verts = [(0, 0), (2, 0), (-2, 0), (-1, 2), (1, 3), (3, 2), (4, 1), (3, -2), (1, -3), (-1, -2)]
    tris = [(v1, L, A), (v1, A, B), (v1, B, v2), (v1, v2, E), (v1, E, F), (v1, F, L),
            (v2, B, C), (v2, C, R), (v2, R, D), (v2, D, E)]
    return tg.build(verts, tris)


def glue_quad(tri, a, b):
    """Glue the quadrilateral a, b, (4, -2), (4, 2) onto the boundary edge (a, b),
    fanned around its own interior vertex (3, 0) whose four edges have four slopes.

    The edge must face the half-plane x >= 2 with the mesh in x <= 2.
    """
    n = len(tri.vertices)
    c, e, m = n, n + 1, n + 2
    verts = list(tri.vertices) + [(4, -2), (4, 2), (3, 0)]
    tris = list(tri.triangles) + [(a, b, m), (b, c, m), (c, e, m), (e, a, m)]
    return tg.build(verts, tris)


def reflect_across(tri, a, b):
    """Glue tri to its mirror image across the line through vertices a and b.

    Every vertex but a and b gets a mirror copy and every triangle a mirror
    triangle, so (a, b) must be a boundary edge with the mesh on one side of
    its line.
    """
    pa, pb = tri.vertices[a], tri.vertices[b]
    dx, dy = pb.x - pa.x, pb.y - pa.y
    verts = [(p.x, p.y) for p in tri.vertices]
    image = {a: a, b: b}
    for i, p in enumerate(tri.vertices):
        if i not in image:
            # the foot of the perpendicular from p is pa + k (dx, dy)
            k = ((p.x - pa.x) * dx + (p.y - pa.y) * dy) / (dx * dx + dy * dy)
            image[i] = len(verts)
            verts.append((2 * (pa.x + k * dx) - p.x, 2 * (pa.y + k * dy) - p.y))
    tris = list(tri.triangles) + [tuple(image[i] for i in t) for t in tri.triangles]
    return tg.build(verts, tris)


def mesh_data(tri):
    """The (vertices, triangles) pair that tg.build turns back into tri."""
    return [(p.x, p.y) for p in tri.vertices], tri.triangles


@st.composite
def affine_images(draw, meshes):
    """A rational invertible affine image of the (vertices, triangles) pair that meshes draws."""
    verts, tris = draw(meshes)
    entry = st.fractions(-3, 3, max_denominator=5)
    a, b, c, d = (draw(entry) for _ in range(4))
    assume(a * d != b * c)
    e, f = draw(entry), draw(entry)
    return [(a * x + b * y + e, c * x + d * y + f) for x, y in verts], tris


def grid_data(n, m):
    """Vertices and triangles of the type-1 n x m grid: unit squares cut by their
    rising diagonals, vertex (i, j) at index j * (n + 1) + i."""
    verts = [(i, j) for j in range(m + 1) for i in range(n + 1)]
    tris = []
    for j in range(m):
        for i in range(n):
            a = j * (n + 1) + i
            c = a + n + 1
            tris += [(a, a + 1, c + 1), (a, c + 1, c)]
    return verts, tris


def _grid_plus(extra_verts, extra_tris, n=3, m=2):
    verts, tris = grid_data(n, m)
    return verts + extra_verts, tris + extra_tris


# One mesh for each MeshError subclass that build() raises, with that subclass.
INVALID_MESHES = {
    "duplicate-vertex": ([(0, 0), (1, 0), (0, 1), ("0/1", 0)], [(0, 1, 2)], tg.DuplicateVertex),
    "zero-area": ([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)], tg.DegenerateTriangle),
    # a second triangle on the inner side of the bottom boundary edge (0, 1)
    "fold": _grid_plus([("1/2", "1/3")], [(0, 1, 12)]) + (tg.NonManifoldEdge,),
    "isolated-vertex": ([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)], tg.DisconnectedOrHoley),
    # a triangle below the bottom row whose long edge passes through (1, 0)
    "hanging": _grid_plus([(1, -1)], [(0, 2, 12)]) + (tg.HangingVertex,),
    # a triangle poking from inside cell (0, 0) across the left boundary
    "crossing": _grid_plus([("1/3", "1/4"), (-1, "1/2"), (-1, "1/3")], [(12, 13, 14)])
    + (tg.EdgeCrossing,),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay the acceptance verdict lines where fd capture cannot eat them
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.line(line)
