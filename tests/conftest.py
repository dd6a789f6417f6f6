"""Shared fixtures: bundled meshes, a few tiny hand-built ones, one-tie stars and
rational affine images."""

import math
from fractions import Fraction as F

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


def morgan_scott(inner_b=(15, 12)):
    """The Morgan-Scott split of the triangle A, B, C = (0, 0), (36, 0), (18, 36):
    an inner triangle a, b, c with each outer vertex joined to two inner ones,
    so the three inner edges are ties on one cycle.

    With b at (15, 12) the inner vertices are in special position: C^1_2 has
    dimension 7 and C^2_4 has 16, against the generic 6 and 15 that b at
    (16, 12) gives.
    """
    A, B, C, a, b, c = range(6)
    verts = [(0, 0), (36, 0), (18, 36), (12, 12), inner_b, (21, 15)]
    tris = [(a, b, c), (A, B, b), (A, b, a), (B, C, c), (B, c, b), (C, A, a), (C, a, c)]
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


def one_tie_star(ts=()):
    """Two interior vertices (-1/2, 0) and (1/2, 0) joined by the one totally
    interior edge, fanned to rational points on the unit circle: the point of
    parameter t, ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)), and its antipode for
    each t in ts.

    The circle points always include (+-1, 0) and (0, +-1), so both interior
    vertices lie strictly inside their convex hull; (0, 1) and (0, -1) are
    the two apexes on the tie.
    """
    circle = {(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))}
    for t in ts:
        x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        circle |= {(x, y), (-x, -y)}
    # counterclockwise from (0, 1): left half, then right half
    left = sorted((p for p in circle if p[0] < 0 or p == (0, 1)), key=lambda p: -p[1])
    right = sorted((p for p in circle if p[0] > 0 or p == (0, -1)), key=lambda p: p[1])
    ring = left + right
    verts = [(F(-1, 2), F(0)), (F(1, 2), F(0))] + ring
    top, bottom = 2, 2 + ring.index((0, -1))
    tris = [(0, 1, top), (1, 0, bottom)]
    for k in range(len(ring)):
        a, b = 2 + k, 2 + (k + 1) % len(ring)
        tris.append((0 if k < bottom - 2 else 1, a, b))
    return verts, tris


@st.composite
def one_tie_stars(draw):
    """one_tie_star at up to six parameters in [-9/10, 9/10]."""
    return one_tie_star(draw(st.sets(st.fractions(F(-9, 10), F(9, 10), max_denominator=12),
                                     max_size=6)))


# Rays from the tie's left endpoint (-1, 0) that point away from the tie, one
# entry per choice of rays on a slope: none has the tie's slope 0 or an apex
# edge's slope 1 or -1, and the vertical slope takes either ray or both.
_SPOKE_LINES = [((0, 1),), ((0, -1),), ((0, 1), (0, -1)), ((-1, 3),), ((-1, 2),), ((-2, 1),),
                ((-3, 1),), ((-3, -1),), ((-2, -1),), ((-1, -2),), ((-1, -3),)]
# rays on the apex edges' lines, which add a spoke and no slope
_APEX_RAYS = [(-1, -1), (-1, 1)]


def _angle(ray):
    return math.atan2(ray[1], ray[0]) % (2 * math.pi)


def tie_star(left, right):
    """Two interior vertices (-1, 0) and (1, 0) joined by the one totally
    interior edge, both joined to the apexes (0, 1) and (0, -1), and fanned
    to v + k (dx, dy) for each (dx, dy, k) in left, at (-1, 0), and to
    v + k (-dx, dy) for each in right, at (1, 0).

    Every ray must point away from the tie (dx <= 0), and with the apex
    edges the rays of each end must leave no gap of 180 degrees or more.
    """
    verts = [(-1, 0), (1, 0), (0, 1), (0, -1)]
    tris = [(0, 1, 2), (0, 1, 3)]
    for v, mirror, fan in ((0, 1, left), (1, -1, right)):
        ring = [2]
        for dx, dy, k in sorted(fan, key=_angle):
            verts.append((verts[v][0] + mirror * k * dx, k * dy))
            ring.append(len(verts) - 1)
        ring.append(3)
        tris += [(v, a, b) for a, b in zip(ring, ring[1:])]
    return verts, tris


@st.composite
def tie_stars_to_order(draw):
    """A tie_star with s slopes at one end and t at the other besides the
    tie's, for s and t drawn from 2..4, and the sorted pair (s, t).

    No spoke lies on the tie's line, so no slope collides with the tie's and
    the tie's chain stops at both of its ends: the star is not quasi-cross-cut.
    """
    def fan(slopes):
        lines = draw(st.lists(st.sampled_from(_SPOKE_LINES), min_size=slopes - 2, max_size=slopes - 2,
                              unique_by=lambda line: F(line[0][1], line[0][0]) if line[0][0] else None))
        rays = [ray for line in lines for ray in line]
        rays += draw(st.lists(st.sampled_from(_APEX_RAYS), unique=True))
        # from the edge to (0, 1) round to the edge to (0, -1), counterclockwise;
        # both apex rays leave no gap of 180 degrees
        ring = [(1, 1)] + sorted(rays, key=_angle) + [(1, -1)]
        if any(a[0] * b[1] - a[1] * b[0] <= 0 for a, b in zip(ring, ring[1:])):
            rays += [ray for ray in _APEX_RAYS if ray not in rays]
        return [(dx, dy, draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)]))) for dx, dy in rays]

    s, t = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    return (min(s, t), max(s, t)), tie_star(fan(s), fan(t))


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
    except Exception:  # a package that fails to import is already a collection error
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.line(line)
