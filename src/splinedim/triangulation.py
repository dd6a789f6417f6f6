"""Planar triangulations with exact rational vertices.

A mesh is valid when it triangulates a simply connected polygonal region:
no degenerate or overlapping triangles, no hanging vertices, edges meet
only at shared endpoints, and the boundary is a single simple cycle.
Construction goes through build(), which checks all of that and freezes
the result.

build() validates with a local certificate instead of comparing every
pair of edges: positive orientation of each triangle, the two triangles
of each interior edge on opposite sides of it, one fan winding once
around each interior vertex, and a boundary that is one simple cycle,
found by sweeping the boundary segments by x.  All predicates run on
integers, after scaling the vertices by the lcm of their denominators.
Together they certify a disk, so no other check is needed.  One pass over
the triangles orients them, counts the fan turns and fills a map from
each edge to its triangles; one walk of that map finds the boundary and
tests the interior edges, and one loop over its sorted keys lists the
edges.  build()'s docstring gives the passes, the check order, each
check's exception and the proof.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from importlib import resources
from typing import NamedTuple, Sequence

from .exact import check_ints, format_rational, parse_rational


class MeshError(Exception):
    """Base class for triangulation construction failures."""


class MeshFormatError(ValueError):
    """Mesh input is structurally malformed: bad JSON, floats, wrong shapes or indices."""


class DegenerateTriangle(MeshError):
    pass


class DuplicateVertex(MeshError):
    pass


class NonManifoldEdge(MeshError):
    pass


class HangingVertex(MeshError):
    pass


class DisconnectedOrHoley(MeshError):
    pass


class EdgeCrossing(MeshError):
    pass


class SingularMap(MeshError):
    pass


class NotInteriorVertex(MeshError):
    pass


class NoTotallyInteriorEdge(MeshError):
    pass


class MultipleTotallyInteriorEdges(MeshError):
    pass


class Point2(NamedTuple):
    x: Fraction
    y: Fraction


class Slope(NamedTuple):
    """Primitive integer direction with a canonical sign.

    Normalized so dx > 0, or dx == 0 and dy > 0; parallel edges always
    compare equal.
    """

    dx: int
    dy: int


def _primitive(dx: int, dy: int) -> Slope:
    """Slope of the nonzero integer direction (dx, dy)."""
    g = math.gcd(dx, dy)
    dx //= g
    dy //= g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return Slope(dx, dy)


def _orient(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    """Twice the signed area of the lattice points (a, b, c); sign gives the turn direction."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    slope: Slope
    triangles: tuple[int, ...]

    @property
    def kind(self) -> str:
        return "interior" if len(self.triangles) == 2 else "boundary"

    @property
    def key(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class OneTieParams:
    """Local data of the unique totally interior edge.

    Besides tau there are p edges at one endpoint with s distinct slopes and
    q edges at the other with t distinct slopes, normalized so s <= t.
    """

    tau: tuple[int, int]
    p: int
    q: int
    s: int
    t: int
    trivial_slope_collision: bool

    def __post_init__(self) -> None:
        check_ints("p, q, s and t", self.p, self.q, self.s, self.t)
        if not 2 <= self.s <= self.p:
            raise ValueError(f"need 2 <= s <= p, got s={self.s} p={self.p}")
        if not 2 <= self.t <= self.q:
            raise ValueError(f"need 2 <= t <= q, got t={self.t} q={self.q}")
        if self.s > self.t:
            raise ValueError("params must be normalized with s <= t")


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Validated triangulation; immutable after build()."""

    vertices: tuple[Point2, ...]
    triangles: tuple[tuple[int, int, int], ...]
    edges: tuple[Edge, ...]
    vertex_kind: tuple[str, ...]
    edges_at: tuple[tuple[int, ...], ...]
    ties: tuple[int, ...]  # ascending indices of the edges with both endpoints interior

    @property
    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.vertex_kind) if k == "interior")

    @property
    def boundary_vertices(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.vertex_kind) if k == "boundary")

    def interior_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.kind == "interior")

    def boundary_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.kind == "boundary")


def _check_simple_boundary(lat: list[tuple[int, int]], keys: list[tuple[int, int]]) -> None:
    """Sweep the boundary segments by x, comparing each with those still active.

    A segment endpoint strictly inside another segment raises HangingVertex,
    a proper crossing raises EdgeCrossing.  Segments that share an endpoint
    pass; the pinch check sees them.  Such a pair cannot cross properly,
    and its common endpoint is strictly inside neither segment, so one
    orientation call, collinear or not, decides whether the inside test
    runs; any other pair takes four.  Segments are ordered by their
    lexicographically smaller endpoint, and one stays active while its
    larger endpoint lies beyond the current segment's smaller one: every
    point of a later segment lies beyond that, so a segment that ends
    before it can meet none of them.  A heap of the active segments' larger
    endpoints drops each segment once it expires, and the rest keep their
    order.  Cost is O(B log B) plus one test per pair of segments whose
    spans in that order overlap.
    """
    segs = sorted((lat[u], lat[v], u, v) if lat[u] < lat[v] else (lat[v], lat[u], v, u)
                  for u, v in keys)
    # the active segments with their y-ranges, keyed and ordered by sweep
    # position, and a heap of their larger endpoints, from which each expires once
    active: dict[int, tuple[tuple[int, int], tuple[int, int], int, int, int, int]] = {}
    ends: list[tuple[tuple[int, int], int]] = []
    for pos, (a, b, i, j) in enumerate(segs):
        while ends and ends[0][0] <= a:
            del active[heappop(ends)[1]]
        lo, hi = (a[1], b[1]) if a[1] < b[1] else (b[1], a[1])
        for c, d, k, m, clo, chi in active.values():
            if chi < lo or hi < clo:
                continue
            if k == i or k == j or m == i or m == j:
                # a common endpoint rules out a proper crossing; an endpoint can
                # lie inside the other segment only if the active one's far
                # endpoint is on this line, and then all four orientations are 0
                if _orient(a, b, d if k == i or k == j else c):
                    continue
                o1 = o2 = o3 = o4 = 0
            else:
                o1, o2 = _orient(a, b, c), _orient(a, b, d)
                o3, o4 = _orient(c, d, a), _orient(c, d, b)
                if o1 * o2 < 0 and o3 * o4 < 0:
                    raise EdgeCrossing(f"edges ({min(i, j)},{max(i, j)}) and "
                                       f"({min(k, m)},{max(k, m)}) cross")
            # on a line, lexicographic order of (x, y) is the order along it
            for o, p, w, p0, p1, u, v in ((o1, c, k, a, b, i, j), (o2, d, m, a, b, i, j),
                                          (o3, a, i, c, d, k, m), (o4, b, j, c, d, k, m)):
                if o == 0 and p0 < p < p1:
                    raise HangingVertex(f"vertex {w} lies inside edge ({min(u, v)},{max(u, v)})")
        active[pos] = a, b, i, j, lo, hi
        heappush(ends, (b, pos))


def build(vertices: Sequence[Sequence], triangles: Sequence[Sequence[int]]) -> Triangulation:
    """Assemble and validate a triangulation from raw vertex and triangle data.

    Vertices are lists or tuples of two exact rationals (ints, Fractions,
    or "num/den" strings).  Triangles are lists or tuples of three int
    vertex indices; orientation is normalized to counterclockwise.  Every
    predicate runs on the integer lattice that scaling all vertices by the
    lcm of their denominators gives.

    Raises an exception describing the first problem found, with the
    checks in this order:

    0. Structure, before any geometry, MeshFormatError (a ValueError):
       a vertex is not a pair of exact rationals, or a triangle is not a
       triple of ints (bools excluded) naming existing vertices.  Fewer
       than 3 vertices, or no triangle, raise a plain ValueError.
    1. DuplicateVertex: two vertices coincide.
    2. DegenerateTriangle: a triangle repeats a vertex or has zero area.
    3. NonManifoldEdge: a triangle repeats another, an edge borders more
       than two triangles, or the two triangles of an interior edge lie
       on the same side of it.
    4. DisconnectedOrHoley: a vertex belongs to no triangle.
    5. Fan winding, EdgeCrossing: the link of a vertex on no boundary edge
       is not one cycle winding exactly once around it.
    6. Simple boundary, swept by x over the edges with one triangle:
       HangingVertex when a segment endpoint lies strictly inside another
       segment, EdgeCrossing when two segments cross properly.
    7. DisconnectedOrHoley: a boundary vertex with other than two
       boundary edges, or more than one boundary cycle.

    The checks take three passes.  One pass over the triangles, in input
    order, runs check 2 and the repeated-triangle part of check 3 on each
    triangle as it comes, so a fault in triangle k is named before any
    fault of a later one.  The same pass orients each triangle, records
    its three edges in a map from edge to incident triangles, and counts
    the fan turns of its corners.  One walk of the edge map, in order of
    first appearance, runs the rest of check 3 and collects the boundary
    edges.  Checks 4-7 follow; one loop over the sorted edges then lists
    the edges, the edges at each vertex and the ties.

    A counterclockwise triangle runs along each of its edges with its
    third vertex on the left.  So its two triangles lie on opposite sides
    of an edge exactly when they run along it in opposite directions, and
    the edge map records each incidence as its triangle's index k when
    the triangle runs from the smaller endpoint to the larger, ~k
    otherwise.  Incidences arrive in ascending triangle order.

    The fan check is a count.  Every edge at a vertex v on no boundary
    edge borders two triangles on opposite sides, so the wedges a -> b of
    the counterclockwise triangles (v, a, b) chain into closed cycles,
    each winding a positive number of times.  A wedge turns across the
    ray +x from v exactly when a_y <= v_y < b_y, so one such wedge in all
    means one cycle winding once.

    Checks 1-4, 6 and 7 certify an embedded disk.  Every triangle is
    positively oriented and the two triangles of each interior edge
    cancel along it, so the number of triangles covering a point off the
    edges is the winding number of the boundary cycle around it; the
    boundary is one simple polygon, so that number is 1 inside and 0
    outside.  The triangles thus tile a disk, and V - E + T = 1.  They
    are edge-connected too: a component has an edge on only one of its
    triangles, which is then a boundary edge, and an even number of them
    at each vertex, the two ends of each chain of its triangles there.
    So both boundary edges at a boundary vertex lie in one component,
    and the single boundary cycle leaves none for a second component.
    The fan check is thus implied once 6 and 7 pass; it runs before them
    to name the vertex where a fan folds over itself.  The cost is
    O(V + T) besides sorting and sweeping the boundary.

    Check 3 leaves a boundary edge: were there none, each edge at the
    lexicographically largest vertex would have triangles on both sides,
    so the triangles there, wedges of under a half turn, would chain
    counterclockwise into a closed cycle; but all its neighbours lie in a
    half-open half plane behind it, where such a chain never closes.
    """
    pts: list[Point2] = []
    for i, raw in enumerate(vertices):
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise MeshFormatError(f"vertex {i} must be a [x, y] pair")
        xy = []
        for c in raw:
            try:
                xy.append(parse_rational(c))
            except ValueError as exc:
                raise MeshFormatError(str(exc) if isinstance(c, str) else
                                      f"vertex {i} has a non-rational coordinate {c!r}") from None
        pts.append(Point2(*xy))
    n = len(pts)
    tris: list[tuple[int, int, int]] = []
    for k, raw in enumerate(triangles):
        if not isinstance(raw, (list, tuple)) or len(raw) != 3 or (
                not type(raw[0]) is type(raw[1]) is type(raw[2]) is int
                and any(not isinstance(i, int) or isinstance(i, bool) for i in raw)):
            raise MeshFormatError(f"triangle {k} must be an [i, j, k] index triple")
        a, b, c = raw
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise MeshFormatError(f"triangle {k} references a missing vertex")
        tris.append((a, b, c))
    if n < 3:
        raise ValueError("need at least 3 vertices")

    scale = math.lcm(*(c.denominator for p in pts for c in p))
    if scale == 1:
        lat = [(x.numerator, y.numerator) for x, y in pts]
    else:
        lat = [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
               for x, y in pts]

    if len(set(lat)) != n:
        seen_pts: dict[tuple[int, int], int] = {}
        for i, p in enumerate(lat):
            j = seen_pts.setdefault(p, i)
            if j != i:
                raise DuplicateVertex(f"vertices {j} and {i} coincide at {pts[i]}")

    seen_tris: set[frozenset[int]] = set()
    edge_map: dict[tuple[int, int], list[int]] = {}
    turns = [0] * n
    for k, (a, b, c) in enumerate(tris):
        if a == b or b == c or c == a:
            raise DegenerateTriangle(f"triangle {k} repeats a vertex")
        (ax, ay), (bx, by), (cx, cy) = lat[a], lat[b], lat[c]
        area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if area2 == 0:
            raise DegenerateTriangle(f"triangle {k} has zero area")
        if area2 < 0:
            b, c, by, cy = c, b, cy, by
            tris[k] = (a, b, c)
        key = frozenset((a, b, c))
        if key in seen_tris:
            raise NonManifoldEdge(f"triangle {k} duplicates an earlier triangle")
        seen_tris.add(key)
        for u, v in ((a, b), (b, c), (c, a)):
            if u < v:
                edge_map.setdefault((u, v), []).append(k)
            else:
                edge_map.setdefault((v, u), []).append(~k)
        turns[a] += by <= ay < cy
        turns[b] += cy <= by < ay
        turns[c] += ay <= cy < by
    if not tris:
        raise ValueError("need at least 1 triangle")

    boundary_keys = []
    for (u, v), held in edge_map.items():
        if len(held) == 1:
            boundary_keys.append((u, v))
        elif len(held) > 2:
            raise NonManifoldEdge(f"edge ({u},{v}) borders {len(held)} triangles")
        elif (held[0] < 0) == (held[1] < 0):
            raise NonManifoldEdge(f"triangles overlap across edge ({u},{v})")

    unused = set(range(n)).difference(*tris)
    if unused:
        raise DisconnectedOrHoley(f"vertex {min(unused)} belongs to no triangle")

    on_boundary = {v for key in boundary_keys for v in key}
    for v, count in enumerate(turns):
        if count != 1 and v not in on_boundary:
            raise EdgeCrossing(f"the triangles at vertex {v} wind {count} times around it")
    _check_simple_boundary(lat, boundary_keys)

    bnbrs: dict[int, list[int]] = {}
    for (u, v) in boundary_keys:
        bnbrs.setdefault(u, []).append(v)
        bnbrs.setdefault(v, []).append(u)
    for v, nbrs in bnbrs.items():
        if len(nbrs) != 2:
            raise DisconnectedOrHoley(f"boundary pinches at vertex {v}")
    # each boundary vertex has two boundary neighbours, so the walk along
    # the first boundary edge comes back to its start after one cycle
    start, cur = boundary_keys[0]
    prev, steps = start, 1
    while cur != start:
        a, b = bnbrs[cur]
        prev, cur = cur, b if a == prev else a
        steps += 1
    if steps != len(boundary_keys):
        raise DisconnectedOrHoley("boundary is not a single cycle")

    edges: list[Edge] = []
    edges_at: list[list[int]] = [[] for _ in pts]
    ties: list[int] = []
    for idx, ((u, v), held) in enumerate(sorted(edge_map.items())):
        # the triangles in ascending order, without their directions
        i = held[0]
        if len(held) == 1:
            held = (i if i >= 0 else ~i,)
        else:
            held = (i, ~held[1]) if i >= 0 else (~i, held[1])
        (xu, yu), (xv, yv) = lat[u], lat[v]
        edges.append(Edge(u, v, _primitive(xv - xu, yv - yu), held))
        edges_at[u].append(idx)
        edges_at[v].append(idx)
        if u not in on_boundary and v not in on_boundary:
            ties.append(idx)

    return Triangulation(
        vertices=tuple(pts),
        triangles=tuple(tris),
        edges=tuple(edges),
        vertex_kind=tuple("boundary" if i in on_boundary else "interior" for i in range(n)),
        edges_at=tuple(map(tuple, edges_at)),
        ties=tuple(ties),
    )


def slope_count(tri: Triangulation, vertex: int) -> int:
    """Number of distinct slopes among the edges through an interior vertex.

    vertex is an index into tri.vertices: a bool, another type or an index
    out of range, negative ones included, is refused with ValueError.
    """
    if type(vertex) is not int or not 0 <= vertex < len(tri.vertices):
        check_ints("vertex", vertex, low=0)
        raise ValueError(f"vertex must be at most {len(tri.vertices) - 1}, got {vertex!r}")
    if tri.vertex_kind[vertex] != "interior":
        raise NotInteriorVertex(f"vertex {vertex} is not interior")
    return len({tri.edges[e].slope for e in tri.edges_at[vertex]})


def is_quasi_cross_cut(tri: Triangulation) -> bool:
    """Whether every interior edge extends along collinear mesh edges to the boundary.

    Edges of equal slope sharing a vertex are collinear, so each interior edge
    sits in a maximal straight chain.  An interior edge that is not totally
    interior has a boundary endpoint, so only chains through totally interior
    edges (ties) can miss the boundary: walk from each tie not yet seen along
    its slope through interior vertices, stopping at boundary ones.  One seen
    set serves all walks: a walk expands every same-slope edge at each
    interior vertex it reaches, so no later walk can step onto its edges.
    """
    seen: set[int] = set()
    for i in tri.ties:
        if i in seen:
            continue
        seen.add(i)
        tie = tri.edges[i]
        stack, reached = [tie.u, tie.v], False
        while stack:
            v = stack.pop()
            if tri.vertex_kind[v] == "boundary":
                reached = True
                continue
            for j in tri.edges_at[v]:
                e = tri.edges[j]
                if e.slope == tie.slope and j not in seen:
                    seen.add(j)
                    stack.append(e.u + e.v - v)
        if not reached:
            return False
    return True


def extract_one_tie_params(tri: Triangulation) -> OneTieParams:
    """Read off the local parameters of the unique totally interior edge."""
    if not tri.ties:
        raise NoTotallyInteriorEdge("mesh has no totally interior edge")
    if len(tri.ties) > 1:
        keys = [tri.edges[i].key for i in tri.ties]
        raise MultipleTotallyInteriorEdges(f"mesh has {len(keys)} totally interior edges: {keys}")
    (tie_idx,) = tri.ties
    tie = tri.edges[tie_idx]

    def star(v: int) -> tuple[int, int, bool]:
        others = [tri.edges[i] for i in tri.edges_at[v] if i != tie_idx]
        slopes = {e.slope for e in others}
        return len(others), len(slopes), tie.slope in slopes

    p, s, coll_a = star(tie.u)
    q, t, coll_b = star(tie.v)
    if s > t:
        p, q, s, t = q, p, t, s
    return OneTieParams(
        tau=tie.key, p=p, q=q, s=s, t=t,
        trivial_slope_collision=coll_a or coll_b,
    )


def affine_transform(tri: Triangulation, matrix: Sequence[Sequence], translation: Sequence) -> Triangulation:
    """Apply an invertible affine map to every vertex and rebuild."""
    (a, b), (c, d) = ((parse_rational(x) for x in row) for row in matrix)
    e, f = (parse_rational(x) for x in translation)
    if a * d - b * c == 0:
        raise SingularMap("affine map has zero determinant")
    moved = [(a * p.x + b * p.y + e, c * p.x + d * p.y + f) for p in tri.vertices]
    return build(moved, tri.triangles)


def parse_mesh(text: str) -> Triangulation:
    """Parse the JSON mesh format: {"vertices": [[x, y], ...], "triangles": [[i, j, k], ...]}.

    Coordinates are integers or "num/den" strings.  Floats anywhere in the
    file are rejected here; build() checks the vertices and triangles.
    """

    def _no_floats(tok: str) -> Fraction:
        raise MeshFormatError(f"float literal {tok!r} in mesh file; use \"num/den\" strings")

    try:
        data = json.loads(text, parse_float=_no_floats, parse_constant=_no_floats)
    except MeshFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits or too deep
        raise MeshFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MeshFormatError("top level must be an object")
    for key in ("vertices", "triangles"):
        if key not in data or not isinstance(data[key], list):
            raise MeshFormatError(f"missing or non-list {key!r}")
    return build(data["vertices"], data["triangles"])


def load_mesh(path) -> Triangulation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"mesh file is not UTF-8: {exc}") from exc
    return parse_mesh(text)


def dump_mesh(tri: Triangulation) -> str:
    """Serialize back to the JSON mesh format, exactly."""
    verts = []
    for p in tri.vertices:
        verts.append([
            p.x.numerator if p.x.denominator == 1 else format_rational(p.x),
            p.y.numerator if p.y.denominator == 1 else format_rational(p.y),
        ])
    data = {"vertices": verts, "triangles": [list(t) for t in tri.triangles]}
    return json.dumps(data, indent=2)


def bundled_mesh_names() -> tuple[str, ...]:
    pkg = resources.files("splinedim.meshes")
    return tuple(sorted(p.name for p in pkg.iterdir() if p.name.endswith(".mesh")))


def load_bundled(name: str) -> Triangulation:
    """Load one of the meshes shipped with the package, e.g. "figure2"."""
    if not name.endswith(".mesh"):
        name += ".mesh"
    pkg = resources.files("splinedim.meshes")
    res = pkg.joinpath(name)
    if not res.is_file():
        raise FileNotFoundError(f"no bundled mesh named {name!r}; have {bundled_mesh_names()}")
    return parse_mesh(res.read_text(encoding="utf-8"))
