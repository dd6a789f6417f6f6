"""Earlier implementations of mesh checks, kept as referees.

referee_validate is the validator build() used before the local
certificate.  It works on Fractions and compares every edge with every
vertex (hanging vertices) and with every other edge (proper crossings), so
it costs O(E * V + E^2).  The differential tests check that it and build()
accept and reject the same meshes.

referee_quasi_cross_cut is the union-find over every interior edge that
is_quasi_cross_cut ran before it walked only the chains through totally
interior edges.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from splinedim import triangulation as tg
from splinedim.exact import parse_rational


def _orient(a: tg.Point2, b: tg.Point2, c: tg.Point2) -> Fraction:
    """Twice the signed area of (a, b, c); sign gives the turn direction."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _strictly_between(a: tg.Point2, b: tg.Point2, w: tg.Point2) -> bool:
    """For w collinear with segment ab: strictly inside it?"""
    dot = (w.x - a.x) * (b.x - a.x) + (w.y - a.y) * (b.y - a.y)
    length2 = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
    return 0 < dot < length2


def referee_validate(vertices: Sequence[Sequence], triangles: Sequence[Sequence[int]]) -> None:
    """Raise the MeshError (or ValueError) the old build() raised; return None if valid."""
    pts = [tg.Point2(parse_rational(x), parse_rational(y)) for x, y in vertices]
    if len(pts) < 3:
        raise ValueError("need at least 3 vertices")
    if len(set(pts)) != len(pts):
        raise tg.DuplicateVertex("two vertices coincide")

    tris: list[tuple[int, int, int]] = []
    seen_tris: set[frozenset[int]] = set()
    for raw in triangles:
        tri = tuple(int(i) for i in raw)
        if len(tri) != 3 or any(i < 0 or i >= len(pts) for i in tri):
            raise ValueError("bad triangle")
        if len(set(tri)) != 3:
            raise tg.DegenerateTriangle("repeated vertex")
        area2 = _orient(pts[tri[0]], pts[tri[1]], pts[tri[2]])
        if area2 == 0:
            raise tg.DegenerateTriangle("zero area")
        if area2 < 0:
            tri = (tri[0], tri[2], tri[1])
        if frozenset(tri) in seen_tris:
            raise tg.NonManifoldEdge("duplicate triangle")
        seen_tris.add(frozenset(tri))
        tris.append(tri)
    if not tris:
        raise ValueError("need at least 1 triangle")

    edge_map: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t_idx, tri in enumerate(tris):
        for a, b, opp in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            u, v = sorted((tri[a], tri[b]))
            edge_map.setdefault((u, v), []).append((t_idx, tri[opp]))
    for (u, v), incid in edge_map.items():
        if len(incid) > 2:
            raise tg.NonManifoldEdge("edge borders more than two triangles")
        if len(incid) == 2:
            s1 = _orient(pts[u], pts[v], pts[incid[0][1]])
            s2 = _orient(pts[u], pts[v], pts[incid[1][1]])
            if (s1 > 0) == (s2 > 0):
                raise tg.NonManifoldEdge("triangles overlap across an edge")
    if {i for tri in tris for i in tri} != set(range(len(pts))):
        raise tg.DisconnectedOrHoley("a vertex belongs to no triangle")

    for (u, v) in edge_map:
        a, b = pts[u], pts[v]
        for w in range(len(pts)):
            if w not in (u, v) and _orient(a, b, pts[w]) == 0 and _strictly_between(a, b, pts[w]):
                raise tg.HangingVertex(f"vertex {w} lies inside edge ({u},{v})")

    keys = list(edge_map)
    for i in range(len(keys)):
        a, b = (pts[keys[i][0]], pts[keys[i][1]])
        for j in range(i + 1, len(keys)):
            c, d = (pts[keys[j][0]], pts[keys[j][1]])
            o1, o2 = _orient(a, b, c), _orient(a, b, d)
            o3, o4 = _orient(c, d, a), _orient(c, d, b)
            if ((o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0
                    and (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0):
                raise tg.EdgeCrossing(f"edges {keys[i]} and {keys[j]} cross")

    boundary_keys = [k for k, incid in edge_map.items() if len(incid) == 1]
    if not boundary_keys:
        raise tg.DisconnectedOrHoley("no boundary edges")
    bnbrs: dict[int, list[int]] = {}
    for (u, v) in boundary_keys:
        bnbrs.setdefault(u, []).append(v)
        bnbrs.setdefault(v, []).append(u)
    if any(len(nbrs) != 2 for nbrs in bnbrs.values()):
        raise tg.DisconnectedOrHoley("boundary pinches")
    start = boundary_keys[0][0]
    visited = set()
    prev, cur = None, start
    while True:
        step = bnbrs[cur][0] if prev is None else next(w for w in bnbrs[cur] if w != prev)
        visited.add(tuple(sorted((cur, step))))
        prev, cur = cur, step
        if cur == start:
            break
    if len(visited) != len(boundary_keys):
        raise tg.DisconnectedOrHoley("boundary is not a single cycle")

    adj: dict[int, list[int]] = {}
    for incid in edge_map.values():
        if len(incid) == 2:
            (t1, _), (t2, _) = incid
            adj.setdefault(t1, []).append(t2)
            adj.setdefault(t2, []).append(t1)
    reached, stack = {0}, [0]
    while stack:
        for nb in adj.get(stack.pop(), ()):
            if nb not in reached:
                reached.add(nb)
                stack.append(nb)
    if len(reached) != len(tris):
        raise tg.DisconnectedOrHoley("triangles are not edge-connected")
    if len(pts) - len(edge_map) + len(tris) != 1:
        raise tg.DisconnectedOrHoley("Euler characteristic is not that of a disk")


def referee_quasi_cross_cut(tri: tg.Triangulation) -> bool:
    """Union interior edges of equal slope at a shared vertex; every class must
    hold an edge with a boundary endpoint."""
    idxs = [i for i, e in enumerate(tri.edges) if e.kind == "interior"]
    parent = {i: i for i in idxs}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_slope_vertex: dict[tuple[tg.Slope, int], int] = {}
    for i in idxs:
        e = tri.edges[i]
        for v in (e.u, e.v):
            key = (e.slope, v)
            if key in by_slope_vertex:
                ra, rb = find(by_slope_vertex[key]), find(i)
                if ra != rb:
                    parent[ra] = rb
            else:
                by_slope_vertex[key] = i
    touches: dict[int, bool] = {}
    for i in idxs:
        e = tri.edges[i]
        root = find(i)
        hit = tri.vertex_kind[e.u] == "boundary" or tri.vertex_kind[e.v] == "boundary"
        touches[root] = touches.get(root, False) or hit
    return all(touches.values())
