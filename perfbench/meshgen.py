"""Seeded mesh generators and the census each generated mesh is known to have.

Nothing here imports splinedim: the census (vertex, edge and triangle
counts, slope counts at interior vertices) is computed from the raw
coordinates and index triples with code of its own, so it is an
independent reference for `splinedim validate` and for the Schumaker
lower bound.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

Coord = tuple[Fraction, Fraction]

# Small rationals for affine maps keep the images' coordinates short.
_AFFINE_ENTRIES = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]
_SHIFTS = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (2, 3)]


@dataclass
class Mesh:
    """A generated mesh with what the generator knows about it."""

    name: str
    vertices: list[Coord]
    triangles: list[tuple[int, int, int]]
    quasi_cross_cut: bool
    # (p, q, s, t) of the unique totally interior edge, when built to order
    tie: tuple[int, int, int, int] | None = None
    census: dict = field(init=False)

    def __post_init__(self) -> None:
        self.census = census(self.vertices, self.triangles)


def mesh_json(vertices: list[Coord], triangles: list, float_at: int | None = None) -> str:
    """The splinedim mesh format; float_at writes that vertex's x as a float literal."""
    verts = [[_coord_text(x), _coord_text(y)] for x, y in vertices]
    if float_at is not None:
        verts[float_at][0] = float(vertices[float_at][0])
    return json.dumps({"vertices": verts, "triangles": [list(t) for t in triangles]})


def _coord_text(q: Fraction) -> int | str:
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _primitive(dx: Fraction, dy: Fraction) -> tuple[int, int]:
    """Canonical integer direction of a line: parallel segments compare equal."""
    scale = dx.denominator * dy.denominator
    a, b = int(dx * scale), int(dy * scale)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


def census(vertices: list[Coord], triangles: list[tuple[int, int, int]]) -> dict:
    """Counts that `splinedim validate` prints, plus interior slope counts."""
    uses: dict[tuple[int, int], int] = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (a, b) if a < b else (b, a)
            uses[key] = uses.get(key, 0) + 1
    boundary_edges = [k for k, n in uses.items() if n == 1]
    on_boundary = {v for k in boundary_edges for v in k}
    interior_v = [v for v in range(len(vertices)) if v not in on_boundary]
    interior_edges = [k for k, n in uses.items() if n == 2]
    slopes: dict[int, set] = {v: set() for v in interior_v}
    for u, v in interior_edges:
        (x1, y1), (x2, y2) = vertices[u], vertices[v]
        direction = _primitive(x2 - x1, y2 - y1)
        for w in (u, v):
            if w in slopes:
                slopes[w].add(direction)
    ties = sum(1 for u, v in interior_edges if u not in on_boundary and v not in on_boundary)
    return {
        "vertices": len(vertices),
        "boundary_vertices": len(on_boundary),
        "interior_vertices": len(interior_v),
        "triangles": len(triangles),
        "edges": len(uses),
        "boundary_edges": len(boundary_edges),
        "interior_edges": len(interior_edges),
        "ties": ties,
        "slope_counts": sorted(len(s) for s in slopes.values()),
    }


def validate_lines(c: dict, quasi_cross_cut: bool) -> str:
    """The exact stdout of `splinedim validate` for a mesh with census c."""
    noun = "totally interior edge" if c["ties"] == 1 else "totally interior edges"
    return (
        f"vertices: {c['vertices']} (boundary {c['boundary_vertices']}, "
        f"interior {c['interior_vertices']})\n"
        f"triangles: {c['triangles']}\n"
        f"edges: {c['edges']} (boundary {c['boundary_edges']}, interior {c['interior_edges']})\n"
        f"quasi-cross-cut: {'yes' if quasi_cross_cut else 'no'}\n"
        f"{c['ties']} {noun}; interior vertices: {c['interior_vertices']}\n"
    )


def _b2(n: int) -> int:
    return n * (n - 1) // 2 if n >= 2 else 0


def _star_term(n: int, d: int, r: int) -> int:
    alpha, nu = divmod(n * (r + 1), n - 1)
    mu = n - 1 - nu
    return mu * _b2(d + 2 - alpha) + nu * _b2(d + 1 - alpha)


def lower_bound(n_interior_edges: int, slope_counts: list[int], d: int, r: int) -> int:
    """Schumaker's lower bound from the census alone."""
    coeff = n_interior_edges - sum(slope_counts)
    return _b2(d + 2) + coeff * _b2(d + 1 - r) + sum(_star_term(n, d, r) for n in slope_counts)


def mesh_lower_bound(m: Mesh, d: int, r: int) -> int:
    c = m.census
    return lower_bound(c["interior_edges"], c["slope_counts"], d, r)


def companion_bound(m: Mesh, d: int, r: int) -> int:
    """Lower bound of the mesh with its totally interior edge removed."""
    p, q, s, t = m.tie
    return lower_bound(p + q, [s, t], d, r)


# ----------------------------------------------------------------- meshes


def grid(n: int, m: int) -> Mesh:
    """Type-1 grid: n x m unit squares, each cut by its main diagonal."""
    verts = [(Fraction(i), Fraction(j)) for j in range(m + 1) for i in range(n + 1)]
    tris = []
    for j in range(m):
        for i in range(n):
            a, b = j * (n + 1) + i, j * (n + 1) + i + 1
            c, d = b + n + 1, a + n + 1
            tris += [(a, b, c), (a, c, d)]
    return Mesh(f"grid{n}x{m}", verts, tris, quasi_cross_cut=True)


def random_affine(rng: random.Random) -> tuple[tuple[Fraction, ...], tuple[Fraction, Fraction]]:
    while True:
        a, b, c, d = (rng.choice(_AFFINE_ENTRIES) for _ in range(4))
        if a * d - b * c != 0:
            return (a, b, c, d), (rng.choice(_SHIFTS), rng.choice(_SHIFTS))


def random_shear(rng: random.Random) -> tuple[tuple[Fraction, ...], tuple[Fraction, Fraction]]:
    k = rng.choice(_AFFINE_ENTRIES)
    return (Fraction(1), k, Fraction(0), Fraction(1)), (rng.choice(_SHIFTS), Fraction(0))


def affine_image(mesh: Mesh, rng: random.Random, shear: bool = False) -> Mesh:
    """Image under a seeded invertible affine map with small rational entries."""
    (a, b, c, d), (e, f) = random_shear(rng) if shear else random_affine(rng)
    verts = [(a * x + b * y + e, c * x + d * y + f) for x, y in mesh.vertices]
    return Mesh(f"{'shear' if shear else 'affine'}-{mesh.name}", verts, list(mesh.triangles),
                mesh.quasi_cross_cut, mesh.tie)


# Directions out of the left endpoint (-1, 0) of the tie, all pointing into
# the closed left half-plane so the left fan never meets the right one.  The
# tie itself runs along (1, 0); (-1, 0) is left out so no slope collides
# with it.  Each unit lines up with another edge at the same vertex, so it
# adds edges without adding a slope: "top" is opposite the edge to the top
# vertex (0, 1), "bottom" opposite the one to (0, -1), and the two vertical
# directions are opposite each other.  Free directions are pairwise
# non-parallel.
_UNITS = {"top": [(-1, -1)], "bottom": [(-1, 1)], "vertical": [(0, 1), (0, -1)]}
_FREE = [(-1, 3), (-1, 2), (-2, 3), (-3, 2), (-2, 1), (-3, 1), (-4, 1),
         (-4, -1), (-3, -1), (-2, -1), (-3, -2), (-2, -3), (-1, -2), (-1, -3)]


def _fan_directions(p: int, s: int, rng: random.Random) -> list[tuple[int, int]]:
    """p - 2 directions whose edges, with those to the top and bottom, carry s slopes."""
    # each unit adds one edge-slope coincidence; the vertical one costs two edges
    choices = [units for units in _unit_choices(p - s)
               if sum(len(_UNITS[u]) for u in units) <= p - 2]
    if not choices or s < 2:
        raise ValueError(f"cannot build p={p}, s={s}")
    while True:
        dirs = [v for u in rng.choice(choices) for v in _UNITS[u]]
        dirs.extend(rng.sample(_FREE, p - 2 - len(dirs)))
        # angle order around the vertex, from just past the top edge (45
        # degrees) to the bottom one (315 degrees); no gap may reach 180
        angles = [45] + sorted(math.degrees(math.atan2(y, x)) % 360 for x, y in dirs) + [315]
        if all(b - a < 180 for a, b in zip(angles, angles[1:])):
            return sorted(dirs, key=lambda v: math.atan2(v[1], v[0]) % (2 * math.pi))


def _unit_choices(pairs: int) -> list[tuple[str, ...]]:
    return list(itertools.combinations(sorted(_UNITS), pairs)) if 0 <= pairs <= 3 else []


def star_feasible(p: int, s: int) -> bool:
    # a lone direction must split the 270 degree gap, which no paired one does;
    # the vertical pair needs a third direction between its two halves
    return s >= 2 and p >= 3 and (p, s) != (3, 2) and p - 2 <= len(_FREE) + 4 and any(
        sum(len(_UNITS[u]) for u in units) <= p - 2 for units in _unit_choices(p - s))


def one_tie_star(p: int, q: int, s: int, t: int, rng: random.Random) -> Mesh:
    """Two fans around the tie (-1, 0)-(1, 0) with p, q edges and s, t slopes besides it."""
    if not (star_feasible(p, s) and star_feasible(q, t) and s <= t):
        raise ValueError(f"cannot build a one-tie star with p={p} q={q} s={s} t={t}")
    v1, v2 = (Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))
    top, bottom = (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))
    verts = [v1, v2, top, bottom]
    tris = [(0, 1, 2), (0, 3, 1)]

    def fan(centre: int, dirs: list[tuple[int, int]], mirror: int) -> None:
        cx, cy = verts[centre]
        ring = [2]
        for dx, dy in dirs:
            scale = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
            verts.append((cx + mirror * dx * scale, cy + dy * scale))
            ring.append(len(verts) - 1)
        ring.append(3)
        for a, b in zip(ring, ring[1:]):
            tris.append((centre, a, b))

    fan(0, _fan_directions(p, s, rng), 1)
    # mirrored through the y axis, the same table serves the right endpoint
    fan(1, _fan_directions(q, t, rng), -1)
    return Mesh(f"star-p{p}q{q}s{s}t{t}", verts, tris, quasi_cross_cut=False, tie=(p, q, s, t))


# Edge counts (p, q) of generated stars: the ladder fixes each star's size,
# and so its cost, while the seed picks the slope counts.
STAR_EDGES = [(4, 5), (5, 5), (5, 6), (6, 6), (4, 6), (6, 7), (5, 7), (7, 7)]


def random_tie_params(p: int, q: int, rng: random.Random) -> tuple[int, int, int, int]:
    """(p, q, s, t) with the given edge counts and seeded slope counts, s <= t."""
    s = rng.choice([s for s in range(2, p + 1) if star_feasible(p, s)])
    t = rng.choice([t for t in range(2, q + 1) if star_feasible(q, t)])
    return (p, q, s, t) if s <= t else (q, p, t, s)


# ---------------------------------------------------------- invalid meshes

# expected exit codes of `splinedim validate`: 1 domain error, 2 parse error
INVALID_KINDS = {"crossing": 1, "hanging": 1, "fold": 1, "pinch": 1, "float": 2}


def invalid_mesh(kind: str, n: int, m: int, rng: random.Random) -> tuple[str, int]:
    """JSON text of a broken n x m grid and the exit code it must produce."""
    base = grid(n, m)
    verts, tris = list(base.vertices), list(base.triangles)
    i = rng.randrange(n)
    j = rng.randrange(m)
    F = Fraction
    if kind == "crossing":
        # a triangle poking from inside cell (0, j) across the left boundary
        k = len(verts)
        verts += [(F(1, 3), j + F(1, 4)), (F(-1), j + F(1, 2)), (F(-1), j + F(1, 3))]
        tris.append((k, k + 1, k + 2))
    elif kind == "hanging":
        # a triangle below the bottom row whose long edge passes through (i+1, 0)
        if i + 2 > n:
            i = n - 2
        k = len(verts)
        verts.append((F(i + 1), F(-1)))
        tris.append((i, i + 2, k))
    elif kind == "fold":
        # a second triangle on the inner side of a bottom boundary edge
        k = len(verts)
        verts.append((i + F(1, 2), F(1, 3)))
        tris.append((i, i + 1, k))
    elif kind == "pinch":
        # a copy of the grid touching it at the top right corner only
        off = len(verts)
        verts += [(x + n, y + m) for x, y in base.vertices[1:]]
        corner = (n + 1) * (m + 1) - 1

        def remap(v: int) -> int:
            return corner if v == 0 else off + v - 1

        tris += [tuple(remap(v) for v in tri) for tri in base.triangles]
    elif kind == "float":
        return mesh_json(verts, tris, float_at=rng.randrange(len(verts))), INVALID_KINDS[kind]
    else:
        raise ValueError(kind)
    return mesh_json(verts, tris), INVALID_KINDS[kind]
