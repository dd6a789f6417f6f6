"""The four benchmark workloads.

Each workload turns a seed into a fixed round of items.  An item is a call
into splinedim whose answer the timed loop records, plus a check that
compares the answer with a reference computed afterwards, outside the
timed region, by an independent route.  The seed decides the concrete
inputs; the shape of the round (how many items of each cost class) is
fixed, so rounds drawn from different seeds cost about the same.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from splinedim import cli
from splinedim import dimension as dm
from splinedim import oracle as orc
from splinedim import power_ideal as pi
from splinedim import triangulation as tg

import meshgen as mg

# (p, q, s, t) of the bundled meshes, as documented in the README
BUNDLED_TIES = {"figure2": (6, 5, 3, 4), "tohaneanu": (4, 4, 2, 2)}


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _jitter(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randint(lo, max(lo, hi))


def _mesh_of(name: str, tri: tg.Triangulation) -> mg.Mesh:
    """Generator-side record of a bundled mesh: raw data plus its documented tie."""
    return mg.Mesh(name, list(tri.vertices), list(tri.triangles), quasi_cross_cut=False,
                   tie=BUNDLED_TIES[name])


def _build(m: mg.Mesh) -> tg.Triangulation:
    return tg.build(m.vertices, m.triangles)


# ---------------------------------------------------------------- mesh-ingest


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def _parse_dim_line(text: str) -> tuple[int, int, int] | None:
    try:
        fields = dict(f.split("=", 1) for f in text.split())
        return int(fields["L"]), int(fields["H1"]), int(fields["dim"])
    except (KeyError, ValueError):
        return None


def _dim_check(ref_lower: int, ref_total: Callable[[], int]) -> Callable[[object], bool]:
    def check(answer) -> bool:
        code, text = answer
        parsed = _parse_dim_line(text)
        return (code == 0 and parsed is not None and parsed[0] == ref_lower
                and parsed[0] + parsed[1] == parsed[2] == ref_total())
    return check


# A ladder of sizes from 8 to 30 triangles, so build costs spread evenly
# and the latency quantiles do not sit on a gap between two size classes.
# Validation is quadratic in the edge count at the seed: a 50-triangle grid
# takes a third of a second and a 200-triangle one several seconds, which
# would leave too few rounds in a run.
GRID_SIZES = {"full": [(2, 2), (3, 2), (4, 2), (3, 3), (5, 2), (4, 3), (6, 2), (7, 2), (5, 3)],
              "tiny": [(2, 2), (3, 2)]}


def mesh_ingest(seed: int, size: str, workdir: Path) -> list[Item]:
    """cli.main validate and dim calls on generated mesh files."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    items: list[Item] = []

    def write(name: str, text: str) -> str:
        path = workdir / f"{name}.mesh"
        path.write_text(text, encoding="utf-8")
        return str(path)

    # every grid size as plain, sheared and affine image, each validated and
    # queried; stars three times over the edge-count ladder, half as affine images
    meshes: list[mg.Mesh] = []
    for n, m in GRID_SIZES[size]:
        base = mg.grid(n, m)
        meshes += [base, mg.affine_image(base, rng, shear=True), mg.affine_image(base, rng)]
    for k, (p, q) in enumerate(3 * mg.STAR_EDGES if size == "full" else mg.STAR_EDGES[:2]):
        star = mg.one_tie_star(*mg.random_tie_params(p, q, rng), rng)
        meshes.append(mg.affine_image(star, rng) if k % 2 else star)

    for k, mesh in enumerate(meshes):
        path = write(f"m{k}-{mesh.name}", mg.mesh_json(mesh.vertices, mesh.triangles))
        expect = (0, mg.validate_lines(mesh.census, mesh.quasi_cross_cut))
        items.append(Item(f"validate {mesh.name}", _cli_call(["validate", path]),
                          lambda ans, e=expect: ans == e))
        items.append(_dim_item(mesh, path, rng))

    per_kind = 3 if size == "full" else 1
    for kind in mg.INVALID_KINDS:
        for j in range(per_kind):
            text, code = mg.invalid_mesh(kind, 3, 2, rng)
            path = write(f"bad-{kind}-{j}", text)
            items.append(Item(f"validate bad-{kind}", _cli_call(["validate", path]),
                              lambda ans, c=code: ans == (c, "")))
    rng.shuffle(items)
    return items


def _dim_item(mesh: mg.Mesh, path: str, rng: random.Random) -> Item:
    r = rng.randint(1, 5)
    d = rng.randint(0, 2 * r + 3)
    lower = mg.mesh_lower_bound(mesh, d, r)
    if mesh.quasi_cross_cut:
        total = functools.cache(lambda lo=lower: lo)
    else:
        # the spline oracle is the independent route for one-tie stars
        total = functools.cache(lambda m=mesh, d=d, r=r: orc.dim_spline_oracle(_build(m), d, r))
    argv = ["dim", path, "--r", str(r), "--d", str(d)]
    return Item(f"dim {mesh.name} r={r} d={d}", _cli_call(argv), _dim_check(lower, total))


# ----------------------------------------------------------------- query-mix


def _query_items(mesh: mg.Mesh, tri: tg.Triangulation, r: int, ds: list[int],
                 methods: list[str], thresholds: bool) -> list[Item]:
    """dim queries at (r, d) for d in ds, plus the threshold queries at r."""
    _, _, s, t = mesh.tie
    # with t + 1 >= r + 3 slopes at an endpoint the answer is the lower bound
    trivial = t + 1 >= r + 3
    params = functools.cache(lambda: tg.extract_one_tie_params(tri))
    stab = functools.cache(lambda: dm.stabilization_degree(params(), r))
    theta = Fraction(t * r, s * (t - 1)) + r

    def expected(d: int, method: str) -> Callable[[], int]:
        def ref() -> int:
            if trivial or d >= stab():
                return mg.mesh_lower_bound(mesh, d, r)
            if d <= theta:
                return mg.companion_bound(mesh, d, r)
            # between the thresholds: the other closed-form route must agree
            other = "explicit" if method != "explicit" else "lattice"
            return dm.dim(tri, d, r, method=other).total
        return functools.cache(ref)

    items = []
    for d in ds:
        lower = mg.mesh_lower_bound(mesh, d, r)
        for method in methods:
            ref = expected(d, method)
            items.append(Item(
                f"dim {mesh.name} r={r} d={d} {method}",
                lambda d=d, method=method: _dim_pair(dm.dim(tri, d, r, method=method)),
                lambda ans, lo=lower, ref=ref: ans == (lo, ref())))
    if not thresholds:
        return items

    def stab_ok(ans) -> bool:
        below = dm.dim(tri, ans - 1, r, method="explicit").total
        at = dm.dim(tri, ans, r, method="explicit").total
        return (at == mg.mesh_lower_bound(mesh, ans, r)
                and below > mg.mesh_lower_bound(mesh, ans - 1, r))

    def reg_ok(ans) -> bool:
        prm = params()
        return (dm.dim_explicit(prm, ans, r).correction > 0
                and dm.dim_explicit(prm, ans + 1, r).correction == 0)

    def theta_ok(ans) -> bool:
        d = int(ans)
        return ans == theta and dm.dim(tri, d, r, method="lattice").total == \
            mg.companion_bound(mesh, d, r)

    def tie_pair() -> pi.TiePair:
        prm = tg.extract_one_tie_params(tri)
        return pi.TiePair(prm.s, prm.t, r)

    items += [
        Item(f"stabilization {mesh.name} r={r}",
             lambda: dm.stabilization_degree(tg.extract_one_tie_params(tri), r), stab_ok),
        Item(f"regularity {mesh.name} r={r}", lambda: pi.homology_regularity(tie_pair()), reg_ok),
        Item(f"supersmoothness {mesh.name} r={r}",
             lambda: pi.supersmoothness_threshold(tie_pair()), theta_ok),
    ]
    return items


def _dim_pair(rep: dm.DimReport) -> tuple[int, int]:
    return rep.lower_bound, rep.total


def _grid_items(mesh: mg.Mesh, tri: tg.Triangulation, rng: random.Random, n: int) -> list[Item]:
    items = []
    for k in range(n):
        r = 1 + k % 8
        d = _jitter(rng, 0, 3 * r + 4)
        lower = mg.mesh_lower_bound(mesh, d, r)
        items.append(Item(f"dim {mesh.name} r={r} d={d} auto",
                          lambda d=d, r=r: _dim_pair(dm.dim(tri, d, r)),
                          lambda ans, lo=lower: ans == (lo, lo)))
    return items


# The large-r minority, on the bundled meshes and their affine images only:
# the lattice count costs about r^2 / (s t), so fixing (s, t) and r up to a
# 2% jitter keeps the round's cost independent of the seed.
LARGE_R = {"figure2": 1000, "affine-figure2": 600, "tohaneanu": 300, "affine-tohaneanu": 200}


def query_mix_setup(seed: int, size: str) -> tuple[list[tuple], list[tuple]]:
    """Pre-built (mesh, triangulation) pairs: one-tie meshes and quasi-cross-cut grids."""
    rng = random.Random(seed)
    ties = []
    for name in BUNDLED_TIES:
        tri = tg.load_bundled(name)
        ties.append((_mesh_of(name, tri), tri))
        img = mg.affine_image(ties[-1][0], rng)
        ties.append((img, _build(img)))
    for p, q in mg.STAR_EDGES[:4] if size == "full" else mg.STAR_EDGES[:1]:
        star = mg.one_tie_star(*mg.random_tie_params(p, q, rng), rng)
        ties.append((star, _build(star)))
    grids = []
    for n, m in ((3, 3), (4, 3)) if size == "full" else ((2, 2),):
        g = mg.affine_image(mg.grid(n, m), rng, shear=True)
        grids.append((g, _build(g)))
    return ties, grids


def query_mix(seed: int, size: str, workdir: Path) -> list[Item]:
    """Library dim and threshold queries over many (r, d) on pre-built meshes."""
    ties, grids = query_mix_setup(seed, size)
    rng = random.Random(seed + 1)
    items: list[Item] = []
    n_small = 4 if size == "full" else 1
    for mesh, tri in ties:
        _, _, s, t = mesh.tie
        for j in range(n_small):
            # r >= t - 1 keeps every route defined; below it auto answers L
            r = _jitter(rng, max(1, t - 1) + 2 * j, max(1, t - 1) + 2 * j + 1)
            ds = sorted({_jitter(rng, lo, lo + r) for lo in (0, r + 1, 2 * r + 2)})
            items += _query_items(mesh, tri, r, ds, ["auto"], thresholds=True)
            items += _query_items(mesh, tri, r, ds[1:2], ["lattice", "explicit"], thresholds=False)
        if t > 2:
            r = _jitter(rng, 0, t - 2)
            items += _query_items(mesh, tri, r, [_jitter(rng, 0, 3 * r + 4)], ["auto"],
                                  thresholds=False)
        if mesh.name not in LARGE_R:
            continue
        big = LARGE_R[mesh.name] if size == "full" else 60
        r = _jitter(rng, big - big // 50, big + big // 50)
        # d at fixed fractions of the way to the stabilization degree
        stab_guess = (r + 1) // s + (r + 1) // t + r
        ds = [_jitter(rng, r + 2 + (stab_guess - r) * f // 8, r + 2 + (stab_guess - r) * (f + 1) // 8)
              for f in (3, 6)]
        items += _query_items(mesh, tri, r, ds, ["auto", "explicit"], thresholds=True)
    for mesh, tri in grids:
        items += _grid_items(mesh, tri, rng, 12 if size == "full" else 3)
    items += _oracle_sample(ties, grids, rng, 6 if size == "full" else 2)
    rng.shuffle(items)
    return items


def _oracle_sample(ties, grids, rng, n) -> list[Item]:
    """Small dim cells whose answers the spline oracle also checks."""
    pool = ties + grids
    items = []
    for _ in range(n):
        mesh, tri = rng.choice(pool)
        r = rng.randint(1, 3)
        d = rng.randint(r + 1, 2 * r + 3)
        ref = functools.cache(lambda tri=tri, d=d, r=r: orc.dim_spline_oracle(tri, d, r))
        lower = mg.mesh_lower_bound(mesh, d, r)
        items.append(Item(f"dim {mesh.name} r={r} d={d} auto, oracle-checked",
                          lambda tri=tri, d=d, r=r: _dim_pair(dm.dim(tri, d, r)),
                          lambda ans, lo=lower, ref=ref: ans == (lo, ref())))
    return items


# -------------------------------------------------------------- verify-table


def _cell(name: str, tri: tg.Triangulation, d: int, r: int) -> Item:
    """One `table --verify` row: dim against the spline oracle, guardrail lifted."""
    return Item(f"cell {name} r={r} d={d}",
                lambda: (dm.dim(tri, d, r).total, orc.dim_spline_oracle(tri, d, r, allow_large=True)),
                lambda ans: ans[0] == ans[1])


def verify_table(seed: int, size: str, workdir: Path) -> list[Item]:
    """Whole `table --verify` tables: every d from 0 up, at several r."""
    rng = random.Random(seed)
    items: list[Item] = []
    full = size == "full"
    # the largest system of each round: it sets the peak memory
    heavy = {"figure2": (20, 8)} if full else {"figure2": (7, 2)}
    for name in BUNDLED_TIES:
        tri = tg.load_bundled(name)
        for r in range(1, 9 if full else 3):
            items += [_cell(name, tri, d, r) for d in range(min(2 * r + 3, 11) + 1)]
        if name in heavy:
            items.append(_cell(name, tri, *heavy[name]))
        # Coordinate bit size drives coefficient growth, and the cost of an
        # affine image varies several-fold with the map.  Many images, each
        # with a short low-degree table, keep the round's cost and its
        # latency quantiles steady from seed to seed.
        for _ in range(6 if full else 1):
            img = mg.affine_image(_mesh_of(name, tri), rng)
            itri = _build(img)
            items += [_cell(img.name, itri, d, 2) for d in range(6 if full else 4)]
    rng.shuffle(items)
    return items


# -------------------------------------------------------------- ideal-oracle


# Slope magnitudes of the ideal generators: the seed picks signs and order
# only, so coefficient sizes, and with them the rank cost, stay put.
_SLOPE_MAGNITUDES = [Fraction(n, d) for n, d in
                     ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (4, 1))]


def _slope_bank(rng: random.Random) -> list[Fraction]:
    bank = [m * rng.choice((-1, 1)) for m in _SLOPE_MAGNITUDES]
    rng.shuffle(bank)
    return bank


def _multiplicities(rng: random.Random, length: int) -> tuple[int, ...]:
    """length multiplicities in 0..7 with the fixed sum 7 * length // 2."""
    a = [0] * length
    for _ in range(7 * length // 2):
        a[rng.choice([i for i in range(length) if a[i] < 7])] += 1
    return tuple(a)


def _membership_dims(s: int, t: int, r: int, ell: int) -> tuple[int, int, int]:
    """Monomial counts of the two colon ideals and their intersection in degree ell."""
    c1 = c2 = both = 0
    for a in range(ell + 1):
        for b in range(ell + 1 - a):
            c = ell - a - b
            m1 = s * a + (s - 1) * c > r + 1 - s
            m2 = t * b + (t - 1) * c > r + 1 - t
            c1 += m1
            c2 += m2
            both += m1 and m2
    return c1, c2, both


def ideal_oracle(seed: int, size: str, workdir: Path) -> list[Item]:
    """Rank oracles for power and colon ideals against the power_ideal closed forms."""
    rng = random.Random(seed)
    bank = _slope_bank(rng)
    slopes, spare = bank[:8], bank[8]
    items: list[Item] = []
    full = size == "full"

    def gens2(a: tuple[int, ...], pick: list[Fraction]):
        return [((1, m), ai + 1) for m, ai in zip(pick, a)]

    for k in range(60 if full else 6):
        length = 1 + k % 5
        a = _multiplicities(rng, length)
        # d walks a fixed ladder; the seed picks multiplicities and slopes
        d = 4 * (k % 6) + k // 6 % 4 if full else k
        gens = gens2(a, rng.sample(slopes, length))
        items.append(Item(f"hilbert {a} d={d}", lambda g=gens, d=d: orc.hilbert_ideal_oracle(g, d),
                          lambda ans, a=a, d=d: ans == pi.hilbert_power_ideal(a, d)
                          == sum(pi.in_membership(a, x, d - x) for x in range(d + 1))))
    for k in range(40 if full else 4):
        length = 1 + k % 5
        a = _multiplicities(rng, length)
        e = (3 * k + length) % 9
        d = 4 * (k % 5) + k // 5 % 4 if full else k
        gens = gens2(a, rng.sample(slopes, length))
        items.append(Item(f"colon {a} e={e} d={d}",
                          lambda g=gens, e=e, d=d: orc.hilbert_colon_oracle(g, (1, spare), e, d),
                          lambda ans, a=a, e=e, d=d: ans == pi.hilbert_colon(a, e, d)
                          == sum(pi.colon_membership(a, e, x, d - x) for x in range(d + 1))))
    triples = [(s, t, r) for s in range(2, 5) for t in range(s, 6) for r in range(t - 1, 9)]
    for k in range(20 if full else 2):
        s, t, r = triples[k * 7 % len(triples)]
        ell = k % 6
        g1 = [((1, 0, m), r + 1) for m in rng.sample(slopes, s)]
        g2 = [((0, 1, m), r + 1) for m in rng.sample(slopes, t)]
        items.append(Item(f"colon pair s={s} t={t} r={r} ell={ell}",
                          lambda g1=g1, g2=g2, r=r, ell=ell:
                          orc.colon_pair_dims(g1, g2, (0, 0, 1), r + 1, ell),
                          lambda ans, s=s, t=t, r=r, ell=ell:
                          tuple(ans) == _membership_dims(s, t, r, ell)))
    for k in range(20 if full else 2):
        # (s, t, r, d) walk a fixed ladder; the seed picks the slopes
        r = 2 + k % 7
        s = min(2 + k % 3, r + 1)
        t = min(s + k % 2, r + 1)
        tp = pi.TiePair(s, t, r)
        d = r + 1 + (pi.homology_regularity(tp) - r) * (k % 4) // 3
        b, c = rng.sample(slopes, s), rng.sample(slopes, t)
        items.append(Item(f"homology s={s} t={t} r={r} d={d}",
                          lambda s=s, t=t, r=r, b=b, c=c, d=d:
                          orc.homology_dim_oracle(s, t, r, b, c, d),
                          lambda ans, tp=tp, d=d: ans == pi.homology_dim(tp, d)))
    rng.shuffle(items)
    return items


WORKLOADS = {
    "mesh-ingest": mesh_ingest,
    "query-mix": query_mix,
    "verify-table": verify_table,
    "ideal-oracle": ideal_oracle,
}
