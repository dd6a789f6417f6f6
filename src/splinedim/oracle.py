"""Brute-force cross-checks via exact linear algebra.

Nothing here reuses the combinatorial formulas: spline dimensions come from
the kernel of the conformality conditions, and Hilbert function values come
from ranks of multiplication matrices.  Agreement with the closed forms is
therefore a real test, not a tautology.

The spline oracle rests on the conformality theorem (Chui and Wang 1983, "On
smooth multivariate spline functions", Math. Comp.).  Fix the polynomial p
on one triangle.  Across each interior edge tau, with first triangle t and
second t', a spline s of degree d and smoothness r has s|t - s|t' =
l_tau^(r+1) q_tau, where l_tau vanishes on the edge and the cofactor q_tau
has degree at most d - r - 1.  Conversely p and the cofactors define a
spline exactly when, at each interior vertex v, the cofactors of the edges
at v satisfy the conformality condition sum sigma_tau l_tau^(r+1) q_tau = 0.
So the dimension is binom(d + 2, 2), for p, plus the nullity of the
conditions in the cofactors of all interior edges.  A chord, an interior
edge with both endpoints on the boundary, is in no condition, so its
columns are free: each adds binom(d - r + 1, 2) to the nullity.

The theorem needs the triangles to be edge-connected, every interior vertex
to be ringed by one cycle of triangles, and the loops around the interior
vertices to span every cycle of triangles.  build() certifies exactly that
much: the mesh is an edge-connected disk and the fan around each interior
vertex winds once.  On a disk with V_i interior vertices, E_i interior edges
and T triangles, Euler's formula gives E_i - T + 1 = V_i.  The V_i vertex
loops bound the bounded faces of the plane graph of triangles and interior
edges, so they are independent, and they span its whole cycle space.

Centred at v, l_tau is the form dy X - dx Y of the edge's primitive slope
(dx, dy), with X = x - v.x and Y = y - v.y; it is the same polynomial at the
edge's other endpoint, which lies on the line.  The condition is then a sum
of homogeneous terms and splits by degree: its degree-m part involves only
the degree m - r - 1 parts of the cofactors, when those are expanded at v.
Walking counterclockwise around v across tau from t to t' adds s|t - s|t'.
If v, w (w the other endpoint) are consecutive in the counterclockwise
order of tau's first triangle, that triangle lies left of the ray from v to
w, so the walk enters it and sigma_tau = -1; otherwise sigma_tau = 1.  As
build() makes every triangle counterclockwise, sigma is a test on indices.

A spoke, an edge with one interior endpoint, is in one condition and is
expanded at that endpoint, its home.  A tie, a totally interior edge, is in
the conditions at both endpoints and is expanded at one of them, u, its home.

The degree-m part is an identity between forms of degree m, so its rows may
be read in any basis of those forms, and each cofactor's degree-k part in
any basis of the forms of degree k: both changes are invertible and keep the
nullity.  So each interior vertex with a spoke and at most one tie reads both
in the monomials of a frame (X', Y') = (l_s, l_t).  l_s is the form of its
first spoke whose slope is not the tie's; l_t is the tie's form, or at a
vertex with no tie that of a spoke with another slope.  A vertex with two or
more ties, or with no spoke, keeps (X, Y).  Every form c is mapped into
the frame F as c adj(F), the ideal oracles' adjugate below, and made
primitive; a spoke's scale is free, its cofactor absorbs it.  A spoke whose
form is one frame variable, as l_s's own is, has a one-term l^(r+1) =
X'^(r+1) (or Y'^(r+1)), so each of its columns has exactly one entry.
Those spokes come first in their (home, degree) group.

A column with one nonzero entry can be deleted together with that entry's
row: subtracting multiples of the column clears the rest of the row, which
splits off the entry as a block of its own, so the rank drops by exactly 1
and the nullity is kept.  Column (k, x) of l_s's own spoke s holds
X'^(x+r+1) Y'^(k-x), one entry in the row X'^a Y'^(m-a) with a = x + r + 1,
and every row with a > r of degree m = k + r + 1 is hit by one of them.  So
a framed vertex builds neither s's columns nor those rows: r + 1 rows per
degree m are left, with a <= r, where there were m + 1.

A framed vertex's other spokes list column (k, x) at col0 + k - x, in
descending x.  A spoke l = p X' + q Y' with q != 0 has the term
q^(r+1) Y'^(r+1) of X'-exponent 0, so it meets the row of exponent a at
columns col0 + k - a + j for the exponents j of l^(r+1) with a - k <= j <= a,
the first of which is col0 + k - a whenever a <= k.  Once m >= 2r + 1, that is
k >= r, every kept row has a <= k, and the r + 1 rows of the block lead at
r + 1 distinct columns of the first spoke with q != 0 (a spoke parallel to s
has no entry left in them).  Every framed vertex has such a spoke: were all
its spokes but s parallel to s, its edges would lie in a closed half-plane,
and build() rejects such a fan.  A spoke is in its home's conditions only,
so no other row meets those columns.  With the block's rows and those
columns first the system reads [A B; 0 C], A of full row rank r + 1, so its
rank is (r + 1) + rank(C), and in C the block's other spoke columns are
zero.  So such a block is counted, not built: neither its rows, whether a
spoke or a tie's home or far end writes them, nor its spokes' degree-k
columns are made, and it adds its spoke columns less r + 1 to the nullity.
The ties' columns stay, for the rows of C.  Only the blocks with m <= 2r,
whose rows with a > k can share a lead, are built at a framed vertex and
eliminated.  In ascending x a spoke with p and q both nonzero would lead
every row at col0, through its term with j = a.  Vertices that keep (X, Y)
list x ascending and build every block, so their rows are as they were.

Both ends of a tie must see the same l_tie and the same cofactor.  At a
framed end Y' = l_t is the tie's form itself, and at an unframed one the
tie's form is dy X - dx Y, the same polynomial; a primitive form taken per
frame need not be.  The cofactor is read in its home's frame F_u.  At the
far end v = u + w, whose frame coordinates are X' = F_v (X, Y), the home's
coordinates are the affine map F_u F_v^-1 X' + F_u w.  When both ends are
framed this is (alpha X' + beta Y' + c, Y'), since l_t(w) = 0; when neither
is, it is the translation (X + w_x, Y + w_y).  Either way the degree-k part
of the expansion at v involves only coefficients of degree at least k: the
map is block-triangular by degree.  The tie's degree-k columns are scaled by
D^k at both ends, D the common denominator of the map, so that column (k, x)
reads (D X'_u)^x (D Y'_u)^(k-x), a product of powers of two integer affine
forms at v.  A framed far end reads the tie as Y', one term, and keeps only
the products' terms whose X'-exponent is at most r and whose degree is
below r; so it expands the two forms only to that degree.

The frames, the framed forms, sigma, the spokes' order and each tie's map
depend on the mesh alone, not on d or r.  They are computed once per mesh
and kept while it lives (_mesh_frames).  So are, for each r called at, the
powers the rows read, which the mesh and r fix: each edge's signed
l^(r+1) at its vertices, and each tie form's powers at its far end, up to
the largest d - r - 1 asked for.  That is no more than the largest call at
that r reads, and a call at a larger d extends the powers it finds.

Columns run over the spokes grouped by (home, degree), then over the ties by
(tie, degree), then over the free columns that no row meets: the chords',
and each counted block's spoke columns less r + 1.  So the ascending sweep
of pivot_rows eliminates each (vertex, degree) block on its own and only the
tie columns couple blocks.  Each row has a fixed slot, by vertex, degree and
monomial.  At a cofactor's home each term of l_tau^(r+1) is one store into a
slot; only at a tie's far end can terms add up (and cancel).  Each kind of
power has one routine.  l_tau^(r+1) is a whole power of a linear form, as
the ideal oracles' powers are, so _power expands it by the multinomial
theorem, once per r for each distinct framed form.  Each of a tie's two
affine forms L + c at its far end is raised to every x up to d - r - 1 by
_affine_powers: the x-th power is the (x - 1)-th times L + c, cut at a
degree, below r at a framed far end and below d - r, which keeps every term
of powers up to d - r - 1, at one that keeps (X, Y).

The ideal oracles take the rank of the degree-D multiples of generators
g^a, g a linear form, in the monomials of degree D.  An invertible linear
substitution of the variables is a graded ring automorphism: it keeps the
Hilbert function of an ideal I, and it keeps dim (I : z^e)_d, which becomes
dim (I' : z'^e)_d.  Scaling a form does not change the ideal.  So each call
reads every form in a frame of its own: X'_k = F_k . x, where the rows of F
are the first linearly independent candidate forms, completed by coordinate
vectors; a candidate joins F when reduce_row finds it a new leading column.
A form with coefficient row c reads c F^-1 there, so the integer
row c adj(F) = det(F) c F^-1, made primitive, is its framed form.  The
candidates are the generators of exponent at most D, smallest exponent
first.  colon_pair_dims puts each ideal's first candidate first, then the
colon form, then the rest: on homology_dim_oracle's systems the frame is
(first generator of ideal 1, first of ideal 2, z), each ideal loses a
generator, and the z^e rows have one term each.

A generator whose framed form is x_k alone, with exponent a, has as its
degree-D multiples exactly the monomials whose x_k-exponent is at least a,
one unit row each.  Deleting those columns together with their rows drops
the rank by exactly their count, by the argument above for a column with
one entry.  So the rank is the number of covered monomials plus the rank of
the other generators' rows read in the kept columns, the monomials whose
exponent in each x_k is below cap_k, the least such a.  A multiplier at or
past a cap gives a row that is covered throughout and is not built.  In two
variables the frame takes two generators, of exponents a1 and a2, and only
X'^i Y'^(D-i) with D - a2 < i < a1 is kept, often nothing.  _framed_basis
reduces the other generators' rows into one basis as they are built, one at
a time and with the same step as the frame (reduce_row): a row that reaches
a free leading column is kept there as its pivot, and no row is built once
the pivots fill the kept columns.

A colon oracle counts the degree-d monomials, whose products with z^e are
independent, less the rank of those products modulo I: rank(B + Z) -
rank(B), B a basis of I_D and Z the z^e rows, which extend_rank reduces
into B with that step.  The covered span lies inside the span of B, so
deleting the covered columns from B and from Z keeps that difference.  In
colon_pair_dims each quotient deletes its own ideal's covered columns, and
the second quotient's kept columns follow the first's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import comb, gcd, lcm
from operator import add, itemgetter, mul
from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

from . import triangulation as tg
from .exact import binom, check_ints, extend_rank, kernel_dim_sparse, parse_rational, reduce_row


class OracleError(Exception):
    pass


class TooLarge(OracleError):
    """System exceeds the size guardrail; pass allow_large to run anyway."""


class DegenerateSlopes(OracleError):
    """Slope lists must be nonzero and pairwise distinct to describe a mesh star."""


MAX_COLUMNS = 5000


def _monomials_exact(nvars: int, d: int, caps: Sequence[int] | None = None) -> dict[tuple[int, ...], int]:
    """Column of each exponent tuple of total degree d, in descending lex order; none if d < 0.

    With caps, only the tuples whose k-th exponent is below caps[k] for every
    k are kept, numbered in the same order.
    """
    if nvars == 0 or d < 0:
        return {(): 0} if nvars == d == 0 else {}
    # the largest exponent kept in each variable
    *tops, last = [d] * nvars if caps is None else [c - 1 for c in caps]
    heads = [((), d)]
    for top in tops:
        heads = [(head + (a,), rem - a) for head, rem in heads for a in range(min(rem, top), -1, -1)]
    kept = [head + (rem,) for head, rem in heads if rem <= last]
    return dict(zip(kept, range(len(kept))))


def _int_linear_form(coeffs: Sequence) -> tuple[int, ...]:
    """Coefficient vector scaled to primitive integers, sign kept."""
    vals = [parse_rational(c) for c in coeffs]
    if all(v == 0 for v in vals):
        raise ValueError("zero linear form")
    scale = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (scale // v.denominator) for v in vals]
    g = gcd(*ints)
    return tuple(w // g for w in ints)


def _power(form: Sequence[int], n: int) -> dict[tuple[int, ...], int]:
    """The terms of form^n, by the multinomial theorem.

    Keys are exponent tuples in descending lex order, values their integer
    coefficients, each a product of binomials times the form's coefficients'
    powers.  A variable whose coefficient is 0 is capped at exponent 0, so no
    monomial with a zero coefficient is listed.
    """
    terms = {}
    for expo in _monomials_exact(len(form), n, [n + 1 if c else 1 for c in form]):
        left, coeff = n, 1
        for c, e in zip(form, expo):
            coeff *= comb(left, e) * c ** e
            left -= e
        terms[expo] = coeff
    return terms


def _affine_powers(powers: list[list[tuple[int, int, int]]], form: Sequence[int], n: int,
                   cap: int) -> None:
    """Extend powers, the powers (p X + q Y + c)^x of form (p, q, c) for
    x = 0, 1, ..., to x = n, each cut at degree cap; the powers it holds are
    kept.

    Each power lists its terms of degree below cap as (X exponent, degree,
    coefficient) in ascending X exponent, then degree.  Power x is power
    x - 1 times L + c, L = p X + q Y, cut at cap: its term (a, e) is c times
    the term (a, e) of power x - 1, plus q times (a, e - 1), plus p times
    (a - 1, e - 1).  It is x! / (a! (e - a)! (x - e)!) p^a q^(e-a) c^(x-e),
    so it is nonzero exactly where a <= e <= x, and a = 0 unless p != 0,
    e = a unless q != 0 and e = x unless c != 0.  Those terms, in order, are
    the ones listed.  L is not zero: p or q is not.  A power x has no term of
    degree above x, so cap n + 1 keeps every term of powers 0 to n; powers a
    later call adds from them with a larger cap are whole too.
    """
    p, q, c = form
    if not powers:
        powers.append([(0, 0, 1)] if cap > 0 else [])
    if len(powers) > n:
        return
    last = {(a, e): v for a, e, v in powers[-1]}
    for x in range(len(powers), n + 1):
        top = min(x, cap - 1)
        terms = [(a, e, c * last.get((a, e), 0) + q * last.get((a, e - 1), 0)
                  + p * last.get((a - 1, e - 1), 0))
                 for a in range(top + 1 if p else min(top + 1, 1))
                 for e in range(a if c else x, (top if q else a) + 1)]
        powers.append(terms)
        last = {(a, e): v for a, e, v in terms}


Frame = tuple[tuple[int, int], tuple[int, int]]


def _frame(tri: tg.Triangulation, v: int, ties: set[int]) -> tuple[Frame, int | None]:
    """The forms (X', Y') = (l_s, l_t), as (X, Y) coefficient rows with a
    positive determinant, that interior vertex v reads its conditions in, and
    the spoke s whose form l_s is.

    s is v's first spoke, in edges_at order, whose slope is not the tie's, and
    l_t is the tie's form; at a vertex with no tie l_t is the form of the first
    spoke with another slope than s.  Vertices with no spoke or with two or
    more ties keep (X, Y) and have no s.
    """
    mine = [i for i in tri.edges_at[v] if i in ties]
    spokes = [i for i in tri.edges_at[v] if i not in ties]
    if not spokes or len(mine) > 1:
        return ((1, 0), (0, 1)), None
    t = tri.edges[mine[0]].slope if mine else None
    s = next(i for i in spokes if tri.edges[i].slope != t)
    ls = tri.edges[s].slope
    t = t or next(sl for i in spokes if (sl := tri.edges[i].slope) != ls)
    # l_s's sign is free; a positive determinant keeps the tie's form (0, 1),
    # not (0, -1), once it is made primitive
    sign = 1 if ls.dx * t.dy - ls.dy * t.dx > 0 else -1
    return ((sign * ls.dy, -sign * ls.dx), (t.dy, -t.dx)), s


# One entry per live mesh: a Triangulation is frozen and hashed by identity,
# and its entry goes when it does.
_MESH_FRAMES: WeakKeyDictionary = WeakKeyDictionary()


def _mesh_frames(tri: tg.Triangulation) -> tuple[dict, dict, dict, dict, dict]:
    """What the conformality rows read of the mesh alone, not of d or r,
    computed once per mesh: free, at, spokes and shift; and powers, what they
    read of the mesh and r, filled in as calls need it.

    free[v] is interior vertex v's spoke s, or None where v keeps (X, Y) (see
    _frame).  at[v] lists (edge, sigma, form) for each edge at v but s, form
    its primitive form in v's frame.  spokes[v] is v's spokes but s in column
    order: those whose form is one frame variable first, then the others, in
    edges_at order.  shift[i] is tie i's (den, first form, second form): at
    its far end v each of its home frame's forms is an integer affine form in
    v's frame over den.

    powers[r] is (signed, far), made by the first call at r.  signed[v] lists,
    for each (edge, sigma, form) of at[v], the terms (j, sigma c) of
    form^(r+1) (_power) in ascending X exponent j.  far[form, framed] holds
    the powers (L + c)^x of a tie form at a far end, framed or not
    (_affine_powers): a framed far end keeps their terms of degree below r,
    an unframed one all of them.
    A call with n = d - r - 1 extends each list to x = n and reads powers 0
    to n only.  So powers[r] holds no more than the largest call at r reads:
    one lift per edge at its vertices, and each tie form's powers up to the
    largest n asked for.
    """
    known = _MESH_FRAMES.get(tri)
    if known is not None:
        return known
    edges, verts, ties = tri.edges, tri.vertices, set(tri.ties)
    frames, adjs, free, at, spokes = {}, {}, {}, {}, {}
    for v in tri.interior_vertices:
        frames[v], free[v] = _frame(tri, v, ties)
        adjs[v] = adj = _adjugate(frames[v])
        at[v] = []
        for i in tri.edges_at[v]:
            if i != free[v]:
                e = edges[i]
                t0, t1, t2 = tri.triangles[e.triangles[0]]
                sign = -1 if (v, e.u + e.v - v) in ((t0, t1), (t1, t2), (t2, t0)) else 1
                at[v].append((i, sign, _in_frame((e.slope.dy, -e.slope.dx), adj)))
        spokes[v] = [i for i, _, form in sorted(at[v], key=lambda t: 0 not in t[2]) if i not in ties]
    shift = {}
    for i in tri.ties:
        e = edges[i]
        fu, fv, adj = frames[e.u], frames[e.v], adjs[e.v]
        w = [q - p for p, q in zip(verts[e.u], verts[e.v])]
        lat = lcm(*(c.denominator for c in w))
        wx, wy = (c.numerator * (lat // c.denominator) for c in w)
        det = _det(fv)
        # at v the home form (a, b) reads (a, b) F_v^-1 X' + a w_x + b w_y, that
        # is ((a, b) adj(F_v) lat, (a wx + b wy) det) over det lat
        nums = [(*(sum(map(mul, (a, b), col)) * lat for col in adj), (a * wx + b * wy) * det)
                for a, b in fu]
        g = gcd(det * lat, *nums[0], *nums[1])
        shift[i] = (det * lat // g, *(tuple(c // g for c in m) for m in nums))
    _MESH_FRAMES[tri] = known = free, at, spokes, shift, {}
    return known


def _conformality_rows(tri: tg.Triangulation, d: int, r: int) -> tuple[list[dict[int, int]], int]:
    """Integer rows of the conformality conditions, and their column count.

    Each interior vertex reads its conditions, and its spokes their
    cofactors, in the monomials of its frame (X', Y') centred at it (see
    _frame); a tie's cofactor is read in its home's.  A framed vertex's spoke
    s and the rows it alone pivots are left out, and so is each of its
    blocks of degree k >= r, which is counted instead.  The built columns
    are the coefficients of every other interior edge's cofactor at the
    monomials of degree k <= d - r - 1, in this order: spokes grouped by
    (home, degree), at a framed home only for k < r, in each group first
    those whose form is one frame variable, then the others, in edges_at
    order, each with column (k, x) at X'^x Y'^(k-x) in descending x; then
    ties one at a time in index order, each by degree, with (k, x) in
    ascending x.  The columns past them are in no row: the chords', and
    for each counted block its spokes' columns less r + 1.  There is one
    row per interior vertex v, degree m and monomial X'^a Y'^(m-a) of v's
    frame, with a <= r and m <= 2r at a framed v, unless it has no entry;
    no entry is zero.
    """
    n = d - r - 1
    if n < 0:
        return [], 0
    edges = tri.edges
    free, at, spokes, shift, powers = _mesh_frames(tri)
    # v builds its blocks of degree k < blocks[v]; a framed vertex counts
    # those of degree k >= cut instead
    cut = min(r, n + 1)
    blocks = {v: n + 1 if s is None else cut for v, s in free.items()}
    if r not in powers:
        # l^(r+1) once for each distinct framed form, in ascending X exponent;
        # signed for each edge
        lifts = {form: [(j, c) for (j, _), c in reversed(_power(form, r + 1).items())]
                 for form in {f for fan in at.values() for _, _, f in fan}}
        powers[r] = ({v: [[(j, sign * c) for j, c in lifts[form]] for _, sign, form in fan]
                      for v, fan in at.items()}, {})
    signed, far = powers[r]
    # the powers up to n of each tie's two forms at its far end, cut below
    # degree r at a framed far end, which builds no row of degree r or more,
    # and whole at any other
    for i, (_, *maps) in shift.items():
        framed = free[edges[i].v] is not None
        for form in maps:
            _affine_powers(far.setdefault((form, framed), []), form, n, r if framed else n + 1)
    keys = [(i, k) for v in free for k in range(blocks[v]) for i in spokes[v]]
    keys += [(i, k) for i in tri.ties for k in range(n + 1)]
    base = dict(zip(keys, accumulate((k + 1 for _, k in keys), initial=0)))

    # row (v, m, a) is slot vbase + off[m - r - 1] + a for a <= top, where a
    # framed vertex keeps r + 1 rows per degree and any other all m + 1
    full = list(accumulate(range(r + 2, d + 2), initial=0))
    short = list(range(0, (n + 2) * (r + 1), r + 1))
    slots, nrows = {}, 0
    for v in free:
        off, top = (full, d) if free[v] is None else (short, r)
        slots[v] = nrows, off, top
        nrows += off[blocks[v]]
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    for v, (vbase, off, top) in slots.items():
        kmax = blocks[v]
        for (i, _, _), power in zip(at[v], signed[v]):
            den, *maps = shift.get(i, (1,))
            if v != edges[i].v or i not in shift:
                # at home, column (k, x) reads den^k X'^x Y'^(k-x): one term in
                # each row x + j up to top; a framed vertex's spokes run x downwards
                down = free[v] is not None and i not in shift
                for k in range(kmax):
                    mbase, col0, scale = vbase + off[k], base[i, k], den ** k
                    cols = range(col0 + k, col0 - 1, -1) if down else range(col0, col0 + k + 1)
                    for j, c in power:
                        c *= scale
                        for x in range(min(k, top - j) + 1):
                            rows[mbase + j + x][cols[x]] = c
                continue
            # at the far end it reads the x-th power of the first form times the
            # (k-x)-th of the second, whose terms can cancel; a framed far end
            # reads the tie as Y', so there j is 0.  No vertex builds a row of
            # degree kmax or more, and as a <= ma, b <= mb and kmax <= top, the
            # terms it keeps have a + b below top
            framed = free[v] is not None
            px, qy = far[maps[0], framed], far[maps[1], framed]
            for y, qterms in enumerate(qy[:n + 1]):
                for x in range(n + 1 - y) if qterms else ():
                    col = base[i, x + y] + x
                    acc: dict[int, int] = {}
                    for a, ma, ca in px[x]:
                        for b, mb, cb in qterms:
                            if ma + mb < kmax:
                                slot, cab = vbase + off[ma + mb] + a + b, ca * cb
                                for j, c in power:
                                    acc[slot + j] = acc.get(slot + j, 0) + cab * c
                    for slot, c in acc.items():
                        if c:
                            rows[slot][col] = c
    # a disk has T + V_i - 1 interior edges (Euler); each has binom(n + 2, 2)
    # columns, the chords' last, except each framed vertex's spoke s; each
    # counted block takes r + 1, its rank, off its spokes' columns
    nframed = sum(s is not None for s in free.values())
    ncols = ((len(tri.triangles) + len(free) - 1 - nframed) * comb(n + 2, 2)
             - nframed * (n + 1 - cut) * (r + 1))
    return [row for row in rows if row], ncols


def dim_spline_oracle(tri: tg.Triangulation, d: int, r: int, allow_large: bool = False) -> int:
    """Dimension of the splines of degree d and smoothness r on tri.

    That is binom(d + 2, 2), for the polynomials, plus the nullity of the
    conformality conditions, as the module docstring explains.  Their
    columns hold every interior edge's cofactor: spokes by (home, degree),
    then ties one at a time in index order, then chords, which are in no
    condition; a framed vertex's spoke s has none, and its blocks of degree
    k >= r are counted, not built (see _conformality_rows).
    The guardrail counts the unknowns of a direct assembly instead: a
    polynomial per triangle and a multiplier per interior edge, of which a
    disk has T + V_i - 1 (Euler).
    """
    check_ints("d and r", d, r, low=0)
    unknowns = (len(tri.triangles) * binom(d + 2, 2)
                + (len(tri.triangles) + len(tri.interior_vertices) - 1) * binom(d - r + 1, 2))
    if unknowns > MAX_COLUMNS and not allow_large:
        raise TooLarge(f"{unknowns} unknowns exceeds the {MAX_COLUMNS} column guardrail")
    return binom(d + 2, 2) + kernel_dim_sparse(*_conformality_rows(tri, d, r))


def _checked_forms(generators: Sequence[tuple[Sequence, int]],
                   nvars: int) -> list[tuple[tuple[int, ...], int]]:
    """Each generator's primitive integer form and exponent.

    Every generator is checked, in order, before any is used, so an oracle
    that stops early still refuses a bad generator late in the list.
    """
    forms = []
    for coeffs, power in generators:
        if len(tuple(coeffs)) != nvars:
            raise ValueError("generator arity mismatch")
        check_ints("generator exponent", power, low=0)
        forms.append((_int_linear_form(coeffs), power))
    return forms


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, expanded along its first row."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    return sum((-1) ** j * c * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


def _ideal_frame(candidates: Iterable[tuple[int, ...]], nvars: int) -> list[list[int]]:
    """The columns of adj(F), F the frame whose rows are the first linearly
    independent candidate forms, completed by coordinate vectors in order."""
    units = ((0,) * k + (1,) + (0,) * (nvars - 1 - k) for k in range(nvars))
    frame: list[tuple[int, ...]] = []
    pivots: dict[int, dict[int, int]] = {}
    for form in chain(candidates, units):
        if reduce_row(dict(enumerate(form)), pivots):
            frame.append(form)
            if len(frame) == nvars:
                break
    return _adjugate(frame)


def _adjugate(frame: Sequence[Sequence[int]]) -> list[list[int]]:
    """The columns of adj(F), F the square integer matrix whose rows are frame.

    Column j is (-1)^(i+j) times the minor of F without row j and column i,
    for each i; a form's coefficient row c reads c adj(F) = det(F) c F^-1 in
    the frame, and the frame's k-th form reads det(F) x_k.
    """
    n = len(frame)
    return [[(-1) ** (i + j) * _det([row[:i] + row[i + 1:] for k, row in enumerate(frame) if k != j])
             for i in range(n)] for j in range(n)]


def _in_frame(form: tuple[int, ...], cols: list[list[int]]) -> tuple[int, ...]:
    """The form's coefficients in the frame whose adjugate's columns are cols,
    made primitive."""
    c = [sum(map(mul, form, col)) for col in cols]
    g = gcd(*c)
    return tuple(x // g for x in c)


def _row(mono: tuple[int, ...], terms: Iterable[tuple[tuple[int, ...], int]],
         kidx: dict[tuple[int, ...], int]) -> dict[int, int]:
    """The product of a monomial and a power's terms, read in the kept
    columns kidx: covered monomials are left out."""
    return {c: pc for pm, pc in terms if (c := kidx.get(tuple(map(add, mono, pm)))) is not None}


def _framed_basis(gens: Sequence[tuple[tuple[int, ...], int]], cols: list[list[int]],
                  d: int) -> tuple[list[dict[int, int]], dict[tuple[int, ...], int], list[int]]:
    """A basis of the degree-d piece of the ideal, its rows leading at
    distinct kept columns, with the kept columns and the caps.

    Every generator is read in the frame whose adjugate's columns are cols.
    caps[k] is the least exponent a of a generator whose framed form is x_k
    alone, whose degree-d multiples are the monomials with x_k-exponent at
    least a; d + 1 where there is none.  The kept columns are the monomials
    below caps.  Every other generator of exponent at most d builds one row
    per multiplier below caps, read in the kept columns, and the rows are
    reduced into the basis one at a time until it fills them.
    """
    nvars = len(cols)
    caps = [d + 1] * nvars
    rest = []
    for g, power in gens:
        form = _in_frame(g, cols)
        support = [k for k, c in enumerate(form) if c]
        if len(support) == 1:
            caps[support[0]] = min(caps[support[0]], power)
        elif power <= d:
            rest.append((form, power))
    kidx = _monomials_exact(nvars, d, caps)
    pivots: dict[int, dict[int, int]] = {}
    mults: dict[int, dict[tuple[int, ...], int]] = {}
    for form, power in rest:
        if len(pivots) == len(kidx):
            break
        if power not in mults:
            mults[power] = _monomials_exact(nvars, d - power, caps)
        items = _power(form, power).items()
        for mono in mults[power]:
            if reduce_row(_row(mono, items, kidx), pivots) and len(pivots) == len(kidx):
                break
    return list(pivots.values()), kidx, caps


def _by_power(gens: list[tuple[tuple[int, ...], int]], d: int) -> list[tuple[tuple[int, ...], int]]:
    """The generators of exponent at most d, smallest exponent first."""
    return sorted((g for g in gens if g[1] <= d), key=itemgetter(1))


def hilbert_ideal_oracle(generators: Sequence[tuple[Sequence, int]], d: int) -> int:
    """Dimension of the degree-d piece of an ideal of powers of linear forms.

    Generators are (coefficient vector, exponent) pairs, all in the same
    number of variables; the value is the rank of all monomial multiples,
    read in the frame of the generators' own forms (see the module docstring).
    """
    check_ints("d", d)
    if not generators:
        return 0
    nvars = len(tuple(generators[0][0]))
    gens = _checked_forms(generators, nvars)
    cols = _ideal_frame((form for form, _ in _by_power(gens, d)), nvars)
    basis, kidx, _ = _framed_basis(gens, cols, d)
    return binom(d + nvars - 1, nvars - 1) - len(kidx) + len(basis)


def _colon_forms(ideals: Sequence, form: Sequence, e: int,
                 d: int) -> tuple[int, list[list[tuple[tuple[int, ...], int]]], tuple[int, ...]]:
    """The colon oracles' checks, e and d first, then every generator, then
    the form: the variable count, each ideal's checked generators and the
    form's primitive integer coefficients."""
    check_ints("e and d", e, d)
    check_ints("e", e, low=0)
    nvars = len(tuple(form))
    checked = [_checked_forms(gens, nvars) for gens in ideals]
    return nvars, checked, _int_linear_form(form)


def hilbert_colon_oracle(generators: Sequence[tuple[Sequence, int]], form: Sequence,
                         e: int, d: int) -> int:
    """Dimension of the degree-d piece of the colon of the ideal by form^e.

    Computed as the kernel dimension of multiplication by form^e into the
    quotient by the ideal, using ranks only, in the frame of the generators.
    """
    nvars, (gens,), z = _colon_forms([generators], form, e, d)
    # no monomial has a negative degree; every argument is checked all the same
    if d < 0:
        return 0
    cols = _ideal_frame((g for g, _ in _by_power(gens, d + e)), nvars)
    basis, kidx, caps = _framed_basis(gens, cols, d + e)
    # a multiplier at or past a cap gives a row that is covered throughout
    items = _power(_in_frame(z, cols), e).items()
    zrows = [row for mono in _monomials_exact(nvars, d, caps) if (row := _row(mono, items, kidx))]
    return binom(d + nvars - 1, nvars - 1) - extend_rank(basis, zrows, len(kidx))


def colon_pair_dims(gens1: Sequence[tuple[Sequence, int]], gens2: Sequence[tuple[Sequence, int]],
                    form: Sequence, e: int, d: int) -> tuple[int, int, int]:
    """Degree-d dimensions of two colon ideals and of their intersection.

    The intersection comes from the rank of the map sending f to the pair of
    classes of f*form^e in the two quotients, stacked side by side.  The
    frame takes each ideal's first generator, then the form, then the rest;
    each quotient deletes its own ideal's covered columns.
    """
    nvars, (g1, g2), z = _colon_forms([gens1, gens2], form, e, d)
    # no monomial has a negative degree; every argument is checked all the same
    if d < 0:
        return 0, 0, 0
    c1, c2 = _by_power(g1, d + e), _by_power(g2, d + e)
    cands = c1[:1] + c2[:1] + [(z, e)] + sorted(c1[1:] + c2[1:], key=itemgetter(1))
    cols = _ideal_frame((g for g, _ in cands), nvars)
    (b1, k1, _), (b2, k2, _) = (_framed_basis(gens, cols, d + e) for gens in (g1, g2))
    items = _power(_in_frame(z, cols), e).items()
    monos = _monomials_exact(nvars, d)
    z1, z2 = ([_row(mono, items, kidx) for mono in monos] for kidx in (k1, k2))
    # the second quotient's columns sit past the first's, so b1 and b2 stay independent
    n1 = len(k1)
    both = b1 + [{n1 + k: v for k, v in row.items()} for row in b2]
    paired = [r1 | {n1 + k: v for k, v in r2.items()} for r1, r2 in zip(z1, z2)]
    n = len(monos)
    return (n - extend_rank(b1, z1, n1), n - extend_rank(b2, z2, len(k2)),
            n - extend_rank(both, paired, n1 + len(k2)))


def _validated_slopes(values: Sequence, what: str) -> list[Fraction]:
    out = [parse_rational(v) for v in values]
    if any(v == 0 for v in out) or len(set(out)) != len(out):
        raise DegenerateSlopes(f"{what} slopes must be nonzero and distinct: {list(values)!r}")
    return out


def homology_dim_oracle(s: int, t: int, r: int, b: Sequence, c: Sequence, d: int) -> int:
    """Gap between the spline dimension and its lower bound, by ranks alone.

    b and c list the s and t slopes at the two endpoints of the totally
    interior edge.  The gap in degree d is the codimension of the sum of the
    two colon ideals' pieces in degree d - r - 1.
    """
    check_ints("s, t, r and d", s, t, r, d)
    check_ints("r", r, low=0)
    bs = _validated_slopes(b, "first endpoint")
    cs = _validated_slopes(c, "second endpoint")
    if len(bs) != s or len(cs) != t:
        raise ValueError(f"expected {s} and {t} slopes, got {len(bs)} and {len(cs)}")
    ell = d - (r + 1)
    gens1 = [((1, 0, bi), r + 1) for bi in bs]
    gens2 = [((0, 1, ci), r + 1) for ci in cs]
    dim1, dim2, dim_both = colon_pair_dims(gens1, gens2, (0, 0, 1), r + 1, ell)
    return binom(ell + 2, 2) - (dim1 + dim2 - dim_both)
