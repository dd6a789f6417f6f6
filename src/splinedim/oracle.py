"""Brute-force cross-checks via exact linear algebra.

Nothing here reuses the combinatorial formulas: spline dimensions come from
the kernel of the smoothness system across interior edges, and Hilbert
function values come from ranks of multiplication matrices.  Agreement with
the closed forms is therefore a real test, not a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, Iterator, Sequence

from . import triangulation as tg
from .exact import check_ints, extend_rank, kernel_dim_sparse, parse_rational, pivot_rows


class OracleError(Exception):
    pass


class TooLarge(OracleError):
    """System exceeds the size guardrail; pass allow_large to run anyway."""


class DegenerateSlopes(OracleError):
    """Slope lists must be nonzero and pairwise distinct to describe a mesh star."""


MAX_COLUMNS = 5000


def _monomials_exact(nvars: int, d: int) -> dict[tuple[int, ...], int]:
    """Column of each exponent tuple of total degree d, in descending lex order; none if d < 0."""
    if nvars == 0 or d < 0:
        return {(): 0} if nvars == d == 0 else {}
    heads = [((), d)]
    for _ in range(nvars - 1):
        heads = [(head + (a,), rem - a) for head, rem in heads for a in range(rem, -1, -1)]
    return {head + (rem,): k for k, (head, rem) in enumerate(heads)}


def _int_linear_form(coeffs: Sequence) -> tuple[int, ...]:
    """Coefficient vector scaled to primitive integers, sign kept."""
    vals = [parse_rational(c) for c in coeffs]
    if all(v == 0 for v in vals):
        raise ValueError("zero linear form")
    scale = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (scale // v.denominator) for v in vals]
    g = gcd(*ints)
    return tuple(w // g for w in ints)


def _power(form: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """The n-th power of a linear form by the multinomial theorem.

    Keys are exponent tuples of total degree n, values their integer
    coefficients; monomials with a zero coefficient are left out.
    """
    out = {}
    for expo in _monomials_exact(len(form), n):
        coef, rest = 1, n
        for w, e in zip(form, expo):
            coef *= comb(rest, e) * w ** e
            rest -= e
        if coef:
            out[expo] = coef
    return out


def dim_spline_oracle(tri: tg.Triangulation, d: int, r: int, allow_large: bool = False) -> int:
    """Spline space dimension as the kernel dimension of the smoothness system.

    Unknowns: one polynomial of degree <= d per triangle plus one multiplier
    of degree <= d - r - 1 per interior edge.  For each interior edge the
    difference of the two adjacent polynomials must equal the edge form to
    the power r + 1 times the multiplier.  Multipliers are determined by the
    spline, so the kernel dimension equals the spline space dimension.
    Polynomials are homogenized as forms in (z, x, y), so a polynomial of
    degree <= d is a form of degree exactly d.
    """
    check_ints("d and r", d, r, low=0)
    interior = tri.interior_edges()
    n_tri = len(tri.triangles)
    midx = _monomials_exact(3, d)
    n_poly = len(midx)
    mono_h = _monomials_exact(3, d - r - 1)
    n_mult = len(mono_h)
    ncols = n_tri * n_poly + len(interior) * n_mult
    if ncols > MAX_COLUMNS and not allow_large:
        raise TooLarge(f"{ncols} unknowns exceeds the {MAX_COLUMNS} column guardrail")

    rows: list[dict[int, int]] = []
    for k_e, edge in enumerate(interior):
        t1, t2 = edge.triangles
        base1 = t1 * n_poly
        base2 = t2 * n_poly
        baseh = n_tri * n_poly + k_e * n_mult
        eqs: list[dict[int, int]] = [{base1 + k: 1, base2 + k: -1} for k in range(n_poly)]
        if mono_h:
            p = tri.vertices[edge.u]
            q = tri.vertices[edge.v]
            a = q.y - p.y
            b = p.x - q.x
            # the edge's line a*x + b*y + c = 0, homogenized with z first
            power = _power(_int_linear_form((-(a * p.x + b * p.y), a, b)), r + 1)
            for hm, hk in mono_h.items():
                for pm, pc in power.items():
                    eqs[midx[hm[0] + pm[0], hm[1] + pm[1], hm[2] + pm[2]]][baseh + hk] = -pc
        rows.extend(eqs)
    return kernel_dim_sparse(rows, ncols)


def _multiple_rows(generators: Sequence[tuple[Sequence, int]], d: int,
                   midx: dict, nvars: int) -> Iterator[list[dict[int, int]]]:
    """Rows spanning the degree-d piece of the ideal the generators cut out,
    one list per generator of degree at most d.

    Every generator is checked here, before any row is built, so a caller
    that stops reading early still refuses a bad generator late in the list.
    """
    forms = []
    for coeffs, power in generators:
        if len(tuple(coeffs)) != nvars:
            raise ValueError("generator arity mismatch")
        check_ints("generator exponent", power, low=0)
        forms.append((_int_linear_form(coeffs), power))

    def row_lists() -> Iterator[list[dict[int, int]]]:
        for form, power in forms:
            if power <= d:
                gen = _power(form, power)
                yield [{midx[tuple(map(add, mono, pm))]: pc for pm, pc in gen.items()}
                       for mono in _monomials_exact(nvars, d - power)]
    return row_lists()


def _ideal_basis(row_lists: Iterable[list[dict[int, int]]], ncols: int) -> list[dict[int, int]]:
    """Echelon basis of the span of the rows, read one list at a time.

    Rows are swept (with whatever basis is already found) only once there are
    enough of them to fill all ncols columns, and no further list is read once
    the basis fills them.
    """
    basis: list[dict[int, int]] = []
    pending: list[dict[int, int]] = []
    for rows in row_lists:
        pending += rows
        if len(basis) + len(pending) >= ncols:
            basis = list(islice(pivot_rows(basis + pending), ncols))
            pending = []
            if len(basis) == ncols:
                return basis
    return list(pivot_rows(basis + pending)) if pending else basis


def hilbert_ideal_oracle(generators: Sequence[tuple[Sequence, int]], d: int) -> int:
    """Dimension of the degree-d piece of an ideal of powers of linear forms.

    Generators are (coefficient vector, exponent) pairs, all in the same
    number of variables; the value is the rank of all monomial multiples.
    """
    check_ints("d", d)
    if not generators:
        return 0
    nvars = len(tuple(generators[0][0]))
    midx = _monomials_exact(nvars, d)
    return len(_ideal_basis(_multiple_rows(generators, d, midx, nvars), len(midx)))


def _colon_system(ideals: Sequence, form: Sequence, e: int, d: int) -> tuple[int, list, list]:
    """The colon oracles' set-up in degree d + e: the monomial count, one echelon
    basis per ideal (every generator and the form checked before any elimination)
    and the rows of form^e times each degree-d monomial."""
    check_ints("e and d", e, d)
    check_ints("e", e, low=0)
    nvars = len(tuple(form))
    midx = _monomials_exact(nvars, d + e)
    ideal_rows = [_multiple_rows(gens, d + e, midx, nvars) for gens in ideals]
    zrows = [row for rows in _multiple_rows([(form, e)], d + e, midx, nvars) for row in rows]
    return len(midx), [_ideal_basis(rows, len(midx)) for rows in ideal_rows], zrows


def hilbert_colon_oracle(generators: Sequence[tuple[Sequence, int]], form: Sequence,
                         e: int, d: int) -> int:
    """Dimension of the degree-d piece of the colon of the ideal by form^e.

    Computed as the kernel dimension of multiplication by form^e into the
    quotient by the ideal, using ranks only.
    """
    ncols, (basis,), zrows = _colon_system([generators], form, e, d)
    return len(zrows) - extend_rank(basis, zrows, ncols)


def colon_pair_dims(gens1: Sequence[tuple[Sequence, int]], gens2: Sequence[tuple[Sequence, int]],
                    form: Sequence, e: int, d: int) -> tuple[int, int, int]:
    """Degree-d dimensions of two colon ideals and of their intersection.

    The intersection comes from the rank of the map sending f to the pair of
    classes of f*form^e in the two quotients, stacked side by side.
    """
    n_big, (b1, b2), zrows = _colon_system([gens1, gens2], form, e, d)
    # the second quotient's columns sit past the first's, so b1 and b2 stay independent
    both = b1 + [{n_big + k: v for k, v in row.items()} for row in b2]
    paired = [row | {n_big + k: v for k, v in row.items()} for row in zrows]
    n = len(zrows)
    return (n - extend_rank(b1, zrows, n_big), n - extend_rank(b2, zrows, n_big),
            n - extend_rank(both, paired, 2 * n_big))


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
    n_ell = len(_monomials_exact(3, ell))
    return n_ell - (dim1 + dim2 - dim_both)
