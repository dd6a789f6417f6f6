"""Referee spline dimension: one polynomial per triangle, glued edge by edge.

This is the direct assembly the conformality oracle in splinedim.oracle
replaced.  It shares nothing with that oracle beyond the rank engine, the
input parsing (_int_linear_form) and the monomial numbering
(_monomials_exact), so agreement between the two is a real test.  Each
l^(r+1) comes from ideal_referee.expand_power, not from the oracle's _power,
which expands the oracle's own lifts.  pytest does not collect this module;
tests import it.
"""

from splinedim import triangulation as tg
from splinedim.exact import kernel_dim_sparse
from splinedim.oracle import _int_linear_form, _monomials_exact

from ideal_referee import expand_power


def referee_dim_spline(tri: tg.Triangulation, d: int, r: int) -> int:
    """Spline space dimension as the kernel dimension of the smoothness system.

    Unknowns: one polynomial of degree <= d per triangle plus one multiplier
    of degree <= d - r - 1 per interior edge.  For each interior edge the
    difference of the two adjacent polynomials must equal the edge form to
    the power r + 1 times the multiplier.  Multipliers are determined by the
    spline, so the kernel dimension equals the spline space dimension.
    Polynomials are homogenized as forms in (z, x, y), so a polynomial of
    degree <= d is a form of degree exactly d.
    """
    interior = tri.interior_edges()
    n_tri = len(tri.triangles)
    midx = _monomials_exact(3, d)
    n_poly = len(midx)
    mono_h = _monomials_exact(3, d - r - 1)
    n_mult = len(mono_h)
    ncols = n_tri * n_poly + len(interior) * n_mult

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
            power = expand_power(_int_linear_form((-(a * p.x + b * p.y), a, b)), r + 1)
            for hm, hk in mono_h.items():
                for pm, pc in power.items():
                    eqs[midx[hm[0] + pm[0], hm[1] + pm[1], hm[2] + pm[2]]][baseh + hk] = -pc
        rows.extend(eqs)
    return kernel_dim_sparse(rows, ncols)
