"""Referee rows for the ideal oracles: every generator's multiples, unframed.

This is the row builder the ideal oracles in splinedim.oracle used before
they read each ideal in a frame of its own generators.  It works in the
input coordinates, expands every power with math.comb itself and enumerates
monomials with itertools, so it shares no frame, cover or power code with
the oracles: only the input parsing (_int_linear_form) and, in the tests
that use it, the rank engine.  pytest does not collect this module; tests
import it.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, prod
from typing import Sequence

from splinedim.oracle import _int_linear_form


def monomials(nvars: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree d from sorted combinations, largest first."""
    if d < 0:
        return []
    return sorted((tuple(bars.count(v) for v in range(nvars))
                   for bars in combinations_with_replacement(range(nvars), d)), reverse=True)


def expand_power(form: Sequence[int], n: int) -> dict[tuple[int, ...], int]:
    """The nonzero terms of form^n by the multinomial theorem, each
    multinomial coefficient a product of binomials."""
    terms = {}
    for expo in monomials(len(form), n):
        rem, coeff = n, 1
        for k in expo:
            coeff *= comb(rem, k)
            rem -= k
        coeff *= prod(c ** k for c, k in zip(form, expo))
        if coeff:
            terms[expo] = coeff
    return terms


def multiple_rows(generators: Sequence[tuple[Sequence, int]], d: int,
                  nvars: int) -> list[dict[int, int]]:
    """Every generator's degree-d multiples as integer rows, in one list.

    Columns are the degree-d monomials in descending lex order; a generator
    of exponent above d has no multiples.
    """
    midx = {mono: k for k, mono in enumerate(monomials(nvars, d))}
    rows = []
    for coeffs, power in generators:
        if power <= d:
            gen = expand_power(_int_linear_form(coeffs), power)
            rows += [{midx[tuple(a + b for a, b in zip(mono, pm))]: pc for pm, pc in gen.items()}
                     for mono in monomials(nvars, d - power)]
    return rows
