"""Exact rational scalars and fraction-free integer linear algebra."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[int, Fraction, str]

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")

# Row entries above this bit length trigger a content-gcd strip.
_STRIP_BITS = 512


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an int or a "num/den" string into a Fraction.

    Floats are rejected outright; every quantity in this package is exact.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"malformed rational literal: {value!r}")
        num, _, den = text.partition("/")
        if den:
            if int(den) == 0:
                raise ValueError(f"zero denominator: {value!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: RationalLike) -> str:
    """Render as "num" or "num/den", never as a decimal."""
    q = parse_rational(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def binom(a: int, b: int) -> int:
    """Binomial coefficient under the cutoff convention: 0 unless 0 <= b <= a."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def rank_sparse(rows: Sequence[dict[int, int]]) -> int:
    """Rank over Q of integer rows given as {column: value} dicts.

    Fraction-free elimination: each update combines two integer rows with the
    gcd of the two cofactors divided out first, so entries stay integral with
    no rational arithmetic.  Columns are processed in ascending order and the
    pivot row in a column is chosen to keep entries small (unit pivots first).
    Pivot choice affects growth only, never the resulting rank.
    """
    work: list[dict[int, int] | None] = [dict(r) for r in rows if r]
    live = len(work)
    if live == 0:
        return 0
    colrows: dict[int, set[int]] = {}
    for rid, row in enumerate(work):
        for c in row:  # type: ignore[union-attr]
            colrows.setdefault(c, set()).add(rid)

    rank = 0
    for col in sorted(colrows):
        if live == 0:
            break
        cand = [rid for rid in colrows[col] if work[rid] is not None and col in work[rid]]
        if not cand:
            continue
        piv = min(cand, key=lambda rid: (abs(work[rid][col]).bit_length(), len(work[rid])))
        prow = work[piv]
        pval = prow[col]
        for rid in cand:
            if rid == piv:
                continue
            row = work[rid]
            v = row[col]
            g = math.gcd(pval, v)
            mr = pval // g
            mv = v // g
            if mr == 1:
                new = dict(row)
            elif mr == -1:
                new = {c2: -w for c2, w in row.items()}
            else:
                new = {c2: mr * w for c2, w in row.items()}
            maxbits = 0
            for c2, w in prow.items():
                x = new.get(c2, 0) - mv * w
                if x:
                    new[c2] = x
                    if x.bit_length() > maxbits:
                        maxbits = x.bit_length()
                elif c2 in new:
                    del new[c2]
            if not new:
                work[rid] = None
                live -= 1
                continue
            if maxbits > _STRIP_BITS:
                content = 0
                for w in new.values():
                    content = math.gcd(content, w)
                    if content == 1:
                        break
                if content > 1:
                    new = {c2: w // content for c2, w in new.items()}
            work[rid] = new
            for c2 in new:
                colrows.setdefault(c2, set()).add(rid)
        work[piv] = None
        live -= 1
        rank += 1
    return rank


def kernel_dim_sparse(rows: Sequence[dict[int, int]], ncols: int) -> int:
    """Nullity of the system given by sparse integer rows over ncols unknowns."""
    if ncols < 0:
        raise ValueError("negative column count")
    return ncols - rank_sparse(rows)
