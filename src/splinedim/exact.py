"""Exact rational scalars and fraction-free integer linear algebra."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Sequence, Union

RationalLike = Union[int, Fraction, str]

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def check_ints(names: str, *values: object, low: int | None = None) -> None:
    """Raise ValueError unless every value is an int, and at least low when low is given.

    A bool is refused: True is no degree, index or count.  names labels the
    values in the message, e.g. check_ints("d and r", d, r, low=0).  Every
    value's type is checked before any value's bound.
    """
    for value in values:
        if type(value) is bool or not isinstance(value, int):
            kind = "an integer" if len(values) == 1 else "integers"
            raise ValueError(f"{names} must be {kind}, got {', '.join(map(repr, values))}")
    if low is not None:
        for value in values:
            if value < low:
                raise ValueError(f"{names} must be at least {low}, "
                                 f"got {', '.join(map(repr, values))}")


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


def pivot_rows(rows: Sequence[dict[int, int]]) -> Iterator[dict[int, int]]:
    """Echelon basis over Q of integer {column: value} rows, one pivot row at a time.

    Each row is copied once, without its zero entries (the caller's rows are
    never mutated), into a bucket keyed by its leading column.  Columns are
    swept in ascending order, so the bucket of the current column holds every
    live row that leads there.  Its pivot has the shortest leading entry, then
    the fewest entries, and is yielded as soon as it is chosen; it is never
    changed afterwards.  Every other row becomes (p/g)*row - (v/g)*pivot, g the
    gcd of the two leading entries p and v (in place when p/g is 1), and moves
    to its new leading column's bucket.  Pivot choice affects growth only.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    cols: set[int] = set()
    for r in rows:
        row = {c: v for c, v in r.items() if v}
        if row:
            cols.update(row)
            buckets.setdefault(min(row), []).append(row)
    for col in sorted(cols):
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        prow = min(bucket, key=lambda row: (abs(row[col]).bit_length(), len(row)))
        yield prow
        pval = prow[col]
        for row in bucket:
            if row is prow:
                continue
            g = math.gcd(pval, row[col])
            mr, mv = pval // g, row[col] // g
            new = row if mr == 1 else {c2: mr * w for c2, w in row.items()}
            for c2, w in prow.items():
                x = new.get(c2, 0) - mv * w
                if x:
                    new[c2] = x
                elif c2 in new:
                    del new[c2]
            if new:
                buckets.setdefault(min(new), []).append(new)


def rank_sparse(rows: Sequence[dict[int, int]]) -> int:
    """Rank over Q of integer {column: value} rows: the pivot rows, counted and not kept."""
    return sum(1 for _ in pivot_rows(rows))


def kernel_dim_sparse(rows: Sequence[dict[int, int]], ncols: int) -> int:
    """Nullity of sparse integer rows whose columns all lie in 0..ncols-1."""
    check_ints("ncols", ncols, low=0)
    cols = {c for row in rows for c in row}
    if cols and (min(cols) < 0 or max(cols) >= ncols):
        raise ValueError(f"row columns {min(cols)}..{max(cols)} outside 0..{ncols - 1}")
    return ncols - rank_sparse(rows)
