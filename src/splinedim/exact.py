"""Exact rational scalars and fraction-free integer linear algebra."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[int, Fraction, str]


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
    A string, once stripped of surrounding whitespace, must be an optional
    "-", ASCII digits, and optionally "/" and more ASCII digits.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        digits = num[1:] if num[:1] == "-" else num
        # str.isdigit alone would take non-ASCII digits, which int() reads
        if not (digits.isascii() and digits.isdigit()
                and (not slash or den.isascii() and den.isdigit())):
            raise ValueError(f"malformed rational literal: {value!r}")
        if slash:
            q = int(den)
            if q == 0:
                raise ValueError(f"zero denominator: {value!r}")
            return Fraction(int(num), q)
        return Fraction(int(num))
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: RationalLike) -> str:
    """Render as "num" or "num/den", never as a decimal."""
    return str(parse_rational(value))


def binom(a: int, b: int) -> int:
    """Binomial coefficient under the cutoff convention: 0 unless 0 <= b <= a."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """(p/g)*row - (v/g)*prow, g the gcd of the leading entries p = prow[col] and
    v = row[col]: the row is updated in place when p/g is 1, otherwise a new one is made."""
    pval = prow[col]
    g = math.gcd(pval, row[col])
    mr, mv = pval // g, row[col] // g
    new = row if mr == 1 else {c: mr * w for c, w in row.items()}
    for c, w in prow.items():
        x = new.get(c, 0) - mv * w
        if x:
            new[c] = x
        elif c in new:
            del new[c]
    return new


def pivot_rows(rows: Sequence[dict[int, int]]) -> Iterator[dict[int, int]]:
    """Echelon basis over Q of integer {column: value} rows, one pivot row at a time.

    Each row is copied once, without its zero entries (the caller's rows are
    never mutated), into a bucket keyed by its leading column.  Columns are
    swept in ascending order, so the bucket of the current column holds every
    live row that leads there.  Its pivot has the shortest leading entry, then
    the fewest entries, and is yielded as soon as it is chosen; it is never
    changed afterwards.  Every other row is eliminated against it (see
    _eliminate) and moves to its new leading column's bucket.  Pivot choice
    affects growth only.
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
        for row in bucket:
            if row is not prow:
                new = _eliminate(row, prow, col)
                if new:
                    buckets.setdefault(min(new), []).append(new)


def reduce_row(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> bool:
    """Reduce a copy of row into pivots, rows keyed by their distinct leading columns.

    The copy, without its zero entries, is eliminated against the pivot of its
    leading column (see _eliminate) until it is zero, and False is returned, or
    leads where no pivot is; there it is stored as a pivot, and True is
    returned.  Stored pivots never change, and row is not mutated.
    """
    row = {c: v for c, v in row.items() if v}
    while row:
        col = min(row)
        if col not in pivots:
            pivots[col] = row
            return True
        row = _eliminate(row, pivots[col], col)
    return False


def extend_rank(basis: Sequence[dict[int, int]], rows: Iterable[dict[int, int]],
                ncols: int) -> int:
    """rank(basis + rows) - len(basis), for any basis whose rows lead at
    distinct columns, such as pivot_rows yields.

    Each row is reduced into the basis (see reduce_row), so the pivots of the
    basis never change and no input row is mutated.  Rows are read only until
    the pivots fill all ncols columns.
    """
    pivots = {min(row): row for row in basis}
    if len(pivots) < ncols:
        for row in rows:
            if reduce_row(row, pivots) and len(pivots) == ncols:
                break
    return len(pivots) - len(basis)


def rank_sparse(rows: Sequence[dict[int, int]]) -> int:
    """Rank over Q of integer {column: value} rows: the pivot rows, counted and not kept."""
    return sum(1 for _ in pivot_rows(rows))


def kernel_dim_sparse(rows: Sequence[dict[int, int]], ncols: int) -> int:
    """Nullity of sparse integer rows whose columns all lie in 0..ncols-1."""
    check_ints("ncols", ncols, low=0)
    # with no column at all, lo = 0 and hi = -1 pass for every ncols >= 0
    lo = min((min(row) for row in rows if row), default=0)
    hi = max((max(row) for row in rows if row), default=-1)
    if lo < 0 or hi >= ncols:
        raise ValueError(f"row columns {lo}..{hi} outside 0..{ncols - 1}")
    return ncols - rank_sparse(rows)
