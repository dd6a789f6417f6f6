"""Rational parsing, guarded binomials, and exact rank/kernel computations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from splinedim.exact import (
    binom,
    extend_rank,
    format_rational,
    kernel_dim_sparse,
    parse_rational,
    pivot_rows,
    rank_sparse,
    reduce_row,
)


def _int_rows(rows):
    """Dense rational rows as sparse integer rows; row scaling keeps the rank."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append({j: x.numerator * (scale // x.denominator) for j, x in enumerate(row) if x})
    return out


def rank(rows):
    return rank_sparse(_int_rows(rows))


def kernel_dim(rows, ncols=None):
    return kernel_dim_sparse(_int_rows(rows), len(rows[0]) if ncols is None else ncols)


def test_binom_basic_values():
    assert binom(5, 2) == 10
    assert binom(1, 2) == 0
    assert binom(-3, 2) == 0
    assert binom(0, 0) == 1
    assert binom(7, 0) == 1
    assert binom(7, 7) == 1
    assert binom(7, 8) == 0
    assert binom(4, -1) == 0


@given(st.integers(-5, 20), st.integers(-5, 20))
def test_binom_pascal(a, b):
    # Pascal's rule holds everywhere on this window except (0, 0), where
    # binom(0,0) = 1 but both shifted terms vanish.
    if (a, b) == (0, 0):
        assert binom(0, 0) == 1
        assert binom(-1, -1) + binom(-1, 0) == 0
    else:
        assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


@given(st.integers(0, 30), st.integers(0, 30))
def test_binom_matches_factorial_definition(a, b):
    import math

    if b <= a:
        assert binom(a, b) == math.factorial(a) // (math.factorial(b) * math.factorial(a - b))
    else:
        assert binom(a, b) == 0


def test_parse_rational_forms():
    assert parse_rational(3) == 3
    assert parse_rational("-7") == -7
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-9/6") == Fraction(-3, 2)
    assert parse_rational(Fraction(2, 5)) == Fraction(2, 5)
    assert parse_rational(" 3/4 ") == Fraction(3, 4)
    assert parse_rational("007/010") == Fraction(7, 10)
    assert parse_rational("-0") == 0


# non-ASCII decimal digits, which int() would read: Arabic-Indic, fullwidth, mathematical;
# then what int() reads, or reads once split at "/", that is no rational literal here
@pytest.mark.parametrize("bad", [1.5, "3.5", "1/0", "a/b", "", "1/-2", True, None,
                                 "\u0663/\u0664", "\uff13", "\U0001d7d9",
                                 "+3", "1_000", "3/00", "- 3", "3 /4"])
def test_parse_rational_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        parse_rational(bad)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_format_parse_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(format_rational(q)) == q


def test_format_integer_has_no_slash():
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(Fraction(-3, 1)) == "-3"
    assert format_rational(Fraction(5, 3)) == "5/3"


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False, None, "0.5"])
def test_format_rational_rejects(bad):
    with pytest.raises(ValueError):
        format_rational(bad)


def test_kernel_dim_known_matrices():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_dim(ident) == 0
    zero = [[0, 0, 0], [0, 0, 0]]
    assert kernel_dim(zero) == 3
    dependent = [[1, 2, 3], [2, 4, 6]]
    assert rank(dependent) == 1
    assert kernel_dim(dependent) == 2


def test_rank_fraction_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]
    assert rank(m) == 2
    # proportional rows collapse to rank 1
    p = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert rank(p) == 1


def _random_int_matrix(rng, nrows, ncols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_equals_transpose_rank():
    rng = random.Random(42)
    for _ in range(40):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = _random_int_matrix(rng, nr, nc)
        cols = [list(col) for col in zip(*rows)]
        assert rank(rows) == rank(cols)


def test_rank_plus_kernel_is_column_count():
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        rows = _random_int_matrix(rng, nr, nc)
        assert rank(rows) + kernel_dim(rows) == nc


def test_rank_bounded_by_shape():
    rng = random.Random(99)
    for _ in range(30):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        m = _random_int_matrix(rng, nr, nc)
        assert 0 <= rank(m) <= min(nr, nc)


def test_rank_invariant_under_row_scaling():
    rng = random.Random(4)
    for _ in range(25):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = _random_int_matrix(rng, nr, nc)
        scaled = [[Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7])) * v
                   for v in row] for row in rows]
        assert rank(rows) == rank(scaled)


def test_sparse_rank_agrees_with_dense():
    rng = random.Random(13)
    for _ in range(30):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        rows = _random_int_matrix(rng, nr, nc, -4, 4)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        expected = _referee_rank(sparse, nc)
        assert rank_sparse(sparse) == expected
        assert kernel_dim_sparse(sparse, nc) == nc - expected


def test_sparse_rank_empty():
    assert rank_sparse([]) == 0
    assert kernel_dim_sparse([], 5) == 5
    assert kernel_dim_sparse([{}], 4) == 4
    # explicit zero entries are no entries
    assert rank_sparse([{0: 0}]) == 0
    assert kernel_dim_sparse([{0: 0}], 1) == 1
    assert rank_sparse([{0: 0}, {0: 0}]) == 0
    assert rank_sparse([{0: 0, 1: 1}, {1: 2}]) == 1


@pytest.mark.parametrize("rows, ncols", [
    ([{0: 1}, {1: 1}, {2: 1}], 2),
    ([{0: 1, 4: 2}], 4),
    ([{-1: 1}], 3),
    ([{0: 1}], 0),
    ([{3: 1, 1: 2}, {}, {-2: 5}], 3),
    # a column is named by its key, even when the entry is zero
    ([{1: 1}, {5: 0}], 2),
])
def test_kernel_dim_sparse_rejects_columns_outside_range(rows, ncols):
    cols = [c for row in rows for c in row]
    with pytest.raises(ValueError) as info:
        kernel_dim_sparse(rows, ncols)
    assert str(info.value) == f"row columns {min(cols)}..{max(cols)} outside 0..{ncols - 1}"


def test_empty_matrix_with_declared_columns():
    assert rank([]) == 0
    assert kernel_dim([], ncols=4) == 4


def test_rank_wide_vandermonde():
    # Vandermonde rows at distinct nodes are independent, big integers included
    nodes = [1, 2, 3, 5, 8, 13]
    rows = [[x**k for k in range(6)] for x in nodes]
    assert rank(rows) == 6


def _referee_rank(rows, ncols):
    """Rank by dense Fraction row reduction; shares no code with rank_sparse."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][j] / m[rank][j]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


_dense = st.integers(1, 8).flatmap(
    lambda nc: st.lists(st.lists(st.integers(-3, 3), min_size=nc, max_size=nc), max_size=8)
    .map(lambda rows: (rows, nc)))


@given(_dense)
def test_sparse_rank_matches_referee_with_explicit_zeros(dense):
    rows, nc = dense
    sparse = [dict(enumerate(row)) for row in rows]
    expected = _referee_rank(sparse, nc)
    assert rank_sparse(sparse) == expected
    assert kernel_dim_sparse(sparse, nc) == nc - expected


@given(_dense, st.data())
def test_sparse_rank_matches_referee_on_huge_entries(dense, data):
    # rows scaled by up to 5 * 2**600: entries and reduced rows stay past 600 bits,
    # and the rank must not depend on their size
    rows, nc = dense
    scales = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 5]),
                                min_size=len(rows), max_size=len(rows)))
    sparse = [{j: k * 2**600 * v for j, v in enumerate(row) if v} for row, k in zip(rows, scales)]
    assert rank_sparse(sparse) == _referee_rank([dict(enumerate(row)) for row in rows], nc)


@given(_dense)
def test_sparse_rank_leaves_input_rows_unchanged(dense):
    rows, nc = dense
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    before = [dict(row) for row in sparse]
    rank_sparse(sparse)
    kernel_dim_sparse(sparse, nc)
    assert sparse == before


@given(_dense)
def test_pivot_rows_are_an_echelon_basis(dense):
    rows, nc = dense
    sparse = [dict(enumerate(row)) for row in rows]
    before = [dict(row) for row in sparse]
    pivots = list(pivot_rows(sparse))
    leads = [min(row) for row in pivots]
    assert all(row[min(row)] for row in pivots)
    assert len(set(leads)) == len(leads)
    assert len(pivots) == _referee_rank(sparse, nc)
    assert _referee_rank(pivots + sparse, nc) == len(pivots)
    assert sparse == before


_dense_pair = st.integers(1, 8).flatmap(
    lambda nc: st.tuples(*[st.lists(st.lists(st.integers(-3, 3), min_size=nc, max_size=nc),
                                    max_size=8)] * 2, st.just(nc)))


@given(_dense_pair)
def test_extend_rank_counts_the_new_pivots(case):
    base, extra, nc = case
    base_rows = [dict(enumerate(row)) for row in base]
    rows = [dict(enumerate(row)) for row in extra]
    before = ([dict(row) for row in base_rows], [dict(row) for row in rows])
    # reduce_row grows a basis one row at a time: it stores a pivot at the
    # row's new leading column exactly when the rank grows, and never changes
    # a stored one
    pivots = {}
    for k, row in enumerate(base_rows):
        stored = {col: dict(prow) for col, prow in pivots.items()}
        grew = rank_sparse(base_rows[:k + 1]) > rank_sparse(base_rows[:k])
        assert reduce_row(row, pivots) == grew
        assert len(pivots) == len(stored) + grew
        assert {col: pivots[col] for col in stored} == stored
        assert all(min(prow) == col and all(prow.values()) for col, prow in pivots.items())
    for basis in (list(pivot_rows(base_rows)), list(pivots.values())):
        read = []

        def feed():
            for row in rows:
                read.append(row)
                yield row

        kept = [dict(row) for row in basis]
        assert extend_rank(basis, feed(), nc) == rank_sparse(basis + rows) - len(basis)
        # rows are read until the basis and the rows read so far fill every column, and no further
        full = next((k for k in range(len(rows) + 1) if rank_sparse(basis + rows[:k]) == nc),
                    len(rows))
        assert len(read) == full
        assert basis == kept
    assert (base_rows, rows) == before


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: kernel_dim_sparse([], -1), ValueError, id="kernel_dim_sparse-negative-ncols"),
    pytest.param(lambda: kernel_dim_sparse([], 2.5), ValueError, id="kernel_dim_sparse-float-ncols"),
    pytest.param(lambda: kernel_dim_sparse([], True), ValueError, id="kernel_dim_sparse-bool-ncols"),
])
def test_argument_contracts(call, error):
    with pytest.raises(error):
        call()
