"""Acceptance suite: eight go/no-go checks for the whole package.

Each test prints exactly one `criterion N: PASS/FAIL` line (bypassing the
capture machinery) so the verdicts are readable in any pytest run.  All
comparisons are exact integer or rational equality; the only tolerances
are runtime budgets.
"""

import functools
import itertools
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from splinedim import dimension as dm
from splinedim import oracle as orc
from splinedim import triangulation as tg
from splinedim.power_ideal import (
    TiePair,
    colon_membership,
    hilbert_colon,
    hilbert_power_ideal,
    homology_dim,
    homology_regularity,
    in_membership,
    intersection_initdeg,
    supersmoothness_threshold,
)

SLOPE_BANK = [
    (1, -1, 2, -2, 3, -3, 4, -4),
    (Fraction(1, 2), 3, -1, Fraction(5, 2), -4, 2, Fraction(7, 3), -5),
    (2, 5, Fraction(-2, 3), 1, -3, Fraction(3, 4), -6, 7),
]

# The conftest terminal-summary hook replays these at the end of the run.
RESULTS: list[str] = []


def criterion(num: int, label: str, budget: float | None = None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - t0
                if budget is not None and elapsed >= budget:
                    raise AssertionError(
                        f"runtime budget {budget}s exceeded: {elapsed:.1f}s")
            except BaseException:
                _line(num, label, t0, ok=False)
                raise
            _line(num, label, t0, ok=True)
        return wrapper
    return deco


def _line(num: int, label: str, t0: float, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - t0
    text = f"criterion {num}: {status} ({elapsed:.2f}s) {label}"
    RESULTS.append(text)
    print(text)


# ------------------------------------------------------------ the sweep
# One shared parameter sweep feeds criteria 2, 4, and 5: all pairs
# 2 <= s <= t <= r + 1 for r <= 12, edge counts p = q = t + 2, degrees
# 0 <= d <= 3r + 4.  Every cell is nontrivial (t + 1 <= r + 2 slopes).

_SWEEP_CACHE: list | None = None


def _sweep():
    global _SWEEP_CACHE
    if _SWEEP_CACHE is not None:
        return _SWEEP_CACHE
    rows = []
    for r in range(1, 13):
        for s in range(2, r + 2):
            for t in range(s, r + 2):
                params = tg.OneTieParams(tau=(0, 1), p=t + 2, q=t + 2,
                                         s=s, t=t, trivial_slope_collision=False)
                tp = TiePair(s, t, r)
                cells = []
                for d in range(3 * r + 5):
                    lat = dm.dim_lattice(params, d, r)
                    exp = dm.dim_explicit(params, d, r)
                    prime = dm.schumaker_lower_bound_prime(t + 2, t + 2, s, t, d, r)
                    cells.append((d, lat, exp, prime))
                rows.append((r, s, t, params, tp, cells))
    _SWEEP_CACHE = rows
    return rows


# ----------------------------------------------------------- criteria


@criterion(1, "golden values from the worked examples", budget=1.0)
def test_criterion_1_golden_values():
    fig2 = tg.load_bundled("figure2")
    rep = dm.dim(fig2, 12, 8)
    assert (rep.total, rep.lower_bound, rep.correction) == (135, 134, 1)
    assert dm.f_explicit(2, 3, 9, 5) == 1
    assert homology_dim(TiePair(3, 4, 8), 12) == 1
    assert homology_regularity(TiePair(3, 4, 6)) == 8
    assert homology_regularity(TiePair(3, 4, 10)) == 15


@criterion(2, "lattice count equals explicit formula on the full sweep", budget=30.0)
def test_criterion_2_formula_vs_formula():
    checked = 0
    for r, s, t, params, tp, cells in _sweep():
        for d, lat, exp, prime in cells:
            assert lat.correction == exp.correction, (s, t, r, d)
            assert lat.total == exp.total, (s, t, r, d)
            checked += 1
    assert checked > 10_000


@criterion(3, "closed forms equal the spline rank oracle on both meshes", budget=900.0)
def test_criterion_3_oracle_equivalence():
    fig2 = tg.load_bundled("figure2")
    toh = tg.load_bundled("tohaneanu")
    cells = 0
    for r in range(1, 9):
        for d in range(min(3 * r + 2, 14) + 1):
            assert orc.dim_spline_oracle(fig2, d, r) == dm.dim(fig2, d, r).total, (d, r)
            cells += 1
    for r in range(1, 7):
        for d in range(15):
            assert orc.dim_spline_oracle(toh, d, r) == dm.dim(toh, d, r).total, (d, r)
            cells += 1
    assert cells == 192


@criterion(4, "correction dies at 2r+1 and is strictly positive just before stabilizing")
def test_criterion_4_2r_plus_1():
    for r, s, t, params, tp, cells in _sweep():
        stab = dm.stabilization_degree(params, r)
        assert stab <= 2 * r + 1, (s, t, r)
        for d, lat, exp, prime in cells:
            if d >= 2 * r + 1:
                assert lat.correction == 0, (s, t, r, d)
        d, lat, exp, prime = cells[stab - 1]
        assert d == stab - 1
        assert lat.correction > 0, (s, t, r)


@criterion(5, "supersmoothness range and initial-degree bound")
def test_criterion_5_supersmoothness():
    for r, s, t, params, tp, cells in _sweep():
        threshold = supersmoothness_threshold(tp)
        for d, lat, exp, prime in cells:
            if d <= threshold:
                assert lat.total == prime, (s, t, r, d)
        assert intersection_initdeg(tp) > Fraction(t * r, s * (t - 1)) - 1, (s, t, r)


def _gens2(slopes, mults):
    return [((1, m), a + 1) for m, a in zip(slopes, mults)]


def _power_gens3(var: int, slopes, power: int):
    out = []
    for m in slopes:
        coeffs = [0, 0, m]
        coeffs[var] = 1
        out.append((tuple(coeffs), power))
    return out


@criterion(6, "ideal-theoretic closed forms match the rank oracles", budget=600.0)
def test_criterion_6_ideal_suite():
    sequences = [seq for k in range(1, 6)
                 for seq in itertools.combinations_with_replacement(range(8), k)]
    assert len(sequences) == 1286

    # Hilbert function and monomial membership of In, all sequences, one
    # slope set at every degree, two more slope sets subsampled.
    for idx, a in enumerate(sequences):
        for bank_no, degrees in ((0, range(21)), (1, (1, 4, 9, 14, 20)),
                                 (2, (2, 6, 11, 17))):
            if bank_no > 0 and idx % 7 != bank_no:
                continue
            gens = _gens2(SLOPE_BANK[bank_no], a)
            for d in degrees:
                h = hilbert_power_ideal(a, d)
                count = sum(1 for A in range(d + 1) if in_membership(a, A, d - A))
                assert h == count, (a, d)
                assert h == orc.hilbert_ideal_oracle(gens, d), (a, d, bank_no)

    # Equal multiplicities: the one-inequality membership description.
    for s in range(1, 6):
        for r in range(8):
            a = (r,) * s
            gens = _gens2(SLOPE_BANK[0], a)
            for d in (r, r + 1, 2 * r + 1, 20):
                count = sum(1 for A in range(d + 1)
                            if s * r < s * A + (s - 1) * (d - A))
                assert count == orc.hilbert_ideal_oracle(gens, d), (s, r, d)

    # Colon ideals: Hilbert values and membership, rotating shift e.
    for idx, a in enumerate(sequences):
        if idx % 3:
            continue
        e = (sum(a) + len(a)) % 9
        gens = _gens2(SLOPE_BANK[(idx // 3) % 3], a)
        for d in (0, 2, 5, 9, 13, 17, 20):
            h = hilbert_colon(a, e, d)
            count = sum(1 for A in range(d + 1) if colon_membership(a, e, A, d - A))
            assert h == count, (a, e, d)
            assert h == orc.hilbert_colon_oracle(gens, (1, -7), e, d), (a, e, d)

    # Sum identity in three variables: In(I + J) = In(I) + In(J) for power
    # ideals I in x, z and J in y, z; checked through monomial counts with
    # inclusion-exclusion against the rank of the combined ideal.
    triples = [(s, t, r) for s in range(2, 5) for t in range(s, 6)
               for r in range(t - 1, 9)]
    for s, t, r in triples:
        gens = (_power_gens3(0, SLOPE_BANK[0][:s], r + 1)
                + _power_gens3(1, SLOPE_BANK[0][:t], r + 1))
        a1, a2 = (r,) * s, (r,) * t
        for d in (r, r + 1, r + 2, r + 4):
            in1 = in2 = both = 0
            for A in range(d + 1):
                for B in range(d + 1 - A):
                    C = d - A - B
                    m1 = in_membership(a1, A, C)
                    m2 = in_membership(a2, B, C)
                    in1 += m1
                    in2 += m2
                    both += m1 and m2
            assert in1 + in2 - both == orc.hilbert_ideal_oracle(gens, d), (s, t, r, d)

    # Intersection identity for the colon ideals: monomial description of
    # In(J1) cap In(J2) versus the paired-kernel rank.
    for s, t, r in triples:
        gens1 = _power_gens3(0, SLOPE_BANK[0][:s], r + 1)
        gens2 = _power_gens3(1, SLOPE_BANK[0][:t], r + 1)
        for ell in (0, 1, 2, 3, 5):
            dim1, dim2, dim_both = orc.colon_pair_dims(
                gens1, gens2, (0, 0, 1), r + 1, ell)
            count = 0
            c1 = c2 = 0
            for A in range(ell + 1):
                for B in range(ell + 1 - A):
                    C = ell - A - B
                    m1 = s * A + (s - 1) * C > r + 1 - s
                    m2 = t * B + (t - 1) * C > r + 1 - t
                    c1 += m1
                    c2 += m2
                    count += m1 and m2
            assert c1 == dim1 and c2 == dim2, (s, t, r, ell)
            assert count == dim_both, (s, t, r, ell)


@criterion(7, "homology oracle is independent of the slope values")
def test_criterion_7_slope_independence():
    for r in range(1, 7):
        for s in range(2, r + 2):
            for t in range(s, r + 2):
                tp = TiePair(s, t, r)
                reg = homology_regularity(tp)
                for d in range(r + 1, reg + 2):
                    vals = [orc.homology_dim_oracle(s, t, r, bank[:s], bank[:t], d)
                            for bank in SLOPE_BANK]
                    assert vals[0] == vals[1] == vals[2], (s, t, r, d)
                    assert vals[0] == homology_dim(tp, d), (s, t, r, d)


@criterion(8, "companion-mesh gap grows linearly in the smoothness order")
def test_criterion_8_lower_bound_gap():
    for k in range(1, 11):
        for d, r in ((4 * k - 2, 2 * k - 1), (4 * k, 2 * k)):
            gap = (dm.schumaker_lower_bound_prime(4, 4, 2, 2, d, r)
                   - dm.schumaker_lower_bound_params(4, 4, 2, 2, d, r))
            assert gap == k, (k, d, r)


def test_broken_src_is_a_collection_error(tmp_path):
    # the conftest hook that replays RESULTS imports this module, and so the
    # package; a syntax error there must leave pytest's exit status 2 (a
    # collection error) rather than raise again from the hook
    root = Path(__file__).resolve().parent.parent
    src = tmp_path / "src"
    shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "splinedim" / "oracle.py"
    module.write_text(module.read_text(encoding="utf-8") + "\nc = = 1\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"--rootdir={root}", str(root / "tests" / "test_oracle.py")],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    out = done.stdout + done.stderr
    assert done.returncode == 2, out
    assert "pytest_terminal_summary" not in out
