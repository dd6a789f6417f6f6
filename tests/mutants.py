"""Mutation checks that anyone can re-run: each mutant must make its tests fail.

    python tests/mutants.py

Each entry names a module under src/splinedim, a piece of text that occurs
in it exactly once, its replacement, and the pytest node ids that must fail
once the replacement is made.  The node ids are first run against an
unmutated copy of src/ and must pass there.  Then, for each entry, src/ is
copied to a temporary directory, the one replacement is made, and the node
ids run with PYTHONPATH pointing at the copy and a fixed hypothesis seed;
the entry fails unless pytest reports a failed test.  Each run starts in
an empty working directory, so no hypothesis example database carries over.

Stdlib only; pytest does not collect this file.  Exit status 0 when every
mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "12345"

# (name, module, old text, new text, node ids that must fail)
MUTANTS = [
    ("pivot-rows-yields-non-pivot", "exact.py",
     "        yield prow\n", "        yield bucket[-1]\n",
     ["tests/test_exact.py::test_pivot_rows_are_an_echelon_basis"]),
    # the one elimination step of extend_rank and the ideal oracles
    ("reduce-row-pivot-dropped", "exact.py",
     "            pivots[col] = row\n            return True\n", "            return True\n",
     ["tests/test_exact.py::test_extend_rank_counts_the_new_pivots"]),
    # the quasi-cross-cut walk
    ("walk-always-true", "triangulation.py",
     "        if not reached:\n            return False\n",
     "        if not reached:\n            pass\n",
     ["tests/test_mesh_validation.py::test_quasi_cross_cut_walk_matches_union_find"]),
    ("walk-any-slope", "triangulation.py",
     "if e.slope == tie.slope and j not in seen:", "if j not in seen:",
     ["tests/test_mesh_validation.py::test_quasi_cross_cut_walk_matches_union_find"]),
    ("walk-no-step", "triangulation.py",
     "stack.append(e.u + e.v - v)", "stack.append(v)",
     ["tests/test_mesh_validation.py::test_quasi_cross_cut_walk_matches_union_find"]),
    ("walk-skips-ties", "triangulation.py",
     "if e.slope == tie.slope and j not in seen:",
     "if e.slope == tie.slope and j not in seen and j not in tri.ties:",
     ["tests/test_mesh_validation.py::test_quasi_cross_cut_walk_matches_union_find"]),
    # the tie list build records
    ("tie-rule-one-interior-endpoint", "triangulation.py",
     "if u not in on_boundary and v not in on_boundary:",
     "if u not in on_boundary or v not in on_boundary:",
     ["tests/test_triangulation.py::test_figure2_census"]),
    # build's fused passes: the opposite-side test of the edge map walk, a fan turn
    # counted with < for <=, and each edge's triangles listed in descending order
    ("opposite-side-test-dropped", "triangulation.py",
     "elif (held[0] < 0) == (held[1] < 0):", "elif False:",
     ["tests/test_mesh_validation.py::test_invalid_meshes_agree",
      "tests/test_triangulation.py::test_build_reports_the_earliest_check"]),
    ("fan-turn-strict", "triangulation.py",
     "turns[a] += by <= ay < cy", "turns[a] += by < ay < cy",
     ["tests/test_cli.py::test_validate_bundled_figure"]),
    ("edge-triangles-descending", "triangulation.py",
     "held = (i, ~held[1]) if i >= 0 else (~i, held[1])",
     "held = (~held[1], i) if i >= 0 else (held[1], ~i)",
     ["tests/test_mesh_validation.py::test_build_output_matches_a_recomputation"]),
    ("trivial-at-r-plus-2-slopes", "dimension.py",
     "if params.t + 1 >= r + 3:", "if params.t + 1 >= r + 2:",
     ["tests/test_mesh_validation.py::test_dim_auto_matches_spline_oracle_on_generated_meshes"]),
    ("lower-bound-drops-a-vertex", "dimension.py",
     "for v in tri.interior_vertices], d, r)", "for v in tri.interior_vertices[1:]], d, r)",
     ["tests/test_mesh_validation.py::test_dim_auto_matches_spline_oracle_on_generated_meshes"]),
    # the vertex term: no excess below 2 slopes, and mu = n - 1 - nu
    ("vertex-excess-from-3-slopes", "dimension.py",
     "if n > 1:", "if n > 2:",
     ["tests/test_dimension.py::test_lower_bound_is_the_vertex_rank_sum"]),
    ("vertex-mu-plus-1", "dimension.py",
     "(n - 1 - nu)", "(n - nu)",
     ["tests/test_dimension.py::test_lower_bound_is_the_vertex_rank_sum"]),
    ("homology-level-r-plus-2", "power_ideal.py",
     "level = d - (r + 1)", "level = d - (r + 2)",
     ["tests/test_dimension.py::test_dim_at_least_both_bounds"]),
    ("homology-interval-plus-2", "power_ideal.py",
     "- max(0, level - cc - rem2 // t) + 1)", "- max(0, level - cc - rem2 // t) + 2)",
     ["tests/test_dimension.py::test_dim_rises_under_boundary_refinement"]),
    ("primitive-sign-unnormalised", "triangulation.py",
     "    if dx < 0 or (dx == 0 and dy < 0):\n        dx, dy = -dx, -dy\n", "",
     ["tests/test_dimension.py::test_dim_invariant_under_relabelling_and_affine_maps"]),
    # the conformality rows of the spline oracle
    ("sigma-always-plus-1", "oracle.py",
     "sign = -1 if (v, e.u + e.v - v) in ((t0, t1), (t1, t2), (t2, t0)) else 1", "sign = 1",
     ["tests/test_oracle.py::test_spline_oracle_matches_referee"]),
    ("tie-home-unscaled", "oracle.py",
     "base[i, k], den ** k", "base[i, k], 1",
     ["tests/test_oracle.py::test_spline_oracle_matches_referee"]),
    ("frame-disabled", "oracle.py",
     "    if not spokes or len(mine) > 1:\n", "    if True:\n",
     ["tests/test_oracle.py::test_conformality_rows_contract"]),
    ("chord-columns-dropped", "oracle.py",
     "(len(tri.triangles) + len(free) - 1 - nframed) * comb(n + 2, 2)",
     "sum(k + 1 for _, k in keys)",
     ["tests/test_oracle.py::test_spline_oracle_matches_referee"]),
    # the counted blocks: each has rank r + 1, and they start at degree k = r
    ("counted-block-rank-r", "oracle.py",
     "nframed * (n + 1 - cut) * (r + 1))", "nframed * (n + 1 - cut) * r)",
     ["tests/test_oracle.py::test_spline_oracle_matches_referee"]),
    ("counted-from-r-plus-1", "oracle.py",
     "cut = min(r, n + 1)", "cut = min(r + 1, n + 1)",
     ["tests/test_oracle.py::test_conformality_rows_contract"]),
    ("counted-from-r-minus-1", "oracle.py",
     "cut = min(r, n + 1)", "cut = max(0, min(r - 1, n + 1))",
     ["tests/test_oracle.py::test_spline_oracle_matches_referee"]),
    ("free-pivot-rows-kept", "oracle.py",
     "(t.dy, -t.dx)), s\n", "(t.dy, -t.dx)), None\n",
     ["tests/test_oracle.py::test_conformality_rows_contract"]),
    ("spoke-columns-ascending", "oracle.py",
     "down = free[v] is not None and i not in shift", "down = False",
     ["tests/test_oracle.py::test_conformality_rows_contract"]),
    # a far end's term of degree kmax lands in the next block's rows
    ("far-end-filter-inclusive", "oracle.py",
     "if ma + mb < kmax:", "if ma + mb <= kmax:",
     ["tests/test_oracle.py::test_spline_oracle_matches_referee"]),
    ("far-end-scale-dropped", "oracle.py",
     "shift[i] = (det * lat // g,", "shift[i] = (lat,",
     ["tests/test_oracle.py::test_conformality_rows_meet_the_conditions"]),
    # the closed form's integer branch tests, d <= low and d <= high; the second
    # mutant is s t (d - r) <= (s + t)(r + 1) for s t (d - r + 1) <= (s + t)(r + 1)
    ("branch-low-strict", "power_ideal.py",
     "if d * low_den <= low_num:", "if d * low_den < low_num:",
     ["tests/test_dimension.py::test_dim_explicit_branch_matches_degree_thresholds"]),
    ("branch-high-d-minus-r", "power_ideal.py",
     "if d * high_den <= high_num:", "if (d - 1) * high_den <= high_num:",
     ["tests/test_dimension.py::test_dim_explicit_branch_matches_degree_thresholds"]),
    # the one statement of both thresholds, which the branch tests and the
    # Fractions both read, so only their values can show it
    ("high-r-times-st", "power_ideal.py",
     "(r - 1) * s * t, s * t", "r * s * t, s * t",
     ["tests/test_dimension.py::test_error_precedence",
      "tests/test_acceptance.py::test_criterion_2_formula_vs_formula"]),
    # the middle branch of the closed form, past the golden tables' r <= 12
    ("f-explicit-start-plus-1", "dimension.py",
     "for i in range(start, d - r):", "for i in range(start + 1, d - r):",
     ["tests/test_dimension.py::test_f_explicit_matches_lattice_count_to_r_500"]),
    ("f-explicit-summand-plus-2", "dimension.py",
     "total += upper - lower + 1", "total += upper - lower + 2",
     ["tests/test_dimension.py::test_f_explicit_matches_lattice_count_to_r_500"]),
    ("f-explicit-upper-r-plus-1", "dimension.py",
     "+ r * s) // s", "+ (r + 1) * s) // s",
     ["tests/test_dimension.py::test_f_explicit_matches_lattice_count_to_r_500"]),
    # the powers kept per mesh and r: lifts, and far-end lists, made at the
    # first r called and read at every r after it
    ("lifts-keyed-by-form-alone", "oracle.py",
     "    signed, far = powers[r]\n", "    signed, far = next(iter(powers.values()))[0], powers[r][1]\n",
     ["tests/test_oracle.py::test_warm_rows_equal_cold_rows"]),
    ("far-lists-keyed-by-form-alone", "oracle.py",
     "    signed, far = powers[r]\n", "    signed, far = powers[r][0], next(iter(powers.values()))[1]\n",
     ["tests/test_oracle.py::test_warm_rows_equal_cold_rows"]),
    # whole powers of linear forms, for the ideal oracles and the spline lifts:
    # each binomial takes the exponent left, and a zero coefficient caps its
    # variable at 0
    ("power-binomial-from-n", "oracle.py",
     "comb(left, e)", "comb(n, e)",
     ["tests/test_oracle.py::test_power_expands_form"]),
    ("power-keeps-zero-terms", "oracle.py",
     "if c else 1 for c in form]", "if c else n + 1 for c in form]",
     ["tests/test_oracle.py::test_power_expands_form"]),
    # an unframed far end cut at degree n loses power n's terms of degree n
    ("unframed-far-cut-short", "oracle.py",
     "r if framed else n + 1)", "r if framed else n)",
     ["tests/test_oracle.py::test_oracle_morgan_scott_special_position",
      "tests/test_oracle.py::test_spline_oracle_on_interior_jittered_grids"]),
    # the ideal oracles' frame and covered columns
    ("ideal-frame-disabled", "oracle.py",
     "    for form in chain(candidates, units):\n", "    for form in units:\n",
     ["tests/test_oracle.py::test_ideal_frame_contract"]),
    # a generator x_k^a covers exponents above a, not from a on
    ("ideal-cover-off-by-one", "oracle.py",
     "[c - 1 for c in caps]", "list(caps)",
     ["tests/test_oracle.py::test_ideal_oracles_match_full_elimination_pins"]),
    # the second quotient built from both ideals' generators, so with the first's cover too
    ("ideal-pair-shared-cover", "oracle.py",
     "for gens in (g1, g2))", "for gens in (g1, g1 + g2))",
     ["tests/test_oracle.py::test_ideal_oracles_match_full_elimination_pins"]),
    ("ideal-cover-not-least", "oracle.py",
     "caps[support[0]] = min(caps[support[0]], power)", "caps[support[0]] = power",
     ["tests/test_oracle.py::test_ideal_oracles_match_full_elimination_pins"]),
]


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, node_ids: list[str], workdir: Path) -> tuple[int, str]:
    """pytest's exit status and last output line on the node ids, importing splinedim from src."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           f"--hypothesis-seed={SEED}", f"--rootdir={ROOT}", *(str(ROOT / n) for n in node_ids)]
    done = subprocess.run(cmd, cwd=workdir, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    return done.returncode, (done.stdout.strip().splitlines() or [""])[-1]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        node_ids = sorted({n for *_, ids in MUTANTS for n in ids})
        code, summary = _pytest(_copy_src(tmp / "clean"), node_ids, tmp / "clean")
        if code != 0:
            print(f"unmutated: FAIL ({summary})")
            return 1
        print(f"unmutated: pass ({summary})")
        survivors = []
        for name, module, old, new, ids in MUTANTS:
            src = _copy_src(tmp / name)
            path = src / "splinedim" / module
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: old text occurs {text.count(old)} times in {module}, not once")
                survivors.append(name)
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            # only a failing test kills: an import or collection error does not
            code, summary = _pytest(src, ids, tmp / name)
            killed = code == 1 and " failed" in summary
            print(f"{name}: {'killed' if killed else 'SURVIVED'} ({summary})")
            if not killed:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants not killed: {survivors}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
