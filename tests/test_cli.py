"""End-to-end checks of the command line surface, run in process."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from splinedim import cli, dimension, oracle
from splinedim import triangulation as tg

import conftest


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ validate

def test_validate_bundled_figure(capsys):
    code, out, err = run(capsys, "validate", "figure2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "vertices: 11 (boundary 9, interior 2)"
    assert lines[1] == "triangles: 11"
    assert lines[2] == "edges: 21 (boundary 9, interior 12)"
    assert lines[3] == "quasi-cross-cut: no"
    assert lines[4] == "1 totally interior edge; interior vertices: 2"


def test_validate_bundled_with_extension(capsys):
    code, out, _ = run(capsys, "validate", "tohaneanu.mesh")
    assert code == 0
    assert "vertices: 8 (boundary 6, interior 2)" in out
    assert "1 totally interior edge" in out


def test_validate_mesh_file(tmp_path, capsys):
    path = tmp_path / "square.mesh"
    path.write_text(tg.dump_mesh(conftest.square_pair()))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "quasi-cross-cut: yes" in out
    assert "0 totally interior edges" in out


# ----------------------------------------------------------------- dim

def test_dim_figure_lattice(capsys):
    code, out, _ = run(capsys, "dim", "figure2", "--r", "8", "--d", "12")
    assert code == 0
    assert out.strip() == "L=134 H1=1 dim=135 method=lattice"


def test_dim_oracle_method_agrees(capsys):
    code, out, _ = run(capsys, "dim", "figure2", "--r", "8", "--d", "12",
                       "--method", "oracle")
    assert code == 0
    assert out.strip() == "L=134 H1=1 dim=135 method=oracle"


def test_dim_trivial_case_auto(capsys):
    code, out, _ = run(capsys, "dim", "figure2", "--r", "2", "--d", "7")
    assert code == 0
    assert "method=trivial-case" in out


def test_dim_lattice_on_trivial_mesh_fails(capsys):
    code, out, err = run(capsys, "dim", "figure2", "--r", "2", "--d", "7",
                         "--method", "lattice")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("route, message", [
    ("homology_dim", "lattice 136 vs explicit 135"),
    ("_middle_sum", "lattice 135 vs explicit 136"),
])
def test_dim_route_disagreement_exits_1(capsys, monkeypatch, route, message):
    # d = 12 lies in the middle branch at r = 8, so both routes run and one is off by one
    real = getattr(dimension, route)
    monkeypatch.setattr(dimension, route, lambda *args: real(*args) + 1)
    code, out, err = run(capsys, "dim", "figure2", "--r", "8", "--d", "12")
    assert (code, out) == (1, "")
    assert err == f"error: internal disagreement at d=12, r=8: {message}\n"


def test_module_entry_point():
    # README documents python -m splinedim.cli; run it as a separate interpreter
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "splinedim.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    done = module("dim", "figure2", "--r", "8", "--d", "12")
    assert (done.returncode, done.stdout) == (0, "L=134 H1=1 dim=135 method=lattice\n")
    done = module("dim", "figure2", "--r", "-1", "--d", "3")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


# --------------------------------------------------------------- table

def test_table_csv_shape(capsys):
    code, out, _ = run(capsys, "table", "tohaneanu", "--r", "2", "--dmax", "8")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "d", "L", "H1", "dim", "method"]
    assert len(rows) == 10
    for d, row in enumerate(rows[1:]):
        assert row[0] == "2" and row[1] == str(d)
        assert int(row[2]) + int(row[3]) == int(row[4])


def test_table_verify_clean(capsys):
    code, out, _ = run(capsys, "table", "tohaneanu", "--r", "1", "--dmax", "5",
                       "--verify")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "d", "L", "H1", "dim", "method", "oracle", "match"]
    assert all(row[7] == "yes" and row[6] == row[4] for row in rows[1:])


def test_table_verify_mismatch_exit(capsys, monkeypatch):
    monkeypatch.setattr("splinedim.oracle.dim_spline_oracle",
                        lambda tri, d, r, allow_large=False: 999)
    code, out, _ = run(capsys, "table", "tohaneanu", "--r", "1", "--dmax", "2",
                       "--verify")
    assert code == 3
    assert ",no" in out


def test_table_oracle_verify_runs_the_oracle_once_per_row(capsys, monkeypatch):
    calls = []
    real = oracle.dim_spline_oracle

    def counted(tri, d, r, allow_large=False):
        calls.append(d)
        return real(tri, d, r, allow_large=allow_large)

    monkeypatch.setattr(oracle, "dim_spline_oracle", counted)
    code, out, _ = run(capsys, "table", "tohaneanu", "--r", "1", "--dmax", "5",
                       "--method", "oracle", "--verify")
    assert code == 0
    assert calls == list(range(6))
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[5] == "oracle" and row[6] == row[4] and row[7] == "yes" for row in rows[1:])


def test_table_tsv_and_pretty(capsys):
    code, out, _ = run(capsys, "table", "tohaneanu", "--r", "1", "--dmax", "2",
                       "--format", "tsv")
    assert code == 0 and out.splitlines()[0] == "r\td\tL\tH1\tdim\tmethod"
    code, out, _ = run(capsys, "table", "tohaneanu", "--r", "1", "--dmax", "2",
                       "--format", "pretty")
    assert code == 0
    header = out.splitlines()[0]
    assert header.split() == ["r", "d", "L", "H1", "dim", "method"]


def test_table_negative_dmax_exits_1(capsys):
    # a table with no rows is refused, as dim refuses a negative degree
    code, out, err = run(capsys, "table", "figure2", "--r", "2", "--dmax", "-1")
    assert (code, out, err) == (1, "", "error: dmax must be at least 0, got -1\n")
    # the mesh is still loaded first, so a missing file exits 2
    code, out, _ = run(capsys, "table", "/no/such/file.mesh", "--r", "2", "--dmax", "-1")
    assert (code, out) == (2, "")


# ---------------------------------------------------------- regularity

def test_regularity_figure_r6(capsys):
    code, out, _ = run(capsys, "regularity", "figure2", "--r", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s=3 t=4 r=6"
    assert lines[1] == "stabilization degree: 9"
    assert lines[2] == "homology regularity: 8"
    assert lines[3] == "supersmoothness threshold: 26/3"
    assert lines[4] == "congruence case: no"


def test_regularity_congruent_case(capsys):
    # s = t = 2 with even r: (r + 1) % 2 == 1 == s - 1 on both sides
    code, out, _ = run(capsys, "regularity", "tohaneanu", "--r", "2")
    assert code == 0
    assert "congruence case: yes" in out
    assert "stabilization degree: 5" in out
    assert "homology regularity: 4" in out


def test_regularity_trivial_many_slopes(capsys):
    code, out, _ = run(capsys, "regularity", "figure2", "--r", "2")
    assert code == 0
    assert out.strip() == ("trivial case: an endpoint carries at least "
                           "r + 3 = 5 slopes, dim = L for all d")


def test_regularity_negative_r_exits_1(capsys):
    # dim refuses r < 0, and regularity must not call it a trivial case
    code, out, err = run(capsys, "regularity", "figure2", "--r", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_regularity_quasi_cross_cut(tmp_path, capsys):
    path = tmp_path / "cc.mesh"
    path.write_text(tg.dump_mesh(conftest.cross_cut_square()))
    code, out, _ = run(capsys, "regularity", str(path), "--r", "4")
    assert code == 0
    assert out.strip() == "trivial case: quasi-cross-cut mesh, dim = L for all d"


def test_slope_collision_mesh(tmp_path, capsys):
    path = tmp_path / "collision.mesh"
    path.write_text(tg.dump_mesh(conftest.slope_collision_star()))
    code, out, _ = run(capsys, "regularity", str(path), "--r", "4")
    assert code == 0
    assert out.strip() == "trivial case: quasi-cross-cut mesh, dim = L for all d"
    code, out, err = run(capsys, "dim", str(path), "--r", "4", "--d", "10",
                         "--method", "lattice")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_regularity_two_ties_rejected(tmp_path, capsys):
    path = tmp_path / "strip.mesh"
    path.write_text(tg.dump_mesh(conftest.two_tie_strip()))
    code, _, err = run(capsys, "regularity", str(path), "--r", "3")
    assert code == 1
    assert "totally interior edges" in err


# ---------------------------------------------------------- exit codes

def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.mesh")
    assert code == 2 and err.startswith("error:")


def test_missing_path_does_not_fall_back_to_bundled(capsys):
    # only a bare name, with no directory part, names a bundled mesh
    code, out, err = run(capsys, "validate", "/no/such/dir/figure2.mesh")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.mesh"
    path.write_text("not a mesh at all {")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and err.startswith("error:")


def test_float_coordinates_exit_2(tmp_path, capsys):
    path = tmp_path / "floaty.mesh"
    path.write_text(json.dumps({"vertices": [[0.5, 0], [1, 0], [0, 1]],
                                "triangles": [[0, 1, 2]]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and err.startswith("error:")


def test_nan_literal_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.mesh"
    path.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]], "note": NaN}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_undecodable_bytes_exit_2(tmp_path, capsys):
    path = tmp_path / "latin.mesh"
    path.write_bytes(b'{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]], '
                     b'"note": "\xff\xfe"}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_invalid_geometry_exit_1(tmp_path, capsys):
    # parses fine, fails validation: vertex 3 belongs to no triangle
    path = tmp_path / "island.mesh"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1], [5, 5]],
                                "triangles": [[0, 1, 2]]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1 and err.startswith("error:")


# MeshError subclasses raised outside build(): by affine_transform,
# slope_count and extract_one_tie_params
_NOT_FROM_BUILD = {tg.SingularMap, tg.NotInteriorVertex, tg.NoTotallyInteriorEdge,
                   tg.MultipleTotallyInteriorEdges}


def test_invalid_meshes_cover_every_build_error():
    covered = {cls for *_, cls in conftest.INVALID_MESHES.values()}
    assert covered == set(tg.MeshError.__subclasses__()) - _NOT_FROM_BUILD


@pytest.mark.parametrize("name", sorted(conftest.INVALID_MESHES))
def test_every_build_error_exits_1(tmp_path, capsys, name):
    verts, tris, cls = conftest.INVALID_MESHES[name]
    text = json.dumps({"vertices": [list(v) for v in verts], "triangles": [list(t) for t in tris]})
    with pytest.raises(cls):
        tg.parse_mesh(text)
    path = tmp_path / f"{name}.mesh"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("data", [
    {"vertices": [[0, 0], [1, 0], [0, 1]]},
    {"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 3]]},
    {"vertices": [[0, 0], [1, 0, 2], [0, 1]], "triangles": [[0, 1, 2]]},
    {"vertices": [[0, 0], [1, 0], [0, "1/0"]], "triangles": [[0, 1, 2]]},
    [[0, 0], [1, 0], [0, 1]],
    # Arabic-Indic digits: the format is ASCII integers and "num/den" strings
    {"vertices": [[0, 0], [1, 0], [0, "\u0663/\u0664"]], "triangles": [[0, 1, 2]]},
])
def test_mesh_format_error_exits_2(tmp_path, capsys, data):
    text = json.dumps(data)
    with pytest.raises(tg.MeshFormatError):
        tg.parse_mesh(text)
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def _long_integer_mesh():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no limit on the digits of an integer literal")
    return '{"vertices": [[0, 0], [1, 0], [0, ' + "1" * (limit + 1) + ']], "triangles": [[0, 1, 2]]}'


def _deeply_nested_mesh():
    return '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + ', "triangles": []}'


@pytest.mark.parametrize("make", [_long_integer_mesh, _deeply_nested_mesh],
                         ids=["integer-past-digit-limit", "arrays-nested-100000-deep"])
def test_json_decode_failures_exit_2(tmp_path, capsys, make):
    # json.loads raises ValueError and RecursionError here, not JSONDecodeError
    text = make()
    with pytest.raises(tg.MeshFormatError, match="^invalid JSON: "):
        tg.parse_mesh(text)
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_parser_built_once_and_still_rejects_bad_arguments(capsys):
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dim", "figure2", "--r", "one", "--d", "2"])
        assert exc.value.code == 2
        assert run(capsys, "validate", "figure2")[0] == 0


def test_oracle_guardrail_exit_1(capsys):
    code, _, err = run(capsys, "dim", "figure2", "--r", "1", "--d", "40",
                       "--method", "oracle")
    assert code == 1
    assert "--allow-large" in err


def test_unknown_method_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "figure2", "--r", "1", "--d", "2", "--method", "guess"])
    assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------- contract property

_MESHES = [name.removesuffix(".mesh") for name in tg.bundled_mesh_names()]
_ARG = st.integers(-3, 60).map(str)


@st.composite
def cli_argvs(draw):
    """A subcommand on a bundled mesh, integer arguments in -3..60, every method,
    format and --verify; never --allow-large, so the guardrail bounds the cost."""
    command = draw(st.sampled_from(["validate", "dim", "table", "regularity"]))
    argv = [command, draw(st.sampled_from(_MESHES))]
    if command == "validate":
        return argv
    argv += ["--r", draw(_ARG)]
    if command == "regularity":
        return argv
    argv += ["--d" if command == "dim" else "--dmax", draw(_ARG),
             "--method", draw(st.sampled_from(dimension.METHODS))]
    if command == "table":
        argv += ["--format", draw(st.sampled_from(["csv", "tsv", "pretty"]))]
        argv += ["--verify"] if draw(st.booleans()) else []
    return argv


def _table_rows(out, fmt):
    lines = out.splitlines()
    if fmt == "csv":
        return list(csv.reader(lines))
    return [line.split("\t" if fmt == "tsv" else None) for line in lines]


@settings(deadline=None)
@given(cli_argvs())
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    # a refusal prints nothing but its one error line
    assert (out == "") == (code in (1, 2))
    if code in (1, 2):
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
    if argv[0] == "table" and code == 0:
        opts = dict(zip(argv[2::2], argv[3::2]))
        r, dmax, method = int(opts["--r"]), int(opts["--dmax"]), opts["--method"]
        header, *rows = _table_rows(out, opts["--format"])
        assert header[:6] == ["r", "d", "L", "H1", "dim", "method"]
        assert [row[1] for row in rows] == [str(d) for d in range(dmax + 1)]
        tri = tg.load_bundled(argv[1])
        for d, row in enumerate(rows):
            assert int(row[4]) == dimension.dim(tri, d, r, method=method).total
