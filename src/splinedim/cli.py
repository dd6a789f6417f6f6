"""Command line interface.

Exit codes: 0 success, 1 domain errors (bad mesh geometry, unsupported
topology, trivial-case misuse, oversized oracle systems), 2 file or parse
errors, 3 oracle verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import dimension, oracle
from . import triangulation as tg
from .exact import format_rational
from .power_ideal import TiePair, congruence_case, homology_regularity, supersmoothness_threshold


def _load(path: str) -> tg.Triangulation:
    p = Path(path)
    if p.exists():
        return tg.load_mesh(p)
    # bare names, with no directory part, fall back to the meshes shipped
    # with the package
    if p.name == path and path.removesuffix(".mesh") + ".mesh" in tg.bundled_mesh_names():
        return tg.load_bundled(path)
    raise FileNotFoundError(f"no such mesh file: {path}")


def cmd_validate(args: argparse.Namespace) -> int:
    tri = _load(args.mesh)
    nb = len(tri.boundary_vertices)
    ni = len(tri.interior_vertices)
    eb = len(tri.boundary_edges())
    ei = len(tri.interior_edges())
    ties = len(tri.totally_interior_edges())
    print(f"vertices: {len(tri.vertices)} (boundary {nb}, interior {ni})")
    print(f"triangles: {len(tri.triangles)}")
    print(f"edges: {len(tri.edges)} (boundary {eb}, interior {ei})")
    print(f"quasi-cross-cut: {'yes' if tg.is_quasi_cross_cut(tri) else 'no'}")
    noun = "totally interior edge" if ties == 1 else "totally interior edges"
    print(f"{ties} {noun}; interior vertices: {ni}")
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    tri = _load(args.mesh)
    rep = dimension.dim(tri, args.d, args.r, method=args.method, allow_large=args.allow_large)
    print(f"L={rep.lower_bound} H1={rep.correction} dim={rep.total} method={rep.method}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    tri = _load(args.mesh)
    header = ["r", "d", "L", "H1", "dim", "method"]
    if args.verify:
        header += ["oracle", "match"]
    rows = [header]
    mismatch = False
    for d in range(args.dmax + 1):
        rep = dimension.dim(tri, d, args.r, method=args.method, allow_large=args.allow_large)
        fields = [str(rep.r), str(rep.d), str(rep.lower_bound), str(rep.correction),
                  str(rep.total), rep.method]
        if args.verify:
            checked = rep.total if rep.method == "oracle" else oracle.dim_spline_oracle(
                tri, d, args.r, allow_large=args.allow_large)
            ok = checked == rep.total
            mismatch = mismatch or not ok
            fields += [str(checked), "yes" if ok else "no"]
        rows.append(fields)
    if args.format == "pretty":
        widths = [max(map(len, column)) for column in zip(*rows)]
        rows = [[f.ljust(w) for f, w in zip(row, widths)] for row in rows]
    # no csv or tsv field ends in whitespace, so only pretty rows lose any here
    sep = {"csv": ",", "tsv": "\t", "pretty": "  "}[args.format]
    for row in rows:
        print(sep.join(row).rstrip())
    return 3 if mismatch else 0


def cmd_regularity(args: argparse.Namespace) -> int:
    kind, reason, params = dimension.classify(_load(args.mesh), args.r)
    if kind != "one-tie":
        print(f"trivial case: {reason}, dim = L for all d")
        return 0
    tp = TiePair(params.s, params.t, args.r)
    print(f"s={tp.s} t={tp.t} r={tp.r}")
    print(f"stabilization degree: {dimension.stabilization_degree(params, args.r)}")
    print(f"homology regularity: {homology_regularity(tp)}")
    print(f"supersmoothness threshold: {format_rational(supersmoothness_threshold(tp))}")
    print(f"congruence case: {'yes' if congruence_case(tp) else 'no'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="splinedim",
        description="Exact dimensions of smooth spline spaces over planar triangulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a mesh file and print its census")
    pv.add_argument("mesh")
    pv.set_defaults(func=cmd_validate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("mesh")
    common.add_argument("--r", dest="r", type=int, required=True, help="smoothness order")

    pd = sub.add_parser("dim", parents=[common], help="dimension for one (r, d)")
    pd.add_argument("--d", dest="d", type=int, required=True, help="polynomial degree")
    pd.set_defaults(func=cmd_dim)

    pt = sub.add_parser("table", parents=[common], help="dimension table for d = 0..dmax")
    pt.add_argument("--dmax", type=int, required=True)
    pt.set_defaults(func=cmd_table)

    # the route options, in the order every --help has always listed them
    for p in (pd, pt):
        p.add_argument("--method", choices=dimension.METHODS, default="auto")
        if p is pt:
            p.add_argument("--format", choices=["csv", "tsv", "pretty"], default="csv")
            p.add_argument("--verify", action="store_true",
                           help="recompute every row with the linear-algebra oracle")
        p.add_argument("--allow-large", action="store_true",
                       help="lift the column guardrail on the oracle system")

    pr = sub.add_parser("regularity", parents=[common],
                        help="degree thresholds where the correction term dies")
    pr.set_defaults(func=cmd_regularity)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (tg.MeshFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except oracle.TooLarge as exc:
        print(f"error: {exc} (rerun with --allow-large to force)", file=sys.stderr)
        return 1
    except (tg.MeshError, dimension.DimensionError, oracle.OracleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
