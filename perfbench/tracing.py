"""Span tracing of the splinedim layers from outside the package.

The tracer rebinds the public functions of each splinedim module in every
module namespace that holds them, so a call such as `tg.build(...)` inside
`triangulation.parse_mesh` or `oracle.rank_sparse(...)` inside an oracle
goes through a recording wrapper.  Spans (name, start, end, parent) are
kept in flat arrays and written out when the run ends; per-layer metrics
are computed from them afterwards.

A span's self time is its duration minus the durations of its direct
child spans, with the tracing cost taken out.  That cost is measured in
the same process: calibrate() times many calls of a wrapped no-op against
the bare no-op, and splits the difference into the part a span's own
duration holds and the part its caller pays before and after.  Each span
is charged the cost measured last before it began.  Counters that inspect
arguments or results (the hooks) are timed on every call and charged to
the tracer, not to the caller.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import json
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "triangulation", "dimension", "power_ideal", "oracle", "exact")

# (layer, function, group): every public function worth a span, by layer.
# Cheap helpers called in inner loops (binom, parse_rational, slope_of) are
# left out; their time counts as self time of the traced caller.
TRACED = [
    ("cli", "main", "main"),
    ("triangulation", "load_mesh", "parse"),
    ("triangulation", "load_bundled", "parse"),
    ("triangulation", "parse_mesh", "parse"),
    ("triangulation", "build", "build"),
    ("triangulation", "affine_transform", "other"),
    ("triangulation", "dump_mesh", "other"),
    ("triangulation", "is_quasi_cross_cut", "classify"),
    ("triangulation", "extract_one_tie_params", "classify"),
    ("triangulation", "slope_count", "classify"),
    ("dimension", "dim", "dispatch"),
    ("dimension", "stabilization_degree", "dispatch"),
    ("dimension", "schumaker_lower_bound", "lower_bound"),
    ("dimension", "schumaker_lower_bound_params", "lower_bound"),
    ("dimension", "schumaker_lower_bound_prime", "lower_bound"),
    ("dimension", "dim_lattice", "lattice"),
    ("dimension", "dim_explicit", "explicit"),
    ("dimension", "f_explicit", "explicit"),
    ("power_ideal", "homology_dim", "homology"),
    ("power_ideal", "homology_regularity", "closed_form"),
    ("power_ideal", "supersmoothness_threshold", "closed_form"),
    ("power_ideal", "intersection_initdeg", "closed_form"),
    ("power_ideal", "hilbert_power_ideal", "closed_form"),
    ("power_ideal", "hilbert_colon", "closed_form"),
    ("power_ideal", "in_membership", "closed_form"),
    ("power_ideal", "colon_membership", "closed_form"),
    ("oracle", "dim_spline_oracle", "spline"),
    ("oracle", "hilbert_ideal_oracle", "ideal"),
    ("oracle", "hilbert_colon_oracle", "ideal"),
    ("oracle", "colon_pair_dims", "ideal"),
    ("oracle", "homology_dim_oracle", "ideal"),
    ("exact", "rank_sparse", "rank"),
    ("exact", "kernel_dim_sparse", "rank"),
]

_MODULES = ("splinedim",) + tuple(f"splinedim.{m}" for m in LAYERS)

# Names and units of the per-layer metrics, as BENCHMARK.json lists them.
UNITS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}

# What each per-layer metric measures, and the end-to-end metric and
# workload it should move.  Times ("s") are sums over the traced run's
# set-up and timed loop; "self" excludes traced child calls.  Counts are
# per pass: one set-up and the first round of the timed loop, so the
# workload and the code fix them, not the machine's speed.
METRICS = {
    "cli.self_s": ("self time of cli.main", "item_p50_ms on mesh-ingest"),
    "cli.calls": ("cli.main calls", "item_p50_ms on mesh-ingest"),
    "cli.nonzero_exits": ("cli.main calls returning non-zero; fixed by the workload's invalid "
                          "files, so any change is a wrong answer", "item_p50_ms on mesh-ingest"),
    "triangulation.self_s": ("self time of all traced triangulation functions",
                             "items_per_s on mesh-ingest"),
    "triangulation.build_s": ("time in build", "items_per_s and item_p90_ms on mesh-ingest; "
                              "setup_s on query-mix"),
    "triangulation.parse_s": ("self time of load_mesh, load_bundled and parse_mesh, build "
                              "excluded", "items_per_s and item_p90_ms on mesh-ingest"),
    "triangulation.classify_s": ("self time of is_quasi_cross_cut, extract_one_tie_params and "
                                 "slope_count", "items_per_s on query-mix"),
    "triangulation.triangles_built": ("triangles in meshes build returned",
                                      "items_per_s on mesh-ingest; setup_s on query-mix"),
    "triangulation.rejections": ("mesh errors leaving the triangulation layer; fixed by the "
                                 "workload's invalid files, so any change is a wrong answer",
                                 "items_per_s on mesh-ingest"),
    "dimension.self_s": ("self time of all traced dimension functions",
                         "item_p50_ms on query-mix"),
    "dimension.lower_bound_s": ("self time of the three Schumaker bounds",
                                "item_p50_ms on query-mix"),
    "dimension.lattice_s": ("self time of dim_lattice", "item_p50_ms on query-mix"),
    "dimension.explicit_s": ("self time of dim_explicit and f_explicit",
                             "item_p50_ms on query-mix"),
    "dimension.calls": ("calls into traced dimension functions", "item_p50_ms on query-mix"),
    "power_ideal.self_s": ("self time of all traced power_ideal functions",
                           "items_per_s on query-mix"),
    "power_ideal.homology_s": ("time in homology_dim", "items_per_s on query-mix"),
    "power_ideal.closed_form_s": ("self time of the other power_ideal closed forms",
                                  "items_per_s on query-mix"),
    "power_ideal.calls": ("calls into traced power_ideal functions", "items_per_s on query-mix"),
    "oracle.spline_s": ("time in dim_spline_oracle, rank engine included",
                        "items_per_s on verify-table"),
    "oracle.spline_assemble_s": ("self time of dim_spline_oracle, rank engine excluded",
                                 "items_per_s on verify-table"),
    "oracle.cols": ("unknowns of the spline systems", "items_per_s on verify-table"),
    "oracle.too_large": ("TooLarge refusals", "items_per_s on verify-table"),
    "oracle.ideal_s": ("time in the ideal oracles, rank engine included",
                       "items_per_s on ideal-oracle"),
    "oracle.ideal_assemble_s": ("self time of the ideal oracles, rank engine excluded",
                                "items_per_s on ideal-oracle"),
    "exact.rank_s": ("time in rank_sparse and kernel_dim_sparse",
                     "item_p90_ms and peak_rss_mb on verify-table; items_per_s on ideal-oracle"),
    "exact.rank_calls": ("rank_sparse calls", "items_per_s on ideal-oracle"),
    "exact.rows": ("nonzero input rows of rank_sparse", "item_p90_ms on verify-table"),
    "exact.nnz": ("nonzero input entries of rank_sparse", "peak_rss_mb on verify-table"),
    "exact.input_max_bits": ("largest input entry bit length of rank_sparse",
                             "item_p90_ms on verify-table"),
    "exact.rank_sum": ("pivots found by rank_sparse", "item_p90_ms on verify-table"),
    "trace.loop_wall_s": ("wall time of the traced timed loop", "none: accounting"),
    "trace.loop_layers_s": ("sum of layer self times inside the traced timed loop",
                            "none: accounting"),
    "trace.loop_harness_s": ("self time of the benchmark's own item code inside the traced "
                             "timed loop", "none: accounting"),
    "trace.overhead_s": ("tracing cost inside the traced timed loop: spans times the measured "
                         "cost of one span, plus the hooks' time", "none: accounting"),
    "trace.spans": ("spans recorded per pass", "none: accounting"),
}

PROBE_CALLS = 1000

_NO_PARENT = -1


def _probe(a, b):
    return None


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span name id -> "layer.function"
        self.layer_of: list[str] = []
        self.group_of: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: dict[int, str] = {}     # span id -> exception class name
        self.hooked: dict[int, float] = {}   # span id -> seconds its hook took
        # (first span id, cost inside a span, cost outside it) per calibration
        self.costs: list[tuple[int, float, float]] = []
        self.counts: dict[str, int] = {m: 0 for m, u in UNITS.items() if u != "s"}
        self._stack = [_NO_PARENT]
        self._saved: list[tuple[object, str, object]] = []

    def _name(self, layer: str, fn: str, group: str) -> int:
        name = f"{layer}.{fn}"
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(layer)
            self.group_of.append(group)
        return self.names.index(name)

    # ------------------------------------------------------------- recording

    def wrap(self, layer: str, fn_name: str, group: str, fn, hook=None):
        nid = self._name(layer, fn_name, group)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        raised, hooked = self.raised, self.hooked
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
                raised[sid] = type(exc).__name__
                raise
            end[sid] = clock()
            start[sid] = t0
            stack.pop()
            if hook is not None:
                h0 = clock()
                hook(self, args, result)
                hooked[sid] = clock() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn_name
        return traced

    def calibrate(self) -> None:
        """Measure the cost of one span now; it applies to the spans recorded next."""
        bare, inside, total = [], [], []
        clock = time.perf_counter
        gc.disable()
        try:
            for _ in range(3):
                probe = Tracer()
                traced = probe.wrap("trace", "probe", "probe", _probe)
                t0 = clock()
                for _ in range(PROBE_CALLS):
                    _probe(1, 2)
                t1 = clock()
                for _ in range(PROBE_CALLS):
                    traced(1, 2)
                t2 = clock()
                call = (t1 - t0) / PROBE_CALLS
                bare.append(call)
                total.append((t2 - t1) / PROBE_CALLS - call)
                inside.append((sum(probe.end) - sum(probe.start)) / PROBE_CALLS - call)
        finally:
            gc.enable()
        c_in = max(statistics.median(inside), 0.0)
        c_out = max(statistics.median(total) - c_in, 0.0)
        self.costs.append((len(self.name_id), c_in, c_out))

    @contextmanager
    def installed(self):
        """Rebind every traced function in every splinedim namespace holding it."""
        mods = [importlib.import_module(m) for m in _MODULES]
        for layer, fn_name, group in TRACED:
            orig = getattr(importlib.import_module(f"splinedim.{layer}"), fn_name)
            wrapper = self.wrap(layer, fn_name, group, orig, _HOOKS.get(fn_name))
            for mod in mods:
                if getattr(mod, fn_name, None) is orig:
                    self._saved.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)
        try:
            yield self
        finally:
            for mod, fn_name, orig in reversed(self._saved):
                setattr(mod, fn_name, orig)
            self._saved.clear()

    # ------------------------------------------------------------- summaries

    def span_costs(self) -> tuple[array, array]:
        """(inside, outside) tracing cost of each span, from the calibration before it."""
        c_in, c_out = array("d"), array("d")
        costs = self.costs or [(0, 0.0, 0.0)]
        k = 0
        for sid in range(len(self.name_id)):
            while k + 1 < len(costs) and costs[k + 1][0] <= sid:
                k += 1
            c_in.append(costs[k][1])
            c_out.append(costs[k][2])
        return c_in, c_out

    def self_times(self) -> array:
        """Each span's duration less its traced children's and less tracing cost.

        The cost a span's own duration holds is taken from it; the cost paid
        before and after a child span, and the child's hook, are taken from
        the child's parent, in whose time they ran.
        """
        c_in, c_out = self.span_costs()
        start, end, hooked = self.start, self.end, self.hooked
        selfs = array("d", (e - s - c for s, e, c in zip(start, end, c_in)))
        for sid, par in enumerate(self.parent):
            if par != _NO_PARENT:
                selfs[par] -= end[sid] - start[sid] + c_out[sid] + hooked.get(sid, 0.0)
        return selfs

    def metrics(self, pass_end: int, pass_counts: dict[str, int]) -> dict[str, float | int]:
        """Per-layer metrics: times over every span, counts over spans before pass_end.

        pass_counts holds the hooks' counters as they stood at pass_end.
        """
        selfs = self.self_times()
        # time in a span and all it called, tracing cost excluded; a child's
        # id is larger than its parent's
        inclusive = array("d", selfs)
        for sid in range(len(inclusive) - 1, -1, -1):
            if self.parent[sid] != _NO_PARENT:
                inclusive[self.parent[sid]] += inclusive[sid]
        out: dict[str, float | int] = {m: 0.0 for m, u in UNITS.items() if u == "s"}
        out.update(pass_counts)
        by_group: dict[tuple[str, str], float] = {}
        calls: dict[str, int] = {}
        names, layer_of, group_of = self.names, self.layer_of, self.group_of
        for sid, nid in enumerate(self.name_id):
            key = (layer_of[nid], group_of[nid])
            by_group[key] = by_group.get(key, 0.0) + selfs[sid]
            par = self.parent[sid]
            outer = par == _NO_PARENT or group_of[self.name_id[par]] != group_of[nid] \
                or layer_of[self.name_id[par]] != layer_of[nid]
            if key == ("oracle", "spline"):
                out["oracle.spline_s"] += inclusive[sid]
            elif key == ("oracle", "ideal") and outer:
                out["oracle.ideal_s"] += inclusive[sid]
            if sid >= pass_end:
                continue
            calls[layer_of[nid]] = calls.get(layer_of[nid], 0) + 1
            if key == ("oracle", "spline") and self.raised.get(sid) == "TooLarge":
                out["oracle.too_large"] += 1
            elif key[0] == "triangulation" and sid in self.raised and (
                    par == _NO_PARENT or layer_of[self.name_id[par]] != "triangulation"):
                out["triangulation.rejections"] += 1
            elif names[nid] == "cli.main" and sid in self.raised:
                out["cli.nonzero_exits"] += 1

        def group(layer: str, *groups: str) -> float:
            return sum(by_group.get((layer, g), 0.0) for g in groups)

        for layer in ("cli", "triangulation", "dimension", "power_ideal"):
            out[f"{layer}.self_s"] = sum(v for (lay, _), v in by_group.items() if lay == layer)
        out["cli.calls"] = calls.get("cli", 0)
        out["triangulation.build_s"] = group("triangulation", "build")
        out["triangulation.parse_s"] = group("triangulation", "parse")
        out["triangulation.classify_s"] = group("triangulation", "classify")
        out["dimension.lower_bound_s"] = group("dimension", "lower_bound")
        out["dimension.lattice_s"] = group("dimension", "lattice")
        out["dimension.explicit_s"] = group("dimension", "explicit")
        out["dimension.calls"] = calls.get("dimension", 0)
        out["power_ideal.homology_s"] = group("power_ideal", "homology")
        out["power_ideal.closed_form_s"] = group("power_ideal", "closed_form")
        out["power_ideal.calls"] = calls.get("power_ideal", 0)
        out["oracle.spline_assemble_s"] = group("oracle", "spline")
        out["oracle.ideal_assemble_s"] = group("oracle", "ideal")
        out["exact.rank_s"] = group("exact", "rank")
        out["trace.spans"] = pass_end
        return out

    def loop_accounting(self, first_span: int) -> tuple[float, float, float]:
        """(layer self time, benchmark self time, tracing cost) over spans from first_span on."""
        selfs = self.self_times()
        c_in, c_out = self.span_costs()
        layers = harness = overhead = 0.0
        for sid in range(first_span, len(self.name_id)):
            layer = self.layer_of[self.name_id[sid]]
            if layer in LAYERS:
                layers += selfs[sid]
            elif layer == "bench":
                harness += selfs[sid]
            overhead += c_in[sid] + c_out[sid] + self.hooked.get(sid, 0.0)
        return layers, harness, overhead

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: id, parent, name, start, end, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\traised\n")
            for sid, nid in enumerate(self.name_id):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[nid]}\t{self.start[sid]!r}\t"
                         f"{self.end[sid]!r}\t{self.raised.get(sid, '')}\n")


# ---------------------------------------------------------------- counters


def _count_build(tr: Tracer, args, result) -> None:
    tr.counts["triangulation.triangles_built"] += len(result.triangles)


def _count_main(tr: Tracer, args, result) -> None:
    tr.counts["cli.nonzero_exits"] += result != 0


def _count_kernel(tr: Tracer, args, result) -> None:
    tr.counts["oracle.cols"] += args[1]


def _count_rank(tr: Tracer, args, result) -> None:
    nnz = bits = nrows = 0
    for row in args[0]:
        if row:
            nrows += 1
            nnz += len(row)
            top = max(abs(v) for v in row.values()).bit_length()
            if top > bits:
                bits = top
    c = tr.counts
    c["exact.rank_calls"] += 1
    c["exact.rows"] += nrows
    c["exact.nnz"] += nnz
    c["exact.rank_sum"] += result
    if bits > c["exact.input_max_bits"]:
        c["exact.input_max_bits"] = bits


_HOOKS = {
    "build": _count_build,
    "main": _count_main,
    "kernel_dim_sparse": _count_kernel,
    "rank_sparse": _count_rank,
}
