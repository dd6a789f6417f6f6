"""splinedim benchmark: one workload per process, single client, closed loop.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The workload's seed fixes every
input.  Set-up (generating inputs, writing mesh files, pre-building
meshes) is timed SETUP_SAMPLES times, each sample repeating it until
SETUP_SAMPLE_S have passed; setup_s is the median time of one set-up.  The
timed loop then runs whole rounds of the workload's items, one after the
other with no threads, until --seconds have passed; every answer is then
checked against references computed outside the timed region.

Times are reported at a reference machine speed.  On a shared 2-vCPU
Xeon virtual machine the speed of the core this loop runs on changed by
up to 1.8x over tens of seconds, on every workload alike.  So a fixed
integer-arithmetic kernel that allocates nothing is timed every
CALIBRATE_EVERY_S of loop time, outside the timed region, and every
measured time is multiplied by SPEED_REF_S / (median of the last three
kernel times).  Over 80 s of such swings this cut the spread between 10 s
windows of one workload from 30% to 5%.  The raw rate and the speed
factors are printed as well.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics.  With --trace 1 the package's public functions are
rebound to recording wrappers (see tracing.py) and the per-layer metrics,
in raw seconds, are printed instead.  The cost of one span is measured
in the same process every CALIBRATE_EVERY_S of loop time and taken out
of the layers' self times.  Exit status: 0 when every answer is right and
no item raised, 1 otherwise, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs once before the loop and again between rounds at evenly
# spaced points of the loop, SETUP_SAMPLES samples in all.  A sample
# starts from a collected heap and repeats set-up until SETUP_SAMPLE_S
# have passed, so a set-up of a few milliseconds is not timed alone;
# setup_s is the median of the samples' time per set-up.
SETUP_SAMPLES = 9
SETUP_SAMPLE_S = 0.25
CALIBRATE_EVERY_S = 0.2
# kernel time that counts as reference speed; it only sets the scale of
# every reported time
SPEED_REF_S = 0.005


def _import_package() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import splinedim
    except ImportError as exc:
        print(f"error: cannot import splinedim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if Path(splinedim.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: splinedim resolved to {splinedim.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return False
    return True


def _kernel() -> int:
    # small ints only: nothing the garbage collector tracks, so the state of
    # the program's heap cannot change the kernel's time
    acc, x = 1, 0
    for i in range(1, 8000):
        acc = (acc * 1103515245 + i) % 2147483647
        x += math.gcd(acc, i * 7919) + (acc >> 7) * i % 1009
    return x


class Speed:
    """Converts wall times to the reference speed, from recent kernel timings."""

    def __init__(self) -> None:
        self.recent: collections.deque[float] = collections.deque(maxlen=3)
        self.samples: list[float] = []
        for _ in range(3):
            self.calibrate()

    def calibrate(self) -> float:
        """Time the kernel once more; return the factor to reference speed."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel()
            took = time.perf_counter() - t0
        finally:
            gc.enable()
        self.recent.append(took)
        self.samples.append(took)
        return SPEED_REF_S / statistics.median(self.recent)


def _corrupt(answer):
    """A wrong answer of the same shape, to prove the checks bite."""
    if isinstance(answer, (int, Fraction)):
        return answer + 1
    if isinstance(answer, str):
        return answer + "?"
    if isinstance(answer, tuple):
        return (_corrupt(answer[0]),) + answer[1:]
    raise TypeError(f"cannot corrupt {answer!r}")


class Rounds:
    """What the timed loop recorded: latencies, distinct answers, failures."""

    def __init__(self, n_items: int) -> None:
        self.wall = 0.0                      # raw seconds in the timed loop
        self.raw_ok = 0.0                    # raw seconds of the items that returned
        self.rounds = 0
        self.latencies = array("d")          # seconds at reference speed, items that returned
        self.answers: list[dict] = [{} for _ in range(n_items)]  # answer -> times seen
        self.failures: list[tuple[int, BaseException]] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)


_FAILED = object()


def run_rounds(items, seconds: float, calibrate, between=None) -> Rounds:
    """Whole rounds of items until `seconds` of loop time pass.

    calibrate() runs at the start and every CALIBRATE_EVERY_S of loop
    time, outside the timed part; it returns the factor that scales the
    latencies that follow.  Answers are folded into per-item counts between
    rounds, outside the timed part, so memory does not grow with the run;
    between(rec) is called there too.
    """
    rec = Rounds(len(items))
    clock = time.perf_counter
    gc.collect()
    factor = calibrate()
    next_calibration = CALIBRATE_EVERY_S
    while rec.wall < seconds:
        answers = [_FAILED] * len(items)
        for idx, item in enumerate(items):
            if rec.wall >= next_calibration:
                factor = calibrate()
                next_calibration = rec.wall + CALIBRATE_EVERY_S
            t0 = clock()
            try:
                answers[idx] = item.run()
            except Exception as exc:  # counted as failed, reported, loop goes on
                rec.wall += clock() - t0
                rec.failures.append((idx, exc))
                continue
            lat = clock() - t0
            rec.wall += lat
            rec.raw_ok += lat
            rec.latencies.append(lat * factor)
        rec.rounds += 1
        for seen, answer in zip(rec.answers, answers):
            if answer is not _FAILED:
                seen[answer] = seen.get(answer, 0) + 1
        if between is not None:
            between(rec)
    return rec


def check_answers(items, rec: Rounds, corrupt: bool) -> tuple[int, list[str]]:
    """(wrong, messages): each distinct answer of an item is checked once."""
    if corrupt:
        seen = rec.answers[0]
        answer = next(iter(seen))
        seen[answer] -= 1
        if not seen[answer]:
            del seen[answer]
        seen[_corrupt(answer)] = seen.get(_corrupt(answer), 0) + 1
    wrong = 0
    messages = []
    for idx, exc in rec.failures[:5]:
        messages.append(f"failed: {items[idx].label}: "
                        + "".join(traceback.format_exception_only(exc)).strip())
    for item, seen in zip(items, rec.answers):
        for answer, times in seen.items():
            if not item.check(answer):
                wrong += times
                if len(messages) < 10:
                    messages.append(f"wrong: {item.label}: {answer!r}")
    return wrong, messages


def _quantiles_ms(latencies) -> tuple[float, float]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4] * 1000.0, deciles[8] * 1000.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few items per round, for the benchmark's own tests")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter the first recorded answer before checking it")
    args = ap.parse_args(argv)

    if not _import_package():
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    workdir = Path.cwd() / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            return _run_traced(args, make, workdir, tracing)
        return _run(args, make, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(args, items, rec: Rounds) -> tuple[int, int]:
    """Check the answers and print the summary line; (wrong, failed)."""
    wrong, messages = check_answers(items, rec, args.corrupt)
    failed, attempted = len(rec.failures), rec.attempted
    for msg in messages:
        print(msg, file=sys.stderr)
    print(f"{args.workload}: {rec.rounds} rounds of {len(items)} items, {attempted} attempted, "
          f"{wrong} wrong, {failed} failed in {rec.wall:.3f} s; "
          f"wrong_frac {wrong / attempted:.4f} failed_frac {failed / attempted:.4f}")
    return wrong, failed


def _emit(metrics: dict, rec: Rounds, wrong: int, failed: int) -> int:
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": rec.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if wrong == 0 and failed == 0 else 1


def _run(args, make, workdir: Path) -> int:
    speed = Speed()
    setup_times: list[float] = []

    def setup():
        gc.collect()
        factor = speed.calibrate()
        made, runs, t0 = None, 0, time.perf_counter()
        while runs == 0 or time.perf_counter() - t0 < SETUP_SAMPLE_S:
            made = make(args.seed, args.size, workdir)
            runs += 1
        setup_times.append((time.perf_counter() - t0) / runs * factor)
        return made

    items = setup()
    # further set-ups between rounds, spread over the run like the loop
    marks = [args.seconds * k / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)]

    def between(rec: Rounds) -> None:
        while marks and rec.wall >= marks[0]:
            marks.pop(0)
            setup()
        gc.collect()

    rec = run_rounds(items, args.seconds, speed.calibrate, between=between)
    while len(setup_times) < SETUP_SAMPLES:
        setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wrong, failed = _report(args, items, rec)

    lat = rec.latencies
    p50, p90 = _quantiles_ms(lat) if len(lat) >= 2 else (0.0, 0.0)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "items_per_s": {"value": len(lat) / sum(lat) if lat else 0.0, "unit": "1/s"},
        "item_p50_ms": {"value": p50, "unit": "ms"},
        "item_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    factors = [SPEED_REF_S / s for s in speed.samples]
    print(f"speed factor: {min(factors):.3f} to {max(factors):.3f} over {len(factors)} kernel "
          f"timings, mean over the loop {sum(lat) / rec.raw_ok if rec.raw_ok else 1.0:.3f}; "
          f"raw items_per_s {len(lat) / rec.raw_ok if rec.raw_ok else 0.0:.4f}; "
          f"{len(lat)} latency samples; {len(setup_times)} set-up runs")
    return _emit(metrics, rec, wrong, failed)


def _run_traced(args, make, workdir: Path, tracing) -> int:
    tracer = tracing.Tracer()
    tracer.calibrate()
    with tracer.installed():
        items = make(args.seed, args.size, workdir)
    first_loop_span = len(tracer.name_id)
    # counts are taken over one pass: the set-up and the first round
    pass_end, pass_counts = 0, {}

    def calibrate() -> float:
        tracer.calibrate()
        return 1.0

    def between(rec: Rounds) -> None:
        nonlocal pass_end, pass_counts
        if rec.rounds == 1:
            pass_end, pass_counts = len(tracer.name_id), dict(tracer.counts)

    with tracer.installed():
        # each item's call becomes a span of the benchmark itself
        traced_items = [dataclasses.replace(item, run=tracer.wrap("bench", "item", "item",
                                                                   item.run))
                        for item in items]
        rec = run_rounds(traced_items, args.seconds, calibrate, between=between)
    wrong, failed = _report(args, items, rec)

    wall = rec.wall
    values = tracer.metrics(pass_end, pass_counts)
    layers, harness, overhead = tracer.loop_accounting(first_loop_span)
    values["trace.loop_wall_s"] = wall
    values["trace.loop_layers_s"] = layers
    values["trace.loop_harness_s"] = harness
    values["trace.overhead_s"] = overhead
    rest = wall - overhead
    per_span_us = [(c_in + c_out) * 1e6 for _, c_in, c_out in tracer.costs]
    print(f"trace: loop wall {wall:.3f} s = layers {layers:.3f} s + benchmark {harness:.3f} s "
          f"+ tracing {overhead:.3f} s + unaccounted {rest - layers - harness:.3f} s; "
          f"layers / (wall - tracing) {layers / rest:.3f}; one span costs "
          f"{min(per_span_us):.3f} to {max(per_span_us):.3f} us over "
          f"{len(per_span_us)} calibrations")
    spans_path = Path.cwd() / ".perfbench_run" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    print(f"trace: {len(tracer.name_id)} spans written to {spans_path}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.UNITS.items()}
    return _emit(metrics, rec, wrong, failed)


if __name__ == "__main__":
    sys.exit(main())
