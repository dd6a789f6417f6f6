"""Run the benchmark over ten seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --out perfbench/baseline.json

Runs one process at a time, from the current directory, for every
workload in BENCHMARK.json with seeds 1 to 10 and its run_seconds.  For
each workload it prints every end-to-end metric's median, quartiles and
interquartile range as a share of the median (statistics.quantiles with
n=4), then makes one traced run with seed 1 for the per-layer metrics.
--out writes all of it, with the machine description and the
layer-metric map, as JSON: that file is the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return result


def _machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "implementation": platform.python_implementation(), "system": platform.platform()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    import tracing

    report = {
        "machine": _machine(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
        "per_layer_map": {name: {"measures": what, "moves": moves}
                          for name, (what, moves) in tracing.METRICS.items()},
    }
    for workload in SPEC["workloads"]:
        wl = workload["name"]
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result = _run(wl, seed, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        entry: dict = {"why": workload["why"], "end_to_end": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "iqr_share": spread, "values": vals}
            print(f"  {wl:13s} {name:14s} median {med:12.5g}  iqr/median {spread:.3f}", flush=True)
        traced = _run(wl, SEEDS[0], 1)
        entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        report["workloads"][wl] = entry
        if args.out:
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
