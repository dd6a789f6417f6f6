"""Tiny runs of every workload: metric names, correctness checks, failure modes.

    python3 -m pytest perfbench/tests -q

Each run is a separate process started from the repository root, the way
the benchmark is meant to be invoked.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--seed", "3", "--seconds", "0.3",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def _expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(workload, trace, kind):
    code, lines, err = _run("--workload", workload, "--size", "tiny", "--trace", str(trace))
    assert code == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_fails(workload):
    code, lines, _ = _run("--workload", workload, "--size", "tiny", "--corrupt")
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False


def test_names_follow_the_rule():
    names = [w["name"] for w in SPEC["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[kind]]
        for m in SPEC[kind]:
            assert UNIT_RE.match(m["unit"]), m
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names), names


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, err = _run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
    assert "splinedim" in err
