"""Smoke test of the benchmark at tiny sizes: output schema and contract.

Run from the root of a checkout (not part of the tier-1 suite):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _check_metrics(metrics: dict, declared: list) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        value = metrics[m["name"]]
        assert set(value) == {"value", "unit"}
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        assert math.isfinite(value["value"])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"][0] == "python3"
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(names) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names + metric_names)) == len(names + metric_names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_all_workloads_untraced():
    result = _result(_run("--workload", "all", "--seed", "3", "--seconds",
                          "0.5", "--trace", "0", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    for w in SPEC["workloads"]:
        prefix = w["name"] + "."
        _check_metrics({k[len(prefix):]: v for k, v in result["metrics"].items()
                        if k.startswith(prefix)}, SPEC["end_to_end"])


def test_each_workload_traced():
    for w in SPEC["workloads"]:
        result = _result(_run("--workload", w["name"], "--seed", "4",
                              "--seconds", "0.5", "--trace", "1",
                              "--size", "tiny"))
        assert result["correct"] and result["failed"] == 0
        _check_metrics(result["metrics"], SPEC["per_layer"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
