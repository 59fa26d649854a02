"""Smoke tests of the benchmark itself, at ``--quick`` sizes.

Every run goes through the real command in a subprocess: ``run.py``
scrubs ``REPRO_*`` variables and pins BLAS threads before importing
NumPy, which an in-process call from a CI leg (``REPRO_WORKERS=2``…)
would not get.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(workload: str, seed: int, trace: int, out: Path, *extra: str):
    """(last stdout line parsed, record appended to ``out``)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--quick", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return (json.loads(done.stdout.splitlines()[-1]),
            json.loads(out.read_text().splitlines()[-1]))


def test_benchmark_json_stays_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for group in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric_and_verifies(workload, tmp_path):
    trace_file = tmp_path / "trace.json"
    printed, record = run(workload, 1, 1, tmp_path / "out.jsonl",
                          "--trace-file", str(trace_file))
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True and printed["failed"] == 0
    assert printed["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: value["unit"] for name, value in printed["metrics"].items()
            } == units
    assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in record["end_to_end"].values())
    assert printed["metrics"]["trace.missing_targets"]["value"] == 0
    assert printed["metrics"]["engine.fallback_share"]["value"] == 0

    # Traced self times add up to the root spans (within 1 %), and every
    # child lies inside its parent.
    spans = json.loads(trace_file.read_text())["spans"]
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _request in spans:
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
            child_time[parent] += end - start
    self_total = sum(end - start - covered for (_n, start, end, _p, _r), covered
                     in zip(spans, child_time))
    root_total = sum(end - start for _n, start, end, parent, _r in spans
                     if parent < 0)
    assert root_total > 0
    assert abs(self_total - root_total) <= 0.01 * root_total


def test_untraced_run_prints_the_end_to_end_metrics(tmp_path):
    printed, _record = run("matmul_query", 3, 0, tmp_path / "out.jsonl")
    assert {name: value["unit"] for name, value in printed["metrics"].items()
            } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_seed_fixes_the_request_sequence_and_simulated_time(tmp_path):
    out = tmp_path / "out.jsonl"
    first, record = run("serve_mixed", 7, 1, out)
    again, record_again = run("serve_mixed", 7, 1, out)
    _other, record_other = run("serve_mixed", 8, 1, out)
    assert record["sequence_digest"] == record_again["sequence_digest"]
    assert record["sequence_digest"] != record_other["sequence_digest"]
    assert record["tables_checksum"] == record_other["tables_checksum"]
    assert (first["metrics"]["sim.ms_per_query"]
            == again["metrics"]["sim.ms_per_query"])
