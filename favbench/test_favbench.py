"""Self-test of the benchmark harness at a tiny size: every metric named in
BENCHMARK.json is printed with its unit, a corrupted program output counts as
a failed op, and the benchmark refuses to run without the program.

    python3 -m pytest favbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload, trace=0):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in named}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert table[name][-1] == unit
        if not trace:
            assert value > 0


def _grow_last_level(monkeypatch):
    original = workloads.favard.projection_sweep

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        top = max(out)
        out[top] = out[top] * (1 + 1e-9)
        return out

    monkeypatch.setattr(workloads.favard, "projection_sweep", corrupted)


def _grow_covering_sums(monkeypatch):
    original = workloads.projection.visibility_estimate

    def corrupted(ifs, a, s, n, **kwargs):
        est = original(ifs, a, s, n, **kwargs)
        return dataclasses.replace(est, covering_sum=est.covering_sum + n)

    monkeypatch.setattr(workloads.projection, "visibility_estimate", corrupted)


def _drop_a_word(monkeypatch):
    original = workloads.relclose.power_family

    def corrupted(*args, **kwargs):
        cert = original(*args, **kwargs)
        return dataclasses.replace(cert, words=cert.words[:-1])

    monkeypatch.setattr(workloads.relclose, "power_family", corrupted)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("fig1_sweep", _grow_last_level),
        ("generic_cover", _grow_covering_sums),
        ("certify", _drop_a_word),
    ],
)
def test_corrupted_output_counts_as_failure(capsys, monkeypatch, workload, corrupt):
    corrupt(monkeypatch)
    _, result = bench(capsys, workload)
    assert result["failed"] >= 1 and not result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fig1_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_map_names_every_per_layer_metric():
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    for entry in layers.values():
        assert set(entry["on"]) <= set(WORKLOADS)
        assert set(entry["moves"]) <= {m["name"] for m in SPEC["end_to_end"]} | {"pairs_per_s"}
