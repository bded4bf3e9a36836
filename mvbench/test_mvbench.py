"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest mvbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_tiny_and_prints_every_metric_with_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float))
        assert f"{name} = {entry['value']!r} {entry['unit']}" in done.stdout


def test_corrupted_output_counts_as_failed():
    cli, solver, analysis = bench.import_mvsde()

    def corrupting_main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        victim = sorted(out.iterdir())[0]
        blob = bytearray(victim.read_bytes())
        blob[-2] ^= 1
        victim.write_bytes(bytes(blob))
        return code

    fake_cli = SimpleNamespace(main=corrupting_main)
    result = bench.run_workload("lawgap-wide", 0, 0.1, False, "tiny", (fake_cli, solver, analysis))
    line, record = bench.summarize("lawgap-wide", 0, False, "tiny", result)
    assert line["attempted"] >= 1
    assert line["failed"] == line["attempted"] and not line["correct"]
    assert record["failed_frac"] == 1.0
    assert "digests.json" in " ".join(result["samples"][0]["problems"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "dump-csv", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
