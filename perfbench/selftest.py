"""Self-test of the benchmark at smoke size.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the seed changes the generated inputs, that a traced run writes
the same bytes as an untraced one, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "5",
            "--seconds", "0",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _parse(done: subprocess.CompletedProcess):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    (record,) = [line for line in lines if line.startswith("record ")]
    return json.loads(record[len("record "):]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """``(record, result)`` of an untraced and a traced smoke run."""
    workload = request.param
    return workload, _parse(_run(workload, 0)), _parse(_run(workload, 1))


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(runs, trace, key):
    _, untraced, traced = runs
    record, result = (untraced, traced)[trace]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_traced_run_writes_the_untraced_bytes(runs):
    _, _, (record, result) = runs
    # A warm-up, then traced and untraced repetitions in turn.
    warm_up, traced, untraced, *rest = record["digests"]
    assert {warm_up, traced, untraced, *rest} == {record["oracle_digest"]}
    assert result["metrics"]["trace.spans"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_inputs(workload):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import workloads

        w = workloads.WORKLOADS[workload]
        one = w.describe_inputs(w.setup(1, smoke=True))
        again = w.describe_inputs(w.setup(1, smoke=True))
        two = w.describe_inputs(w.setup(2, smoke=True))
    finally:
        del sys.path[:2]
    assert one == again
    assert one != two


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
