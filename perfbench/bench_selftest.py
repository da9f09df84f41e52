"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/bench_selftest.py

Each workload runs once untraced and once traced at the smallest size
(one call per pass); every metric named in ``BENCHMARK.json`` must be
printed with its unit.  A tampered digest must count as a failed trial.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_tampered_digest_counts_as_failed():
    import run
    from workloads import DEFAULT_SEED, load_digests

    run.isolate()
    workload = WORKLOADS["dram-sweep"]
    digests = load_digests()
    session = run.new_session(workload, DEFAULT_SEED)
    clean = run.run_pass(workload, session, calls=1, digests=digests)
    assert clean.errors == [None]

    tampered = {workload.name: {workload.digest_key(0): "0" * 64}}
    done = run.run_pass(workload, session, calls=1, digests=tampered)
    attempted, failed, errors = run.counts(workload, [done])
    assert (attempted, failed) == (1, 1)
    assert "digest mismatch" in errors[0]


def test_missing_program_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "digests.json").write_text(
        (HERE / "digests.json").read_text()
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dram-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
