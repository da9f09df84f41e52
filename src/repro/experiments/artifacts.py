"""JSON result artifacts for scenario runs.

Every CLI scenario run lands in ``benchmarks/results/<scenario>.json`` —
the machine-readable record the pytest benchmarks' ``report_sink`` tables
mirror in text form.  The directory resolves, in order: the explicit
``directory`` argument, the ``REPRO_RESULTS_DIR`` environment variable,
then ``benchmarks/results/`` relative to the repository root.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.experiments.runner import ScenarioResult
from repro.utils.env import env_str
from repro.utils.io import atomic_write_text

__all__ = [
    "default_results_dir",
    "default_bench_dir",
    "write_artifact",
    "write_bench_artifact",
    "load_artifact",
    "quarantine_corrupt_file",
]

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def default_results_dir() -> pathlib.Path:
    """Resolve the artifact directory (env override, then repo-relative)."""
    env = env_str("REPRO_RESULTS_DIR")
    if env:
        return pathlib.Path(env)
    return _REPO_ROOT / "benchmarks" / "results"


def default_bench_dir() -> pathlib.Path:
    """Resolve the perf-artifact directory (env override, then repo root).

    ``BENCH_*.json`` files live at the repository root so the perf
    trajectory is tracked in version control next to the code it measures.
    """
    env = env_str("REPRO_BENCH_DIR")
    if env:
        return pathlib.Path(env)
    return _REPO_ROOT


def write_artifact(
    result: ScenarioResult,
    directory: str | pathlib.Path | None = None,
) -> pathlib.Path:
    """Persist an aggregate result as ``<scenario>.json``; returns the path.

    The write is atomic (tmp file + rename), so a reader — or a ``cmp``
    in CI — can never observe a half-written artifact.
    """
    out_dir = (
        pathlib.Path(directory) if directory is not None else default_results_dir()
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result.scenario}.json"
    atomic_write_text(
        path, json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
    )
    return path


def write_bench_artifact(
    payload: dict,
    name: str = "hotpaths",
    directory: str | pathlib.Path | None = None,
) -> pathlib.Path:
    """Persist a perf-suite payload as ``BENCH_<name>.json`` (atomically)."""
    out_dir = (
        pathlib.Path(directory) if directory is not None else default_bench_dir()
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return path


def load_artifact(path: str | pathlib.Path) -> dict:
    """Read a previously written artifact back as a plain dict."""
    return json.loads(pathlib.Path(path).read_text())


def quarantine_corrupt_file(
    path: str | pathlib.Path, label: str = "corrupt"
) -> pathlib.Path:
    """Move a damaged file aside as ``<name>.<label>-N``; returns the new path.

    Used by the sharded scheduler when a chunk stream arrives with
    corrupt bytes: renaming (same directory, so always atomic) takes the
    file out of every ``*.trials.jsonl`` discovery glob at once — a
    retried worker starts a fresh stream instead of choking on resume,
    and ``repro merge`` never reads the damaged records — while keeping
    the bytes on disk for a post-mortem.  ``N`` increments past existing
    quarantine files so repeated corruption of the same stream keeps
    every generation.
    """
    path = pathlib.Path(path)
    n = 1
    while True:
        target = path.with_name(f"{path.name}.{label}-{n}")
        if not target.exists():
            break
        n += 1
    os.replace(path, target)
    return target
