"""Parallel, seeded execution of registered scenarios.

:func:`run_scenario` is the single execution path shared by the pytest
benchmarks, the ``python -m repro`` CLI, and library callers.  It fans the
requested number of independent trials out over a pluggable execution
*backend* (see :mod:`repro.experiments.backends`), aggregates the
per-trial metrics into mean/std/95%-CI statistics, and (optionally)
persists the aggregate as a JSON artifact under ``benchmarks/results/``.

Determinism contract: trial *i* derives its seed purely from the base
seed and *i* (trial 0 uses the base seed itself, so a single-trial run
reproduces the historical single-seed benchmarks bit-for-bit), and
aggregation always happens in trial order — so the aggregate is identical
regardless of the backend (serial, process pool, or sharded
subprocesses).  The JSON artifact contains only deterministic content
(wall-clock and worker counts live on the in-memory result, not in
``to_json``), so the *same bytes* land on disk no matter how the trials
were executed — the property the sharded ``repro merge`` workflow relies
on.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.experiments.cache import PresetCache, ProfileCache
from repro.presets import TrainedPreset
from repro.utils.io import atomic_write_text

__all__ = [
    "TrialContext",
    "MetricStats",
    "ScenarioResult",
    "TrialStream",
    "aggregate_result",
    "normalize_params",
    "run_scenario",
    "scan_stream_lines",
    "trial_seed",
]

# Fields BfaConfig once had, each with one value in practice.  Profile
# cache keys keep them at that value, so every profile already on disk
# stays valid.
_RETIRED_BFA_FIELDS = {
    "eval_batch_size": 256,
    "min_estimated_gain": 0.0,
    "grad_batch_size": None,
    "fast_scoring": True,
}


def normalize_params(params: Mapping[str, Any] | None) -> dict:
    """JSON-normalise scenario params (shared by runner and shards).

    Tuples become lists, keys become strings, and numpy scalars/arrays
    are coerced via ``tolist()`` — so the values a trial sees are
    identical whether they arrived from a library call, a stream-file
    replay, or a shard worker, and the stream/shard header comparisons
    can rely on plain equality.
    """

    def coerce(value):
        tolist = getattr(value, "tolist", None)
        if tolist is not None:  # numpy scalars and arrays
            return tolist()
        raise TypeError(
            f"scenario param value {value!r} ({type(value).__name__}) is "
            "not JSON-serializable"
        )

    return json.loads(json.dumps(dict(params or {}), default=coerce))


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Derive the seed for one trial.

    Trial 0 keeps the base seed (exact parity with the pre-runner,
    single-seed benchmarks); later trials draw independent streams from a
    :class:`numpy.random.SeedSequence` keyed on ``(base_seed, index)``.
    """
    if trial_index == 0:
        return base_seed
    sequence = np.random.SeedSequence((base_seed, trial_index))
    return int(sequence.generate_state(1, dtype=np.uint64)[0] % (2**63))


@dataclass
class TrialContext:
    """Everything one trial may depend on.

    Attributes:
        scenario: Name of the scenario being run.
        trial_index: 0-based index of this trial within the run.
        seed: This trial's derived seed — the *only* source of randomness
            a trial function should use.
        params: Scenario parameters (CLI ``--param`` overrides merged over
            scenario defaults).
        cache: Preset cache used by :meth:`preset`.
    """

    scenario: str
    trial_index: int
    seed: int
    params: Mapping[str, Any] = field(default_factory=dict)
    cache: PresetCache | None = None
    profile_cache: ProfileCache | None = None

    def rng(self, stream: int = 0) -> np.random.Generator:
        """Independent generator for sub-component ``stream``."""
        return np.random.default_rng(self.seed + stream)

    def preset(self, name: str, **overrides) -> TrainedPreset:
        """Load a trained preset through the (shared, on-disk) cache."""
        cache = self.cache if self.cache is not None else PresetCache()
        return cache.load(name, **overrides)

    def profile(
        self,
        preset_name: str,
        qmodel,
        attack_x,
        attack_y,
        rounds: int,
        config=None,
        extra_key: dict | None = None,
    ):
        """Multi-round vulnerable-bit profile, via the on-disk cache.

        The cache key covers the preset recipe, the round count, the
        search configuration, and ``extra_key`` (callers must include
        whatever determined ``attack_x``/``attack_y`` — typically the
        trial seed and batch size).  A warm load replays the stored
        rounds bit-for-bit instead of re-running the BFA search.
        """
        from repro.attacks.profile import profile_vulnerable_bits
        from repro.presets import preset_spec

        cache = (
            self.profile_cache
            if self.profile_cache is not None
            else ProfileCache()
        )
        config_key = None
        if config is not None:
            config_key = {**dataclasses.asdict(config), **_RETIRED_BFA_FIELDS}
        attack_config = {
            "rounds": int(rounds),
            "config": config_key,
            "extra": extra_key or {},
        }
        return cache.load(
            preset_spec(preset_name),
            attack_config,
            lambda: profile_vulnerable_bits(
                qmodel, attack_x, attack_y, rounds=rounds, config=config
            ),
        )

    def param(self, key: str, default: Any = None) -> Any:
        """Scenario parameter with a default (``--param key=value``)."""
        return self.params.get(key, default)


@dataclass(frozen=True)
class MetricStats:
    """Aggregate of one metric across trials."""

    mean: float
    std: float
    ci95: float
    n: int
    values: tuple[float, ...]

    @classmethod
    def from_values(cls, values: list[float]) -> "MetricStats":
        array = np.asarray(values, dtype=float)
        n = int(array.size)
        std = float(array.std(ddof=1)) if n > 1 else 0.0
        return cls(
            mean=float(array.mean()),
            std=std,
            ci95=1.96 * std / math.sqrt(n) if n > 1 else 0.0,
            n=n,
            values=tuple(float(v) for v in array),
        )

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "ci95": self.ci95,
            "n": self.n,
            "values": list(self.values),
        }


@dataclass
class ScenarioResult:
    """Aggregate outcome of a scenario run.

    ``metrics`` maps each metric name to its cross-trial statistics;
    ``detail`` carries trial 0's rich payload (series, tables) for
    reporting; ``per_trial_metrics`` preserves the raw per-trial values in
    trial order.

    ``elapsed_s``, ``jobs``, and ``backend`` describe *how* the run
    executed; they are available for reporting but deliberately excluded
    from :meth:`to_json` so the persisted artifact is byte-identical for
    the same (scenario, trials, seed, params) no matter which backend ran
    the trials.
    """

    scenario: str
    trials: int
    jobs: int
    seed: int
    params: dict
    elapsed_s: float
    metrics: dict[str, MetricStats]
    detail: dict
    per_trial_metrics: list[dict]
    check_error: str | None = None
    backend: str = "serial"

    def metric(self, name: str) -> float:
        """Mean value of one metric (the common access path in checks)."""
        return self.metrics[name].mean

    def to_json(self) -> dict:
        """JSON-artifact form (deterministic content only).

        See ``repro.experiments.artifacts``; runtime facts (``elapsed_s``,
        ``jobs``, ``backend``) stay off the artifact so that serial,
        process-pool, and shard-merged runs of the same scenario/seed
        write the same bytes.
        """
        return {
            "scenario": self.scenario,
            "trials": self.trials,
            "seed": self.seed,
            "params": self.params,
            "metrics": {k: v.to_json() for k, v in sorted(self.metrics.items())},
            "detail": self.detail,
            "per_trial_metrics": self.per_trial_metrics,
            "check_error": self.check_error,
        }


def scan_stream_lines(
    path: pathlib.Path, lines: list[str]
) -> tuple[dict | None, list[str], list[dict], bool]:
    """Torn-tolerant parse of trial-stream JSONL lines.

    The single parser behind both :class:`TrialStream` resume and
    :func:`repro.experiments.backends.read_stream` (the harvest/merge
    path), so torn-line semantics cannot fork between them.  Returns
    ``(header, intact_lines, records, torn_tail)``:

    * ``header`` — the parsed header line, or ``None`` when the file
      holds nothing but a torn header (the writer died mid-first-write;
      nothing is recoverable).
    * ``intact_lines`` — the raw lines up to (excluding) a torn tail,
      for callers that truncate before appending.
    * ``records`` — the parsed ``type == "trial"`` records, in file
      order.
    * ``torn_tail`` — True when a torn trailing line was dropped (the
      signature of a write interrupted by a crash or kill).  Because
      appends are sequential, an interrupted write can only ever be the
      *last* line — so an unparseable line with records after it (a
      corrupt header included) raises ``ValueError``: that is
      corruption, not an interrupted write, and silently dropping it
      would discard salvageable trials.
    """
    if not lines:
        return None, [], [], False
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        if len(lines) == 1:
            return None, [], [], True
        raise ValueError(
            f"{path}: header line is corrupt (not valid JSON) but trial "
            "records follow — corruption, not an interrupted write"
        ) from None
    intact = [lines[0]]
    records: list[dict] = []
    torn = False
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                warnings.warn(
                    f"{path}: dropping torn trailing record (interrupted "
                    "write); its trial counts as missing and will re-run",
                    RuntimeWarning,
                )
                torn = True
                break
            raise ValueError(
                f"{path}: line {lineno} is corrupt (not valid JSON)"
            ) from None
        intact.append(line)
        if record.get("type") == "trial":
            records.append(record)
    return header, intact, records, torn


class TrialStream:
    """Append-only JSONL stream of per-trial results.

    Long sweeps stream each trial's payload as it completes (instead of
    gathering everything at the end), so a run is inspectable mid-flight
    and *resumable*: re-running with ``resume=True`` replays completed
    trials from the file and only executes the missing ones.

    File format: a ``{"type": "header", ...}`` line identifying the run
    (scenario, base seed, params, plus any ``extra_header`` fields such
    as the shard manifest written by ``repro run --shard i/N``), then one
    ``{"type": "trial", ...}`` line per completed trial carrying its
    index, derived seed, metrics, and detail payload.  Resuming against a
    header that does not match the requested run raises instead of
    silently mixing results.

    Workers running under a heartbeat interval additionally interleave
    ``{"type": "heartbeat", "time": …, "done": n}`` lines (see
    :meth:`heartbeat`) so the sharded coordinator can tell a *slow*
    worker from a *hung* one.  Heartbeats are liveness telemetry, not
    results: every stream parser keys on ``type == "trial"``, so they
    are invisible to resume, salvage, and merge — and never reach the
    artifact.  Appends and heartbeats share one lock because the
    heartbeat comes from a side thread and interleaved partial lines
    would corrupt the stream.

    Crash tolerance on resume: a torn *trailing* line — the signature of
    an ``append`` interrupted by a crash or a kill — is dropped with a
    warning (and the file truncated back to its last complete record, so
    later appends stay parseable); its trial simply re-runs.  A torn
    header means the run died before recording anything, so the stream
    starts over.  Corruption anywhere else is a hard error.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        scenario: str,
        seed: int,
        params: dict,
        resume: bool = False,
        extra_header: dict | None = None,
    ):
        self.path = pathlib.Path(path)
        self.completed: dict[int, dict] = {}
        self._lock = threading.Lock()
        self._closed = False
        header = {
            "type": "header",
            "scenario": scenario,
            "seed": seed,
            "params": params,
        }
        if extra_header:
            header.update(extra_header)
        if resume and self.path.exists():
            if self._resume_existing(header):
                return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Streaming sink by design: records are flushed one line at a time
        # as trials finish, so there is no final document to write
        # atomically; torn tails are healed on resume by scan_stream_lines.
        self._fh = open(self.path, "w")  # repro: noqa[REP005]
        self._fh.write(json.dumps(header) + "\n")
        self._fh.flush()

    def _resume_existing(self, header: dict) -> bool:
        """Replay an existing stream file; False = start the file over."""
        lines = [
            line for line in self.path.read_text().splitlines()
            if line.strip()
        ]
        if not lines:
            return False
        existing, intact, records, torn = scan_stream_lines(self.path, lines)
        if existing is None:
            warnings.warn(
                f"{self.path}: stream header is torn (interrupted write); "
                "starting the stream over",
                RuntimeWarning,
            )
            return False
        for key in header:
            if key == "type":
                continue
            if existing.get(key) != header[key]:
                raise ValueError(
                    f"cannot resume {self.path}: stored {key}="
                    f"{existing.get(key)!r} does not match requested "
                    f"{header[key]!r}"
                )
        for record in records:
            self.completed[int(record["trial_index"])] = {
                "metrics": record["metrics"],
                "detail": record.get("detail", {}),
            }
        if torn:
            # Truncate the torn tail before appending, or the next
            # record would concatenate onto the partial line.  Atomic:
            # a crash mid-rewrite must not lose the intact records this
            # rewrite exists to preserve.
            atomic_write_text(self.path, "\n".join(intact) + "\n")
        self._fh = open(self.path, "a")
        return True

    def append(self, trial_index: int, seed: int, payload: dict) -> None:
        with self._lock:
            self._fh.write(
                json.dumps(
                    {
                        "type": "trial",
                        "trial_index": trial_index,
                        "seed": seed,
                        "metrics": payload["metrics"],
                        "detail": payload.get("detail", {}),
                    }
                )
                + "\n"
            )
            self._fh.flush()

    def heartbeat(self, done: int) -> None:
        """Append a liveness record (worker wall-clock + trials done).

        Safe to call from a side thread concurrently with :meth:`append`;
        a heartbeat racing :meth:`close` is silently dropped (the worker
        is exiting — its exit code is the liveness signal from there on).
        """
        with self._lock:
            if self._closed:
                return
            self._fh.write(
                json.dumps(
                    {"type": "heartbeat", "time": time.time(), "done": done}
                )
                + "\n"
            )
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._fh.close()


def _execute_trial(
    scenario_name: str,
    trial_index: int,
    seed: int,
    params: dict,
    cache_root: str | None,
    profile_root: str | None,
) -> dict:
    """Top-level (picklable) worker: run one trial in this process."""
    from repro.experiments.registry import get_scenario

    spec = get_scenario(scenario_name)
    ctx = TrialContext(
        scenario=scenario_name,
        trial_index=trial_index,
        seed=seed,
        params=params,
        cache=PresetCache(cache_root) if cache_root is not None else PresetCache(),
        profile_cache=ProfileCache(profile_root),
    )
    return spec.run_trial(ctx)


def aggregate_result(
    name: str,
    payloads: list[dict],
    seed: int,
    params: dict,
    elapsed_s: float = 0.0,
    jobs: int = 1,
    backend: str = "serial",
) -> ScenarioResult:
    """Aggregate per-trial payloads (in trial order) into a result.

    This is the single aggregation path shared by :func:`run_scenario`
    and the sharded ``repro merge`` workflow — both produce their
    :class:`ScenarioResult` here, which is what guarantees a merged
    multi-host run serialises to the same artifact bytes as a single-host
    run.
    """
    n_trials = len(payloads)
    metric_values: dict[str, list[float]] = {}
    for payload in payloads:
        for key, value in payload["metrics"].items():
            metric_values.setdefault(key, []).append(float(value))
    for key, values in metric_values.items():
        if len(values) != n_trials:
            raise ValueError(
                f"metric {key!r} reported by {len(values)}/{n_trials} "
                "trials; metrics must be present in every trial"
            )
    return ScenarioResult(
        scenario=name,
        trials=n_trials,
        jobs=jobs,
        seed=seed,
        params=params,
        elapsed_s=elapsed_s,
        metrics={
            key: MetricStats.from_values(values)
            for key, values in metric_values.items()
        },
        detail=payloads[0].get("detail", {}),
        per_trial_metrics=[p["metrics"] for p in payloads],
        backend=backend,
    )


def run_scenario(
    name: str,
    trials: int | None = None,
    jobs: int = 1,
    seed: int = 0,
    params: Mapping[str, Any] | None = None,
    cache: PresetCache | None = None,
    profile_cache: ProfileCache | None = None,
    progress: Callable[[int, int], None] | None = None,
    stream_path: str | pathlib.Path | None = None,
    resume: bool = False,
    backend: "Backend | None" = None,
) -> ScenarioResult:
    """Run ``trials`` independent trials of scenario ``name``.

    Args:
        name: Registered scenario name (see ``repro list``).
        trials: Trial count; ``None`` uses the scenario's default.
        jobs: Worker processes.  ``1`` runs in-process (no pool); the
            aggregate is identical for any value by construction.
            Ignored when an explicit ``backend`` is supplied.
        seed: Base seed; trial seeds derive from it via
            :func:`trial_seed`.
        params: Scenario parameter overrides.
        cache: Preset cache override (its root is forwarded to workers).
        profile_cache: Attack-profile cache override (root forwarded to
            workers the same way).
        progress: Optional ``callback(done, total)`` after each trial.
        stream_path: When set, per-trial results are appended to this
            JSONL file as they complete (see :class:`TrialStream`).
        resume: With ``stream_path``, replay trials already present in
            the stream file and run only the missing ones.
        backend: Execution backend (see
            :mod:`repro.experiments.backends`).  ``None`` selects
            :class:`SerialBackend` for ``jobs == 1`` and
            :class:`ProcessPoolBackend` otherwise.

    Returns:
        The aggregated :class:`ScenarioResult` (checks are *not* run —
        callers decide whether check failures are fatal).
    """
    from repro.experiments.backends import (
        ExecutionPlan,
        ProcessPoolBackend,
        SerialBackend,
    )
    from repro.experiments.registry import get_scenario

    spec = get_scenario(name)
    n_trials = spec.default_trials if trials is None else trials
    if n_trials < 1:
        raise ValueError(f"trials must be >= 1, got {n_trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if backend is None:
        backend = SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs)
    run_params = normalize_params(params)
    cache = cache if cache is not None else PresetCache()
    profile_cache = (
        profile_cache if profile_cache is not None else ProfileCache()
    )
    seeds = [trial_seed(seed, i) for i in range(n_trials)]

    stream: TrialStream | None = None
    if stream_path is not None:
        stream = TrialStream(
            stream_path, scenario=name, seed=seed, params=run_params,
            resume=resume,
        )

    start = time.perf_counter()
    payloads: list[dict] = [{} for _ in range(n_trials)]
    pending = list(range(n_trials))
    done = 0
    if stream is not None and stream.completed:
        pending = [i for i in pending if i not in stream.completed]
        for i, payload in stream.completed.items():
            if i < n_trials:
                payloads[i] = payload
        done = n_trials - len(pending)
        if progress is not None and done:
            progress(done, n_trials)

    def record(index: int, payload: dict) -> None:
        nonlocal done
        payloads[index] = payload
        if stream is not None:
            stream.append(index, seeds[index], payload)
        done += 1
        if progress is not None:
            progress(done, n_trials)

    plan = ExecutionPlan(
        scenario=name,
        spec=spec,
        trials=n_trials,
        seed=seed,
        seeds=seeds,
        params=run_params,
        pending=pending,
        cache=cache,
        profile_cache=profile_cache,
        record=record,
    )
    try:
        backend.run(plan)
    finally:
        # Completed trials are flushed (appended + fsynced per line) even
        # when a later trial crashes mid-sweep, so --resume can pick up
        # from the stream file afterwards.
        if stream is not None:
            stream.close()
    elapsed = time.perf_counter() - start
    return aggregate_result(
        name, payloads, seed=seed, params=run_params, elapsed_s=elapsed,
        jobs=jobs, backend=backend.name,
    )
