"""Pluggable execution backends for the scenario runner.

:func:`repro.experiments.runner.run_scenario` plans a run (trial seeds,
pending indices, caches, streaming) and hands the actual trial execution
to a *backend*:

* :class:`SerialBackend` — in-process loop, no pool.  The reference
  implementation every other backend must match bit-for-bit.
* :class:`ProcessPoolBackend` — ``--jobs N`` fan-out over a local
  ``ProcessPoolExecutor`` (fork when available, so dynamically
  registered test scenarios stay visible in workers).
* :class:`ShardedBackend` — a dynamic chunk-lease scheduler over ``N``
  CLI worker subprocesses.  Pending trial indices are carved into small
  *chunks* on demand; each worker leases the next chunk, runs it
  as ``python -m repro run <scenario> --chunk K --trial-indices i,j,…``
  (streaming per-trial JSONL), and steals the next chunk as soon as it
  finishes — so sweep wall-clock is bounded by the total work, not by
  the slowest static shard.  A first-class fault policy rides on top:
  per-chunk timeouts (a hung worker is killed and its remaining trials
  requeued), bounded retries with the failing worker's error tail
  preserved, and salvage-on-failure (completed trials are harvested
  from every worker's stream and recorded before any raise, so
  ``--resume`` re-runs only genuinely missing trials).

Two stream-file flavours exist, and both carry the full run identity
(scenario, base seed, params, total trials) plus a manifest in their
header:

* shard streams (``<scenario>.shard-IofN.trials.jsonl``) — the static
  ``--shard I/N`` worker used for *manual* multi-machine fan-out: shard
  ``I`` of ``N`` owns trial indices ``I, I+N, I+2N, …``
  (:func:`shard_indices`).  Run shard ``0/2`` on one host, ``1/2`` on
  another, copy the files together, fuse with ``repro merge``.
* chunk streams (``<scenario>.chunk-K.trials.jsonl``) — written by the
  scheduler's chunk workers; the header's ``chunk.trial_indices`` lists
  exactly the indices the lease owned.

:func:`merge_shards` fuses any mix of the two (plus plain ``--stream``
files): headers must agree on the run identity, every per-trial seed
must re-derive from the base seed, and the union must cover every trial
— duplicates are tolerated only when the duplicate records are
identical.  Because the merged result is aggregated by the same
:func:`repro.experiments.runner.aggregate_result` path as a single-host
run, the merged artifact is byte-identical to the one ``--jobs N`` would
have written.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import heapq
import json
import math
import multiprocessing
import os
import pathlib
import random
import re
import shutil
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.cache import PresetCache, ProfileCache
from repro.experiments.runner import (
    ScenarioResult,
    TrialContext,
    TrialStream,
    _execute_trial,
    aggregate_result,
    normalize_params,
    scan_stream_lines,
    trial_seed,
)
from repro.experiments.transport import (
    LocalSubprocessTransport,
    Transport,
    TransportError,
    WorkerHandle,
    WorkerSpec,
    chunk_stream_path,
)
from repro.utils.env import env_float, env_str

__all__ = [
    "Backend",
    "ExecutionPlan",
    "SerialBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "parse_shard",
    "shard_indices",
    "shard_stream_path",
    "chunk_stream_path",
    "run_shard",
    "run_chunk",
    "read_stream",
    "discover_shards",
    "discover_chunks",
    "discover_streams",
    "merge_shards",
]


@dataclass
class ExecutionPlan:
    """Everything a backend needs to execute one scenario run.

    Attributes:
        scenario: Registered scenario name.
        spec: The resolved :class:`repro.experiments.registry.Scenario`.
        trials: Total trial count of the run.
        seed: Base seed of the run.
        seeds: Derived per-trial seeds, ``seeds[i] == trial_seed(seed, i)``.
        params: Scenario parameter overrides.
        pending: Trial indices that still need to execute (resume may
            have replayed the rest).
        cache / profile_cache: Shared caches; backends forward the roots
            to worker processes.
        record: ``record(index, payload)`` — must be called exactly once
            per pending index, from the coordinating process.  Backends
            may call it in any order; aggregation is order-independent
            because payloads land in an index-addressed list.
    """

    scenario: str
    spec: object
    trials: int
    seed: int
    seeds: list[int]
    params: dict
    pending: list[int]
    cache: PresetCache
    profile_cache: ProfileCache
    record: Callable[[int, dict], None]


class Backend:
    """Executes the pending trials of an :class:`ExecutionPlan`.

    Subclasses implement :meth:`run`; ``name`` identifies the backend in
    reports and result metadata.
    """

    name = "abstract"

    def run(self, plan: ExecutionPlan) -> None:
        raise NotImplementedError


class SerialBackend(Backend):
    """In-process, one-trial-at-a-time execution (the ``--jobs 1`` path)."""

    name = "serial"

    def run(self, plan: ExecutionPlan) -> None:
        for i in plan.pending:
            ctx = TrialContext(
                scenario=plan.scenario, trial_index=i, seed=plan.seeds[i],
                params=plan.params, cache=plan.cache,
                profile_cache=plan.profile_cache,
            )
            plan.record(i, plan.spec.run_trial(ctx))


class ProcessPoolBackend(Backend):
    """Local process-pool fan-out (the ``--jobs N`` path).

    Completed trials are recorded (and therefore streamed to JSONL) even
    when another trial in the same batch raises; the first failure is
    re-raised after the pool drains so ``--resume`` only has to re-run
    the genuinely missing trials.
    """

    name = "process-pool"

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(self, plan: ExecutionPlan) -> None:
        if self.jobs == 1 or len(plan.pending) <= 1:
            SerialBackend().run(plan)
            return
        # Fork keeps dynamically-registered scenarios (tests) visible in
        # workers; spawned workers re-import the built-ins by name.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context("spawn")
        cache_root = str(plan.cache.root)
        profile_root = str(plan.profile_cache.root)
        first_error: BaseException | None = None
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.jobs, len(plan.pending)), mp_context=context
        ) as pool:
            futures = {
                pool.submit(
                    _execute_trial, plan.scenario, i, plan.seeds[i],
                    plan.params, cache_root, profile_root,
                ): i
                for i in plan.pending
            }
            for future in concurrent.futures.as_completed(futures):
                try:
                    plan.record(futures[future], future.result())
                except Exception as exc:  # re-raised below; KeyboardInterrupt
                    if first_error is None:  # and friends propagate at once
                        first_error = exc
        if first_error is not None:
            raise first_error


# ---------------------------------------------------------------------- #
# Worker-side fault injection (driven by ChaosTransport)
# ---------------------------------------------------------------------- #

def _maybe_inject_chaos(
    stage: str,
    stream: TrialStream | None = None,
    hb_stop: threading.Event | None = None,
) -> None:
    """Fire the worker fault :class:`ChaosTransport` asked this launch for.

    :class:`repro.experiments.transport.ChaosTransport` sets
    ``REPRO_CHAOS=<mode>`` only on the launch it faults, and only chunk
    *worker* processes consult it (never the coordinator):

    * ``crash-start`` — exit hard (``os._exit``) before running any trial.
    * ``crash`` — after recording a trial, exit hard, leaving the stream
      file behind for salvage.
    * ``stall-io`` — after recording a trial, stop writing (heartbeats
      included) but stay alive: the worker looks healthy to ``poll()``
      yet its stream goes silent, so only a timeout can reclaim its
      trials.
    * ``truncate-stream`` — after recording a trial, append a torn
      (half-written) record to the stream and exit hard: the classic
      interrupted-write signature the torn-tail parser must absorb.
    * ``slow`` — sleep ``REPRO_CHAOS_SLOW_S`` (default 0.75s) after
      every recorded trial, heartbeats still flowing: slow-but-alive,
      the case heartbeat-aware timeouts must *not* kill.

    ``stall-io`` sets ``hb_stop`` first: a stuck worker's heartbeat
    thread must stop beating, or the liveness signal would report the
    stall as mere slowness forever.
    """
    mode = env_str("REPRO_CHAOS", "")
    if stage == "start":
        if mode == "crash-start":
            print("chaos: injected worker crash at chunk start",
                  file=sys.stderr, flush=True)
            os._exit(23)
        return
    if mode == "slow":
        time.sleep(env_float("REPRO_CHAOS_SLOW_S", 0.75))
        return
    if mode not in ("crash", "stall-io", "truncate-stream"):
        return
    print(f"chaos: injected worker {mode} after a recorded trial",
          file=sys.stderr, flush=True)
    if mode == "truncate-stream" and stream is not None:
        with stream._lock:
            stream._fh.write('{"type": "trial", "trial_index"')
            stream._fh.flush()
    if mode != "stall-io":
        os._exit(23)
    if hb_stop is not None:
        hb_stop.set()
    time.sleep(3600)  # a timeout kill is the only exit


# ---------------------------------------------------------------------- #
# Shard and chunk manifests
# ---------------------------------------------------------------------- #

def parse_shard(text: str) -> tuple[int, int]:
    """Parse a ``"i/N"`` shard designator into ``(index, count)``."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like I/N (e.g. 0/2), got {text!r}"
        ) from None
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return index, count


def shard_indices(trials: int, index: int, count: int) -> list[int]:
    """Trial indices owned by shard ``index`` of ``count`` (strided).

    Striding (``i, i+N, i+2N, …``) balances heterogeneous trial costs
    better than contiguous blocks and keeps every shard non-empty while
    ``index < trials``.
    """
    if not 0 <= index < count:
        raise ValueError(f"shard index must be in [0, {count}), got {index}")
    return list(range(index, trials, count))


def shard_stream_path(
    directory: str | pathlib.Path, scenario: str, index: int, count: int
) -> pathlib.Path:
    """Canonical JSONL location of one shard's trial stream."""
    return pathlib.Path(directory) / (
        f"{scenario}.shard-{index}of{count}.trials.jsonl"
    )


_CHUNK_ID_RE = re.compile(r"\.chunk-(\d+)\.trials\.jsonl$")


def _shard_header(trials: int, index: int, count: int) -> dict:
    return {
        "trials": trials,
        "shard": {
            "index": index,
            "count": count,
            "trial_indices": shard_indices(trials, index, count),
        },
    }


def _chunk_header(trials: int, chunk_id: int, indices: list[int]) -> dict:
    return {
        "trials": trials,
        "chunk": {"id": chunk_id, "trial_indices": list(indices)},
    }


def run_shard(
    name: str,
    shard: tuple[int, int],
    trials: int | None = None,
    seed: int = 0,
    params: dict | None = None,
    directory: str | pathlib.Path | None = None,
    cache: PresetCache | None = None,
    profile_cache: ProfileCache | None = None,
    resume: bool = False,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> pathlib.Path:
    """Execute one shard of a scenario run; returns the stream path.

    This is the worker side of ``python -m repro run <scenario> --shard
    i/N``: it runs only the trial indices owned by the shard, streaming
    each completed trial to the shard's JSONL file.  No aggregate is
    computed — that is :func:`merge_shards`' job once every shard file is
    available.
    """
    index, count = shard
    n_trials = _resolved_trials(name, trials)
    owned = shard_indices(n_trials, index, count)
    return _run_stream_worker(
        name, n_trials, owned, seed, params, directory, cache, profile_cache,
        resume=resume, jobs=jobs, progress=progress,
        stream_path_for=lambda d: shard_stream_path(d, name, index, count),
        extra_header=_shard_header(n_trials, index, count),
    )


def run_chunk(
    name: str,
    chunk_id: int,
    indices: list[int],
    trials: int | None = None,
    seed: int = 0,
    params: dict | None = None,
    directory: str | pathlib.Path | None = None,
    cache: PresetCache | None = None,
    profile_cache: ProfileCache | None = None,
    resume: bool = True,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
    heartbeat_interval: float | None = None,
) -> pathlib.Path:
    """Execute one chunk lease (an explicit trial-index list).

    The worker side of ``python -m repro run <scenario> --chunk K
    --trial-indices i,j,…``, dispatched by :class:`ShardedBackend`.
    Resume defaults to on: a retried lease replays whatever its previous
    attempt managed to stream and runs only the still-missing trials.
    With ``heartbeat_interval`` set the worker interleaves liveness
    records into its stream (see :meth:`TrialStream.heartbeat`) so the
    coordinator can tell slow from hung.
    """
    if chunk_id < 0:
        raise ValueError(f"chunk id must be >= 0, got {chunk_id}")
    n_trials = _resolved_trials(name, trials)
    owned = list(dict.fromkeys(int(i) for i in indices))
    if not owned:
        raise ValueError("chunk owns no trial indices")
    bad = [i for i in owned if not 0 <= i < n_trials]
    if bad:
        raise ValueError(
            f"chunk trial indices {bad} out of range for {n_trials} trial(s)"
        )
    return _run_stream_worker(
        name, n_trials, owned, seed, params, directory, cache, profile_cache,
        resume=resume, jobs=jobs, progress=progress,
        stream_path_for=lambda d: chunk_stream_path(d, name, chunk_id),
        extra_header=_chunk_header(n_trials, chunk_id, owned),
        chaos=True,
        heartbeat_interval=heartbeat_interval,
    )


def _resolved_trials(name: str, trials: int | None) -> int:
    from repro.experiments.registry import get_scenario

    spec = get_scenario(name)
    n_trials = spec.default_trials if trials is None else trials
    if n_trials < 1:
        raise ValueError(f"trials must be >= 1, got {n_trials}")
    return n_trials


def _run_stream_worker(
    name: str,
    n_trials: int,
    owned: list[int],
    seed: int,
    params: dict | None,
    directory: str | pathlib.Path | None,
    cache: PresetCache | None,
    profile_cache: ProfileCache | None,
    resume: bool,
    jobs: int,
    progress: Callable[[int, int], None] | None,
    stream_path_for: Callable[[pathlib.Path], pathlib.Path],
    extra_header: dict,
    chaos: bool = False,
    heartbeat_interval: float | None = None,
) -> pathlib.Path:
    """Shared shard/chunk worker: stream ``owned`` trials to JSONL."""
    from repro.experiments.artifacts import default_results_dir
    from repro.experiments.registry import get_scenario

    if heartbeat_interval is not None and heartbeat_interval <= 0:
        raise ValueError(
            f"heartbeat interval must be > 0 seconds, got {heartbeat_interval}"
        )
    spec = get_scenario(name)
    # Same JSON normalisation as run_scenario, so stream headers compare
    # equal to the coordinator's params regardless of input types.
    run_params = normalize_params(params)
    cache = cache if cache is not None else PresetCache()
    profile_cache = (
        profile_cache if profile_cache is not None else ProfileCache()
    )
    out_dir = (
        pathlib.Path(directory) if directory is not None
        else default_results_dir()
    )
    path = stream_path_for(out_dir)
    if chaos:
        _maybe_inject_chaos("start")
    seeds = [trial_seed(seed, i) for i in range(n_trials)]
    stream = TrialStream(
        path, scenario=name, seed=seed, params=run_params, resume=resume,
        extra_header=extra_header,
    )
    pending = [i for i in owned if i not in stream.completed]
    done = len(owned) - len(pending)
    hb_stop = threading.Event()
    hb_thread: threading.Thread | None = None
    if heartbeat_interval is not None:
        def _beat() -> None:
            # First beat after one interval, then steadily — reading
            # `done` racily is fine, it is telemetry not a result.
            while not hb_stop.wait(heartbeat_interval):
                stream.heartbeat(done)

        hb_thread = threading.Thread(
            target=_beat, name="trial-stream-heartbeat", daemon=True
        )
        hb_thread.start()

    def record(i: int, payload: dict) -> None:
        nonlocal done
        stream.append(i, seeds[i], payload)
        done += 1
        if progress is not None:
            progress(done, len(owned))
        if chaos:
            _maybe_inject_chaos("trial", stream=stream, hb_stop=hb_stop)

    plan = ExecutionPlan(
        scenario=name, spec=spec, trials=n_trials, seed=seed, seeds=seeds,
        params=run_params, pending=pending, cache=cache,
        profile_cache=profile_cache, record=record,
    )
    worker = SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs)
    try:
        worker.run(plan)
    finally:
        hb_stop.set()
        if hb_thread is not None:
            # Beat-in-flight must finish before the stream closes.
            hb_thread.join(timeout=5.0)
        stream.close()
    return path


# ---------------------------------------------------------------------- #
# Reading and merging trial streams
# ---------------------------------------------------------------------- #

def _scan_stream_file(
    path: pathlib.Path,
) -> tuple[dict | None, dict[int, dict]]:
    """Parse one stream file into ``(header, {trial_index: record})``.

    ``(None, {})`` means the file holds nothing recoverable — it is
    empty, absent, or a lone torn header line (the writer died before
    recording anything).  Mid-file corruption still raises ``ValueError``
    loudly (see :func:`repro.experiments.runner.scan_stream_lines`):
    silently skipping a file that *does* hold intact records would
    re-run — or, at merge time, double-count — salvageable trials.
    """
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        return None, {}
    header, _, raw_records, _ = scan_stream_lines(path, lines)
    if header is None:
        return None, {}
    if header.get("type") != "header":
        raise ValueError(
            f"trial stream {path} does not start with a valid header"
        )
    records: dict[int, dict] = {}
    for record in raw_records:
        records[int(record["trial_index"])] = {
            "seed": record.get("seed"),
            "metrics": record["metrics"],
            "detail": record.get("detail", {}),
        }
    return header, records


def read_stream(path: str | pathlib.Path) -> tuple[dict, dict[int, dict]]:
    """Read one trial stream: ``(header, {trial_index: record})``.

    Each record keeps the trial's ``seed`` alongside ``metrics`` and
    ``detail`` so merging can re-validate seed derivation.  A torn
    *trailing* line — the signature of an interrupted ``append`` (worker
    killed or crashed mid-write) — is dropped with a warning, so the
    completed records above it stay salvageable; a corrupt line anywhere
    else is a hard error.
    """
    path = pathlib.Path(path)
    header, records = _scan_stream_file(path)
    if header is None:
        raise ValueError(
            f"trial stream {path} is empty (or holds only a torn header)"
        )
    return header, records


def discover_shards(
    directory: str | pathlib.Path, scenario: str
) -> list[pathlib.Path]:
    """All shard stream files for ``scenario`` under ``directory``."""
    return sorted(
        pathlib.Path(directory).glob(f"{scenario}.shard-*of*.trials.jsonl")
    )


def discover_chunks(
    directory: str | pathlib.Path, scenario: str
) -> list[pathlib.Path]:
    """All chunk stream files for ``scenario`` under ``directory``."""
    return sorted(
        pathlib.Path(directory).glob(f"{scenario}.chunk-*.trials.jsonl")
    )


def discover_streams(
    directory: str | pathlib.Path, scenario: str
) -> list[pathlib.Path]:
    """Shard *and* chunk stream files for ``scenario`` (merge input)."""
    return discover_shards(directory, scenario) + discover_chunks(
        directory, scenario
    )


def _stream_owned(header: dict, n_trials: int) -> tuple[str, set[int]]:
    """Stream kind and the trial indices its manifest owns."""
    shard = header.get("shard")
    if shard is not None:
        return "shard", set(shard.get("trial_indices", range(n_trials)))
    chunk = header.get("chunk")
    if chunk is not None:
        return "chunk", set(chunk.get("trial_indices", ()))
    # A plain --stream file (no manifest) may hold any trial of the run.
    return "stream", set(range(n_trials))


def merge_shards(
    paths: list[str | pathlib.Path],
    scenario: str | None = None,
    elapsed_s: float = 0.0,
) -> ScenarioResult:
    """Fuse shard/chunk stream files into the canonical aggregate result.

    Validation mirrors ``TrialStream`` resume, extended across files:

    * every header must agree on scenario, base seed, params, and total
      trials;
    * shard files must agree on the shard count, with distinct indices
      (no double-submitted shard);
    * every recorded trial must belong to its file's manifest (shard
      stride or chunk index list) and carry the seed
      :func:`repro.experiments.runner.trial_seed` derives;
    * the union of trials must cover ``0..trials-1``; a trial recorded
      by more than one file (e.g. a salvaged chunk attempt plus its
      retry) is accepted only when the duplicate records are identical.

    The aggregate goes through
    :func:`repro.experiments.runner.aggregate_result`, so the returned
    result — and the artifact written from it — is identical to what a
    single-host run of the same (scenario, trials, seed, params) produces.
    """
    if not paths:
        raise ValueError("merge_shards needs at least one shard file")
    headers: list[tuple[pathlib.Path, dict]] = []
    all_records: list[tuple[pathlib.Path, dict[int, dict]]] = []
    for path in paths:
        header, records = read_stream(path)
        headers.append((pathlib.Path(path), header))
        all_records.append((pathlib.Path(path), records))

    first_path, first = headers[0]
    if scenario is not None and first.get("scenario") != scenario:
        raise ValueError(
            f"{first_path} holds scenario {first.get('scenario')!r}, "
            f"expected {scenario!r}"
        )
    for key in ("scenario", "seed", "params", "trials"):
        if key not in first:
            raise ValueError(f"{first_path} header is missing {key!r}")
        for path, header in headers[1:]:
            if header.get(key) != first[key]:
                raise ValueError(
                    f"cannot merge {path}: stored {key}="
                    f"{header.get(key)!r} does not match "
                    f"{first_path}'s {first[key]!r}"
                )
    counts = {
        h["shard"].get("count") for _, h in headers if "shard" in h
    }
    if len(counts) > 1:
        raise ValueError(
            f"shard headers disagree on shard count: {sorted(map(str, counts))}"
        )
    seen_shards: set[int] = set()
    for path, header in headers:
        if "shard" not in header:
            continue
        index = header["shard"]["index"]
        if index in seen_shards:
            raise ValueError(f"duplicate shard index {index} (at {path})")
        seen_shards.add(index)

    n_trials = int(first["trials"])
    base_seed = int(first["seed"])
    payloads: list[dict | None] = [None] * n_trials
    for (path, header), (_, records) in zip(headers, all_records):
        kind, owned = _stream_owned(header, n_trials)
        for index, record in records.items():
            if index not in owned:
                raise ValueError(
                    f"{path}: trial {index} does not belong to this "
                    f"{kind}'s manifest"
                )
            expected_seed = trial_seed(base_seed, index)
            if record["seed"] != expected_seed:
                raise ValueError(
                    f"{path}: trial {index} recorded seed {record['seed']}, "
                    f"but base seed {base_seed} derives {expected_seed}"
                )
            payload = {
                "metrics": record["metrics"], "detail": record["detail"],
            }
            if payloads[index] is not None:
                if payloads[index] != payload:
                    raise ValueError(
                        f"trial {index} appears in multiple streams with "
                        f"conflicting records (at {path})"
                    )
                continue  # identical duplicate (salvaged attempt + retry)
            payloads[index] = payload
    missing = [i for i, p in enumerate(payloads) if p is None]
    if missing:
        raise ValueError(
            f"merge is incomplete: missing trial(s) {missing} "
            f"({len(paths)} stream file(s) present)"
        )
    return aggregate_result(
        str(first["scenario"]), payloads, seed=base_seed,
        params=dict(first["params"]), elapsed_s=elapsed_s,
        jobs=len(paths), backend="sharded-merge",
    )


# ---------------------------------------------------------------------- #
# The work-stealing chunk scheduler
# ---------------------------------------------------------------------- #

#: Scheduler poll cadence.  Low enough that a finished worker's slot is
#: re-leased almost immediately; high enough to stay invisible in profiles.
_POLL_INTERVAL_S = 0.05
_ERROR_TAIL_LINES = 8
#: Retry backoff: the first retry waits ``_BACKOFF_BASE_S``, each later
#: one twice the previous, never more than ``_BACKOFF_CAP_S``.
_BACKOFF_BASE_S = 0.5
_BACKOFF_CAP_S = 30.0
#: Backoff jitter fraction: a retry waits ``delay * (1 + U[0, 0.25))`` so
#: simultaneously-failing chunks fan back out instead of thundering in.
_BACKOFF_JITTER = 0.25
#: Adaptive chunk sizing steers each lease toward roughly this duration.
_TARGET_LEASE_S = 5.0
_EWMA_ALPHA = 0.5
#: How many consecutive launch refusals (TransportError) a chunk absorbs
#: before refusals start consuming its retry budget — keeps a transport
#: that refuses forever from spinning the scheduler.
_MAX_LAUNCH_REFUSALS = 5
#: How much of a stream file's tail to scan for the latest heartbeat.
_HEARTBEAT_TAIL_BYTES = 65536


@dataclass
class _Lease:
    """One running chunk worker: handle, manifest, timeout bookkeeping."""

    chunk_id: int
    indices: list[int]
    attempt: int
    handle: WorkerHandle
    transport: Transport
    deadline: float | None
    started: float
    extensions: int = 0


def _backoff_delay(chunk_id: int, attempt: int) -> float:
    """Seconds to wait before re-dispatching ``chunk_id``.

    Capped exponential in the attempt that just failed, with
    deterministic jitter (seeded by ``(chunk_id, attempt)`` so a re-run
    of the same failing sweep waits the same delays).
    """
    base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** max(0, attempt - 1)))
    jitter = random.Random(f"{chunk_id}:{attempt}").random()
    return base * (1.0 + _BACKOFF_JITTER * jitter)


def _last_heartbeat(path: pathlib.Path) -> float | None:
    """Worker wall-clock of the newest heartbeat in a stream file's tail.

    Trial records count as liveness too — a worker steadily recording
    results is alive by definition, whether or not a heartbeat happens to
    be the last line — but trial records carry no timestamp, so only
    heartbeat lines (which do) can answer *when*.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - _HEARTBEAT_TAIL_BYTES))
            tail = fh.read().decode("utf-8", errors="replace")
    except OSError:
        return None
    for line in reversed(tail.splitlines()):
        if '"heartbeat"' not in line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn heartbeat: keep scanning upward
        if record.get("type") == "heartbeat" and "time" in record:
            return float(record["time"])
    return None


class ShardedBackend(Backend):
    """Run a scenario as a work-stealing pool of CLI chunk workers.

    The single-host orchestration of the sharded workflow: leases
    (chunks of pending trial indices) are carved on demand; up to
    ``shards`` worker subprocesses (``python -m repro run <scenario>
    --chunk K --trial-indices …``) hold one chunk lease each, and an
    idle worker slot immediately leases the next chunk instead of
    idling behind a straggler.  Worker stdout/stderr goes to a per-lease
    log file — never a pipe — so a chatty worker can't fill a pipe and
    deadlock the join, and the scheduler's poll loop never blocks on any
    single worker.

    Fault policy:

    * ``timeout`` — a lease running longer than this many seconds is
      killed; completed trials are harvested from its stream and only
      the remainder is requeued.
    * ``retries`` — a failed or timed-out chunk is re-dispatched at most
      this many times (the retried lease *resumes* its stream file, so
      prior completed trials replay instead of re-running).  When the
      budget is exhausted the error tail of every failed attempt is
      preserved in the raised ``RuntimeError``.
    * salvage-on-failure — before any raise, every worker stream is
      harvested and its completed trials recorded with the coordinator,
      so a coordinator-level ``--resume`` re-runs only genuinely
      missing trials.  An ephemeral workdir is kept (and its path
      reported) instead of being destroyed on failure.

    Because the chunk worker is the public CLI, anything this backend
    does locally can be reproduced across machines by hand — the
    cross-backend determinism tests pin serial, process-pool, and sharded
    execution to byte-identical artifacts.

    Where workers *run* is delegated to a
    :class:`repro.experiments.transport.Transport` (local subprocesses
    by default, ``ssh`` hosts, or chaos-wrapped either).  The scheduler
    only ever records trials it parsed back out of a chunk stream, so
    the exactly-once / byte-identical-artifact contract is independent
    of anything a transport does to a worker or its bytes.

    Args:
        shards: Maximum concurrent worker subprocesses.
        python: Interpreter for the workers (default: ``sys.executable``).
        workdir: Where chunk streams land; ``None`` uses a temporary
            directory (deleted after a clean run, kept on failure).
        env: Extra environment variables for the workers (merged over a
            copy of ``os.environ``; ``PYTHONPATH`` is always extended so
            workers can import ``repro`` from this checkout).
        resume: Salvage completed trials from existing shard/chunk
            streams in ``workdir`` before dispatching any worker.  Only
            meaningful with a persistent ``workdir``.
        timeout: Per-chunk lease timeout in seconds (``None`` = never
            kill a worker).  With heartbeats on, the timeout applies to
            *silence*, not runtime: a worker past its deadline that is
            still heartbeating is warned about and granted another
            timeout window instead of being killed.
        retries: Re-dispatch budget per chunk after its first failure.
            Every retry waits out a capped exponential backoff (0.5s,
            doubling, at most 30s) with deterministic jitter; the
            schedule is reported when the budget is exhausted.
        chunk_size: Trials per chunk lease; ``None`` auto-sizes to
            ``ceil(pending / (4 * shards))`` so each worker sees ~4
            leases and stealing has room to balance stragglers — and
            then *adapts*: an EWMA of observed per-trial seconds steers
            later leases toward ~5s each (never above a worker's fair
            share of the remainder), so cheap trials coalesce and
            expensive ones spread out.  An explicit size disables
            adaptation.  Either way leases are carved on demand from
            the ordered pending pool.
        transport: Where chunk workers execute; ``None`` builds a
            :class:`LocalSubprocessTransport` over ``python``.  When the
            transport reports no healthy host left (every ssh/chaos host
            quarantined), the sweep degrades to local subprocess
            execution instead of failing.
        heartbeat_interval: Ask workers to interleave heartbeat records
            into their streams every this-many seconds, and make the
            lease timeout heartbeat-aware.  ``None`` (default) preserves
            the historical behaviour: no heartbeats, timeout kills
            unconditionally.
    """

    name = "sharded"

    def __init__(
        self,
        shards: int,
        python: str | None = None,
        workdir: str | pathlib.Path | None = None,
        env: dict[str, str] | None = None,
        resume: bool = False,
        timeout: float | None = None,
        retries: int = 1,
        chunk_size: int | None = None,
        transport: Transport | None = None,
        heartbeat_interval: float | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                "heartbeat interval must be > 0 seconds, "
                f"got {heartbeat_interval}"
            )
        self.shards = shards
        self.python = python or sys.executable
        self.workdir = pathlib.Path(workdir) if workdir is not None else None
        self.env = dict(env or {})
        self.resume = resume
        self.timeout = timeout
        self.retries = retries
        self.chunk_size = chunk_size
        self.transport = transport
        self.heartbeat_interval = heartbeat_interval
        self._ewma_trial_s: float | None = None

    # ------------------------------------------------------------------ #
    # Worker plumbing
    # ------------------------------------------------------------------ #

    def _worker_extras(self, plan: ExecutionPlan) -> dict[str, str]:
        """Coordinator-owned env extras shipped to every chunk worker.

        Only the *extras* — the transport merges them over whatever base
        environment its execution venue provides (``os.environ`` for
        local subprocesses, the remote login env for ssh).
        """
        extras = dict(self.env)
        # Chunk workers must resolve the exact same caches as this
        # process, whatever roots the caller passed programmatically.
        extras["REPRO_CACHE_DIR"] = str(plan.cache.root)
        extras["REPRO_PROFILE_DIR"] = str(plan.profile_cache.root)
        return extras

    def _launch(
        self,
        plan: ExecutionPlan,
        directory: pathlib.Path,
        chunk_id: int,
        indices: list[int],
        attempt: int,
        extras: dict[str, str],
        transport: Transport,
    ) -> _Lease:
        spec = WorkerSpec(
            scenario=plan.scenario, chunk_id=chunk_id, indices=list(indices),
            trials=plan.trials, seed=plan.seed, params=plan.params,
            workdir=directory, attempt=attempt, env=extras,
            heartbeat_interval=self.heartbeat_interval,
        )
        handle = transport.start(spec)
        now = time.monotonic()
        deadline = now + self.timeout if self.timeout is not None else None
        return _Lease(
            chunk_id=chunk_id, indices=list(indices), attempt=attempt,
            handle=handle, transport=transport, deadline=deadline,
            started=now,
        )

    def _next_chunk_size(self, remaining: int, initial: int) -> int:
        """Size of the next lease carved from the pending pool.

        An explicit ``chunk_size`` is used as is.  Otherwise the size
        adapts to the per-trial latency EWMA: until a latency
        observation exists, stick with the initial ~4-leases-per-worker
        size; after that, aim each lease at roughly ``_TARGET_LEASE_S``
        of work (half the lease timeout if that is tighter), clamped to
        a worker's fair share of what is left so the last leases cannot
        concentrate in one worker.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        if self._ewma_trial_s is None or self._ewma_trial_s <= 0:
            return min(initial, max(1, remaining))
        target_s = _TARGET_LEASE_S
        if self.timeout is not None:
            target_s = min(target_s, self.timeout / 2)
        size = max(1, round(target_s / self._ewma_trial_s))
        fair = max(1, math.ceil(remaining / self.shards))
        return max(1, min(size, fair, initial * 4))

    def _observe_latency(self, elapsed: float, recorded: int) -> None:
        if recorded <= 0 or elapsed <= 0:
            return
        per_trial = elapsed / recorded
        if self._ewma_trial_s is None:
            self._ewma_trial_s = per_trial
        else:
            self._ewma_trial_s = (
                _EWMA_ALPHA * per_trial
                + (1.0 - _EWMA_ALPHA) * self._ewma_trial_s
            )

    def _order_pending(
        self, plan: ExecutionPlan, pending: list[int]
    ) -> list[int]:
        """Lease order: most expensive first when the scenario hints costs.

        Launching predicted-expensive trials first keeps the inevitable
        stragglers at the *start* of the run, where stealing can absorb
        them, instead of discovering one in the final lease.  A broken
        hint degrades to index order with a warning — scheduling order
        never affects results, only wall-clock.
        """
        cost_fn = getattr(plan.spec, "trial_cost", None)
        if cost_fn is None:
            return list(pending)
        try:
            costs = {i: float(cost_fn(i, plan.params)) for i in pending}
        except Exception as exc:
            warnings.warn(
                f"trial_cost hint for {plan.scenario} failed ({exc}); "
                "falling back to index order",
                RuntimeWarning,
            )
            return list(pending)
        return sorted(pending, key=lambda i: (-costs[i], i))

    # ------------------------------------------------------------------ #
    # Harvesting streams back into the coordinator
    # ------------------------------------------------------------------ #

    def _header_matches(self, plan: ExecutionPlan, header: dict) -> bool:
        return (
            header.get("scenario") == plan.scenario
            and header.get("seed") == plan.seed
            and header.get("params") == plan.params
            and header.get("trials") == plan.trials
        )

    def _record_stream(
        self,
        plan: ExecutionPlan,
        pending: set[int],
        path: pathlib.Path,
        records: dict[int, dict],
    ) -> None:
        for i in sorted(records):
            if i not in pending:
                continue
            record = records[i]
            if record["seed"] != plan.seeds[i]:
                raise ValueError(
                    f"{path}: trial {i} recorded seed {record['seed']}, "
                    f"expected {plan.seeds[i]}"
                )
            plan.record(i, {
                "metrics": record["metrics"], "detail": record["detail"],
            })
            pending.discard(i)

    def _harvest_chunk(
        self,
        plan: ExecutionPlan,
        pending: set[int],
        directory: pathlib.Path,
        chunk_id: int,
        on_corrupt: str = "raise",
    ) -> bool:
        """Record whatever a (possibly dead) chunk worker streamed.

        An empty or torn-header-only file salvages nothing (the worker
        died before recording anything).  Mid-file corruption depends on
        the caller: the resume/salvage paths use ``on_corrupt="raise"``
        (an operator should see corruption, not a silent re-run), while
        the live scheduler uses ``"quarantine"`` — the corrupt file is
        moved aside (so neither a retried worker's resume nor ``repro
        merge`` ever reads it), the lease counts as a failed attempt,
        and the retry streams into a fresh file.  Returns False exactly
        when a corrupt stream was quarantined.  Exactly-once holds
        either way: harvesting parses *before* recording, so a corrupt
        file records nothing, and its trials simply re-run.
        """
        path = chunk_stream_path(directory, plan.scenario, chunk_id)
        if not path.exists():
            return True
        try:
            header, records = _scan_stream_file(path)
        except ValueError as exc:
            if on_corrupt != "quarantine":
                raise
            from repro.experiments.artifacts import quarantine_corrupt_file

            quarantined = quarantine_corrupt_file(path)
            warnings.warn(
                f"chunk {chunk_id} stream is corrupt ({exc}); moved it to "
                f"{quarantined.name} — its unrecorded trials will re-run",
                RuntimeWarning,
            )
            return False
        if header is None:
            return True
        if not self._header_matches(plan, header):
            raise ValueError(
                f"{path}: chunk stream header does not match the "
                "coordinating run"
            )
        self._record_stream(plan, pending, path, records)
        return True

    def _salvage_existing(
        self, plan: ExecutionPlan, pending: set[int], directory: pathlib.Path
    ) -> None:
        """Resume path: harvest shard/chunk streams left by earlier runs.

        Empty or torn-header-only files are skipped (nothing to
        salvage); a stream with mid-file corruption raises loudly so the
        operator sees the corruption instead of a silent full re-run.
        """
        for path in discover_streams(directory, plan.scenario):
            header, records = _scan_stream_file(path)
            if header is None:
                continue
            if not self._header_matches(plan, header):
                warnings.warn(
                    f"{path}: stream header belongs to a different run; "
                    "ignoring it",
                    RuntimeWarning,
                )
                continue
            self._record_stream(plan, pending, path, records)

    # ------------------------------------------------------------------ #
    # The scheduler loop
    # ------------------------------------------------------------------ #

    def run(self, plan: ExecutionPlan) -> None:
        pending = set(plan.pending)
        if not pending:
            return
        if self.workdir is not None:
            directory, ephemeral = self.workdir, False
            directory.mkdir(parents=True, exist_ok=True)
        else:
            directory = pathlib.Path(
                tempfile.mkdtemp(prefix="repro-shards-")
            )
            ephemeral = True
        first_id = 0
        if self.resume:
            self._salvage_existing(plan, pending, directory)
            if not pending:
                if ephemeral:
                    shutil.rmtree(directory, ignore_errors=True)
                return
            # Leave salvaged streams on disk (they are the crash-safe
            # record) and number new chunks after the highest existing id
            # so a retried run never collides with an old manifest.
            existing = [
                int(m.group(1))
                for m in map(
                    _CHUNK_ID_RE.search,
                    map(str, discover_chunks(directory, plan.scenario)),
                )
                if m
            ]
            first_id = max(existing, default=-1) + 1
        else:
            # A fresh run in a persistent workdir must not inherit chunk
            # streams (or logs) from an earlier run of the same scenario.
            for stale in discover_chunks(directory, plan.scenario):
                stale.unlink()
            for stale in directory.glob(f"{plan.scenario}.chunk-*.log"):
                stale.unlink()
            for stale in directory.glob(
                f"{plan.scenario}.chunk-*.trials.jsonl.corrupt-*"
            ):
                stale.unlink()
        try:
            self._schedule(plan, pending, directory, first_id)
            if pending:
                raise RuntimeError(
                    f"chunk workers never reported trial(s) {sorted(pending)}"
                )
        except BaseException:
            if ephemeral:
                warnings.warn(
                    "sharded run failed; partial chunk streams kept for "
                    f"inspection at {directory}",
                    RuntimeWarning,
                )
            raise
        if ephemeral:
            shutil.rmtree(directory, ignore_errors=True)

    def _schedule(
        self,
        plan: ExecutionPlan,
        pending: set[int],
        directory: pathlib.Path,
        first_id: int,
    ) -> None:
        extras = self._worker_extras(plan)
        transport = self.transport or LocalSubprocessTransport(
            python=self.python
        )
        transports = [transport]  # every venue used, for final close()
        # Leases are carved on demand, so an adaptive size can change
        # mid-run; chunk ids count up from ``first_id`` in carve order.
        pool = collections.deque(self._order_pending(plan, sorted(pending)))
        initial_chunk = max(1, math.ceil(len(pool) / (4 * self.shards)))
        next_id = first_id
        #: Chunks whose retry is scheduled for the future: a min-heap of
        #: ``(ready_at, chunk_id, indices)`` — backoff without blocking
        #: the poll loop or the other workers.
        retry_heap: list[tuple[float, int, list[int]]] = []
        attempts: dict[int, int] = collections.defaultdict(int)
        refusals: dict[int, int] = collections.defaultdict(int)
        failures: dict[int, list[str]] = {}
        backoffs: dict[int, list[float]] = {}
        exhausted = False  # some chunk ran out of retries
        running: list[_Lease] = []
        degraded = False

        def next_lease() -> tuple[int, list[int]] | None:
            nonlocal next_id
            if retry_heap and retry_heap[0][0] <= time.monotonic():
                _, chunk_id, indices = heapq.heappop(retry_heap)
                return chunk_id, indices
            if pool:
                size = self._next_chunk_size(len(pool), initial_chunk)
                indices = [pool.popleft() for _ in range(min(size, len(pool)))]
                chunk_id = next_id
                next_id += 1
                return chunk_id, indices
            return None

        def requeue(chunk_id: int, indices: list[int], attempt: int) -> None:
            delay = _backoff_delay(chunk_id, attempt)
            backoffs.setdefault(chunk_id, []).append(delay)
            heapq.heappush(
                retry_heap, (time.monotonic() + delay, chunk_id, indices)
            )

        def finish(lease: _Lease, code: int | None, timed_out: bool) -> None:
            nonlocal exhausted
            # Salvage first: whatever the worker streamed before dying is
            # recorded, and only the remainder retries.
            lease.handle.sync()
            lease.handle.close()
            owned_before = sum(1 for i in lease.indices if i in pending)
            clean_stream = self._harvest_chunk(
                plan, pending, directory, lease.chunk_id,
                on_corrupt="quarantine",
            )
            missing = [i for i in lease.indices if i in pending]
            self._observe_latency(
                time.monotonic() - lease.started,
                owned_before - len(missing),
            )
            ok = (
                code == 0 and not timed_out and clean_stream and not missing
            )
            lease.transport.report(lease.handle, ok)
            if not missing:
                if code not in (0, None) or timed_out:
                    warnings.warn(
                        f"chunk {lease.chunk_id} worker "
                        f"{'timed out' if timed_out else f'exited {code}'}"
                        " but every owned trial was salvaged from "
                        "its stream",
                        RuntimeWarning,
                    )
                return
            if timed_out:
                reason = f"timed out after {self.timeout:g}s (killed)"
            elif not clean_stream:
                reason = "streamed corrupt bytes (file quarantined)"
            elif code == 0:
                reason = "exited 0 without recording them"
            else:
                reason = f"exited {code}"
            tail = lease.handle.error_tail(_ERROR_TAIL_LINES)
            detail = (
                f"chunk {lease.chunk_id} attempt {lease.attempt} "
                f"({len(missing)} missing trial(s) {missing}) "
                f"{reason}" + (f":\n{tail}" if tail else "")
            )
            failures.setdefault(lease.chunk_id, []).append(detail)
            if attempts[lease.chunk_id] > self.retries:
                exhausted = True
            else:
                # Requeue the chunk under its original manifest: the
                # retried lease resumes its stream file (unless it was
                # quarantined), so salvaged trials replay and only the
                # missing ones actually run.
                requeue(lease.chunk_id, lease.indices, lease.attempt)

        try:
            while pool or retry_heap or running:
                if not degraded and not transport.available():
                    warnings.warn(
                        f"transport {transport.describe()} has no healthy "
                        "host left; degrading to local subprocess execution",
                        RuntimeWarning,
                    )
                    transport = LocalSubprocessTransport(python=self.python)
                    transports.append(transport)
                    degraded = True
                while not exhausted and len(running) < self.shards:
                    item = next_lease()
                    if item is None:
                        break
                    chunk_id, indices = item
                    attempts[chunk_id] += 1
                    try:
                        running.append(self._launch(
                            plan, directory, chunk_id, indices,
                            attempts[chunk_id], extras, transport,
                        ))
                    except TransportError as exc:
                        # A host problem, not a chunk problem: requeue
                        # without consuming the chunk's retry budget —
                        # until refusals repeat enough to mean the
                        # transport itself is the failure.
                        attempts[chunk_id] -= 1
                        refusals[chunk_id] += 1
                        if refusals[chunk_id] % _MAX_LAUNCH_REFUSALS == 0:
                            attempts[chunk_id] += 1
                            detail = (
                                f"chunk {chunk_id} launch refused "
                                f"{refusals[chunk_id]} time(s) by "
                                f"{transport.describe()} ({exc}); counting "
                                "a failed attempt"
                            )
                            failures.setdefault(chunk_id, []).append(detail)
                            if attempts[chunk_id] > self.retries:
                                exhausted = True
                                break
                        requeue(
                            chunk_id, indices, max(1, refusals[chunk_id])
                        )
                        break  # re-check availability before retrying
                time.sleep(_POLL_INTERVAL_S)
                still_running: list[_Lease] = []
                for lease in running:
                    code = lease.handle.poll()
                    timed_out = False
                    if (
                        code is None
                        and lease.deadline is not None
                        and time.monotonic() > lease.deadline
                    ):
                        if self._lease_is_heartbeating(lease):
                            lease.extensions += 1
                            lease.deadline = time.monotonic() + self.timeout
                            warnings.warn(
                                f"chunk {lease.chunk_id} exceeded the "
                                f"{self.timeout:g}s lease timeout but is "
                                "still heartbeating (extension "
                                f"{lease.extensions}); letting it run",
                                RuntimeWarning,
                            )
                        else:
                            timed_out = True
                    if code is None and not timed_out:
                        still_running.append(lease)
                        continue
                    if timed_out:
                        lease.handle.kill()
                        lease.handle.wait()
                    finish(lease, code, timed_out)
                running = still_running
                if exhausted:
                    # Kill the survivors promptly, but harvest their
                    # streams so every completed trial is recorded before
                    # the raise (--resume then re-runs only the rest).
                    for lease in running:
                        lease.handle.kill()
                        lease.handle.wait()
                        lease.handle.sync()
                        lease.handle.close()
                        self._harvest_chunk(
                            plan, pending, directory, lease.chunk_id,
                            on_corrupt="quarantine",
                        )
                    running = []
                    break
        finally:
            for lease in running:  # interrupt path: no orphaned workers
                with contextlib.suppress(OSError):
                    lease.handle.kill()
                    lease.handle.wait()
                lease.handle.close()
            for venue in transports:
                with contextlib.suppress(Exception):
                    venue.close()
        if exhausted:
            history = [
                entry
                for chunk_id in sorted(failures)
                for entry in failures[chunk_id]
            ]
            schedule = [
                f"chunk {chunk_id} backoff schedule: "
                + ", ".join(f"{delay:.2f}s" for delay in backoffs[chunk_id])
                for chunk_id in sorted(backoffs)
            ]
            raise RuntimeError(
                "sharded execution failed: retry budget exhausted "
                f"(--retries {self.retries}) with trial(s) {sorted(pending)} "
                "still missing; completed trials were salvaged into the "
                "coordinating run (use --resume to re-run only the missing "
                f"ones; chunk streams under {directory}).\n"
                + "\n".join(history + schedule)
            )

    def _lease_is_heartbeating(self, lease: _Lease) -> bool:
        """Liveness check for a lease past its deadline.

        Only meaningful when this backend asked its workers to heartbeat;
        without that, the historical behaviour stands — deadline means
        kill.  The worker stamps heartbeats with its own wall-clock, so
        freshness compares against ``time.time()`` here (same machine for
        local workers; ssh hosts need sane clocks, which the generous
        grace window absorbs).
        """
        if self.heartbeat_interval is None:
            return False
        lease.handle.sync()
        beat = _last_heartbeat(lease.handle.stream_path)
        if beat is None:
            return False
        grace = max(3.0 * self.heartbeat_interval, 2.0)
        return time.time() - beat <= grace
