"""Fault policy of the work-stealing sharded scheduler.

A hung worker is timeout-killed and its chunk requeued; a crashed
worker's completed trials are salvaged and the chunk retried; the retry
budget is bounded, and exhausting it preserves the failing worker's
error tail and backoff schedule; after a failed sweep, ``--resume``
re-runs only the genuinely missing trials (nothing lost, nothing
recomputed); and in every recovered case the artifact is byte-identical
to the serial backend's.

The sweeps use the built-in ``fig6`` scenario (cheap, deterministic,
and resolvable by chunk-worker subprocesses).  Every fault comes from
:class:`ChaosTransport`: ``plan={(chunk, attempt): mode}`` faults
exactly the launches it names, and ``rate=1.0`` with one mode faults
every lease.  Each test reads ``transport.injected`` to check that its
fault fired.  Two tests need no real worker: one fires the worker-side
hook in-process, and the backoff-timing test uses a test transport
whose leases die at once.
"""

import json
import time
from collections import Counter

import pytest

from repro.experiments import (
    ChaosTransport,
    PresetCache,
    ProfileCache,
    SerialBackend,
    ShardedBackend,
    Transport,
    WorkerSpec,
    run_chunk,
    run_scenario,
    unregister,
    write_artifact,
)
from repro.experiments import backends
from repro.experiments.backends import discover_chunks, read_stream
from repro.experiments.registry import scenario as scenario_decorator
from repro.experiments.transport import WorkerHandle

SCENARIO = "fig6"


def _scripted(plan, **kwargs):
    """A transport that faults exactly the launches ``plan`` names."""
    return ChaosTransport(rate=0.0, plan=plan, **kwargs)


def _every_lease(mode, retries):
    """A transport that faults every lease of a ``retries``-budget run."""
    return ChaosTransport(
        rate=1.0, modes=(mode,), max_faults_per_chunk=retries + 2,
    )


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retries wait 0.05s, doubling, at most 0.5s (plus jitter)."""
    monkeypatch.setattr(backends, "_BACKOFF_BASE_S", 0.05)
    monkeypatch.setattr(backends, "_BACKOFF_CAP_S", 0.5)


def _serial(trials=4, seed=3):
    return run_scenario(SCENARIO, trials=trials, seed=seed,
                        backend=SerialBackend())


def _stream_counts(path) -> Counter:
    counts = Counter()
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") == "trial":
            counts[record["trial_index"]] += 1
    return counts


class TestBackendValidation:
    @pytest.mark.parametrize("kwargs", [
        {"timeout": 0}, {"timeout": -1.0}, {"retries": -1}, {"chunk_size": 0},
        {"heartbeat_interval": 0.0},
    ])
    def test_rejects_bad_fault_policy_args(self, kwargs):
        with pytest.raises(ValueError):
            ShardedBackend(2, **kwargs)


class _FinishedWorker(WorkerHandle):
    """A lease that already ran to completion."""

    def poll(self):
        return 0

    def kill(self):
        pass

    def wait(self):
        pass


class _DeadWorker(_FinishedWorker):
    """A lease whose worker died at once, before recording a trial."""

    def poll(self):
        return 23


class _CrashingTransport(Transport):
    """Every lease dies at once; records when each one was launched."""

    name = "crashing"

    def __init__(self):
        self.launches: list[tuple[int, int, float]] = []

    def start(self, spec: WorkerSpec) -> WorkerHandle:
        self.launches.append((spec.chunk_id, spec.attempt, time.monotonic()))
        return _DeadWorker(
            spec, "local", spec.workdir / spec.log_name,
            spec.workdir / spec.stream_name,
        )


class _InProcessTransport(Transport):
    """Runs each chunk lease in this process, before ``start`` returns."""

    name = "in-process"

    def start(self, spec: WorkerSpec) -> WorkerHandle:
        path = run_chunk(
            spec.scenario, spec.chunk_id, spec.indices, trials=spec.trials,
            seed=spec.seed, params=spec.params, directory=spec.workdir,
            cache=PresetCache(spec.env["REPRO_CACHE_DIR"]),
            profile_cache=ProfileCache(spec.env["REPRO_PROFILE_DIR"]),
        )
        return _FinishedWorker(
            spec, "local", spec.workdir / spec.log_name, path,
        )


class TestLeaseCarving:
    """Leases are carved on demand from the ordered pending pool."""

    @pytest.fixture
    def toy(self):
        scenario_decorator("_carve-toy", title="t", source="s")(
            lambda ctx: {"metrics": {"trial": float(ctx.trial_index)}}
        )
        yield "_carve-toy"
        unregister("_carve-toy")

    @staticmethod
    def _manifests(work, name):
        headers = [read_stream(p)[0] for p in discover_chunks(work, name)]
        return [
            (h["chunk"]["id"], h["chunk"]["trial_indices"]) for h in headers
        ]

    def test_auto_size_starts_at_four_leases_per_worker(self, tmp_path, toy):
        work = tmp_path / "work"
        run_scenario(
            toy, trials=16, seed=0,
            backend=ShardedBackend(
                2, workdir=work, transport=_InProcessTransport(),
            ),
        )
        manifests = self._manifests(work, toy)
        # ceil(16 / (4 * 2)) = 2 trials each, until latency is observed.
        assert manifests[:2] == [(0, [0, 1]), (1, [2, 3])]
        assert [chunk_id for chunk_id, _ in manifests] == list(
            range(len(manifests))
        )
        assert [i for _, indices in manifests for i in indices] == list(
            range(16)
        )

    def test_explicit_size_carves_after_existing_chunk_ids(
        self, tmp_path, toy
    ):
        work = tmp_path / "work"
        run_chunk(toy, 4, [7], trials=8, seed=0, directory=work)
        run_scenario(
            toy, trials=8, seed=0,
            backend=ShardedBackend(
                2, workdir=work, resume=True, chunk_size=3,
                transport=_InProcessTransport(),
            ),
        )
        assert self._manifests(work, toy) == [
            (4, [7]), (5, [0, 1, 2]), (6, [3, 4, 5]), (7, [6]),
        ]


class TestCrashRecovery:
    def test_crashed_worker_is_salvaged_and_retried_to_completion(
        self, tmp_path, fast_backoff
    ):
        serial = _serial()
        transport = _scripted({(0, 1): "crash"})
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(
                2, workdir=tmp_path / "work", transport=transport,
                retries=2, chunk_size=2,
            ),
        )
        assert transport.injected == [(0, 1, "crash")]
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b

    def test_hung_worker_is_killed_and_requeued(self, tmp_path, fast_backoff):
        serial = _serial()
        transport = _scripted({(0, 1): "stall-io"})
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(
                2, workdir=tmp_path / "work", transport=transport,
                timeout=4, retries=2, chunk_size=2,
            ),
        )
        assert transport.injected == [(0, 1, "stall-io")]
        assert result.to_json() == serial.to_json()

    def test_acceptance_hung_plus_crashing_worker_four_shards(
        self, tmp_path, fast_backoff
    ):
        """--backend sharded --shards 4 --shard-timeout T --retries 2
        with one hung and one crashed worker completes with a
        serial-identical artifact."""
        serial = _serial(trials=8)
        transport = _scripted({(0, 1): "crash", (1, 1): "stall-io"})
        result = run_scenario(
            SCENARIO, trials=8, seed=3,
            backend=ShardedBackend(
                4, workdir=tmp_path / "work", transport=transport,
                timeout=4, retries=2, chunk_size=2,
            ),
        )
        assert sorted(transport.injected) == [
            (0, 1, "crash"), (1, 1, "stall-io"),
        ]
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b


class TestRetryExhaustion:
    def test_exhaustion_raises_with_error_tail_and_resume_hint(
        self, tmp_path, fast_backoff
    ):
        transport = _every_lease("crash-start", retries=1)
        with pytest.raises(RuntimeError) as err:
            run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    2, workdir=tmp_path / "work", transport=transport,
                    retries=1, chunk_size=2,
                ),
            )
        assert {mode for _, _, mode in transport.injected} == {"crash-start"}
        message = str(err.value)
        assert "retry budget exhausted" in message
        assert "--resume" in message
        # The failing worker's stderr tail is preserved in the error.
        assert "chaos: injected worker crash at chunk start" in message
        assert "attempt 2" in message  # retries=1 -> two attempts recorded

    def test_ephemeral_workdir_is_kept_on_failure(self, tmp_path, capsys):
        """No persistent workdir: the temp dir must survive a failed run
        (reported via warning) instead of destroying partial streams."""
        import pathlib
        import shutil

        with pytest.warns(RuntimeWarning, match="kept for inspection"):
            with pytest.raises(RuntimeError) as err:
                run_scenario(
                    SCENARIO, trials=2, seed=3,
                    backend=ShardedBackend(
                        1, transport=_every_lease("crash-start", retries=0),
                        retries=0,
                    ),
                )
        workdir = pathlib.Path(
            str(err.value).split("chunk streams under ")[1].split(")")[0]
        )
        assert workdir.is_dir()
        shutil.rmtree(workdir, ignore_errors=True)


class TestSalvageThenResume:
    def test_resume_runs_only_missing_trials(self, tmp_path):
        """Forced mid-sweep failure, then resume: every trial lands in
        the coordinator stream exactly once."""
        serial = _serial()
        stream = tmp_path / "fig6.trials.jsonl"
        # One worker, one 4-trial chunk, crash after the first recorded
        # trial, zero retries: the run fails but must salvage trial 0.
        transport = _scripted({(0, 1): "crash"})
        with pytest.raises(RuntimeError):
            run_scenario(
                SCENARIO, trials=4, seed=3, stream_path=stream,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work", transport=transport,
                    retries=0, chunk_size=4,
                ),
            )
        assert transport.injected == [(0, 1, "crash")]
        salvaged = _stream_counts(stream)
        assert salvaged, "no trials salvaged into the coordinator stream"
        assert set(salvaged) != {0, 1, 2, 3}, "nothing left to resume"
        result = run_scenario(
            SCENARIO, trials=4, seed=3, stream_path=stream, resume=True,
            backend=ShardedBackend(
                1, workdir=tmp_path / "work", resume=True, chunk_size=4,
            ),
        )
        counts = _stream_counts(stream)
        assert counts == Counter({0: 1, 1: 1, 2: 1, 3: 1})
        assert result.to_json() == serial.to_json()

    def test_backend_resume_salvages_chunk_streams_without_coordinator_stream(
        self, tmp_path
    ):
        """Chunk streams left in the workdir by an aborted run are
        harvested by a resume run before any worker is dispatched."""
        serial = _serial()
        work = tmp_path / "work"
        transport = _scripted({(0, 1): "crash"})
        with pytest.raises(RuntimeError):
            run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    1, workdir=work, transport=transport,
                    retries=0, chunk_size=4,
                ),
            )
        assert transport.injected == [(0, 1, "crash")]
        before = {p.name: p.read_text() for p in discover_chunks(work, SCENARIO)}
        assert before, "aborted run left no chunk streams to salvage"
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(
                1, workdir=work, resume=True, chunk_size=4,
            ),
        )
        assert result.to_json() == serial.to_json()
        # Salvaged streams stay on disk (they are the crash-safe record).
        after = {p.name: p.read_text() for p in discover_chunks(work, SCENARIO)}
        for name, text in before.items():
            assert after[name] == text

    def test_resume_with_nothing_missing_dispatches_no_worker(self, tmp_path):
        """A complete set of chunk streams resumes without any
        subprocess (no new attempt logs appear)."""
        work = tmp_path / "work"
        run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(2, workdir=work, chunk_size=2),
        )
        logs_before = sorted(p.name for p in work.glob("*.log"))
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(2, workdir=work, resume=True,
                                   chunk_size=2),
        )
        assert sorted(p.name for p in work.glob("*.log")) == logs_before
        assert result.to_json() == _serial().to_json()

    def test_resume_raises_loudly_on_corrupt_chunk_stream(self, tmp_path):
        """Mid-file corruption in a salvageable stream must surface, not
        be silently skipped (which would re-run recorded trials)."""
        work = tmp_path / "work"
        run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(2, workdir=work, chunk_size=2),
        )
        chunk = discover_chunks(work, SCENARIO)[0]
        lines = chunk.read_text().splitlines()
        lines[1] = lines[1][:15]  # corrupt a non-trailing record
        chunk.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(2, workdir=work, resume=True,
                                       chunk_size=2),
            )


class TestWorkdirHygiene:
    def test_reused_workdir_is_faulted_again_by_a_fresh_run(
        self, tmp_path, fast_backoff
    ):
        """Fault injection keeps no state in the workdir: a fresh run that
        reuses it is faulted again, and no hidden file is left behind."""
        work = tmp_path / "work"
        serial = _serial(trials=2).to_json()
        for _ in range(2):
            transport = _scripted({(0, 1): "crash"})
            result = run_scenario(
                SCENARIO, trials=2, seed=3,
                backend=ShardedBackend(
                    1, workdir=work, transport=transport,
                    retries=1, chunk_size=2,
                ),
            )
            assert transport.injected == [(0, 1, "crash")]
            log = work / "fig6.chunk-0000.attempt-1.log"
            assert "chaos: injected worker crash" in log.read_text()
            assert result.to_json() == serial
        assert [p.name for p in work.iterdir() if p.name.startswith(".")] == []

    def test_launch_failure_does_not_leak_log_handle(self, tmp_path):
        backend = ShardedBackend(
            1, workdir=tmp_path / "work", python="/nonexistent/python",
            retries=0,
        )
        with pytest.raises(FileNotFoundError):
            run_scenario(SCENARIO, trials=2, seed=3, backend=backend)


class TestStreamFaultModes:
    """Stream-level worker faults: stalled I/O and torn writes."""

    def test_stalled_io_worker_is_reclaimed_by_timeout(
        self, tmp_path, fast_backoff
    ):
        """A worker that stops writing (heartbeats included) but stays
        alive must be timeout-killed even with heartbeats enabled —
        silence, not process death, is the hang signal."""
        serial = _serial()
        transport = _scripted({(0, 1): "stall-io"})
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(
                2, workdir=tmp_path / "work", transport=transport,
                timeout=3, retries=2, chunk_size=2,
                heartbeat_interval=0.2,
            ),
        )
        assert transport.injected == [(0, 1, "stall-io")]
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b

    def test_truncated_stream_is_salvaged_and_retried(
        self, tmp_path, fast_backoff
    ):
        """A worker that dies mid-write leaves a torn trailing record:
        the parser drops it, complete records salvage, the rest re-run."""
        serial = _serial()
        transport = _scripted({(0, 1): "truncate-stream"})
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            result = run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    2, workdir=tmp_path / "work", transport=transport,
                    retries=2, chunk_size=2,
                ),
            )
        assert transport.injected == [(0, 1, "truncate-stream")]
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b


class TestHeartbeatAwareTimeouts:
    """--heartbeat-interval separates slow-but-alive from hung."""

    @staticmethod
    def _slow():
        """The one 4-trial lease sleeps 1.2s after every trial."""
        return _scripted({(0, 1): "slow"}, slow_s=1.2)

    def test_heartbeating_slow_worker_outlives_its_deadline(self, tmp_path):
        """Four 1.2s trials in one chunk against a 2s timeout: with
        heartbeats flowing the scheduler must warn and extend, never
        kill — retries=0 proves no retry was needed."""
        serial = _serial()
        transport = self._slow()
        with pytest.warns(RuntimeWarning, match="still heartbeating"):
            result = run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work", transport=transport,
                    timeout=2, retries=0, chunk_size=4,
                    heartbeat_interval=0.3,
                ),
            )
        assert transport.injected == [(0, 1, "slow")]
        assert result.to_json() == serial.to_json()
        # One attempt only: the worker was never killed and relaunched.
        logs = sorted(p.name for p in (tmp_path / "work").glob("*.log"))
        assert logs == ["fig6.chunk-0000.attempt-1.log"]

    def test_no_heartbeat_regression_deadline_still_kills(self, tmp_path):
        """Without --heartbeat-interval the historical contract stands:
        a worker past its deadline is killed no matter how alive it is."""
        transport = self._slow()
        with pytest.raises(RuntimeError) as err:
            run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work", transport=transport,
                    timeout=2, retries=0, chunk_size=4,
                ),
            )
        assert transport.injected == [(0, 1, "slow")]
        assert "timed out after 2s (killed)" in str(err.value)


class TestRetryBackoff:
    def test_exhaustion_reports_the_backoff_schedule(
        self, tmp_path, fast_backoff
    ):
        transport = _every_lease("crash-start", retries=1)
        with pytest.raises(RuntimeError) as err:
            run_scenario(
                SCENARIO, trials=2, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work", transport=transport,
                    retries=1, chunk_size=2,
                ),
            )
        assert transport.injected == [
            (0, 1, "crash-start"), (0, 2, "crash-start"),
        ]
        message = str(err.value)
        assert "backoff schedule" in message
        schedule_line = next(
            line for line in message.splitlines()
            if "backoff schedule" in line
        )
        assert schedule_line.count("s") >= 2
        # Attempt 1 crashed and backed off; attempt 2 exhausted the budget.
        delay = backends._backoff_delay(0, 1)
        assert 0.05 <= delay <= 0.05 * 1.25
        assert schedule_line == f"chunk 0 backoff schedule: {delay:.2f}s"

    def test_every_retry_waits_its_backoff_delay(self, tmp_path, fast_backoff):
        """No retry is re-dispatched before its backoff delay has passed."""
        transport = _CrashingTransport()
        with pytest.raises(RuntimeError, match="retry budget exhausted") as err:
            run_scenario(
                SCENARIO, trials=2, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work", transport=transport,
                    retries=2, chunk_size=2,
                ),
            )
        assert [(c, a) for c, a, _ in transport.launches] == [
            (0, 1), (0, 2), (0, 3),
        ]
        started = [t for _, _, t in transport.launches]
        delays = [backends._backoff_delay(0, a) for a in (1, 2)]
        for before, after, delay in zip(started, started[1:], delays):
            assert after - before >= delay
        assert (
            f"chunk 0 backoff schedule: {delays[0]:.2f}s, {delays[1]:.2f}s"
            in str(err.value)
        )

    def test_delays_are_capped_exponential_with_deterministic_jitter(self):
        delays = [backends._backoff_delay(7, a) for a in range(1, 9)]
        # Deterministic: same (chunk, attempt) -> same delay.
        assert delays == [backends._backoff_delay(7, a) for a in range(1, 9)]
        # 0.5s doubling per attempt with up-to-25% jitter, capped at 30s.
        for attempt, delay in enumerate(delays, start=1):
            base = min(30.0, 0.5 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.25
        assert max(delays) <= 30.0 * 1.25


class _WorkerExit(Exception):
    """Stands in for the hard exit of a faulted chunk worker."""


class TestWorkerFaultHook:
    def test_fires_only_the_one_mode_it_is_given(self, monkeypatch, capsys):
        """``REPRO_CHAOS`` names one mode; anything else is no fault."""

        def hard_exit(code):
            raise _WorkerExit(code)

        monkeypatch.setattr(backends.os, "_exit", hard_exit)
        monkeypatch.setenv("REPRO_CHAOS", "crash-start")
        with pytest.raises(_WorkerExit):
            backends._maybe_inject_chaos("start")
        backends._maybe_inject_chaos("trial")
        monkeypatch.setenv("REPRO_CHAOS", "crash")
        backends._maybe_inject_chaos("start")
        with pytest.raises(_WorkerExit):
            backends._maybe_inject_chaos("trial")
        for value in ("crash-start,crash", "crash,truncate-stream", "hang", ""):
            monkeypatch.setenv("REPRO_CHAOS", value)
            backends._maybe_inject_chaos("start")
            backends._maybe_inject_chaos("trial")
        assert capsys.readouterr().err.count("chaos: injected worker") == 2


class TestAdaptiveChunkSizing:
    def test_latency_feedback_shrinks_the_next_lease(self):
        backend = ShardedBackend(2, timeout=None)
        initial = 4
        # No observations yet: stick with the initial carve size.
        assert backend._next_chunk_size(remaining=32, initial=initial) == 4
        backend._observe_latency(elapsed=40.0, recorded=4)  # 10s/trial
        # 5s target / 10s per trial -> single-trial leases.
        assert backend._next_chunk_size(remaining=32, initial=initial) == 1
        # Fast trials grow the lease, but never past initial*4.
        backend._ewma_trial_s = None
        backend._observe_latency(elapsed=0.04, recorded=4)  # 10ms/trial
        assert backend._next_chunk_size(remaining=1000, initial=4) == 16

    def test_explicit_chunk_size_ignores_latency_feedback(self):
        backend = ShardedBackend(2, chunk_size=3)
        assert backend._next_chunk_size(remaining=7, initial=1) == 3
        backend._observe_latency(elapsed=40.0, recorded=4)  # 10s/trial
        assert backend._next_chunk_size(remaining=7, initial=1) == 3

    def test_fair_share_clamp_near_the_end_of_the_pool(self):
        backend = ShardedBackend(4, timeout=None)
        backend._observe_latency(elapsed=0.04, recorded=4)
        # Only 8 trials left across 4 shards: no lease bigger than 2.
        assert backend._next_chunk_size(remaining=8, initial=4) == 2

    def test_trial_cost_hints_order_the_pending_pool(self, tmp_path):
        from repro.experiments import unregister
        from repro.experiments.registry import scenario as scenario_decorator

        @scenario_decorator(
            "_cost-hinted", title="t", source="s",
            trial_cost=lambda i, params: float(i % 3),
        )
        def _trial(ctx):  # pragma: no cover - never dispatched
            return {"m": 0.0}

        try:
            backend = ShardedBackend(2)
            from repro.experiments.backends import ExecutionPlan
            from repro.experiments.registry import get_scenario

            plan = ExecutionPlan(
                scenario="_cost-hinted", spec=get_scenario("_cost-hinted"),
                trials=6, seed=0, seeds=[0] * 6, params={},
                pending=list(range(6)), cache=None, profile_cache=None,
                record=lambda *a: None,
            )
            ordered = backend._order_pending(plan, range(6))
            assert ordered == [2, 5, 1, 4, 0, 3]
        finally:
            unregister("_cost-hinted")

    def test_broken_cost_hint_degrades_to_index_order(self, tmp_path):
        from repro.experiments import unregister
        from repro.experiments.registry import scenario as scenario_decorator

        @scenario_decorator(
            "_cost-broken", title="t", source="s",
            trial_cost=lambda i, params: 1 / 0,
        )
        def _trial(ctx):  # pragma: no cover - never dispatched
            return {"m": 0.0}

        try:
            backend = ShardedBackend(2)
            from repro.experiments.backends import ExecutionPlan
            from repro.experiments.registry import get_scenario

            plan = ExecutionPlan(
                scenario="_cost-broken", spec=get_scenario("_cost-broken"),
                trials=4, seed=0, seeds=[0] * 4, params={},
                pending=list(range(4)), cache=None, profile_cache=None,
                record=lambda *a: None,
            )
            with pytest.warns(RuntimeWarning, match="trial_cost hint"):
                assert backend._order_pending(plan, range(4)) == [0, 1, 2, 3]
        finally:
            unregister("_cost-broken")


class TestTransportCLIFlags:
    @pytest.mark.parametrize("tail", [
        ["--hosts", "a,b"],
        ["--remote-python", "py3"],
        ["--chaos-seed", "4"],
        ["--transport", "ssh", "--hosts", "a", "--chaos-rate", "0.5"],
    ])
    def test_transport_scoped_flags_require_their_transport(self, tail):
        from repro.cli import main

        argv = ["run", "fig6", "--backend", "sharded"] + tail
        with pytest.raises(SystemExit, match="requires --transport"):
            main(argv)

    def test_scheduler_flags_rejected_outside_sharded_backend(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--backend sharded"):
            main(["run", "fig6", "--transport", "chaos"])

    def test_cli_chaos_transport_end_to_end(
        self, tmp_path, capsys, fast_backoff
    ):
        """The acceptance invocation: a sharded sweep through
        ``--transport chaos`` matches a serial artifact byte-for-byte."""
        from repro.cli import main

        serial_dir = tmp_path / "serial"
        chaos_dir = tmp_path / "chaos"
        assert main([
            "run", SCENARIO, "--trials", "4", "--seed", "3",
            "--out", str(serial_dir), "--quiet",
        ]) == 0
        assert main([
            "run", SCENARIO, "--trials", "4", "--seed", "3",
            "--backend", "sharded", "--shards", "2",
            "--shard-timeout", "4", "--retries", "4",
            "--transport", "chaos", "--chaos-seed", "1",
            "--chaos-rate", "0.9",
            "--heartbeat-interval", "0.2",
            "--out", str(chaos_dir), "--quiet",
        ]) == 0
        assert (
            (serial_dir / "fig6.json").read_bytes()
            == (chaos_dir / "fig6.json").read_bytes()
        )
