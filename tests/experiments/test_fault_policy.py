"""Fault policy of the work-stealing sharded scheduler.

Covers the ISSUE 4 acceptance criteria: a hung worker is timeout-killed
and its chunk requeued; a crashed worker's completed trials are salvaged
and the chunk retried; the retry budget is bounded and exhaustion
preserves the failing worker's error tail; after a failed sweep,
``--resume`` re-runs only the genuinely missing trials (nothing lost,
nothing recomputed); and in every recovered case the artifact is
byte-identical to the serial backend's.

All tests use the built-in ``fig6`` scenario (cheap, deterministic, and
resolvable by chunk-worker subprocesses) and inject faults through the
``REPRO_CHAOS`` env hook consulted only by chunk workers.
"""

import json
from collections import Counter

import pytest

from repro.experiments import (
    SerialBackend,
    ShardedBackend,
    run_scenario,
    write_artifact,
)
from repro.experiments.backends import discover_chunks

SCENARIO = "fig6"


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
    ])
    def test_rejects_bad_fault_policy_args(self, kwargs):
        with pytest.raises(ValueError):
            ShardedBackend(2, **kwargs)

    def test_partition_auto_targets_four_leases_per_worker(self):
        backend = ShardedBackend(2)
        chunks = backend._partition(list(range(16)), first_id=0)
        assert [indices for _, indices in chunks] == [
            [i, i + 1] for i in range(0, 16, 2)
        ]
        assert [chunk_id for chunk_id, _ in chunks] == list(range(8))

    def test_partition_respects_explicit_size_and_first_id(self):
        backend = ShardedBackend(2, chunk_size=3)
        chunks = backend._partition([0, 1, 2, 3, 4, 5, 6], first_id=5)
        assert chunks == [(5, [0, 1, 2]), (6, [3, 4, 5]), (7, [6])]


class TestCrashRecovery:
    def test_crashed_worker_is_salvaged_and_retried_to_completion(
        self, tmp_path
    ):
        serial = _serial()
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(
                2, workdir=tmp_path / "work",
                env={"REPRO_CHAOS": "crash"}, retries=2, chunk_size=2,
            ),
        )
        # The injection actually fired (the marker is the once-claim).
        assert (tmp_path / "work" / ".repro-chaos-crash").exists()
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b

    def test_hung_worker_is_killed_and_requeued(self, tmp_path):
        serial = _serial()
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(
                2, workdir=tmp_path / "work",
                env={"REPRO_CHAOS": "hang"},
                timeout=4, retries=2, chunk_size=2,
            ),
        )
        assert (tmp_path / "work" / ".repro-chaos-hang").exists()
        assert result.to_json() == serial.to_json()

    def test_acceptance_hung_plus_crashing_worker_four_shards(self, tmp_path):
        """The ISSUE acceptance run: --backend sharded --shards 4
        --shard-timeout T --retries 2 with one hung and one crashed
        worker completes with a serial-identical artifact."""
        serial = _serial(trials=8)
        result = run_scenario(
            SCENARIO, trials=8, seed=3,
            backend=ShardedBackend(
                4, workdir=tmp_path / "work",
                env={"REPRO_CHAOS": "crash,hang"},
                timeout=4, retries=2, chunk_size=2,
            ),
        )
        assert (tmp_path / "work" / ".repro-chaos-crash").exists()
        assert (tmp_path / "work" / ".repro-chaos-hang").exists()
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b


class TestRetryExhaustion:
    def test_exhaustion_raises_with_error_tail_and_resume_hint(
        self, tmp_path
    ):
        with pytest.raises(RuntimeError) as err:
            run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    2, workdir=tmp_path / "work",
                    env={"REPRO_CHAOS": "crash-start"},
                    retries=1, chunk_size=2,
                ),
            )
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
                        1, env={"REPRO_CHAOS": "crash-start"}, retries=0,
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
        with pytest.raises(RuntimeError):
            run_scenario(
                SCENARIO, trials=4, seed=3, stream_path=stream,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work",
                    env={"REPRO_CHAOS": "crash"}, retries=0, chunk_size=4,
                ),
            )
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
        with pytest.raises(RuntimeError):
            run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    1, workdir=work, env={"REPRO_CHAOS": "crash"},
                    retries=0, chunk_size=4,
                ),
            )
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
    def test_fresh_run_rearms_chaos_markers(self, tmp_path):
        """Workdir reuse must not disarm a requested fault injection:
        spent once-per-directory markers are cleared on a fresh run."""
        work = tmp_path / "work"
        backend = lambda: ShardedBackend(
            2, workdir=work, env={"REPRO_CHAOS": "crash"},
            retries=2, chunk_size=2,
        )
        run_scenario(SCENARIO, trials=4, seed=3, backend=backend())
        marker = work / ".repro-chaos-crash"
        assert marker.exists()
        first_fired = marker.stat().st_mtime_ns
        result = run_scenario(SCENARIO, trials=4, seed=3, backend=backend())
        assert marker.exists()  # re-created: the injection fired again
        assert marker.stat().st_mtime_ns > first_fired
        assert result.to_json() == _serial().to_json()

    def test_launch_failure_does_not_leak_log_handle(self, tmp_path):
        backend = ShardedBackend(
            1, workdir=tmp_path / "work", python="/nonexistent/python",
            retries=0,
        )
        with pytest.raises(FileNotFoundError):
            run_scenario(SCENARIO, trials=2, seed=3, backend=backend)


class TestStreamFaultModes:
    """The REPRO_CHAOS stream-level modes: stalled I/O and torn writes."""

    def test_stalled_io_worker_is_reclaimed_by_timeout(self, tmp_path):
        """A worker that stops writing (heartbeats included) but stays
        alive must be timeout-killed even with heartbeats enabled —
        silence, not process death, is the hang signal."""
        serial = _serial()
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(
                2, workdir=tmp_path / "work",
                env={"REPRO_CHAOS": "stall-io"},
                timeout=3, retries=2, chunk_size=2,
                heartbeat_interval=0.2, backoff_base=0.05,
            ),
        )
        assert (tmp_path / "work" / ".repro-chaos-stall-io").exists()
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b

    def test_truncated_stream_is_salvaged_and_retried(self, tmp_path):
        """A worker that dies mid-write leaves a torn trailing record:
        the parser drops it, complete records salvage, the rest re-run."""
        serial = _serial()
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            result = run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    2, workdir=tmp_path / "work",
                    env={"REPRO_CHAOS": "truncate-stream"},
                    retries=2, chunk_size=2, backoff_base=0.05,
                ),
            )
        assert (tmp_path / "work" / ".repro-chaos-truncate-stream").exists()
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b


class TestHeartbeatAwareTimeouts:
    """--heartbeat-interval separates slow-but-alive from hung."""

    _SLOW_ENV = {"REPRO_CHAOS": "slow", "REPRO_CHAOS_SLOW_S": "1.2"}

    def test_heartbeating_slow_worker_outlives_its_deadline(self, tmp_path):
        """Four 1.2s trials in one chunk against a 2s timeout: with
        heartbeats flowing the scheduler must warn and extend, never
        kill — retries=0 proves no retry was needed."""
        serial = _serial()
        with pytest.warns(RuntimeWarning, match="still heartbeating"):
            result = run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work", env=dict(self._SLOW_ENV),
                    timeout=2, retries=0, chunk_size=4,
                    heartbeat_interval=0.3,
                ),
            )
        assert result.to_json() == serial.to_json()
        # One attempt only: the worker was never killed and relaunched.
        logs = sorted(p.name for p in (tmp_path / "work").glob("*.log"))
        assert logs == ["fig6.chunk-0000.attempt-1.log"]

    def test_no_heartbeat_regression_deadline_still_kills(self, tmp_path):
        """Without --heartbeat-interval the historical contract stands:
        a worker past its deadline is killed no matter how alive it is."""
        with pytest.raises(RuntimeError) as err:
            run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work", env=dict(self._SLOW_ENV),
                    timeout=2, retries=0, chunk_size=4,
                ),
            )
        assert "timed out after 2s (killed)" in str(err.value)


class TestRetryBackoff:
    def test_exhaustion_reports_the_backoff_schedule(self, tmp_path):
        with pytest.raises(RuntimeError) as err:
            run_scenario(
                SCENARIO, trials=2, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work",
                    env={"REPRO_CHAOS": "crash-start"},
                    retries=1, chunk_size=2, backoff_base=0.05,
                ),
            )
        message = str(err.value)
        assert "backoff schedule" in message
        # Two retries were scheduled (attempts 1 and 2 both crashed).
        schedule_line = next(
            line for line in message.splitlines()
            if "backoff schedule" in line
        )
        assert schedule_line.count("s") >= 2

    def test_backoff_can_be_disabled(self, tmp_path):
        with pytest.raises(RuntimeError) as err:
            run_scenario(
                SCENARIO, trials=2, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work",
                    env={"REPRO_CHAOS": "crash-start"},
                    retries=1, chunk_size=2, retry_backoff=False,
                ),
            )
        message = str(err.value)
        assert "retry budget exhausted" in message
        assert "backoff schedule" not in message

    def test_delays_are_capped_exponential_with_deterministic_jitter(self):
        backend = ShardedBackend(1, backoff_base=0.5, backoff_cap=4.0)
        delays = [backend._backoff_delay(7, a) for a in range(1, 7)]
        # Deterministic: same (chunk, attempt) -> same delay.
        assert delays == [backend._backoff_delay(7, a) for a in range(1, 7)]
        # Exponential envelope with up-to-25% jitter, capped at 4s*1.25.
        for attempt, delay in enumerate(delays, start=1):
            base = min(4.0, 0.5 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.25
        assert max(delays) <= 5.0

    def test_validates_backoff_arguments(self):
        with pytest.raises(ValueError):
            ShardedBackend(1, backoff_base=0.0)
        with pytest.raises(ValueError):
            ShardedBackend(1, backoff_base=2.0, backoff_cap=1.0)
        with pytest.raises(ValueError):
            ShardedBackend(1, heartbeat_interval=0.0)


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

    def test_cli_chaos_transport_end_to_end(self, tmp_path, capsys):
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
            "--shard-timeout", "6", "--retries", "4",
            "--transport", "chaos", "--chaos-seed", "1",
            "--chaos-rate", "0.9",
            "--heartbeat-interval", "0.2", "--backoff-base", "0.05",
            "--out", str(chaos_dir), "--quiet",
        ]) == 0
        assert (
            (serial_dir / "fig6.json").read_bytes()
            == (chaos_dir / "fig6.json").read_bytes()
        )
