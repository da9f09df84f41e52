"""Property-style fault schedules: exactly-once under injected chaos.

Each test runs a *real* sharded sweep through :class:`ChaosTransport`
with a seeded random fault schedule (connection refusals, mid-stream
disconnects, stalled I/O, truncated/corrupted streams, slow workers,
crashes) and asserts the two invariants the scheduler promises no
matter what the transport does:

* every trial is recorded exactly once (counted in the coordinator
  stream), and
* the merged artifact is byte-identical to a serial run's.

The schedules are random but deterministic in the seed, so a failure
reproduces with the same seed — the same property CI's
``remote-chaos-smoke`` job checks with ``cmp``.
"""

import json
from collections import Counter

import pytest

from repro.experiments import (
    ChaosTransport,
    SerialBackend,
    ShardedBackend,
    run_scenario,
    write_artifact,
)
from repro.experiments import backends
from repro.experiments.transport import CHAOS_FAULTS

SCENARIO = "fig6"


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    """Retries wait 0.05s, doubling, at most 0.5s (plus jitter)."""
    monkeypatch.setattr(backends, "_BACKOFF_BASE_S", 0.05)
    monkeypatch.setattr(backends, "_BACKOFF_CAP_S", 0.5)


def _serial(trials, seed=3):
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


def _chaos_backend(tmp_path, transport, **overrides):
    kwargs = dict(
        workdir=tmp_path / "work", transport=transport,
        chunk_size=2, retries=4, timeout=4, heartbeat_interval=0.2,
    )
    kwargs.update(overrides)
    return ShardedBackend(2, **kwargs)


class TestSeededFaultSchedules:
    @pytest.mark.parametrize("chaos_seed", [1, 7, 23])
    def test_exactly_once_and_byte_identical_under_chaos(
        self, tmp_path, chaos_seed
    ):
        """Random fault schedule -> same bytes as serial, each trial once.

        ``rate=0.9`` with the full mode set makes nearly every launch
        fault; ``max_faults_per_chunk=2`` (the default) keeps the
        schedule within the retry budget by construction.
        """
        trials = 6
        serial = _serial(trials)
        transport = ChaosTransport(seed=chaos_seed, rate=0.9, slow_s=0.2)
        stream = tmp_path / "coordinator.trials.jsonl"
        result = run_scenario(
            SCENARIO, trials=trials, seed=3, stream_path=stream,
            backend=_chaos_backend(tmp_path, transport),
        )
        assert transport.injected, (
            f"seed {chaos_seed} injected no faults at rate=0.9 — "
            "the schedule is not exercising anything"
        )
        assert _stream_counts(stream) == Counter(
            {i: 1 for i in range(trials)}
        )
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b

    def test_schedule_is_reproducible_across_runs(self, tmp_path):
        """Same chaos seed twice -> the identical injected-fault log."""
        def _run(workdir):
            transport = ChaosTransport(seed=5, rate=0.9, slow_s=0.2)
            run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=_chaos_backend(workdir, transport),
            )
            return transport.injected

        first = _run(tmp_path / "one")
        second = _run(tmp_path / "two")
        assert first == second
        assert first, "seed 5 injected nothing at rate=0.9"

    def test_scripted_worst_case_one_of_each_fault(self, tmp_path):
        """A scripted plan hits every fault mode once across the sweep:
        the four chunks' first attempts, then their second attempts."""
        trials = 8
        serial = _serial(trials)
        plan = {
            (i % 4, 1 + i // 4): mode for i, mode in enumerate(CHAOS_FAULTS)
        }
        transport = ChaosTransport(seed=0, rate=0.0, plan=plan, slow_s=0.2)
        result = run_scenario(
            SCENARIO, trials=trials, seed=3,
            backend=_chaos_backend(tmp_path, transport),
        )
        fired = {(c, a, m) for c, a, m in transport.injected}
        assert {(c, a, plan[(c, a)]) for (c, a) in plan} <= fired
        assert {m for _, _, m in fired} == set(CHAOS_FAULTS)
        # The worker-side faults really fired inside their chunk workers.
        logs = "".join(
            p.read_text() for p in (tmp_path / "work").glob("*.log")
        )
        for fault in (
            "crash at chunk start", "crash after a recorded trial",
            "stall-io after a recorded trial",
            "truncate-stream after a recorded trial",
        ):
            assert f"chaos: injected worker {fault}" in logs
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b


class TestGracefulDegradation:
    def test_all_virtual_hosts_quarantined_falls_back_to_local(
        self, tmp_path
    ):
        """Refuse every launch until both virtual hosts are quarantined:
        the scheduler must degrade to local execution and still finish
        with a serial-identical artifact."""
        serial = _serial(4)
        transport = ChaosTransport(
            seed=0, rate=1.0, modes=("refuse",),
            hosts=2, quarantine_after=1,
        )
        with pytest.warns(RuntimeWarning, match="degrading to local"):
            result = run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=_chaos_backend(tmp_path, transport),
            )
        assert not transport.available()
        assert all(m == "refuse" for _, _, m in transport.injected)
        assert result.to_json() == serial.to_json()

    def test_degraded_run_still_counts_every_trial_once(self, tmp_path):
        transport = ChaosTransport(
            seed=3, rate=1.0, modes=("refuse",),
            hosts=1, quarantine_after=1,
        )
        stream = tmp_path / "coordinator.trials.jsonl"
        with pytest.warns(RuntimeWarning, match="degrading to local"):
            run_scenario(
                SCENARIO, trials=4, seed=3, stream_path=stream,
                backend=_chaos_backend(tmp_path, transport),
            )
        assert _stream_counts(stream) == Counter({i: 1 for i in range(4)})
