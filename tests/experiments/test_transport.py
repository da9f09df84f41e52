"""Transport layer: host parsing, health/quarantine, chaos schedules,
the CLI transport factory, and a real sweep over a loopback "ssh" pool.

The SSH tests never touch the network: ``ssh``/``scp`` are replaced by
tiny shell shims that execute the remote command locally and ``cp`` the
"remote" stream back — which exercises the full dispatch/fetch/harvest
path (command quoting, env shipping, stream sync) against the same
byte-identity contract as every other backend.
"""

import json
import stat
import sys

import pytest

from repro.experiments import (
    ChaosTransport,
    SerialBackend,
    ShardedBackend,
    SSHTransport,
    TransportError,
    run_scenario,
    write_artifact,
)
from repro.experiments.transport import (
    CHAOS_FAULTS,
    HostHealth,
    HostSpec,
    LocalSubprocessTransport,
    Transport,
    WorkerHandle,
    WorkerSpec,
    build_transport,
    chunk_worker_command,
    parse_hosts,
)

SCENARIO = "fig6"


def _serial(trials=4, seed=3):
    return run_scenario(SCENARIO, trials=trials, seed=seed,
                        backend=SerialBackend())


class TestParseHosts:
    def test_names_slots_and_users(self):
        assert parse_hosts("alpha,beta:4,user@gamma") == [
            HostSpec("alpha", 1), HostSpec("beta", 4),
            HostSpec("user@gamma", 1),
        ]

    def test_whitespace_and_empty_entries_tolerated(self):
        assert parse_hosts(" alpha , beta:2 ,") == [
            HostSpec("alpha", 1), HostSpec("beta", 2),
        ]

    @pytest.mark.parametrize("text", [
        "", ",", "alpha:0", "alpha:-1", "alpha:x", ":2", "alpha,alpha",
    ])
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_hosts(text)


class TestHostHealth:
    def test_quarantine_after_consecutive_failures(self):
        health = HostHealth(["a", "b"], quarantine_after=2)
        assert health.record_failure("a") is False
        assert health.record_failure("a") is True  # the quarantining one
        assert health.healthy() == ["b"]
        assert health.available
        # Already-quarantined hosts report False (no double warning).
        assert health.record_failure("a") is False

    def test_success_resets_the_streak(self):
        health = HostHealth(["a"], quarantine_after=2)
        health.record_failure("a")
        health.record_success("a")
        assert health.record_failure("a") is False
        assert health.available

    def test_all_quarantined_means_unavailable(self):
        health = HostHealth(["a"], quarantine_after=1)
        health.record_failure("a")
        assert not health.available
        assert health.healthy() == []

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            HostHealth(["a"], quarantine_after=0)


class TestWorkerCommand:
    def _spec(self, **overrides):
        base = dict(
            scenario="fig6", chunk_id=7, indices=[2, 5], trials=8, seed=3,
            params={}, workdir=None, attempt=2,
        )
        base.update(overrides)
        import pathlib
        base["workdir"] = pathlib.Path("/tmp/w")
        return WorkerSpec(**base)

    def test_command_is_the_public_cli(self):
        command = chunk_worker_command("pyX", self._spec(), "/out")
        assert command[:4] == ["pyX", "-m", "repro", "run"]
        assert "--chunk" in command and "7" in command
        assert "--trial-indices" in command
        assert command[command.index("--trial-indices") + 1] == "2,5"
        assert "--params-json" not in command
        assert "--heartbeat-interval" not in command

    def test_params_ship_as_json(self):
        spec = self._spec(params={"t_rh_grid": [1000, 2000], "mode": "x"})
        command = chunk_worker_command("py", spec, "/out")
        payload = command[command.index("--params-json") + 1]
        assert json.loads(payload) == {"t_rh_grid": [1000, 2000], "mode": "x"}

    def test_heartbeat_flag_forwarded(self):
        spec = self._spec(heartbeat_interval=0.25)
        command = chunk_worker_command("py", spec, "/out")
        assert command[command.index("--heartbeat-interval") + 1] == "0.25"

    def test_stream_and_log_names_are_attempt_scoped(self):
        spec = self._spec()
        assert spec.stream_name == "fig6.chunk-0007.trials.jsonl"
        assert spec.log_name == "fig6.chunk-0007.attempt-2.log"


class TestChaosSchedule:
    def test_decide_is_pure_in_seed_chunk_attempt(self):
        first = ChaosTransport(seed=11, rate=0.8)
        second = ChaosTransport(seed=11, rate=0.8)
        schedule = [
            (c, a, first.decide(c, a)) for c in range(6) for a in (1, 2)
        ]
        assert schedule == [
            (c, a, second.decide(c, a)) for c in range(6) for a in (1, 2)
        ]
        assert any(mode for _, _, mode in schedule), (
            "rate=0.8 over 12 draws injected nothing — seeding is broken"
        )

    def test_different_seeds_differ(self):
        draws_a = [ChaosTransport(seed=1, rate=0.5).decide(c, 1)
                   for c in range(32)]
        draws_b = [ChaosTransport(seed=2, rate=0.5).decide(c, 1)
                   for c in range(32)]
        assert draws_a != draws_b

    def test_plan_overrides_the_seeded_draw(self):
        transport = ChaosTransport(seed=0, rate=0.0,
                                   plan={(3, 1): "disconnect"})
        assert transport.decide(3, 1) == "disconnect"
        assert transport.decide(3, 2) is None

    def test_max_faults_per_chunk_caps_injections(self):
        transport = ChaosTransport(seed=0, rate=1.0, max_faults_per_chunk=2)
        # decide() itself doesn't count — start() does — so simulate the
        # bookkeeping the way the transport records it.
        fired = 0
        for attempt in range(1, 6):
            mode = transport.decide(0, attempt)
            if mode is not None:
                transport._faults_per_chunk[0] = (
                    transport._faults_per_chunk.get(0, 0) + 1
                )
                fired += 1
        assert fired == 2

    def test_rejects_unknown_modes_and_bad_rate(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosTransport(modes=("refuse", "gremlins"))
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosTransport(plan={(0, 1): "gremlins"})
        with pytest.raises(ValueError, match="rate"):
            ChaosTransport(rate=1.5)

    def test_worker_faults_set_repro_chaos_on_the_faulted_launch_only(self):
        launched = []

        class Recorder(Transport):
            def start(self, spec):
                launched.append(dict(spec.env))
                return WorkerHandle(spec, "local", None, None)

        transport = ChaosTransport(
            inner=Recorder(), rate=0.0, plan={(0, 1): "crash"},
        )
        for attempt in (1, 2):
            transport.start(WorkerSpec(
                scenario="fig6", chunk_id=0, indices=[0], trials=1, seed=3,
                params={}, workdir=None, attempt=attempt,
                env={"REPRO_CACHE_DIR": "c"},
            ))
        assert launched == [
            {"REPRO_CACHE_DIR": "c", "REPRO_CHAOS": "crash"},
            {"REPRO_CACHE_DIR": "c"},
        ]
        assert transport.injected == [(0, 1, "crash")]

    def test_transport_side_faults_leave_the_worker_env_alone(self):
        launched = []

        class Recorder(Transport):
            def start(self, spec):
                launched.append(dict(spec.env))
                return WorkerHandle(spec, "local", None, None)

        transport = ChaosTransport(
            inner=Recorder(), rate=0.0, slow_s=1.5, plan={
                (0, 1): "disconnect", (1, 1): "corrupt-stream", (2, 1): "slow",
            },
        )
        for chunk_id in range(3):
            transport.start(WorkerSpec(
                scenario="fig6", chunk_id=chunk_id, indices=[0], trials=1,
                seed=3, params={}, workdir=None, attempt=1, env={},
            ))
        assert launched == [
            {}, {}, {"REPRO_CHAOS": "slow", "REPRO_CHAOS_SLOW_S": "1.5"},
        ]
        assert transport.injected == [
            (0, 1, "disconnect"), (1, 1, "corrupt-stream"), (2, 1, "slow"),
        ]

    def test_refusal_raises_transport_error_and_burns_virtual_host(self):
        transport = ChaosTransport(
            seed=0, rate=1.0, modes=("refuse",), hosts=1, quarantine_after=1,
        )
        spec = WorkerSpec(
            scenario="fig6", chunk_id=0, indices=[0], trials=1, seed=3,
            params={}, workdir=None, attempt=1,
        )
        with pytest.raises(TransportError):
            transport.start(spec)
        assert not transport.available()
        assert transport.injected == [(0, 1, "refuse")]


class TestBuildTransport:
    def test_local_and_none_mean_scheduler_default(self):
        assert build_transport(None) is None
        assert build_transport("local") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            build_transport("carrier-pigeon")

    def test_ssh_requires_hosts(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        with pytest.raises(ValueError, match="--hosts"):
            build_transport("ssh")

    def test_ssh_hosts_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOSTS", "alpha,beta:2")
        transport = build_transport("ssh", remote_python="py3",
                                    remote_root="/scratch")
        assert isinstance(transport, SSHTransport)
        assert [h.name for h in transport.hosts] == ["alpha", "beta"]
        assert transport.python == "py3"
        assert transport.remote_root == "/scratch"

    def test_chaos_builds_over_local_with_mode_subset(self):
        transport = build_transport(
            "chaos", chaos_seed=9, chaos_rate=0.2,
            chaos_modes="refuse, slow", chaos_hosts=3,
        )
        assert isinstance(transport, ChaosTransport)
        assert transport.seed == 9
        assert transport.modes == ("refuse", "slow")
        assert isinstance(transport.inner, LocalSubprocessTransport)
        assert transport.health is not None
        assert len(transport.health.healthy()) == 3

    def test_chaos_default_modes_are_the_full_set(self):
        assert build_transport("chaos").modes == CHAOS_FAULTS


def _write_shim(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


@pytest.fixture
def loopback(tmp_path):
    """Fake ssh/scp pair that runs the remote command locally."""
    ssh = _write_shim(tmp_path / "fake-ssh", (
        'while [ "$1" != "${1#-}" ]; do\n'
        '  case "$1" in -o) shift 2 ;; *) shift ;; esac\n'
        'done\n'
        'host="$1"; shift\n'
        'exec sh -c "$*"\n'
    ))
    scp = _write_shim(tmp_path / "fake-scp", (
        'while [ "$1" != "${1#-}" ]; do shift; done\n'
        'src="${1#*:}"; dst="$2"\n'
        '[ -f "$src" ] || exit 0\n'
        'exec cp "$src" "$dst"\n'
    ))
    return ssh, scp


class TestSSHLoopback:
    def test_sweep_over_loopback_hosts_matches_serial(
        self, tmp_path, loopback
    ):
        ssh, scp = loopback
        import os

        transport = SSHTransport(
            "nodeA,nodeB",
            python=sys.executable,
            remote_root=str(tmp_path / "remote"),
            remote_pythonpath=os.environ.get("PYTHONPATH", "src"),
            ssh_command=(ssh,),
            scp_command=(scp,),
            ssh_options=(),
        )
        serial = _serial()
        result = run_scenario(
            SCENARIO, trials=4, seed=3,
            backend=ShardedBackend(
                2, workdir=tmp_path / "work", transport=transport,
                chunk_size=2,
            ),
        )
        a = write_artifact(serial, directory=tmp_path / "a").read_bytes()
        b = write_artifact(result, directory=tmp_path / "b").read_bytes()
        assert a == b
        # The remote-side streams really were produced off-workdir and
        # fetched back (the shim ran them under remote_root).
        remote_streams = list((tmp_path / "remote").rglob("*.trials.jsonl"))
        assert remote_streams, "workers never ran under the remote root"

    def test_dead_host_pool_quarantines_then_degrades_to_local(
        self, tmp_path
    ):
        dead = _write_shim(tmp_path / "dead-ssh", (
            'echo "ssh: connect to host refused" >&2\n'
            'exit 255\n'
        ))
        transport = SSHTransport(
            "ghost",
            ssh_command=(dead,),
            ssh_options=(),
            quarantine_after=1,
        )
        serial = _serial()
        with pytest.warns(RuntimeWarning) as warned:
            result = run_scenario(
                SCENARIO, trials=4, seed=3,
                backend=ShardedBackend(
                    1, workdir=tmp_path / "work", transport=transport,
                    chunk_size=2, retries=2,
                ),
            )
        messages = [str(w.message) for w in warned]
        assert any("quarantined" in m for m in messages)
        assert any("degrading to local" in m for m in messages)
        assert not transport.available()
        assert result.to_json() == serial.to_json()
