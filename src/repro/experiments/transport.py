"""Worker transports for the sharded chunk-lease scheduler.

:class:`repro.experiments.backends.ShardedBackend` plans *what* runs
(chunk leases over pending trial indices, retries, salvage); a
*transport* decides *where and how* a chunk worker process runs and how
its per-trial JSONL stream gets back to the coordinator:

* :class:`LocalSubprocessTransport` — today's behaviour behind the
  interface: ``python -m repro run <scenario> --chunk K
  --trial-indices …`` as a local subprocess writing its stream straight
  into the coordinator's workdir.
* :class:`SSHTransport` — the same CLI worker dispatched over ``ssh`` to
  a pool of hosts (``--hosts host1,host2:4`` or ``REPRO_HOSTS``), with
  the chunk stream pulled back via ``scp``.  Per-host health is tracked:
  a host that keeps failing is quarantined, and when every host is
  quarantined the scheduler degrades gracefully to local execution.
* :class:`ChaosTransport` — a wrapper that injects every worker fault
  the scheduler must survive (connection refused, mid-stream
  disconnect, stalled I/O, corrupted or truncated stream bytes,
  slow-but-alive workers, crashes) deterministically from a seed or an
  explicit plan.  Tests and the ``chaos-smoke`` and
  ``remote-chaos-smoke`` CI jobs run real sweeps through it and assert
  the merged artifact is byte-identical to a serial run — the
  scheduler's exactly-once guarantee must hold under every injected
  fault.

The contract every transport must honour: the worker appends complete
JSONL lines to its chunk stream, and the coordinator only ever records a
trial it successfully parsed back — so a transport may lose, duplicate,
corrupt, or delay a stream without ever breaking exactly-once recording.
"""

from __future__ import annotations

import json
import os
import pathlib
import posixpath
import random
import shlex
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field, replace

from repro.utils.env import env_str

__all__ = [
    "TransportError",
    "WorkerSpec",
    "WorkerHandle",
    "HostSpec",
    "HostHealth",
    "parse_hosts",
    "Transport",
    "LocalSubprocessTransport",
    "SSHTransport",
    "ChaosTransport",
    "CHAOS_FAULTS",
    "build_transport",
    "chunk_stream_path",
    "chunk_worker_command",
]


class TransportError(RuntimeError):
    """Launch-time transport failure (connection refused, no healthy host).

    Raised by :meth:`Transport.start`; the scheduler treats it as a
    *host* problem, not a *chunk* problem — the chunk is requeued
    without consuming its retry budget, and the failure counts toward
    the host's quarantine threshold instead.
    """

    def __init__(self, message: str, host: str | None = None):
        super().__init__(message)
        self.host = host


def chunk_stream_path(
    directory: str | pathlib.Path, scenario: str, chunk_id: int
) -> pathlib.Path:
    """Canonical JSONL location of one chunk lease's trial stream."""
    return pathlib.Path(directory) / (
        f"{scenario}.chunk-{chunk_id:04d}.trials.jsonl"
    )


@dataclass
class WorkerSpec:
    """Everything a transport needs to launch one chunk worker.

    ``env`` holds only the coordinator's *extra* variables (cache roots,
    chaos injection, user overrides) — never a full ``os.environ`` copy,
    so remote transports can ship it verbatim without leaking the local
    environment across machines.
    """

    scenario: str
    chunk_id: int
    indices: list[int]
    trials: int
    seed: int
    params: dict
    workdir: pathlib.Path
    attempt: int
    env: dict[str, str] = field(default_factory=dict)
    heartbeat_interval: float | None = None

    @property
    def stream_name(self) -> str:
        return chunk_stream_path(".", self.scenario, self.chunk_id).name

    @property
    def log_name(self) -> str:
        return (
            f"{self.scenario}.chunk-{self.chunk_id:04d}"
            f".attempt-{self.attempt}.log"
        )


def chunk_worker_command(
    python: str, spec: WorkerSpec, out_dir: str
) -> list[str]:
    """The public-CLI chunk-worker invocation for ``spec``.

    Shared by every transport so a chunk behaves identically no matter
    where it runs — the cross-backend byte-identity contract depends on
    the worker, not the wire.
    """
    command = [
        python, "-m", "repro", "run", spec.scenario,
        "--chunk", str(spec.chunk_id),
        "--trial-indices", ",".join(str(i) for i in spec.indices),
        "--trials", str(spec.trials),
        "--seed", str(spec.seed),
        "--out", str(out_dir),
        "--quiet",
    ]
    if spec.params:
        # JSON transport keeps every value type intact; ``--param``
        # pairs would lossily re-coerce strings/lists on the worker.
        command += ["--params-json", json.dumps(spec.params)]
    if spec.heartbeat_interval is not None:
        command += ["--heartbeat-interval", f"{spec.heartbeat_interval:g}"]
    return command


class WorkerHandle:
    """One launched chunk worker, whatever its transport.

    The scheduler polls it like a process: :meth:`poll` for an exit
    code, :meth:`kill` on timeout, :meth:`sync` to refresh the *local*
    copy of its stream file (a no-op for local workers), and
    :meth:`close` to release log handles and the host slot.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        host: str,
        log_path: pathlib.Path,
        stream_path: pathlib.Path,
    ):
        self.spec = spec
        self.host = host
        self.log_path = log_path
        self.stream_path = stream_path

    def poll(self) -> int | None:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def wait(self) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Refresh the local copy of the worker's stream file."""

    def close(self) -> None:
        """Release resources (idempotent)."""

    def error_tail(self, lines: int = 8) -> str:
        try:
            text = self.log_path.read_text().strip()
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


@dataclass(frozen=True)
class HostSpec:
    """One remote host: name (``user@machine`` accepted) and worker slots."""

    name: str
    slots: int = 1


def parse_hosts(text: str) -> list[HostSpec]:
    """Parse a ``host1,host2:4,user@host3`` spec into :class:`HostSpec`\\ s.

    ``host:N`` grants N concurrent worker slots on that host (default 1).
    """
    hosts: list[HostSpec] = []
    seen: set[str] = set()
    for entry in filter(None, (part.strip() for part in text.split(","))):
        name, _, slots_text = entry.partition(":")
        if not name:
            raise ValueError(f"empty host name in hosts spec {text!r}")
        try:
            slots = int(slots_text) if slots_text else 1
        except ValueError:
            raise ValueError(
                f"host slots must be an integer, got {entry!r}"
            ) from None
        if slots < 1:
            raise ValueError(f"host slots must be >= 1, got {entry!r}")
        if name in seen:
            raise ValueError(f"duplicate host {name!r} in hosts spec")
        seen.add(name)
        hosts.append(HostSpec(name=name, slots=slots))
    if not hosts:
        raise ValueError(f"hosts spec {text!r} names no hosts")
    return hosts


class HostHealth:
    """Consecutive-failure tracking with quarantine.

    A host is quarantined after ``quarantine_after`` *consecutive*
    failures (any success resets its counter).  Quarantine lasts for the
    rest of the run — the scheduler's graceful-degradation path (fall
    back to local execution) is the recovery story, not re-probing a
    host that already burned its retry budget.
    """

    def __init__(self, hosts: list[str], quarantine_after: int = 3):
        if quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.quarantine_after = quarantine_after
        self.failures: dict[str, int] = {host: 0 for host in hosts}
        self.quarantined: set[str] = set()

    def record_success(self, host: str) -> None:
        if host in self.failures:
            self.failures[host] = 0

    def record_failure(self, host: str) -> bool:
        """Count one failure; returns True when this quarantines the host."""
        if host not in self.failures or host in self.quarantined:
            return False
        self.failures[host] += 1
        if self.failures[host] >= self.quarantine_after:
            self.quarantined.add(host)
            return True
        return False

    def healthy(self) -> list[str]:
        return [h for h in self.failures if h not in self.quarantined]

    @property
    def available(self) -> bool:
        return bool(self.healthy())


class Transport:
    """Launches chunk workers somewhere and reports host availability."""

    name = "abstract"

    def start(self, spec: WorkerSpec) -> WorkerHandle:
        """Launch one chunk worker; raises :class:`TransportError` when
        no healthy host can take it (connection refused, pool empty)."""
        raise NotImplementedError

    def report(self, handle: WorkerHandle, ok: bool) -> None:
        """Outcome feedback from the scheduler (host-health bookkeeping)."""

    def available(self) -> bool:
        """False once every host is quarantined (triggers degradation)."""
        return True

    def capacity(self) -> int | None:
        """Total healthy worker slots; ``None`` means unbounded."""
        return None

    def describe(self) -> str:
        return self.name

    def close(self) -> None:
        """Best-effort cleanup (remote scratch dirs, cached connections)."""


def _repro_package_root() -> str:
    import repro

    return str(pathlib.Path(repro.__file__).resolve().parents[1])


class _SubprocessWorkerHandle(WorkerHandle):
    """A worker backed by a local ``Popen`` (direct or an ssh client)."""

    def __init__(self, spec, host, log_path, stream_path, proc, log_file,
                 transport=None):
        super().__init__(spec, host, log_path, stream_path)
        self.proc = proc
        self._log_file = log_file
        self._transport = transport
        self._closed = False

    def poll(self) -> int | None:
        return self.proc.poll()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass

    def wait(self) -> None:
        self.proc.wait()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._log_file.close()
        if self._transport is not None:
            self._transport._release(self)


class LocalSubprocessTransport(Transport):
    """Chunk workers as local subprocesses (the historical behaviour).

    Worker stdout/stderr goes to a per-lease log file — never a pipe —
    so a chatty worker cannot fill a pipe and deadlock the scheduler's
    poll loop, and the stream file is written directly into the
    coordinator's workdir (``sync`` is a no-op).
    """

    name = "local"

    def __init__(self, python: str | None = None,
                 env: dict[str, str] | None = None):
        self.python = python or sys.executable
        self.env = dict(env or {})

    def _full_env(self, spec: WorkerSpec) -> dict[str, str]:
        # The local transport intentionally ships the coordinator's
        # full environment; the worker-env *contract* (explicit extras
        # only) is enforced one layer up in backends.py.
        env = dict(os.environ)  # repro: noqa[REP003]
        env.update(self.env)
        env.update(spec.env)
        package_root = _repro_package_root()
        entries = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        if package_root not in entries:
            entries.insert(0, package_root)
        env["PYTHONPATH"] = os.pathsep.join(entries)
        return env

    def start(self, spec: WorkerSpec) -> WorkerHandle:
        log_path = spec.workdir / spec.log_name
        # Live Popen log sink, not an artifact: must be an open handle.
        log_file = open(log_path, "w")  # repro: noqa[REP005]
        try:
            proc = subprocess.Popen(
                chunk_worker_command(self.python, spec, str(spec.workdir)),
                env=self._full_env(spec),
                stdin=subprocess.DEVNULL,
                stdout=log_file,
                stderr=subprocess.STDOUT,
                text=True,
            )
        except BaseException:
            # Not yet wrapped in a handle, so no cleanup path would
            # ever close this file object.
            log_file.close()
            raise
        return _SubprocessWorkerHandle(
            spec, host="local", log_path=log_path,
            stream_path=chunk_stream_path(
                spec.workdir, spec.scenario, spec.chunk_id
            ),
            proc=proc, log_file=log_file,
        )

    def _release(self, handle: WorkerHandle) -> None:  # slot bookkeeping
        pass


class SSHTransport(Transport):
    """Chunk workers dispatched over ``ssh`` to a pool of hosts.

    Each worker runs the same public CLI invocation as a local worker,
    inside ``<remote_root>/<session>/<workdir-name>/`` on the remote
    host; the chunk stream is pulled back with ``scp`` on every
    :meth:`WorkerHandle.sync` (the scheduler syncs before harvesting and
    before any heartbeat-liveness decision).  Host failures the
    scheduler reports through :meth:`report` feed per-host quarantine;
    once every host is quarantined :meth:`available` turns False and the
    scheduler degrades to local execution.

    Assumptions kept deliberately explicit:

    * the remote host can already ``import repro`` (checkout on a shared
      filesystem, or ``remote_pythonpath`` pointing at one);
    * ``spec.env`` (cache roots, chaos injection) is shipped verbatim —
      on a shared filesystem the caches are then shared too; point
      ``env`` overrides at per-host paths otherwise;
    * killing a worker kills the local ssh client; the remote process is
      then orphaned until it finishes (acceptable: its stream is simply
      never harvested again, and exactly-once recording is unaffected).
    """

    name = "ssh"

    def __init__(
        self,
        hosts: str | list[HostSpec],
        python: str = "python3",
        remote_root: str = "/tmp/repro-ssh",
        remote_pythonpath: str | None = None,
        ssh_command: tuple[str, ...] = ("ssh",),
        scp_command: tuple[str, ...] = ("scp",),
        ssh_options: tuple[str, ...] | None = None,
        connect_timeout: float = 10.0,
        quarantine_after: int = 3,
        env: dict[str, str] | None = None,
    ):
        specs = parse_hosts(hosts) if isinstance(hosts, str) else list(hosts)
        if not specs:
            raise ValueError("SSHTransport needs at least one host")
        self.hosts = specs
        self.python = python
        self.remote_root = remote_root
        self.remote_pythonpath = remote_pythonpath
        self.ssh_command = tuple(ssh_command)
        self.scp_command = tuple(scp_command)
        self.ssh_options = (
            ssh_options if ssh_options is not None
            else ("-o", "BatchMode=yes",
                  "-o", f"ConnectTimeout={max(1, int(connect_timeout))}")
        )
        self.env = dict(env or {})
        self.health = HostHealth([h.name for h in specs], quarantine_after)
        self._slots = {h.name: h.slots for h in specs}
        self._load = {h.name: 0 for h in specs}
        self._session = uuid.uuid4().hex[:8]

    # -- host selection ------------------------------------------------- #

    def _pick_host(self) -> str | None:
        """Healthy host with a free slot, least-loaded first."""
        candidates = [
            host for host in self.health.healthy()
            if self._load[host] < self._slots[host]
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda h: (self._load[h], h))

    def available(self) -> bool:
        return self.health.available

    def capacity(self) -> int | None:
        return sum(self._slots[h] for h in self.health.healthy())

    def describe(self) -> str:
        return f"ssh({','.join(h.name for h in self.hosts)})"

    def report(self, handle: WorkerHandle, ok: bool) -> None:
        if ok:
            self.health.record_success(handle.host)
        elif self.health.record_failure(handle.host):
            import warnings

            warnings.warn(
                f"ssh host {handle.host} quarantined after "
                f"{self.health.quarantine_after} consecutive failure(s)",
                RuntimeWarning,
            )

    # -- launch plumbing ------------------------------------------------ #

    def _remote_dir(self, spec: WorkerSpec) -> str:
        return posixpath.join(
            self.remote_root, self._session, spec.workdir.name
        )

    def _remote_command(self, spec: WorkerSpec) -> str:
        remote_dir = self._remote_dir(spec)
        env = dict(self.env)
        env.update(spec.env)
        if self.remote_pythonpath:
            env["PYTHONPATH"] = self.remote_pythonpath
        env_prefix = ""
        if env:
            pairs = " ".join(
                f"{key}={shlex.quote(str(value))}"
                for key, value in sorted(env.items())
            )
            env_prefix = f"env {pairs} "
        worker = " ".join(
            shlex.quote(arg)
            for arg in chunk_worker_command(self.python, spec, remote_dir)
        )
        return f"mkdir -p {shlex.quote(remote_dir)} && {env_prefix}{worker}"

    def start(self, spec: WorkerSpec) -> WorkerHandle:
        host = self._pick_host()
        if host is None:
            raise TransportError(
                "no healthy ssh host with a free worker slot "
                f"(quarantined: {sorted(self.health.quarantined) or 'none'})",
            )
        log_path = spec.workdir / spec.log_name
        # Live Popen log sink, not an artifact: must be an open handle.
        log_file = open(log_path, "w")  # repro: noqa[REP005]
        command = (
            list(self.ssh_command) + list(self.ssh_options)
            + [host, self._remote_command(spec)]
        )
        try:
            proc = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=log_file,
                stderr=subprocess.STDOUT,
                text=True,
            )
        except BaseException:
            log_file.close()
            raise
        self._load[host] += 1
        return _SSHWorkerHandle(
            spec, host=host, log_path=log_path,
            stream_path=chunk_stream_path(
                spec.workdir, spec.scenario, spec.chunk_id
            ),
            proc=proc, log_file=log_file, transport=self,
        )

    def _release(self, handle: WorkerHandle) -> None:
        if self._load.get(handle.host, 0) > 0:
            self._load[handle.host] -= 1

    def _fetch(self, handle: WorkerHandle) -> None:
        """Pull the worker's remote stream file into the local workdir.

        Quietly tolerates "no such file" — a worker that has not written
        its header yet simply has nothing to fetch.
        """
        remote = posixpath.join(
            self._remote_dir(handle.spec), handle.spec.stream_name
        )
        command = (
            list(self.scp_command) + ["-q"]
            + [f"{handle.host}:{remote}", str(handle.stream_path)]
        )
        subprocess.run(
            command, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=60, check=False,
        )


class _SSHWorkerHandle(_SubprocessWorkerHandle):
    def sync(self) -> None:
        self._transport._fetch(self)


#: Fault modes :class:`ChaosTransport` can inject, per launch:
#:
#: * ``refuse``            — launch raises :class:`TransportError`.
#: * ``disconnect``        — worker killed mid-stream after a seeded delay.
#: * ``stall-io``          — worker stops writing (heartbeats included)
#:                           after a recorded trial but stays alive.
#: * ``truncate-stream``   — worker dies leaving a torn final record.
#: * ``corrupt-stream``    — stream bytes corrupted in transit (mid-file).
#: * ``slow``              — worker sleeps between trials but heartbeats.
#: * ``crash-start``       — worker exits hard before running any trial.
#: * ``crash``             — worker exits hard after a recorded trial.
CHAOS_FAULTS = (
    "refuse",
    "disconnect",
    "stall-io",
    "truncate-stream",
    "corrupt-stream",
    "slow",
    "crash-start",
    "crash",
)

#: Fault modes the worker fires itself: the transport sets
#: ``REPRO_CHAOS=<mode>`` on the faulted launch only (see
#: :func:`repro.experiments.backends._maybe_inject_chaos`).
_WORKER_SIDE_FAULTS = ("stall-io", "truncate-stream", "slow", "crash-start",
                       "crash")


class ChaosTransport(Transport):
    """Deterministic fault injection around another transport.

    Each launch of ``(chunk_id, attempt)`` draws from a
    ``random.Random((seed, chunk_id, attempt))`` stream — re-running the
    same sweep with the same seed injects the identical fault schedule,
    which is what lets CI diff a chaos-run artifact against a serial
    one.  ``max_faults_per_chunk`` bounds the injections any one chunk
    suffers so a seeded schedule can never exhaust a retry budget sized
    above it; an explicit ``plan`` (``{(chunk_id, attempt): mode}``)
    overrides the seeded draw for tests that script one exact failure.

    With ``hosts`` set, launches rotate over that many *virtual* hosts
    whose health the scheduler's failure reports feed — quarantining
    them all flips :meth:`available` to False, which is how the
    graceful-degradation path is exercised without real machines.
    """

    name = "chaos"

    def __init__(
        self,
        inner: Transport | None = None,
        seed: int = 0,
        rate: float = 0.35,
        modes: tuple[str, ...] = CHAOS_FAULTS,
        plan: dict[tuple[int, int], str] | None = None,
        hosts: list[str] | int | None = None,
        quarantine_after: int = 2,
        max_faults_per_chunk: int = 2,
        slow_s: float = 0.75,
    ):
        plan = dict(plan or {})
        unknown = [
            m for m in (*modes, *plan.values()) if m not in CHAOS_FAULTS
        ]
        if unknown:
            raise ValueError(
                f"unknown chaos mode(s) {unknown}; pick from {CHAOS_FAULTS}"
            )
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {rate}")
        if isinstance(hosts, int):
            hosts = [f"chaos-{i}" for i in range(hosts)]
        self.inner = inner if inner is not None else LocalSubprocessTransport()
        self.seed = seed
        self.rate = rate
        self.modes = tuple(modes)
        self.plan = plan
        self.health = (
            HostHealth(list(hosts), quarantine_after) if hosts else None
        )
        self.max_faults_per_chunk = max_faults_per_chunk
        self.slow_s = slow_s
        self._faults_per_chunk: dict[int, int] = {}
        self._next_host = 0
        #: Every injected fault, as ``(chunk_id, attempt, mode)`` — tests
        #: assert the schedule actually fired (and is seed-reproducible).
        self.injected: list[tuple[int, int, str]] = []

    # -- fault schedule ------------------------------------------------- #

    def decide(self, chunk_id: int, attempt: int) -> str | None:
        """The fault (if any) for this launch — pure in (seed, id, attempt)."""
        if (chunk_id, attempt) in self.plan:
            return self.plan[(chunk_id, attempt)]
        if self._faults_per_chunk.get(chunk_id, 0) >= self.max_faults_per_chunk:
            return None
        rng = random.Random(f"{self.seed}:{chunk_id}:{attempt}")
        if rng.random() >= self.rate:
            return None
        return rng.choice(self.modes)

    def _virtual_host(self) -> str:
        assert self.health is not None
        healthy = self.health.healthy()
        host = healthy[self._next_host % len(healthy)]
        self._next_host += 1
        return host

    # -- Transport interface -------------------------------------------- #

    def available(self) -> bool:
        return self.health.available if self.health is not None else True

    def capacity(self) -> int | None:
        if self.health is not None:
            return len(self.health.healthy())
        return self.inner.capacity()

    def describe(self) -> str:
        return f"chaos(seed={self.seed}, over {self.inner.describe()})"

    def report(self, handle: WorkerHandle, ok: bool) -> None:
        if self.health is not None:
            if ok:
                self.health.record_success(handle.host)
            else:
                self.health.record_failure(handle.host)
        else:
            self.inner.report(handle, ok)

    def close(self) -> None:
        self.inner.close()

    def start(self, spec: WorkerSpec) -> WorkerHandle:
        host = self._virtual_host() if self.health is not None else None
        mode = self.decide(spec.chunk_id, spec.attempt)
        if mode is not None:
            self._faults_per_chunk[spec.chunk_id] = (
                self._faults_per_chunk.get(spec.chunk_id, 0) + 1
            )
            self.injected.append((spec.chunk_id, spec.attempt, mode))
        if mode == "refuse":
            if self.health is not None:
                self.health.record_failure(host)
            raise TransportError(
                f"injected connection refusal (chunk {spec.chunk_id} "
                f"attempt {spec.attempt})",
                host=host,
            )
        if mode in _WORKER_SIDE_FAULTS:
            env = dict(spec.env)
            env["REPRO_CHAOS"] = mode
            if mode == "slow":
                env["REPRO_CHAOS_SLOW_S"] = f"{self.slow_s:g}"
            spec = replace(spec, env=env)
        rng = random.Random(f"{self.seed}:{spec.chunk_id}:{spec.attempt}:delay")
        handle = self.inner.start(spec)
        return _ChaosWorkerHandle(
            handle,
            host=host if host is not None else handle.host,
            mode=mode,
            kill_at=(
                time.monotonic() + rng.uniform(0.05, 0.6)
                if mode == "disconnect" else None
            ),
        )


class _ChaosWorkerHandle(WorkerHandle):
    """Delegating handle that applies in-flight/arrival faults."""

    def __init__(self, inner: WorkerHandle, host: str, mode: str | None,
                 kill_at: float | None):
        super().__init__(inner.spec, host, inner.log_path, inner.stream_path)
        self._inner = inner
        self.mode = mode
        self._kill_at = kill_at
        self._disconnected = False
        self._corrupted = False

    def poll(self) -> int | None:
        if (
            self._kill_at is not None
            and not self._disconnected
            and time.monotonic() >= self._kill_at
        ):
            self._disconnected = True
            self._inner.kill()
            self._inner.wait()
        code = self._inner.poll()
        if code is not None:
            self._arrival_fault(code)
        if code is not None and self._disconnected and code == 0:
            # The worker won the race and exited cleanly before the
            # injected disconnect; report the disconnect anyway so the
            # scheduler exercises its retry path.
            return 255
        return code

    def _arrival_fault(self, code: int) -> None:
        """Corrupt the *received* stream bytes once, after worker exit."""
        if self.mode != "corrupt-stream" or self._corrupted:
            return
        self._corrupted = True
        self.sync()
        try:
            lines = self.stream_path.read_text().splitlines()
        except OSError:
            return
        if len(lines) < 3:
            return  # header plus one record: nothing mid-file to corrupt
        victim = len(lines) // 2 or 1
        lines[victim] = lines[victim][: max(4, len(lines[victim]) // 2)]
        # Chaos transport: the torn write is the point of this test hook.
        self.stream_path.write_text("\n".join(lines) + "\n")  # repro: noqa[REP005]

    def kill(self) -> None:
        self._inner.kill()

    def wait(self) -> None:
        self._inner.wait()

    def sync(self) -> None:
        self._inner.sync()

    def close(self) -> None:
        self._inner.close()

    def error_tail(self, lines: int = 8) -> str:
        tail = self._inner.error_tail(lines)
        if self.mode == "disconnect" and self._disconnected:
            note = "chaos: injected mid-stream disconnect (worker killed)"
            tail = f"{tail}\n{note}" if tail else note
        return tail


def build_transport(
    kind: str | None,
    hosts: str | None = None,
    python: str | None = None,
    env: dict[str, str] | None = None,
    remote_python: str | None = None,
    remote_root: str | None = None,
    chaos_seed: int = 0,
    chaos_rate: float | None = None,
    chaos_modes: str | None = None,
    chaos_hosts: int | None = None,
) -> Transport | None:
    """CLI factory: map ``--transport``/``--hosts``/chaos flags to a Transport.

    ``None``/``"local"`` returns ``None`` — the scheduler then builds its
    default :class:`LocalSubprocessTransport` (preserving the historical
    ``python=``/``env=`` constructor arguments).
    """
    if kind in (None, "local"):
        return None
    if kind == "ssh":
        spec = hosts or env_str("REPRO_HOSTS", "")
        if not spec:
            raise ValueError(
                "--transport ssh needs --hosts host1[,host2:N,...] "
                "(or REPRO_HOSTS)"
            )
        kwargs: dict = {"env": env}
        if remote_python:
            kwargs["python"] = remote_python
        if remote_root:
            kwargs["remote_root"] = remote_root
        return SSHTransport(spec, **kwargs)
    if kind == "chaos":
        modes = CHAOS_FAULTS
        if chaos_modes:
            modes = tuple(
                m.strip() for m in chaos_modes.split(",") if m.strip()
            )
        return ChaosTransport(
            inner=LocalSubprocessTransport(python=python, env=env),
            seed=chaos_seed,
            rate=0.35 if chaos_rate is None else chaos_rate,
            modes=modes,
            hosts=chaos_hosts,
        )
    raise ValueError(
        f"unknown transport {kind!r}; pick from local, ssh, chaos"
    )
