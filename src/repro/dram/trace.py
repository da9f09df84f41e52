"""Command-trace recording and replay: the reproduction's gem5-style stats.

The paper's evaluation framework (Fig. 7) exports memory statistics (reads,
writes, micro-ops) from gem5 into the in-house optimizer.  This module
provides the equivalent observability for the Python DRAM model — and makes
it *replayable*, so a recorded command stream doubles as a golden test
fixture that any reimplementation of the controller must reproduce.

:class:`CommandTrace` subscribes to a controller and records two views:

* the legacy bounded activation window (``entries`` plus per-bank/per-row
  aggregates that benchmarks and trackers assert on), fed by the activate
  hook exactly as before, and
* the full command stream (``commands``) — every ACT/PRE/RD/WR/AAP/REF/RNG
  plus idle ``advance_time`` gaps, with bank/row coordinates and issue
  timestamps — fed by the controller's command hooks.

The command stream serializes to JSONL (:meth:`CommandTrace.save`): a
header line carrying the geometry and :class:`TimingParams`, one line per
:class:`CommandRecord`, and a stats footer (:func:`stats_payload`).
:func:`load_trace` returns a :class:`LoadedTrace` whose :meth:`replay`
re-issues the stream through a fresh controller and reproduces
``CommandStats`` byte-for-byte: every record maps back to the high-level
call that charged it (``activate``/``rowclone``/``precharge``/
``charge_command``), bursts re-split identically at refresh boundaries
because the replay clock tracks the recorded clock exactly, and the
controller's own boundary refreshes are skipped on replay (it regenerates
them at the same instants).  Device *fault* state is not part of the
replay contract — flips charge no commands — the command stream, clock,
energy, and per-actor stats are.

A trace holds live controller hooks; :meth:`CommandTrace.close` (or using
the trace as a context manager) unregisters them, after which the trace
stops accumulating and the controller sheds the observation overhead.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from dataclasses import asdict, dataclass

from repro.dram.address import RowAddress
from repro.dram.commands import Command, CommandEvent
from repro.dram.controller import MemoryController
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParams
from repro.utils.io import atomic_write_text

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceEntry",
    "CommandRecord",
    "CommandTrace",
    "LoadedTrace",
    "load_trace",
    "stats_payload",
]

TRACE_FORMAT_VERSION = 1

# Fixed serialization order: byte-identity of saved traces depends on it.
_RECORD_FIELDS = (
    "time_ns", "command", "actor", "bank", "subarray", "row", "count",
    "hammer", "dst_subarray", "dst_row", "auto", "duration_ns",
)


@dataclass(frozen=True)
class TraceEntry:
    """One recorded activation burst."""

    time_ns: float
    physical: RowAddress
    count: int


@dataclass(frozen=True)
class CommandRecord:
    """One serialized controller command (one JSONL row of a trace file).

    ``command`` is the :class:`Command` member name, or ``"IDLE"`` for an
    ``advance_time`` gap of ``duration_ns``.  ``time_ns`` is the issue
    time (pre-charge clock).  AAP records carry their destination row in
    ``dst_subarray``/``dst_row``.
    """

    time_ns: float
    command: str
    actor: str = "system"
    bank: int | None = None
    subarray: int | None = None
    row: int | None = None
    count: int = 1
    hammer: bool = False
    dst_subarray: int | None = None
    dst_row: int | None = None
    auto: bool = False
    duration_ns: float = 0.0

    @classmethod
    def from_event(cls, event: CommandEvent) -> "CommandRecord":
        return cls(
            time_ns=event.time_ns,
            command="IDLE" if event.command is None else event.command.name,
            actor=event.actor,
            bank=event.bank,
            subarray=event.subarray,
            row=event.row,
            count=event.count,
            hammer=event.hammer,
            dst_subarray=event.dst_subarray,
            dst_row=event.dst_row,
            auto=event.auto,
            duration_ns=event.duration_ns,
        )

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    @classmethod
    def from_json(cls, payload: dict) -> "CommandRecord":
        return cls(**{name: payload[name] for name in _RECORD_FIELDS})


def stats_payload(controller: MemoryController) -> dict:
    """Canonical JSON form of a controller's command statistics.

    Key order is fixed (enum order for commands, sorted actors) so equal
    stats serialize to equal bytes — the contract the golden-trace tests
    and the ``repro trace replay`` diff rely on.
    """

    def one(stats) -> dict:
        return {
            "counts": {
                cmd.name: stats.counts[cmd]
                for cmd in Command if cmd in stats.counts
            },
            "total_time_ns": stats.total_time_ns,
            "total_energy_pj": stats.total_energy_pj,
        }

    return {
        **one(controller.stats),
        "actors": {
            actor: one(stats)
            for actor, stats in sorted(controller.stats_by_actor.items())
        },
        "now_ns": controller.now_ns,
        "refresh_epoch": controller.refresh_epoch,
    }


class CommandTrace:
    """Bounded activation trace, full command stream, running aggregates.

    Args:
        controller: the controller to observe.
        window: maximum retained activation entries (older entries are
            dropped from the detailed trace; aggregates keep counting).
            The full command stream in :attr:`commands` is *unbounded* —
            one record per issued command/burst — so long-running
            simulations that only need the activation aggregates should
            ``close()`` the trace when done recording.
    """

    def __init__(self, controller: MemoryController, window: int = 10_000):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.controller = controller
        self.window = window
        self.entries: deque[TraceEntry] = deque(maxlen=window)
        self.commands: list[CommandRecord] = []
        self.activations_by_bank: dict[int, int] = {}
        self.activations_by_row: dict[RowAddress, int] = {}
        self.total_activations = 0
        self._closed = False
        controller.register_activate_hook(self._on_activate)
        controller.register_command_hook(self._on_command)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _on_activate(self, physical: RowAddress, time_ns: float, count: int) -> None:
        self.entries.append(TraceEntry(time_ns, physical, count))
        self.total_activations += count
        self.activations_by_bank[physical.bank] = (
            self.activations_by_bank.get(physical.bank, 0) + count
        )
        self.activations_by_row[physical] = (
            self.activations_by_row.get(physical, 0) + count
        )

    def _on_command(self, event: CommandEvent) -> None:
        self.commands.append(CommandRecord.from_event(event))

    def close(self) -> None:
        """Detach from the controller; the trace stops accumulating.

        Idempotent.  Without this, every trace ever attached keeps its
        hooks registered for the controller's lifetime and keeps paying
        (and charging memory for) observation it no longer wants.
        """
        if self._closed:
            return
        self._closed = True
        self.controller.unregister_activate_hook(self._on_activate)
        self.controller.unregister_command_hook(self._on_command)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "CommandTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def hottest_rows(self, n: int = 5) -> list[tuple[RowAddress, int]]:
        """Rows with the most activations — the aggressor fingerprint a
        tracker-based defense would flag."""
        ranked = sorted(
            self.activations_by_row.items(), key=lambda item: -item[1]
        )
        return ranked[:n]

    def activations_in_span(self, start_ns: float, end_ns: float) -> int:
        """Activations recorded in a time span.

        Only the retained ``window`` of entries is visible: bursts
        already evicted from the bounded deque are *not* counted, even if
        the span covers their timestamps — callers sizing windows for
        long spans must size the trace window to match.
        """
        if end_ns < start_ns:
            raise ValueError("end_ns must be >= start_ns")
        return sum(
            e.count for e in self.entries if start_ns <= e.time_ns <= end_ns
        )

    def summary(self) -> dict[str, float]:
        return {
            "total_activations": self.total_activations,
            "distinct_rows": len(self.activations_by_row),
            "banks_touched": len(self.activations_by_bank),
            "trace_entries": len(self.entries),
            "commands_recorded": len(self.commands),
        }

    def aggregates(self) -> dict:
        """Serializable aggregate view (the golden-trace comparison set)."""
        return {
            "summary": self.summary(),
            "activations_by_bank": {
                str(bank): count
                for bank, count in sorted(self.activations_by_bank.items())
            },
            "hottest_rows": [
                [row.bank, row.subarray, row.row, count]
                for row, count in self.hottest_rows(10)
            ],
        }

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the command stream as JSONL (header, records, stats)."""
        path = pathlib.Path(path)
        geometry = self.controller.device.geometry
        header = {
            "kind": "header",
            "format": TRACE_FORMAT_VERSION,
            "geometry": {
                "banks": geometry.banks,
                "subarrays_per_bank": geometry.subarrays_per_bank,
                "rows_per_subarray": geometry.rows_per_subarray,
                "row_bytes": geometry.row_bytes,
            },
            "timing": asdict(self.controller.timing),
        }
        lines = [_dumps(header)]
        lines.extend(
            _dumps({"kind": "command", **record.to_json()})
            for record in self.commands
        )
        lines.append(_dumps({
            "kind": "stats",
            "stats": stats_payload(self.controller),
            "aggregates": self.aggregates(),
        }))
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, "\n".join(lines) + "\n")
        return path


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


@dataclass
class LoadedTrace:
    """A parsed trace file: header, command records, recorded stats."""

    header: dict
    records: list[CommandRecord]
    stats: dict
    aggregates: dict

    @property
    def geometry(self) -> DramGeometry:
        return DramGeometry(**self.header["geometry"])

    @property
    def timing(self) -> TimingParams:
        return TimingParams(**self.header["timing"])

    def build_controller(self) -> MemoryController:
        """Fresh controller matching the recorded geometry and timing."""
        return MemoryController(DramDevice(self.geometry), self.timing)

    def replay(
        self,
        controller: MemoryController | None = None,
        window: int = 10_000,
    ) -> tuple[MemoryController, CommandTrace]:
        """Re-issue the recorded stream; returns (controller, new trace).

        With no ``controller`` a fresh one is built from the header.  The
        replayed controller finishes with byte-identical
        :func:`stats_payload` to the recording (asserted by the golden
        tests; diffed by ``repro trace replay``).
        """
        if controller is None:
            controller = self.build_controller()
        trace = CommandTrace(controller, window=window)
        try:
            for record in self.records:
                _replay_record(controller, record)
        finally:
            trace.close()
        return controller, trace


def _replay_record(controller: MemoryController, record: CommandRecord) -> None:
    if record.command == "IDLE":
        controller.advance_time(record.duration_ns)
        return
    command = Command[record.command]
    if command is Command.REF and record.auto:
        # The controller regenerates its own boundary refreshes at the
        # same instants; re-issuing them would double-refresh.
        return
    if command is Command.ACT:
        controller.activate(
            RowAddress(record.bank, record.subarray, record.row),
            actor=record.actor, count=record.count, hammer=record.hammer,
        )
        return
    if command is Command.AAP:
        controller.rowclone(
            RowAddress(record.bank, record.subarray, record.row),
            RowAddress(record.bank, record.dst_subarray, record.dst_row),
            actor=record.actor,
        )
        return
    if command is Command.PRE:
        controller.precharge(record.bank, actor=record.actor)
        return
    controller.charge_command(
        command, actor=record.actor, bank=record.bank,
        subarray=record.subarray, row=record.row, count=record.count,
    )


def load_trace(path: str | pathlib.Path) -> LoadedTrace:
    """Parse a JSONL trace file written by :meth:`CommandTrace.save`."""
    path = pathlib.Path(path)
    header: dict | None = None
    stats: dict | None = None
    aggregates: dict = {}
    records: list[CommandRecord] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        payload = json.loads(line)
        kind = payload.get("kind")
        if kind == "header":
            if payload.get("format") != TRACE_FORMAT_VERSION:
                raise ValueError(
                    f"{path}:{lineno}: unsupported trace format "
                    f"{payload.get('format')!r} (expected "
                    f"{TRACE_FORMAT_VERSION})"
                )
            header = payload
        elif kind == "command":
            records.append(CommandRecord.from_json(payload))
        elif kind == "stats":
            stats = payload["stats"]
            aggregates = payload.get("aggregates", {})
        else:
            raise ValueError(f"{path}:{lineno}: unknown record kind {kind!r}")
    if header is None:
        raise ValueError(f"{path}: missing trace header line")
    if stats is None:
        raise ValueError(f"{path}: missing trace stats footer")
    return LoadedTrace(
        header=header, records=records, stats=stats, aggregates=aggregates
    )
