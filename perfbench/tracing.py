"""Traced runs: spans and counts around calls into the program's layers.

:class:`Tracer` wraps public functions and methods of ``repro`` from
outside, so the program itself is unchanged: a traced run installs the
wrappers, an untraced run never imports this module.  Each wrapped call
becomes a span ``[name, start, end, parent, trial]`` kept in memory and
written out as JSON lines when the run ends.  A name already open on the
stack is not re-entered (RADAR's flip executor wraps another one), so
each span counts one logical call.

:meth:`Tracer.layer_metrics` turns the spans and counts into the
per-layer metrics the benchmark reports, each divided by the number of
trials traced.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import statistics
import sys
import threading
import time

from workloads import SHARDED_WORKERS

LAYERS = (
    "nn", "attacks", "dram", "core", "mapping", "defenses", "analysis",
    "experiments",
)
COMMANDS = ("ACT", "PRE", "RD", "WR", "AAP", "REF", "RNG")

# Per-layer metric name -> unit.  Times and counts are per trial traced.
METRICS = {
    "nn.loss_and_grads.calls": "count",
    "nn.loss_and_grads.s": "s",
    "nn.forward.calls": "count",
    "nn.forward.s": "s",
    "nn.evaluate.calls": "count",
    "nn.evaluate.s": "s",
    "nn.evaluate.repeat_frac": "ratio",
    "attacks.execute.calls": "count",
    "attacks.execute.s": "s",
    "attacks.profile.s": "s",
    "attacks.flip.attempts": "count",
    "attacks.flip.landed_frac": "ratio",
    "attacks.hammer.windows": "count",
    "attacks.hammer.s": "s",
    "attacks.hammer.share": "ratio",
    **{f"dram.commands.{c}": "count" for c in COMMANDS},
    "dram.rowclone.calls": "count",
    "dram.activate.calls": "count",
    "dram.sim_ms": "ms",
    "dram.commands_per_s": "1/s",
    "core.defender.ticks": "count",
    "core.defender.window.s": "s",
    "core.swap.calls": "count",
    "core.swap.s": "s",
    "mapping.sync.calls": "count",
    "mapping.sync.s": "s",
    "defenses.build.s": "s",
    "defenses.tick.calls": "count",
    "defenses.sweep.calls": "count",
    "defenses.sweep.s": "s",
    "defenses.recover.s": "s",
    "defenses.blocked_frac": "ratio",
    "analysis.cell.self_s": "s",
    "experiments.worker.starts": "count",
    "experiments.worker.start_s": "s",
    "experiments.worker.life_s": "s",
    "experiments.sync.s": "s",
    "experiments.retries": "count",
    "experiments.idle_frac": "ratio",
    "experiments.cache.load_s": "s",
    "experiments.cache.misses": "count",
    "trace_overhead_frac": "ratio",
}


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _weight_state(model, x) -> bytes:
    """Key of a model's weight values plus the evaluated batch."""
    h = hashlib.blake2b(digest_size=16)
    for param in model.parameters():
        h.update(param.data.tobytes())
    h.update(repr((x.__array_interface__["data"][0], x.shape)).encode())
    return h.digest()


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.totals: collections.Counter = collections.Counter()
        self.calls: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.trial: int | None = None
        self.trial_times: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._open: collections.Counter = collections.Counter()
        self._hot: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._controllers: list = []
        self._seen_states: set[bytes] = set()
        self._workers: list[dict] = []
        self._watch_stop = threading.Event()
        self._watcher: threading.Thread | None = None

    # -- spans --------------------------------------------------------- #

    def span(self, name: str, fn, after=None, hot=False, outside=()):
        """``fn`` wrapped in a span.

        ``after(args, result)`` may record counts from the call.  A
        ``hot`` span (tens of thousands per trial) only adds its time and
        call to the totals and to its parent's child time; it keeps no
        record.  Calls made while a span named in ``outside`` is open run
        unwrapped.
        """
        spans, stack, opened = self.spans, self._stack, self._open
        totals, calls = self.totals, self.calls
        if hot:
            self._hot.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if opened[name] or any(opened[o] for o in outside):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            record = [name, time.perf_counter(), 0.0, parent, self.trial, 0.0]
            if not hot:
                spans.append(record)
                stack.append(len(spans) - 1)
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                opened[name] -= 1
                if not hot:
                    stack.pop()
                duration = record[2] - record[1]
                totals[name] += duration
                calls[name] += 1
                if parent is not None:
                    spans[parent][5] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped to count its calls (no span: it is hot)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr: str, make) -> None:
        """Replace a function everywhere ``repro`` modules bound it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.startswith("repro") and mod.__dict__.get(attr) is original:
                self._patch(mod, attr, wrapper)

    def _patch_methods(self, base, attr: str, make) -> None:
        """Wrap ``attr`` on ``base`` and every subclass defining it."""
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                self._patch(cls, attr, make(cls.__dict__[attr]))

    # -- trials -------------------------------------------------------- #

    def begin_trial(self, index: int) -> None:
        self.trial = index
        self._seen_states.clear()
        self._controllers.clear()
        self.trial_times.append((time.perf_counter(), 0.0))

    def end_trial(self) -> None:
        start, _ = self.trial_times[-1]
        self.trial_times[-1] = (start, time.perf_counter())
        for controller in self._controllers:
            for command, n in controller.stats.counts.items():
                self.counts[f"dram.commands.{command.name}"] += n
            self.counts["dram.sim_ns"] += controller.stats.total_time_ns
        self._controllers.clear()
        self.trial = None

    # -- installation -------------------------------------------------- #

    def install(self) -> None:
        """Wrap the layer entry points (imports every layer first)."""
        import repro.analysis.defense_eval as defense_eval
        import repro.attacks.adaptive as adaptive
        import repro.attacks.profile as profile
        import repro.attacks.registry as attack_registry
        import repro.defenses.registry as defense_registry
        import repro.experiments.tournament  # noqa: F401
        import repro.nn.train as train
        from repro.attacks import executor
        from repro.attacks.hammer import HammerExecutor, RowHammerAttacker
        from repro.attacks.protocol import Attacker
        from repro.core.defender import DNNDefender
        from repro.core.swap import SwapEngine
        from repro.defenses.protocol import Defense
        from repro.defenses.radar import RadarDefense, RadarExecutor
        from repro.defenses.software.reconstruction import ReconstructingExecutor
        from repro.dram.controller import MemoryController
        from repro.experiments.backends import ShardedBackend
        from repro.experiments.cache import PresetCache, ProfileCache
        from repro.experiments.transport import LocalSubprocessTransport
        from repro.mapping.layout import WeightLayout
        from repro.nn.quant import QuantizedModel

        attack_registry.attacker_names()  # registers the built-ins
        defense_registry.defense_names()
        span, counter = self.span, self.counter

        # nn
        def seen(args, result):
            key = _weight_state(args[0], args[1])
            self.counts["nn.evaluate.repeats"] += key in self._seen_states
            self._seen_states.add(key)

        self._patch_function(train, "evaluate", lambda f: span("nn.evaluate", f, seen))
        self._patch_function(
            train, "loss_and_grads", lambda f: span("nn.loss_and_grads", f)
        )
        self._patch(
            QuantizedModel, "__call__",
            span(
                "nn.forward", QuantizedModel.__dict__["__call__"],
                outside=("nn.evaluate", "nn.loss_and_grads"),
            ),
        )

        # attacks
        def outcome(args, result):
            blocked = result.blocked
            self.counts["attacks.outcome.blocked"] += (
                blocked if isinstance(blocked, int) else len(blocked)
            )
            self.counts["attacks.outcome.attempts"] += (
                result.attempts if hasattr(result, "attempts")
                else len(result.planned_sequence)
            )

        self._patch_methods(
            Attacker, "execute", lambda f: span("attacks.execute", f, outcome)
        )
        self._patch_function(
            adaptive, "semi_white_box_attack",
            lambda f: span("attacks.execute", f, outcome),
        )
        self._patch_function(
            profile, "profile_vulnerable_bits", lambda f: span("attacks.profile", f)
        )

        def flips(args, result):
            outcomes = result if isinstance(result, list) else [result]
            self.counts["attacks.flip.attempts"] += len(outcomes)
            self.counts["attacks.flip.landed"] += sum(map(bool, outcomes))

        for cls in (
            executor.SoftwareFlipExecutor, executor.LogicalDefenseExecutor,
            executor.BehavioralDefenseExecutor, HammerExecutor,
            RadarExecutor, ReconstructingExecutor,
        ):
            for attr in ("execute", "execute_many"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, span(
                        "attacks.flip", cls.__dict__[attr], flips,
                        outside=("attacks.profile",),
                    ))

        def windows_before(fn):
            def wrapped(attacker, *args, **kwargs):
                before = attacker.sessions
                try:
                    return fn(attacker, *args, **kwargs)
                finally:
                    self.counts["attacks.hammer.windows"] += (
                        attacker.sessions - before
                    )
            return span("attacks.hammer", wrapped)

        self._patch(
            RowHammerAttacker, "attempt_flips",
            windows_before(RowHammerAttacker.__dict__["attempt_flips"]),
        )

        # dram
        original_init = MemoryController.__dict__["__init__"]

        def init(controller, *args, **kwargs):
            original_init(controller, *args, **kwargs)
            self._controllers.append(controller)

        self._patch(MemoryController, "__init__", init)
        for attr in ("rowclone", "activate"):
            self._patch(
                MemoryController, attr,
                counter(f"dram.{attr}.calls", MemoryController.__dict__[attr]),
            )

        # core
        self._patch(
            DNNDefender, "tick",
            counter("core.defender.ticks", DNNDefender.__dict__["tick"]),
        )
        self._patch(
            DNNDefender, "run_window",
            span("core.defender.window", DNNDefender.__dict__["run_window"]),
        )
        self._patch(
            SwapEngine, "swap_target",
            span("core.swap", SwapEngine.__dict__["swap_target"], hot=True),
        )

        # mapping
        for attr in ("sync_model_from_dram", "sync_dram_from_model"):
            self._patch(
                WeightLayout, attr, span("mapping.sync", WeightLayout.__dict__[attr])
            )

        # defenses
        self._patch_function(
            defense_registry, "build_defense", lambda f: span("defenses.build", f)
        )
        self._patch_methods(
            Defense, "tick", lambda f: counter("defenses.tick.calls", f)
        )
        self._patch_methods(
            Defense, "recover", lambda f: span("defenses.recover", f)
        )
        self._patch(
            RadarDefense, "sweep",
            span("defenses.sweep", RadarDefense.__dict__["sweep"]),
        )

        # analysis
        self._patch_function(
            defense_eval, "evaluate_tournament_cell",
            lambda f: span("analysis.cell", f),
        )

        # experiments
        def misses(fn):
            def wrapped(cache, *args, **kwargs):
                before = cache.misses
                try:
                    return fn(cache, *args, **kwargs)
                finally:
                    self.counts["experiments.cache.misses"] += (
                        cache.misses - before
                    )
            return span("experiments.cache.load", wrapped)

        self._patch(PresetCache, "load_spec", misses(PresetCache.__dict__["load_spec"]))
        self._patch(ProfileCache, "load", misses(ProfileCache.__dict__["load"]))
        self._patch(
            ShardedBackend, "_harvest_chunk",
            span("experiments.sync", ShardedBackend.__dict__["_harvest_chunk"]),
        )
        original_start = LocalSubprocessTransport.__dict__["start"]

        def start(transport, spec):
            launched = time.perf_counter()
            handle = original_start(transport, spec)
            worker = {
                "launched": launched, "attempt": spec.attempt,
                "stream": handle.stream_path, "header": None, "exited": None,
            }
            self._workers.append(worker)
            poll = handle.poll

            def watched_poll():
                code = poll()
                if code is not None and worker["exited"] is None:
                    worker["exited"] = time.perf_counter()
                return code

            handle.poll = watched_poll
            return handle

        self._patch(LocalSubprocessTransport, "start", start)
        self._watcher = threading.Thread(target=self._watch_streams, daemon=True)
        self._watcher.start()

    def _watch_streams(self) -> None:
        """Note when each chunk worker's stream gets its header line."""
        while not self._watch_stop.wait(0.002):
            for worker in list(self._workers):
                if worker["header"] is None:
                    try:
                        if worker["stream"].stat().st_size > 0:
                            worker["header"] = time.perf_counter()
                    except OSError:
                        pass

    def uninstall(self) -> None:
        self._watch_stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------- #

    def layer_table(self) -> dict[str, tuple[float, int]]:
        """Per layer: total self seconds and call count."""
        table = {layer: [0.0, 0] for layer in LAYERS}
        for name, start, end, _, _, child in self.spans:
            table[name.split(".", 1)[0]][0] += end - start - child
        for name in self._hot:
            table[name.split(".", 1)[0]][0] += self.totals[name]
        for name, n in self.calls.items():
            table[name.split(".", 1)[0]][1] += n
        return {k: (v[0], v[1]) for k, v in table.items()}

    def layer_metrics(self, trials: int, overhead: float) -> dict[str, float]:
        """Every per-layer metric, counts and times divided by ``trials``."""
        totals, calls = self.totals, self.calls
        cell_self = sum(
            end - start - child
            for name, start, end, _, _, child in self.spans
            if name == "analysis.cell"
        )
        counts = self.counts
        busy = sum(end - start for start, end in self.trial_times)
        commands = sum(counts[f"dram.commands.{c}"] for c in COMMANDS)
        started = [w for w in self._workers if w["header"] is not None]
        ended = [w for w in self._workers if w["exited"] is not None]
        lease_s = sum(w["exited"] - w["launched"] for w in ended)
        values = {
            "nn.loss_and_grads.calls": calls["nn.loss_and_grads"],
            "nn.loss_and_grads.s": totals["nn.loss_and_grads"],
            "nn.forward.calls": calls["nn.forward"],
            "nn.forward.s": totals["nn.forward"],
            "nn.evaluate.calls": calls["nn.evaluate"],
            "nn.evaluate.s": totals["nn.evaluate"],
            "attacks.execute.calls": calls["attacks.execute"],
            "attacks.execute.s": totals["attacks.execute"],
            "attacks.profile.s": totals["attacks.profile"],
            "attacks.flip.attempts": counts["attacks.flip.attempts"],
            "attacks.hammer.windows": counts["attacks.hammer.windows"],
            "attacks.hammer.s": totals["attacks.hammer"],
            **{
                f"dram.commands.{c}": counts[f"dram.commands.{c}"]
                for c in COMMANDS
            },
            "dram.rowclone.calls": counts["dram.rowclone.calls"],
            "dram.activate.calls": counts["dram.activate.calls"],
            "dram.sim_ms": counts["dram.sim_ns"] / 1e6,
            "core.defender.ticks": counts["core.defender.ticks"],
            "core.defender.window.s": totals["core.defender.window"],
            "core.swap.calls": calls["core.swap"],
            "core.swap.s": totals["core.swap"],
            "mapping.sync.calls": calls["mapping.sync"],
            "mapping.sync.s": totals["mapping.sync"],
            "defenses.build.s": totals["defenses.build"],
            "defenses.tick.calls": counts["defenses.tick.calls"],
            "defenses.sweep.calls": calls["defenses.sweep"],
            "defenses.sweep.s": totals["defenses.sweep"],
            "defenses.recover.s": totals["defenses.recover"],
            "analysis.cell.self_s": cell_self,
            "experiments.worker.starts": len(self._workers),
            "experiments.sync.s": totals["experiments.sync"],
            "experiments.retries": sum(w["attempt"] > 1 for w in self._workers),
            "experiments.cache.load_s": totals["experiments.cache.load"],
            "experiments.cache.misses": counts["experiments.cache.misses"],
        }
        metrics = {name: value / trials for name, value in values.items()}

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        metrics.update({
            "nn.evaluate.repeat_frac": ratio(
                counts["nn.evaluate.repeats"], calls["nn.evaluate"]
            ),
            "attacks.flip.landed_frac": ratio(
                counts["attacks.flip.landed"], counts["attacks.flip.attempts"]
            ),
            "attacks.hammer.share": ratio(totals["attacks.hammer"], busy),
            "dram.commands_per_s": ratio(commands, busy),
            "defenses.blocked_frac": ratio(
                counts["attacks.outcome.blocked"],
                counts["attacks.outcome.attempts"],
            ),
            "experiments.worker.start_s": statistics.median(
                [w["header"] - w["launched"] for w in started]
            ) if started else 0.0,
            "experiments.worker.life_s": statistics.median(
                [w["exited"] - w["launched"] for w in ended]
            ) if ended else 0.0,
            "experiments.idle_frac": (
                1.0 - ratio(lease_s, SHARDED_WORKERS * busy)
            ) if self._workers else 0.0,
            "trace_overhead_frac": overhead,
        })
        assert set(metrics) == set(METRICS), set(metrics) ^ set(METRICS)
        return metrics

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, trial, _ in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "trial": trial,
                }) + "\n")
