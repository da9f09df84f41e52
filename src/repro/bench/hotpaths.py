"""Hot-path microbenchmarks: the data behind ``python -m repro bench``.

Each benchmark times two code paths that both stay in the library —
never a slow twin kept only for the comparison:

* ``sync_post_window`` — post-hammer-window model sync: incremental
  dirty-row reload vs the full re-read of every weight row
  (``sync_model_from_dram(full=True)``, the escape hatch for callers
  that mutated the model directly).
* ``multi_bit_window`` — realising a multi-bit flip set (several target
  bits per victim row, the T-BFA regime): per-bit sequential windows
  separated by a refresh (the only schedule under which the sequential
  path lands same-row multi-bit sets — a discharged cell cannot flip
  again within one refresh interval) vs the row-batched
  ``attempt_flips`` path sharing one window and one model sync per row.
* ``radar_detection_sweep`` — one full-model RADAR checksum sweep:
  vectorized per-layer signature recompute vs the pure-Python serial
  reference; parity demands identical signatures and identical
  mismatched-group lists over a tampered model.
* ``defended_vs_undefended`` — one hammer window with DNN-Defender
  ticking vs undefended (an overhead measurement).
* ``timing_checker`` — one hammer window with an audit-mode
  ``TimingChecker`` and a full ``CommandTrace`` attached vs unobserved
  (the command-observer overhead; parity asserts the observers leave the
  command stream byte-identical and timing-legal).
* ``bfa_exact_eval`` — the BFA's exact evaluation of four shortlisted
  candidates spread from early to late blocks: full forwards
  (``start=0``) vs forwards resumed at each flipped layer's segment from
  the inputs the gradient pass captured; parity demands bitwise-equal
  losses.

Every pair is parity-checked during the run: the two variants must
produce identical functional results, and the recorded ``parity`` flag
in the JSON payload asserts that they did.  Results are persisted as
``BENCH_hotpaths.json`` through
:func:`repro.experiments.artifacts.write_bench_artifact`.

Models are built untrained from seeded initializers so the suite never
depends on the preset cache (CI-safe); timing hot paths does not require
trained weights.
"""

from __future__ import annotations

import platform
import time
from typing import Callable

import numpy as np

from repro.attacks.bfa import BitFlipAttack
from repro.attacks.hammer import RowHammerAttacker
from repro.core.defender import DNNDefender
from repro.dram import (
    CommandTrace,
    DramDevice,
    DramGeometry,
    MemoryController,
    TimingChecker,
    TimingParams,
    stats_payload,
)
from repro.mapping import build_protection_plan, place_model
from repro.nn import QuantizedModel, make_resnet20
from repro.nn.quant import BitLocation
from repro.nn.train import loss_and_grads

__all__ = ["HOTPATH_BENCHMARKS", "run_hotpath_suite", "format_suite"]

_GEOMETRY = DramGeometry(
    banks=4, subarrays_per_bank=8, rows_per_subarray=64, row_bytes=256
)


# ---------------------------------------------------------------------- #
# Harness helpers
# ---------------------------------------------------------------------- #

def _stats(times_s: list[float]) -> dict:
    array = np.asarray(times_s, dtype=float) * 1e3
    return {
        "median_ms": float(np.median(array)),
        "p95_ms": float(np.percentile(array, 95)),
    }


def _timed(fn: Callable[[], object], reps: int, warmup: int = 1) -> list[float]:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _entry(name, description, reps, variants, parity, ratio_key="speedup"):
    keys = list(variants)
    ratio = (
        variants[keys[0]]["median_ms"] / variants[keys[1]]["median_ms"]
        if variants[keys[1]]["median_ms"] > 0 else float("inf")
    )
    return {
        "name": name,
        "description": description,
        "reps": reps,
        "variants": variants,
        ratio_key: round(ratio, 2),
        "parity": bool(parity),
    }


def _bench_model(seed: int = 0, width_scale: float = 0.5) -> QuantizedModel:
    """Seeded, untrained victim model (hot paths do not need training)."""
    return QuantizedModel(
        make_resnet20(num_classes=10, width_scale=width_scale, seed=seed)
    )


def _bench_layout(qmodel: QuantizedModel):
    controller = MemoryController(DramDevice(_GEOMETRY), TimingParams(t_rh=1000))
    layout = place_model(qmodel, controller, reserved_rows=2, seed=0)
    return controller, layout


# ---------------------------------------------------------------------- #
# Benchmarks
# ---------------------------------------------------------------------- #

def bench_sync_post_window(quick: bool) -> dict:
    """Post-window model<->DRAM sync: incremental vs full re-read."""
    reps = 20 if quick else 100
    dirty_rows = 4  # a hammer window touches a handful of rows at most
    qmodel = _bench_model()
    controller, layout = _bench_layout(qmodel)
    rows = layout.weight_rows()[:dirty_rows]

    def run(full: bool) -> list[float]:
        times = []
        for _ in range(reps):
            for row in rows:  # untimed: the "attack" dirties a few rows
                data = controller.peek_logical(row)
                data[0] ^= 1
                controller.poke_logical(row, data)
            start = time.perf_counter()
            layout.sync_model_from_dram(full=full)
            times.append(time.perf_counter() - start)
        return times

    before = run(full=True)
    after = run(full=False)
    # Parity: after an incremental sync, a full re-read changes nothing.
    snapshot = qmodel.snapshot()
    layout.sync_model_from_dram(full=True)
    parity = qmodel.hamming_distance_from(snapshot) == 0
    return _entry(
        "sync_post_window",
        f"model sync after {dirty_rows} dirtied rows "
        f"({layout.num_rows} weight rows total)",
        reps,
        {"before": _stats(before), "after": _stats(after)},
        parity,
    )


def _hammer_targets(qmodel: QuantizedModel, n: int) -> list[BitLocation]:
    """Distinct-row target bits spread across the first layer's rows."""
    layer = qmodel.layer(0)
    stride = max(1, layer.num_weights // n)
    return [
        BitLocation(0, (i * stride) % layer.num_weights, 6) for i in range(n)
    ]


def _multi_bit_targets(layout, rows: int, bits_per_row: int):
    """Target bits on ``rows`` distinct victim rows, ``bits_per_row``
    bits each (the first weight byte(s) of each row's slot)."""
    targets = []
    slots = [slot for slot in layout.slots if slot.length >= 1][:rows]
    if len(slots) < rows:
        raise ValueError(f"layout has only {len(slots)} usable rows")
    for slot in slots:
        for bit in range(bits_per_row):
            targets.append(
                BitLocation(
                    slot.layer, slot.byte_offset + bit // 8, bit % 8
                )
            )
    return targets


def bench_multi_bit_window(quick: bool) -> dict:
    """Multi-bit flip set: per-bit windows vs row-batched windows.

    Realises the T-BFA / limited-budget multi-bit regime: several target
    bits per victim row.  ``before`` is the sequential path — one
    ``attempt_flip`` window per bit, each separated by a refresh, which
    is the only schedule under which sequential windows land same-row
    multi-bit sets (a discharged cell cannot flip again until the next
    refresh recharges it).  ``after`` is the batched ``attempt_flips``
    path: all of a row's target bits declared together, one shared
    ``T_RH`` window and one post-window model sync per row.  Parity
    demands identical per-bit outcomes and byte-identical final model
    weights.  The full suite runs a sweep-scale flip set.
    """
    reps = 3 if quick else 6
    rows = 2 if quick else 8
    bits_per_row = 8

    def run(batched: bool):
        qmodel = _bench_model()
        controller, layout = _bench_layout(qmodel)
        attacker = RowHammerAttacker(controller, layout)
        targets = _multi_bit_targets(layout, rows, bits_per_row)
        times, outcome_sets = [], []
        for rep in range(reps + 1):  # first rep warms caches
            start = time.perf_counter()
            if batched:
                outcomes = attacker.attempt_flips(targets, max_windows=1)
                controller.advance_time(controller.ns_until_refresh())
            else:
                outcomes = []
                for target in targets:
                    outcomes.append(
                        attacker.attempt_flip(target, max_windows=1)
                    )
                    # Recharge before the next bit: without the refresh a
                    # second same-row flip is physically impossible.
                    controller.advance_time(controller.ns_until_refresh())
            elapsed = time.perf_counter() - start
            if rep > 0:
                times.append(elapsed)
            outcome_sets.append(outcomes)
        return times, outcome_sets, [
            layer.packed_bytes().tobytes() for layer in qmodel.layers
        ]

    before, outcomes_seq, bytes_seq = run(batched=False)
    after, outcomes_batched, bytes_batched = run(batched=True)
    parity = outcomes_batched == outcomes_seq and bytes_batched == bytes_seq
    return _entry(
        "multi_bit_window",
        f"{rows * bits_per_row}-bit flip set over {rows} victim rows "
        f"({bits_per_row} bits/row, T_RH=1000, no defense): per-bit "
        "windows vs row-batched attempt_flips",
        reps,
        {"before": _stats(before), "after": _stats(after)},
        parity,
    )


def bench_radar_detection_sweep(quick: bool) -> dict:
    """One full-model RADAR sweep: vectorized vs pure-Python signatures.

    Tampers a handful of guarded MSBs first so the sweep has real
    detections to report; ``sweep`` never repairs, so the mismatch set
    is stable across reps.  Parity demands the two recompute paths
    agree on every per-layer signature vector *and* on the mismatched
    ``(layer, group)`` list.
    """
    from repro.defenses.radar import RadarDefense

    reps = 5 if quick else 20
    qmodel = _bench_model()
    radar = RadarDefense(qmodel, group_size=32)
    for target in _hammer_targets(qmodel, 4):  # bit 6: guarded column
        qmodel.flip_bit(target)

    before = _timed(lambda: radar.sweep(reference=True), reps)
    after = _timed(lambda: radar.sweep(), reps)
    mismatched = radar.sweep()
    parity = (
        len(mismatched) > 0
        and mismatched == radar.sweep(reference=True)
        and all(
            np.array_equal(
                radar._layer_signatures(i),
                radar._layer_signatures_reference(i),
            )
            for i in range(qmodel.num_layers)
        )
    )
    return _entry(
        "radar_detection_sweep",
        f"full-model RADAR checksum sweep ({radar.num_groups} groups, "
        f"{qmodel.total_weights} weights, {len(mismatched)} tampered): "
        "pure-Python reference vs vectorized",
        reps,
        {"before": _stats(before), "after": _stats(after)},
        parity,
    )


def bench_defended_vs_undefended(quick: bool) -> dict:
    """Hammer-window cost with DNN-Defender ticking vs undefended."""
    reps = 6 if quick else 20

    def run(defended: bool):
        qmodel = _bench_model()
        controller, layout = _bench_layout(qmodel)
        defense = None
        if defended:
            secured = set(layout.bits_in_row(layout.weight_rows()[0])[:64])
            plan = build_protection_plan(layout, secured)
            defense = DNNDefender(controller, plan)
        attacker = RowHammerAttacker(controller, layout, defense=defense)
        targets = _hammer_targets(qmodel, reps + 1)
        times = []
        for i, target in enumerate(targets):
            start = time.perf_counter()
            attacker.attempt_flip(target, max_windows=1)
            elapsed = time.perf_counter() - start
            if i > 0:
                times.append(elapsed)
        return times

    undefended = run(defended=False)
    defended = run(defended=True)
    return _entry(
        "defended_vs_undefended",
        "one hammer window, DNN-Defender ticking vs no defense",
        reps,
        {"defended": _stats(defended), "undefended": _stats(undefended)},
        True,
        ratio_key="overhead_x",
    )


def bench_timing_checker(quick: bool) -> dict:
    """Command-observer cost: audit checker + full trace vs unobserved."""
    reps = 6 if quick else 20

    def run(observed: bool):
        qmodel = _bench_model()
        controller, layout = _bench_layout(qmodel)
        checker = trace = None
        if observed:
            checker = TimingChecker(controller, mode="audit")
            trace = CommandTrace(controller)
        attacker = RowHammerAttacker(controller, layout)
        targets = _hammer_targets(qmodel, reps + 1)
        times = []
        for i, target in enumerate(targets):
            start = time.perf_counter()
            attacker.attempt_flip(target, max_windows=1)
            elapsed = time.perf_counter() - start
            if i > 0:
                times.append(elapsed)
        if observed:
            checker.close()
            trace.close()
        return times, controller, checker

    bare, bare_controller, _ = run(observed=False)
    observed, observed_controller, checker = run(observed=True)
    # Parity: observers must not perturb the command stream, and the
    # stream itself must be timing-legal.
    parity = (
        stats_payload(observed_controller) == stats_payload(bare_controller)
        and not checker.violations
    )
    return _entry(
        "timing_checker",
        "one hammer window with audit TimingChecker + CommandTrace vs bare",
        reps,
        {"observed": _stats(observed), "bare": _stats(bare)},
        parity,
        ratio_key="overhead_x",
    )


def bench_bfa_exact_eval(quick: bool) -> dict:
    """BFA exact evaluation: full forwards vs resumed forwards.

    Evaluates one candidate flip in each of four ResNet-20 blocks, early
    to late, on a trial-sized attack batch (96 samples of 8x8).
    ``before`` runs every candidate's full forward; ``after`` resumes
    each at its layer's segment from the inputs that one gradient pass
    captured, as the search does.  Parity demands bitwise-equal losses.
    """
    reps = 5 if quick else 20
    qmodel = _bench_model()
    # A fixed benchmark input, not a trial: every run times the same batch.
    rng = np.random.default_rng(0)  # repro: noqa[REP001]
    x = rng.standard_normal((96, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 10, size=96)
    attack = BitFlipAttack(qmodel, x, y)
    inputs: list[np.ndarray] = []
    loss_and_grads(qmodel.model, x, y, inputs=inputs)
    first_layer = {}
    for index in range(qmodel.num_layers):
        first_layer.setdefault(qmodel.segment_of(index), index)
    candidates = [
        BitLocation(first_layer[segment], 0, 6) for segment in (2, 4, 7, 9)
    ]

    def losses(captured):
        return [attack._candidate_loss(c, captured) for c in candidates]

    before = _timed(lambda: losses(None), reps)
    after = _timed(lambda: losses(inputs), reps)
    parity = losses(None) == losses(inputs)
    return _entry(
        "bfa_exact_eval",
        f"exact evaluation of {len(candidates)} candidates in residual "
        "blocks 2, 4, 7 and 9 of 9 (ResNet-20, 96 samples): full forwards "
        "vs resumed at the flipped segment",
        reps,
        {"before": _stats(before), "after": _stats(after)},
        parity,
    )


HOTPATH_BENCHMARKS: dict[str, Callable[[bool], dict]] = {
    "sync_post_window": bench_sync_post_window,
    "multi_bit_window": bench_multi_bit_window,
    "radar_detection_sweep": bench_radar_detection_sweep,
    "defended_vs_undefended": bench_defended_vs_undefended,
    "timing_checker": bench_timing_checker,
    "bfa_exact_eval": bench_bfa_exact_eval,
}


# ---------------------------------------------------------------------- #
# Suite driver
# ---------------------------------------------------------------------- #

def run_hotpath_suite(
    quick: bool = False,
    paths: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the selected hot-path benchmarks; returns the artifact payload."""
    names = list(HOTPATH_BENCHMARKS) if paths is None else list(paths)
    unknown = [n for n in names if n not in HOTPATH_BENCHMARKS]
    if unknown:
        raise KeyError(
            f"unknown bench path(s) {', '.join(unknown)}; available: "
            f"{', '.join(HOTPATH_BENCHMARKS)}"
        )
    start = time.perf_counter()
    benchmarks = []
    for name in names:
        if progress is not None:
            progress(name)
        benchmarks.append(HOTPATH_BENCHMARKS[name](quick))
    summary = {}
    for bench in benchmarks:
        key = "speedup" if "speedup" in bench else "overhead_x"
        summary[bench["name"]] = {key: bench[key], "parity": bench["parity"]}
    return {
        "suite": "hotpaths",
        "quick": quick,
        "elapsed_s": round(time.perf_counter() - start, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benchmarks": benchmarks,
        "summary": summary,
    }


def format_suite(payload: dict) -> str:
    """Human-readable table of a suite payload."""
    from repro.utils.tabulate import format_table

    rows = []
    for bench in payload["benchmarks"]:
        variants = bench["variants"]
        keys = list(variants)
        ratio_key = "speedup" if "speedup" in bench else "overhead_x"
        rows.append(
            [
                bench["name"],
                f"{variants[keys[0]]['median_ms']:.3f}",
                f"{variants[keys[1]]['median_ms']:.3f}",
                f"{bench[ratio_key]:.2f}x {ratio_key}",
                "ok" if bench["parity"] else "MISMATCH",
            ]
        )
    title = (
        f"repro bench — hot paths ({'quick' if payload['quick'] else 'full'}"
        f", {payload['elapsed_s']:.1f}s)"
    )
    return format_table(
        ["path", "before/defended (ms)", "after/undefended (ms)",
         "ratio", "parity"],
        rows,
        title=title,
    )
