"""End-to-end and per-layer benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload tournament-logical --seed 1 --seconds 50 --trace 0

Trials run closed-loop from one process: each starts when the previous
one ends, until ``--seconds`` have passed (the trial under way finishes).
``--trace 0`` prints the end-to-end metrics, their times scaled to nominal
host speed by a reference kernel timed around each trial (see
``hostspeed.py``); ``--trace 1`` runs half the
time untraced, repeats the same trials with wrappers around the layers'
public entry points (see ``tracing.py``), and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

All state lives in ``.perfbench/`` under the repository root: the preset
and profile caches (filled once, before any timed run), the sharded
workers' streams, span files and per-run records.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from hostspeed import HostSpeed, factors, scaled
from workloads import (
    DEFAULT_SEED,
    PRESET,
    WORKLOADS,
    Session,
    artifact_text,
    digest,
    load_digests,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def isolate() -> None:
    """Point every cache, scratch file and child process into ``STATE``."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    for name in ("tmp", "work", "cache"):
        (STATE / name).mkdir(parents=True, exist_ok=True)
    os.environ.update({
        "REPRO_CACHE_DIR": str(STATE / "cache" / "presets"),
        "REPRO_PROFILE_DIR": str(STATE / "cache" / "profiles"),
        "REPRO_RESULTS_DIR": str(STATE / "results"),
        "TMPDIR": str(STATE / "tmp"),
        "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ),
    })


def fill(workload) -> str:
    """Train/profile into the caches once per checkout, untimed."""
    marker = STATE / "cache" / f"filled-{workload.name}"
    if marker.exists():
        return "warm"
    subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--fill", workload.name],
        check=True, timeout=850, stdout=subprocess.DEVNULL,
    )
    marker.write_text("filled\n")
    return "filled before timing"


def setup_seconds(workload, speed) -> tuple[float, float]:
    """Median wall time of a fresh process doing the warm set-up.

    Returns ``(raw, scaled)``; the host-speed kernel runs before each
    probe and after the last.
    """
    times, kernel = [], [speed.sample()]
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload.name],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - began)
        kernel.append(speed.sample())
    return statistics.median(times), statistics.median(scaled(times, kernel))


class Pass:
    """Outcome of one closed-loop pass over a workload's trials."""

    def __init__(self):
        self.samples: list[float] = []   # host seconds per scenario trial
        self.texts: list[str | None] = []
        self.errors: list[str | None] = []
        self.kernel: list[float] = []    # host-speed kernel around each call
        self.wall = 0.0


def run_pass(workload, session, seconds=None, calls=None, tracer=None,
             digests=None, speed=None) -> Pass:
    """Run calls closed-loop, for ``seconds`` or exactly ``calls`` calls.

    Every call's result must pass its scenario's checks; at the default
    seed its artifact digest must match ``digests``.  Untraced passes of
    a workload with a reference also compare every artifact with it.
    ``speed`` times the host-speed kernel before each call and after the
    last; ``wall`` leaves that time out.
    """
    from repro.experiments import get_scenario

    spec = get_scenario(workload.scenario)
    expected = {}
    if digests is not None and session.seed == DEFAULT_SEED:
        expected = digests.get(workload.name, {})
    done = Pass()
    start = time.perf_counter()
    t = 0
    while (
        t < calls if calls is not None
        else t == 0 or time.perf_counter() - start < seconds
    ):
        text = error = None
        if speed is not None:
            done.kernel.append(speed.sample())
        if tracer is not None:
            tracer.begin_trial(t)
        began = time.perf_counter()
        try:
            result = workload.call(session, t)
        except Exception:
            result, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - began
        if tracer is not None:
            tracer.end_trial()
        if result is not None:
            text = artifact_text(result)
            try:
                spec.run_checks(result)
            except Exception:
                error = traceback.format_exc()
            key = workload.digest_key(t)
            if error is None and key in expected and expected[key] != digest(text):
                error = f"artifact digest mismatch at trial {t} (key {key})"
        done.samples.append(elapsed / workload.trials_per_call)
        done.texts.append(text)
        done.errors.append(error)
        t += 1
    if speed is not None:
        done.kernel.append(speed.sample())
    done.wall = time.perf_counter() - start - sum(done.kernel)
    if workload.reference is not None and tracer is None:
        reference = workload.reference(session)
        for i, text in enumerate(done.texts):
            if done.errors[i] is None and text != reference:
                done.errors[i] = f"call {i}: artifact differs from serial run"
    return done


def new_session(workload, seed: int) -> Session:
    session = Session(seed, STATE / "work")
    if workload.uses_preset:
        session.cache.load(PRESET)  # warm before timing, as set-up did
    return session


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile, p90 or above, with ten samples beyond it.

    Returns ``(value, percentile)``.  Below 100 samples no percentile
    from p90 up has ten samples beyond it, so p90 itself is returned,
    interpolated between the two samples around it; the sample count is
    reported next to it.  (The maximum of a few multi-second trials
    swings with every burst of host load.)
    """
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0], 90.0
    if len(ordered) < 100:
        return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def counts(workload, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(trials attempted, trials failed, error texts) over ``passes``."""
    errors = [e for p in passes for e in p.errors if e is not None]
    calls = sum(len(p.errors) for p in passes)
    return (
        calls * workload.trials_per_call,
        len(errors) * workload.trials_per_call,
        errors,
    )


def measure(workload, seed: int, seconds: float, digests) -> dict:
    """Untraced run: the end-to-end metrics.

    Times are scaled to nominal host speed (``hostspeed.py``); the raw
    ones are printed beside them and kept in the run's record.
    """
    speed = HostSpeed()
    session = new_session(workload, seed)
    done = run_pass(workload, session, seconds=seconds, digests=digests,
                    speed=speed)
    rss = peak_rss_mb(children=workload.trials_per_call > 1)
    cold = session.cache.misses + session.profile_cache.misses
    attempted, failed, errors = counts(workload, [done])
    factor = statistics.median(factors(done.kernel))
    setup_raw, setup_scaled = setup_seconds(workload, speed)
    samples = scaled(done.samples, done.kernel)
    value, percentile = tail(samples)
    raw = {
        "setup_s": setup_raw,
        "trial_s_p50": statistics.median(done.samples),
        "trial_s_tail": tail(done.samples)[0],
        "trials_per_s": attempted / done.wall,
        "peak_rss_mb": rss,
    }
    metrics = {
        "setup_s": setup_scaled,
        "trial_s_p50": statistics.median(samples),
        "trial_s_tail": value,
        "trials_per_s": raw["trials_per_s"] * factor,
        "peak_rss_mb": rss,
    }
    print(f"{workload.name}: {attempted} trials, "
          f"tail = p{percentile:.0f} of {len(samples)} samples, "
          f"failed_frac = {failed / attempted:g}, "
          f"cache misses while timed = {cold}")
    print(f"  host-speed factor {factor:.4f} "
          f"(median over the {len(samples)} trials)")
    print(f"  {'metric':<14} {'scaled':>12} {'raw':>12}")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.6f} {raw[name]:12.6f} "
              f"{END_TO_END_UNITS[name]}")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
        "errors": errors,
        "raw_metrics": raw,
        "host_factor": factor,
        "kernel_samples": speed.samples,
        "samples": done.samples,
        "scaled_samples": samples,
    }


def trace_run(workload, seed: int, seconds: float, digests) -> dict:
    """Traced run: half the time untraced, then the same calls traced."""
    from tracing import METRICS, Tracer

    plain = run_pass(workload, new_session(workload, seed),
                     seconds=seconds / 2, digests=digests)
    session = new_session(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, session, calls=len(plain.texts),
                          tracer=tracer, digests=digests)
    finally:
        tracer.uninstall()
    for i, (a, b) in enumerate(zip(plain.texts, traced.texts)):
        if traced.errors[i] is None and a != b:
            traced.errors[i] = f"call {i}: traced artifact differs from untraced"
    attempted, failed, errors = counts(workload, [plain, traced])
    overhead = (traced.wall - plain.wall) / plain.wall
    metrics = tracer.layer_metrics(
        len(traced.texts) * workload.trials_per_call, overhead
    )
    tracer.write(STATE / "traces" / f"{workload.name}-seed{seed}.jsonl")
    print(f"{workload.name}: traced {len(traced.texts)} call(s); "
          f"trace_overhead_frac = {overhead:.4f}")
    print(f"  {'layer':<12} {'self s':>10} {'spans':>8}")
    table = tracer.layer_table()
    for layer, (own, spans) in table.items():
        print(f"  {layer:<12} {own:10.4f} {spans:8d}")
    outside = traced.wall - sum(own for own, _ in table.values())
    print(f"  {'(no layer)':<12} {outside:10.4f}")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in METRICS.items()
        },
        "errors": errors,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    isolate()
    workload = WORKLOADS[args.workload]
    cache_state = fill(workload)
    digests = load_digests()
    run = trace_run if args.trace else measure
    result = run(workload, args.seed, args.seconds, digests)
    import numpy

    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg": os.getloadavg(),
            "cache": cache_state,
        },
        **result,
    }
    out = STATE / "results" / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    for error in result["errors"]:
        print(error, file=sys.stderr)
    print("# env " + json.dumps(record["env"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
