"""``python -m repro`` — the public entry point for running experiments.

Subcommands:

* ``list`` — catalogue of registered scenarios (name, source, presets).
* ``run <scenario> [...]`` — execute scenarios with ``--trials``,
  ``--jobs``, ``--seed`` and ``--param key=value`` overrides; aggregate
  results land as JSON artifacts under ``benchmarks/results/``.
  ``--stream`` appends per-trial JSONL as trials complete and
  ``--resume`` replays completed trials from a previous stream.
  ``--backend sharded --shards N`` fans the run out over N CLI worker
  subprocesses through a work-stealing chunk scheduler with a fault
  policy (``--shard-timeout``, ``--retries`` with backoff,
  ``--chunk-size``, ``--heartbeat-interval``); ``--transport ssh
  --hosts h1,h2:4`` dispatches those workers over ssh instead (with
  per-host quarantine and graceful local fallback), and ``--transport
  chaos`` wraps the local transport in seeded fault injection;
  ``--shard i/N`` runs one static shard's trials only (the worker side
  of a manual multi-machine sweep) and ``--chunk K --trial-indices …``
  runs one chunk lease (the worker side of the scheduler), both
  streaming JSONL for ``merge``.
* ``merge <scenario>`` — fuse shard and/or chunk streams into the
  canonical aggregate artifact (validated exactly like ``--resume``;
  byte-identical to a single-host run).
* ``bench`` — hot-path perf microbenchmarks; emits ``BENCH_hotpaths.json``
  (see ``docs/performance.md``).
* ``trace record | replay | show`` — record a canonical workload's DRAM
  command stream to JSONL, replay a trace through a fresh controller
  (diffing the reproduced ``CommandStats`` against the recorded footer,
  optionally under strict/audit timing-rule checking), or print a trace.
* ``lint [paths]`` — static determinism & resource-safety analysis (the
  REP rule set over ``src/`` by default): ``--format text|json``,
  ``--select/--ignore RULES``, ``--stats`` summary tables and
  ``--list-rules``.  Exits 1 when findings remain, so CI can gate on it;
  ``--check-suppressions`` also fails on dead noqa pragmas and exempt
  paths.
* ``cache info | clear`` — inspect or empty the trained-preset and
  attack-profile caches.

Reproduction checks run after each scenario; failures are reported (and
recorded in the artifact) but only fail the process under ``--strict``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.experiments.artifacts import (
    default_results_dir,
    write_artifact,
    write_bench_artifact,
)
from repro.experiments.cache import PresetCache, ProfileCache
from repro.experiments.registry import get_scenario, iter_scenarios
from repro.experiments.runner import run_scenario
from repro.experiments.transport import CHAOS_FAULTS
from repro.presets import preset_spec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DNN-Defender reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list", help="list registered scenarios, defenses, or attackers"
    )
    list_cmd.add_argument("--tag", default=None,
                          help="only scenarios carrying this tag")
    list_cmd.add_argument("--kind", default="scenarios",
                          choices=("scenarios", "defenses", "attackers",
                                   "all"),
                          help="which registry to list (default: scenarios)")

    run_cmd = sub.add_parser("run", help="run one or more scenarios")
    run_cmd.add_argument("scenarios", nargs="+", metavar="scenario")
    run_cmd.add_argument("--trials", type=int, default=None,
                         help="Monte-Carlo trials (default: per-scenario)")
    run_cmd.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes (default: 1)")
    run_cmd.add_argument("--seed", type=int, default=0,
                         help="base seed; trial seeds derive from it")
    run_cmd.add_argument("--param", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="scenario parameter override (repeatable)")
    run_cmd.add_argument("--params-json", default=None, metavar="JSON",
                         help="scenario parameters as one JSON object "
                              "(lossless; used by the sharded backend to "
                              "forward params to workers). --param "
                              "overrides individual keys on top")
    run_cmd.add_argument("--out", default=None,
                         help="artifact directory "
                              "(default: benchmarks/results/)")
    run_cmd.add_argument("--no-artifact", action="store_true",
                         help="skip writing the JSON artifact")
    run_cmd.add_argument("--strict", action="store_true",
                         help="exit non-zero if reproduction checks fail")
    run_cmd.add_argument("--quiet", action="store_true",
                         help="suppress the report table and progress")
    run_cmd.add_argument("--stream", action="store_true",
                         help="append per-trial JSONL results as trials "
                              "complete (<results>/<scenario>.trials.jsonl)")
    run_cmd.add_argument("--resume", action="store_true",
                         help="replay completed trials from the stream "
                              "file and run only the missing ones "
                              "(implies --stream)")
    run_cmd.add_argument("--backend", default="auto",
                         choices=("auto", "serial", "process", "sharded"),
                         help="execution backend (auto: serial for "
                              "--jobs 1, process pool otherwise)")
    run_cmd.add_argument("--shards", type=int, default=None,
                         help="shard count for --backend sharded "
                              "(default: --jobs)")
    run_cmd.add_argument("--shard", default=None, metavar="I/N",
                         help="run only shard I of N (trial indices "
                              "I, I+N, ...), streaming JSONL to "
                              "<out>/<scenario>.shard-IofN.trials.jsonl "
                              "for a later 'repro merge'")
    run_cmd.add_argument("--shard-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="--backend sharded: kill a chunk worker "
                              "exceeding this wall-clock budget and "
                              "requeue its unfinished trials")
    run_cmd.add_argument("--retries", type=int, default=None, metavar="N",
                         help="--backend sharded: re-dispatch a failed or "
                              "timed-out chunk up to N times, salvaging "
                              "its completed trials first and backing off "
                              "0.5s, doubling, at most 30s, with jitter "
                              "(default: 1)")
    run_cmd.add_argument("--chunk-size", type=int, default=None, metavar="N",
                         help="--backend sharded: trials per work-stealing "
                              "chunk lease (default: pending/(4*shards))")
    run_cmd.add_argument("--chunk", type=int, default=None, metavar="K",
                         help="worker side of the sharded scheduler: run "
                              "one chunk lease, streaming JSONL to "
                              "<out>/<scenario>.chunk-K.trials.jsonl "
                              "(requires --trial-indices)")
    run_cmd.add_argument("--trial-indices", default=None, metavar="I,J,...",
                         help="comma-separated trial indices owned by the "
                              "--chunk lease")
    run_cmd.add_argument("--transport", default=None,
                         choices=("local", "ssh", "chaos"),
                         help="--backend sharded: where chunk workers run "
                              "(local subprocesses, ssh hosts, or "
                              "fault-injecting chaos wrapper; default: local)")
    run_cmd.add_argument("--hosts", default=None, metavar="H1[,H2:N,...]",
                         help="--transport ssh: remote host pool, "
                              "host[:slots] entries (default: REPRO_HOSTS)")
    run_cmd.add_argument("--heartbeat-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="workers interleave liveness heartbeats into "
                              "their trial streams every SECONDS, making "
                              "--shard-timeout kill on silence instead of "
                              "runtime (orchestrator and --chunk workers)")
    run_cmd.add_argument("--remote-python", default=None, metavar="PATH",
                         help="--transport ssh: interpreter on the remote "
                              "hosts (default: python3)")
    run_cmd.add_argument("--remote-root", default=None, metavar="DIR",
                         help="--transport ssh: remote scratch directory "
                              "for chunk streams (default: /tmp/repro-ssh)")
    run_cmd.add_argument("--chaos-seed", type=int, default=None,
                         help="--transport chaos: fault-schedule seed "
                              "(same seed, same faults; default: 0)")
    run_cmd.add_argument("--chaos-rate", type=float, default=None,
                         help="--transport chaos: per-launch fault "
                              "probability in [0,1] (default: 0.35)")
    run_cmd.add_argument("--chaos-modes", default=None, metavar="M1,M2,...",
                         help="--transport chaos: fault modes to draw from "
                              f"({', '.join(CHAOS_FAULTS)}; default: all)")
    run_cmd.add_argument("--chaos-hosts", type=int, default=None, metavar="N",
                         help="--transport chaos: rotate launches over N "
                              "virtual hosts with health tracking, so "
                              "quarantine/degradation paths are exercised")

    merge_cmd = sub.add_parser(
        "merge",
        help="fuse shard/chunk trial streams into the aggregate artifact",
    )
    merge_cmd.add_argument("scenario")
    merge_cmd.add_argument("shard_files", nargs="*", metavar="stream.jsonl",
                           help="shard/chunk stream files (default: discover "
                                "<out>/<scenario>.shard-*of*.trials.jsonl "
                                "and <out>/<scenario>.chunk-*.trials.jsonl)")
    merge_cmd.add_argument("--out", default=None,
                           help="artifact/shard directory "
                                "(default: benchmarks/results/)")
    merge_cmd.add_argument("--no-artifact", action="store_true",
                           help="skip writing the JSON artifact")
    merge_cmd.add_argument("--strict", action="store_true",
                           help="exit non-zero if reproduction checks fail")
    merge_cmd.add_argument("--quiet", action="store_true",
                           help="suppress the report table")

    bench_cmd = sub.add_parser(
        "bench", help="hot-path perf microbenchmarks (BENCH_hotpaths.json)"
    )
    bench_cmd.add_argument("--quick", action="store_true",
                           help="fewer repetitions (CI smoke budget)")
    bench_cmd.add_argument("--paths", default=None,
                           help="comma-separated subset of bench paths "
                                "(default: all)")
    bench_cmd.add_argument("--out", default=None,
                           help="artifact directory (default: repo root)")
    bench_cmd.add_argument("--no-artifact", action="store_true",
                           help="skip writing BENCH_hotpaths.json")

    trace_cmd = sub.add_parser(
        "trace", help="record/replay/inspect DRAM command traces (JSONL)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    record_cmd = trace_sub.add_parser(
        "record", help="record a canonical workload's command stream"
    )
    record_cmd.add_argument("--workload", required=True,
                            help="workload name (see repro.experiments."
                                 "goldens.GOLDEN_WORKLOADS)")
    record_cmd.add_argument("--out", required=True, metavar="FILE.jsonl",
                            help="trace output path")
    record_cmd.add_argument("--seed", type=int, default=0)
    record_cmd.add_argument("--check", default="off",
                            choices=("off", "strict", "audit"),
                            help="attach a TimingChecker while recording")
    replay_cmd = trace_sub.add_parser(
        "replay", help="replay a trace and diff the reproduced stats"
    )
    replay_cmd.add_argument("trace", metavar="FILE.jsonl")
    replay_cmd.add_argument("--check", default="off",
                            choices=("off", "strict", "audit"),
                            help="validate the replayed stream against the "
                                 "timing rules (strict exits non-zero on "
                                 "any violation)")
    replay_cmd.add_argument("--quiet", action="store_true",
                            help="suppress the summary line")
    show_cmd = trace_sub.add_parser("show", help="print a trace file")
    show_cmd.add_argument("trace", metavar="FILE.jsonl")
    show_cmd.add_argument("--limit", type=int, default=20,
                          help="command records to print (default: 20)")

    cache_cmd = sub.add_parser(
        "cache", help="trained-preset / attack-profile cache tools"
    )
    cache_cmd.add_argument("action", choices=("info", "clear"))

    lint_cmd = sub.add_parser(
        "lint",
        help="static determinism/resource-safety analysis (REP rules)",
    )
    lint_cmd.add_argument("paths", nargs="*", metavar="path",
                          help="files/directories to analyze "
                               "(default: src/ under the repo root)")
    lint_cmd.add_argument("--format", default="text",
                          choices=("text", "json"),
                          help="diagnostic output format (default: text)")
    lint_cmd.add_argument("--select", default=None, metavar="REP001,...",
                          help="only run these rule ids")
    lint_cmd.add_argument("--ignore", default=None, metavar="REP001,...",
                          help="skip these rule ids")
    lint_cmd.add_argument("--stats", action="store_true",
                          help="print findings-per-rule/package summary "
                               "tables (text format)")
    lint_cmd.add_argument("--check-suppressions", action="store_true",
                          help="also fail (exit 1) when dead suppressions "
                               "exist: noqa pragmas or exempt paths that "
                               "no longer match anything")
    lint_cmd.add_argument("--list-rules", action="store_true",
                          help="print the rule catalogue and exit")

    return parser


def _resolve_params(args) -> dict:
    """Merge ``--params-json`` (lossless) with ``--param k=v`` overrides."""
    import json

    params: dict = {}
    if getattr(args, "params_json", None):
        try:
            params = json.loads(args.params_json)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--params-json is not valid JSON: {exc}")
        if not isinstance(params, dict):
            raise SystemExit(
                f"--params-json must be a JSON object, got "
                f"{type(params).__name__}"
            )
    params.update(_parse_params(args.param))
    return params


def _parse_params(pairs: list[str]) -> dict:
    """``k=v`` strings to a dict, coercing ints/floats when they parse."""
    params: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        value: object = raw
        for cast in (int, float):
            try:
                value = cast(raw)
                break
            except ValueError:
                continue
        params[key] = value
    return params


def _list_specs(label: str, specs: list, run_hint: str) -> int:
    """Shared listing for defense/attacker registries."""
    if not specs:
        print(f"no {label} registered")
        return 1
    name_width = max(len(s.name) for s in specs)
    kind_width = max(len(s.kind) for s in specs)
    for spec in specs:
        extras = [f"cost {spec.cost:g}"]
        if spec.tournament:
            extras.append("tournament")
        print(
            f"{spec.name:<{name_width}}  {spec.kind:<{kind_width}}  "
            f"{spec.title}  [{'; '.join(extras)}]"
        )
    print(f"\n{len(specs)} {label}; {run_hint}")
    return 0


def _cmd_list(args) -> int:
    kind = getattr(args, "kind", "scenarios")
    status = 0
    if kind in ("defenses", "all"):
        from repro.defenses.registry import iter_defenses

        status |= _list_specs(
            "defenses", list(iter_defenses()),
            "deploy with: DefendedDeployment.build(defense=<name>)",
        )
        if kind == "all":
            print()
    if kind in ("attackers", "all"):
        from repro.attacks.registry import iter_attackers

        status |= _list_specs(
            "attackers", list(iter_attackers()),
            "run with: deployment.run_attack(attacker=<name>)",
        )
        if kind == "all":
            print()
    if kind not in ("scenarios", "all"):
        return status
    rows = list(iter_scenarios(tag=args.tag))
    if not rows:
        print("no scenarios registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    name_width = max(len(s.name) for s in rows)
    source_width = max(len(s.source) for s in rows)
    for spec in rows:
        extras = []
        if spec.presets:
            extras.append(f"presets: {', '.join(spec.presets)}")
        if spec.deterministic:
            extras.append("deterministic")
        suffix = f"  [{'; '.join(extras)}]" if extras else ""
        print(
            f"{spec.name:<{name_width}}  {spec.source:<{source_width}}  "
            f"{spec.title}{suffix}"
        )
    print(f"\n{len(rows)} scenarios; run with: python -m repro run <name>")
    return 0


def _cmd_run(args) -> int:
    params = _resolve_params(args)
    cache = PresetCache()
    if args.shard is not None and (
        args.chunk is not None or args.trial_indices is not None
    ):
        raise SystemExit(
            "--shard and --chunk/--trial-indices are mutually exclusive "
            "worker flags"
        )
    if args.shard is not None:
        return _run_shards(args, params, cache)
    if args.chunk is not None or args.trial_indices is not None:
        return _run_chunks(args, params, cache)
    backend = _resolve_backend(args)
    failed_checks: list[str] = []
    for name in args.scenarios:
        spec = get_scenario(name)  # fail fast on typos, before any work

        def progress(done: int, total: int) -> None:
            print(f"  [{name}] trial {done}/{total}", file=sys.stderr)

        if not args.quiet:
            cold = [
                p for p in spec.presets
                if not cache.path_for(preset_spec(p)).exists()
            ]
            trials = args.trials if args.trials is not None else spec.default_trials
            print(
                f"running {name} ({spec.source or 'unsourced'}): "
                f"{trials} trial(s), {args.jobs} job(s), seed {args.seed}"
                + (f"; cold presets: {', '.join(cold)}" if cold else "")
            )
        stream_path = None
        if args.stream or args.resume:
            stream_dir = (
                pathlib.Path(args.out) if args.out else default_results_dir()
            )
            stream_path = stream_dir / f"{name}.trials.jsonl"
        result = run_scenario(
            name,
            trials=args.trials,
            jobs=args.jobs,
            seed=args.seed,
            params=params,
            cache=cache,
            progress=None if args.quiet else progress,
            stream_path=stream_path,
            resume=args.resume,
            backend=backend,
        )
        if stream_path is not None and not args.quiet:
            print(f"trial stream: {stream_path}")
        if not _finish_result(spec, name, result, args):
            failed_checks.append(name)
        if not args.quiet:
            print(f"elapsed: {result.elapsed_s:.2f}s")
    if failed_checks and args.strict:
        return 1
    return 0


def _finish_result(spec, name: str, result, args) -> bool:
    """Shared run/merge epilogue: checks, artifact, report, warning.

    Returns False when the reproduction checks failed.  Keeping this in
    one place guarantees merged and single-host runs record check errors
    identically — the artifact byte-identity contract depends on it.
    """
    try:
        spec.run_checks(result)
    except AssertionError as exc:
        result.check_error = f"{type(exc).__name__}: {exc}"
    if not args.no_artifact:
        path = write_artifact(result, directory=args.out)
        if not args.quiet:
            print(f"artifact: {path}")
    if not args.quiet:
        print(spec.render_report(result))
    if result.check_error is not None:
        print(
            f"warning: reproduction checks FAILED for {name}: "
            f"{result.check_error}",
            file=sys.stderr,
        )
        return False
    return True


def _reject_scheduler_flags(
    args, context: str, allow: tuple[str, ...] = ()
) -> None:
    """Fail fast when sharded-scheduler flags reach a non-sharded path.

    ``allow`` names flags the calling path legitimately consumes (the
    chunk worker accepts ``--heartbeat-interval``, for example).
    """
    for flag, value in (
        ("--shards", args.shards),
        ("--shard-timeout", args.shard_timeout),
        ("--retries", args.retries),
        ("--chunk-size", args.chunk_size),
        ("--transport", args.transport),
        ("--hosts", args.hosts),
        ("--heartbeat-interval", args.heartbeat_interval),
        ("--remote-python", args.remote_python),
        ("--remote-root", args.remote_root),
        ("--chaos-seed", args.chaos_seed),
        ("--chaos-rate", args.chaos_rate),
        ("--chaos-modes", args.chaos_modes),
        ("--chaos-hosts", args.chaos_hosts),
    ):
        if value is not None and flag not in allow:
            raise SystemExit(f"{flag} requires {context}")


def _resolve_transport(args):
    """Map the ``--transport`` flag family to a Transport (or None=local)."""
    from repro.experiments.transport import build_transport

    if args.transport != "ssh":
        for flag, value in (
            ("--hosts", args.hosts),
            ("--remote-python", args.remote_python),
            ("--remote-root", args.remote_root),
        ):
            if value is not None:
                raise SystemExit(f"{flag} requires --transport ssh")
    if args.transport != "chaos":
        for flag, value in (
            ("--chaos-seed", args.chaos_seed),
            ("--chaos-rate", args.chaos_rate),
            ("--chaos-modes", args.chaos_modes),
            ("--chaos-hosts", args.chaos_hosts),
        ):
            if value is not None:
                raise SystemExit(f"{flag} requires --transport chaos")
    return build_transport(
        args.transport,
        hosts=args.hosts,
        remote_python=args.remote_python,
        remote_root=args.remote_root,
        chaos_seed=0 if args.chaos_seed is None else args.chaos_seed,
        chaos_rate=args.chaos_rate,
        chaos_modes=args.chaos_modes,
        chaos_hosts=args.chaos_hosts,
    )


def _resolve_backend(args):
    """Map ``--backend``/``--shards`` to a Backend (None = runner default)."""
    from repro.experiments.backends import (
        ProcessPoolBackend,
        SerialBackend,
        ShardedBackend,
    )

    if args.backend != "sharded":
        _reject_scheduler_flags(args, "--backend sharded")
    if args.backend == "serial":
        return SerialBackend()
    if args.backend == "process":
        return ProcessPoolBackend(args.jobs)
    if args.backend == "sharded":
        shards = args.shards if args.shards is not None else args.jobs
        workdir = (
            pathlib.Path(args.out) if args.out else default_results_dir()
        )
        # Forward --resume so completed trials in existing workdir
        # streams are salvaged instead of re-run.
        return ShardedBackend(
            shards,
            workdir=workdir,
            resume=args.resume,
            timeout=args.shard_timeout,
            retries=1 if args.retries is None else args.retries,
            chunk_size=args.chunk_size,
            transport=_resolve_transport(args),
            heartbeat_interval=args.heartbeat_interval,
        )
    return None  # auto: run_scenario picks serial/process from --jobs


def _run_chunks(args, params: dict, cache: PresetCache) -> int:
    """Worker side of the chunk scheduler: execute one lease per scenario."""
    from repro.experiments.backends import run_chunk

    if args.chunk is None or args.trial_indices is None:
        raise SystemExit("--chunk and --trial-indices must be used together")
    if args.backend != "auto":
        raise SystemExit("--chunk and --backend are mutually exclusive")
    _reject_scheduler_flags(
        args, "--backend sharded (they are orchestrator flags, not valid "
        "on the --chunk worker)",
        allow=("--heartbeat-interval",),
    )
    try:
        indices = [
            int(text) for text in args.trial_indices.split(",") if text.strip()
        ]
    except ValueError:
        raise SystemExit(
            "--trial-indices expects comma-separated integers, got "
            f"{args.trial_indices!r}"
        ) from None
    if not indices:
        raise SystemExit("--trial-indices is empty")
    out_dir = pathlib.Path(args.out) if args.out else default_results_dir()
    for name in args.scenarios:
        get_scenario(name)  # fail fast on typos, before any work

        def progress(done: int, total: int) -> None:
            print(
                f"  [{name} chunk {args.chunk}] trial {done}/{total}",
                file=sys.stderr,
            )

        path = run_chunk(
            name,
            chunk_id=args.chunk,
            indices=indices,
            trials=args.trials,
            seed=args.seed,
            params=params,
            directory=out_dir,
            cache=cache,
            # A retried lease replays its previous attempt's stream.
            resume=True,
            jobs=args.jobs,
            progress=None if args.quiet else progress,
            heartbeat_interval=args.heartbeat_interval,
        )
        if not args.quiet:
            print(f"chunk stream: {path}")
    return 0


def _run_shards(args, params: dict, cache: PresetCache) -> int:
    """Worker side of a sharded run: execute one shard per scenario."""
    from repro.experiments.backends import parse_shard, run_shard

    if args.backend != "auto":
        raise SystemExit("--shard and --backend are mutually exclusive")
    _reject_scheduler_flags(
        args, "--backend sharded (they are orchestrator flags, not valid "
        "on the --shard worker; the shard count is the N in I/N)"
    )
    index, count = parse_shard(args.shard)
    out_dir = pathlib.Path(args.out) if args.out else default_results_dir()
    for name in args.scenarios:
        get_scenario(name)  # fail fast on typos, before any work

        def progress(done: int, total: int) -> None:
            print(
                f"  [{name} shard {index}/{count}] trial {done}/{total}",
                file=sys.stderr,
            )

        path = run_shard(
            name,
            shard=(index, count),
            trials=args.trials,
            seed=args.seed,
            params=params,
            directory=out_dir,
            cache=cache,
            resume=args.resume,
            jobs=args.jobs,
            progress=None if args.quiet else progress,
        )
        if not args.quiet:
            print(f"shard stream: {path}")
    return 0


def _cmd_merge(args) -> int:
    """Fuse shard/chunk streams into the canonical aggregate artifact."""
    from repro.experiments.backends import discover_streams, merge_shards

    spec = get_scenario(args.scenario)
    out_dir = pathlib.Path(args.out) if args.out else default_results_dir()
    paths = (
        [pathlib.Path(p) for p in args.shard_files]
        if args.shard_files
        else discover_streams(out_dir, args.scenario)
    )
    if not paths:
        print(
            f"error: no trial streams for {args.scenario!r} under {out_dir} "
            f"(expected {args.scenario}.shard-*of*.trials.jsonl or "
            f"{args.scenario}.chunk-*.trials.jsonl)",
            file=sys.stderr,
        )
        return 2
    result = merge_shards(paths, scenario=args.scenario)
    if not args.quiet:
        print(
            f"merged {len(paths)} shard stream(s), "
            f"{result.trials} trial(s)"
        )
    checks_ok = _finish_result(spec, args.scenario, result, args)
    return 1 if (not checks_ok and args.strict) else 0


def _cmd_bench(args) -> int:
    from repro.bench import format_suite, run_hotpath_suite

    paths = args.paths.split(",") if args.paths else None

    def progress(name: str) -> None:
        print(f"  [bench] {name} ...", file=sys.stderr)

    payload = run_hotpath_suite(
        quick=args.quick, paths=paths, progress=progress
    )
    print(format_suite(payload))
    if not args.no_artifact:
        path = write_bench_artifact(payload, directory=args.out)
        print(f"artifact: {path}")
    mismatches = [
        name for name, entry in payload["summary"].items()
        if not entry["parity"]
    ]
    if mismatches:
        print(
            f"error: parity MISMATCH in {', '.join(mismatches)} — the two "
            "compared paths disagree",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args) -> int:
    """``repro trace record | replay | show`` dispatcher."""
    from repro.dram import TimingViolation, load_trace, stats_payload
    from repro.dram.timing_rules import TimingChecker

    if args.trace_command == "record":
        from repro.experiments.goldens import record_workload

        controller, trace = record_workload(args.workload, seed=args.seed)
        if args.check != "off":
            # Re-validate the recorded stream offline (the builders close
            # their traces, so check post-hoc from the records).
            checker = TimingChecker(
                timing=controller.timing, mode=args.check
            )
            for record in trace.commands:
                checker.observe(_record_to_event(record))
            if checker.violations:
                for violation in checker.violations:
                    print(f"violation: {violation.describe()}", file=sys.stderr)
                return 1
        path = trace.save(args.out)
        summary = trace.summary()
        print(
            f"recorded {args.workload} (seed {args.seed}): "
            f"{summary['commands_recorded']} command record(s), "
            f"{summary['total_activations']} activation(s) -> {path}"
        )
        return 0

    try:
        loaded = load_trace(args.trace)
    except FileNotFoundError:
        raise ValueError(f"no such trace file: {args.trace}") from None
    if args.trace_command == "show":
        geometry = loaded.header["geometry"]
        print(
            f"trace {args.trace}: format {loaded.header['format']}, "
            f"{len(loaded.records)} record(s), geometry "
            f"{geometry['banks']}x{geometry['subarrays_per_bank']}x"
            f"{geometry['rows_per_subarray']}"
        )
        for record in loaded.records[:max(args.limit, 0)]:
            where = "-" if record.bank is None else (
                f"{record.bank}.{record.subarray}.{record.row}"
                if record.row is not None else str(record.bank)
            )
            extras = []
            if record.count != 1:
                extras.append(f"x{record.count}")
            if record.hammer:
                extras.append("hammer")
            if record.auto:
                extras.append("auto")
            if record.command == "IDLE":
                extras.append(f"{record.duration_ns:g}ns")
            if record.dst_row is not None:
                extras.append(f"->{record.bank}.{record.dst_subarray}.{record.dst_row}")
            print(
                f"  t={record.time_ns:<14g} {record.command:<4} {where:<10} "
                f"{record.actor}" + (f"  [{', '.join(extras)}]" if extras else "")
            )
        hidden = len(loaded.records) - max(args.limit, 0)
        if hidden > 0:
            print(f"  ... {hidden} more record(s)")
        stats = loaded.stats
        print(
            f"stats: {stats['counts']} | time {stats['total_time_ns']:g} ns "
            f"| energy {stats['total_energy_pj']:g} pJ"
        )
        return 0

    # replay
    controller = loaded.build_controller()
    checker = None
    if args.check != "off":
        checker = TimingChecker(controller, mode=args.check)
    try:
        controller, trace = loaded.replay(controller=controller)
    except TimingViolation as exc:
        print(f"timing violation during replay: {exc}", file=sys.stderr)
        return 1
    finally:
        if checker is not None:
            checker.close()
    reproduced = stats_payload(controller)
    if reproduced != loaded.stats:
        print(
            "replay stats MISMATCH:\n"
            f"  recorded:   {loaded.stats}\n"
            f"  reproduced: {reproduced}",
            file=sys.stderr,
        )
        return 1
    if loaded.aggregates and trace.aggregates() != loaded.aggregates:
        print("replay trace-aggregate MISMATCH", file=sys.stderr)
        return 1
    if not args.quiet:
        suffix = ""
        if checker is not None:
            suffix = (
                f"; timing check ({args.check}): "
                f"{len(checker.violations)} violation(s) over "
                f"{checker.commands_checked} command(s)"
            )
        print(
            f"replayed {len(loaded.records)} record(s): stats reproduced "
            f"byte-identically{suffix}"
        )
    if checker is not None and checker.violations:
        for violation in checker.violations:
            print(f"violation: {violation.describe()}", file=sys.stderr)
        return 1
    return 0


def _record_to_event(record):
    from repro.dram import Command, CommandEvent

    return CommandEvent(
        time_ns=record.time_ns,
        command=None if record.command == "IDLE" else Command[record.command],
        actor=record.actor, bank=record.bank, subarray=record.subarray,
        row=record.row, count=record.count, hammer=record.hammer,
        dst_subarray=record.dst_subarray, dst_row=record.dst_row,
        auto=record.auto, duration_ns=record.duration_ns,
    )


def _cmd_lint(args) -> int:
    """``repro lint``: run the static analyzer; exit 1 on findings."""
    from repro.analysis.lint import (
        format_dead_suppressions,
        format_findings,
        format_rules,
        format_stats,
        run_lint,
        to_json_text,
    )

    if args.list_rules:
        print(format_rules())
        return 0
    report = run_lint(
        args.paths or None,
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else None,
    )
    if args.format == "json":
        print(to_json_text(report), end="")
    else:
        print(format_findings(report))
        if args.stats:
            print()
            print(format_stats(report))
        if args.check_suppressions and report.dead_suppressions:
            print()
            print(format_dead_suppressions(report))
    failed = bool(report.findings or report.parse_errors)
    if args.check_suppressions and report.dead_suppressions:
        failed = True
    return 1 if failed else 0


def _cmd_cache(args) -> int:
    caches = (("presets", PresetCache()), ("profiles", ProfileCache()))
    if args.action == "clear":
        for kind, cache in caches:
            removed = cache.clear()
            print(f"removed {removed} cached {kind[:-1]}(s) from {cache.root}")
        return 0
    for kind, cache in caches:
        entries = cache.entries()
        print(f"{kind} cache root: {cache.root}")
        if not entries:
            print("  (empty)")
            continue
        total = 0
        for path in entries:
            size = path.stat().st_size
            total += size
            print(f"  {path.name}  {size / 1024:.0f} KiB")
        print(f"  {len(entries)} entries, {total / 1024:.0f} KiB total")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    User-input errors (unknown scenario, bad argument values) print a
    one-line message and return 2 instead of dumping a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
