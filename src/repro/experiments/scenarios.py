"""Built-in scenarios: every paper figure/table plus sweep grids.

Each scenario is the single source of truth for one experiment — the
pytest benchmarks under ``benchmarks/`` and the ``python -m repro`` CLI
both execute these definitions through the runner, so reproduction
assertions (``check``) and report tables (``reporter``) live here once.

Scenario naming follows the paper: ``fig1a`` … ``fig9c``, ``table2``,
``table3``, ``power``, ``ablation``, ``semi-whitebox``; the
``sweep-*`` scenarios are new Monte-Carlo grids that go beyond the paper's
published points.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    TABLE2_SPECS,
    derived_capacity_mb,
    evaluate_defense_row,
    format_accuracy_curves,
    format_latency_sweep,
    format_secured_bits_curves,
    format_security_sweep,
    latency_per_tref_ms,
    latency_sweep,
    power_comparison,
    secured_bits_sweep,
    security_sweep,
    table2_rows,
    targeted_vs_random,
    time_to_break_days,
)
from repro.analysis.defense_eval import expand_bits_to_rows
from repro.analysis.report import to_json_list
from repro.attacks import (
    BfaConfig,
    LogicalDefenseExecutor,
    profile_vulnerable_bits,
    sample_random_bits,
    semi_white_box_attack,
    white_box_adaptive_attack,
)
from repro.core import (
    DefendedDeployment,
    DefenderConfig,
    DNNDefender,
    SwapEngine,
    build_timeline,
    chain_aap_count,
)
from repro.defenses import DefenseContext, build_defense
from repro.dram import (
    PAPER_GEOMETRY,
    REFRESH_COMMANDS_PER_TREF,
    TRH_BY_GENERATION,
    DramDevice,
    DramGeometry,
    MemoryController,
    RowAddress,
    TimingChecker,
    TimingParams,
)
from repro.experiments.registry import scenario
from repro.mapping import ProtectionPlan
from repro.nn import QuantizedModel, fit, make_resnet20
from repro.utils.tabulate import format_table

__all__ = ["functional_latency_ms"]


# ---------------------------------------------------------------------- #
# Fig. 1(a): RowHammer thresholds by DRAM generation
# ---------------------------------------------------------------------- #

@scenario(
    "fig1a",
    title="RowHammer thresholds by DRAM generation",
    source="Fig. 1(a)",
    deterministic=True,
    tags=("paper", "analytic"),
)
def fig1a(ctx):
    ratio = TRH_BY_GENERATION["DDR3 (new)"] / TRH_BY_GENERATION["LPDDR4 (new)"]
    metrics = {"ratio_ddr3_new_over_lpddr4_new": ratio}
    for generation, t_rh in TRH_BY_GENERATION.items():
        metrics[f"t_rh[{generation}]"] = float(t_rh)
    return {
        "metrics": metrics,
        "detail": {"thresholds": dict(TRH_BY_GENERATION)},
    }


@fig1a.check
def _fig1a_check(result):
    ratio = result.metric("ratio_ddr3_new_over_lpddr4_new")
    assert 4.0 < ratio < 5.0
    thresholds = result.detail["thresholds"]
    assert min(thresholds.values()) == thresholds["LPDDR4 (new)"]


@fig1a.reporter
def _fig1a_report(result):
    thresholds = result.detail["thresholds"]
    table = format_table(
        ["DRAM generation", "T_RH (hammer count)"],
        [[generation, f"{t_rh:,}"] for generation, t_rh in thresholds.items()],
        title="Fig. 1a — RowHammer threshold by generation",
    )
    ratio = result.metric("ratio_ddr3_new_over_lpddr4_new")
    return f"{table}\nDDR3(new) / LPDDR4(new) = {ratio:.2f}x (paper: ~4.5x)"


# ---------------------------------------------------------------------- #
# Fig. 6: the swap-pipeline timeline and its 3-AAP steady state
# ---------------------------------------------------------------------- #

@scenario(
    "fig6",
    title="Pipelined swap timeline; 3n+1 AAP steady state",
    source="Fig. 6",
    deterministic=True,
    tags=("paper", "dram"),
)
def fig6(ctx):
    timing = TimingParams()
    entries = build_timeline(3, timing, pipelined=True)
    timeline = [
        {
            "swap": e.swap, "step": e.step, "slot": e.slot,
            "start_ns": e.start_ns, "end_ns": e.end_ns,
            "shared_with_next": e.shared_with_next,
            "description": e.description,
        }
        for e in entries
    ]

    # Functional measurement: a chain of 8 swaps on the simulator,
    # optionally validated against the DDR timing rules
    # (``--param timing_check=strict|audit``; off by default so the
    # artifact bytes predate the checker).
    timing_check = str(ctx.param("timing_check", "off"))
    geometry = DramGeometry(
        banks=1, subarrays_per_bank=1, rows_per_subarray=64, row_bytes=64
    )
    controller = MemoryController(DramDevice(geometry), timing)
    controller.device.fill_random(np.random.default_rng(ctx.seed))
    checker = (
        TimingChecker(controller, mode=timing_check)
        if timing_check != "off" else None
    )
    engine = SwapEngine(controller, reserved_rows=2)
    rng = np.random.default_rng(ctx.seed + 1)
    targets = [RowAddress(0, 0, r) for r in range(2, 18, 2)]
    non_targets = [RowAddress(0, 0, r) for r in range(20, 36, 2)]
    for target, nt in zip(targets, non_targets):
        engine.swap_target(target, rng, non_target_logical=nt,
                           exclude=set(targets), pipelined=True)
    metrics = {
        "functional_aaps": float(engine.total_aaps),
        "analytic_aaps": float(chain_aap_count(len(targets), pipelined=True)),
        "unpipelined_aaps": float(
            chain_aap_count(len(targets), pipelined=False)
        ),
    }
    if checker is not None:
        checker.close()
        metrics["timing_violations"] = float(len(checker.violations))
    return {
        "metrics": metrics,
        "detail": {"timeline": timeline, "chain_swaps": len(targets)},
    }


@fig6.check
def _fig6_check(result):
    assert result.metric("functional_aaps") == result.metric("analytic_aaps")
    assert result.metric("functional_aaps") < result.metric("unpipelined_aaps")
    if "timing_violations" in result.metrics:
        assert result.metric("timing_violations") == 0.0


@fig6.reporter
def _fig6_report(result):
    rows = [
        [e["swap"], e["step"], e["slot"], f"{e['start_ns']:.0f}",
         f"{e['end_ns']:.0f}", "yes" if e["shared_with_next"] else "",
         e["description"]]
        for e in result.detail["timeline"]
    ]
    table = format_table(
        ["swap", "step", "slot", "start (ns)", "end (ns)", "shared", "op"],
        rows,
        title="Fig. 6 — pipelined timeline of 3 swaps",
    )
    table += (
        f"\nfunctional chain of {result.detail['chain_swaps']} swaps: "
        f"{result.metric('functional_aaps'):.0f} AAPs (analytic: "
        f"{result.metric('analytic_aaps'):.0f}; unpipelined would be "
        f"{result.metric('unpipelined_aaps'):.0f})"
    )
    return table


# ---------------------------------------------------------------------- #
# Fig. 8(a): time-to-break and defended-BFA capacity vs T_RH
# ---------------------------------------------------------------------- #

@scenario(
    "fig8a",
    title="Time-to-break and defended-BFA capacity vs T_RH",
    source="Fig. 8(a)",
    deterministic=True,
    tags=("paper", "analytic", "security"),
)
def fig8a(ctx):
    points = security_sweep()
    metrics = {}
    for p in points:
        metrics[f"ttb_days[{p.defense}@{p.t_rh}]"] = p.time_to_break_days
        metrics[f"max_bfas[{p.defense}@{p.t_rh}]"] = float(p.max_defended_bfas)
    return {"metrics": metrics, "detail": {"points": to_json_list(points)}}


@fig8a.check
def _fig8a_check(result):
    dd_4k = result.metric("ttb_days[dnn-defender@4000]")
    shadow_4k = result.metric("ttb_days[shadow@4000]")
    assert abs(dd_4k - 1180) < 15
    assert abs(shadow_4k - 894) < 10
    assert abs(dd_4k - shadow_4k - 286) < 10  # "DD protects 286 more days"
    for t_rh in (1000, 2000, 4000, 8000):
        assert (
            result.metric(f"ttb_days[dnn-defender@{t_rh}]")
            > result.metric(f"ttb_days[shadow@{t_rh}]")
        )
    for t_rh, anchor in ((1000, 7000), (2000, 14000), (4000, 28000),
                         (8000, 55000)):
        measured = result.metric(f"max_bfas[dnn-defender@{t_rh}]")
        assert abs(measured - anchor) / anchor < 0.02


@fig8a.reporter
def _fig8a_report(result):
    return format_security_sweep(result.detail["points"])


# ---------------------------------------------------------------------- #
# Fig. 8(b): defense latency per refresh interval vs number of BFAs
# ---------------------------------------------------------------------- #

def functional_latency_ms(n_targets: int, t_rh: int = 1000, seed: int = 0) -> float:
    """Measure the defender's busy time per T_ref on the live simulator."""
    geometry = DramGeometry(
        banks=4, subarrays_per_bank=8, rows_per_subarray=64, row_bytes=64
    )
    timing = TimingParams(t_rh=t_rh)
    controller = MemoryController(DramDevice(geometry), timing)
    controller.device.fill_random(np.random.default_rng(seed))
    targets, non_targets = [], []
    for bank in range(geometry.banks):
        for subarray in range(geometry.subarrays_per_bank):
            per_sub = n_targets // (geometry.banks * geometry.subarrays_per_bank)
            for row in range(2, 2 + per_sub):
                targets.append(RowAddress(bank, subarray, row))
            non_targets.append(RowAddress(bank, subarray, 40))
    plan = ProtectionPlan(
        secured_bits=set(), target_rows=targets, non_target_rows=non_targets
    )
    defender = DNNDefender(controller, plan)
    windows = int(
        timing.t_ref_ns / (timing.hammer_window_ns * defender.config.period_fraction)
    )
    windows = min(windows, 200)
    for _ in range(windows):
        defender.run_window()
        controller.advance_time(defender.period_ns)
    return defender.latency_per_tref_ms()


@scenario(
    "fig8b",
    title="Defense latency per refresh interval vs number of BFAs",
    source="Fig. 8(b)",
    deterministic=True,
    tags=("paper", "analytic", "dram"),
)
def fig8b(ctx):
    points = latency_sweep()
    metrics = {}
    for p in points:
        metrics[f"latency_ms[{p.defense}@{p.t_rh}x{p.n_bfas}]"] = p.latency_ms
    n_targets = int(ctx.param("n_targets", 64))
    metrics["functional_latency_ms"] = functional_latency_ms(
        n_targets=n_targets, seed=ctx.seed
    )
    return {
        "metrics": metrics,
        "detail": {
            "points": to_json_list(points),
            "functional_n_targets": n_targets,
        },
    }


@fig8b.check
def _fig8b_check(result):
    points = result.detail["points"]
    for p in points:
        if p["defense"] != "dnn-defender":
            continue
        shadow = result.metric(f"latency_ms[shadow@{p['t_rh']}x{p['n_bfas']}]")
        assert result.metric(
            f"latency_ms[dnn-defender@{p['t_rh']}x{p['n_bfas']}]"
        ) <= shadow + 1e-9
    for t_rh in (1000, 2000, 4000, 8000):
        series = [
            result.metric(f"latency_ms[dnn-defender@{t_rh}x{n}]")
            for n in (7000, 14000, 28000, 55000)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
        assert series[-1] <= 32.0 + 1e-6  # saturates below T_ref/2
    assert result.metric("functional_latency_ms") > 0.0


@fig8b.reporter
def _fig8b_report(result):
    table = format_latency_sweep(result.detail["points"])
    table += (
        f"\nfunctional defender latency "
        f"({result.detail['functional_n_targets']} target rows, T_RH=1k): "
        f"{result.metric('functional_latency_ms'):.3f} ms per T_ref"
    )
    return table


# ---------------------------------------------------------------------- #
# Fig. 1(b): targeted BFA vs random flips vs DNN-Defender
# ---------------------------------------------------------------------- #

@scenario(
    "fig1b",
    title="Targeted BFA vs random flips vs DNN-Defender (ResNet-34)",
    source="Fig. 1(b)",
    presets=("resnet34_imagenet",),
    tags=("paper", "attack"),
)
def fig1b(ctx):
    preset = ctx.preset("resnet34_imagenet")
    curves = targeted_vs_random(
        preset.factory,
        preset.state,
        preset.dataset,
        bfa_flips=int(ctx.param("bfa_flips", 12)),
        random_flips=int(ctx.param("random_flips", 100)),
        defended_flips=int(ctx.param("defended_flips", 12)),
        profile_rounds=int(ctx.param("profile_rounds", 8)),
        attack_batch=int(ctx.param("attack_batch", 96)),
        bfa_config=BfaConfig(max_iterations=12, exact_eval_top=4),
        seed=ctx.seed,
    )
    by_label = {c.label: c for c in curves}
    clean = by_label["bfa"].accuracies[0]

    def early_mean(label: str) -> float:
        window = by_label[label].accuracies[1:6]
        return float(np.mean(window)) if window else clean

    bfa_early = early_mean("bfa")
    defended_early = early_mean("dnn-defender")
    return {
        "metrics": {
            "clean_accuracy": clean,
            "preset_clean_accuracy": preset.clean_accuracy,
            "bfa_final_accuracy": by_label["bfa"].accuracies[-1],
            "random_final_accuracy": by_label["random"].accuracies[-1],
            "bfa_early_accuracy": bfa_early,
            "defended_early_accuracy": defended_early,
        },
        "detail": {"curves": to_json_list(curves)},
    }


@fig1b.check
def _fig1b_check(result):
    clean = result.metric("clean_accuracy")
    # Targeted attack devastates within a handful of flips.
    assert clean - result.metric("bfa_final_accuracy") > 0.30
    # >100 random flips barely move the model (paper: ~0.4% drop).
    assert clean - result.metric("random_final_accuracy") < 0.10
    # The defense pushes the targeted attack towards the random level.
    assert (
        result.metric("defended_early_accuracy")
        > result.metric("bfa_early_accuracy") + 0.08
    )


@fig1b.reporter
def _fig1b_report(result):
    text = format_accuracy_curves(result.detail["curves"])
    clean = result.metric("preset_clean_accuracy")
    return text + f"\nclean accuracy: {clean * 100:.2f}%"


# ---------------------------------------------------------------------- #
# Fig. 9: adaptive white-box BFA vs the secured-bit budget (3 panels)
# ---------------------------------------------------------------------- #

def _fig9_trial(ctx, preset_name: str) -> dict:
    preset = ctx.preset(preset_name)
    curves = secured_bits_sweep(
        preset.factory,
        preset.state,
        preset.dataset,
        round_budgets=(1, 2, 4),
        extra_flip_budget=int(ctx.param("extra_flip_budget", 12)),
        attack_batch=int(ctx.param("attack_batch", 96)),
        profile_config=BfaConfig(max_iterations=8, exact_eval_top=4),
        seed=ctx.seed,
    )
    early_index = min(2, len(curves[0].accuracies) - 1)
    metrics = {
        "preset_clean_accuracy": preset.clean_accuracy,
        "early_accuracy_smallest_budget": curves[0].accuracies[early_index],
        "early_accuracy_largest_budget": curves[-1].accuracies[early_index],
    }
    for curve in curves:
        metrics[f"secured_bits[r{curve.profile_rounds}]"] = float(
            curve.secured_bits
        )
        metrics[f"final_accuracy[r{curve.profile_rounds}]"] = (
            curve.final_accuracy
        )
    return {
        "metrics": metrics,
        "detail": {
            "curves": to_json_list(curves),
            "preset": preset.name,
        },
    }


def _fig9_check(result):
    budgets = [c["secured_bits"] for c in result.detail["curves"]]
    assert budgets == sorted(budgets)
    assert budgets[0] > 0
    # More secured bits slows early degradation (Fig. 9 separation).
    assert (
        result.metric("early_accuracy_largest_budget")
        >= result.metric("early_accuracy_smallest_budget") - 0.05
    )


def _fig9_report(result):
    text = format_secured_bits_curves(result.detail["curves"])
    text += f"\nmodel: {result.detail['preset']}, clean accuracy "
    text += f"{result.metric('preset_clean_accuracy') * 100:.2f}%"
    return text


def _register_fig9(panel: str, preset_name: str, victim: str):
    spec = scenario(
        f"fig9{panel}",
        title=f"Secured-bit budget sweep, panel ({panel}): {victim}",
        source=f"Fig. 9({panel})",
        presets=(preset_name,),
        tags=("paper", "attack", "sweep"),
    )(lambda ctx, _name=preset_name: _fig9_trial(ctx, _name))
    spec.check(_fig9_check)
    spec.reporter(_fig9_report)
    return spec


_register_fig9("a", "vgg11_cifar", "VGG-11 / CIFAR-10-like")
_register_fig9("b", "resnet18_imagenet", "ResNet-18 / ImageNet-like")
_register_fig9("c", "resnet34_imagenet", "ResNet-34 / ImageNet-like")


# ---------------------------------------------------------------------- #
# Table 2: hardware overhead of ten RowHammer mitigation frameworks
# ---------------------------------------------------------------------- #

@scenario(
    "table2",
    title="Hardware overhead of ten RowHammer mitigations",
    source="Table 2",
    deterministic=True,
    tags=("paper", "analytic"),
)
def table2(ctx):
    rows = table2_rows(PAPER_GEOMETRY)
    by_name = {s.name: s for s in TABLE2_SPECS}
    return {
        "metrics": {
            "dd_capacity_mb": by_name["DNN-Defender"].total_capacity_mb,
            "counter_per_row_derived_mb": derived_capacity_mb("Counter per Row"),
            "shadow_derived_mb": derived_capacity_mb("SHADOW"),
        },
        "detail": {
            "rows": [[str(cell) for cell in row] for row in rows],
            "geometry": PAPER_GEOMETRY.describe(),
        },
    }


@table2.check
def _table2_check(result):
    by_name = {s.name: s for s in TABLE2_SPECS}
    dd = by_name["DNN-Defender"]
    assert result.metric("dd_capacity_mb") == 0.0
    assert dd.dram_only
    for name, spec in by_name.items():
        if name == "DNN-Defender":
            continue
        assert spec.total_capacity_mb > 0 or spec.uses_fast_memory
    assert abs(result.metric("counter_per_row_derived_mb") - 32.0) < 0.5
    shadow = result.metric("shadow_derived_mb")
    assert abs(shadow - 0.16) / 0.16 < 0.05


@table2.reporter
def _table2_report(result):
    return format_table(
        ["framework", "involved memory", "capacity overhead", "area",
         "derived"],
        result.detail["rows"],
        title=f"Table 2 — overhead on {result.detail['geometry']}",
    )


# ---------------------------------------------------------------------- #
# Table 3: defense comparison on ResNet-20 / CIFAR-10-like
# ---------------------------------------------------------------------- #

def _finetune_binary(model, dataset, seed):
    """Two-epoch binarization-aware fine-tune, then bake the binary weights."""
    from repro.defenses.software import bake_binarization, enable_weight_binarization

    enable_weight_binarization(model)
    fit(model, dataset, epochs=2, batch_size=64, lr=0.01, weight_decay=0.0,
        seed=seed)
    bake_binarization(model)
    model.eval()


@scenario(
    "table3",
    title="Ten-defense comparison under BFA (ResNet-20)",
    source="Table 3",
    presets=("resnet20_cifar",),
    tags=("paper", "attack", "heavy"),
)
def table3(ctx):
    """Ten defenses against one seeded BFA each.

    The baseline, weight-reconstruction, RRS, SRS, SHADOW and
    DNN-Defender rows are built by the defense registry.  The
    training-time rows stay here: they fine-tune the preset's float
    weights (the registry's builders start from the quantized model) with
    their own recipes.
    """
    from repro.defenses.software import (
        SignActivation,
        finetune_with_clustering,
        width_scale_for_capacity,
    )

    preset = ctx.preset("resnet20_cifar")
    dataset = preset.dataset
    seed = ctx.seed
    attack_kw = dict(
        max_iterations=int(ctx.param("max_iterations", 30)),
        attack_batch=int(ctx.param("attack_batch", 96)),
        exact_eval_top=4,
        seed=seed,
    )
    defense_params = {
        "profile_rounds": 6,
        "profile_iterations": 10,
        "attack_batch": attack_kw["attack_batch"],
    }

    def registry_row(label: str, name: str):
        context = DefenseContext(
            qmodel=QuantizedModel(preset.fresh_model()), dataset=dataset,
            seed=seed, params=defense_params, trial=ctx,
            preset_name="resnet20_cifar",
        )
        with build_defense(name, context) as defense:
            return evaluate_defense_row(
                label, defense.qmodel, dataset, executor=defense.executor(),
                **attack_kw,
            )

    # 1. Undefended baseline.
    rows = [registry_row("baseline", "none")]

    # 2. Piece-wise clustering.
    model = preset.fresh_model()
    finetune_with_clustering(model, dataset, epochs=2, lam=5e-4, lr=0.01)
    rows.append(
        evaluate_defense_row(
            "piece-wise clustering", QuantizedModel(model), dataset,
            **attack_kw,
        )
    )

    # 3. Binary weights.
    model = preset.fresh_model()
    _finetune_binary(model, dataset, seed=seed)
    rows.append(
        evaluate_defense_row(
            "binary weight", QuantizedModel(model), dataset, **attack_kw
        )
    )

    # 4. Model capacity x4 (paper: x16; scaled to CI budget).
    wide_scale = width_scale_for_capacity(0.5, 4.0)
    wide = make_resnet20(num_classes=10, width_scale=wide_scale, seed=seed)
    fit(wide, dataset, epochs=4, batch_size=64, lr=0.08, seed=seed)
    rows.append(
        evaluate_defense_row(
            "model capacity x4", QuantizedModel(wide), dataset, **attack_kw
        )
    )

    # 5. Weight reconstruction.
    rows.append(registry_row("weight reconstruction", "reconstruction"))

    # 6. RA-BNN-like (binary weights + binary activations).
    rabnn = make_resnet20(
        num_classes=10, width_scale=0.5, seed=seed,
        activation_factory=SignActivation,
    )
    fit(rabnn, dataset, epochs=4, batch_size=64, lr=0.05, seed=seed)
    _finetune_binary(rabnn, dataset, seed=seed)
    rows.append(
        evaluate_defense_row(
            "RA-BNN (binary w+a)", QuantizedModel(rabnn), dataset, **attack_kw
        )
    )

    # 7-10. RRS / SRS / SHADOW behavioural models and DNN-Defender.
    for label in ("RRS", "SRS", "SHADOW", "DNN-Defender"):
        rows.append(registry_row(label, label.lower()))

    metrics = {}
    for row in rows:
        metrics[f"clean[{row.name}]"] = row.clean_accuracy
        metrics[f"post[{row.name}]"] = row.post_attack_accuracy
        metrics[f"flips[{row.name}]"] = float(row.bit_flips)
    return {
        "metrics": metrics,
        "detail": {
            "rows": [
                {
                    "name": r.name,
                    "clean_accuracy": r.clean_accuracy,
                    "post_attack_accuracy": r.post_attack_accuracy,
                    "bit_flips": r.bit_flips,
                }
                for r in rows
            ]
        },
    }


@table3.check
def _table3_check(result):
    names = [r["name"] for r in result.detail["rows"]]
    baseline_clean = result.metric("clean[baseline]")
    baseline_post = result.metric("post[baseline]")
    dd_clean = result.metric("clean[DNN-Defender]")
    dd_post = result.metric("post[DNN-Defender]")
    # Baseline collapses hard.
    assert baseline_post < baseline_clean - 0.4
    # DNN-Defender: no clean-accuracy drop, best post-attack accuracy.
    assert dd_post >= dd_clean - 0.05
    for name in names:
        assert dd_post >= result.metric(f"post[{name}]") - 0.02
    # Hardware swap defenses retain far more accuracy than the baseline.
    for name in ("RRS", "SRS", "SHADOW"):
        assert result.metric(f"post[{name}]") > baseline_post
    assert dd_post >= result.metric("post[SHADOW]")


@table3.reporter
def _table3_report(result):
    return format_table(
        ["defense", "clean acc (%)", "post-attack acc (%)", "flip attempts"],
        [
            [r["name"], f"{r['clean_accuracy'] * 100:.2f}",
             f"{r['post_attack_accuracy'] * 100:.2f}", r["bit_flips"]]
            for r in result.detail["rows"]
        ],
        title="Table 3 — defense comparison (ResNet-20, CIFAR-10-like)",
    )


# ---------------------------------------------------------------------- #
# Section 5.1 power claims
# ---------------------------------------------------------------------- #

@scenario(
    "power",
    title="Power: 1.6% saving vs SHADOW-1k, 3.4x vs SRS",
    source="Section 5.1",
    deterministic=True,
    tags=("paper", "analytic"),
)
def power(ctx):
    result = power_comparison()
    return {"metrics": dict(result), "detail": {}}


@power.check
def _power_check(result):
    assert abs(result.metric("saving_vs_shadow_1k_percent") - 1.6) < 0.3
    assert abs(result.metric("improvement_vs_srs") - 3.4) < 0.3


@power.reporter
def _power_report(result):
    return format_table(
        ["metric", "value", "paper"],
        [
            ["DD defense power (mW)",
             f"{result.metric('dd_power_mw'):.1f}", "-"],
            ["SHADOW defense power (mW)",
             f"{result.metric('shadow_power_mw'):.1f}", "-"],
            ["SRS defense power (mW)",
             f"{result.metric('srs_power_mw'):.1f}", "-"],
            ["total-power saving vs SHADOW@1k",
             f"{result.metric('saving_vs_shadow_1k_percent'):.2f}%", "1.6%"],
            ["defense-power improvement vs SRS",
             f"{result.metric('improvement_vs_srs'):.2f}x", "3.4x"],
        ],
        title="Section 5.1 — power comparison",
    )


# ---------------------------------------------------------------------- #
# Ablations: pipelining, priority protection
# ---------------------------------------------------------------------- #

@scenario(
    "ablation",
    title="Ablations: priority bits vs random; pipelined vs flat swaps",
    source="DESIGN.md §5",
    presets=("resnet20_cifar",),
    tags=("paper", "attack"),
)
def ablation(ctx):
    """Priority bits vs random bits at equal budget, and pipelining.

    The protection comparison replays a defense-unaware (semi-white-box)
    BFA through each secured set: the profiler's own bit choices block
    the planned flips, an equal number of random bits essentially never
    does.  (An adaptive attacker who *knows* the secured set just picks
    the next-best of ~half a million bits, so at this budget both
    variants degenerate to greedy-search noise — the defense-unaware
    replay is the setting where the priority ablation is measurable.)
    """
    preset = ctx.preset("resnet20_cifar")
    dataset = preset.dataset
    rng = np.random.default_rng(ctx.seed)
    x, y = dataset.attack_batch(96, rng)
    config = BfaConfig(max_iterations=10, exact_eval_top=4)

    # Priority protection vs random protection at equal budget.
    qmodel = QuantizedModel(preset.fresh_model())
    profile = profile_vulnerable_bits(qmodel, x, y, rounds=6, config=config)
    secured = profile.all_bits
    budget = len(secured)

    accuracies = {}
    blocked = {}
    for label, bits in (
        ("priority", secured),
        ("random", set(sample_random_bits(qmodel, budget,
                                          np.random.default_rng(ctx.seed + 3)))),
    ):
        victim = QuantizedModel(preset.fresh_model())
        outcome = semi_white_box_attack(
            victim, x, y,
            executor=LogicalDefenseExecutor(victim, bits),
            config=BfaConfig(max_iterations=6, exact_eval_top=4),
            eval_x=dataset.x_test, eval_y=dataset.y_test,
        )
        accuracies[label] = outcome.final_accuracy
        blocked[label] = float(outcome.blocked)

    # Pipelining: analytic latency below the saturation point.
    timing = TimingParams(t_rh=4000)
    latency_pipe = latency_per_tref_ms("dnn-defender", 7000, timing)
    latency_flat = latency_per_tref_ms("dnn-defender-unpipelined", 7000,
                                       timing)
    return {
        "metrics": {
            "secured_bit_budget": float(budget),
            "post_attack_accuracy_priority": accuracies["priority"],
            "post_attack_accuracy_random": accuracies["random"],
            "blocked_flips_priority": blocked["priority"],
            "blocked_flips_random": blocked["random"],
            "latency_pipelined_ms": latency_pipe,
            "latency_unpipelined_ms": latency_flat,
        },
        "detail": {},
    }


@ablation.check
def _ablation_check(result):
    # Priority protection strictly helps at equal budget: it blocks more
    # of the planned flips and retains more accuracy.
    assert (
        result.metric("blocked_flips_priority")
        > result.metric("blocked_flips_random")
    )
    assert (
        result.metric("post_attack_accuracy_priority")
        >= result.metric("post_attack_accuracy_random")
    )
    # Pipelining strictly reduces latency below the saturation point.
    assert (
        result.metric("latency_pipelined_ms")
        < result.metric("latency_unpipelined_ms")
    )


@ablation.reporter
def _ablation_report(result):
    return format_table(
        ["ablation", "value"],
        [
            ["secured-bit budget",
             f"{result.metric('secured_bit_budget'):.0f}"],
            ["post-attack acc, priority bits (%)",
             f"{result.metric('post_attack_accuracy_priority') * 100:.2f}"],
            ["post-attack acc, random bits (%)",
             f"{result.metric('post_attack_accuracy_random') * 100:.2f}"],
            ["blocked flips, priority bits",
             f"{result.metric('blocked_flips_priority'):.0f}"],
            ["blocked flips, random bits",
             f"{result.metric('blocked_flips_random'):.0f}"],
            ["latency/T_ref pipelined (ms)",
             f"{result.metric('latency_pipelined_ms'):.2f}"],
            ["latency/T_ref unpipelined (ms)",
             f"{result.metric('latency_unpipelined_ms'):.2f}"],
        ],
        title="Ablations — priority protection and swap pipelining",
    )


# ---------------------------------------------------------------------- #
# Section 5.2: semi-white-box BFA through the full DRAM path
# ---------------------------------------------------------------------- #

@scenario(
    "semi-whitebox",
    title="Semi-white-box BFA fails end-to-end through defended DRAM",
    source="Section 5.2",
    presets=("resnet20_cifar",),
    tags=("paper", "attack", "dram"),
)
def semi_whitebox(ctx):
    preset = ctx.preset("resnet20_cifar")
    deployment = DefendedDeployment.from_preset(
        preset,
        geometry=DramGeometry(
            banks=2, subarrays_per_bank=8, rows_per_subarray=64,
            row_bytes=256,
        ),
        timing=TimingParams(t_rh=1000),
        defense_params={"profile_rounds": 2},
        seed=ctx.seed,
        trial=ctx,
        preset_name="resnet20_cifar",
    )
    rng = np.random.default_rng(ctx.seed + 1)
    x, y = preset.dataset.attack_batch(96, rng)
    result = semi_white_box_attack(
        deployment.qmodel, x, y,
        executor=deployment.hammer_executor(),
        config=BfaConfig(max_iterations=8, exact_eval_top=4),
        eval_x=preset.dataset.x_test, eval_y=preset.dataset.y_test,
    )
    return {
        "metrics": {
            "planned_flips": float(result.attempts),
            "landed_flips": float(result.num_flips),
            "blocked_flips": float(result.blocked),
            "initial_accuracy": result.initial_accuracy,
            "final_accuracy": result.final_accuracy,
            "accuracy_drop": result.accuracy_drop,
            "defender_swaps": float(
                deployment.defense.defender.stats.swaps_executed
            ),
        },
        "detail": {},
    }


@semi_whitebox.check
def _semi_whitebox_check(result):
    assert result.metric("planned_flips") > 0
    assert (
        result.metric("blocked_flips")
        >= result.metric("planned_flips") // 2
    )
    assert result.metric("accuracy_drop") < 0.10
    assert result.metric("defender_swaps") > 0


@semi_whitebox.reporter
def _semi_whitebox_report(result):
    return format_table(
        ["metric", "value"],
        [
            ["planned flips", f"{result.metric('planned_flips'):.0f}"],
            ["landed", f"{result.metric('landed_flips'):.0f}"],
            ["blocked by defense", f"{result.metric('blocked_flips'):.0f}"],
            ["initial accuracy (%)",
             f"{result.metric('initial_accuracy') * 100:.2f}"],
            ["final accuracy (%)",
             f"{result.metric('final_accuracy') * 100:.2f}"],
            ["defender swaps executed",
             f"{result.metric('defender_swaps'):.0f}"],
        ],
        title="Section 5.2 — semi-white-box BFA vs DNN-Defender (DRAM path)",
    )


# ---------------------------------------------------------------------- #
# Sweep: hammer-rate grid on the live simulator
# ---------------------------------------------------------------------- #

def _int_grid(value, default: tuple[int, ...]) -> tuple[int, ...]:
    """Coerce a grid parameter (tuple, scalar, or "a,b,c" CLI string)."""
    if value is None:
        return default
    if isinstance(value, str):
        return tuple(int(v) for v in value.split(","))
    if isinstance(value, (int, float)):
        return (int(value),)  # --param grid=4000 coerces to a scalar
    return tuple(int(v) for v in value)


def _float_grid(value, default: tuple[float, ...]) -> tuple[float, ...]:
    """``_int_grid`` for float-valued axes (refresh intervals, budgets)."""
    if value is None:
        return default
    if isinstance(value, str):
        return tuple(float(v) for v in value.split(","))
    if isinstance(value, (int, float)):
        return (float(value),)
    return tuple(float(v) for v in value)


@scenario(
    "sweep-hammer-rate",
    title="Hammer-rate (T_RH) grid: functional vs analytic defender cost",
    source="extension of Fig. 8",
    deterministic=True,
    tags=("sweep", "dram", "analytic"),
)
def sweep_hammer_rate(ctx):
    grid = _int_grid(ctx.param("t_rh_grid"), (1000, 2000, 4000, 8000))
    n_targets = int(ctx.param("n_targets", 64))
    metrics = {}
    for t_rh in grid:
        timing = TimingParams(t_rh=t_rh)
        metrics[f"functional_ms[{t_rh}]"] = functional_latency_ms(
            n_targets=n_targets, t_rh=t_rh, seed=ctx.seed
        )
        metrics[f"analytic_ms[{t_rh}]"] = latency_per_tref_ms(
            "dnn-defender", n_targets, timing
        )
        metrics[f"ttb_days[{t_rh}]"] = time_to_break_days(
            "dnn-defender", timing
        )
    return {
        "metrics": metrics,
        "detail": {"t_rh_grid": list(grid), "n_targets": n_targets},
    }


@sweep_hammer_rate.check
def _sweep_hammer_rate_check(result):
    grid = result.detail["t_rh_grid"]
    for t_rh in grid:
        assert result.metric(f"functional_ms[{t_rh}]") > 0.0
    # Time-to-break is linear in T_RH: strictly increasing along the grid.
    days = [result.metric(f"ttb_days[{t_rh}]") for t_rh in grid]
    assert all(b > a for a, b in zip(days, days[1:]))


@sweep_hammer_rate.reporter
def _sweep_hammer_rate_report(result):
    rows = [
        [
            t_rh,
            f"{result.metric(f'functional_ms[{t_rh}]'):.3f}",
            f"{result.metric(f'analytic_ms[{t_rh}]'):.3f}",
            f"{result.metric(f'ttb_days[{t_rh}]'):.0f}",
        ]
        for t_rh in result.detail["t_rh_grid"]
    ]
    return format_table(
        ["T_RH", "functional (ms)", "analytic (ms)", "time-to-break (days)"],
        rows,
        title=(
            f"Hammer-rate grid — {result.detail['n_targets']} target rows, "
            "functional defender vs analytic model"
        ),
    )


# ---------------------------------------------------------------------- #
# Sweep: refresh interval x T_RH x defense budget, under timing audit
# ---------------------------------------------------------------------- #

@scenario(
    "sweep-refresh-trh",
    title="Refresh interval x T_RH x defense-budget grid under timing audit",
    source="extension of Fig. 8 / Section 5.1",
    deterministic=True,
    tags=("sweep", "dram"),
    default_trials=2,
)
def sweep_refresh_trh(ctx):
    """Defender cost across the refresh/threshold/budget trade-off.

    Shrinking ``T_ref`` hardens against RowHammer (fewer activations fit
    before the victim is refreshed) but raises the refresh bus overhead
    ``tRFC / tREFI``; shrinking the defender's ``period_fraction`` spends
    less of each hammer window on swaps at the cost of per-window
    coverage.  Every grid cell runs the functional defender loop on the
    live simulator with a :class:`TimingChecker` in audit mode attached —
    the sweep doubles as a timing-legality audit of the whole defended
    command stream, and the check asserts zero violations.
    """
    t_ref_grid = _float_grid(ctx.param("t_ref_grid"), (32.0, 64.0))
    t_rh_grid = _int_grid(ctx.param("t_rh_grid"), (1000, 4000))
    budget_grid = _float_grid(ctx.param("budget_grid"), (0.5, 1.0))
    n_targets = int(ctx.param("n_targets", 32))
    geometry = DramGeometry(
        banks=4, subarrays_per_bank=8, rows_per_subarray=64, row_bytes=64
    )
    metrics = {}
    total_violations = 0
    commands_checked = 0
    for t_ref in t_ref_grid:
        timing_ref = TimingParams(
            t_ref_ms=t_ref,
            t_refi_ns=t_ref * 1e6 / REFRESH_COMMANDS_PER_TREF,
        )
        metrics[f"refresh_overhead[{t_ref:g}]"] = (
            timing_ref.refresh_overhead_fraction
        )
        for t_rh in t_rh_grid:
            for budget in budget_grid:
                timing = TimingParams(
                    t_ref_ms=t_ref,
                    t_refi_ns=t_ref * 1e6 / REFRESH_COMMANDS_PER_TREF,
                    t_rh=t_rh,
                )
                controller = MemoryController(DramDevice(geometry), timing)
                controller.device.fill_random(
                    np.random.default_rng(ctx.seed)
                )
                targets, non_targets = [], []
                per_sub = n_targets // (
                    geometry.banks * geometry.subarrays_per_bank
                )
                for bank in range(geometry.banks):
                    for subarray in range(geometry.subarrays_per_bank):
                        for row in range(2, 2 + per_sub):
                            targets.append(RowAddress(bank, subarray, row))
                        non_targets.append(RowAddress(bank, subarray, 40))
                plan = ProtectionPlan(
                    secured_bits=set(), target_rows=targets,
                    non_target_rows=non_targets,
                )
                defender = DNNDefender(
                    controller, plan,
                    config=DefenderConfig(period_fraction=budget),
                )
                with TimingChecker(controller, mode="audit") as checker:
                    windows = int(
                        timing.t_ref_ns
                        / (timing.hammer_window_ns * budget)
                    )
                    windows = min(windows, 30)
                    for _ in range(windows):
                        defender.run_window()
                        controller.advance_time(defender.period_ns)
                total_violations += len(checker.violations)
                commands_checked += checker.commands_checked
                key = f"{t_ref:g}x{t_rh}x{budget:g}"
                metrics[f"latency_ms[{key}]"] = (
                    defender.latency_per_tref_ms()
                )
                metrics[f"swaps[{key}]"] = float(
                    defender.stats.swaps_executed
                )
    metrics["timing_violations"] = float(total_violations)
    metrics["commands_checked"] = float(commands_checked)
    return {
        "metrics": metrics,
        "detail": {
            "t_ref_grid": list(t_ref_grid),
            "t_rh_grid": list(t_rh_grid),
            "budget_grid": list(budget_grid),
            "n_targets": n_targets,
        },
    }


@sweep_refresh_trh.check
def _sweep_refresh_trh_check(result):
    # The defended command stream is timing-legal at every grid point.
    assert result.metric("timing_violations") == 0.0
    assert result.metric("commands_checked") > 0.0
    detail = result.detail
    for t_ref in detail["t_ref_grid"]:
        for t_rh in detail["t_rh_grid"]:
            for budget in detail["budget_grid"]:
                key = f"{t_ref:g}x{t_rh}x{budget:g}"
                assert result.metric(f"swaps[{key}]") > 0.0
                assert result.metric(f"latency_ms[{key}]") > 0.0
    # Shrinking the refresh interval raises the refresh bus overhead.
    overheads = [
        result.metric(f"refresh_overhead[{t_ref:g}]")
        for t_ref in detail["t_ref_grid"]
    ]
    assert all(a >= b for a, b in zip(overheads, overheads[1:]))


@sweep_refresh_trh.reporter
def _sweep_refresh_trh_report(result):
    detail = result.detail
    rows = []
    for t_ref in detail["t_ref_grid"]:
        for t_rh in detail["t_rh_grid"]:
            for budget in detail["budget_grid"]:
                key = f"{t_ref:g}x{t_rh}x{budget:g}"
                rows.append(
                    [
                        f"{t_ref:g}",
                        t_rh,
                        f"{budget:g}",
                        f"{result.metric(f'latency_ms[{key}]'):.3f}",
                        f"{result.metric(f'swaps[{key}]'):.0f}",
                        f"{result.metric(f'refresh_overhead[{t_ref:g}]') * 100:.2f}",
                    ]
                )
    table = format_table(
        ["T_ref (ms)", "T_RH", "budget", "latency (ms)", "swaps",
         "refresh ovh (%)"],
        rows,
        title=(
            f"Refresh x T_RH x budget grid — {detail['n_targets']} target "
            "rows, audit-mode timing checker"
        ),
    )
    table += (
        f"\ntiming audit: {result.metric('timing_violations'):.0f} "
        f"violation(s) over {result.metric('commands_checked'):.0f} "
        "checked command(s)"
    )
    return table


# ---------------------------------------------------------------------- #
# Sweep: model x attack-budget x T_RH through the full DRAM path
# ---------------------------------------------------------------------- #

def _sweep_attack_trh_cost(trial_index: int, params: dict) -> float:
    """Relative trial cost: one deployment + attack per (T_RH, budget) point.

    A sharded-scheduler hint (see ``Scenario.trial_cost``): cost scales
    with the grid size and the summed flip budgets, so grid-enlarged
    runs (``--param t_rh_grid=...``) lease their trials ahead of
    default-grid trials in mixed-resume pools.  Trials are otherwise
    iid, so the index only tie-breaks.
    """
    t_rh_grid = _int_grid(params.get("t_rh_grid"), (1000, 4000))
    budget_grid = _int_grid(params.get("budget_grid"), (4, 8))
    return float(len(t_rh_grid) * sum(budget_grid))


@scenario(
    "sweep-attack-trh",
    title="Model x attack-budget x T_RH grid through the defended DRAM path",
    source="extension of Figs. 7-8",
    presets=("resnet20_cifar",),
    tags=("sweep", "attack", "dram"),
    default_trials=2,
    trial_cost=_sweep_attack_trh_cost,
)
def sweep_attack_trh(ctx):
    """End-to-end accuracy-under-attack grid.

    For every (T_RH, flip budget) grid point a fresh defended deployment
    is built (attacks mutate their victim) and a semi-white-box BFA is
    replayed through the simulated DRAM path — the sweep-scale version
    of the paper's headline claim that protection holds across RowHammer
    thresholds and attack budgets.  ``--param model=...`` swaps the
    victim architecture, extending the grid along the model axis.
    """
    model = str(ctx.param("model", "resnet20_cifar"))
    preset = ctx.preset(model)
    t_rh_grid = _int_grid(ctx.param("t_rh_grid"), (1000, 4000))
    budget_grid = _int_grid(ctx.param("budget_grid"), (4, 8))
    attack_batch = int(ctx.param("attack_batch", 96))
    rng = np.random.default_rng(ctx.seed + 1)
    x, y = preset.dataset.attack_batch(attack_batch, rng)
    metrics = {}
    for t_rh in t_rh_grid:
        for budget in budget_grid:
            deployment = DefendedDeployment.from_preset(
                preset,
                geometry=DramGeometry(
                    banks=2, subarrays_per_bank=8, rows_per_subarray=64,
                    row_bytes=256,
                ),
                timing=TimingParams(t_rh=t_rh),
                defense_params={
                    "profile_rounds": int(ctx.param("profile_rounds", 2)),
                    "attack_batch": attack_batch,
                },
                seed=ctx.seed,
                trial=ctx,
                preset_name=model,
            )
            outcome = semi_white_box_attack(
                deployment.qmodel, x, y,
                executor=deployment.hammer_executor(),
                config=BfaConfig(max_iterations=budget, exact_eval_top=4),
                eval_x=preset.dataset.x_test, eval_y=preset.dataset.y_test,
            )
            key = f"{t_rh}x{budget}"
            planned = max(1, outcome.attempts)
            metrics[f"final_acc[{key}]"] = outcome.final_accuracy
            metrics[f"acc_drop[{key}]"] = outcome.accuracy_drop
            metrics[f"blocked_frac[{key}]"] = outcome.blocked / planned
    return {
        "metrics": metrics,
        "detail": {
            "model": model,
            "t_rh_grid": list(t_rh_grid),
            "budget_grid": list(budget_grid),
        },
    }


@sweep_attack_trh.check
def _sweep_attack_trh_check(result):
    # The defense holds the line at every grid point: most planned flips
    # are blocked and accuracy never collapses.
    for t_rh in result.detail["t_rh_grid"]:
        for budget in result.detail["budget_grid"]:
            key = f"{t_rh}x{budget}"
            assert result.metric(f"blocked_frac[{key}]") >= 0.5
            assert result.metric(f"acc_drop[{key}]") < 0.20


@sweep_attack_trh.reporter
def _sweep_attack_trh_report(result):
    rows = []
    for t_rh in result.detail["t_rh_grid"]:
        for budget in result.detail["budget_grid"]:
            key = f"{t_rh}x{budget}"
            rows.append(
                [
                    t_rh,
                    budget,
                    f"{result.metric(f'final_acc[{key}]') * 100:.2f}",
                    f"{result.metric(f'acc_drop[{key}]') * 100:.2f}",
                    f"{result.metric(f'blocked_frac[{key}]') * 100:.0f}",
                ]
            )
    return format_table(
        ["T_RH", "flip budget", "final acc (%)", "acc drop (%)",
         "blocked (%)"],
        rows,
        title=(
            f"Attack x T_RH grid — {result.detail['model']}, "
            f"{result.trials} trial(s)"
        ),
    )


# ---------------------------------------------------------------------- #
# Sweep: protected-rows budget x attack budget (the Fig. 6-7 axis)
# ---------------------------------------------------------------------- #

def _priority_rows(profile, weights_per_row: int = 256) -> list[list]:
    """Distinct DRAM row groups of a profile, in priority order.

    Rows appear in the order profiling discovered them (round by round,
    most damaging first) — the order DNN-Defender would claim protection
    slots.  Each entry is the list of profiled bits living in that row.
    """
    rows: dict[tuple[int, int], list] = {}
    for round_bits in profile.rounds:
        for bit in round_bits:
            key = (bit.layer, bit.index // weights_per_row)
            rows.setdefault(key, []).append(bit)
    return list(rows.values())


def _sweep_protected_rows_cost(trial_index: int, params: dict) -> float:
    """Relative trial cost: a profile plus one attack per grid point.

    The ``profile_rounds``-deep profiling dominates, then each
    (rows, budget) point pays one white-box adaptive attack — so the
    hint is rounds-weighted grid size.  Another sharded-scheduler lease
    ordering hint; results never depend on it.
    """
    rows_grid = _int_grid(params.get("rows_grid"), (0, 2, 4, 8))
    budget_grid = _int_grid(params.get("budget_grid"), (6,))
    rounds = int(params.get("profile_rounds", 6))
    return float(rounds + len(rows_grid) * sum(budget_grid))


@scenario(
    "sweep-protected-rows",
    title="Protected-rows x attack-budget grid: accuracy vs protection",
    source="extension of Figs. 6-7",
    presets=("resnet20_cifar",),
    tags=("sweep", "attack"),
    default_trials=2,
    trial_cost=_sweep_protected_rows_cost,
)
def sweep_protected_rows(ctx):
    """Accuracy under attack as the protected-row budget grows.

    One profile (rounds x BFA search) ranks DRAM rows by priority; the
    grid then secures the top-k rows for each k and attacks the model
    with each flip budget — reproducing, beyond the paper's published
    points, the accuracy-vs-#protected-rows axis of Figs. 6-7.
    """
    model = str(ctx.param("model", "resnet20_cifar"))
    preset = ctx.preset(model)
    dataset = preset.dataset
    rows_grid = _int_grid(ctx.param("rows_grid"), (0, 2, 4, 8))
    budget_grid = _int_grid(ctx.param("budget_grid"), (6,))
    attack_batch = int(ctx.param("attack_batch", 96))
    rng = np.random.default_rng(ctx.seed)
    x, y = dataset.attack_batch(attack_batch, rng)
    qmodel = QuantizedModel(preset.fresh_model())
    profile = ctx.profile(
        model, qmodel, x, y,
        rounds=int(ctx.param("profile_rounds", 6)),
        config=BfaConfig(max_iterations=8, exact_eval_top=4),
        extra_key={
            "attack_batch": attack_batch,
            "seed": ctx.seed,
            "purpose": "sweep-protected-rows",
        },
    )
    priority_rows = _priority_rows(profile)
    metrics = {"profiled_rows": float(len(priority_rows))}
    for k in rows_grid:
        chosen = [b for row in priority_rows[:k] for b in row]
        secured = (
            expand_bits_to_rows(qmodel, set(chosen)) if chosen else set()
        )
        metrics[f"secured_bits[r{k}]"] = float(len(secured))
        for budget in budget_grid:
            victim = QuantizedModel(preset.fresh_model())
            executor = LogicalDefenseExecutor(victim, secured)
            outcome = white_box_adaptive_attack(
                victim, x, y, executor, secured,
                config=BfaConfig(max_iterations=budget, exact_eval_top=4),
                eval_x=dataset.x_test, eval_y=dataset.y_test,
            )
            metrics[f"post_acc[r{k}xb{budget}]"] = outcome.final_accuracy
    return {
        "metrics": metrics,
        "detail": {
            "model": model,
            "rows_grid": list(rows_grid),
            "budget_grid": list(budget_grid),
        },
    }


@sweep_protected_rows.check
def _sweep_protected_rows_check(result):
    rows_grid = result.detail["rows_grid"]
    budgets = result.detail["budget_grid"]
    # The secured-bit count grows monotonically with the row budget...
    secured = [result.metric(f"secured_bits[r{k}]") for k in rows_grid]
    assert all(b >= a for a, b in zip(secured, secured[1:]))
    # ...and at the largest attack budget the most-protected point holds
    # at least as much accuracy as the least-protected one (same 5-point
    # Monte-Carlo slack as the Fig. 9 separation check).
    budget = budgets[-1]
    assert (
        result.metric(f"post_acc[r{rows_grid[-1]}xb{budget}]")
        >= result.metric(f"post_acc[r{rows_grid[0]}xb{budget}]") - 0.05
    )


@sweep_protected_rows.reporter
def _sweep_protected_rows_report(result):
    rows = []
    for k in result.detail["rows_grid"]:
        for budget in result.detail["budget_grid"]:
            rows.append(
                [
                    k,
                    f"{result.metric(f'secured_bits[r{k}]'):.0f}",
                    budget,
                    f"{result.metric(f'post_acc[r{k}xb{budget}]') * 100:.2f}",
                ]
            )
    return format_table(
        ["protected rows", "secured bits", "flip budget",
         "post-attack acc (%)"],
        rows,
        title=(
            f"Protected-rows grid — {result.detail['model']}, "
            f"{result.trials} trial(s), "
            f"{result.metric('profiled_rows'):.0f} profiled rows"
        ),
    )
