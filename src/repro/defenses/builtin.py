"""Built-in ``@defense`` registrations.

Importing this module populates the defense registry with the ported
baselines (none / DNN-Defender / RRS / SRS / SHADOW / P-PIM), the
software defenses of Table 3 (reconstruction, binarize, clustering,
capacity), and RADAR.  Builders receive a
:class:`repro.defenses.protocol.DefenseContext`:

* with a DRAM ``layout`` (and so a live ``controller``) DNN-Defender
  runs its hooked swap defender and the swap/counter baselines attach
  their controller-hooked hardware model (detached again by ``close()``);
* without one DNN-Defender is its logical secured-bit set and the
  baselines fall back to the behavioural block/deflect model of
  :data:`BEHAVIORAL_PARAMS`, which is the tournament's logical attack
  path.
"""

from __future__ import annotations

from repro.defenses.protocol import (
    BehavioralDefense,
    Defense,
    DefenseContext,
    HookedDefenseAdapter,
    ModelTransformDefense,
    ReconstructionDefense,
    SecuredBitsDefense,
    SwapDefense,
)
from repro.defenses.radar import RadarDefense
from repro.defenses.registry import defense

__all__ = []  # registration side effects only

# (block_prob, collateral_prob) of the behavioural model on the logical
# attack path (:class:`repro.attacks.executor.BehavioralDefenseExecutor`):
# an intended flip is blocked with ``block_prob`` (the defense relocated
# the aggressor or victim in time), and a blocked hammer session still
# flips a random bit with ``collateral_prob`` (the activations land next
# to relocated, unrelated data).  P-PIM's per-row counters refresh the
# victim before T_RH: a high block rate and no deflection.  Changing a
# value changes the bytes of every artifact with a behavioural row
# (``table3``, the tournament, perfbench's digests).
BEHAVIORAL_PARAMS: dict[str, tuple[float, float]] = {
    "RRS": (0.92, 0.6),
    "SRS": (0.92, 0.55),
    "SHADOW": (0.97, 0.3),
    "P-PIM": (0.95, 0.0),
}


def _require_dataset(context: DefenseContext, name: str):
    if context.dataset is None:
        raise ValueError(f"defense {name!r} requires a dataset to build")
    return context.dataset


def _behavioral(context: DefenseContext, name: str, hardware_factory) -> Defense:
    """Hardware hook model when a controller is present, else behavioural."""
    if context.controller is not None:
        return HookedDefenseAdapter(
            context.qmodel, hardware_factory(context)
        )
    block, collateral = BEHAVIORAL_PARAMS[name]
    return BehavioralDefense(
        context.qmodel, name.lower(), block_prob=block,
        collateral_prob=collateral, rng=context.rng(stream=7),
    )


@defense("none", title="undefended baseline (every flip lands)",
         kind="software", cost=1.0)
def _build_none(context: DefenseContext) -> Defense:
    return ModelTransformDefense(context.qmodel, "none")


@defense("dnn-defender",
         title="DNN-Defender: profiled rows secured by in-DRAM swaps",
         kind="hardware", cost=4.0)
def _build_dnn_defender(context: DefenseContext) -> Defense:
    """Profile vulnerable bits and secure their DRAM rows.

    The multi-round BFA profile picks the high-damage bits.  On a DRAM
    layout the profiled bits' rows become the hooked
    :class:`~repro.core.defender.DNNDefender`'s swap targets, refreshed
    on every hammer-driver tick.  Without one (the logical path) row
    expansion secures everything sharing their rows, and flips on
    secured bits are blocked.  The profile goes through the on-disk
    cache when the trial context and preset name are supplied.
    """
    from repro.analysis.defense_eval import expand_bits_to_rows
    from repro.attacks.bfa import BfaConfig
    from repro.attacks.profile import profile_vulnerable_bits
    from repro.core.defender import DNNDefender
    from repro.mapping.victim import build_protection_plan

    dataset = _require_dataset(context, "dnn-defender")
    rounds = int(context.param("profile_rounds", 4))
    attack_batch = int(context.param("attack_batch", 96))
    config = BfaConfig(
        max_iterations=int(context.param("profile_iterations", 8)),
        exact_eval_top=4,
    )
    x, y = dataset.attack_batch(attack_batch, context.rng())
    if context.trial is not None and context.preset_name is not None:
        profile = context.trial.profile(
            context.preset_name, context.qmodel, x, y,
            rounds=rounds, config=config,
            extra_key={
                "attack_batch": attack_batch,
                "seed": context.seed,
                "purpose": "defense-registry",
            },
        )
    else:
        profile = profile_vulnerable_bits(
            context.qmodel, x, y, rounds=rounds, config=config
        )
    layout = context.layout
    if layout is None:
        secured = expand_bits_to_rows(context.qmodel, profile.all_bits)
        return SecuredBitsDefense(context.qmodel, secured)
    plan = build_protection_plan(layout, profile.all_bits)
    return SwapDefense(
        context.qmodel,
        DNNDefender(
            layout.controller, plan, reserved_rows=layout.reserved_rows
        ),
    )


@defense("rrs", title="Randomized Row-Swap (aggressor-focused)",
         kind="behavioral", cost=1.2)
def _build_rrs(context: DefenseContext) -> Defense:
    from repro.defenses.rrs import RandomizedRowSwap

    return _behavioral(
        context, "RRS",
        lambda c: RandomizedRowSwap(c.controller, seed=c.seed),
    )


@defense("srs", title="Scalable and Secure Row-Swap (sparser triggers)",
         kind="behavioral", cost=1.2)
def _build_srs(context: DefenseContext) -> Defense:
    from repro.defenses.srs import SecureRowSwap

    return _behavioral(
        context, "SRS",
        lambda c: SecureRowSwap(c.controller, seed=c.seed),
    )


@defense("shadow", title="SHADOW: victim shuffling to spare rows",
         kind="behavioral", cost=1.2)
def _build_shadow(context: DefenseContext) -> Defense:
    from repro.defenses.shadow import Shadow

    return _behavioral(
        context, "SHADOW",
        lambda c: Shadow(c.controller, seed=c.seed),
    )


@defense("p-pim", title="P-PIM: in-DRAM counters, early victim refresh",
         kind="behavioral", cost=1.2)
def _build_ppim(context: DefenseContext) -> Defense:
    from repro.defenses.ppim import make_ppim

    return _behavioral(context, "P-PIM", lambda c: make_ppim(c.controller))


@defense("radar",
         title="RADAR: MSB group checksums, periodic sweep, zero-out recovery",
         kind="detection", cost=1.5)
def _build_radar(context: DefenseContext) -> Defense:
    return RadarDefense(
        context.qmodel,
        group_size=int(context.param("radar_group_size", 32)),
        check_interval=int(context.param("radar_check_interval", 4)),
        timing=context.effective_timing(),
        controller=context.controller,
    )


@defense("reconstruction",
         title="weight reconstruction: percentile clamp after each flip",
         kind="software", cost=1.3)
def _build_reconstruction(context: DefenseContext) -> Defense:
    return ReconstructionDefense(
        context.qmodel,
        percentile=float(context.param("reconstruction_percentile", 99.0)),
    )


@defense("binarize",
         title="binary weights (STE fine-tune), flips bounded by alpha",
         kind="software", cost=12.0, tournament=False)
def _build_binarize(context: DefenseContext) -> Defense:
    from repro.defenses.software.binarize import (
        bake_binarization,
        enable_weight_binarization,
    )
    from repro.nn import fit
    from repro.nn.quant import QuantizedModel

    dataset = _require_dataset(context, "binarize")
    model = context.qmodel.model
    count = enable_weight_binarization(model)
    fit(
        model, dataset,
        epochs=int(context.param("binarize_epochs", 2)),
        batch_size=64, lr=0.01, seed=context.seed,
    )
    bake_binarization(model)
    model.eval()
    return ModelTransformDefense(
        QuantizedModel(model), "binarize",
        transform_notes={"binarized_tensors": count},
    )


@defense("clustering",
         title="weight clustering fine-tune (penalty towards +-mean|W|)",
         kind="software", cost=10.0, tournament=False)
def _build_clustering(context: DefenseContext) -> Defense:
    from repro.defenses.software.clustering import finetune_with_clustering
    from repro.nn.quant import QuantizedModel

    dataset = _require_dataset(context, "clustering")
    model = context.qmodel.model
    epochs = int(context.param("clustering_epochs", 1))
    finetune_with_clustering(
        model, dataset, epochs=epochs,
        lam=float(context.param("clustering_lambda", 5e-3)),
        lr=float(context.param("clustering_lr", 0.01)),
        seed=context.seed,
    )
    model.eval()
    return ModelTransformDefense(
        QuantizedModel(model), "clustering",
        transform_notes={"finetune_epochs": epochs},
    )


@defense("capacity",
         title="model capacity scaling (wider net, trained from scratch)",
         kind="software", cost=20.0, tournament=False)
def _build_capacity(context: DefenseContext) -> Defense:
    from repro.defenses.software.capacity import width_scale_for_capacity
    from repro.nn import fit, make_resnet20
    from repro.nn.quant import QuantizedModel

    dataset = _require_dataset(context, "capacity")
    base = float(context.param("capacity_base_width", 0.5))
    factor = float(context.param("capacity_factor", 4.0))
    epochs = int(context.param("capacity_epochs", 2))
    wide = make_resnet20(
        num_classes=int(dataset.num_classes),
        width_scale=width_scale_for_capacity(base, factor),
        seed=context.seed,
    )
    fit(wide, dataset, epochs=epochs, batch_size=64, lr=0.05,
        seed=context.seed)
    wide.eval()
    return ModelTransformDefense(
        QuantizedModel(wide), "capacity",
        transform_notes={"train_epochs": epochs},
    )
