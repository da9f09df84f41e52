"""End-to-end defended deployment on the full DRAM simulator.

This is the complete Fig. 7 pipeline: train a ResNet-20, quantize it to
8-bit, place the weights into a simulated DRAM module, profile vulnerable
bits, stand up DNN-Defender over the resulting protection plan, and attack
through *hammered activations* — the attacker's ACT streams and the
defender's RowClone swaps interleave on the memory controller's clock.

Run:  python examples/defended_deployment.py
"""

import numpy as np

from repro.attacks import BfaConfig, semi_white_box_attack
from repro.core import DefendedDeployment
from repro.dram import DramGeometry, TimingParams
from repro.presets import resnet20_cifar


def main() -> None:
    print("=== Train + deploy into defended DRAM ===")
    preset = resnet20_cifar(width_scale=0.5, image_hw=8, epochs=5)
    deployment = DefendedDeployment.build(
        preset.fresh_model(),
        preset.dataset,
        geometry=DramGeometry(
            banks=2, subarrays_per_bank=8, rows_per_subarray=64,
            row_bytes=256,
        ),
        timing=TimingParams(t_rh=1000),
        defense_params={"profile_rounds": 2},
        seed=0,
    )
    defender = deployment.defense.defender
    plan = defender.plan
    print(f"clean accuracy:   {deployment.accuracy():.2%}")
    print(f"secured bits:     {len(plan.secured_bits)}")
    print(f"target rows:      {plan.num_target_rows}")
    print(f"non-target rows:  {len(plan.non_target_rows)}")
    print(f"weight rows:      {deployment.layout.num_rows}")

    print("\n=== Semi-white-box BFA through hammered DRAM ===")
    rng = np.random.default_rng(1)
    x, y = preset.dataset.attack_batch(96, rng)
    result = semi_white_box_attack(
        deployment.qmodel, x, y,
        executor=deployment.hammer_executor(),
        config=BfaConfig(max_iterations=8, exact_eval_top=4),
        eval_x=preset.dataset.x_test, eval_y=preset.dataset.y_test,
    )
    stats = defender.stats
    print(f"planned flips:    {result.attempts}")
    print(f"landed / blocked: {result.num_flips} / {result.blocked}")
    print(f"accuracy:         {result.initial_accuracy:.2%} -> "
          f"{result.final_accuracy:.2%}")
    print(f"defender swaps:   {stats.swaps_executed} "
          f"(+{stats.non_targets_refreshed} non-target refreshes)")
    print(f"defender latency: "
          f"{defender.latency_per_tref_ms():.3f} ms per T_ref")
    print("\nThe planned sequence targeted profiled rows; the defender's "
          "swaps refreshed them inside every hammer window, so the attack "
          "landed almost nothing.")


if __name__ == "__main__":
    main()
