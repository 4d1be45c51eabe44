#!/usr/bin/env python
"""Sweep the accelerator model over weight policies and prune ratios.

Prints a table of external transactions, cycles, modeled latency, and
modeled GOPS for the network, and the per-layer breakdown of the two
headline operating points (non-optimized vs pruned at the config's
[prune] ratio + resident).

    python scripts/design_space.py
    python scripts/design_space.py --config configs/desk.ini
"""

import argparse

from capsbeam.accel_sim import estimate_latency
from capsbeam.config import RunConfig, load_config

RATIOS = (0.0, 0.5, 0.7, 0.85)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="INI config; defaults to the full-size network, ratio 0.85")
    args = ap.parse_args()
    run = load_config(args.config) if args.config else RunConfig()
    cfg, grid, accel = run.capsnet, run.grid, run.accel

    print(f"{'policy':<18} {'ratio':>6} {'transactions':>14} {'cycles':>14} "
          f"{'latency_s':>10} {'gops':>8}")
    for policy in ("reload_per_block", "weights_resident"):
        for ratio in RATIOS:
            rep = estimate_latency(cfg, grid, accel, pruned=ratio > 0,
                                   policy=policy, prune_ratio=ratio)
            print(f"{policy:<18} {ratio:>6.2f} {rep.external_word_transactions:>14} "
                  f"{rep.cycle_count:>14} {rep.modeled_latency_s:>10.4f} "
                  f"{rep.modeled_gops:>8.2f}")

    for label, rep in (
        ("non-optimized (reload, unpruned)",
         estimate_latency(cfg, grid, accel, pruned=False, policy="reload_per_block")),
        (f"optimized (resident, pruned {run.prune.ratio:g})",
         estimate_latency(cfg, grid, accel, pruned=True, policy="weights_resident",
                          prune_ratio=run.prune.ratio)),
    ):
        print(f"\n{label}:")
        print(rep.to_csv(), end="")


if __name__ == "__main__":
    main()
