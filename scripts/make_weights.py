#!/usr/bin/env python
"""Generate a seeded random weight bundle for a capsnet config.

Examples:
    python scripts/make_weights.py --toy --seed 7 --out toy.cbwb
    python scripts/make_weights.py --config configs/default.ini --out w.cbwb
"""

import argparse

from capsbeam.capsnet import init_weights, toy_config
from capsbeam.config import RunConfig, load_config
from capsbeam.data_model import PixelGrid, count_flops, count_params, write_bundle_file


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="INI config supplying [capsnet] and [grid]")
    ap.add_argument("--toy", action="store_true", help="use the 16x16 toy network")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="output .cbwb path")
    args = ap.parse_args()

    if args.toy:
        cfg, grid = toy_config(), PixelGrid(num_rows=16, num_cols=16)
    else:
        run = load_config(args.config) if args.config else RunConfig()
        cfg, grid = run.capsnet, run.grid
    bundle = init_weights(cfg, seed=args.seed)
    write_bundle_file(bundle, args.out)
    print(f"wrote {args.out}: params={count_params(cfg)}")
    if cfg.conv_layers:
        print(f"flops on {grid.num_rows}x{grid.num_cols} grid: {count_flops(cfg, grid)}")


if __name__ == "__main__":
    main()
