#!/usr/bin/env python
"""Drive the full CLI pipeline stage by stage on the desk config.

Equivalent to `capsbeam report` but spelled out as individual
subcommands, so the file-level interfaces between stages are visible.

    python scripts/run_pipeline.py --out /tmp/caps_demo
"""

import argparse
import sys
from pathlib import Path

from capsbeam.capsnet import init_weights
from capsbeam.cli import main as cli
from capsbeam.config import load_config
from capsbeam.data_model import write_bundle_file

CFG = str(Path(__file__).resolve().parent.parent / "configs" / "desk.ini")


def run(argv: list[str]) -> None:
    print("+ capsbeam " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--config", default=CFG)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = load_config(args.config)
    angles = range(len(cfg.angles_rad))

    run(["synth", "--config", args.config, "--seed", str(args.seed), "--out", str(out)])
    for i in angles:
        run(["tofc", "--config", args.config, "--in", str(out / f"rx_angle{i}.cbtf"),
             "--angle-index", str(i), "--out", str(out)])

    center = str(out / f"rf_angle{len(angles) // 2}.cbtf")
    run(["beamform", "--config", args.config, "--method", "das", "--in", center,
         "--out", str(out)])
    run(["beamform", "--config", args.config, "--method", "mvdr", "--in", center,
         "--out", str(out)])
    all_rf = ",".join(str(out / f"rf_angle{i}.cbtf") for i in angles)
    run(["beamform", "--config", args.config, "--method", "compound", "--in", all_rf,
         "--out", str(out)])

    weights = out / "weights.cbwb"
    write_bundle_file(init_weights(cfg.capsnet, seed=args.seed), str(weights))
    run(["infer", "--config", args.config, "--in", center, "--weights", str(weights),
         "--out", str(out)])

    run(["prune", "--config", args.config, "--weights", str(weights), "--out",
         str(out / "pruned")])
    run(["quantize", "--config", args.config, "--weights", str(weights), "--rf", center,
         "--out", str(out / "quant")])
    run(["infer", "--config", args.config, "--in", center, "--weights",
         str(out / "quant" / "quantized.cbwb"), "--quantized", "--out", str(out)])

    for stem in ("das", "mvdr", "compound", "capsnet", "capsnet_q"):
        run(["metrics", "--config", args.config, "--env", str(out / f"{stem}_env.cbtf"),
             "--out", str(out / f"metrics_{stem}")])
    run(["compare", "--a", str(out / "metrics_das"), "--b", str(out / "metrics_mvdr"),
         "--out", str(out / "compare_das_mvdr")])
    run(["compare", "--a", str(out / "metrics_capsnet"), "--b",
         str(out / "metrics_capsnet_q"), "--out", str(out / "compare_float_fixed")])

    run(["sim", "--config", args.config, "--layer", "all", "--policy",
         "reload_per_block", "--out", str(out / "sim_nonopt")])
    run(["sim", "--config", args.config, "--layer", "all", "--policy",
         "weights_resident", "--pruned", "--out", str(out / "sim_opt")])
    print(f"pipeline artifacts under {out}")


if __name__ == "__main__":
    main()
