"""Command-line pipeline driver.

Subcommands: synth, tofc, beamform, infer, prune, quantize, sim,
metrics, compare, report. Every invocation is composable through files
only; outputs land in --out and each artifact gets a line in that
directory's manifest.txt recording the tool version and the config hash
(never timestamps, so reruns are byte-identical).

Exit codes: 0 success, 2 usage error, 1 runtime error.

Layer names on the sim command line are 1-based: conv1 is the first
conv layer, caps1 the first capsule conv, fc1 the first pointwise FC;
"routing" and "all" are also accepted. CAPSBEAM_THREADS caps the threads of
synth, tofc, MVDR and the capsule network, float and fixed-point (bitwise
identical results for any count); the sim command runs on one.

Randomness exists only in synth and report (phantom speckle and weight
init); --seed overrides the config seed there. The remaining commands
are pure functions of their input files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, accel_sim, beamform, capsnet, metrics, phantom, pruning, quantized
from .config import RunConfig, _float_list, load_config
from .data_model import (
    EnvelopeImage,
    RfVolume,
    Tensor,
    WeightBundle,
    bundle_chunks,
    count_flops,
    count_params,
    read_bundle_file,
    read_tensor_file,
    write_chunks,
)
from .errors import (
    GridMismatch,
    InvalidConfig,
    IoFailure,
    MissingMetrics,
    RegionMismatch,
    ShapeMismatch,
    ToolError,
)

BEAMFORM_METHODS = ("das", "mvdr", "compound")


# artifact plumbing ---------------------------------------------------------------


class _OutDir:
    """Output directory with a deterministic manifest."""

    def __init__(self, path: str, config_hash: str):
        self.root = Path(path)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config_hash = config_hash
        self.lines: list[str] = []

    def write(self, name: str, chunks) -> Path:
        """Write chunks to name and record their sha256 in the manifest;
        the bytes are serialized once and never read back."""
        path = self.root / name
        write_chunks(chunks, path)
        digest = hashlib.sha256()
        for chunk in chunks:
            digest.update(chunk)
        self.lines.append(f"{name}\tsha256:{digest.hexdigest()[:12]}"
                          f"\tcapsbeam/{__version__}\tconfig:{self.config_hash}")
        return path

    def write_text(self, name: str, text: str) -> Path:
        return self.write(name, [text.encode()])

    def write_tensor(self, name: str, tensor: Tensor) -> Path:
        return self.write(name, tensor.chunks())

    def write_bundle(self, name: str, bundle: WeightBundle) -> Path:
        return self.write(name, bundle_chunks(bundle))

    def finish(self) -> None:
        """Merge this run's lines into manifest.txt: a file written again
        replaces its line in place, a new file's line is appended."""
        manifest = self.root / "manifest.txt"
        existing = manifest.read_text().splitlines() if manifest.exists() else []
        by_name = {line.split("\t", 1)[0]: line for line in existing + self.lines}
        manifest.write_text("".join(line + "\n" for line in by_name.values()))


def _runconfig(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return RunConfig()


def _load_rf(path: str, cfg: RunConfig) -> RfVolume:
    tensor = read_tensor_file(path)
    if len(tensor.dims) != 3:
        raise ShapeMismatch(f"{path}: expected [rows, cols, channels], got {tensor.dims}")
    rows, cols, ch = tensor.dims
    if (rows, cols) != (cfg.grid.num_rows, cfg.grid.num_cols):
        raise GridMismatch(
            f"{path}: {rows}x{cols} grid, config says "
            f"{cfg.grid.num_rows}x{cfg.grid.num_cols}"
        )
    return RfVolume(grid=cfg.grid, num_channels=ch, samples=tensor.data)


def _load_env(path: str, cfg: RunConfig) -> EnvelopeImage:
    tensor = read_tensor_file(path)
    if len(tensor.dims) != 3 or tensor.dims[2] != 2:
        raise ShapeMismatch(f"{path}: expected [rows, cols, 2] envelope, got {tensor.dims}")
    if (tensor.dims[0], tensor.dims[1]) != (cfg.grid.num_rows, cfg.grid.num_cols):
        raise GridMismatch(f"{path}: envelope grid does not match config")
    return EnvelopeImage(grid=cfg.grid, i_part=tensor.data[:, :, 0], q_part=tensor.data[:, :, 1])


def _env_tensor(env: EnvelopeImage) -> Tensor:
    stacked = np.stack([env.i_part, env.q_part], axis=-1).astype(np.float32)
    return Tensor.from_array(stacked)


def _write_image_set(out: _OutDir, stem: str, env: EnvelopeImage, cfg: RunConfig,
                     beamformed: np.ndarray | None = None) -> None:
    if beamformed is not None:
        out.write_tensor(f"{stem}.cbtf", Tensor.from_array(beamformed.astype(np.float32)))
    out.write_tensor(f"{stem}_env.cbtf", _env_tensor(env))
    db = beamform.log_compress(env, cfg.dynamic_range_db)
    pgm = io.BytesIO()
    beamform.write_pgm(db, cfg.dynamic_range_db, pgm)
    out.write(f"{stem}.pgm", [pgm.getvalue()])


def _float_bundle(bundle: WeightBundle, cfg: RunConfig) -> WeightBundle:
    """Densify pruned bundles so the float/fixed engines see dense layers."""
    if any(name.endswith(".index") for name in bundle.entries):
        return pruning.densify(bundle, cfg.capsnet.layer_names())
    return bundle


# subcommand handlers -------------------------------------------------------------


def _cmd_synth(args) -> int:
    cfg = _runconfig(args)
    ph = cfg.phantom
    if args.seed is not None:
        ph = replace(ph, rng_seed=args.seed)
    out = _OutDir(args.out, cfg.config_hash)
    realized = phantom.realize(ph, cfg.probe, cfg.num_time_samples)
    rows = "".join(f"{x!r},{z!r},{a!r}\n" for x, z, a in realized)
    out.write_text("scatterers.csv", "x_m,z_m,amplitude\n" + rows)
    for i, angle in enumerate(cfg.angles_rad):
        geom = replace(cfg.probe, transmit_angle_rad=angle)
        raw = phantom.simulate_rx(ph, geom, cfg.num_time_samples, noise_std=cfg.noise_std)
        out.write_tensor(f"rx_angle{i}.cbtf", Tensor.from_array(raw))
    out.finish()
    return 0


def _cmd_tofc(args) -> int:
    cfg = _runconfig(args)
    tensor = read_tensor_file(args.inp)
    if len(tensor.dims) != 2:
        raise ShapeMismatch(f"{args.inp}: expected [time, elements], got {tensor.dims}")
    if tensor.dims[1] != cfg.probe.num_elements:
        raise ShapeMismatch(
            f"{args.inp}: {tensor.dims[1]} elements, probe has {cfg.probe.num_elements}"
        )
    if not 0 <= args.angle_index < len(cfg.angles_rad):
        raise InvalidConfig(
            f"--angle-index {args.angle_index} outside configured angles "
            f"(0..{len(cfg.angles_rad) - 1})"
        )
    geom = replace(cfg.probe, transmit_angle_rad=cfg.angles_rad[args.angle_index])
    rf = phantom.tof_correct(tensor.data, geom, cfg.grid)
    stem = Path(args.inp).stem
    name = "rf_" + (stem[3:] if stem.startswith("rx_") else stem)
    out = _OutDir(args.out, cfg.config_hash)
    out.write_tensor(f"{name}.cbtf", Tensor.from_array(rf.samples))
    out.finish()
    return 0


def _single_beamform(rf: RfVolume, method: str, cfg: RunConfig) -> beamform.BeamformedImage:
    if method == "das":
        return beamform.das(rf, np.ones(rf.num_channels))
    return beamform.mvdr(rf, cfg.mvdr)


def _cmd_beamform(args) -> int:
    cfg = _runconfig(args)
    paths = [p.strip() for p in args.inp.split(",") if p.strip()]
    if not paths:
        raise InvalidConfig("--in: empty file list")
    out = _OutDir(args.out, cfg.config_hash)
    if args.method == "compound":
        images = [_single_beamform(_load_rf(p, cfg), args.base, cfg) for p in paths]
        img = beamform.compound(images)
    else:
        if len(paths) != 1:
            raise InvalidConfig(f"--method {args.method} takes exactly one input file")
        img = _single_beamform(_load_rf(paths[0], cfg), args.method, cfg)
    env = beamform.envelope(img)
    _write_image_set(out, args.method, env, cfg, beamformed=img.values)
    out.finish()
    return 0


def _cmd_infer(args) -> int:
    cfg = _runconfig(args)
    cfg.capsnet.validate_for_inference()
    rf = _load_rf(args.inp, cfg)
    bundle = read_bundle_file(args.weights)
    out = _OutDir(args.out, cfg.config_hash)
    if args.quantized:
        dense = _float_bundle(bundle, cfg)
        env = quantized.infer_quantized(rf, cfg.capsnet, dense)
        stem = "capsnet_q"
    else:
        env = capsnet.infer(rf, cfg.capsnet, _float_bundle(bundle, cfg))
        stem = "capsnet"
    _write_image_set(out, stem, env, cfg)
    out.finish()
    return 0


def _prune_once(bundle: WeightBundle, cfg: RunConfig, method: str, ratio: float,
                r: int) -> tuple[WeightBundle, pruning.PruneReport]:
    names = [layer.name for layer in cfg.capsnet.weighted_layers() if layer.prunable]
    net = pruning.ConvNetDescription.from_bundle(bundle, names)
    mask, report = pruning.plan_prune(net, ratio, method=method, r=r, grid=cfg.grid)
    return pruning.apply_mask(bundle, mask), report


def _metric_rows(env: EnvelopeImage, cfg: RunConfig) -> list[tuple[str, float, str, str]]:
    target = cfg.region("target_in")
    background = cfg.region("background_out")
    pair = f"{target.name}|{background.name}"
    return [
        ("cr", metrics.contrast_ratio(env, target, background), "dB", pair),
        ("cnr", metrics.cnr(env, target, background), "ratio", pair),
        ("gcnr", metrics.gcnr(env, target, background), "fraction", pair),
    ]


def _metrics_csv(rows: list[tuple[str, float, str, str]]) -> str:
    body = "".join(f"{m},{v!r},{u},{reg}\n" for m, v, u, reg in rows)
    return "metric,value,unit,regions\n" + body


def _cmd_prune(args) -> int:
    cfg = _runconfig(args)
    bundle = read_bundle_file(args.weights)
    method = args.method or cfg.prune.method
    r = args.r if args.r is not None else cfg.prune.lookahead
    ratios = None if args.search is None else sorted(_float_list("prune", "--search", args.search))
    out = _OutDir(args.out, cfg.config_hash)
    if ratios is not None:
        if args.min_cr is None and args.min_gcnr is None:
            raise InvalidConfig("--search requires at least one gate (--min-cr/--min-gcnr)")
        if not args.inp:
            raise InvalidConfig("--search requires --in rf.cbtf to evaluate image quality")
        rf = _load_rf(args.inp, cfg)
        rows = []
        chosen = None
        for ratio in ratios:
            pruned, report = _prune_once(bundle, cfg, method, ratio, r)
            env = capsnet.infer(rf, cfg.capsnet, _float_bundle(pruned, cfg))
            vals = {m: v for m, v, _, _ in _metric_rows(env, cfg)}
            ok = (args.min_cr is None or vals["cr"] >= args.min_cr) and (
                args.min_gcnr is None or vals["gcnr"] >= args.min_gcnr
            )
            rows.append((ratio, report.ratio_achieved, vals["cr"], vals["gcnr"], ok))
            if ok:
                chosen = (ratio, pruned, report)
        header = "ratio_requested,ratio_achieved,cr_db,gcnr,passes_gates\n"
        body = "".join(
            f"{rq!r},{ra!r},{c!r},{g!r},{int(ok)}\n" for rq, ra, c, g, ok in rows
        )
        out.write_text("search_report.csv", header + body)
        if chosen is None:
            out.finish()
            raise ToolError("no searched ratio met the quality gates")
        ratio, pruned, report = chosen
    else:
        ratio = args.ratio if args.ratio is not None else cfg.prune.ratio
        pruned, report = _prune_once(bundle, cfg, method, ratio, r)
    out.write_bundle("pruned.cbwb", pruned)
    out.write_text("prune_report.csv", report.to_csv())
    out.finish()
    return 0


def _cmd_quantize(args) -> int:
    cfg = _runconfig(args)
    cfg.capsnet.validate_for_inference()
    bundle = read_bundle_file(args.weights)
    samples = [_load_rf(p.strip(), cfg) for p in args.rf.split(",") if p.strip()]
    plan = quantized.calibrate(bundle, samples, cfg.capsnet)
    qbundle = quantized.quantize_bundle(bundle, plan)
    out = _OutDir(args.out, cfg.config_hash)
    out.write_bundle("quantized.cbwb", qbundle)
    rows = "".join(f"{name},{f}\n" for name, f in sorted(plan.scales.items()))
    out.write_text("quant_report.csv", "tensor,scale_exp\n" + rows)
    out.finish()
    return 0


def _one_based(name: str) -> str:
    """conv0 -> conv1: layer indices are 1-based on the command line."""
    stem = name.rstrip("0123456789")
    return f"{stem}{int(name[len(stem):]) + 1}" if stem != name else name


def _cmd_sim(args) -> int:
    cfg = _runconfig(args)
    ratio = cfg.prune.ratio
    full = accel_sim.estimate_latency(
        cfg.capsnet, cfg.grid, cfg.accel, pruned=args.pruned,
        policy=args.policy, prune_ratio=ratio,
    )
    if args.layer == "all":
        report = full
    else:
        picked = [l for l in full.per_layer if _one_based(l.name) == args.layer]
        if not picked:
            names = ", ".join(_one_based(l.name) for l in full.per_layer)
            raise InvalidConfig(f"--layer {args.layer}: not in this config ({names})")
        picked[0].name = args.layer
        report = accel_sim.SimReport(clock_hz=cfg.accel.clock_hz, per_layer=picked)
    out = _OutDir(args.out, cfg.config_hash)
    out.write_text("sim_report.csv", report.to_csv())
    out.write_text("sim_report.txt", report.to_text())
    out.finish()
    sys.stdout.write(report.to_text())
    return 0


def _cmd_metrics(args) -> int:
    cfg = _runconfig(args)
    env = _load_env(args.env, cfg)
    rows = _metric_rows(env, cfg)
    if args.point_depth is not None:
        row = metrics.depth_row(env.grid, args.point_depth)
        width = metrics.fwhm(env.magnitude()[row], cfg.grid.col_spacing_m)
        rows.append((f"lateral_fwhm@{args.point_depth!r}", width, "m", "profile"))
    out = _OutDir(args.out, cfg.config_hash)
    out.write_text("metrics.csv", _metrics_csv(rows))
    out.finish()
    return 0


def _read_metrics_csv(dirpath: str) -> dict[tuple[str, str], float]:
    path = Path(dirpath) / "metrics.csv"
    if not path.exists():
        raise MissingMetrics(f"{dirpath}: no metrics.csv")
    table: dict[tuple[str, str], float] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            table[(row["metric"], row["regions"])] = float(row["value"])
    return table


def _cmd_compare(args) -> int:
    table_a = _read_metrics_csv(args.a)
    table_b = _read_metrics_csv(args.b)
    if set(table_a) != set(table_b):
        raise RegionMismatch("metric CSVs cover different (metric, regions) rows")
    out = _OutDir(args.out, "compare")
    lines = ["metric,regions,a,b,delta,pct_change\n"]
    for metric, regions in sorted(table_a):
        va, vb = table_a[(metric, regions)], table_b[(metric, regions)]
        delta = vb - va
        pct = f"{(delta / va * 100.0)!r}" if va != 0 else ""
        lines.append(f"{metric},{regions},{va!r},{vb!r},{delta!r},{pct}\n")
    out.write_text("compare.csv", "".join(lines))
    out.finish()
    return 0


def _cmd_report(args) -> int:
    cfg = _runconfig(args)
    cfg.capsnet.validate_for_inference()
    seed = args.seed if args.seed is not None else cfg.phantom.rng_seed
    ph = replace(cfg.phantom, rng_seed=seed)
    out = _OutDir(args.out, cfg.config_hash)
    summary: list[str] = [f"capsbeam {__version__} pipeline report", ""]

    # Only the centre volume outlives its angle: raw and rf go before the next synth.
    center = len(cfg.angles_rad) // 2
    das_imgs = []
    for i, angle in enumerate(cfg.angles_rad):
        geom = replace(cfg.probe, transmit_angle_rad=angle)
        raw = phantom.simulate_rx(ph, geom, cfg.num_time_samples, noise_std=cfg.noise_std)
        out.write_tensor(f"rx_angle{i}.cbtf", Tensor.from_array(raw))
        rf = phantom.tof_correct(raw, geom, cfg.grid)
        out.write_tensor(f"rf_angle{i}.cbtf", Tensor.from_array(rf.samples))
        das_imgs.append(_single_beamform(rf, "das", cfg))
        if i == center:
            center_rf = rf
        del raw, rf

    images = {"das": das_imgs[center], "mvdr": _single_beamform(center_rf, "mvdr", cfg),
              "compound": beamform.compound(das_imgs)}
    envs = {stem: beamform.envelope(img) for stem, img in images.items()}
    for stem, img in images.items():
        _write_image_set(out, stem, envs[stem], cfg, beamformed=img.values)

    weights = capsnet.init_weights(cfg.capsnet, seed=seed)
    out.write_bundle("weights.cbwb", weights)
    # The float walk's trace calibrates the fixed-point path: one walk, not two.
    trace = {} if cfg.quant.enabled else None
    envs["capsnet"] = capsnet.infer(center_rf, cfg.capsnet, weights, trace=trace)
    _write_image_set(out, "capsnet", envs["capsnet"], cfg)

    if cfg.quant.enabled:
        plan = quantized.plan_from_trace(weights, trace)
        qbundle = quantized.quantize_bundle(weights, plan)
        out.write_bundle("quantized.cbwb", qbundle)
        envs["capsnet_q"] = quantized.infer_quantized(center_rf, cfg.capsnet, qbundle)
        _write_image_set(out, "capsnet_q", envs["capsnet_q"], cfg)

    metric_rows = {stem: _metric_rows(env, cfg) for stem, env in envs.items()}
    for stem, rows in metric_rows.items():
        sub = _OutDir(str(out.root / f"metrics_{stem}"), cfg.config_hash)
        sub.write_text("metrics.csv", _metrics_csv(rows))
        sub.finish()

    pruned, prune_report = _prune_once(
        weights, cfg, cfg.prune.method, cfg.prune.ratio, cfg.prune.lookahead
    )
    out.write_bundle("pruned.cbwb", pruned)
    out.write_text("prune_report.csv", prune_report.to_csv())

    nonopt = accel_sim.estimate_latency(
        cfg.capsnet, cfg.grid, cfg.accel, pruned=False, policy="reload_per_block"
    )
    opt = accel_sim.estimate_latency(
        cfg.capsnet, cfg.grid, cfg.accel, pruned=True, policy="weights_resident",
        prune_ratio=cfg.prune.ratio,
    )
    out.write_text("sim_nonopt.csv", nonopt.to_csv())
    out.write_text("sim_opt.csv", opt.to_csv())

    summary.append(f"params={count_params(cfg.capsnet)}")
    summary.append(f"flops={count_flops(cfg.capsnet, cfg.grid)}")
    summary.append(f"prune_ratio_achieved={prune_report.ratio_achieved!r}")
    summary.append(f"latency_nonopt_s={nonopt.modeled_latency_s!r}")
    summary.append(f"latency_opt_s={opt.modeled_latency_s!r}")
    summary.append("")
    for stem, rows in metric_rows.items():
        for m, v, u, reg in rows:
            summary.append(f"{stem}.{m}={v!r} {u} [{reg}]")
    out.write_text("report.txt", "\n".join(summary) + "\n")
    out.finish()
    return 0


# argument parsing ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="capsbeam",
        description="Plane-wave ultrasound beamforming toolkit "
        "(DAS/MVDR references, capsule network, pruning, fixed-point path, "
        "accelerator model).",
    )
    top.add_argument("--version", action="version", version=f"capsbeam {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="INI pipeline config")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="simulate channel data for a phantom")
    common(p)
    p.add_argument("--seed", type=int, help="override the phantom seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("tofc", help="time-of-flight correct raw channel data")
    common(p)
    p.add_argument("--in", dest="inp", required=True, help="rx tensor file")
    p.add_argument("--angle-index", type=int, default=0,
                   help="which configured transmit angle produced the input")
    p.set_defaults(func=_cmd_tofc)

    p = sub.add_parser("beamform", help="DAS/MVDR/compound beamforming")
    common(p)
    p.add_argument("--method", required=True, choices=BEAMFORM_METHODS)
    p.add_argument("--in", dest="inp", required=True,
                   help="rf tensor file (comma list for compound)")
    p.add_argument("--base", default="das", choices=("das", "mvdr"),
                   help="per-angle method under compounding")
    p.set_defaults(func=_cmd_beamform)

    p = sub.add_parser("infer", help="capsule-network inference")
    common(p)
    p.add_argument("--in", dest="inp", required=True, help="rf tensor file")
    p.add_argument("--weights", required=True, help="weight bundle")
    p.add_argument("--quantized", action="store_true",
                   help="run the 16-bit fixed-point path (bundle must carry scales)")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("prune", help="structured kernel pruning")
    common(p)
    p.add_argument("--weights", required=True, help="weight bundle")
    p.add_argument("--method", choices=pruning.METHODS)
    ratio = p.add_mutually_exclusive_group()
    ratio.add_argument("--ratio", type=float, help="kernel prune fraction per filter")
    ratio.add_argument("--search", help="comma list of ratios to evaluate")
    p.add_argument("--r", type=int, help="lookahead depth")
    p.add_argument("--in", dest="inp", help="rf tensor for --search image quality")
    p.add_argument("--min-cr", type=float, help="search gate: minimum CR in dB")
    p.add_argument("--min-gcnr", type=float, help="search gate: minimum gCNR")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("quantize", help="calibrate scales and emit a fixed16 bundle")
    common(p)
    p.add_argument("--weights", required=True, help="float weight bundle")
    p.add_argument("--rf", required=True, help="calibration rf tensor (comma list)")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("sim", help="accelerator transaction/cycle model")
    common(p)
    p.add_argument("--layer", default="all",
                   help="conv1/caps1/fc1-style 1-based name, routing, or all")
    p.add_argument("--policy", default="weights_resident", choices=accel_sim.POLICIES)
    p.add_argument("--pruned", action="store_true",
                   help="model kept channels after pruning at the configured ratio")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("metrics", help="image-quality metrics over config regions")
    common(p)
    p.add_argument("--env", required=True, help="[rows, cols, 2] envelope tensor")
    p.add_argument("--point-depth", type=float,
                   help="also measure lateral FWHM at this depth in meters")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("compare", help="side-by-side metric tables")
    p.add_argument("--a", required=True, help="first run directory")
    p.add_argument("--b", required=True, help="second run directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="full pipeline: synth through metrics")
    common(p)
    p.add_argument("--seed", type=int, help="override phantom + weight seed")
    p.set_defaults(func=_cmd_report)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IoFailure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
