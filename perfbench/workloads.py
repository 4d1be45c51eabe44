"""The four benchmark workloads and the metrics they report.

Each workload is a class with four steps. setup() builds the inputs from
the seed; it is repeated, so it must be idempotent. warm_up() runs once
after it and pays one-off costs such as the first full-scale inference.
run() is one timed rep: a pass through the program's public functions,
each call wrapped in a span named after the per-layer metric it feeds.
check() turns a rep's outputs into a Rep (fingerprints, counts, modeled
figures and pass/fail checks) and is not timed. A rep that raises
ToolError or fails a check is a failed rep.

Host time (wall clock of this process) and modeled time (cycles and
words of the accelerator model) never share a metric: modeled counts go
in Rep.modeled and in metrics whose names say "modeled".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from capsbeam import accel_sim, beamform, capsnet, cli, metrics, phantom, pruning, quantized
from capsbeam.config import load_config
from capsbeam.data_model import RfVolume, bundle_hash, read_bundle_file, read_tensor_file

# Name and unit of every metric, in the order they are printed. Run
# perfbench/selfcheck.py after changing them: it checks that these lists,
# BENCHMARK.json and the emitted results agree.
END_TO_END = [("setup_s", "s"), ("frame_s", "s"), ("peak_rss_mb", "MB")]

CONV_NAMES = ("conv0", "conv1", "caps0", "caps1")
SIM_LAYERS = CONV_NAMES + ("fc0", "fc1", "fc2", "fc3", "routing")
SIM_TAGS = ("dense", "pruned")


def _sim_span(layer: str, tag: str) -> str:
    if layer == "routing":
        return f"accel_sim.sim_routing_s.{tag}"
    return f"accel_sim.sim_conv_s.{layer}.{tag}"


HOST_SPANS = [
    "phantom.simulate_rx_s", "phantom.tof_correct_s",
    "beamform.das_s", "beamform.compound_s", "beamform.mvdr_s", "beamform.envelope_s",
    "metrics.regions_s",
    "capsnet.infer_s", "capsnet.infer_pruned_s",
    "pruning.plan_prune_s", "pruning.apply_mask_s", "pruning.densify_s",
    "quantized.calibrate_s", "quantized.quantize_bundle_s",
    "quantized.infer_quantized_s", "quantized.infer_quantized_pruned_s",
    *[_sim_span(layer, tag) for tag in SIM_TAGS for layer in SIM_LAYERS],
    "accel_sim.estimate_latency_s",
    "cli.report_s", "data_model.read_s",
]
MODELED_KINDS = (("modeled_cycles", "cycles"), ("modeled_words", "words"),
                 ("modeled_stall_cycles", "cycles"))
PER_LAYER = [
    *[(name, "s") for name in HOST_SPANS],
    ("phantom.scatterers", "count"),
    ("pruning.kept_kernels", "count"),
    ("data_model.bytes_read", "bytes"),
    ("cli.files_written", "count"),
    ("quantized.fixed_float_dev", "amplitude"),
    ("accel_sim.sim_mcycles_per_s", "Mcycle/s"),
    ("accel_sim.host_ns_per_modeled_cycle", "ns/cycle"),
    ("trace.overhead_s", "s"),
    ("accel_sim.conv1_reload_words", "words"),
    *[(f"accel_sim.{kind}.{point}", unit)
      for point in ("nonopt", "opt") for kind, unit in MODELED_KINDS],
    *[(f"accel_sim.{kind}.{layer}.{tag}", unit)
      for tag in SIM_TAGS for layer in SIM_LAYERS for kind, unit in MODELED_KINDS],
]

# Acceptance oracle: conv layer 1 (1-based as on the command line, internal
# conv0) of the default.ini network reads this many words under reload_per_block.
CONV1_RELOAD_WORDS = 60_293_120
FIXED_FLOAT_CEILING = 2.0**-7
BAND_ROWS = 4  # short reps, so a run takes the median of many
DESK_SEED_CANDIDATES = 32


def derive_seeds(seed: int, count: int) -> list[int]:
    """Seeds for the program's own generators, reproducible from --seed."""
    entropy = seed % 2**64  # SeedSequence takes no negative entropy
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(count)]


def fingerprint(array) -> str:
    """sha256 of an array's dtype, shape and bytes."""
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def report_modeled(report: accel_sim.SimReport) -> dict[str, dict[str, int]]:
    return {
        layer.name: {
            "cycles": layer.cycles,
            "compute_cycles": layer.compute_cycles,
            "stall_cycles": layer.stall_cycles,
            "words": layer.transactions,
            "ops": layer.ops,
            "bram_bytes": layer.bram_bytes,
        }
        for layer in report.per_layer
    }


@dataclass
class Rep:
    """What one rep produced. fingerprints must repeat exactly across reps."""

    fingerprints: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    modeled: dict[str, dict] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)


def _check(rep: Rep, name: str, ok, detail: str = "") -> None:
    rep.checks.append((name, bool(ok), detail))


def _centre_volume(cfg, phantom_seed: int) -> RfVolume:
    ph = replace(cfg.phantom, rng_seed=phantom_seed)
    geom = replace(cfg.probe, transmit_angle_rad=cfg.angles_rad[len(cfg.angles_rad) // 2])
    raw = phantom.simulate_rx(ph, geom, cfg.num_time_samples, noise_std=cfg.noise_std)
    return phantom.tof_correct(raw, geom, cfg.grid)


def _config_path(root: Path, size: str) -> Path:
    return root / "configs" / ("default.ini" if size == "full" else "desk.ini")


class ImagingFrame:
    """Classical path: synth, ToF, DAS per angle, compound, MVDR, envelope, metrics."""

    def __init__(self, seed: int, size: str, root: Path, work_dir: Path):
        self.config_path = _config_path(root, size)
        (self.phantom_seed,) = derive_seeds(seed, 1)

    def setup(self) -> None:
        cfg = load_config(str(self.config_path))
        self.cfg = cfg
        self.phantom = replace(cfg.phantom, rng_seed=self.phantom_seed)
        self.geoms = [replace(cfg.probe, transmit_angle_rad=a) for a in cfg.angles_rad]
        self.scatterers = len(phantom.realize(self.phantom, cfg.probe, cfg.num_time_samples))

    def warm_up(self) -> None:
        pass

    def run(self, span) -> dict:
        cfg = self.cfg
        ones = np.ones(cfg.probe.num_elements)
        centre = len(self.geoms) // 2
        das_images = []
        for i, geom in enumerate(self.geoms):
            with span("phantom.simulate_rx_s"):
                raw = phantom.simulate_rx(self.phantom, geom, cfg.num_time_samples,
                                          noise_std=cfg.noise_std)
            with span("phantom.tof_correct_s"):
                rf = phantom.tof_correct(raw, geom, cfg.grid)
            with span("beamform.das_s"):
                das_images.append(beamform.das(rf, ones))
            if i == centre:
                rf_centre = rf
        with span("beamform.compound_s"):
            compound = beamform.compound(das_images)
        with span("beamform.mvdr_s"):
            mvdr = beamform.mvdr(rf_centre, cfg.mvdr)
        images = {"das": das_images[centre], "compound": compound, "mvdr": mvdr}
        envs = {}
        for stem, image in images.items():
            with span("beamform.envelope_s"):
                envs[stem] = beamform.envelope(image)
        target, background = cfg.region("target_in"), cfg.region("background_out")
        regions = {}
        with span("metrics.regions_s"):
            for stem, env in envs.items():
                regions[stem] = (metrics.contrast_ratio(env, target, background),
                                 metrics.cnr(env, target, background),
                                 metrics.gcnr(env, target, background))
        return {"das_images": das_images, "images": images, "envs": envs, "regions": regions}

    def check(self, out: dict) -> Rep:
        rep = Rep(counts={"phantom.scatterers": self.scatterers})
        for i, image in enumerate(out["das_images"]):
            rep.fingerprints[f"das.angle{i}"] = fingerprint(image.values)
        for stem, image in out["images"].items():
            env = out["envs"][stem]
            cr, cnr, gcnr = out["regions"][stem]
            rep.fingerprints[f"{stem}.values"] = fingerprint(image.values)
            rep.fingerprints[f"{stem}.envelope_q"] = fingerprint(env.q_part)
            rep.fingerprints[f"{stem}.regions"] = fingerprint(np.array([cr, cnr, gcnr]))
            _check(rep, f"{stem} image and envelope finite",
                   np.all(np.isfinite(image.values)) and np.all(np.isfinite(env.q_part)))
            _check(rep, f"{stem} region metrics finite, gCNR in [0, 1]",
                   np.isfinite(cr) and np.isfinite(cnr) and 0.0 <= gcnr <= 1.0,
                   f"cr={cr!r} cnr={cnr!r} gcnr={gcnr!r}")
        return rep


class NetworkFrame:
    """Float network dense and pruned on the centre-angle volume, plus the latency model."""

    def __init__(self, seed: int, size: str, root: Path, work_dir: Path):
        self.config_path = _config_path(root, size)
        self.reload_oracle = CONV1_RELOAD_WORDS if size == "full" else None
        self.phantom_seed, self.weight_seed = derive_seeds(seed, 2)

    def setup(self) -> None:
        cfg = load_config(str(self.config_path))
        self.cfg = cfg
        self.rf = _centre_volume(cfg, self.phantom_seed)
        self.weights = capsnet.init_weights(cfg.capsnet, seed=self.weight_seed)

    def warm_up(self) -> None:
        # The first full-scale inference pays about a second of one-off cost.
        capsnet.infer(self.rf, self.cfg.capsnet, self.weights)

    def run(self, span) -> dict:
        cfg, net = self.cfg, self.cfg.capsnet
        with span("capsnet.infer_s"):
            env = capsnet.infer(self.rf, net, self.weights)
        with span("pruning.plan_prune_s"):
            desc = pruning.ConvNetDescription.from_bundle(self.weights, list(CONV_NAMES))
            mask, prune_report = pruning.plan_prune(
                desc, cfg.prune.ratio, method=cfg.prune.method, r=cfg.prune.lookahead,
                grid=cfg.grid)
        with span("pruning.apply_mask_s"):
            pruned = pruning.apply_mask(self.weights, mask)
        with span("pruning.densify_s"):
            dense = pruning.densify(pruned, net.layer_names())
        with span("capsnet.infer_pruned_s"):
            env_pruned = capsnet.infer(self.rf, net, dense)
        with span("accel_sim.estimate_latency_s"):
            nonopt = accel_sim.estimate_latency(net, cfg.grid, cfg.accel, pruned=False,
                                                policy="reload_per_block")
            opt = accel_sim.estimate_latency(net, cfg.grid, cfg.accel, pruned=True,
                                             policy="weights_resident",
                                             prune_ratio=cfg.prune.ratio)
        return {"envs": {"dense": env, "pruned": env_pruned}, "desc": desc,
                "prune_report": prune_report, "pruned": pruned,
                "latency": {"nonopt": nonopt, "opt": opt}}

    def check(self, out: dict) -> Rep:
        kept = sum(out["prune_report"].per_layer_kept)
        rep = Rep(counts={"pruning.kept_kernels": kept})
        for point, report in out["latency"].items():
            rep.modeled[f"estimate_latency.{point}"] = report_modeled(report)
            rep.counts[f"accel_sim.modeled_cycles.{point}"] = report.cycle_count
            rep.counts[f"accel_sim.modeled_words.{point}"] = report.external_word_transactions
            rep.counts[f"accel_sim.modeled_stall_cycles.{point}"] = sum(
                layer.stall_cycles for layer in report.per_layer)
        reload_words = rep.modeled["estimate_latency.nonopt"]["conv0"]["words"]
        rep.counts["accel_sim.conv1_reload_words"] = reload_words
        for stem, env in out["envs"].items():
            rep.fingerprints[f"capsnet.{stem}.i"] = fingerprint(env.i_part)
            rep.fingerprints[f"capsnet.{stem}.q"] = fingerprint(env.q_part)
            _check(rep, f"{stem} network output finite",
                   np.all(np.isfinite(env.i_part)) and np.all(np.isfinite(env.q_part)))
        rep.fingerprints["pruned.bundle"] = bundle_hash(out["pruned"])
        ratio = self.cfg.prune.ratio
        quota_kept = sum(w.shape[3] * (w.shape[2] - int(np.floor(ratio * w.shape[2])))
                         for w in out["desc"].layers)
        _check(rep, "kept kernels follow the per-filter quota", kept == quota_kept,
               f"{kept} kept, quota implies {quota_kept}")
        if self.reload_oracle is not None:
            _check(rep, "conv1 reload_per_block words", reload_words == self.reload_oracle,
                   f"{reload_words} words, oracle {self.reload_oracle}")
        nonopt, opt = out["latency"]["nonopt"], out["latency"]["opt"]
        _check(rep, "optimized modeled latency below non-optimized",
               opt.modeled_latency_s < nonopt.modeled_latency_s,
               f"{opt.modeled_latency_s!r} s vs {nonopt.modeled_latency_s!r} s")
        return rep


def _raw(bundle, name: str, f: int) -> np.ndarray:
    entry = bundle.require(name)
    if entry.dtype != "fixed16" or entry.scale_exp != f:
        raise ValueError(f"{name}: stored at scale {entry.scale_exp}, plan says {f}")
    return entry.data


def sim_chain(band: RfVolume, net, qbundle, plan, accel, span, tag: str):
    """infer_quantized rebuilt from the engine model: every conv, caps and
    fc layer through sim_conv_layer, routing through sim_routing. Pruned
    layers stream their compacted weights with the bundle's .index lists.

    Returns the dequantized (I, Q) planes, the int16 output of every layer
    and the modeled report of every layer.
    """
    outputs, reports = {}, {}

    def conv(x, name, relu, f_in, f_out):
        f_w, f_b = plan.scale(f"{name}.weight"), plan.scale(f"{name}.bias")
        weight = _raw(qbundle, f"{name}.weight", f_w)
        index = qbundle.entries.get(f"{name}.index")
        spec = accel_sim.ConvLayerSpec(
            weight=weight if weight.ndim == 4 else weight.reshape(1, 1, *weight.shape),
            bias=_raw(qbundle, f"{name}.bias", f_b),
            index=None if index is None else index.data,
            relu=relu, f_in=f_in, f_w=f_w, f_b=f_b, f_out=f_out, name=name)
        with span(_sim_span(name, tag)):
            out, report = accel_sim.sim_conv_layer(x, spec, accel)
        outputs[name], reports[name] = out, report
        return out

    f_x = plan.scale("input")
    x = quantized.quantize_array(band.samples, f_x)
    for i, layer in enumerate(net.conv_layers):
        f_out = plan.scale(f"conv{i}.out")
        x, f_x = conv(x, f"conv{i}", layer.relu, f_x, f_out), f_out
    for i, layer in enumerate(net.caps_conv_layers):
        f_pre, f_out = plan.scale(f"caps{i}.pre"), plan.scale(f"caps{i}.out")
        pre = conv(x, f"caps{i}", False, f_x, f_pre)
        rows, cols = pre.shape[:2]
        # The engine has no squash unit: the fixed-point squash runs between layers.
        grouped = pre.reshape(rows, cols, layer.num_capsules, layer.capsule_dim)
        v = quantized._squash_rows(grouped, f_pre)
        x = quantized.requantize(v.astype(np.int64), f_pre, f_out).reshape(rows, cols, -1)
        f_x = f_out
    routing = net.routing
    rows, cols = x.shape[:2]
    f_pre = plan.scale("routing.pre")
    with span(_sim_span("routing", tag)):
        v, report = accel_sim.sim_routing(
            x.reshape(rows * cols, routing.num_in_capsules, routing.in_dim), accel,
            routing.num_out_capsules, routing.num_iterations, f_caps=f_x,
            f_logit=plan.scale("routing.logits"), f_pre=f_pre)
    outputs["routing"], reports["routing"] = v, report
    f_x = plan.scale("routing.out")
    x = quantized.requantize(v.astype(np.int64), f_pre, f_x).reshape(rows, cols, -1)
    for i, layer in enumerate(net.fc_layers):
        f_out = plan.scale(f"fc{i}.out")
        x, f_x = conv(x, f"fc{i}", layer.relu, f_x, f_out), f_out
    i_part = quantized.dequantize_array(x[..., 0], f_x).astype(np.float32)
    q_part = quantized.dequantize_array(x[..., 1], f_x).astype(np.float32)
    return (i_part, q_part), outputs, reports


class FixedPointBand:
    """Fixed-point path and functional simulator on a full-width band, dense and pruned."""

    def __init__(self, seed: int, size: str, root: Path, work_dir: Path):
        self.config_path = _config_path(root, size)
        self.rows = BAND_ROWS
        self.phantom_seed, self.weight_seed = derive_seeds(seed, 2)

    def setup(self) -> None:
        cfg = load_config(str(self.config_path))
        self.cfg = cfg
        rf = _centre_volume(cfg, self.phantom_seed)
        start = (cfg.grid.num_rows - self.rows) // 2
        self.band = RfVolume(
            grid=replace(cfg.grid, num_rows=self.rows), num_channels=rf.num_channels,
            samples=np.ascontiguousarray(rf.samples[start:start + self.rows]))
        self.weights = capsnet.init_weights(cfg.capsnet, seed=self.weight_seed)
        desc = pruning.ConvNetDescription.from_bundle(self.weights, list(CONV_NAMES))
        mask, _ = pruning.plan_prune(desc, cfg.prune.ratio, method=cfg.prune.method,
                                     r=cfg.prune.lookahead, grid=cfg.grid)
        self.pruned = pruning.apply_mask(self.weights, mask)

    def warm_up(self) -> None:
        net = self.cfg.capsnet
        plan = quantized.calibrate(self.weights, [self.band], net)
        quantized.infer_quantized(self.band, net, quantized.quantize_bundle(self.weights, plan))

    def run(self, span) -> dict:
        net, band = self.cfg.capsnet, self.band
        with span("capsnet.infer_s"):
            env_float = capsnet.infer(band, net, self.weights)
        out = {"float": env_float, "sim_s": 0.0}
        for tag, bundle in (("dense", self.weights), ("pruned", self.pruned)):
            with span("quantized.calibrate_s"):
                plan = quantized.calibrate(bundle, [band], net)
            with span("quantized.quantize_bundle_s"):
                qbundle = quantized.quantize_bundle(bundle, plan)
            if tag == "pruned":
                with span("pruning.densify_s"):
                    qdense = pruning.densify(qbundle, net.layer_names())
                name = "quantized.infer_quantized_pruned_s"
            else:
                qdense, name = qbundle, "quantized.infer_quantized_s"
            with span(name):
                env_q = quantized.infer_quantized(band, net, qdense)
            start = time.perf_counter()
            sim = sim_chain(band, net, qbundle, plan, self.cfg.accel, span, tag)
            out["sim_s"] += time.perf_counter() - start
            out[tag] = {"qbundle": qbundle, "env_q": env_q, "sim": sim}
        return out

    def check(self, out: dict) -> Rep:
        rep = Rep()
        env_float = out["float"]
        sim_cycles = 0
        for tag in SIM_TAGS:
            env_q = out[tag]["env_q"]
            (i_sim, q_sim), outputs, reports = out[tag]["sim"]
            modeled = {}
            for layer, report in reports.items():
                modeled.update(report_modeled(report))
                (entry,) = report.per_layer
                sim_cycles += entry.compute_cycles
                rep.counts[f"accel_sim.modeled_cycles.{layer}.{tag}"] = entry.cycles
                rep.counts[f"accel_sim.modeled_words.{layer}.{tag}"] = entry.transactions
                rep.counts[f"accel_sim.modeled_stall_cycles.{layer}.{tag}"] = entry.stall_cycles
                rep.fingerprints[f"sim.{tag}.{layer}"] = fingerprint(outputs[layer])
            rep.modeled[f"sim.{tag}"] = modeled
            rep.fingerprints[f"quantized_bundle.{tag}"] = bundle_hash(out[tag]["qbundle"])
            rep.fingerprints[f"infer_quantized.{tag}.i"] = fingerprint(env_q.i_part)
            rep.fingerprints[f"infer_quantized.{tag}.q"] = fingerprint(env_q.q_part)
            _check(rep, f"simulator chain equals infer_quantized bit for bit ({tag})",
                   np.array_equal(i_sim, env_q.i_part) and np.array_equal(q_sim, env_q.q_part))
        env_q = out["dense"]["env_q"]
        dev = max(float(np.max(np.abs(env_q.i_part - env_float.i_part))),
                  float(np.max(np.abs(env_q.q_part - env_float.q_part))))
        _check(rep, "fixed-point deviation from float within 2^-7",
               dev <= FIXED_FLOAT_CEILING, f"{dev!r}")
        rep.fingerprints["pruned.bundle"] = bundle_hash(self.pruned)
        rep.fingerprints["capsnet.dense.i"] = fingerprint(env_float.i_part)
        rep.fingerprints["capsnet.dense.q"] = fingerprint(env_float.q_part)
        sim_s = out["sim_s"]
        rep.values = {
            "quantized.fixed_float_dev": dev,
            "accel_sim.sim_mcycles_per_s": sim_cycles / sim_s / 1e6,
            "accel_sim.host_ns_per_modeled_cycle": sim_s / sim_cycles * 1e9,
        }
        return rep


class DeskReport:
    """In-process `capsbeam report` on desk.ini, then every tensor and bundle read back."""

    def __init__(self, seed: int, size: str, root: Path, work_dir: Path):
        self.config_path = root / "configs" / "desk.ini"
        self.candidates = derive_seeds(seed, DESK_SEED_CANDIDATES)
        self.out = work_dir / "desk_report"

    def _report(self, seed: int) -> int:
        return cli.main(["report", "--config", str(self.config_path), "--seed", str(seed),
                         "--out", str(self.out)])

    def setup(self) -> None:
        """Take the first candidate seed whose report runs.

        About a third of desk.ini seeds end in a typed ToolError: an all-zero
        row makes the MVDR covariance singular, or the untrained toy network
        emits an all-zero image or region. Those seeds are skipped and listed
        in the run record.
        """
        self.skipped = []
        for seed in self.candidates:
            shutil.rmtree(self.out, ignore_errors=True)
            errors = io.StringIO()
            with contextlib.redirect_stderr(errors):
                rc = self._report(seed)
            shutil.rmtree(self.out, ignore_errors=True)
            if rc == 0:
                self.report_seed = seed
                return
            self.skipped.append({"seed": seed, "error": errors.getvalue().strip()})
        raise RuntimeError(f"no desk.ini report succeeded on {len(self.candidates)} seeds")

    def warm_up(self) -> None:
        self._report(self.report_seed)
        shutil.rmtree(self.out)

    def run(self, span) -> dict:
        if self.out.exists():  # left behind by a rep that raised before check()
            shutil.rmtree(self.out)
        with span("cli.report_s"):
            rc = self._report(self.report_seed)
        reads = {}
        for path in sorted(self.out.iterdir()):
            if path.suffix not in (".cbtf", ".cbwb"):
                continue
            with span("data_model.read_s"):
                if path.suffix == ".cbtf":
                    reads[path.name] = read_tensor_file(path).tobytes()
                else:
                    reads[path.name] = read_bundle_file(path)
        return {"rc": rc, "reads": reads}

    def check(self, out: dict) -> Rep:
        rep = Rep()
        _check(rep, "report exits 0", out["rc"] == 0, f"exit code {out['rc']}")
        manifest = {}
        for path in sorted(self.out.rglob("manifest.txt")):
            for line in path.read_text().splitlines():
                name, digest = line.split("\t")[:2]
                manifest[str((path.parent / name).relative_to(self.out))] = digest
        bytes_read = 0
        for name, parsed in out["reads"].items():
            payload = (self.out / name).read_bytes()
            bytes_read += len(payload)
            digest = hashlib.sha256(payload).hexdigest()
            _check(rep, f"{name} matches its manifest hash",
                   manifest.get(name) == f"sha256:{digest[:12]}",
                   f"file {digest[:12]}, manifest {manifest.get(name)}")
            if isinstance(parsed, bytes):
                _check(rep, f"{name} re-reads to the same bytes", parsed == payload)
            else:
                _check(rep, f"{name} re-reads as a bundle with entries", bool(parsed.entries))
            rep.fingerprints[name] = digest
        missing = sorted(name for name in manifest if not (self.out / name).is_file())
        _check(rep, "every manifest entry exists", not missing, ", ".join(missing))
        _check(rep, "every tensor and bundle was read back",
               {n for n in manifest if n.endswith((".cbtf", ".cbwb")) and "/" not in n}
               == set(out["reads"]))
        for name in sorted(manifest):
            rep.fingerprints.setdefault(name, manifest[name])
        rep.counts = {"cli.files_written": len(manifest), "data_model.bytes_read": bytes_read}
        shutil.rmtree(self.out, ignore_errors=True)
        return rep


WORKLOADS = {
    "imaging_frame": ImagingFrame,
    "network_frame": NetworkFrame,
    "fixed_point_band": FixedPointBand,
    "desk_report": DeskReport,
}
