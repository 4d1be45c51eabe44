"""Plain-text INI pipeline configuration.

Sections: [probe], [grid], [phantom], [capsnet], [mvdr], [prune],
[quant], [accel], [regions]. Every key is optional and falls back to the
library default, but unknown sections or keys are rejected so typos
cannot silently revert to defaults. Numeric values are SI unless the key
name says otherwise (angles in degrees, densities per mm^2).

Layer grammar for [capsnet]:
  conv    = 3x3:128->128:relu, 3x3:128->88:relu
  caps    = 3x3:88->8x8, 1x1:64->8x8        (out = capsules x dim)
  routing = 8,8,8,8,3                        (n_in, in_dim, n_out, out_dim, iters)
  fc      = 64,32,16,8,2                     (ReLU on all but the last layer)

[regions] maps region names to geometry plus an optional role:
  cyst       = circle(0.0, 0.0165, 0.004) target_in
  background = rectangle(-0.012, 0.024, 0.012, 0.028) background_out
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field

from .accel_sim import AccelConfig
from .beamform import MvdrParams
from .capsnet import (
    CapsConfig,
    CapsConvLayerCfg,
    ConvLayerCfg,
    FcLayerCfg,
    RoutingCfg,
    default_config,
)
from .data_model import PixelGrid, ProbeGeometry
from .errors import InvalidConfig, IoFailure
from .metrics import RegionSpec
from .phantom import CystRegion, Phantom
from .pruning import METHODS

DEFAULT_ANGLES_DEG = (-0.86, -0.43, 0.0, 0.43, 0.86)

_REGION_RE = re.compile(
    r"^\s*(circle|rectangle)\s*\(([^)]*)\)\s*(\w*)\s*$"
)


@dataclass(frozen=True)
class PruneSettings:
    method: str = "lakp_ml"
    ratio: float = 0.85
    lookahead: int = 2


@dataclass(frozen=True)
class QuantSettings:
    enabled: bool = False


@dataclass(frozen=True)
class RunConfig:
    probe: ProbeGeometry = field(default_factory=ProbeGeometry)
    grid: PixelGrid = field(default_factory=PixelGrid)
    angles_deg: tuple[float, ...] = DEFAULT_ANGLES_DEG
    phantom: Phantom = field(default_factory=Phantom)
    num_time_samples: int = 2048
    noise_std: float = 0.0
    capsnet: CapsConfig = field(default_factory=default_config)
    mvdr: MvdrParams = field(default_factory=MvdrParams)
    prune: PruneSettings = field(default_factory=PruneSettings)
    quant: QuantSettings = field(default_factory=QuantSettings)
    accel: AccelConfig = field(default_factory=AccelConfig)
    regions: tuple[RegionSpec, ...] = ()
    dynamic_range_db: float = 60.0
    config_hash: str = "default"

    @property
    def angles_rad(self) -> tuple[float, ...]:
        return tuple(math.radians(a) for a in self.angles_deg)

    def region(self, role: str) -> RegionSpec:
        for spec in self.regions:
            if spec.role == role:
                return spec
        raise InvalidConfig(f"config defines no region with role {role!r}")


def _to_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidConfig(f"[{section}] {key}: not an integer: {raw!r}") from exc


def _to_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise InvalidConfig(f"[{section}] {key}: not a number: {raw!r}") from exc


def _to_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise InvalidConfig(f"[{section}] {key}: not a boolean: {raw!r}")


def _float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise InvalidConfig(f"[{section}] {key}: empty list")
    return tuple(_to_float(section, key, p) for p in parts)


def _check_keys(section: str, present, allowed) -> None:
    unknown = sorted(set(present) - set(allowed))
    if unknown:
        raise InvalidConfig(f"[{section}]: unknown keys {unknown}")


def _parse_kernel(section: str, token: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", token.strip())
    if not m:
        raise InvalidConfig(f"[{section}]: bad kernel spec {token!r}, expected KHxKW")
    return int(m.group(1)), int(m.group(2))


def _parse_conv_layers(raw: str) -> tuple[ConvLayerCfg, ...]:
    layers = []
    for item in (s.strip() for s in raw.split(",") if s.strip()):
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise InvalidConfig(f"[capsnet] conv: bad layer {item!r}")
        kh, kw = _parse_kernel("capsnet", parts[0])
        m = re.fullmatch(r"(\d+)->(\d+)", parts[1].strip())
        if not m:
            raise InvalidConfig(f"[capsnet] conv: bad channels in {item!r}")
        act = parts[2].strip().lower() if len(parts) == 3 else "relu"
        if act not in ("relu", "linear"):
            raise InvalidConfig(f"[capsnet] conv: bad activation {act!r}")
        layers.append(
            ConvLayerCfg(kh, kw, int(m.group(1)), int(m.group(2)), relu=(act == "relu"))
        )
    if not layers:
        raise InvalidConfig("[capsnet] conv: empty layer list")
    return tuple(layers)


def _parse_caps_layers(raw: str) -> tuple[CapsConvLayerCfg, ...]:
    layers = []
    for item in (s.strip() for s in raw.split(",") if s.strip()):
        parts = item.split(":")
        if len(parts) != 2:
            raise InvalidConfig(f"[capsnet] caps: bad layer {item!r}")
        kh, kw = _parse_kernel("capsnet", parts[0])
        m = re.fullmatch(r"(\d+)->(\d+)x(\d+)", parts[1].strip())
        if not m:
            raise InvalidConfig(f"[capsnet] caps: bad shape in {item!r}")
        in_ch, caps, dim = (int(g) for g in m.groups())
        layers.append(CapsConvLayerCfg(kh, kw, in_ch, caps * dim, caps, dim))
    if not layers:
        raise InvalidConfig("[capsnet] caps: empty layer list")
    return tuple(layers)


def _parse_routing(raw: str) -> RoutingCfg:
    vals = [v.strip() for v in raw.split(",")]
    if len(vals) != 5:
        raise InvalidConfig("[capsnet] routing: expected 5 integers")
    n_in, in_dim, n_out, out_dim, iters = (_to_int("capsnet", "routing", v) for v in vals)
    return RoutingCfg(n_in, in_dim, n_out, out_dim, iters)


def _parse_fc(raw: str) -> tuple[FcLayerCfg, ...]:
    widths = [_to_int("capsnet", "fc", v.strip()) for v in raw.split(",") if v.strip()]
    if len(widths) < 2:
        raise InvalidConfig("[capsnet] fc: need at least two widths")
    layers = []
    for i in range(len(widths) - 1):
        last = i == len(widths) - 2
        layers.append(FcLayerCfg(widths[i], widths[i + 1], relu=not last))
    return tuple(layers)


def _parse_triples(section: str, key: str, raw: str, arity: int):
    groups = []
    for item in (s.strip() for s in raw.split(";") if s.strip()):
        vals = _float_list(section, key, item)
        if len(vals) != arity:
            raise InvalidConfig(
                f"[{section}] {key}: expected {arity} numbers per entry, got {item!r}"
            )
        groups.append(vals)
    return groups


def _parse_regions(section) -> tuple[RegionSpec, ...]:
    specs = []
    for name, raw in section.items():
        m = _REGION_RE.match(raw)
        if not m:
            raise InvalidConfig(
                f"[regions] {name}: expected 'circle(...)' or 'rectangle(...)'"
            )
        kind, body, role = m.group(1), m.group(2), m.group(3)
        params = _float_list("regions", name, body)
        specs.append(RegionSpec(name=name, kind=kind, params=params, role=role))
    return tuple(specs)


def parse_config_text(text: str, origin: str = "<string>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise InvalidConfig(f"{origin}: {exc}") from exc
    known_sections = (
        "probe", "grid", "phantom", "capsnet", "mvdr", "prune", "quant",
        "accel", "regions",
    )
    unknown = sorted(set(parser.sections()) - set(known_sections))
    if unknown:
        raise InvalidConfig(f"unknown config sections {unknown}")

    kwargs: dict = {}

    if parser.has_section("probe"):
        sec = parser["probe"]
        _check_keys(
            "probe", sec,
            ("num_elements", "pitch_m", "speed_of_sound_mps", "sample_rate_hz",
             "center_freq_hz", "angles_deg"),
        )
        base = ProbeGeometry()
        kwargs["probe"] = ProbeGeometry(
            num_elements=_to_int("probe", "num_elements",
                                 sec.get("num_elements", str(base.num_elements))),
            pitch_m=_to_float("probe", "pitch_m", sec.get("pitch_m", str(base.pitch_m))),
            speed_of_sound_mps=_to_float(
                "probe", "speed_of_sound_mps",
                sec.get("speed_of_sound_mps", str(base.speed_of_sound_mps))),
            sample_rate_hz=_to_float("probe", "sample_rate_hz",
                                     sec.get("sample_rate_hz", str(base.sample_rate_hz))),
            center_freq_hz=_to_float("probe", "center_freq_hz",
                                     sec.get("center_freq_hz", str(base.center_freq_hz))),
        )
        if "angles_deg" in sec:
            kwargs["angles_deg"] = _float_list("probe", "angles_deg", sec["angles_deg"])

    if parser.has_section("grid"):
        sec = parser["grid"]
        _check_keys(
            "grid", sec,
            ("num_rows", "num_cols", "row_spacing_m", "col_spacing_m",
             "depth_origin_m", "dynamic_range_db"),
        )
        base = PixelGrid()
        kwargs["grid"] = PixelGrid(
            num_rows=_to_int("grid", "num_rows", sec.get("num_rows", str(base.num_rows))),
            num_cols=_to_int("grid", "num_cols", sec.get("num_cols", str(base.num_cols))),
            row_spacing_m=_to_float("grid", "row_spacing_m",
                                    sec.get("row_spacing_m", str(base.row_spacing_m))),
            col_spacing_m=_to_float("grid", "col_spacing_m",
                                    sec.get("col_spacing_m", str(base.col_spacing_m))),
            depth_origin_m=_to_float("grid", "depth_origin_m",
                                     sec.get("depth_origin_m", str(base.depth_origin_m))),
        )
        if "dynamic_range_db" in sec:
            kwargs["dynamic_range_db"] = _to_float(
                "grid", "dynamic_range_db", sec["dynamic_range_db"])

    if parser.has_section("phantom"):
        sec = parser["phantom"]
        _check_keys(
            "phantom", sec,
            ("points", "cysts", "background_per_mm2", "seed", "num_time_samples",
             "noise_std"),
        )
        points = tuple(
            (x, z, a)
            for x, z, a in _parse_triples("phantom", "points", sec.get("points", ""), 3)
        )
        cysts = tuple(
            CystRegion(cx, cz, r, echo)
            for cx, cz, r, echo in _parse_triples("phantom", "cysts", sec.get("cysts", ""), 4)
        )
        kwargs["phantom"] = Phantom(
            scatterers=points,
            cyst_regions=cysts,
            background_density_per_mm2=_to_float(
                "phantom", "background_per_mm2", sec.get("background_per_mm2", "0.0")),
            rng_seed=_to_int("phantom", "seed", sec.get("seed", "0")),
        )
        if "num_time_samples" in sec:
            kwargs["num_time_samples"] = _to_int(
                "phantom", "num_time_samples", sec["num_time_samples"])
        if "noise_std" in sec:
            kwargs["noise_std"] = _to_float("phantom", "noise_std", sec["noise_std"])

    if parser.has_section("capsnet"):
        sec = parser["capsnet"]
        _check_keys("capsnet", sec, ("conv", "caps", "routing", "fc"))
        base_net = default_config()
        net = CapsConfig(
            conv_layers=_parse_conv_layers(sec["conv"]) if "conv" in sec
            else base_net.conv_layers,
            caps_conv_layers=_parse_caps_layers(sec["caps"]) if "caps" in sec
            else base_net.caps_conv_layers,
            routing=_parse_routing(sec["routing"]) if "routing" in sec
            else base_net.routing,
            fc_layers=_parse_fc(sec["fc"]) if "fc" in sec else base_net.fc_layers,
        )
        net.validate()
        kwargs["capsnet"] = net

    if parser.has_section("mvdr"):
        sec = parser["mvdr"]
        _check_keys("mvdr", sec,
                    ("subarray_len", "temporal_half_window", "diagonal_loading"))
        base = MvdrParams()
        kwargs["mvdr"] = MvdrParams(
            subarray_len=_to_int("mvdr", "subarray_len",
                                 sec.get("subarray_len", str(base.subarray_len))),
            temporal_half_window=_to_int(
                "mvdr", "temporal_half_window",
                sec.get("temporal_half_window", str(base.temporal_half_window))),
            diagonal_loading=_to_float(
                "mvdr", "diagonal_loading",
                sec.get("diagonal_loading", str(base.diagonal_loading))),
        )

    if parser.has_section("prune"):
        sec = parser["prune"]
        _check_keys("prune", sec, ("method", "ratio", "lookahead"))
        method = sec.get("method", "lakp_ml").strip()
        if method not in METHODS:
            raise InvalidConfig(f"[prune] method: unknown {method!r}")
        kwargs["prune"] = PruneSettings(
            method=method,
            ratio=_to_float("prune", "ratio", sec.get("ratio", "0.85")),
            lookahead=_to_int("prune", "lookahead", sec.get("lookahead", "2")),
        )

    if parser.has_section("quant"):
        sec = parser["quant"]
        _check_keys("quant", sec, ("enabled",))
        kwargs["quant"] = QuantSettings(
            enabled=_to_bool("quant", "enabled", sec.get("enabled", "false")),
        )

    if parser.has_section("accel"):
        sec = parser["accel"]
        _check_keys(
            "accel", sec,
            ("pe_rows", "pe_cols", "clock_hz", "dma_count", "dma_beat_bytes",
             "word_bits", "bram_budget_bytes"),
        )
        base = AccelConfig()
        kwargs["accel"] = AccelConfig(
            pe_rows=_to_int("accel", "pe_rows", sec.get("pe_rows", str(base.pe_rows))),
            pe_cols=_to_int("accel", "pe_cols", sec.get("pe_cols", str(base.pe_cols))),
            clock_hz=_to_float("accel", "clock_hz", sec.get("clock_hz", str(base.clock_hz))),
            dma_count=_to_int("accel", "dma_count",
                              sec.get("dma_count", str(base.dma_count))),
            dma_beat_bytes=_to_int("accel", "dma_beat_bytes",
                                   sec.get("dma_beat_bytes", str(base.dma_beat_bytes))),
            word_bits=_to_int("accel", "word_bits", sec.get("word_bits", str(base.word_bits))),
            bram_budget_bytes=_to_int(
                "accel", "bram_budget_bytes",
                sec.get("bram_budget_bytes", str(base.bram_budget_bytes))),
        )

    if parser.has_section("regions"):
        kwargs["regions"] = _parse_regions(parser["regions"])

    kwargs["config_hash"] = hashlib.sha256(text.encode()).hexdigest()[:12]
    return RunConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=path)
