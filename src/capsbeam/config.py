"""Plain-text INI pipeline configuration.

Sections: [probe], [grid], [phantom], [capsnet], [mvdr], [prune],
[quant], [accel], [regions]. Every key is optional and falls back to the
library default, but unknown sections or keys are rejected so typos
cannot silently revert to defaults. Numeric values are SI unless the key
name says otherwise (angles in degrees, densities per mm^2).

[probe], [grid], [mvdr], [prune], [quant] and [accel] keys are the fields
of their settings dataclass (_SECTIONS), typed and defaulted by it. A NaN
or infinite number raises NonFinite naming [section] key, except that a
bad [phantom] noise_std (NaN, infinite or negative) raises InvalidConfig,
as simulate_rx does; a bad [prune] ratio or method is rejected at load.

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
import json
import math
import re
from dataclasses import dataclass, field, replace

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
from .errors import InvalidConfig, IoFailure, NonFinite, RatioOutOfRange
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

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidConfig(f"[prune] method: unknown {self.method!r}")
        if not 0.0 <= self.ratio < 1.0:
            raise RatioOutOfRange(f"[prune] ratio: {self.ratio} outside [0, 1)")
        # magnitude and lakp never read the radius; lakp_ml needs one >= 1.
        if self.method == "lakp_ml" and self.lookahead < 1:
            raise InvalidConfig(
                f"[prune] lookahead: {self.lookahead} below 1, which method lakp_ml needs"
            )


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

    def __post_init__(self):
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise InvalidConfig(
                f"[phantom] noise_std: {self.noise_std!r} is not finite and non-negative"
            )

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
        value = float(raw)
    except ValueError as exc:
        raise InvalidConfig(f"[{section}] {key}: not a number: {raw!r}") from exc
    # RunConfig rejects a NaN or inf noise_std as InvalidConfig, as simulate_rx does.
    if not math.isfinite(value) and key != "noise_std":
        raise NonFinite(f"[{section}] {key}: not finite: {raw!r}")
    return value


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
    return tuple(FcLayerCfg(a, b, relu=i < len(widths) - 2)
                 for i, (a, b) in enumerate(zip(widths, widths[1:])))


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


# Readers by the type of a field's default; bool first, since a bool is an int.
_READERS = ((bool, _to_bool), (int, _to_int), (float, _to_float), (tuple, _float_list))

# Sections read field by field: section -> (settings class, the fields of
# it the config may set, the RunConfig fields also read in that section).
# [phantom]'s own keys keep their own grammar (_parse_phantom).
_SECTIONS = {
    "probe": (ProbeGeometry, ("num_elements", "pitch_m", "speed_of_sound_mps",
                              "sample_rate_hz", "center_freq_hz"), ("angles_deg",)),
    "grid": (PixelGrid, ("num_rows", "num_cols", "row_spacing_m", "col_spacing_m",
                         "depth_origin_m"), ("dynamic_range_db",)),
    "phantom": (None, ("points", "cysts", "background_per_mm2", "seed"),
                ("num_time_samples", "noise_std")),
    "mvdr": (MvdrParams, ("subarray_len", "temporal_half_window", "diagonal_loading"), ()),
    "prune": (PruneSettings, ("method", "ratio", "lookahead"), ()),
    "quant": (QuantSettings, ("enabled",), ()),
    "accel": (AccelConfig, ("pe_rows", "pe_cols", "clock_hz", "dma_count",
                            "dma_beat_bytes", "word_bits", "bram_budget_bytes"), ()),
}

# [capsnet] key -> (CapsConfig field, grammar parser)
_CAPSNET_KEYS = {
    "conv": ("conv_layers", _parse_conv_layers),
    "caps": ("caps_conv_layers", _parse_caps_layers),
    "routing": ("routing", _parse_routing),
    "fc": ("fc_layers", _parse_fc),
}


def _read_fields(section: str, sec, keys, defaults) -> dict:
    """Parse each of keys present in sec by the type of its value in
    defaults; str values are taken as they are."""
    parsed = {}
    for key in keys:
        if key in sec:
            default = getattr(defaults, key)
            read = next((r for t, r in _READERS if isinstance(default, t)), None)
            parsed[key] = read(section, key, sec[key]) if read else sec[key]
    return parsed


def _parse_phantom(sec) -> Phantom:
    points = _parse_triples("phantom", "points", sec.get("points", ""), 3)
    cysts = _parse_triples("phantom", "cysts", sec.get("cysts", ""), 4)
    return Phantom(
        scatterers=tuple(points),
        cyst_regions=tuple(CystRegion(*c) for c in cysts),
        background_density_per_mm2=_to_float(
            "phantom", "background_per_mm2", sec.get("background_per_mm2", "0.0")),
        rng_seed=_to_int("phantom", "seed", sec.get("seed", "0")),
    )


def parse_config_text(text: str, origin: str = "<string>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise InvalidConfig(f"{origin}: {exc}") from exc
    unknown = sorted(set(parser.sections()) - {*_SECTIONS, "capsnet", "regions"})
    if unknown:
        raise InvalidConfig(f"unknown config sections {unknown}")

    kwargs: dict = {}
    run_defaults = RunConfig()
    for name, (cls, keys, run_keys) in _SECTIONS.items():
        if not parser.has_section(name):
            continue
        sec = parser[name]
        _check_keys(name, sec, keys + run_keys)
        kwargs[name] = (_parse_phantom(sec) if cls is None
                        else cls(**_read_fields(name, sec, keys, cls())))
        kwargs.update(_read_fields(name, sec, run_keys, run_defaults))

    if parser.has_section("capsnet"):
        sec = parser["capsnet"]
        _check_keys("capsnet", sec, _CAPSNET_KEYS)
        net = replace(default_config(), **{
            attr: parse(sec[key]) for key, (attr, parse) in _CAPSNET_KEYS.items() if key in sec
        })
        net.validate()
        kwargs["capsnet"] = net

    if parser.has_section("regions"):
        kwargs["regions"] = _parse_regions(parser["regions"])

    kwargs["config_hash"] = _settings_hash(parser)
    return RunConfig(**kwargs)


def _settings_hash(parser: configparser.ConfigParser) -> str:
    """Short sha256 of the parsed sections, keys and values in file order,
    so comments, blank lines and spacing leave it unchanged. Whitespace
    inside a value is dropped too: every value grammar above strips it
    or splits on punctuation, so it never changes a setting."""
    canonical = [[name, [[key, "".join(value.split())] for key, value in parser[name].items()]]
                 for name in parser.sections()]
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()[:12]


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=path)
