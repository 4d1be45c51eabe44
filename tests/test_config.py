"""INI configuration parsing: layer grammar, defaults, typo rejection."""

import math
import re
from dataclasses import replace

import pytest

from capsbeam.config import (
    DEFAULT_ANGLES_DEG,
    PruneSettings,
    RunConfig,
    load_config,
    parse_config_text,
)
from capsbeam.errors import InvalidConfig, IoFailure, NonFinite, RatioOutOfRange

DESK = "configs/desk.ini"
DEFAULT = "configs/default.ini"


def test_desk_config_parses():
    cfg = load_config(DESK)
    assert cfg.probe.num_elements == 8
    assert cfg.grid.num_rows == 16 and cfg.grid.num_cols == 16
    assert cfg.angles_deg == (-0.86, -0.43, 0.0, 0.43, 0.86)
    assert cfg.phantom.scatterers == ((0.0, 5.8e-3, 1.0),)
    assert len(cfg.phantom.cyst_regions) == 1
    assert cfg.phantom.background_density_per_mm2 == 2.0
    assert cfg.phantom.rng_seed == 1234
    assert cfg.num_time_samples == 384
    assert cfg.capsnet.conv_layers[0].out_ch == 8
    assert cfg.capsnet.routing.num_in_capsules == 2
    assert cfg.capsnet.fc_layers[-1].out_features == 2
    assert cfg.mvdr.subarray_len == 4
    assert cfg.prune.ratio == 0.5
    assert cfg.quant.enabled is True
    assert cfg.accel.pe_rows == 4
    assert cfg.dynamic_range_db == 60.0
    assert len(cfg.config_hash) == 12
    assert cfg.region("target_in").name == "cyst"
    assert cfg.region("background_out").kind == "rectangle"


def test_default_config_matches_library_defaults():
    cfg = load_config(DEFAULT)
    base = RunConfig()
    assert cfg.probe == base.probe
    assert cfg.grid == base.grid
    assert cfg.capsnet == base.capsnet
    assert cfg.accel == base.accel
    assert cfg.angles_deg == DEFAULT_ANGLES_DEG


def test_empty_text_gives_defaults():
    cfg = parse_config_text("")
    base = RunConfig()
    assert cfg.probe == base.probe
    assert cfg.grid == base.grid
    assert cfg.capsnet == base.capsnet
    assert cfg.mvdr == base.mvdr
    assert cfg.prune == base.prune
    assert cfg.quant.enabled is False
    assert cfg.regions == ()
    assert cfg.dynamic_range_db == 60.0
    assert cfg.config_hash != "default"  # hash of the empty text, still pinned


def test_angles_rad_conversion():
    cfg = parse_config_text("[probe]\nangles_deg = -3, 0, 3\n")
    assert cfg.angles_deg == (-3.0, 0.0, 3.0)
    assert cfg.angles_rad == pytest.approx(
        (math.radians(-3.0), 0.0, math.radians(3.0)))


def test_partial_section_keeps_other_defaults():
    cfg = parse_config_text("[grid]\nnum_rows = 32\n")
    assert cfg.grid.num_rows == 32
    assert cfg.grid.num_cols == RunConfig().grid.num_cols
    assert cfg.grid.row_spacing_m == RunConfig().grid.row_spacing_m


def test_unknown_section_rejected():
    with pytest.raises(InvalidConfig, match="unknown config sections"):
        parse_config_text("[probie]\nnum_elements = 8\n")


def test_unknown_key_rejected():
    with pytest.raises(InvalidConfig, match="unknown keys"):
        parse_config_text("[probe]\nnum_element = 8\n")
    with pytest.raises(InvalidConfig, match="unknown keys"):
        parse_config_text("[quant]\nbits = 16\n")


def test_type_errors_report_section_and_key():
    with pytest.raises(InvalidConfig, match=r"\[probe\] num_elements"):
        parse_config_text("[probe]\nnum_elements = eight\n")
    with pytest.raises(InvalidConfig, match=r"\[grid\] row_spacing_m"):
        parse_config_text("[grid]\nrow_spacing_m = tiny\n")
    with pytest.raises(InvalidConfig, match=r"\[quant\] enabled"):
        parse_config_text("[quant]\nenabled = maybe\n")


def test_conv_layer_grammar():
    cfg = parse_config_text("[capsnet]\nconv = 5x5:2->4:linear, 3x3:4->4\n"
                            "caps = 1x1:4->2x2\nrouting = 2,2,2,2,1\nfc = 4,2\n")
    c0, c1 = cfg.capsnet.conv_layers
    assert (c0.kernel_h, c0.kernel_w, c0.in_ch, c0.out_ch) == (5, 5, 2, 4)
    assert c0.relu is False
    assert c1.relu is True  # activation defaults to relu
    caps = cfg.capsnet.caps_conv_layers[0]
    assert (caps.num_capsules, caps.capsule_dim, caps.out_ch) == (2, 2, 4)
    assert cfg.capsnet.routing.num_iterations == 1
    fc = cfg.capsnet.fc_layers
    assert [(l.in_features, l.out_features, l.relu) for l in fc] == [(4, 2, False)]


def test_fc_grammar_relu_on_all_but_last():
    cfg = parse_config_text("[capsnet]\nfc = 64,32,16,8,2\n")
    relus = [l.relu for l in cfg.capsnet.fc_layers]
    assert relus == [True, True, True, False]
    widths = [(l.in_features, l.out_features) for l in cfg.capsnet.fc_layers]
    assert widths == [(64, 32), (32, 16), (16, 8), (8, 2)]


@pytest.mark.parametrize("line", [
    "conv = 3x3-128->128",
    "conv = 3x:8->8",
    "conv = 3x3:8=>8",
    "conv = 3x3:8->8:sigmoid",
    "conv =",
    "caps = 3x3:8->8",
    "caps = 3x3:8->2x2:relu",
    "routing = 8,8,8,8",
    "routing = 8,8,8,8,three",
    "fc = 8",
])
def test_bad_layer_grammar_rejected(line):
    with pytest.raises(InvalidConfig):
        parse_config_text(f"[capsnet]\n{line}\n")


def test_inconsistent_network_rejected_at_parse():
    # conv output width must feed the caps stage input
    with pytest.raises(InvalidConfig):
        parse_config_text("[capsnet]\nconv = 3x3:8->8\ncaps = 3x3:9->2x4\n"
                          "routing = 2,4,2,4,3\nfc = 8,2\n")


def test_phantom_triples_arity_checked():
    with pytest.raises(InvalidConfig, match="expected 3 numbers"):
        parse_config_text("[phantom]\npoints = 0.0, 5.8e-3\n")
    with pytest.raises(InvalidConfig, match="expected 4 numbers"):
        parse_config_text("[phantom]\ncysts = 0.0, 5.8e-3, 5.0e-4\n")
    cfg = parse_config_text(
        "[phantom]\npoints = 0,1e-2,1; 1e-3,2e-2,0.5\n")
    assert cfg.phantom.scatterers == ((0.0, 1e-2, 1.0), (1e-3, 2e-2, 0.5))


def test_region_grammar_and_roles():
    cfg = parse_config_text(
        "[regions]\n"
        "cyst = circle(0.0, 1.65e-2, 4.0e-3) target_in\n"
        "bg = rectangle(-1.2e-2, 2.4e-2, 1.2e-2, 2.8e-2) background_out\n"
        "extra = circle(0.0, 1.0e-2, 1.0e-3)\n")
    assert len(cfg.regions) == 3
    assert cfg.region("target_in").params == (0.0, 1.65e-2, 4.0e-3)
    assert cfg.regions[2].role == ""
    with pytest.raises(InvalidConfig):
        cfg.region("no_such_role")
    with pytest.raises(InvalidConfig):
        parse_config_text("[regions]\ncyst = sphere(0, 0, 1)\n")
    with pytest.raises(InvalidConfig):
        parse_config_text("[regions]\ncyst = circle(0, 0) target_in\n")


def test_config_hash_tracks_text():
    a = parse_config_text("[grid]\nnum_rows = 32\n")
    b = parse_config_text("[grid]\nnum_rows = 33\n")
    assert a.config_hash != b.config_hash
    assert a.config_hash == parse_config_text("[grid]\nnum_rows = 32\n").config_hash


def test_config_hash_ignores_comments_and_whitespace():
    with open(DESK) as fh:
        text = fh.read()
    base = parse_config_text(text).config_hash
    commented = "# another header line\n" + text.replace("[grid]\n", "[grid]\n; note\n")
    spaced = (text.replace(" = ", "   =\t").replace("\n[", "\n\n\n[")
              .replace("-0.86, -0.43, 0, 0.43, 0.86", "-0.86,-0.43,  0,0.43 ,0.86"))
    assert spaced != text
    assert parse_config_text(commented).config_hash == base
    assert parse_config_text(spaced).config_hash == base
    for edit in (("num_rows = 16", "num_rows = 17"), ("seed = 1234", "seed = 1235"),
                 ("0.43, 0.86", "0.43, 0.87")):
        assert edit[0] in text
        assert parse_config_text(text.replace(*edit)).config_hash != base, edit


def test_prune_method_checked():
    with pytest.raises(InvalidConfig, match=r"\[prune\] method"):
        parse_config_text("[prune]\nmethod = random\n")
    cfg = parse_config_text("[prune]\nmethod = magnitude\nratio = 0.3\n")
    assert cfg.prune.method == "magnitude"
    assert cfg.prune.lookahead == 2


def test_missing_file_raises_io_failure():
    with pytest.raises(IoFailure):
        load_config("configs/nonexistent.ini")


# Every key the config reads into a settings dataclass or into RunConfig
# itself: (section, key, text, parsed value). Listed here, not taken from
# the parser's table, so a key dropped from that table fails.
FIELD_KEYS = [
    ("probe", "num_elements", "16", 16),
    ("probe", "pitch_m", "2.5e-4", 2.5e-4),
    ("probe", "speed_of_sound_mps", "1480", 1480.0),
    ("probe", "sample_rate_hz", "40e6", 40e6),
    ("probe", "center_freq_hz", "5e6", 5e6),
    ("probe", "angles_deg", "-1, 1", (-1.0, 1.0)),
    ("grid", "num_rows", "32", 32),
    ("grid", "num_cols", "24", 24),
    ("grid", "row_spacing_m", "2e-4", 2e-4),
    ("grid", "col_spacing_m", "1e-4", 1e-4),
    ("grid", "depth_origin_m", "4e-3", 4e-3),
    ("grid", "dynamic_range_db", "40", 40.0),
    ("phantom", "num_time_samples", "512", 512),
    ("phantom", "noise_std", "0.5", 0.5),
    ("mvdr", "subarray_len", "16", 16),
    ("mvdr", "temporal_half_window", "3", 3),
    ("mvdr", "diagonal_loading", "0.1", 0.1),
    ("prune", "method", "magnitude", "magnitude"),
    ("prune", "ratio", "0.5", 0.5),
    ("prune", "lookahead", "3", 3),
    ("quant", "enabled", "yes", True),
    ("accel", "pe_rows", "8", 8),
    ("accel", "pe_cols", "64", 64),
    ("accel", "clock_hz", "2e8", 2e8),
    ("accel", "dma_count", "4", 4),
    ("accel", "dma_beat_bytes", "16", 16),
    ("accel", "word_bits", "32", 32),
    ("accel", "bram_budget_bytes", "65536", 65536),
]
RUN_KEYS = ("angles_deg", "dynamic_range_db", "num_time_samples", "noise_std")


@pytest.mark.parametrize("section,key,raw,value", FIELD_KEYS)
def test_field_key_round_trips(section, key, raw, value):
    cfg = parse_config_text(f"[{section}]\n{key} = {raw}\n")
    base = replace(RunConfig(), config_hash=cfg.config_hash)
    if key in RUN_KEYS:
        got, expected = getattr(cfg, key), replace(base, **{key: value})
    else:
        got = getattr(getattr(cfg, section), key)
        expected = replace(base, **{section: replace(getattr(base, section), **{key: value})})
    assert type(got) is type(value) and got == value
    assert cfg == expected  # every other field keeps its default
    assert repr(cfg) == repr(expected)


@pytest.mark.parametrize("section,key", [(s, k) for s, k, _, _ in FIELD_KEYS])
def test_malformed_field_value_names_section_and_key(section, key):
    with pytest.raises(InvalidConfig, match=rf"^\[{section}\] {key}: "):
        parse_config_text(f"[{section}]\n{key} = bogus\n")


def test_transmit_angle_is_not_a_config_key():
    with pytest.raises(InvalidConfig, match=r"unknown keys \['transmit_angle_rad'\]"):
        parse_config_text("[probe]\ntransmit_angle_rad = 0.1\n")


@pytest.mark.parametrize("text,where", [
    ("[grid]\nrow_spacing_m = nan\n", "[grid] row_spacing_m"),
    ("[grid]\ndepth_origin_m = inf\n", "[grid] depth_origin_m"),
    ("[probe]\npitch_m = nan\n", "[probe] pitch_m"),
    ("[probe]\nangles_deg = 0.0, nan\n", "[probe] angles_deg"),
    ("[mvdr]\ndiagonal_loading = nan\n", "[mvdr] diagonal_loading"),
    ("[accel]\nclock_hz = nan\n", "[accel] clock_hz"),
    ("[prune]\nratio = nan\n", "[prune] ratio"),
    ("[grid]\ndynamic_range_db = nan\n", "[grid] dynamic_range_db"),
    ("[phantom]\ncysts = 0.0, nan, 3.0e-3, 0.0\n", "[phantom] cysts"),
    ("[regions]\ncyst = circle(0.0, nan, 4.0e-3) target_in\n", "[regions] cyst"),
    ("[grid]\ncol_spacing_m = -inf\n", "[grid] col_spacing_m"),
])
def test_non_finite_numbers_rejected(text, where):
    with pytest.raises(NonFinite, match=re.escape(where)):
        parse_config_text(text)


@pytest.mark.parametrize("ratio", ["1.5", "1.0", "-0.1"])
def test_prune_ratio_checked_at_load(ratio):
    with pytest.raises(RatioOutOfRange, match=r"\[prune\] ratio"):
        parse_config_text(f"[prune]\nratio = {ratio}\n")


def test_prune_settings_check_themselves():
    assert PruneSettings(ratio=0.0) == PruneSettings(method="lakp_ml", ratio=0.0)
    with pytest.raises(RatioOutOfRange):
        PruneSettings(ratio=1.0)
    with pytest.raises(InvalidConfig, match=r"\[prune\] method: unknown 'random'"):
        PruneSettings(method="random")
    # Only lakp_ml reads the lookahead radius, so only it rejects one below 1.
    with pytest.raises(InvalidConfig, match=r"\[prune\] lookahead"):
        PruneSettings(method="lakp_ml", lookahead=0)
    with pytest.raises(InvalidConfig, match=r"\[prune\] lookahead"):
        parse_config_text("[prune]\nlookahead = -1\n")
    for method in ("magnitude", "lakp"):
        assert PruneSettings(method=method, lookahead=0).lookahead == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
def test_noise_std_checked_at_load(value):
    # Every command loads the config, so commands that never synthesise
    # (beamform, infer, metrics, prune) reject it too.
    with pytest.raises(InvalidConfig, match=re.escape("[phantom] noise_std")):
        parse_config_text(f"[phantom]\nnoise_std = {value}\n")
    with pytest.raises(InvalidConfig, match=re.escape("[phantom] noise_std")):
        RunConfig(noise_std=float(value))
    assert parse_config_text("[phantom]\nnoise_std = 0.5\n").noise_std == 0.5
