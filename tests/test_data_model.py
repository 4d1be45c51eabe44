"""Tensor/bundle file format and the parameter/op accounting."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsbeam.capsnet import RoutingCfg, default_config, toy_config
from capsbeam.data_model import (
    PixelGrid,
    ProbeGeometry,
    RfVolume,
    Tensor,
    WeightBundle,
    bundle_hash,
    count_flops,
    count_params,
    read_bundle_file,
    read_tensor_file,
    routing_flops_per_pixel,
    write_bundle_file,
    write_tensor_file,
)
from capsbeam.errors import (
    BadEncoding,
    BadMagic,
    DimOverflow,
    InvalidConfig,
    MissingWeight,
    NonFinite,
    ToolError,
    TruncatedFile,
    UnknownDtype,
)

# file format ---------------------------------------------------------------------


def test_scalar_file_is_25_bytes_with_frozen_layout(tmp_path):
    # 4 magic + 4 version + 1 dtype + 1 scale + 1 ndim + 2 reserved
    # + 8 dim + 4 payload = 25.
    t = Tensor.from_array(np.asarray([1.0], dtype=np.float32))
    raw = t.tobytes()
    expected = (
        b"CBTF"
        + struct.pack("<I", 1)
        + b"\x00"          # dtype float32
        + b"\x00"          # scale_exp
        + b"\x01"          # ndim
        + b"\x00\x00"      # reserved
        + struct.pack("<Q", 1)
        + struct.pack("<f", 1.0)
    )
    assert raw == expected
    assert len(raw) == 25
    path = tmp_path / "s.cbtf"
    write_tensor_file(t, path)
    assert path.stat().st_size == 25


def test_fixed16_header_bytes():
    t = Tensor.from_array(np.asarray([1, -2], dtype=np.int16), scale_exp=15)
    raw = t.tobytes()
    assert raw[8:9] == b"\x01"  # dtype byte
    assert raw[9] == 15         # scale byte
    assert raw[10] == 1         # ndim
    assert raw[13:21] == struct.pack("<Q", 2)
    assert raw[21:] == struct.pack("<hh", 1, -2)


def test_negative_scale_exp_survives_round_trip(tmp_path):
    t = Tensor.from_array(np.asarray([5], dtype=np.int16), scale_exp=-3)
    path = tmp_path / "n.cbtf"
    write_tensor_file(t, path)
    back = read_tensor_file(path)
    assert back.scale_exp == -3
    assert back.tobytes() == t.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.cbtf"
    path.write_bytes(b"XXXX" + b"\x00" * 30)
    with pytest.raises(BadMagic):
        read_tensor_file(path)


def test_truncated_header_and_payload(tmp_path):
    t = Tensor.from_array(np.arange(6, dtype=np.float32).reshape(2, 3))
    raw = t.tobytes()
    for cut in (3, 12, 20, len(raw) - 1):
        path = tmp_path / f"t{cut}.cbtf"
        path.write_bytes(raw[:cut])
        with pytest.raises(TruncatedFile):
            read_tensor_file(path)


def test_trailing_bytes_rejected(tmp_path):
    t = Tensor.from_array(np.asarray([1.0], dtype=np.float32))
    path = tmp_path / "t.cbtf"
    path.write_bytes(t.tobytes() + b"\x00")
    with pytest.raises(TruncatedFile):
        read_tensor_file(path)


def test_unknown_dtype_code(tmp_path):
    t = Tensor.from_array(np.asarray([1.0], dtype=np.float32))
    raw = bytearray(t.tobytes())
    raw[8] = 7
    path = tmp_path / "d.cbtf"
    path.write_bytes(bytes(raw))
    with pytest.raises(UnknownDtype):
        read_tensor_file(path)


def test_dim_overflow_rejected(tmp_path):
    t = Tensor.from_array(np.asarray([1.0], dtype=np.float32))
    raw = bytearray(t.tobytes())
    raw[13:21] = struct.pack("<Q", 1 << 41)
    path = tmp_path / "o.cbtf"
    path.write_bytes(bytes(raw))
    with pytest.raises(DimOverflow):
        read_tensor_file(path)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    fixed=st.booleans(),
    scale=st.integers(min_value=-8, max_value=15),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tensor_round_trip_property(tmp_path_factory, dims, fixed, scale, seed):
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    if fixed:
        arr = rng.integers(-32768, 32768, size=n, dtype=np.int16).reshape(dims)
        t = Tensor.from_array(arr, scale_exp=scale)
    else:
        arr = rng.normal(size=n).astype(np.float32).reshape(dims)
        t = Tensor.from_array(arr)
    path = tmp_path_factory.mktemp("rt") / "t.cbtf"
    write_tensor_file(t, path)
    back = read_tensor_file(path)
    assert back.dims == t.dims
    assert back.dtype == t.dtype
    assert back.scale_exp == t.scale_exp
    assert back.tobytes() == t.tobytes()


def test_bundle_round_trip_preserves_order_and_metadata(tmp_path):
    bundle = WeightBundle()
    bundle.entries["b.weight"] = Tensor.from_array(np.ones((2, 2), dtype=np.float32))
    bundle.entries["a.weight"] = Tensor.from_array(np.asarray([3], dtype=np.int16), scale_exp=4)
    bundle.metadata["init_seed"] = "9"
    path = tmp_path / "w.cbwb"
    write_bundle_file(bundle, path)
    back = read_bundle_file(path)
    assert list(back.entries) == ["b.weight", "a.weight"]
    assert back.metadata == {"init_seed": "9"}
    assert back.entries["a.weight"].tobytes() == bundle.entries["a.weight"].tobytes()
    assert bundle_hash(back) == bundle_hash(bundle)


def test_fixed16_rejects_values_the_cast_would_change():
    # Casting to int16 raws would store 40000 as -25536 and -1.7 as -1.
    with pytest.raises(InvalidConfig, match="40000"):
        Tensor(dims=(3,), dtype="fixed16", data=np.array([40000, -1.7, 3]))
    with pytest.raises(InvalidConfig, match="-1.7"):
        Tensor(dims=(3,), dtype="fixed16", data=np.array([4, -1.7, 3]))
    with pytest.raises(InvalidConfig, match="nan"):
        Tensor(dims=(1,), dtype="fixed16", data=np.array([np.nan]))
    with pytest.raises(InvalidConfig, match="70000"):
        Tensor.from_array(np.array([70000]))  # int64 would store 4464
    exact = Tensor(dims=(3,), dtype="fixed16", data=np.array([-32768.0, 3.0, 32767.0]))
    assert exact.data.dtype == np.int16
    assert exact.data.tolist() == [-32768, 3, 32767]
    assert Tensor.from_array(np.array([-32768, 32767])).data.tolist() == [-32768, 32767]


def test_float32_rejects_finite_values_the_cast_makes_infinite():
    # float32 would store 1e40 as inf; underflow to 0, and values already
    # non-finite, pass through as before.
    with pytest.raises(NonFinite, match="1e\\+40"):
        Tensor(dims=(2,), dtype="float32", data=np.array([1e40, 1e-50]))
    with pytest.raises(NonFinite, match="-1e\\+39"):
        Tensor(dims=(3,), dtype="float32", data=np.array([1.0, -1e39, 1e40]))
    kept = Tensor(dims=(4,), dtype="float32", data=np.array([1e-50, 3.0, np.inf, np.nan]))
    np.testing.assert_array_equal(kept.data, np.array([0.0, 3.0, np.inf, np.nan], np.float32))


def test_bundle_require_missing(toy_weights):
    with pytest.raises(MissingWeight):
        toy_weights.require("nope.weight")


def test_bundle_bad_magic(tmp_path):
    path = tmp_path / "x.cbwb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        read_bundle_file(path)


def _fuzz_bundle():
    bundle = WeightBundle()
    bundle.entries["conv0.weight"] = Tensor.from_array(
        np.arange(12, dtype=np.float32).reshape(1, 1, 3, 4))
    bundle.entries["conv0.bias"] = Tensor.from_array(np.asarray([-7, 300], dtype=np.int16),
                                                     scale_exp=9)
    bundle.metadata["init_seed"] = "9"
    bundle.metadata["note"] = "μ-law"
    return bundle


def test_bundle_non_utf8_name_or_value_names_the_entry(tmp_path):
    path = tmp_path / "w.cbwb"
    write_bundle_file(_fuzz_bundle(), path)
    blob = path.read_bytes()
    name_at = 12 + 2  # header, then entry 0's name length
    assert blob[name_at : name_at + 12] == b"conv0.weight"
    path.write_bytes(blob[:name_at] + b"\xff" + blob[name_at + 1 :])
    with pytest.raises(BadEncoding, match="entry 0 "):
        read_bundle_file(path)
    # Entry 3 is meta.note: name, 13-byte header, one u64 dim, then one
    # fixed16 word per UTF-8 byte of the value.
    value_at = blob.rindex(b"meta.note") + len(b"meta.note") + 13 + 8
    assert blob[value_at : value_at + 2] == bytes([0xCE, 0x00])
    path.write_bytes(blob[:value_at] + b"\xff" + blob[value_at + 1 :])
    with pytest.raises(BadEncoding, match="entry 3 "):
        read_bundle_file(path)


@pytest.mark.parametrize("raw", [321, -191, 256])
def test_bundle_metadata_raw_outside_a_byte_names_the_entry(tmp_path, raw):
    # 321 and -191 would wrap to 65, "A", in a uint8 cast.
    bundle = WeightBundle()
    bundle.entries["w"] = Tensor.from_array(np.zeros(1, dtype=np.float32))
    bundle.metadata["k"] = "A"
    path = tmp_path / "w.cbwb"
    write_bundle_file(bundle, path)
    blob = path.read_bytes()
    # Entry 1 is meta.k: name, 13-byte header, one u64 dim, then one fixed16 word.
    value_at = blob.rindex(b"meta.k") + len(b"meta.k") + 13 + 8
    assert blob[value_at:] == struct.pack("<h", ord("A"))
    path.write_bytes(blob[:value_at] + struct.pack("<h", raw))
    with pytest.raises(BadEncoding, match=f"entry 1 .*raw {raw},"):
        read_bundle_file(path)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["cbtf", "cbwb"]), truncate=st.booleans(), data=st.data())
def test_corrupt_files_parse_or_raise_tool_error(tmp_path_factory, kind, truncate, data):
    # Truncation at any offset, or any single byte overwritten, either
    # still parses or raises a ToolError: never a bare Python exception.
    path = tmp_path_factory.mktemp("fuzz") / f"x.{kind}"
    if kind == "cbtf":
        write_tensor_file(_fuzz_bundle().entries["conv0.weight"], path)
    else:
        write_bundle_file(_fuzz_bundle(), path)
    blob = path.read_bytes()
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if truncate:
        blob = blob[:at]
    else:
        blob = blob[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + blob[at + 1 :]
    path.write_bytes(blob)
    try:
        (read_tensor_file if kind == "cbtf" else read_bundle_file)(path)
    except ToolError:
        pass


# geometry ------------------------------------------------------------------------


def test_probe_element_positions_centered():
    geom = ProbeGeometry(num_elements=4, pitch_m=2.0)
    assert np.allclose(geom.element_positions(), [-3.0, -1.0, 1.0, 3.0])
    with pytest.raises(InvalidConfig):
        ProbeGeometry(num_elements=0)


def test_grid_axes():
    grid = PixelGrid(num_rows=3, num_cols=2, row_spacing_m=1e-3, col_spacing_m=2e-3,
                     depth_origin_m=5e-3)
    assert np.allclose(grid.row_depths, [5e-3, 6e-3, 7e-3])
    assert np.allclose(grid.col_positions, [-1e-3, 1e-3])
    assert grid.num_pixels == 6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, name", [
    (ProbeGeometry, "pitch_m"), (ProbeGeometry, "speed_of_sound_mps"),
    (ProbeGeometry, "sample_rate_hz"), (ProbeGeometry, "transmit_angle_rad"),
    (ProbeGeometry, "center_freq_hz"), (PixelGrid, "row_spacing_m"),
    (PixelGrid, "col_spacing_m"), (PixelGrid, "depth_origin_m"),
])
def test_geometry_rejects_non_finite(cls, name, bad):
    # NaN passes the x <= 0 checks, so each field needs its own finiteness check.
    with pytest.raises(NonFinite, match=f"{cls.__name__}.{name}"):
        cls(**{name: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rf_volume_rejects_non_finite(bad):
    grid = PixelGrid(num_rows=3, num_cols=2)
    samples = np.zeros((3, 2, 4), dtype=np.float32)
    RfVolume(grid=grid, num_channels=4, samples=samples)
    samples[2, 1, 3] = bad
    with pytest.raises(NonFinite):
        RfVolume(grid=grid, num_channels=4, samples=samples)


# accounting ----------------------------------------------------------------------


def test_default_param_count_breakdown():
    # Hand sum: 147584 + 101464 + 50752 + 4160 + 2080 + 528 + 136 + 18.
    assert count_params(default_config()) == 306_722


def test_default_flops_breakdown():
    per_layer = [
        2 * 47104 * 9 * 128 * 128,   # conv0
        2 * 47104 * 9 * 128 * 88,    # conv1
        2 * 47104 * 9 * 88 * 64,     # caps0
        2 * 47104 * 1 * 64 * 64,     # caps1
        2 * 47104 * 64 * 32,
        2 * 47104 * 32 * 16,
        2 * 47104 * 16 * 8,
        2 * 47104 * 8 * 2,
    ]
    assert per_layer[0] == 13_891_534_848
    routing = 47104 * routing_flops_per_pixel(RoutingCfg(8, 8, 8, 8, 3))
    assert count_flops(default_config(), PixelGrid()) == sum(per_layer) + routing
    assert count_flops(default_config(), PixelGrid()) == 29_156_622_336


def test_routing_flops_per_pixel_formula():
    # softmax 8*(3*8-1) + weighted 2*8*8*8 + squash 8*(3*8+4) per iteration,
    # agreement 2*8*8*8 charged between iterations only.
    per_iter = 8 * 23 + 1024 + 8 * 28
    assert routing_flops_per_pixel(RoutingCfg(8, 8, 8, 8, 3)) == 3 * per_iter + 2 * 1024


def test_count_additivity_over_single_layer_configs(toy_cfg):
    grid = PixelGrid(num_rows=16, num_cols=16)
    total_p = count_params(toy_cfg)
    total_f = count_flops(toy_cfg, grid)
    parts_p = parts_f = 0
    from capsbeam.capsnet import CapsConfig

    for layer in toy_cfg.conv_layers:
        sub = CapsConfig(conv_layers=(layer,))
        parts_p += count_params(sub)
        parts_f += count_flops(sub, grid)
    for layer in toy_cfg.caps_conv_layers:
        sub = CapsConfig(caps_conv_layers=(layer,))
        parts_p += count_params(sub)
        parts_f += count_flops(sub, grid)
    sub = CapsConfig(routing=toy_cfg.routing)
    parts_p += count_params(sub)
    parts_f += count_flops(sub, grid)
    for layer in toy_cfg.fc_layers:
        sub = CapsConfig(fc_layers=(layer,))
        parts_p += count_params(sub)
        parts_f += count_flops(sub, grid)
    assert (parts_p, parts_f) == (total_p, total_f)


def test_toy_config_is_inference_complete():
    toy_config().validate_for_inference()
