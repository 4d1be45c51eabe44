"""16-bit fixed-point path: rounding, Taylor exponential, softmax,
squash, calibration, and the integer network against the float one.

Key frozen values: quantize(0.5, f=15) -> 16384; exp_taylor5(0) is
exactly one at any scale; the degree-5 Taylor polynomial at +-1 is
65/24 and 0.375; a unit vector squashes to length 1/2.
"""

import hashlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsbeam import capsnet
from capsbeam.capsnet import infer, init_weights, toy_config
from capsbeam.data_model import PixelGrid, RfVolume, Tensor, WeightBundle
from capsbeam.errors import (
    EmptyCalibration,
    IndexOutOfRange,
    InvalidConfig,
    MissingScale,
    NonFinite,
    ShapeMismatch,
)
from capsbeam.pruning import ConvNetDescription, apply_mask, densify, plan_prune
from capsbeam.quantized import (
    MAX_EXACT_TAPS,
    MAX_SCALE_EXP,
    TAYLOR_INPUT_HI,
    TAYLOR_INPUT_LO,
    FixedPoint16,
    QuantPlan,
    _int_conv,
    _softmax_rows,
    _squash_rows,
    calibrate,
    dequantize_array,
    exp_taylor5,
    infer_quantized,
    plan_from_bundle,
    plan_to_entries,
    quantize,
    quantize_array,
    quantize_bundle,
    requantize,
    scale_for_max,
    shift_round,
)

# ---------------------------------------------------------------- quantize


def test_quantize_frozen_values():
    assert quantize(0.5, 15).raw == 16384
    assert quantize(2.0, 15).raw == 32767       # saturates
    assert quantize(-2.0, 15).raw == -32768
    assert quantize(-0.5 * 2.0**-15, 15).raw == -1  # half away from zero
    assert quantize(0.0, 12).raw == 0
    assert quantize(1.0, 12).raw == 4096


def test_round_half_away_from_zero_not_to_even():
    assert quantize(2.5 * 2.0**-12, 12).raw == 3
    assert quantize(-2.5 * 2.0**-12, 12).raw == -3
    assert quantize(1.5 * 2.0**-12, 12).raw == 2


def test_fixed_point_value_and_bounds():
    x = FixedPoint16(raw=-1024, scale_exp=12)
    assert x.value == -0.25
    with pytest.raises(InvalidConfig):
        FixedPoint16(raw=40000, scale_exp=12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1.9, 1.9, allow_nan=False), st.floats(-1.9, 1.9, allow_nan=False),
       st.integers(0, 14))
def test_quantize_monotone_and_tight(x, y, f):
    qx, qy = quantize(x, f), quantize(y, f)
    if x <= y:
        assert qx.raw <= qy.raw
    assert abs(qx.value - x) <= 2.0 ** -(f + 1) + 1e-12


def test_shift_round_exact_cases():
    np.testing.assert_array_equal(shift_round(np.array([5, -5]), 1), [3, -3])
    np.testing.assert_array_equal(shift_round(np.array([4, -4]), 2), [1, -1])
    np.testing.assert_array_equal(shift_round(np.array([3]), -2), [12])
    np.testing.assert_array_equal(shift_round(np.array([7]), 0), [7])


def test_requantize_saturates_then_shifts():
    # 2^40 exceeds the 32-bit accumulator; it clamps there first, then
    # the shift and 16-bit clamp apply.
    assert requantize(np.array([2**40]), 8, 0)[0] == 32767
    assert requantize(np.array([-(2**40)]), 8, 0)[0] == -32768
    assert requantize(np.array([768]), 8, 4)[0] == 48
    assert requantize(np.array([24]), 4, 8)[0] == 384  # upshift is exact


def test_scale_for_max_frozen():
    assert scale_for_max(1.0) == 14
    assert scale_for_max(0.0) == 15  # clamped at the int16 maximum scale
    assert scale_for_max(3.9) == 12
    assert scale_for_max(0.25) == 15  # 14 - (-2) = 16, capped
    assert scale_for_max(2.0) == 13
    assert MAX_SCALE_EXP == 15


@settings(max_examples=60, deadline=None)
@given(st.floats(2.0**-14, 4000.0, allow_nan=False))
def test_scale_for_max_keeps_value_representable(m):
    f = scale_for_max(m)
    # the chosen scale never overflows int16 for magnitude m, and it
    # wastes at most one bit of headroom
    assert m * 2.0**f <= 32768.0 + 1e-6
    if f < 15:
        assert m * 2.0 ** (f + 1) > 16384.0


# ---------------------------------------------------------------- exp_taylor5


def test_exp_taylor_frozen_points():
    f = 12
    one = quantize(1.0, f)
    zero = quantize(0.0, f)
    minus = quantize(-1.0, f)
    assert exp_taylor5(zero).raw == 4096  # exactly 1.0
    # p(1) = 65/24, p(-1) = 3/8; one final rounding each
    assert abs(exp_taylor5(one).value - 65.0 / 24.0) <= 2.0 ** -(f - 2)
    assert exp_taylor5(minus).raw == 1536  # 0.375 * 4096, exact
    assert abs(exp_taylor5(minus).value - 0.375) <= 2.0 ** -(f - 2)


def test_exp_taylor_exact_one_at_any_scale():
    for f in (0, 4, 8, 12, 14):
        assert exp_taylor5(FixedPoint16(raw=0, scale_exp=f)).raw == 2**f
    # f=15 cannot represent 1.0; the output clamps at the int16 ceiling
    assert exp_taylor5(FixedPoint16(raw=0, scale_exp=15)).raw == 32767


def test_exp_taylor_clamps_domain():
    f = 12
    lo = exp_taylor5(FixedPoint16(raw=-32768, scale_exp=f))
    at_lo = exp_taylor5(quantize(TAYLOR_INPUT_LO, f))
    assert lo.raw == at_lo.raw
    hi = exp_taylor5(FixedPoint16(raw=32767, scale_exp=f))
    at_hi = exp_taylor5(quantize(TAYLOR_INPUT_HI, f))
    assert hi.raw == at_hi.raw
    assert TAYLOR_INPUT_LO == -1.59375 and TAYLOR_INPUT_HI == 2.0


def test_exp_taylor_exhaustive_monotone_nonnegative():
    # Every representable int16 input at f=12, in one sweep: outputs are
    # non-negative and non-decreasing in the input.
    f = 12
    from capsbeam.quantized import _exp_taylor5_raw

    raws = np.arange(-32768, 32768, dtype=np.int64)
    out = _exp_taylor5_raw(raws, f)
    assert out.min() >= 0
    assert np.all(np.diff(out) >= 0)


def test_exp_taylor_equals_exact_integer_oracle():
    # Exhaustive for f = 0..15 over every int16 input inside the clamp
    # window: 24 * 2^3f * p(x) by Horner in Python ints (the f = 15
    # constant term 24 * 2^60 overflows int64), divided by 24 * 2^3f with
    # round half away from zero. Above 2^53 the float64 Horner sum in
    # _exp_taylor5_raw is not exact, so this pins that it still agrees.
    from capsbeam.quantized import INT16_MAX, INT16_MIN, _exp_taylor5_raw

    assert TAYLOR_INPUT_LO * 32 == -51 and TAYLOR_INPUT_HI == 2.0
    points = 0
    for f in range(MAX_SCALE_EXP + 1):
        one = 2**f
        # -51/32 * 2^f rounded half away from zero, and 2 * 2^f, within int16.
        lo = max(-((51 * one + 16) // 32), INT16_MIN)
        hi = min(2 * one, INT16_MAX)
        den = 24 * one**3
        expected = []
        for x in range(lo, hi + 1):
            g = (((x + 4 * one) * x + 12 * one**2) * x + 24 * one**3) * x + 24 * one**4
            q = (2 * abs(g) + den) // (2 * den)
            expected.append(min(max(q if g >= 0 else -q, 0), INT16_MAX))
        got = _exp_taylor5_raw(np.arange(lo, hi + 1), f)
        np.testing.assert_array_equal(got, expected, err_msg=f"f={f}")
        points += hi - lo + 1
    assert points == 183_307


def test_exp_taylor_tracks_reference_inside_domain():
    f = 12
    xs = np.linspace(-1.5, 2.0, 113)
    for x in xs:
        q = quantize(float(x), f)
        ref = 1 + x + x**2 / 2 + x**3 / 6 + x**4 / 24
        assert abs(exp_taylor5(q).value - ref) <= 2.0 ** -(f - 2) + abs(ref) * 2.0**-10


# ---------------------------------------------------------------- softmax


def test_fixed_softmax_uniform_is_exact():
    f = 12
    out = _softmax_rows([quantize(0.3, f).raw] * 4, f)
    assert out.tolist() == [1024] * 4
    assert dequantize_array(out, f).tolist() == [0.25] * 4


def test_fixed_softmax_two_to_one():
    f = 12
    out = dequantize_array(_softmax_rows(quantize_array([np.log(2.0), 0.0], f), f), f)
    assert abs(out[0] - 2.0 / 3.0) < 0.01
    assert abs(out[1] - 1.0 / 3.0) < 0.01


def test_fixed_softmax_sums_near_one():
    rng = np.random.default_rng(0)
    f = 12
    for _ in range(50):
        n = int(rng.integers(2, 9))
        logits = quantize_array(rng.uniform(-1.5, 1.5, n), f)
        total = int(_softmax_rows(logits, f).astype(np.int64).sum())
        assert abs(total - 2**f) <= n


# ---------------------------------------------------------------- squash


def test_fixed_squash_unit_vector_halves():
    f = 12
    out = _squash_rows(quantize_array([1.0, 0.0, 0.0], f), f)
    assert out.tolist() == [2048, 0, 0]
    assert abs(dequantize_array(out[0], f) - 0.5) <= 2.0 ** -(f - 3)


def test_fixed_squash_zero_is_zero():
    assert not _squash_rows(np.zeros(4, dtype=np.int16), 12).any()


def test_fixed_squash_norm_below_one_in_calibrated_domain():
    # Calibration leaves a bit of headroom, so squash sees components at
    # most 2^14 in raw magnitude; inside that domain the 32-bit energy
    # sum cannot clamp and the output norm stays below one.
    rng = np.random.default_rng(1)
    f = 12
    worst = 0.0
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        out = _squash_rows(rng.integers(-16384, 16385, n), f)
        worst = max(worst, float(np.linalg.norm(dequantize_array(out, f))))
    assert worst < 1.0


def test_fixed_squash_energy_saturation_is_clamped():
    # Outside the calibrated domain the energy accumulator clamps at
    # int32 max (2147483647, isqrt 46340) and the under-divided result
    # may exceed unit norm; frozen example documents the boundary.
    out = _squash_rows(np.full(6, -32768, dtype=np.int16), 12)
    assert out.tolist() == [-2874] * 6


# ---------------------------------------------------------------- plans / bundles


def test_plan_entries_round_trip():
    from capsbeam.quantized import QuantPlan

    plan = QuantPlan(scales={"conv0.weight": 13, "input": 11, "fc0.out": 9})
    bundle = WeightBundle()
    bundle.entries.update(plan_to_entries(plan))
    back = plan_from_bundle(bundle)
    assert back.scales == plan.scales
    with pytest.raises(MissingScale):
        back.scale("missing.name")
    with pytest.raises(MissingScale):
        plan_from_bundle(WeightBundle())


@pytest.mark.parametrize("dtype, raws", [
    ("fixed16", [9, 9, 9]), ("fixed16", [MAX_SCALE_EXP + 1]), ("fixed16", [31]),
    ("float32", [np.nan]), ("float32", [3.5]),
])
def test_plan_from_bundle_rejects_a_bad_scale_entry(dtype, raws):
    # A file's scale entry is read as is: a longer entry would lose all but
    # its first value, past MAX_SCALE_EXP _squash_rows overflows int64 (at
    # f = 31 it flips the signs of [100, 200, -300, 50]), and a float is no
    # shift count.
    bundle = WeightBundle()
    bundle.entries.update(plan_to_entries(QuantPlan(scales={"input": 11})))
    bundle.entries["caps0.pre.scale"] = Tensor(
        dims=(len(raws),), dtype=dtype, data=np.array(raws), scale_exp=0)
    message = re.escape(f"caps0.pre.scale holds {dtype} {raws}, not one fixed16 scale <= ")
    with pytest.raises(InvalidConfig, match=message):
        plan_from_bundle(bundle)
    bundle.entries["caps0.pre.scale"] = Tensor(
        dims=(1,), dtype="fixed16", data=np.array([MAX_SCALE_EXP]), scale_exp=0)
    assert plan_from_bundle(bundle).scales == {"input": 11, "caps0.pre": MAX_SCALE_EXP}


def test_quantize_bundle_converts_floats(toy_cfg, toy_weights, toy_rf):
    plan = calibrate(toy_weights, [toy_rf], toy_cfg)
    qb = quantize_bundle(toy_weights, plan)
    w = qb.entries["conv0.weight"]
    assert w.dtype == "fixed16"
    assert w.data.dtype == np.int16
    assert w.scale_exp == plan.scales["conv0.weight"]
    assert "conv0.weight.scale" in qb.entries
    assert qb.metadata["quantization"] == "fixed16"
    # quantized values match direct quantization of the float weights
    np.testing.assert_array_equal(
        w.data, quantize_array(toy_weights.entries["conv0.weight"].data,
                               w.scale_exp))


def test_calibrate_requires_samples(toy_cfg, toy_weights):
    with pytest.raises(EmptyCalibration):
        calibrate(toy_weights, [], toy_cfg)


def test_calibrate_covers_weights_and_activations(toy_cfg, toy_weights, toy_rf):
    plan = calibrate(toy_weights, [toy_rf], toy_cfg)
    for name in ("input", "conv0.weight", "conv0.bias", "conv0.out",
                 "caps0.pre", "caps0.out", "routing.logits", "routing.pre",
                 "routing.out", "fc3.out"):
        assert name in plan.scales, name
    assert all(0 <= f <= 15 for f in plan.scales.values())


# ---------------------------------------------------------------- integer network


def test_infer_quantized_tracks_float(toy_cfg, toy_weights, toy_rf):
    plan = calibrate(toy_weights, [toy_rf], toy_cfg)
    qb = quantize_bundle(toy_weights, plan)
    ref = infer(toy_rf, toy_cfg, toy_weights)
    got = infer_quantized(toy_rf, toy_cfg, qb)
    assert np.max(np.abs(got.i_part - ref.i_part)) <= 2.0**-7
    assert np.max(np.abs(got.q_part - ref.q_part)) <= 2.0**-7


def test_infer_quantized_tracks_float_on_a_signal(toy_cfg, loud_toy_weights, wide_rf):
    # Unlike the toy case above, whose fixed-point output is all zero,
    # this output carries signal: an all-zero output fails here.
    plan = calibrate(loud_toy_weights, [wide_rf], toy_cfg)
    got = infer_quantized(wide_rf, toy_cfg, quantize_bundle(loud_toy_weights, plan))
    ref = infer(wide_rf, toy_cfg, loud_toy_weights)
    got_iq = np.stack([got.i_part, got.q_part])
    ref_iq = np.stack([ref.i_part, ref.q_part])
    dev = float(np.max(np.abs(got_iq - ref_iq)))
    assert dev <= 2.0**-7
    assert dev <= 0.01 * float(np.max(np.abs(ref_iq)))
    assert np.unique(got_iq).size >= 1000


def test_infer_quantized_rejects_a_negative_squash_scale(toy_cfg, toy_weights, toy_grid):
    # RF of standard deviation 1e4 calibrates caps0.pre to f = -1; a
    # squash at that scale would round every output to zero.
    rng = np.random.default_rng(7)
    samples = rng.normal(scale=1e4, size=(16, 16, 8)).astype(np.float32)
    rf = RfVolume(grid=toy_grid, num_channels=8, samples=samples)
    plan = calibrate(toy_weights, [rf], toy_cfg)
    assert plan.scale("caps0.pre") < 0
    with pytest.raises(InvalidConfig):
        infer_quantized(rf, toy_cfg, quantize_bundle(toy_weights, plan))


def test_infer_quantized_deterministic(toy_cfg, toy_weights, toy_rf):
    plan = calibrate(toy_weights, [toy_rf], toy_cfg)
    qb = quantize_bundle(toy_weights, plan)
    a = infer_quantized(toy_rf, toy_cfg, qb)
    b = infer_quantized(toy_rf, toy_cfg, qb)
    np.testing.assert_array_equal(a.i_part, b.i_part)
    np.testing.assert_array_equal(a.q_part, b.q_part)


def test_infer_quantized_bytes_independent_of_threads_and_blocks(monkeypatch, toy_cfg,
                                                                 loud_toy_weights, wide_rf):
    qbundle = quantize_bundle(loud_toy_weights, calibrate(loud_toy_weights, [wide_rf], toy_cfg))
    # Reference: one conv chunk and one routing block, on one thread.
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**40)
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 10**9)
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    ref = infer_quantized(wide_rf, toy_cfg, qbundle)
    assert len(np.unique(ref.i_part)) > 1000
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**16)  # conv0: 2 rows a chunk
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)  # 7 blocks of 10 rows
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("CAPSBEAM_THREADS", threads)
        env = infer_quantized(wide_rf, toy_cfg, qbundle)
        assert env.i_part.tobytes() == ref.i_part.tobytes(), threads
        assert env.q_part.tobytes() == ref.q_part.tobytes(), threads


def test_pipeline_routing_squashes_once_per_block(monkeypatch, toy_cfg, loud_toy_weights,
                                                  wide_rf):
    # infer's broadcast predictions keep every logit row constant, so both
    # paths stop routing after the first of the toy net's 3 iterations: one
    # routing squash ([pixels, n_out, dim]) per pixel block, beside one
    # squash ([rows, cols, n_caps, dim]) per caps layer per streamed block.
    from capsbeam import quantized

    qbundle = quantize_bundle(loud_toy_weights, calibrate(loud_toy_weights, [wide_rf], toy_cfg))
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)  # 7 blocks of 10 rows
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    assert toy_cfg.routing.num_iterations == 3
    for module, name, run in (
        (capsnet, "squash", lambda: infer(wide_rf, toy_cfg, loud_toy_weights)),
        (quantized, "_squash_rows", lambda: infer_quantized(wide_rf, toy_cfg, qbundle)),
    ):
        squash_fn, ranks = getattr(module, name), []

        def counted(s, *args, squash_fn=squash_fn, **kwargs):
            ranks.append(np.ndim(s))
            return squash_fn(s, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        run()
        monkeypatch.setattr(module, name, squash_fn)
        assert ranks.count(3) == 7, name
        assert ranks.count(4) == 7 * len(toy_cfg.caps_conv_layers), name


def test_calibrate_independent_of_threads(monkeypatch, toy_cfg, loud_toy_weights, wide_rf):
    # Workers trace their own blocks and the maxima are folded after they
    # finish. More workers than cores and a short switch interval give a
    # lost or torn update every chance to show in the trace.
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**16)
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    ref_plan = calibrate(loud_toy_weights, [wide_rf], toy_cfg)
    ref_trace: dict = {}
    infer(wide_rf, toy_cfg, loud_toy_weights, trace=ref_trace)
    monkeypatch.setenv("CAPSBEAM_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        plan = calibrate(loud_toy_weights, [wide_rf], toy_cfg)
        trace: dict = {}
        infer(wide_rf, toy_cfg, loud_toy_weights, trace=trace)
    finally:
        sys.setswitchinterval(interval)
    assert plan.scales == ref_plan.scales
    assert trace == ref_trace


def test_infer_quantized_float_bundle_with_plan(toy_cfg, toy_weights, toy_rf):
    # A float bundle plus an explicit plan quantizes on the fly and must
    # agree exactly with the pre-quantized run.
    plan = calibrate(toy_weights, [toy_rf], toy_cfg)
    qb = quantize_bundle(toy_weights, plan)
    a = infer_quantized(toy_rf, toy_cfg, qb)
    b = infer_quantized(toy_rf, toy_cfg, toy_weights, plan=plan)
    np.testing.assert_array_equal(a.i_part, b.i_part)
    np.testing.assert_array_equal(a.q_part, b.q_part)


def test_zero_weights_give_zero_output(toy_cfg, toy_rf):
    bundle = init_weights(toy_cfg, seed=0)
    for name, entry in bundle.entries.items():
        bundle.entries[name] = Tensor.from_array(np.zeros_like(entry.data))
    plan = calibrate(bundle, [toy_rf], toy_cfg)
    out = infer_quantized(toy_rf, toy_cfg, quantize_bundle(bundle, plan))
    assert np.all(out.i_part == 0.0)
    assert np.all(out.q_part == 0.0)


def test_infer_quantized_channel_mismatch(toy_cfg, toy_weights, toy_rf):
    from capsbeam.data_model import PixelGrid

    plan = calibrate(toy_weights, [toy_rf], toy_cfg)
    qb = quantize_bundle(toy_weights, plan)
    rf = RfVolume(grid=PixelGrid(num_rows=16, num_cols=16), num_channels=3,
                  samples=np.zeros((16, 16, 3), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        infer_quantized(rf, toy_cfg, qb)


def test_infer_quantized_needs_scales(toy_cfg, toy_weights, toy_rf):
    with pytest.raises(MissingScale):
        infer_quantized(toy_rf, toy_cfg, toy_weights)


# ---------------------------------------------------------------- weight checks, both paths


@pytest.fixture(scope="module")
def toy_plan(toy_cfg, toy_weights, toy_rf):
    return calibrate(toy_weights, [toy_rf], toy_cfg)


def _run_path(path, rf, cfg, bundle, plan):
    if path == "infer":
        return infer(rf, cfg, bundle)
    return infer_quantized(rf, cfg, bundle, plan=plan)


def _with_entry(bundle, name, data):
    out = bundle.copy()
    out.entries[name] = Tensor.from_array(data)
    return out


TOY_ACTIVATIONS = [
    "input", "conv0.out", "conv1.out", "caps0.pre", "caps0.out", "caps1.pre", "caps1.out",
    "routing.logits", "routing.pre", "routing.out", "fc0.out", "fc1.out", "fc2.out", "fc3.out",
]


@pytest.mark.parametrize("name", TOY_ACTIVATIONS)
def test_every_activation_name_is_walked(name, toy_cfg, toy_weights, toy_rf, toy_plan):
    # Only the layer walk states the activation names: the float trace
    # holds exactly the plan's, and the fixed path looks up every one.
    trace: dict = {}
    infer(toy_rf, toy_cfg, toy_weights, trace=trace)
    weights = {f"{layer}.{kind}" for layer in toy_cfg.layer_names() for kind in ("weight", "bias")}
    assert set(trace) == set(toy_plan.scales) - weights == set(TOY_ACTIVATIONS)
    plan = QuantPlan({k: f for k, f in toy_plan.scales.items() if k != name})
    with pytest.raises(MissingScale, match=re.escape(repr(name))):
        infer_quantized(toy_rf, toy_cfg, toy_weights, plan=plan)


@pytest.mark.parametrize("path", ["infer", "infer_quantized"])
@pytest.mark.parametrize("kind", ["weight", "bias"])
@pytest.mark.parametrize("layer", toy_config().layer_names())
def test_wrong_entry_dims_raise_shape_mismatch(layer, kind, path, toy_cfg, toy_weights,
                                               toy_rf, toy_plan):
    # One output channel: a [1] bias or an fc3 [4, 1] weight would broadcast
    # silently; a narrower inner layer would break the next matmul.
    name = f"{layer}.{kind}"
    bad = _with_entry(toy_weights, name, toy_weights.entries[name].data[..., :1])
    with pytest.raises(ShapeMismatch, match=name):
        _run_path(path, toy_rf, toy_cfg, bad, toy_plan)


@pytest.mark.parametrize("path", ["infer", "infer_quantized"])
@pytest.mark.parametrize("name,value", [("conv1.weight", np.nan), ("caps0.weight", -np.inf),
                                        ("fc2.bias", np.inf)])
def test_non_finite_weights_raise(name, value, path, toy_cfg, toy_weights, toy_rf, toy_plan):
    data = toy_weights.entries[name].data.copy()
    data.flat[1] = value
    with pytest.raises(NonFinite, match=name.split(".")[0]):
        _run_path(path, toy_rf, toy_cfg, _with_entry(toy_weights, name, data), toy_plan)


def test_dequantize_round_trip_array():
    f = 11
    vals = np.array([-1.5, -0.25, 0.0, 0.013, 1.999])
    raw = quantize_array(vals, f)
    assert raw.dtype == np.int16
    back = dequantize_array(raw, f)
    assert np.max(np.abs(back - vals)) <= 2.0 ** -(f + 1)


def test_int_conv_exact_at_worst_case_magnitudes():
    # Every product is (-32768)^2 = 2^30 and interior pixels sum 3*3*128 of
    # them: 2^40.2, far from float64's 2^53 limit but past int32 and float32.
    x = np.full((4, 5, 128), -32768, dtype=np.int16)
    w = np.full((3, 3, 128, 2), -32768, dtype=np.int16)
    padded = np.pad(x.astype(np.int64), ((1, 1), (1, 1), (0, 0)))
    expected = sum(
        padded[dy:dy + 4, dx:dx + 5] @ w[dy, dx].astype(np.int64)
        for dy in range(3) for dx in range(3)
    )
    got = _int_conv(x, w)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    assert got[1, 1, 0] == 3 * 3 * 128 * 2**30


def test_int_conv_rejects_inexact_tap_count_before_converting():
    import tracemalloc

    taps = MAX_EXACT_TAPS + 1
    # Zero-stride views: converting either to float64 would allocate 64 MB.
    x = np.broadcast_to(np.int16(1), (1, 1, taps))
    w = np.broadcast_to(np.int16(1), (1, 1, taps, 1))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfig):
            _int_conv(x, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_infer_quantized_converts_each_layer_once(monkeypatch, toy_cfg, loud_toy_weights,
                                                  wide_rf):
    # walk runs every layer once a pixel block (7 blocks of wide_rf here,
    # on 2 workers), but each layer's int16 weights go to float64 once.
    from capsbeam import quantized

    qbundle = quantize_bundle(loud_toy_weights, calibrate(loud_toy_weights, [wide_rf], toy_cfg))
    convert = quantized._exact_float_weights
    shapes = []
    monkeypatch.setattr(quantized, "_exact_float_weights",
                        lambda w: shapes.append(w.shape) or convert(w))
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)
    monkeypatch.setenv("CAPSBEAM_THREADS", "2")
    infer_quantized(wide_rf, toy_cfg, qbundle)
    expect = [(layer.kernel_h, layer.kernel_w, layer.in_ch, layer.out_ch)
              for layer in toy_cfg.weighted_layers()]
    assert shapes == expect


# ---------------------------------------------------------------- frozen network bytes


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("threads", ["1", "3"])
def test_network_bytes_frozen(threads, monkeypatch, toy_cfg, loud_toy_weights, wide_rf):
    # The calibrated plan and the fixed I/Q on many conv chunks and routing
    # blocks; the digests were taken before the float and fixed paths
    # shared one layer walk. Float I/Q and traces are not frozen: their
    # gemms sum in the order of the BLAS kernel the machine picks, and
    # test_float32_convs_track_a_float64_reference bounds them instead.
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**12)
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)
    monkeypatch.setenv("CAPSBEAM_THREADS", threads)
    plan = calibrate(loud_toy_weights, [wide_rf], toy_cfg)
    fixed = infer_quantized(wide_rf, toy_cfg, quantize_bundle(loud_toy_weights, plan))
    got = {
        "plan": _digest(sorted(plan.scales.items())),
        "infer_quantized": _digest(fixed.i_part.tobytes(), fixed.q_part.tobytes()),
    }
    assert got == {
        "plan": "8444e671b79140bd",
        "infer_quantized": "1d116a1b825cbc61",
    }


# ---------------------------------------------------------------- streamed walk


def _network_outputs(cfg, bundle, rf):
    trace: dict = {}
    env = infer(rf, cfg, bundle, trace=trace)
    plan = calibrate(bundle, [rf], cfg)
    fixed = infer_quantized(rf, cfg, quantize_bundle(bundle, plan))
    return {
        "infer": env.i_part.tobytes() + env.q_part.tobytes(),
        "trace": trace,
        "plan": plan.scales,
        "infer_quantized": fixed.i_part.tobytes() + fixed.q_part.tobytes(),
    }


@pytest.fixture(scope="module")
def whole_frame_outputs(toy_cfg, loud_toy_weights, wide_rf):
    # Layer by layer: one conv chunk, one block, one thread.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capsnet, "_IM2COL_BYTES", 2**40)
        mp.setattr(capsnet, "_PIXEL_BLOCK", 10**9)
        mp.setenv("CAPSBEAM_THREADS", "1")
        return _network_outputs(toy_cfg, loud_toy_weights, wide_rf)


@pytest.mark.parametrize("threads", ["1", "2", "4"])
@pytest.mark.parametrize("pixel_block", [  # a band is one streamed block
    pytest.param(400, id="one-block-per-band"),  # 7 blocks of 10 rows
    pytest.param(80, id="bands-shorter-than-halo"),  # 35 blocks of 2 rows
    pytest.param(1360, id="band-ends-mid-halo"),  # 34, 34 and 2 rows
    pytest.param(2800, id="one-band"),  # 70 rows, the whole frame
])
def test_banded_walk_matches_whole_frame(pixel_block, threads, monkeypatch, toy_cfg,
                                         loud_toy_weights, wide_rf, whole_frame_outputs):
    # The toy net's halo is 3 rows: conv0, conv1 and caps0 each need 1 row
    # beyond a block, so each carries 2 input rows to the next block. Every
    # block size and worker count gives the layer-by-layer bytes, trace and
    # plan.
    assert wide_rf.samples.shape[:2] == (70, 40)
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**12)
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", pixel_block)
    monkeypatch.setenv("CAPSBEAM_THREADS", threads)
    got = _network_outputs(toy_cfg, loud_toy_weights, wide_rf)
    for key, expected in whole_frame_outputs.items():
        assert got[key] == expected, key


def test_infer_memory_is_bounded_by_the_band(monkeypatch, toy_cfg, loud_toy_weights):
    # A worker holds one block of every layer plus each conv's carried
    # rows; only the frame-sized arrays grow with the frame: the float64
    # I/Q output and the float32 I and Q images, 24 bytes a pixel. The
    # input volume is allocated before tracing starts, and the collector
    # is paused so that no finalizer of an earlier test allocates inside
    # the traced call.
    import gc
    import tracemalloc

    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)  # blocks of 10 rows
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    rng = np.random.default_rng(13)
    heights, peaks = (64, 1024), []
    for rows in heights:
        samples = rng.normal(scale=0.5, size=(rows, 40, 8)).astype(np.float32)
        rf = RfVolume(grid=PixelGrid(num_rows=rows, num_cols=40), num_channels=8,
                      samples=samples)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            infer(rf, toy_cfg, loud_toy_weights)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
    assert peaks[1] - peaks[0] <= 24 * 40 * (heights[1] - heights[0]), peaks


# ---------------------------------------------------------------- pruned bundles


def _pruned(bundle, cfg):
    names = [layer.name for layer in cfg.weighted_layers() if layer.prunable]
    mask, _ = plan_prune(ConvNetDescription.from_bundle(bundle, names), 0.5)
    return apply_mask(bundle, mask)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_walks_take_pruned_bundles_as_they_are(threads, monkeypatch, toy_cfg,
                                               loud_toy_weights, wide_rf):
    # A compacted bundle, float or quantized, walks to its densified copy's
    # bytes: float I/Q and trace, the calibrated plan, and the fixed I/Q
    # from the float bundle with a plan and from the fixed16 bundle.
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**12)
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)
    monkeypatch.setenv("CAPSBEAM_THREADS", threads)
    pruned = _pruned(loud_toy_weights, toy_cfg)
    dense = densify(pruned, toy_cfg.layer_names())
    assert "conv0.index" in pruned.entries and "conv0.index" not in dense.entries
    got, want = (_network_outputs(toy_cfg, bundle, wide_rf) for bundle in (pruned, dense))
    assert got == want
    plan = calibrate(pruned, [wide_rf], toy_cfg)
    on_the_fly = infer_quantized(wide_rf, toy_cfg, pruned, plan)
    assert (on_the_fly.i_part.tobytes() + on_the_fly.q_part.tobytes()
            == want["infer_quantized"])


def test_a_walk_rejects_a_bad_index_list(toy_cfg, toy_weights, toy_rf):
    pruned = _pruned(toy_weights, toy_cfg)
    index = pruned.entries["conv1.index"].data.copy()
    index[0, 0] = toy_cfg.conv_layers[1].in_ch  # one past the last input channel
    pruned.entries["conv1.index"] = Tensor.from_array(index)
    with pytest.raises(IndexOutOfRange, match="conv1"):
        infer(toy_rf, toy_cfg, pruned)
    with pytest.raises(IndexOutOfRange, match="conv1"):
        calibrate(pruned, [toy_rf], toy_cfg)
    with pytest.raises(IndexOutOfRange, match="conv1"):
        infer_quantized(toy_rf, toy_cfg, pruned, calibrate(toy_weights, [toy_rf], toy_cfg))


def test_calibrate_takes_any_iterable(toy_cfg, toy_weights, toy_rf):
    plan = calibrate(toy_weights, (rf for rf in [toy_rf, toy_rf]), toy_cfg)
    assert plan.scales == calibrate(toy_weights, [toy_rf], toy_cfg).scales
    with pytest.raises(EmptyCalibration):
        calibrate(toy_weights, iter(()), toy_cfg)


# ---------------------------------------------------------------- any machine

# The exact paths under one BLAS kernel, printed as digests. conv_fixed
# takes 3 x 3 x 1024 = 9,216 taps of full-range int16, so its float64
# accumulators reach about 2^43 and the gemm blocks its inner dimension;
# the toy plan's scales are fixed, not calibrated from a float trace (whose
# run gives only the activation names here). A float gemm's digest shows
# whether the kernel changed.
_EXACT_PATHS = """
import hashlib, json, sys
import numpy as np
from capsbeam import accel_sim, capsnet, cli, quantized
from capsbeam.config import load_config
from capsbeam.data_model import RfVolume, Tensor, bundle_chunks

def digest(*parts):
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]

rng = np.random.default_rng(5)
cfg = load_config(sys.argv[1])
out = {}
x = rng.integers(-32768, 32768, size=(7, 6, 1024)).astype(np.int16)
w = rng.integers(-32768, 32768, size=(3, 3, 1024, 5)).astype(np.int16)
b = rng.integers(-32768, 32768, size=5).astype(np.int16)
out["conv_fixed"] = digest(quantized._int_conv(x, w).tobytes(),
                           quantized.conv_fixed(x, w, b, 12, 12, 12, 2, True).tobytes())
x = rng.integers(-32768, 32768, size=(6, 5, 12)).astype(np.int16)
w = rng.integers(-32768, 32768, size=(3, 3, 5, 6)).astype(np.int16)
index = np.stack([np.sort(rng.choice(12, size=5, replace=False)) for _ in range(6)],
                 axis=1).astype(np.int16)
spec = accel_sim.ConvLayerSpec(weight=w, bias=b[:1].repeat(6), index=index, relu=False,
                               f_in=12, f_w=12, f_b=12, f_out=4)
raw, report = accel_sim.sim_conv_layer(x, spec, cfg.accel)
out["sim_conv_layer"] = digest(raw.tobytes(), report.to_csv().encode())
weights = capsnet.init_weights(cfg.capsnet, seed=42)
for name, entry in list(weights.entries.items()):
    data = entry.data * 2 if name.endswith(".weight") else rng.uniform(-0.1, 0.1, entry.dims)
    weights.entries[name] = Tensor.from_array(data.astype(np.float32))
grid = cfg.grid
samples = (rng.integers(-4096, 4096, size=(grid.num_rows, grid.num_cols, 8)) / 8192)
rf = RfVolume(grid=grid, num_channels=8, samples=samples.astype(np.float32))
trace = {}
capsnet.infer(rf, cfg.capsnet, weights, trace=trace)
qbundle = quantized.quantize_bundle(weights, quantized.plan_from_trace(weights, dict.fromkeys(trace, 1.0)))
env = quantized.infer_quantized(rf, cfg.capsnet, qbundle)
out["infer_quantized"] = digest(env.i_part.tobytes(), env.q_part.tobytes())
out["distinct"] = len(np.unique(env.i_part))
pruned, _ = cli._prune_once(weights, cfg, cfg.prune.method, cfg.prune.ratio, cfg.prune.lookahead)
out["bundles"] = digest(*bundle_chunks(weights), *bundle_chunks(qbundle), *bundle_chunks(pruned))
out["estimate_latency"] = digest(*(accel_sim.estimate_latency(
    cfg.capsnet, cfg.grid, cfg.accel, pruned=pruned, policy=policy,
    prune_ratio=cfg.prune.ratio).to_csv().encode()
    for pruned in (False, True) for policy in accel_sim.POLICIES))
a = rng.standard_normal((96, 96))
witness = digest((a @ a).tobytes())
print(json.dumps([out, witness]))
"""


def test_exact_paths_are_the_same_bytes_on_any_blas_kernel():
    # Only the BLAS kernel is varied, through OPENBLAS_CORETYPE in child
    # processes; numpy's own SIMD dispatch and libm are not. Float I/Q,
    # traces and MVDR differ across these kernels.
    import json
    import os
    import subprocess
    from pathlib import Path

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy links {blas['name']} without DYNAMIC_ARCH: no kernel to select")
    root = Path(__file__).resolve().parents[1]
    base = dict(os.environ, PYTHONPATH=str(root / "src"), CAPSBEAM_THREADS="1")
    base.pop("OPENBLAS_CORETYPE", None)
    children = [subprocess.Popen(
        [sys.executable, "-c", _EXACT_PATHS, str(root / "configs" / "desk.ini")],
        env=dict(base, **core), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for core in ({}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"})]
    results = []
    for child in children:
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        results.append(json.loads(stdout))
    exact, witnesses = zip(*results)
    assert len(set(witnesses)) >= 2, "no two kernels differed, so nothing was varied"
    assert exact[0]["distinct"] > 100
    assert exact[0] == exact[1] == exact[2]
