"""16-bit fixed-point inference path.

Numbers are int16 raws with value raw * 2**-f; f comes from a QuantPlan
produced by calibration (f = 14 - ceil(log2(max(|x|, 2^-14))), capped at
15, leaving one integer guard bit). One arithmetic rule everywhere:
products and dot products accumulate exactly, the finished accumulator
saturates to 32 bits, and every rescale is a power-of-two shift rounded
half away from zero, saturating to int16.

infer_quantized runs capsnet.walk, the float path's layer walk, with the
fixed-point arithmetic of _FixedArith, streamed one block of rows at a
time through the walk's line buffers: each block quantizes only the input
rows it brings, so no layer and no caps squash holds the whole frame.
Every conv, capsule conv and fc layer (fc as a 1x1 conv) runs conv_fixed's
arithmetic, in infer_quantized (weights converted to float64 once a
layer, not once a block) and in the accel_sim replay alike.
It accumulates through the float64 im2col matmul of capsnet.conv2d and,
per row chunk of that conv, adds the bias at accumulator scale,
requantizes and applies the ReLU, so no whole-frame accumulator is held.
The float64 sum is exact, not approximate: |int16 * int16| <= 2^30, so
while a dot product has at most MAX_EXACT_TAPS = 2^23 taps every partial
sum is an integer of magnitude <= 2^53, which float64 holds exactly in
any summation order: the raws, the simulator's replay and counts, and
bundles are the same on any machine, where float I/Q, traces, MVDR and
plans taken from a float trace are per machine. Larger tap counts raise
InvalidConfig.

calibrate takes the activation maxima from the trace of a float walk,
and both walks take pruned bundles as they are (capsnet.layer_entries);
plan_from_trace builds the plan from a trace already taken, so a caller
that runs float inference anyway need not walk the network again.

The softmax exponential is the 5-term Taylor polynomial
1 + x + x^2/2 + x^3/6 + x^4/24 in Horner form. Its input is clamped to
[-1.59375, 2]: the stated working range is [-2, 2], but the polynomial's
derivative crosses zero near -1.596, so the floor sits at the nearest
exactly representable point above it to keep the op monotone. The
polynomial is evaluated at extended precision with a single final
rounding; a step-by-step 16-bit Horner would wiggle by one ulp where the
curve flattens and break the exhaustive monotonicity sweep.

Squash follows the same algebra as the float path with an exact integer
floor square root at doubled fraction bits:

    n2 = sum(s_i^2)            (saturated to 32 bits, scale 2f)
    norm = isqrt(n2)           (scale f)
    v = s * n2 * 2^f / ((2^2f + n2) * norm), zero when n2 is zero.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import capsnet
from .data_model import EnvelopeImage, RfVolume, Tensor, WeightBundle
from .errors import (
    EmptyCalibration,
    InvalidConfig,
    MissingScale,
)

INT16_MIN, INT16_MAX = -32768, 32767
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
MAX_SCALE_EXP = 15
TAYLOR_INPUT_LO = -1.59375
TAYLOR_INPUT_HI = 2.0
MAX_EXACT_TAPS = 2**23


@dataclass(frozen=True)
class FixedPoint16:
    """One int16 word at a power-of-two scale."""

    raw: int
    scale_exp: int

    def __post_init__(self):
        if not INT16_MIN <= self.raw <= INT16_MAX:
            raise InvalidConfig(f"raw {self.raw} outside int16")

    @property
    def value(self) -> float:
        return self.raw * 2.0 ** (-self.scale_exp)


def _round_half_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def saturate16(x):
    return np.clip(x, INT16_MIN, INT16_MAX)


def saturate32(x):
    return np.clip(x, INT32_MIN, INT32_MAX)


def quantize_array(values, f: int) -> np.ndarray:
    """Round half away from zero onto the int16 lattice at scale f."""
    scaled = np.asarray(values, dtype=np.float64) * (2.0**f)
    return saturate16(_round_half_away(scaled)).astype(np.int16)


def quantize(x: float, f: int) -> FixedPoint16:
    return FixedPoint16(raw=int(quantize_array([x], f)[0]), scale_exp=f)


def dequantize_array(raw, f: int) -> np.ndarray:
    return np.asarray(raw, dtype=np.float64) * (2.0 ** (-f))


def shift_round(acc, shift: int):
    """Divide int64 values by 2**shift, rounding half away from zero.

    Negative shifts multiply exactly.
    """
    acc = np.asarray(acc, dtype=np.int64)
    if shift <= 0:
        return acc << (-shift)
    half = np.int64(1) << (shift - 1)
    mag = (np.abs(acc) + half) >> shift
    return np.where(acc < 0, -mag, mag)


def requantize(acc, from_f: int, to_f: int) -> np.ndarray:
    """Finish an accumulation: saturate to 32 bits, shift to the output
    scale with half-away rounding, saturate to int16."""
    acc = saturate32(np.asarray(acc, dtype=np.int64))
    return saturate16(shift_round(acc, from_f - to_f)).astype(np.int16)


def _divide_round_half_away(num, den):
    """Elementwise round-half-away num / den for int64 num, positive den."""
    num = np.asarray(num, dtype=np.int64)
    den = np.asarray(den, dtype=np.int64)
    mag = (2 * np.abs(num) + den) // (2 * den)
    return np.where(num < 0, -mag, mag)


def _exp_taylor5_raw(x_raw, f: int) -> np.ndarray:
    """Vectorized Taylor exponential on raw int16 values at scale f."""
    if f < 0:
        raise InvalidConfig("exp_taylor5 needs a non-negative fraction width")
    lo = int(_round_half_away(np.float64(TAYLOR_INPUT_LO * 2.0**f)))
    hi = min(int(TAYLOR_INPUT_HI * 2.0**f), INT16_MAX)
    x = np.clip(np.asarray(x_raw, dtype=np.int64), lo, hi).astype(np.float64)
    one = 2.0**f
    # 24 * 2^{3f} * p(x): integer-coefficient Horner in the raw variable.
    g = (((x + 4.0 * one) * x + 12.0 * one**2) * x + 24.0 * one**3) * x + 24.0 * one**4
    out = _round_half_away(g / (24.0 * one**3))
    return np.clip(out, 0, INT16_MAX).astype(np.int64)


def exp_taylor5(x: FixedPoint16) -> FixedPoint16:
    """Clamped 5-term Taylor e^x; non-negative, same scale as the input."""
    raw = int(_exp_taylor5_raw(np.array([x.raw]), x.scale_exp)[0])
    return FixedPoint16(raw=raw, scale_exp=x.scale_exp)


def _softmax_rows(raw, f: int) -> np.ndarray:
    """Softmax along the last axis of int raws at scale f, output at f.

    Each row subtracts its max before the Taylor exponential, so its
    largest entry maps to exp(0), a raw of min(2^f, 32767) >= 1, and the
    denominator is never zero.
    """
    rows = np.asarray(raw, dtype=np.int64)
    shifted = saturate16(rows - rows.max(axis=-1, keepdims=True))
    e = _exp_taylor5_raw(shifted, f)
    c = _divide_round_half_away(e << f, e.sum(axis=-1, keepdims=True))
    return saturate16(c).astype(np.int16)


def _isqrt_exact(n2: np.ndarray) -> np.ndarray:
    """Exact floor square root for non-negative int64 values."""
    root = np.floor(np.sqrt(n2.astype(np.float64))).astype(np.int64)
    root = np.where((root + 1) * (root + 1) <= n2, root + 1, root)
    root = np.where(root * root > n2, root - 1, root)
    return root


def _squash_rows(raw, f: int) -> np.ndarray:
    """Squash along the last axis of int16 raws at scale f."""
    if f < 0:
        raise InvalidConfig("squash needs a non-negative fraction width")
    s = np.asarray(raw, dtype=np.int64)
    n2 = saturate32(np.sum(s * s, axis=-1, keepdims=True))
    norm = _isqrt_exact(n2)
    num = s * n2 << f
    den = ((np.int64(1) << (2 * f)) + n2) * np.maximum(norm, 1)
    return saturate16(_divide_round_half_away(num, den)).astype(np.int16)


# calibration ------------------------------------------------------------------


@dataclass
class QuantPlan:
    """Per-tensor fraction widths."""

    scales: dict[str, int] = field(default_factory=dict)

    def scale(self, name: str) -> int:
        if name not in self.scales:
            raise MissingScale(f"no quantization scale for {name!r}")
        return self.scales[name]


def scale_for_max(m: float, max_exp: int = MAX_SCALE_EXP) -> int:
    """f = 14 - ceil(log2(max(m, 2^-14))), capped at max_exp."""
    m = max(float(m), 2.0**-14)
    mant, exp = math.frexp(m)  # m = mant * 2^exp, mant in [0.5, 1)
    ceil_log2 = exp - 1 if mant == 0.5 else exp
    return min(max_exp, 14 - ceil_log2)


def calibrate(bundle: WeightBundle, samples: Iterable[RfVolume], cfg) -> QuantPlan:
    """plan_from_trace on the trace of one float walk over each sample of
    any iterable (a generator loads one at a time); EmptyCalibration if none."""
    trace: dict[str, float] = {}
    for rf in samples:
        capsnet.infer(rf, cfg, bundle, trace=trace)
        del rf  # freed before a generator loads the next volume
    if not trace:  # every walk traces "input"
        raise EmptyCalibration("calibration needs at least one sample volume")
    return plan_from_trace(bundle, trace)


def plan_from_trace(bundle: WeightBundle, trace: dict[str, float]) -> QuantPlan:
    """Derive fraction widths from weight maxima and from the activation
    maxima of a float walk's trace, which holds every activation name."""
    plan = QuantPlan()
    for name, entry in bundle.entries.items():
        if name.endswith(".index") or name.endswith(".mask") or name.endswith(".scale"):
            continue
        values = entry.data.astype(np.float64)
        if entry.dtype == "fixed16":
            values = values * 2.0 ** (-entry.scale_exp)
        plan.scales[name] = scale_for_max(float(np.max(np.abs(values))) if values.size else 0.0)
    for name, peak in trace.items():
        plan.scales[name] = scale_for_max(peak)
    return plan


def plan_to_entries(plan: QuantPlan) -> dict[str, Tensor]:
    entries = {}
    for name in sorted(plan.scales):
        entries[f"{name}.scale"] = Tensor(
            dims=(1,), dtype="fixed16",
            data=np.array([plan.scales[name]], dtype=np.int16), scale_exp=0,
        )
    return entries


def plan_from_bundle(bundle: WeightBundle) -> QuantPlan:
    """A bundle's .scale entries as a plan; f > MAX_SCALE_EXP overflows _squash_rows."""
    plan = QuantPlan()
    for name, entry in bundle.entries.items():
        if name.endswith(".scale"):
            raw = entry.data.ravel()
            if entry.dtype != "fixed16" or raw.size != 1 or raw[0] > MAX_SCALE_EXP:
                raise InvalidConfig(f"{name} holds {entry.dtype} {raw[:4].tolist()}, "
                                    f"not one fixed16 scale <= MAX_SCALE_EXP {MAX_SCALE_EXP}")
            plan.scales[name[: -len(".scale")]] = int(raw[0])
    if not plan.scales:
        raise MissingScale("bundle carries no .scale entries; run quantize first")
    return plan


def quantize_bundle(bundle: WeightBundle, plan: QuantPlan) -> WeightBundle:
    """Quantize float entries in place of their float values, attach scales."""
    out = bundle.copy()
    for name, entry in bundle.entries.items():
        if name not in plan.scales or entry.dtype != "float32":
            continue
        f = plan.scales[name]
        out.entries[name] = Tensor(
            dims=entry.dims, dtype="fixed16",
            data=quantize_array(entry.data, f), scale_exp=f,
        )
    out.entries.update(plan_to_entries(plan))
    out.metadata["quantization"] = "fixed16"
    return out


# inference --------------------------------------------------------------------


def _entry_raw(entry: Tensor, f: int) -> np.ndarray:
    """Raw int16 view of an entry at scale f, quantizing floats on the fly."""
    if entry.dtype == "fixed16":
        if entry.scale_exp == f:
            return entry.data
        return requantize(entry.data.astype(np.int64), entry.scale_exp, f)
    return quantize_array(entry.data, f)


def _exact_float_weights(w_raw: np.ndarray) -> np.ndarray:
    """float64 copy of int16 weights [kh, kw, cin, cout]; InvalidConfig past
    MAX_EXACT_TAPS taps, where float64 sums stop being exact."""
    kh, kw, cin, _ = w_raw.shape
    if kh * kw * cin > MAX_EXACT_TAPS:
        raise InvalidConfig(
            f"{kh}x{kw}x{cin} = {kh * kw * cin} taps per output exceed the "
            f"{MAX_EXACT_TAPS} that float64 accumulates exactly"
        )
    return w_raw.astype(np.float64)


def _int_conv(x_raw: np.ndarray, w_raw: np.ndarray) -> np.ndarray:
    """Exact same-padded cross-correlation accumulator of int16 raws, as
    int64, over the whole tensor: the reference conv_fixed is tested against."""
    w = _exact_float_weights(w_raw)
    return capsnet.conv2d(x_raw, w).astype(np.int64)


def _bias_to_acc(b_raw: np.ndarray, from_f: int, acc_f: int) -> np.ndarray:
    shift = acc_f - from_f
    if shift >= 0:
        return b_raw.astype(np.int64) << shift
    return shift_round(b_raw.astype(np.int64), -shift)


def conv_fixed(x_raw: np.ndarray, w_raw: np.ndarray, b_raw: np.ndarray, f_in: int,
               f_w: int, f_b: int, f_out: int, relu: bool) -> np.ndarray:
    """One fixed-point conv layer on int16 raws [rows, cols, cin] at f_in.

    Weights [kh, kw, cin, cout] at f_w accumulate exactly at f_in + f_w;
    the bias joins at that scale, then requantize to f_out and the
    optional ReLU. All of it runs per capsnet.conv2d row chunk, so no
    whole-frame accumulator exists. Returns int16 [rows, cols, cout], same-padded.
    """
    return _conv_exact(x_raw, _exact_float_weights(w_raw), b_raw, f_in, f_w, f_b, f_out, relu)


def _conv_exact(x_raw: np.ndarray, w: np.ndarray, b_raw: np.ndarray, f_in: int,
                f_w: int, f_b: int, f_out: int, relu: bool,
                pad_rows: tuple[int, int] | None = None,
                above: np.ndarray | None = None) -> np.ndarray:
    """conv_fixed on weights _exact_float_weights has already converted, so
    a caller that runs one layer on many blocks converts it once."""
    acc_f = f_in + f_w
    bias_acc = _bias_to_acc(np.asarray(b_raw), f_b, acc_f)

    def finish(acc):
        out = requantize(acc.astype(np.int64) + bias_acc, acc_f, f_out)
        return np.maximum(out, 0) if relu else out

    return capsnet.conv2d(x_raw, w, epilogue=finish, out_dtype=np.int16,
                          pad_rows=pad_rows, above=above)


class _FixedArith:
    """capsnet.walk's int16 arithmetic at the plan's scale of each name:
    conv_fixed with each layer's weights converted once, and _squash_rows
    and _routing_fixed each requantized."""

    def __init__(self, bundle: WeightBundle, plan: QuantPlan):
        self.bundle, self.scale = bundle, plan.scale

    def enter(self, values, name):
        return quantize_array(values, self.scale(name))

    def leave(self, raw, name):
        return dequantize_array(raw, self.scale(name))

    def conv(self, layer, src, dst, relu: bool):
        f_w, f_b = self.scale(f"{layer.name}.weight"), self.scale(f"{layer.name}.bias")
        w_entry, b_entry = capsnet.layer_entries(self.bundle, layer)
        w = _entry_raw(w_entry, f_w).reshape(
            layer.kernel_h, layer.kernel_w, layer.in_ch, layer.out_ch)
        return partial(_conv_exact, w=_exact_float_weights(w), b_raw=_entry_raw(b_entry, f_b),
                       f_in=self.scale(src), f_w=f_w, f_b=f_b, f_out=self.scale(dst), relu=relu)

    def squash(self, s, src, dst):
        f_pre = self.scale(src)
        return requantize(_squash_rows(s, f_pre), f_pre, self.scale(dst))

    def route(self, caps, routing, names, trace):
        f_caps, f_logit, f_pre, f_out = map(self.scale, names)
        v = _routing_fixed(caps, f_caps, routing.num_out_capsules, f_logit=f_logit, f_pre=f_pre)
        return requantize(v, f_pre, f_out)


def infer_quantized(rf: RfVolume, cfg, bundle: WeightBundle,
                    plan: QuantPlan | None = None) -> EnvelopeImage:
    """Integer replica of the float network: capsnet.walk with the
    fixed-point backend; output dequantized to float.

    Accepts float bundles (quantized on the fly against the plan) or
    already-quantized fixed16 bundles, pruned or dense.
    """
    if plan is None:
        plan = plan_from_bundle(bundle)
    out = capsnet.walk(rf, cfg, _FixedArith(bundle, plan))
    return EnvelopeImage(grid=rf.grid, i_part=out[..., 0].astype(np.float32),
                         q_part=out[..., 1].astype(np.float32))


def _routing_fixed(caps_raw: np.ndarray, f_caps: int, n_out: int, f_logit: int,
                   f_pre: int) -> np.ndarray:
    """Batched fixed-point routing with the input capsules as predictions.

    Returns output capsules at the pre-squash scale f_pre, shape
    [pixels, n_out, dim]: the closed form capsnet._FloatArith.route argues
    gives any iteration count's result (a saturated logit row is constant
    too). The modeled engine (accel_sim) still bills every iteration.
    """
    c0 = int(_softmax_rows(np.zeros((1, n_out), dtype=np.int16), f_logit)[0, 0])
    s = requantize(c0 * caps_raw.astype(np.int64).sum(axis=1), f_logit + f_caps, f_pre)
    return np.repeat(_squash_rows(s[:, None], f_pre), n_out, axis=1)
