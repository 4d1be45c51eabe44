"""Capsule-network beamformer: layer configs, the layer walk, float inference.

The network maps time-of-flight corrected channel data [rows, cols, ch]
to an in-phase / quadrature pair per pixel. Dataflow: a conv stack with
ReLU, a capsule conv stack (conv, reshape to capsules, squash), per-pixel
dynamic routing by agreement, then a chain of pointwise FC layers ending
in 2 features. walk states that order once; float infer and
quantized.infer_quantized run it with their own arithmetic. walk streams
the frame in fixed bands of output rows, as the accelerator streams
kernel-height rows through each layer (the fused-layer dataflow): each
band runs every layer, routing and fc on its own rows plus the
receptive-field halo, and no layer is ever held for the whole frame. The
bytes are the layer-by-layer order's, because conv2d is one gemm per
image row however the rows are split, squash, routing and fc are per
pixel, and quantization is elementwise. Routing predictions are the
input capsules themselves broadcast over output capsules; there are no
trained routing matrices, so in_dim must equal out_dim. Such predictions
keep the coupling uniform, so both paths route them in closed form
(_FloatArith.route); the accelerator ledger still bills every iteration.
Inference only; training is out of scope.

Weight bundle naming: conv0.weight/conv0.bias, conv1.*, caps0.*, caps1.*,
fc0.* .. fc3.*. Conv weights are [kh, kw, cin, cout] cross-correlation
kernels with zero padding (kh - 1) / 2 and stride 1; FC weights are
[in, out], run as 1x1 convs. CapsConfig.weighted_layers() states this
layout, and layer_entries fetches one layer's checked entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .beamform import run_ranges
from .data_model import EnvelopeImage, RfVolume, Tensor, WeightBundle, require_finite
from .errors import InvalidConfig, ShapeMismatch

# Bytes of one im2col copy. conv2d takes output rows in chunks of as many
# whole rows as fit (at least one), one after another on the calling
# thread, so this bounds the copy a band worker holds (32 rows of conv0 at
# default.ini took 38 MB); a desk-size conv is one chunk.
_IM2COL_BYTES = 2**22
# Pixels per routing + fc block, rounded down to whole image rows (at least
# one), so every fc conv is one gemm per image row as on a whole frame:
# numpy's one-row product takes another BLAS kernel and other bytes.
_PIXEL_BLOCK = 2048
# Pixel blocks per band of walk (48 rows at default.ini). A band recomputes
# its halo rows, so a taller band wastes less; a shorter one holds less.
_BAND_BLOCKS = 3


@dataclass(frozen=True)
class ConvLayerCfg:
    kernel_h: int
    kernel_w: int
    in_ch: int
    out_ch: int
    relu: bool = True

    def validate(self):
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise InvalidConfig("kernel dims must be positive")
        if self.kernel_h % 2 == 0 or self.kernel_w % 2 == 0:
            raise InvalidConfig("kernels must be odd for symmetric zero padding")
        if self.in_ch < 1 or self.out_ch < 1:
            raise InvalidConfig("channel counts must be positive")


@dataclass(frozen=True)
class CapsConvLayerCfg:
    kernel_h: int
    kernel_w: int
    in_ch: int
    out_ch: int
    num_capsules: int
    capsule_dim: int

    def validate(self):
        ConvLayerCfg(self.kernel_h, self.kernel_w, self.in_ch, self.out_ch).validate()
        if self.num_capsules * self.capsule_dim != self.out_ch:
            raise InvalidConfig(
                f"capsule grouping {self.num_capsules}x{self.capsule_dim} "
                f"does not tile out_ch {self.out_ch}"
            )


@dataclass(frozen=True)
class RoutingCfg:
    num_in_capsules: int
    in_dim: int
    num_out_capsules: int
    out_dim: int
    num_iterations: int = 3

    def validate(self):
        if min(self.num_in_capsules, self.in_dim, self.num_out_capsules, self.out_dim) < 1:
            raise InvalidConfig("routing dims must be positive")
        if self.in_dim != self.out_dim:
            raise InvalidConfig("weight-free routing requires in_dim == out_dim")
        if self.num_iterations < 1:
            raise InvalidConfig("routing needs at least one iteration")


@dataclass(frozen=True)
class FcLayerCfg:
    in_features: int
    out_features: int
    relu: bool = True

    def validate(self):
        if self.in_features < 1 or self.out_features < 1:
            raise InvalidConfig("fc feature counts must be positive")


@dataclass(frozen=True)
class WeightedLayer:
    """One weighted layer as the bundle stores it: entry prefix, conv
    geometry (fc layers are 1x1), stored weight dims, and whether pruning
    compacts it."""

    name: str
    kernel_h: int
    kernel_w: int
    in_ch: int
    out_ch: int
    weight_dims: tuple[int, ...]
    prunable: bool


@dataclass(frozen=True)
class CapsConfig:
    """Full network description. Partial configs (subsets of stages) are
    valid for accounting; inference requires every stage present."""

    conv_layers: tuple[ConvLayerCfg, ...] = ()
    caps_conv_layers: tuple[CapsConvLayerCfg, ...] = ()
    routing: RoutingCfg | None = None
    fc_layers: tuple[FcLayerCfg, ...] = ()

    def validate(self):
        chain = None
        for layer in list(self.conv_layers) + list(self.caps_conv_layers):
            layer.validate()
            if chain is not None and layer.in_ch != chain:
                raise InvalidConfig(f"layer in_ch {layer.in_ch} breaks chain at {chain}")
            chain = layer.out_ch
        if self.routing is not None:
            self.routing.validate()
            if self.caps_conv_layers:
                last = self.caps_conv_layers[-1]
                if (last.num_capsules, last.capsule_dim) != (
                    self.routing.num_in_capsules,
                    self.routing.in_dim,
                ):
                    raise InvalidConfig("routing input does not match last capsule layer")
            chain = self.routing.num_out_capsules * self.routing.out_dim
        prev = chain
        for layer in self.fc_layers:
            layer.validate()
            if prev is not None and layer.in_features != prev:
                raise InvalidConfig(f"fc in_features {layer.in_features} breaks chain at {prev}")
            prev = layer.out_features

    def validate_for_inference(self):
        self.validate()
        if not self.conv_layers or not self.caps_conv_layers:
            raise InvalidConfig("inference needs conv and capsule conv stages")
        if self.routing is None or not self.fc_layers:
            raise InvalidConfig("inference needs routing and fc stages")
        if self.fc_layers[-1].out_features != 2:
            raise InvalidConfig("final fc layer must emit 2 features (I, Q)")

    def weighted_layers(self) -> list[WeightedLayer]:
        """Every weighted layer in bundle order: conv{i}, caps{i}, fc{i}.

        Conv and capsule conv weights are [kh, kw, cin, cout] and pruning
        compacts them; fc weights are [in, out] and stay dense.
        """
        layers = []
        for kind, stage in (("conv", self.conv_layers), ("caps", self.caps_conv_layers)):
            for i, l in enumerate(stage):
                dims = (l.kernel_h, l.kernel_w, l.in_ch, l.out_ch)
                layers.append(WeightedLayer(f"{kind}{i}", *dims, weight_dims=dims, prunable=True))
        for i, l in enumerate(self.fc_layers):
            dims = (l.in_features, l.out_features)
            layers.append(WeightedLayer(f"fc{i}", 1, 1, *dims, weight_dims=dims, prunable=False))
        return layers

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.weighted_layers()]


def default_config() -> CapsConfig:
    """Stock architecture: 7x7 receptive field over 128 input channels.

    Widths put the parameter count at 306,722 and the whole-frame op count
    near 29.2e9 on the stock 368x128 grid.
    """
    return CapsConfig(
        conv_layers=(
            ConvLayerCfg(3, 3, 128, 128, relu=True),
            ConvLayerCfg(3, 3, 128, 88, relu=True),
        ),
        caps_conv_layers=(
            CapsConvLayerCfg(3, 3, 88, 64, num_capsules=8, capsule_dim=8),
            CapsConvLayerCfg(1, 1, 64, 64, num_capsules=8, capsule_dim=8),
        ),
        routing=RoutingCfg(8, 8, 8, 8, num_iterations=3),
        fc_layers=(
            FcLayerCfg(64, 32, relu=True),
            FcLayerCfg(32, 16, relu=True),
            FcLayerCfg(16, 8, relu=True),
            FcLayerCfg(8, 2, relu=False),
        ),
    )


def toy_config() -> CapsConfig:
    """Desk-scale network over 8 channels for tests and demos."""
    return CapsConfig(
        conv_layers=(
            ConvLayerCfg(3, 3, 8, 8, relu=True),
            ConvLayerCfg(3, 3, 8, 8, relu=True),
        ),
        caps_conv_layers=(
            CapsConvLayerCfg(3, 3, 8, 8, num_capsules=2, capsule_dim=4),
            CapsConvLayerCfg(1, 1, 8, 8, num_capsules=2, capsule_dim=4),
        ),
        routing=RoutingCfg(2, 4, 2, 4, num_iterations=3),
        fc_layers=(
            FcLayerCfg(8, 8, relu=True),
            FcLayerCfg(8, 4, relu=True),
            FcLayerCfg(4, 4, relu=True),
            FcLayerCfg(4, 2, relu=False),
        ),
    )


@dataclass
class RoutingState:
    """Snapshot of one routing iteration (leading dims are batch); s is the
    coupled sum before the squash."""

    logits_b: np.ndarray
    coupling_c: np.ndarray
    prediction_u_hat: np.ndarray
    output_v: np.ndarray
    pre_squash_s: np.ndarray


def _run_blocks(n: int, block: int, fn) -> None:
    """Call fn(lo, hi) on each fixed block [k * block, min((k + 1) * block, n))
    of [0, n), the blocks split over run_ranges workers: walk's bands, the one
    place the network is split. The blocks never depend on the worker count,
    so neither does anything computed per block."""

    def blocks(first, last):
        for k in range(first, last):
            fn(k * block, min((k + 1) * block, n))

    run_ranges(-(-n // block), blocks)


def _chunk_rows(cols: int, weights_shape: tuple, itemsize: int) -> int:
    """Output rows per im2col chunk: as many as fit in _IM2COL_BYTES, at least one."""
    kh, kw, cin, _ = weights_shape
    row_bytes = cols * kh * kw * cin * itemsize
    return max(1, _IM2COL_BYTES // max(row_bytes, 1))


def correlate(padded: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Valid stride-1 cross-correlation by im2col and one matmul.

    padded [rows + kh - 1, cols + kw - 1, cin] already carries any border;
    weights [kh, kw, cin, cout]. Returns [rows, cols, cout]. The im2col copy
    spans every row, so callers hand it slabs of at most _chunk_rows rows.
    A 1x1 kernel's patch matrix is the slab itself, so it is multiplied as is.
    """
    kh, kw, cin, cout = weights.shape
    if kh == kw == 1:
        return padded @ weights.reshape(cin, cout)
    rows, cols = padded.shape[0] - kh + 1, padded.shape[1] - kw + 1
    window = sliding_window_view(padded, (kh, kw), axis=(0, 1))
    # window: [rows, cols, cin, kh, kw] -> [rows, cols, kh, kw, cin]
    patch = window.transpose(0, 1, 3, 4, 2).reshape(rows, cols, kh * kw * cin)
    return patch @ weights.reshape(kh * kw * cin, cout)


def conv2d(values: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None,
           relu: bool = False, epilogue=None, out_dtype=None) -> np.ndarray:
    """Same-padded stride-1 cross-correlation on channel-last data.

    values [rows, cols, cin], weights [kh, kw, cin, cout]. Output rows run
    in chunks of _chunk_rows on the calling thread (walk's bands run on
    workers), each correlating its own zero-bordered slab and storing
    epilogue(acc) for its accumulator acc [chunk rows, cols, cout] as
    out_dtype. The default epilogue adds the bias, then applies the optional
    ReLU; a caller's epilogue replaces both. numpy runs [rows, cols, k] @
    [k, cout] as one gemm per row, so every gemm has the same operands and
    shape however the rows are chunked, and the bytes do not change.
    """
    values = np.asarray(values)
    weights = np.asarray(weights)
    if values.ndim != 3 or weights.ndim != 4:
        raise ShapeMismatch("conv2d expects [rows, cols, cin] and [kh, kw, cin, cout]")
    kh, kw, cin, cout = weights.shape
    if values.shape[2] != cin:
        raise ShapeMismatch(f"input has {values.shape[2]} channels, weights expect {cin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise InvalidConfig("conv2d requires odd kernels")
    ph, pw = kh // 2, kw // 2
    rows, cols = values.shape[:2]
    work = np.result_type(values, weights)
    if epilogue is None:
        bias = None if bias is None else np.asarray(bias)
        out_dtype = work if bias is None else np.result_type(work, bias)

        def epilogue(acc):
            acc = acc.astype(out_dtype, copy=False)
            if bias is not None:
                acc += bias
            return np.maximum(acc, 0, out=acc) if relu else acc

    out = np.empty((rows, cols, cout), dtype=out_dtype)
    step = _chunk_rows(cols, weights.shape, np.dtype(work).itemsize)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        # Zero-bordered input rows lo - ph .. hi + ph, cast in the copy.
        slab = np.zeros((hi - lo + kh - 1, cols + kw - 1, cin), dtype=work)
        top, bottom = max(lo - ph, 0), min(hi + ph, rows)
        slab[top - lo + ph : bottom - lo + ph, pw : pw + cols] = values[top:bottom]
        out[lo:hi] = epilogue(correlate(slab, weights))
    return out


def squash(s: np.ndarray, axis: int = -1) -> np.ndarray:
    """v = (|s|^2 / (1 + |s|^2)) * s / |s| along axis; zero maps to zero."""
    s = np.asarray(s)
    norm2 = np.sum(np.square(s), axis=axis, keepdims=True)
    norm = np.sqrt(norm2)
    scale = np.divide(norm, 1.0 + norm2, where=norm > 0, out=np.zeros_like(norm))
    return s * scale


def routing_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stabilized softmax over the output-capsule axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def dynamic_routing(u_hat: np.ndarray, num_iterations: int,
                    record: list[RoutingState] | None = None) -> np.ndarray:
    """Route predictions [..., n_in, n_out, d] to output capsules [..., n_out, d].

    Logits start at zero. Each iteration: coupling = softmax over the
    output axis, weighted sum over inputs, squash. The logit update
    b += u_hat . v runs after every iteration except the last. record,
    when given, gets every iteration's state.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    if u_hat.ndim < 3:
        raise ShapeMismatch("u_hat needs at least [n_in, n_out, d] dims")
    if num_iterations < 1:
        raise InvalidConfig("need at least one routing iteration")
    b = np.zeros(u_hat.shape[:-1], dtype=np.float64)
    for it in range(num_iterations):
        c = routing_softmax(b, axis=-1)
        s = np.einsum("...ij,...ijd->...jd", c, u_hat)
        v = squash(s, axis=-1)
        if it < num_iterations - 1:
            b = b + np.einsum("...ijd,...jd->...ij", u_hat, v)
        if record is not None:
            record.append(RoutingState(b.copy(), c, u_hat, v, s))
    return v


def init_weights(cfg: CapsConfig, seed: int = 0) -> WeightBundle:
    """Seeded uniform fan-balanced weights, zero biases."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    bundle = WeightBundle(metadata={"init_seed": str(seed)})
    for layer in cfg.weighted_layers():
        taps = layer.kernel_h * layer.kernel_w
        bound = np.sqrt(6.0 / (taps * layer.in_ch + taps * layer.out_ch))
        size = (taps, layer.in_ch, layer.out_ch)
        weight = rng.uniform(-bound, bound, size=size).astype(np.float32)
        bundle.entries[f"{layer.name}.weight"] = Tensor.from_array(
            weight.reshape(layer.weight_dims)
        )
        bundle.entries[f"{layer.name}.bias"] = Tensor.from_array(
            np.zeros(layer.out_ch, dtype=np.float32)
        )
    return bundle


def layer_entries(bundle: WeightBundle, layer: WeightedLayer) -> tuple[Tensor, Tensor]:
    """A layer's weight and bias entries, checked against its config.

    MissingWeight when either is absent; ShapeMismatch unless the weight
    has the layer's weight dims and the bias is [cout]; NonFinite when
    either holds NaN or infinity.
    """
    weight = bundle.require(f"{layer.name}.weight")
    bias = bundle.require(f"{layer.name}.bias")
    if weight.dims != layer.weight_dims:
        raise ShapeMismatch(
            f"{layer.name}.weight dims {weight.dims}, config implies {layer.weight_dims}"
        )
    if bias.dims != (layer.out_ch,):
        raise ShapeMismatch(
            f"{layer.name}.bias dims {bias.dims}, config implies ({layer.out_ch},)"
        )
    require_finite(f"{layer.name} weights", weight.data, bias.data)
    return weight, bias


def _trace(trace: dict | None, name: str, values: np.ndarray):
    if trace is not None:
        peak = float(np.max(np.abs(values))) if values.size else 0.0
        trace[name] = max(trace.get(name, 0.0), peak)
    return values


@dataclass(frozen=True)
class _FloatArith:
    """walk's float64 arithmetic: conv2d, squash, and the closed form of
    dynamic_routing on the input capsules broadcast over the outputs."""

    weights: WeightBundle

    def enter(self, values, name):
        return values

    leave = enter

    def conv(self, layer: WeightedLayer, src, dst, relu: bool):
        w, b = (t.data.astype(np.float64) for t in layer_entries(self.weights, layer))
        w = w.reshape(layer.kernel_h, layer.kernel_w, layer.in_ch, layer.out_ch)
        return lambda x: conv2d(x, w, b, relu=relu)

    def squash(self, s, src, dst):
        return squash(s)

    def route(self, caps, routing: RoutingCfg, names, trace):
        """dynamic_routing's bytes for caps [pixels, n_in, dim] broadcast over
        the outputs, in closed form; the one place this is argued. The zero
        logits' softmax is the uniform c0, so every output gets the loop's
        s = c0 * sum_i u_i (its products, in its order) and v. Each agreement
        row d_i = u_i . v is then constant over the outputs, so each later
        logit row is constant and finite (|u_i|, |v| < 1) and every softmax
        is c0 again. The trace gets the peaks of the loop's record.
        """
        c0 = routing_softmax(np.zeros(routing.num_out_capsules))[0]
        v = squash(_trace(trace, names[2], (c0 * caps).sum(axis=1)[:, None]))
        if trace is not None:  # the logits 0, d, d + d, ... added as the loop adds
            d = np.einsum("pid,pd->pi", caps, v[:, 0])
            b = _trace(trace, names[1], np.zeros_like(d))
            for _ in range(routing.num_iterations - 1):
                b = _trace(trace, names[1], b + d)
        return np.repeat(v, routing.num_out_capsules, axis=1)


def walk(rf: RfVolume, cfg: CapsConfig, arith, trace: dict | None = None) -> np.ndarray:
    """The network's one inference walk; returns I/Q [rows, cols, 2] as float.

    The frame runs in fixed bands of _BAND_BLOCKS pixel blocks (whole rows),
    the bands split over CAPSBEAM_THREADS workers. Each band, in order:
    - enters (quantizes) its own rows plus the receptive-field halo;
    - runs the conv layers, then the caps layers (conv, squash), after
      each conv dropping the kh // 2 rows next to a band edge that is not
      a frame edge, which saw zeros in place of the rows beyond it;
    - runs routing and the fc layers (1x1 convs) on each of its pixel
      blocks and writes its rows of the output.
    A kept row has the bytes of the layer-by-layer order's row: conv2d is
    one gemm per image row however the rows are split, squash, routing and
    fc are per pixel, and enter is elementwise. arith (_FloatArith,
    quantized._FixedArith) does each stage's arithmetic, given the names of
    the activations it reads and writes, which no other code states;
    arith.conv fetches a layer's weights once and returns it as a function.
    trace, when given, gets every name's max |activation| over the kept
    rows; bands trace their own dicts, folded after the workers finish.
    """
    cfg.validate_for_inference()
    if cfg.conv_layers[0].in_ch != rf.num_channels:
        raise ShapeMismatch(
            f"network expects {cfg.conv_layers[0].in_ch} channels, volume has {rf.num_channels}"
        )
    stored = iter(cfg.weighted_layers())  # bundle order: conv, caps, fc, as below
    stages = []  # (kernel height, conv output name, conv, (capsules, squash name) or None)
    src = "input"
    for i, layer in enumerate(cfg.conv_layers):
        dst = f"conv{i}.out"
        stages.append((layer.kernel_h, dst, arith.conv(next(stored), src, dst, layer.relu), None))
        src = dst
    for i, layer in enumerate(cfg.caps_conv_layers):
        pre, dst = f"caps{i}.pre", f"caps{i}.out"
        stages.append((layer.kernel_h, pre, arith.conv(next(stored), src, pre, relu=False),
                       (layer.num_capsules, dst)))
        src = dst
    routing = cfg.routing
    route_names = (src, "routing.logits", "routing.pre", "routing.out")
    fc_names = [route_names[-1]] + [f"fc{i}.out" for i in range(len(cfg.fc_layers))]
    fc = [(dst, arith.conv(next(stored), src, dst, layer.relu))
          for src, dst, layer in zip(fc_names, fc_names[1:], cfg.fc_layers)]
    rows, cols = rf.samples.shape[:2]
    block = max(1, _PIXEL_BLOCK // cols)
    out = np.empty((rows, cols, 2))
    band_traces = []

    def band(lo, hi):
        local = None if trace is None else {}
        halo = sum(kh // 2 for kh, *_ in stages)
        top = max(lo - halo, 0)
        x = _trace(local, "input", arith.enter(rf.samples[top : hi + halo], "input"))
        for kh, name, conv, capsules in stages:
            halo -= kh // 2
            keep = max(lo - halo, 0)
            y = _trace(local, name, conv(x)[keep - top : hi + halo - top])
            if capsules is not None:
                num_capsules, dst = capsules
                v = arith.squash(y.reshape(*y.shape[:2], num_capsules, -1), name, dst)
                y = _trace(local, dst, v).reshape(y.shape)
            x, top = y, keep
        for b in range(0, hi - lo, block):
            caps = x[b : b + block]
            v = arith.route(caps.reshape(-1, routing.num_in_capsules, routing.in_dim),
                            routing, route_names, local)
            y = _trace(local, route_names[-1], v).reshape(*caps.shape[:2], -1)
            for name, conv in fc:
                y = _trace(local, name, conv(y))
            out[lo + b : lo + b + len(caps)] = arith.leave(y, fc_names[-1])
        if local is not None:
            band_traces.append(local)

    _run_blocks(rows, block * _BAND_BLOCKS, band)
    for local in band_traces:
        for name, peak in local.items():
            trace[name] = max(trace.get(name, 0.0), peak)
    return out


def infer(rf: RfVolume, cfg: CapsConfig, weights: WeightBundle,
          trace: dict | None = None) -> EnvelopeImage:
    """Run the float network (walk in float64) over a ToF-corrected volume.

    The output bytes do not depend on CAPSBEAM_THREADS. trace, when
    given, accumulates every stage's max absolute activation under the
    names quantization calibration scales.
    """
    out = walk(rf, cfg, _FloatArith(weights), trace)
    return EnvelopeImage(grid=rf.grid, i_part=out[..., 0].astype(np.float32),
                         q_part=out[..., 1].astype(np.float32))
