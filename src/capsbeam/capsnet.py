"""Capsule-network beamformer: layer configs, the layer walk, float inference.

The network maps time-of-flight corrected channel data [rows, cols, ch]
to an in-phase / quadrature pair per pixel. Dataflow: a conv stack with
ReLU, a capsule conv stack (conv, reshape to capsules, squash), per-pixel
dynamic routing by agreement, then a chain of pointwise FC layers ending
in 2 features. walk states that order once; float infer and
quantized.infer_quantized run it with their own arithmetic. walk streams
the frame through per-layer line buffers, as the accelerator streams
kernel-height rows through each layer (the fused-layer dataflow): each
worker takes a contiguous range of fixed pixel blocks, and per block each
conv computes only the rows whose receptive field is present, carrying
its last kh - 1 input rows to the next block, before routing and fc run
on the block. No layer is ever held for the whole frame, and a row is
recomputed only at a seam between two workers. The bytes are the
layer-by-layer order's, because conv2d is one gemm per image row however
the rows arrive, squash, routing and fc are per pixel, and quantization
is elementwise. Routing predictions are the input capsules themselves
broadcast over output capsules; there are no trained routing matrices,
so in_dim must equal out_dim. Such predictions keep the coupling
uniform, so both paths route them in closed form (_FloatArith.route);
the accelerator ledger still bills every iteration. Inference only;
training is out of scope.

Weight bundle naming: conv0.weight/conv0.bias, conv1.*, caps0.*, caps1.*,
fc0.* .. fc3.*. Conv weights are [kh, kw, cin, cout] cross-correlation
kernels with zero padding (kh - 1) / 2 and stride 1; FC weights are
[in, out], run as 1x1 convs. CapsConfig.weighted_layers() states this
layout, and layer_entries fetches one layer's checked entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .beamform import run_ranges
from .data_model import EnvelopeImage, RfVolume, Tensor, WeightBundle, require_finite
from .errors import InvalidConfig, ShapeMismatch

# Bytes of one im2col copy. conv2d takes output rows in chunks of as many
# whole rows as fit (at least one), one after another on the calling
# thread, so this bounds the copy a worker holds (7 rows of conv0 in
# float32 at default.ini, 4.1 MB); a desk-size conv is one chunk.
_IM2COL_BYTES = 2**22
# Pixels per block, rounded down to whole image rows (at least one): the
# rows walk streams through the layers per step (8 at default.ini), and
# the rows routing and fc run on, so every fc conv is one gemm per image
# row as on a whole frame: numpy's one-row product takes another BLAS
# kernel and other bytes.
_PIXEL_BLOCK = 1024


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
           relu: bool = False, epilogue=None, out_dtype=None,
           pad_rows: tuple[int, int] | None = None, above: np.ndarray | None = None
           ) -> np.ndarray:
    """Stride-1 cross-correlation on channel-last data, same-padded by default.

    values [rows, cols, cin], weights [kh, kw, cin, cout]. The columns get
    kw // 2 zero columns each side. The input rows are above's rows, when
    given, then values' rows: walk passes a line buffer's carried rows as
    above and the rows just made as values, and conv2d reads both in place.
    They get pad_rows = (top, bottom) zero rows, (kh // 2, kh // 2) by
    default, so the output has input rows + top + bottom - kh + 1 rows.
    Output rows run in chunks of _chunk_rows on the calling thread, each
    correlating its own zero-bordered slab and storing epilogue(acc) for its
    accumulator acc [chunk rows, cols, cout] as out_dtype. The default
    epilogue adds the bias, then applies the optional ReLU; a caller's
    epilogue replaces both. numpy runs [rows, cols, k] @ [k, cout] as one
    gemm per row, so every gemm has the same operands and shape however the
    rows are chunked or arrive, and the bytes do not change.
    """
    values, weights = np.asarray(values), np.asarray(weights)
    parts = [values] if above is None else [np.asarray(above), values]
    if any(part.ndim != 3 for part in parts) or weights.ndim != 4:
        raise ShapeMismatch("conv2d expects [rows, cols, cin] and [kh, kw, cin, cout]")
    kh, kw, cin, cout = weights.shape
    cols = values.shape[1]
    if any(part.shape[1:] != (cols, cin) for part in parts):
        raise ShapeMismatch(f"input rows shaped {[part.shape[1:] for part in parts]}, "
                            f"weights expect {cin} channels")
    if kh % 2 == 0 or kw % 2 == 0:
        raise InvalidConfig("conv2d requires odd kernels")
    top, bottom = (kh // 2, kh // 2) if pad_rows is None else pad_rows
    pw = kw // 2
    in_rows = sum(len(part) for part in parts)
    rows = in_rows + top + bottom - kh + 1
    if min(top, bottom, rows) < 0:
        raise ShapeMismatch(f"{in_rows} rows padded by {top} and {bottom} cannot feed "
                            f"a {kh}-row kernel")
    work = np.result_type(*parts, weights)
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
        # Output rows lo..hi read padded rows lo..hi + kh - 1, which are input
        # rows lo - top..hi + kh - 1 - top; zeros stand beyond the input.
        slab = np.zeros((hi - lo + kh - 1, cols + kw - 1, cin), dtype=work)
        start = lo - top  # the input row at the slab's first row
        at = 0  # the input row at part's first row
        for part in parts:
            first, last = max(start, at), min(start + len(slab), at + len(part))
            if first < last:
                slab[first - start : last - start, pw : pw + cols] = part[first - at : last - at]
            at += len(part)
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
    """walk's float arithmetic: conv2d, squash, and the closed form of
    dynamic_routing on the input capsules broadcast over the outputs.

    Dtype policy: the convs and caps convs take the float32 volume and the
    bundle's float32 weights and biases, so their im2col slabs, gemms and
    the caps squashes are float32. Routing runs in float64, as
    dynamic_routing does, and the fc layers run in float64 on its output
    (their float32 weights promoted). This path is the reference the int16
    path is calibrated and checked against; only the fixed-point convs need
    float64, to sum exactly (quantized.MAX_EXACT_TAPS).
    """

    weights: WeightBundle

    def enter(self, values, name):
        return values

    leave = enter

    def conv(self, layer: WeightedLayer, src, dst, relu: bool):
        entries = layer_entries(self.weights, layer)
        w, b = (t.data.astype(np.float32, copy=False) for t in entries)
        w = w.reshape(layer.kernel_h, layer.kernel_w, layer.in_ch, layer.out_ch)
        return partial(conv2d, weights=w, bias=b, relu=relu)

    def squash(self, s, src, dst):
        return squash(s)

    def route(self, caps, routing: RoutingCfg, names, trace):
        """dynamic_routing's bytes for caps [pixels, n_in, dim >= 2] broadcast
        over the outputs, in closed form; the one place this is argued. The
        zero logits' softmax is the uniform c0, so every output gets the
        loop's s = c0 * sum_i u_i (its products, in its order) and v. Each
        agreement row d_i = u_i . v is then constant over the outputs, so
        each later logit row is constant and finite (|u_i|, |v| < 1) and
        every softmax is c0 again. The trace gets the peaks of the loop's
        record. At dim 1 the loop's einsum sums the inputs in another order:
        v then differs by at most 1.5 ulp of 1 and the traced peaks by 3 ulp
        (measured over n_in 1-8, n_out 1-4 and 1-5 iterations).
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

    The frame is cut into fixed pixel blocks of whole rows (_PIXEL_BLOCK),
    and each CAPSBEAM_THREADS worker streams one contiguous range of blocks,
    one block at a time, as the accelerator streams rows through per-layer
    line buffers (the fused-layer dataflow). For each block, in order:
    - enter (quantize) the input rows the block's outputs need that the
      worker has not yet entered;
    - each conv, then each caps conv (followed by its squash), computes
      only the output rows whose receptive field is now present: the block's
      rows plus the halo that the layers after it still need. It reads the
      input rows it carried from the previous block (a copy, at most
      kh - 1 rows) and the rows just made, with zero rows only at the
      frame's top and bottom, and carries the rows its next outputs need;
    - routing and the fc layers (1x1 convs) run on the block's rows and
      write them to the output.
    Only a worker's first block enters a halo, so a layer computes a row
    twice only within its remaining halo of a seam between two workers.
    Every row has the bytes of the layer-by-layer order's row: conv2d is
    one gemm per image row however the rows arrive, squash, routing and fc
    are per pixel, and enter is elementwise. arith (_FloatArith,
    quantized._FixedArith) does each stage's arithmetic, given the names of
    the activations it reads and writes, which no other code states;
    arith.conv fetches a layer's weights once and returns it as a function
    of the input rows, taking conv2d's pad_rows and above. trace, when
    given, gets every name's max |activation| over the computed rows;
    workers trace their own dicts, folded after they finish.
    """
    cfg.validate_for_inference()
    if cfg.conv_layers[0].in_ch != rf.num_channels:
        raise ShapeMismatch(
            f"network expects {cfg.conv_layers[0].in_ch} channels, volume has {rf.num_channels}"
        )
    stored = iter(cfg.weighted_layers())  # bundle order: conv, caps, fc, as below
    stages = []  # (kernel height, conv output name, conv, (capsule shape, squash name) or None)
    src = "input"
    for i, layer in enumerate(cfg.conv_layers):
        dst = f"conv{i}.out"
        stages.append((layer.kernel_h, dst, arith.conv(next(stored), src, dst, layer.relu), None))
        src = dst
    for i, layer in enumerate(cfg.caps_conv_layers):
        pre, dst = f"caps{i}.pre", f"caps{i}.out"
        stages.append((layer.kernel_h, pre, arith.conv(next(stored), src, pre, relu=False),
                       ((layer.num_capsules, layer.capsule_dim), dst)))
        src = dst
    routing = cfg.routing
    route_names = (src, "routing.logits", "routing.pre", "routing.out")
    fc_names = [route_names[-1]] + [f"fc{i}.out" for i in range(len(cfg.fc_layers))]
    fc = [(dst, arith.conv(next(stored), src, dst, layer.relu))
          for src, dst, layer in zip(fc_names, fc_names[1:], cfg.fc_layers)]
    # The halo each stage's output still needs: the half-heights after it.
    halos = [sum(kh // 2 for kh, *_ in stages[k + 1:]) for k in range(len(stages))]
    halo = halos[0] + stages[0][0] // 2
    rows, cols = rf.samples.shape[:2]
    block = max(1, _PIXEL_BLOCK // cols)
    out = np.empty((rows, cols, 2))
    worker_traces = []

    def stream(first, last):
        local = None if trace is None else {}
        lo, hi = first * block, min(last * block, rows)
        entered = max(lo - halo, 0)
        done = [max(lo - h, 0) for h in halos]  # each stage's next output row
        held = [None] * len(stages)  # input rows from max(done - kh // 2, 0)
        for b in range(lo, hi, block):
            end = min(b + block, rows)
            x = arith.enter(rf.samples[entered : min(end + halo, rows)], "input")
            entered = min(end + halo, rows)
            _trace(local, "input", x)
            for k, (kh, name, conv, capsules) in enumerate(stages):
                ph, stop = kh // 2, min(end + halos[k], rows)
                # held[k] then x are input rows max(done - ph, 0) up to
                # min(stop + ph, rows): exactly the rows output rows done up
                # to stop read, beside the zero rows beyond a frame edge.
                pad_rows = (max(ph - done[k], 0), max(stop + ph - rows, 0))
                y = _trace(local, name, conv(x, pad_rows=pad_rows, above=held[k]))
                if ph:  # carry the input rows that outputs from stop on read
                    keep = min(stop + ph, rows) - max(stop - ph, 0)
                    if len(x) < keep:  # fewer new rows than carried ones
                        x = np.concatenate((held[k], x))
                    held[k] = x[len(x) - keep:].copy()
                done[k] = stop
                if capsules is not None:
                    # A stage that owes no rows this block still squashes its
                    # empty output, so the shape is stated, not inferred.
                    shape, dst = capsules
                    v = arith.squash(y.reshape(*y.shape[:2], *shape), name, dst)
                    y = _trace(local, dst, v).reshape(y.shape)
                x = y
            v = arith.route(x.reshape(-1, routing.num_in_capsules, routing.in_dim),
                            routing, route_names, local)
            y = _trace(local, route_names[-1], v).reshape(*x.shape[:2], -1)
            for name, conv in fc:
                y = _trace(local, name, conv(y))
            out[b:end] = arith.leave(y, fc_names[-1])
        if local is not None:
            worker_traces.append(local)

    run_ranges(-(-rows // block), stream)
    for local in worker_traces:
        for name, peak in local.items():
            trace[name] = max(trace.get(name, 0.0), peak)
    return out


def infer(rf: RfVolume, cfg: CapsConfig, weights: WeightBundle,
          trace: dict | None = None) -> EnvelopeImage:
    """Run the float network (walk, _FloatArith's dtypes) over a ToF-corrected volume.

    The output bytes do not depend on CAPSBEAM_THREADS. trace, when
    given, accumulates every stage's max absolute activation under the
    names quantization calibration scales.
    """
    out = walk(rf, cfg, _FloatArith(weights), trace)
    return EnvelopeImage(grid=rf.grid, i_part=out[..., 0].astype(np.float32),
                         q_part=out[..., 1].astype(np.float32))
