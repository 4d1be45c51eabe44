"""Transaction- and cycle-accurate model of the streaming conv engine.

The functional replay is the fixed-point path itself: a conv layer runs
quantized.conv_fixed (the row-chunked exact conv with bias, requantize and
ReLU per chunk) and routing runs its fixed-point routing, so the outputs
match bit for bit. Pruned layers carry rectangular kept-channel index
lists, decoded once per layer by pruning.expand_index; the ledgers charge
kept kernels.

The timing model is analytic, not RTL: compute cycles are
rows * ceil(cout / pe_rows) * ceil(cols / pe_cols) * kh * kw * kept_cin,
and a layer stalls when its external words outpace the combined DMA beat
rate. Routing stage costs are affine in n_caps * dim with the constants
below; absolute figures are model parameters, only orderings and the
report's internal arithmetic are contractual. The routing ops and cycle
ledgers charge the agreement stage every iteration because the engine
executes it even when the result is discarded after the last pass.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .capsnet import RoutingCfg
from .data_model import PixelGrid, require_finite_fields, routing_flops_per_pixel
from .errors import BramOverflow, InvalidConfig, ShapeMismatch
from .pruning import expand_index, kept_per_filter
from .quantized import _routing_fixed, conv_fixed

POLICIES = ("reload_per_block", "weights_resident")

# Routing stage cycle cost = base + per_elem * (n_caps * dim).
ROUTING_STAGE_BASE = {"softmax": 8, "matvec": 4, "squash": 16, "agreement": 4}
ROUTING_STAGE_PER_ELEM = {"softmax": 2, "matvec": 1, "squash": 2, "agreement": 1}


@dataclass(frozen=True)
class AccelConfig:
    pe_rows: int = 4
    pe_cols: int = 128
    clock_hz: float = 100e6
    dma_count: int = 2
    dma_beat_bytes: int = 8
    word_bits: int = 16
    bram_budget_bytes: int = 1_437_696

    def __post_init__(self):
        require_finite_fields(self, "clock_hz")
        if min(self.pe_rows, self.pe_cols, self.dma_count, self.dma_beat_bytes) < 1:
            raise InvalidConfig("accelerator dimensions must be positive")
        if self.clock_hz <= 0:
            raise InvalidConfig("clock must be positive")
        if self.word_bits % 8 != 0 or self.word_bits < 8:
            raise InvalidConfig("word_bits must be a positive byte multiple")
        if self.bram_budget_bytes < 1:
            raise InvalidConfig("bram budget must be positive")

    @property
    def word_bytes(self) -> int:
        return self.word_bits // 8

    @property
    def beat_words_per_cycle(self) -> float:
        return self.dma_count * self.dma_beat_bytes / self.word_bytes


@dataclass(frozen=True)
class LayerShape:
    """Geometry one conv layer presents to the memory system."""

    rows: int
    cols: int
    kernel_h: int
    kernel_w: int
    cin: int
    cout: int
    cin_kept: int | None = None

    def __post_init__(self):
        if min(self.rows, self.cols) < 0 or min(self.kernel_h, self.kernel_w) < 1:
            raise InvalidConfig("bad layer geometry")
        if min(self.cin, self.cout) < 1:
            raise InvalidConfig("channel counts must be positive")
        kept_in = self.cin if self.cin_kept is None else self.cin_kept
        if not 0 < kept_in <= self.cin:
            raise InvalidConfig("cin_kept must lie in (0, cin]")
        object.__setattr__(self, "cin_kept", kept_in)


def count_transactions(layer: LayerShape, policy: str) -> int:
    """External word reads to run one layer under a weight policy.

    reload_per_block re-streams the full dense weight set every row;
    weights_resident fetches only the kept kernels once. Both stream the
    input activation rows once.
    """
    if policy not in POLICIES:
        raise InvalidConfig(f"unknown policy {policy!r}")
    input_words = layer.rows * layer.cols * layer.cin
    if policy == "reload_per_block":
        weight_words = layer.rows * layer.kernel_h * layer.kernel_w * layer.cin * layer.cout
    else:
        weight_words = layer.kernel_h * layer.kernel_w * layer.cin_kept * layer.cout
    return weight_words + input_words


@dataclass
class LayerReport:
    name: str
    transactions: int
    compute_cycles: int
    stall_cycles: int
    ops: int
    bram_bytes: int

    @property
    def cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles


@dataclass
class SimReport:
    """Totals plus a per-layer breakdown. Derived figures recompute from
    the integer fields, so modeled_gops * modeled_latency_s reproduces
    1e-9 * total_ops by construction."""

    clock_hz: float
    per_layer: list[LayerReport] = field(default_factory=list)

    @property
    def external_word_transactions(self) -> int:
        return sum(l.transactions for l in self.per_layer)

    @property
    def cycle_count(self) -> int:
        return sum(l.cycles for l in self.per_layer)

    @property
    def total_ops(self) -> int:
        return sum(l.ops for l in self.per_layer)

    @property
    def bram_bytes_peak(self) -> int:
        return max((l.bram_bytes for l in self.per_layer), default=0)

    @property
    def modeled_latency_s(self) -> float:
        return self.cycle_count / self.clock_hz

    @property
    def modeled_gops(self) -> float:
        if self.cycle_count == 0:
            return 0.0
        return 1e-9 * self.total_ops / self.modeled_latency_s

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("layer,transactions,compute_cycles,stall_cycles,cycles,ops,bram_bytes\n")
        for l in self.per_layer:
            out.write(
                f"{l.name},{l.transactions},{l.compute_cycles},{l.stall_cycles},"
                f"{l.cycles},{l.ops},{l.bram_bytes}\n"
            )
        out.write(
            f"total,{self.external_word_transactions},,,{self.cycle_count},"
            f"{self.total_ops},{self.bram_bytes_peak}\n"
        )
        return out.getvalue()

    def to_text(self) -> str:
        lines = [
            f"external_word_transactions={self.external_word_transactions}",
            f"cycle_count={self.cycle_count}",
            f"total_ops={self.total_ops}",
            f"bram_bytes_peak={self.bram_bytes_peak}",
            f"modeled_latency_s={self.modeled_latency_s!r}",
            f"modeled_gops={self.modeled_gops!r}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConvLayerSpec:
    """Weights as streamed to the engine. index is [kept, cout] original
    input-channel positions, or None for dense layers."""

    weight: np.ndarray  # [kh, kw, kept, cout] int16 raws
    bias: np.ndarray  # [cout] int16 raws
    index: np.ndarray | None
    relu: bool
    f_in: int
    f_w: int
    f_b: int
    f_out: int
    name: str = "conv"

    def __post_init__(self):
        w = np.asarray(self.weight)
        if w.ndim != 4:
            raise ShapeMismatch("spec weight must be [kh, kw, kept, cout]")
        if self.index is not None and np.asarray(self.index).shape != w.shape[2:]:
            raise ShapeMismatch("index list must be [kept, cout]")


def _conv_compute_cycles(shape: LayerShape, accel: AccelConfig) -> int:
    blocks = -(-shape.cout // accel.pe_rows)
    col_passes = -(-shape.cols // accel.pe_cols)
    return (
        shape.rows * blocks * col_passes * shape.kernel_h * shape.kernel_w * shape.cin_kept
    )


def _stored_weight_words(shape: LayerShape, with_index: bool) -> int:
    """Words of one layer's stored weights: kept kernels, bias and, for a
    pruned layer, its [kept, cout] index."""
    words = shape.kernel_h * shape.kernel_w * shape.cin_kept * shape.cout + shape.cout
    return words + (shape.cin_kept * shape.cout if with_index else 0)


def _layer_bram_bytes(shape: LayerShape, accel: AccelConfig, with_index: bool) -> int:
    line_words = shape.kernel_h * shape.cols * shape.cin
    out_words = shape.cols * shape.cout
    return (_stored_weight_words(shape, with_index) + line_words + out_words) * accel.word_bytes


def _conv_report(name: str, shape: LayerShape, transactions: int, accel: AccelConfig,
                 with_index: bool) -> LayerReport:
    """Conv engine ledger row: compute cycles, DMA stall, ops and BRAM for
    one layer whose external words are already counted."""
    compute = _conv_compute_cycles(shape, accel)
    need = int(np.ceil(transactions / accel.beat_words_per_cycle))
    return LayerReport(
        name=name,
        transactions=transactions,
        compute_cycles=compute,
        stall_cycles=max(0, need - compute),
        ops=2 * shape.rows * shape.cols * shape.kernel_h * shape.kernel_w
        * shape.cin_kept * shape.cout,
        bram_bytes=_layer_bram_bytes(shape, accel, with_index),
    )


def sim_conv_layer(
    input_raw: np.ndarray,
    spec: ConvLayerSpec,
    accel: AccelConfig,
    policy: str = "weights_resident",
) -> tuple[np.ndarray, SimReport]:
    """Stream one conv layer through the modeled engine.

    Returns the int16 output activations and a report. The output is the
    fixed-point path's quantized.conv_fixed on the index-expanded weights;
    the timing (the streamed words, cycles and BRAM working set of an
    engine that holds kernel-height input rows) is analytic. Index entries
    outside [0, cin) or repeated within a filter raise IndexOutOfRange.

    Unlike count_transactions, which counts reads only, this ledger also
    charges bias and index words and the written output stream.
    """
    if policy not in POLICIES:
        raise InvalidConfig(f"unknown policy {policy!r}")
    x = np.asarray(input_raw)
    if x.ndim != 3 or x.dtype != np.int16:
        raise ShapeMismatch("input must be int16 [rows, cols, cin]")
    rows, cols, cin = x.shape
    kh, kw, kept, cout = spec.weight.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise InvalidConfig("kernels must be odd")
    if spec.index is None and kept != cin:
        raise ShapeMismatch(f"dense weights expect cin {kept}, input has {cin}")
    weight = spec.weight
    if spec.index is not None:
        weight = expand_index(weight, spec.index, cin, spec.name)
    shape = LayerShape(rows, cols, kh, kw, cin, cout, cin_kept=kept)
    weight_words = _stored_weight_words(shape, spec.index is not None)
    if policy == "reload_per_block":
        weight_stream = rows * weight_words
    else:
        weight_stream = weight_words
    transactions = weight_stream + rows * cols * cin + rows * cols * cout
    layer = _conv_report(spec.name, shape, transactions, accel, spec.index is not None)
    if layer.bram_bytes > accel.bram_budget_bytes:
        raise BramOverflow(
            f"{spec.name}: working set {layer.bram_bytes} B exceeds budget "
            f"{accel.bram_budget_bytes} B"
        )
    out = conv_fixed(x, weight, spec.bias, spec.f_in, spec.f_w, spec.f_b, spec.f_out, spec.relu)
    return out, SimReport(clock_hz=accel.clock_hz, per_layer=[layer])


def routing_cycles_per_pixel(n_caps: int, dim: int, iterations: int) -> int:
    m = n_caps * dim
    per_iter = sum(
        ROUTING_STAGE_BASE[s] + ROUTING_STAGE_PER_ELEM[s] * m
        for s in ("softmax", "matvec", "squash", "agreement")
    )
    return iterations * per_iter


def _routing_report(pixels: int, routing: RoutingCfg, accel: AccelConfig) -> LayerReport:
    """Routing engine ledger row: capsules in and out once per pixel, no stall.
    Ops are routing_flops_per_pixel plus the agreement pass the engine runs
    after the last iteration."""
    n_in, n_out = routing.num_in_capsules, routing.num_out_capsules
    dim, iterations = routing.out_dim, routing.num_iterations
    return LayerReport(
        name="routing",
        transactions=pixels * (n_in + n_out) * dim,
        compute_cycles=pixels * routing_cycles_per_pixel(max(n_in, n_out), dim, iterations),
        stall_cycles=0,
        ops=pixels * (routing_flops_per_pixel(routing) + 2 * n_in * n_out * dim),
        bram_bytes=(n_in + n_out) * dim * accel.word_bytes,
    )


def sim_routing(
    caps_raw: np.ndarray,
    accel: AccelConfig,
    n_out: int,
    iterations: int,
    f_caps: int,
    f_logit: int,
    f_pre: int,
) -> tuple[np.ndarray, SimReport]:
    """Routing engine pass over a capsule stream [pixels, n_caps, dim].

    Replays _routing_fixed as it is, one pass; output capsules are at
    scale f_pre. The report bills every iteration (softmax, weighted sum,
    squash and agreement stages). The routing shape must pass
    RoutingCfg.validate; zero pixels bill nothing.
    """
    caps = np.asarray(caps_raw)
    if caps.ndim != 3 or caps.dtype != np.int16:
        raise ShapeMismatch("capsule stream must be int16 [pixels, n_caps, dim]")
    pixels, n_in, dim = caps.shape
    routing = RoutingCfg(n_in, dim, n_out, dim, iterations)
    routing.validate()
    out = _routing_fixed(caps, f_caps, n_out, f_logit=f_logit, f_pre=f_pre)
    return out, SimReport(clock_hz=accel.clock_hz,
                          per_layer=[_routing_report(pixels, routing, accel)])


def layer_shapes(cfg, grid: PixelGrid, pruned: bool = False,
                 prune_ratio: float = 0.85) -> list[tuple[str, LayerShape]]:
    """Memory-system geometry for every weighted layer of a network."""
    cfg.validate()
    shapes = []
    for layer in cfg.weighted_layers():
        kept = kept_per_filter(layer.in_ch, prune_ratio) if pruned and layer.prunable else None
        shapes.append((layer.name, LayerShape(
            rows=grid.num_rows, cols=grid.num_cols, kernel_h=layer.kernel_h,
            kernel_w=layer.kernel_w, cin=layer.in_ch, cout=layer.out_ch, cin_kept=kept,
        )))
    return shapes


def estimate_latency(cfg, grid: PixelGrid, accel: AccelConfig, pruned: bool = False,
                     policy: str = "weights_resident", prune_ratio: float = 0.85) -> SimReport:
    """Whole-network analytic report; no activations are touched.

    Conv, capsule conv, and pointwise FC layers use the conv engine
    model; routing adds its per-pixel stage costs. With pruned=True the
    layers pruning compacts (conv and caps, at any ratio) also hold index
    words; fc layers stay dense. A zero-layer config yields an empty
    report with zero cycles.
    """
    if policy not in POLICIES:
        raise InvalidConfig(f"unknown policy {policy!r}")
    report = SimReport(clock_hz=accel.clock_hz)
    shapes = layer_shapes(cfg, grid, pruned=pruned, prune_ratio=prune_ratio)
    for layer, (name, shape) in zip(cfg.weighted_layers(), shapes):
        report.per_layer.append(_conv_report(
            name, shape, count_transactions(shape, policy), accel, pruned and layer.prunable
        ))
    if cfg.routing is not None:
        report.per_layer.append(_routing_report(grid.num_pixels, cfg.routing, accel))
    return report
