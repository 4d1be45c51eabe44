"""Structured kernel pruning with lookahead connectivity scores.

A kernel is one [kh, kw] slice of a conv weight tensor, addressed by its
(input channel, filter) pair. Scores are products of L1 mass along the
kernel's connected path through neighboring layers:

    distance 1 upstream   the kernels composing filter q of layer i-1
    distance 1 downstream the kernels reading channel p in layer i+1
    distance > 1          the full reachable cross-section, which after
                          one hop covers an entire layer

so for radius r the score is total-layer terms for hops 2..r around the
direct-neighbor terms. Layers past either end of the net are skipped.
Multiplication order is pinned (kernel, upstream hops ascending, then
downstream hops ascending) so results are reproducible bit for bit.

Quotas are per filter: every filter keeps kept_per_filter(cin, ratio)
kernels, which keeps the kept-index lists rectangular and, for ratio < 1,
leaves every filter at least one kernel, so no filter is ever removed.
Ties prune the lower input channel first. A compacted layer stores its
kept input channels in an .index list and its [cin, cout] kept-kernel
mask in .mask, whose dims give the dense input width. Only conv-layout
weights [kh, kw, cin, cout] are pruned (others raise ShapeMismatch), and
walks expand compacted layers themselves (capsnet.layer_entries).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .data_model import PixelGrid, Tensor, WeightBundle
from .errors import (
    IndexOutOfRange,
    InvalidConfig,
    MaskMismatch,
    MissingWeight,
    RatioOutOfRange,
    ShapeMismatch,
)

METHODS = ("magnitude", "lakp", "lakp_ml")


@dataclass(frozen=True)
class ConvNetDescription:
    """Ordered conv weights [kh, kw, cin, cout]; adjacent layers chain.
    layer_names, when given, ties each position to a bundle entry prefix."""

    layers: tuple[np.ndarray, ...]
    layer_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.layers:
            raise InvalidConfig("net needs at least one layer")
        arrays = []
        for idx, layer in enumerate(self.layers):
            arr = np.asarray(layer, dtype=np.float64)
            if arr.ndim != 4:
                raise ShapeMismatch(f"layer {idx} must be [kh, kw, cin, cout]")
            if idx > 0 and arrays[-1].shape[3] != arr.shape[2]:
                raise InvalidConfig(
                    f"layer {idx} cin {arr.shape[2]} != layer {idx - 1} cout "
                    f"{arrays[-1].shape[3]}"
                )
            arrays.append(arr)
        if self.layer_names and len(self.layer_names) != len(arrays):
            raise InvalidConfig("layer_names length must match layers")
        object.__setattr__(self, "layers", tuple(arrays))
        object.__setattr__(self, "layer_names", tuple(self.layer_names))

    @classmethod
    def from_bundle(cls, bundle: WeightBundle, names: list[str]) -> "ConvNetDescription":
        layers = tuple(bundle.require(f"{name}.weight").data for name in names)
        return cls(layers=layers, layer_names=tuple(names))


def kernel_l1(weights: np.ndarray, cin_index: int, cout_index: int) -> float:
    """L1 mass of one kernel slice."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4:
        raise ShapeMismatch("weights must be [kh, kw, cin, cout]")
    _, _, cin, cout = weights.shape
    if not (0 <= cin_index < cin and 0 <= cout_index < cout):
        raise IndexOutOfRange(f"kernel ({cin_index}, {cout_index}) outside ({cin}, {cout})")
    return float(np.abs(weights[:, :, cin_index, cout_index]).sum())


def _layer_l1(weights: np.ndarray) -> np.ndarray:
    """Per-kernel L1 matrix [cin, cout]."""
    return np.abs(np.asarray(weights, dtype=np.float64)).sum(axis=(0, 1))


def lakp_ml_score(net: ConvNetDescription, layer_index: int, cin_index: int,
                  cout_index: int, r: int) -> float:
    """Lookahead score of one kernel over a radius-r neighborhood."""
    if r < 1:
        raise InvalidConfig("lookahead radius must be at least 1")
    if not 0 <= layer_index < len(net.layers):
        raise IndexOutOfRange(f"layer {layer_index} outside net of {len(net.layers)}")
    matrix = score_matrix(net, layer_index, method="lakp_ml", r=r)
    _, _, cin, cout = net.layers[layer_index].shape
    if not (0 <= cin_index < cin and 0 <= cout_index < cout):
        raise IndexOutOfRange(f"kernel ({cin_index}, {cout_index}) outside ({cin}, {cout})")
    return float(matrix[cin_index, cout_index])


def score_matrix(net: ConvNetDescription, layer_index: int, method: str = "lakp_ml",
                 r: int = 2) -> np.ndarray:
    """Scores for every kernel of one layer, shape [cin, cout]."""
    if method not in METHODS:
        raise InvalidConfig(f"unknown scoring method {method!r}")
    scores = _layer_l1(net.layers[layer_index])
    if method == "magnitude":
        return scores
    radius = 1 if method == "lakp" else r
    if radius < 1:
        raise InvalidConfig("lookahead radius must be at least 1")
    for t in range(1, radius + 1):
        j = layer_index - t
        if j < 0:
            break
        if t == 1:
            # Kernels composing each upstream filter q: column sums of layer i-1.
            scores = scores * _layer_l1(net.layers[j]).sum(axis=0)[:, None]
        else:
            scores = scores * np.sum(_layer_l1(net.layers[j]))
    for t in range(1, radius + 1):
        j = layer_index + t
        if j >= len(net.layers):
            break
        if t == 1:
            # Kernels reading channel p across all downstream filters: row sums.
            scores = scores * _layer_l1(net.layers[j]).sum(axis=1)[None, :]
        else:
            scores = scores * np.sum(_layer_l1(net.layers[j]))
    return scores


@dataclass
class PruneMask:
    """Kept-kernel masks per layer (True keeps), plus bundle names."""

    masks: list[np.ndarray]
    layer_names: tuple[str, ...] = ()
    method: str = "lakp_ml"
    ratio: float = 0.0
    lookahead: int = 0


@dataclass
class PruneReport:
    ratio_requested: float
    ratio_achieved: float
    per_layer_kept: list[int]
    per_layer_total: list[int]
    params_before: int
    params_after: int
    flops_before: int
    flops_after: int

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("field,value\n")
        out.write(f"ratio_requested,{self.ratio_requested!r}\n")
        out.write(f"ratio_achieved,{self.ratio_achieved!r}\n")
        out.write(f"params_before,{self.params_before}\n")
        out.write(f"params_after,{self.params_after}\n")
        out.write(f"flops_before,{self.flops_before}\n")
        out.write(f"flops_after,{self.flops_after}\n")
        for i, (kept, total) in enumerate(zip(self.per_layer_kept, self.per_layer_total)):
            out.write(f"layer{i}_kept_kernels,{kept}\n")
            out.write(f"layer{i}_total_kernels,{total}\n")
        return out.getvalue()


def kept_per_filter(cin: int, ratio: float) -> int:
    """Kernels each filter keeps when a ratio of its cin kernels is pruned,
    the pruned count rounded down; at least one for ratio < 1."""
    return cin - int(np.floor(ratio * cin))


def plan_prune(net: ConvNetDescription, ratio: float, method: str = "lakp_ml",
               r: int = 2, grid: PixelGrid | None = None) -> tuple[PruneMask, PruneReport]:
    """Select kernels to drop and account for the result.

    Every filter keeps its kept_per_filter(cin, ratio) highest-scoring
    kernels; equal scores drop the lower input channel first. FLOP
    accounting uses the provided grid (stock grid when omitted).
    """
    if not 0.0 <= ratio < 1.0:
        raise RatioOutOfRange(f"ratio {ratio} outside [0, 1)")
    if method not in METHODS:
        raise InvalidConfig(f"unknown scoring method {method!r}")
    grid = grid or PixelGrid()
    masks = []
    for li, weights in enumerate(net.layers):
        scores = score_matrix(net, li, method=method, r=r)
        _, _, cin, cout = weights.shape
        quota = cin - kept_per_filter(cin, ratio)
        mask = np.ones((cin, cout), dtype=bool)
        if quota > 0:
            order = np.lexsort((np.arange(cin)[:, None].repeat(cout, 1), scores), axis=0)
            drop = order[:quota]  # [quota, cout] of cin indices, per filter
            mask[drop, np.arange(cout)[None, :]] = False
        masks.append(mask)
    pixels = grid.num_pixels
    kept_counts, totals = [], []
    params_before = params_after = 0
    flops_before = flops_after = 0
    for weights, mask in zip(net.layers, masks):
        kh, kw, cin, cout = weights.shape
        kept = int(mask.sum())
        kept_counts.append(kept)
        totals.append(cin * cout)
        params_before += kh * kw * cin * cout + cout
        params_after += kh * kw * kept + cout
        flops_before += 2 * pixels * kh * kw * cin * cout
        flops_after += 2 * pixels * kh * kw * kept
    achieved = 1.0 - sum(kept_counts) / sum(totals)
    mask_obj = PruneMask(masks=masks, layer_names=net.layer_names, method=method,
                         ratio=ratio, lookahead=(1 if method == "lakp" else r))
    report = PruneReport(
        ratio_requested=ratio,
        ratio_achieved=achieved,
        per_layer_kept=kept_counts,
        per_layer_total=totals,
        params_before=params_before,
        params_after=params_after,
        flops_before=flops_before,
        flops_after=flops_after,
    )
    return mask_obj, report


def apply_mask(bundle: WeightBundle, mask: PruneMask) -> WeightBundle:
    """Compact masked layers into kept-kernel tensors plus index lists;
    the inverse of expand_index.

    Per layer the output holds <name>.weight [kh, kw, kept, cout],
    <name>.index [kept, cout] (each filter's kept input channels,
    ascending) and <name>.mask [cin, cout]; biases are unchanged. Every
    filter must keep the same nonzero number of kernels, which
    quota-based planning guarantees, and the mask must name one layer
    per mask; otherwise MaskMismatch.
    """
    if not mask.layer_names:
        raise InvalidConfig("mask carries no layer names to apply")
    if len(mask.layer_names) != len(mask.masks):
        raise MaskMismatch(
            f"mask names {len(mask.layer_names)} layers but holds {len(mask.masks)} masks"
        )
    out = bundle.copy()
    for name, m in zip(mask.layer_names, mask.masks):
        weight = bundle.require(f"{name}.weight")
        w = weight.data
        if w.ndim != 4:
            raise ShapeMismatch(f"{name}: weight {w.shape} is not [kh, kw, cin, cout]")
        _, _, cin, cout = w.shape
        if m.shape != (cin, cout):
            raise MaskMismatch(f"{name}: mask {m.shape} vs weights ({cin}, {cout})")
        counts = m.sum(axis=0)
        if counts.min() == 0:
            raise MaskMismatch(f"{name}: filter {int(np.argmin(counts))} keeps no kernels")
        if counts.max() != counts.min():
            raise MaskMismatch(f"{name}: ragged kept counts {sorted(set(counts.tolist()))}")
        index = np.nonzero(m.T)[1].reshape(cout, -1).T  # [kept, cout]
        out.entries[f"{name}.weight"] = Tensor.from_array(
            w[:, :, index, np.arange(cout)], scale_exp=weight.scale_exp)
        out.entries[f"{name}.index"] = Tensor.from_array(index.astype(np.int16))
        out.entries[f"{name}.mask"] = Tensor.from_array(m.astype(np.int16))
    out.metadata["prune_method"] = mask.method
    out.metadata["prune_ratio"] = repr(mask.ratio)
    out.metadata["prune_lookahead"] = str(mask.lookahead)
    return out


def expand_index(weight: np.ndarray, index: np.ndarray, cin: int, name: str) -> np.ndarray:
    """Scatter compacted kernels [kh, kw, kept, cout] into a zero-filled
    dense [kh, kw, cin, cout] at the input channels index [kept, cout] lists.

    Raises ShapeMismatch when weight is not [kh, kw, kept, cout], and
    IndexOutOfRange when index is not [kept, cout], names a channel
    outside [0, cin), or lists one channel twice within a filter.
    """
    if weight.ndim != 4:
        raise ShapeMismatch(f"{name}: weight {weight.shape} is not [kh, kw, kept, cout]")
    kh, kw, kept, cout = weight.shape
    idx = np.asarray(index).astype(np.int64)
    if idx.shape != (kept, cout):
        raise IndexOutOfRange(f"{name}: index {idx.shape} does not match ({kept}, {cout}) kernels")
    if idx.min() < 0 or idx.max() >= cin:
        raise IndexOutOfRange(f"{name}: index entries outside [0, {cin})")
    if np.any(np.diff(np.sort(idx, axis=0), axis=0) == 0):
        raise IndexOutOfRange(f"{name}: a filter lists one input channel twice")
    dense = np.zeros((kh, kw, cin, cout), dtype=weight.dtype)
    dense[:, :, idx, np.arange(cout)] = weight
    return dense


def densify(bundle: WeightBundle, layer_names: list[str]) -> WeightBundle:
    """Expand compacted layers back to dense zero-filled weights.

    Each compacted layer's input width is read from its .mask dims; a
    layer with .index but no .mask raises MissingWeight, and a mask that
    is not [cin, cout] raises MaskMismatch. Pruned kernel positions are
    zero. Index and mask entries are dropped.
    """
    out = bundle.copy()
    for name in layer_names:
        index_entry = bundle.entries.get(f"{name}.index")
        weight = bundle.require(f"{name}.weight")
        if index_entry is None:
            continue
        mask_entry = bundle.entries.get(f"{name}.mask")
        if mask_entry is None:
            raise MissingWeight(f"{name}: .index without .mask gives no input width")
        w = weight.data
        if len(mask_entry.dims) != 2 or mask_entry.dims[1] != w.shape[-1]:
            raise MaskMismatch(f"{name}: mask {mask_entry.dims} vs {w.shape[-1]} filters")
        dense = expand_index(w, index_entry.data, mask_entry.dims[0], name)
        out.entries[f"{name}.weight"] = Tensor.from_array(dense, scale_exp=weight.scale_exp)
        out.entries.pop(f"{name}.index")
        out.entries.pop(f"{name}.mask")
    return out
