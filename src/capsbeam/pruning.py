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

Quotas are per filter: floor(ratio * cin) kernels pruned in every filter,
which keeps the kept-index lists rectangular. Ties prune the lower input
channel first. Filters left with no kernels are removed and their
downstream input slices are masked out in cascade.
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
    RatioOutOfRange,
    ShapeMismatch,
)

METHODS = ("magnitude", "lakp", "lakp_ml")


@dataclass(frozen=True)
class ConvNetDescription:
    """Ordered conv weights [kh, kw, cin, cout]; adjacent layers chain.

    Pointwise FC layers participate as [1, 1, in, out]. layer_names, when
    given, ties each position to a weight-bundle entry prefix.
    """

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
        layers = []
        for name in names:
            arr = bundle.require(f"{name}.weight").data.astype(np.float64)
            if arr.ndim == 2:
                arr = arr.reshape(1, 1, *arr.shape)
            layers.append(arr)
        return cls(layers=tuple(layers), layer_names=tuple(names))


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
    removed_filters: list[int]
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
        for i, (kept, total, removed) in enumerate(
            zip(self.per_layer_kept, self.per_layer_total, self.removed_filters)
        ):
            out.write(f"layer{i}_kept_kernels,{kept}\n")
            out.write(f"layer{i}_total_kernels,{total}\n")
            out.write(f"layer{i}_removed_filters,{removed}\n")
        return out.getvalue()


def plan_prune(net: ConvNetDescription, ratio: float, method: str = "lakp_ml",
               r: int = 2, grid: PixelGrid | None = None) -> tuple[PruneMask, PruneReport]:
    """Select kernels to drop and account for the result.

    Every filter loses its floor(ratio * cin) lowest-scoring kernels;
    equal scores drop the lower input channel first. FLOP accounting uses
    the provided grid (stock grid when omitted).
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
        quota = int(np.floor(ratio * cin))
        mask = np.ones((cin, cout), dtype=bool)
        if quota > 0:
            order = np.lexsort((np.arange(cin)[:, None].repeat(cout, 1), scores), axis=0)
            drop = order[:quota]  # [quota, cout] of cin indices, per filter
            mask[drop, np.arange(cout)[None, :]] = False
        masks.append(mask)
    # Cascade: a filter with no kept kernels disappears, taking its
    # downstream input slice with it.
    removed = [0] * len(masks)
    for li in range(len(masks)):
        dead = ~masks[li].any(axis=0)
        removed[li] = int(dead.sum())
        if li + 1 < len(masks) and dead.any():
            masks[li + 1][dead, :] = False
    pixels = grid.num_pixels
    kept_counts, totals = [], []
    params_before = params_after = 0
    flops_before = flops_after = 0
    for weights, mask, dead_count in zip(net.layers, masks, removed):
        kh, kw, cin, cout = weights.shape
        kept = int(mask.sum())
        kept_counts.append(kept)
        totals.append(cin * cout)
        params_before += kh * kw * cin * cout + cout
        params_after += kh * kw * kept + (cout - dead_count)
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
        removed_filters=removed,
        params_before=params_before,
        params_after=params_after,
        flops_before=flops_before,
        flops_after=flops_after,
    )
    return mask_obj, report


def apply_mask(bundle: WeightBundle, mask: PruneMask) -> WeightBundle:
    """Compact masked layers into kept-kernel tensors plus index lists.

    Per layer the output holds <name>.weight [kh, kw, kept, cout'],
    <name>.index [kept, cout'] (original input-channel positions, remapped
    past upstream filter removals), <name>.mask [cin, cout], and the
    surviving biases. Kept counts must be rectangular across surviving
    filters, which quota-based planning guarantees.
    """
    if not mask.layer_names:
        raise InvalidConfig("mask carries no layer names to apply")
    out = bundle.copy()
    prev_survivors: np.ndarray | None = None
    for name, m in zip(mask.layer_names, mask.masks):
        weight = bundle.require(f"{name}.weight")
        bias = bundle.require(f"{name}.bias")
        w = weight.data
        if w.ndim == 2:
            w = w.reshape(1, 1, *w.shape)
        kh, kw, cin, cout = w.shape
        if m.shape != (cin, cout):
            raise MaskMismatch(f"{name}: mask {m.shape} vs weights ({cin}, {cout})")
        survivors = np.flatnonzero(m.any(axis=0))
        kept_per_filter = m[:, survivors].sum(axis=0)
        if survivors.size == 0:
            raise MaskMismatch(f"{name}: every filter pruned away")
        if not np.all(kept_per_filter == kept_per_filter[0]):
            raise MaskMismatch(f"{name}: ragged kept counts {sorted(set(kept_per_filter))}")
        kept = int(kept_per_filter[0])
        # Remap kept cin positions to the compacted upstream channel space.
        if prev_survivors is None:
            remap = np.arange(cin)
        else:
            remap = np.full(cin, -1, dtype=np.int64)
            remap[prev_survivors] = np.arange(prev_survivors.size)
        compact = np.empty((kh, kw, kept, survivors.size), dtype=w.dtype)
        index = np.empty((kept, survivors.size), dtype=np.int16)
        for col, f in enumerate(survivors):
            cin_idx = np.flatnonzero(m[:, f])
            mapped = remap[cin_idx]
            if np.any(mapped < 0):
                raise MaskMismatch(f"{name}: kept kernel references a removed channel")
            compact[:, :, :, col] = w[:, :, cin_idx, f]
            index[:, col] = mapped.astype(np.int16)
        shape = compact.shape if weight.data.ndim == 4 else compact.shape[2:]
        out.entries[f"{name}.weight"] = Tensor.from_array(
            compact.reshape(shape).astype(weight.data.dtype), scale_exp=weight.scale_exp
        )
        out.entries[f"{name}.index"] = Tensor.from_array(index)
        out.entries[f"{name}.mask"] = Tensor.from_array(m.astype(np.int16))
        out.entries[f"{name}.bias"] = Tensor.from_array(
            bias.data[survivors], scale_exp=bias.scale_exp
        )
        prev_survivors = survivors
    out.metadata["prune_method"] = mask.method
    out.metadata["prune_ratio"] = repr(mask.ratio)
    out.metadata["prune_lookahead"] = str(mask.lookahead)
    return out


def expand_index(weight: np.ndarray, index: np.ndarray, cin: int, name: str) -> np.ndarray:
    """Scatter compacted kernels [kh, kw, kept, cout] into a zero-filled
    dense [kh, kw, cin, cout] at the input channels index [kept, cout] lists.

    Raises IndexOutOfRange when index is not [kept, cout], names a channel
    outside [0, cin), or lists one channel twice within a filter.
    """
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

    The dense tensors use the compacted channel spaces (removed filters
    stay removed); pruned kernel positions are zero. Index and mask
    entries are dropped.
    """
    out = bundle.copy()
    prev_channels: int | None = None
    for name in layer_names:
        index_entry = bundle.entries.get(f"{name}.index")
        weight = bundle.require(f"{name}.weight")
        if index_entry is None:
            prev_channels = weight.dims[-1]
            continue
        w = weight.data
        squeeze = w.ndim == 2
        if squeeze:
            w = w.reshape(1, 1, *w.shape)
        cout = w.shape[3]
        mask_entry = bundle.entries.get(f"{name}.mask")
        if prev_channels is not None:
            cin = prev_channels
        elif mask_entry is not None:
            cin = mask_entry.dims[0]
        else:
            cin = int(index_entry.data.max()) + 1
        dense = expand_index(w, index_entry.data, cin, name)
        shape = dense.shape[2:] if squeeze else dense.shape
        out.entries[f"{name}.weight"] = Tensor.from_array(
            dense.reshape(shape), scale_exp=weight.scale_exp
        )
        out.entries.pop(f"{name}.index", None)
        out.entries.pop(f"{name}.mask", None)
        prev_channels = cout
    return out
