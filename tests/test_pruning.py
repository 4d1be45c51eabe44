"""Lookahead kernel pruning: scores, quotas, compaction, densify.

score_matrix is held to *exact* float equality against an enumeration
oracle that rebuilds each factor with the same reduction shapes and
multiplies them in the same pinned order (kernel, upstream hops
ascending, downstream hops ascending); identical operand order makes the
float rounding identical, so == is the right comparison.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsbeam.capsnet import conv2d
from capsbeam.data_model import Tensor, WeightBundle
from capsbeam.errors import (
    IndexOutOfRange,
    InvalidConfig,
    MaskMismatch,
    MissingWeight,
    RatioOutOfRange,
    ShapeMismatch,
)
from capsbeam.pruning import (
    ConvNetDescription,
    PruneMask,
    apply_mask,
    densify,
    expand_index,
    kernel_l1,
    lakp_ml_score,
    plan_prune,
    score_matrix,
)


def _oracle_score(net, li, p, q, r):
    """Independent factor-by-factor recomputation, pinned order."""
    l1 = [np.abs(w).sum(axis=(0, 1)) for w in net.layers]
    s = l1[li][p, q]
    for t in range(1, r + 1):
        j = li - t
        if j < 0:
            break
        s = s * (l1[j][:, p].sum() if t == 1 else l1[j].sum())
    for t in range(1, r + 1):
        j = li + t
        if j >= len(net.layers):
            break
        s = s * (l1[j][q, :].sum() if t == 1 else l1[j].sum())
    return s


def _random_net(rng, depth=3, kmax=3, cmax=5):
    dims = [int(rng.integers(1, cmax + 1)) for _ in range(depth + 1)]
    layers = []
    for i in range(depth):
        k = int(rng.integers(1, kmax + 1))
        layers.append(rng.standard_normal((k, k, dims[i], dims[i + 1])))
    return ConvNetDescription(layers=tuple(layers))


# ---------------------------------------------------------------- scores


def test_kernel_l1_hand_values():
    w = np.zeros((2, 2, 2, 2))
    w[:, :, 1, 0] = [[1.0, -2.0], [3.0, -4.0]]
    assert kernel_l1(w, 1, 0) == 10.0
    assert kernel_l1(w, 0, 0) == 0.0
    with pytest.raises(IndexOutOfRange):
        kernel_l1(w, 2, 0)
    with pytest.raises(ShapeMismatch):
        kernel_l1(np.zeros((2, 2, 2)), 0, 0)


def test_lookahead_score_three_layer_hand_example():
    # Middle-layer kernel (p=0, q=1): own mass 5, upstream filter-0
    # composition 1+3=4, downstream readers of channel 1 sum 3+4=7.
    w0 = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    w1 = np.array([[2.0, 5.0, 1.0], [7.0, 0.5, 3.0]]).reshape(1, 1, 2, 3)
    w2 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).reshape(1, 1, 3, 2)
    net = ConvNetDescription(layers=(w0, w1, w2))
    assert lakp_ml_score(net, 1, 0, 1, r=2) == 5.0 * 4.0 * 7.0
    # r=2 reaches past both ends here, so r=1 gives the same value.
    assert lakp_ml_score(net, 1, 0, 1, r=1) == 140.0


def test_lookahead_score_five_layer_uses_whole_layer_totals():
    # Scalar chain 2-3-5-7-11: middle kernel at radius 2 multiplies its
    # own mass by direct-neighbor terms and whole-layer totals beyond.
    vals = [2.0, 3.0, 5.0, 7.0, 11.0]
    layers = tuple(np.full((1, 1, 1, 1), v) for v in vals)
    net = ConvNetDescription(layers=layers)
    assert lakp_ml_score(net, 2, 0, 0, r=2) == 5.0 * 3.0 * 2.0 * 7.0 * 11.0
    assert lakp_ml_score(net, 2, 0, 0, r=1) == 5.0 * 3.0 * 7.0
    assert lakp_ml_score(net, 2, 0, 0, r=4) == 2310.0  # breaks at both edges


def test_edge_layers_skip_missing_neighbors():
    rng = np.random.default_rng(0)
    net = _random_net(rng, depth=3)
    first = score_matrix(net, 0, r=2)
    last = score_matrix(net, 2, r=2)
    l1 = [np.abs(w).sum(axis=(0, 1)) for w in net.layers]
    np.testing.assert_array_equal(
        first, l1[0] * l1[1].sum(axis=1)[None, :] * l1[2].sum())
    np.testing.assert_array_equal(
        last, l1[2] * l1[1].sum(axis=0)[:, None] * l1[0].sum())


def test_score_matrix_exact_vs_enumeration_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        net = _random_net(rng, depth=int(rng.integers(2, 5)))
        li = int(rng.integers(0, len(net.layers)))
        r = int(rng.integers(1, 4))
        got = score_matrix(net, li, method="lakp_ml", r=r)
        _, _, cin, cout = net.layers[li].shape
        for p in range(cin):
            for q in range(cout):
                assert got[p, q] == _oracle_score(net, li, p, q, r)


def test_lakp_equals_lakp_ml_radius_one():
    rng = np.random.default_rng(1)
    net = _random_net(rng, depth=4)
    for li in range(4):
        np.testing.assert_array_equal(
            score_matrix(net, li, method="lakp"),
            score_matrix(net, li, method="lakp_ml", r=1),
        )


def test_magnitude_ignores_neighbors():
    rng = np.random.default_rng(2)
    net = _random_net(rng, depth=3)
    li = 1
    got = score_matrix(net, li, method="magnitude")
    np.testing.assert_array_equal(got, np.abs(net.layers[li]).sum(axis=(0, 1)))


def test_score_validation():
    net = ConvNetDescription(layers=(np.ones((1, 1, 2, 2)),))
    with pytest.raises(InvalidConfig):
        score_matrix(net, 0, method="banana")
    with pytest.raises(InvalidConfig):
        lakp_ml_score(net, 0, 0, 0, r=0)
    with pytest.raises(IndexOutOfRange):
        lakp_ml_score(net, 1, 0, 0, r=1)
    with pytest.raises(IndexOutOfRange):
        lakp_ml_score(net, 0, 2, 0, r=1)


# ---------------------------------------------------------------- planning


def test_quota_is_floor_ratio_cin():
    rng = np.random.default_rng(3)
    net = ConvNetDescription(layers=(rng.standard_normal((3, 3, 5, 4)),))
    mask, report = plan_prune(net, ratio=0.85)
    # floor(0.85 * 5) = 4 pruned per filter, one kernel kept each.
    assert mask.masks[0].sum(axis=0).tolist() == [1, 1, 1, 1]
    assert report.per_layer_kept == [4]
    assert report.per_layer_total == [20]
    assert report.ratio_achieved == 1.0 - 4 / 20


def test_tie_break_drops_lower_input_channel():
    net = ConvNetDescription(layers=(np.ones((1, 1, 3, 2)),))
    mask, _ = plan_prune(net, ratio=0.4)  # quota floor(1.2) = 1
    np.testing.assert_array_equal(
        mask.masks[0], np.array([[False, False], [True, True], [True, True]]))


def test_ratio_zero_is_identity():
    rng = np.random.default_rng(4)
    net = _random_net(rng, depth=2)
    mask, report = plan_prune(net, ratio=0.0)
    assert all(m.all() for m in mask.masks)
    assert report.ratio_achieved == 0.0
    assert report.params_after == report.params_before
    assert report.flops_after == report.flops_before


def test_ratio_bounds():
    net = ConvNetDescription(layers=(np.ones((1, 1, 2, 2)),))
    with pytest.raises(RatioOutOfRange):
        plan_prune(net, ratio=1.0)
    with pytest.raises(RatioOutOfRange):
        plan_prune(net, ratio=-0.05)


def test_layer_scaling_preserves_selection():
    # Positive scaling of any one layer multiplies every affected score
    # uniformly, so the per-filter ranking (and the mask) cannot move.
    rng = np.random.default_rng(5)
    net = _random_net(rng, depth=3)
    base, _ = plan_prune(net, ratio=0.5)
    for scale_layer in range(3):
        layers = list(net.layers)
        layers[scale_layer] = layers[scale_layer] * 3.0
        scaled, _ = plan_prune(ConvNetDescription(layers=tuple(layers)), ratio=0.5)
        for a, b in zip(base.masks, scaled.masks):
            np.testing.assert_array_equal(a, b)


def test_report_csv_fields_parse():
    rng = np.random.default_rng(6)
    net = _random_net(rng, depth=2)
    _, report = plan_prune(net, ratio=0.5)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "field,value"
    values = dict(line.split(",", 1) for line in lines[1:])
    assert float(values["ratio_requested"]) == 0.5
    assert 0.0 <= float(values["ratio_achieved"]) < 1.0
    assert int(values["params_before"]) >= int(values["params_after"])
    assert int(values["flops_before"]) >= int(values["flops_after"])


# ---------------------------------------------------------------- apply / densify


def _bundle_for(weights_by_name):
    bundle = WeightBundle()
    for name, w in weights_by_name.items():
        bundle.entries[f"{name}.weight"] = Tensor.from_array(w.astype(np.float32))
        bundle.entries[f"{name}.bias"] = Tensor.from_array(
            np.arange(w.shape[-1], dtype=np.float32))
    return bundle


def test_apply_mask_shapes_and_indices():
    rng = np.random.default_rng(7)
    w0 = rng.standard_normal((3, 3, 8, 6))
    w1 = rng.standard_normal((3, 3, 6, 4))
    bundle = _bundle_for({"conv0": w0, "conv1": w1})
    net = ConvNetDescription.from_bundle(bundle, ["conv0", "conv1"])
    mask, _ = plan_prune(net, ratio=0.5)
    pruned = apply_mask(bundle, mask)
    # conv0: 8 - floor(0.5*8) = 4 kept per filter.
    assert tuple(pruned.entries["conv0.weight"].dims) == (3, 3, 4, 6)
    assert tuple(pruned.entries["conv0.index"].dims) == (4, 6)
    assert tuple(pruned.entries["conv0.mask"].dims) == (8, 6)
    assert pruned.entries["conv0.index"].data.dtype == np.int16
    assert tuple(pruned.entries["conv1.weight"].dims) == (3, 3, 3, 4)
    # index columns list kept input channels ascending and match the mask
    m0 = mask.masks[0]
    idx0 = pruned.entries["conv0.index"].data
    for col in range(6):
        np.testing.assert_array_equal(idx0[:, col], np.flatnonzero(m0[:, col]))
    # compacted weights hold the original kernel values
    for col in range(6):
        keep = np.flatnonzero(m0[:, col])
        np.testing.assert_array_equal(
            pruned.entries["conv0.weight"].data[:, :, :, col],
            w0[:, :, keep, col].astype(np.float32))
    assert pruned.metadata["prune_method"] == "lakp_ml"


def test_densify_round_trip_equals_zeroed_weights():
    rng = np.random.default_rng(8)
    w0 = rng.standard_normal((3, 3, 6, 5)).astype(np.float32)
    w1 = rng.standard_normal((1, 1, 5, 4)).astype(np.float32)
    bundle = _bundle_for({"conv0": w0, "conv1": w1})
    net = ConvNetDescription.from_bundle(bundle, ["conv0", "conv1"])
    mask, _ = plan_prune(net, ratio=0.6)
    dense = densify(apply_mask(bundle, mask), ["conv0", "conv1"])
    for name, w, m in (("conv0", w0, mask.masks[0]), ("conv1", w1, mask.masks[1])):
        expected = w * m[None, None, :, :]
        np.testing.assert_array_equal(dense.entries[f"{name}.weight"].data, expected)
        assert f"{name}.index" not in dense.entries
        assert f"{name}.mask" not in dense.entries


def test_pruned_inference_matches_zeroed_inference():
    # Conv with the densified bundle == conv with hand-zeroed kernels:
    # same shapes, same summation order, zero terms are exact.
    rng = np.random.default_rng(9)
    w0 = rng.standard_normal((3, 3, 4, 4)).astype(np.float32)
    w1 = rng.standard_normal((3, 3, 4, 4)).astype(np.float32)
    bundle = _bundle_for({"conv0": w0, "conv1": w1})
    net = ConvNetDescription.from_bundle(bundle, ["conv0", "conv1"])
    mask, _ = plan_prune(net, ratio=0.5)
    dense = densify(apply_mask(bundle, mask), ["conv0", "conv1"])
    x = rng.standard_normal((6, 6, 4))
    via_dense = conv2d(
        conv2d(x, dense.entries["conv0.weight"].data,
               dense.entries["conv0.bias"].data, relu=True),
        dense.entries["conv1.weight"].data, dense.entries["conv1.bias"].data)
    via_zeroed = conv2d(
        conv2d(x, w0 * mask.masks[0][None, None], np.arange(4, dtype=np.float32),
               relu=True),
        w1 * mask.masks[1][None, None], np.arange(4, dtype=np.float32))
    np.testing.assert_array_equal(via_dense, via_zeroed)


def test_apply_mask_rejects_names_not_matching_masks():
    rng = np.random.default_rng(10)
    bundle = _bundle_for({"conv0": rng.standard_normal((3, 3, 4, 4)),
                          "conv1": rng.standard_normal((3, 3, 4, 4))})
    mask, _ = plan_prune(ConvNetDescription.from_bundle(bundle, ["conv0", "conv1"]), 0.5)
    mask.layer_names = ("conv0",)
    with pytest.raises(MaskMismatch, match="1 layers but holds 2 masks"):
        apply_mask(bundle, mask)


def test_apply_mask_rejects_zero_kernel_filter():
    # Quota planning never empties a filter; a hand-built mask that does
    # has no compacted form, since every filter must keep the same count.
    w0 = np.ones((1, 1, 2, 2), dtype=np.float32)
    w1 = np.ones((1, 1, 2, 2), dtype=np.float32)
    bundle = _bundle_for({"conv0": w0, "conv1": w1})
    masks = [
        np.array([[True, False], [True, False]]),   # filter 1 keeps nothing
        np.array([[True, True], [False, False]]),
    ]
    with pytest.raises(MaskMismatch, match="filter 1 keeps no kernels"):
        apply_mask(bundle, PruneMask(masks=masks, layer_names=("conv0", "conv1")))


def test_apply_mask_rejects_ragged_and_mismatched():
    w = np.ones((1, 1, 3, 2), dtype=np.float32)
    bundle = _bundle_for({"conv0": w})
    ragged = [np.array([[True, True], [True, False], [False, False]])]
    with pytest.raises(MaskMismatch):
        apply_mask(bundle, PruneMask(masks=ragged, layer_names=("conv0",)))
    with pytest.raises(MaskMismatch):
        apply_mask(bundle, PruneMask(masks=[np.ones((2, 2), bool)],
                                     layer_names=("conv0",)))
    with pytest.raises(InvalidConfig):
        apply_mask(bundle, PruneMask(masks=[np.ones((3, 2), bool)]))


def test_fc_weights_are_not_pruned():
    # Only conv-layout weights are pruned: an fc [in, out] weight named as
    # a layer to score, compact or expand raises ShapeMismatch.
    rng = np.random.default_rng(10)
    wc = rng.standard_normal((3, 3, 4, 6)).astype(np.float32)
    wf = rng.standard_normal((6, 3)).astype(np.float32)
    bundle = _bundle_for({"conv0": wc, "fc0": wf})
    with pytest.raises(ShapeMismatch):
        ConvNetDescription.from_bundle(bundle, ["conv0", "fc0"])
    mask = PruneMask(masks=[np.ones((4, 6), bool), np.ones((6, 3), bool)],
                     layer_names=("conv0", "fc0"))
    with pytest.raises(ShapeMismatch, match="fc0"):
        apply_mask(bundle, mask)
    with pytest.raises(ShapeMismatch, match="fc0"):
        expand_index(wf, np.zeros((6, 3), np.int16), 6, "fc0")


@pytest.mark.parametrize("index", [
    [[0, -1], [1, 2]],  # -1 must not wrap to the last channel
    [[0, 1], [0, 1]],  # filter 0 lists channel 0 twice
    [[0, 1, 2], [1, 2, 0]],  # three filters' lists for two kernels
])
def test_densify_rejects_bad_index_lists(index):
    bundle = WeightBundle()
    bundle.entries["conv0.weight"] = Tensor.from_array(np.ones((1, 1, 2, 2), np.float32))
    bundle.entries["conv0.bias"] = Tensor.from_array(np.zeros(2, np.float32))
    bundle.entries["conv0.index"] = Tensor.from_array(np.array(index, np.int16))
    bundle.entries["conv0.mask"] = Tensor.from_array(np.ones((3, 2), np.int16))
    with pytest.raises(IndexOutOfRange):
        densify(bundle, ["conv0"])


def test_densify_input_width_comes_from_mask():
    # The mask's dims are the only record of the dense input width.
    bundle = WeightBundle()
    bundle.entries["conv0.weight"] = Tensor.from_array(np.ones((1, 1, 1, 2), np.float32))
    bundle.entries["conv0.bias"] = Tensor.from_array(np.zeros(2, np.float32))
    bundle.entries["conv0.index"] = Tensor.from_array(np.array([[0, 1]], np.int16))
    with pytest.raises(MissingWeight):
        densify(bundle, ["conv0"])
    bundle.entries["conv0.mask"] = Tensor.from_array(np.ones((3, 7), np.int16))
    with pytest.raises(MaskMismatch):
        densify(bundle, ["conv0"])
    # Channel 2 is pruned from every filter, so .index alone cannot show it.
    kept = np.array([[1, 0], [0, 1], [0, 0]], np.int16)
    bundle.entries["conv0.mask"] = Tensor.from_array(kept)
    dense = densify(bundle, ["conv0"])
    np.testing.assert_array_equal(dense.entries["conv0.weight"].data[0, 0], kept)


def test_fixed_point_scale_exp_survives_round_trip():
    w = (np.arange(16, dtype=np.int16) - 8).reshape(1, 1, 4, 4)
    bundle = WeightBundle()
    bundle.entries["conv0.weight"] = Tensor.from_array(w, scale_exp=-12)
    bundle.entries["conv0.bias"] = Tensor.from_array(
        np.zeros(4, dtype=np.int16), scale_exp=-10)
    net = ConvNetDescription(layers=(w.astype(np.float64),), layer_names=("conv0",))
    mask, _ = plan_prune(net, ratio=0.5)
    pruned = apply_mask(bundle, mask)
    assert pruned.entries["conv0.weight"].scale_exp == -12
    assert pruned.entries["conv0.bias"].scale_exp == -10
    assert pruned.entries["conv0.weight"].data.dtype == np.int16
    dense = densify(pruned, ["conv0"])
    assert dense.entries["conv0.weight"].scale_exp == -12
    assert dense.entries["conv0.weight"].data.dtype == np.int16


def test_net_description_validation():
    with pytest.raises(InvalidConfig):
        ConvNetDescription(layers=())
    with pytest.raises(ShapeMismatch):
        ConvNetDescription(layers=(np.ones((3, 3, 2)),))
    with pytest.raises(InvalidConfig):
        ConvNetDescription(layers=(np.ones((1, 1, 2, 3)), np.ones((1, 1, 2, 3))))
    with pytest.raises(InvalidConfig):
        ConvNetDescription(layers=(np.ones((1, 1, 2, 3)),), layer_names=("a", "b"))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       ratio=st.floats(0.0, 0.95),
       depth=st.integers(1, 4))
def test_quota_property(seed, ratio, depth):
    rng = np.random.default_rng(seed)
    net = _random_net(rng, depth=depth)
    mask, report = plan_prune(net, ratio=ratio)
    for m, w in zip(mask.masks, net.layers):
        cin, cout = w.shape[2], w.shape[3]
        expected_kept = cin - int(np.floor(ratio * cin))
        assert m.sum(axis=0).tolist() == [expected_kept] * cout
    assert report.ratio_achieved <= ratio + 1e-12
    # densify inverts apply_mask: the round trip zeroes exactly the
    # pruned kernels and keeps each layer's input width.
    names = [f"conv{i}" for i in range(depth)]
    bundle = _bundle_for(dict(zip(names, net.layers)))
    pruned = apply_mask(bundle, PruneMask(masks=mask.masks, layer_names=tuple(names)))
    dense = densify(pruned, names)
    for name, m in zip(names, mask.masks):
        expected = bundle.entries[f"{name}.weight"].data * m[None, None]
        np.testing.assert_array_equal(dense.entries[f"{name}.weight"].data, expected)
