"""Dataflow engine model: transaction counts, cycle ledgers, and the
bit-exact functional replay of the fixed-point conv and routing paths.

Frozen transaction figures for the first full-size conv layer
(368x128 image, 3x3, 128->128): 60,293,120 words when weights reload
every row block, 6,176,768 when they stay resident.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsbeam.accel_sim import (
    POLICIES,
    AccelConfig,
    ConvLayerSpec,
    LayerReport,
    LayerShape,
    SimReport,
    count_transactions,
    estimate_latency,
    layer_shapes,
    routing_cycles_per_pixel,
    sim_conv_layer,
    sim_routing,
)
from capsbeam import capsnet
from capsbeam.capsnet import CapsConfig, default_config, toy_config
from capsbeam.data_model import PixelGrid, routing_flops_per_pixel
from capsbeam.errors import (
    BramOverflow,
    IndexOutOfRange,
    InvalidConfig,
    NonFinite,
    ShapeMismatch,
)
from capsbeam.quantized import (
    _bias_to_acc,
    _int_conv,
    _softmax_rows,
    _squash_rows,
    requantize,
    saturate16,
)

FULL_CONV0 = LayerShape(rows=368, cols=128, kernel_h=3, kernel_w=3, cin=128, cout=128)


# ------------------------------------------------------------ transactions


def test_transaction_counts_frozen():
    assert count_transactions(FULL_CONV0, "reload_per_block") == 60_293_120
    assert count_transactions(FULL_CONV0, "weights_resident") == 6_176_768


def test_transaction_decomposition():
    # reload: rows * kh * kw * cin * cout weight words + one input pass
    assert count_transactions(FULL_CONV0, "reload_per_block") == (
        368 * 3 * 3 * 128 * 128 + 368 * 128 * 128)
    assert count_transactions(FULL_CONV0, "weights_resident") == (
        3 * 3 * 128 * 128 + 368 * 128 * 128)


def test_pruning_reduces_resident_transactions_only():
    pruned = LayerShape(rows=368, cols=128, kernel_h=3, kernel_w=3,
                        cin=128, cout=128, cin_kept=20)
    assert (count_transactions(pruned, "weights_resident")
            < count_transactions(FULL_CONV0, "weights_resident"))
    # the reload policy streams the dense tensor regardless
    assert (count_transactions(pruned, "reload_per_block")
            == count_transactions(FULL_CONV0, "reload_per_block"))


def test_policy_and_shape_validation():
    with pytest.raises(InvalidConfig):
        count_transactions(FULL_CONV0, "cached")
    with pytest.raises(InvalidConfig):
        LayerShape(rows=1, cols=1, kernel_h=3, kernel_w=3, cin=4, cout=4, cin_kept=5)
    with pytest.raises(InvalidConfig):
        LayerShape(rows=1, cols=1, kernel_h=0, kernel_w=3, cin=4, cout=4)
    with pytest.raises(InvalidConfig):
        LayerShape(rows=1, cols=1, kernel_h=3, kernel_w=3, cin=0, cout=4)
    assert POLICIES == ("reload_per_block", "weights_resident")


def test_accel_config_properties():
    accel = AccelConfig()
    assert accel.word_bytes == 2
    assert accel.beat_words_per_cycle == 8.0
    with pytest.raises(InvalidConfig):
        AccelConfig(pe_rows=0)
    with pytest.raises(InvalidConfig):
        AccelConfig(word_bits=12)
    with pytest.raises(InvalidConfig):
        AccelConfig(clock_hz=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_accel_config_rejects_non_finite_clock(bad):
    # NaN passes clock_hz <= 0, and an infinite clock made modeled_gops
    # divide by a zero latency.
    with pytest.raises(NonFinite, match="AccelConfig.clock_hz"):
        AccelConfig(clock_hz=bad)


# ------------------------------------------------------------ conv replay


def _identity_spec(f):
    return ConvLayerSpec(
        weight=np.full((1, 1, 1, 1), 2**4, dtype=np.int16),
        bias=np.zeros(1, dtype=np.int16),
        index=None, relu=False, f_in=f, f_w=4, f_b=f, f_out=f, name="id")


def test_identity_kernel_passthrough_and_ledger():
    accel = AccelConfig()
    x = np.array([[[712]], [[-3]]], dtype=np.int16)  # [2, 1, 1]
    out, report = sim_conv_layer(x, _identity_spec(8), accel)
    np.testing.assert_array_equal(out, x)
    # resident: 1 weight + 1 bias + 2 input words + 2 output words
    assert report.per_layer[0].transactions == 6
    single, single_report = sim_conv_layer(
        np.array([[[55]]], dtype=np.int16), _identity_spec(8), accel)
    assert single[0, 0, 0] == 55
    assert single_report.external_word_transactions == 4


def test_sim_conv_matches_fixed_point_path(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.integers(-500, 500, size=(6, 7, 5)).astype(np.int16)
    w = rng.integers(-300, 300, size=(3, 3, 5, 4)).astype(np.int16)
    b = rng.integers(-1000, 1000, size=4).astype(np.int16)
    f_in, f_w, f_b, f_out = 6, 6, 10, 6
    for relu in (False, True):
        spec = ConvLayerSpec(weight=w, bias=b, index=None, relu=relu,
                             f_in=f_in, f_w=f_w, f_b=f_b, f_out=f_out)
        got, _ = sim_conv_layer(x, spec, AccelConfig())
        acc = _int_conv(x, w) + _bias_to_acc(b, f_b, f_in + f_w)
        expected = requantize(acc, f_in + f_w, f_out)
        if relu:
            expected = np.maximum(expected, 0).astype(np.int16)
        np.testing.assert_array_equal(got, expected)
    # Chunked: a 5x3 kernel with an index list, one output row a conv
    # chunk, against the whole-tensor reference computed before the
    # chunking is forced.
    x = rng.integers(-500, 500, size=(9, 7, 5)).astype(np.int16)
    kept = 3
    w = rng.integers(-300, 300, size=(5, 3, kept, 4)).astype(np.int16)
    index = np.stack([np.sort(rng.choice(5, size=kept, replace=False))
                      for _ in range(4)], axis=1).astype(np.int16)
    dense = np.zeros((5, 3, 5, 4), dtype=np.int16)
    for col in range(4):
        dense[:, :, index[:, col], col] = w[:, :, :, col]
    pre = requantize(_int_conv(x, dense) + _bias_to_acc(b, f_b, f_in + f_w), f_in + f_w, f_out)
    assert pre.min() < 0 < pre.max()
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 1)
    for relu in (False, True):
        spec = ConvLayerSpec(weight=w, bias=b, index=index, relu=relu,
                             f_in=f_in, f_w=f_w, f_b=f_b, f_out=f_out)
        got, _ = sim_conv_layer(x, spec, AccelConfig())
        expected = np.maximum(pre, 0) if relu else pre
        assert got.tobytes() == expected.tobytes(), relu


def test_sim_conv_pruned_matches_densified():
    rng = np.random.default_rng(13)
    x = rng.integers(-400, 400, size=(5, 6, 5)).astype(np.int16)
    kept = 2
    w = rng.integers(-200, 200, size=(3, 3, kept, 4)).astype(np.int16)
    index = np.stack([np.sort(rng.choice(5, size=kept, replace=False))
                      for _ in range(4)], axis=1).astype(np.int16)
    b = rng.integers(-50, 50, size=4).astype(np.int16)
    spec = ConvLayerSpec(weight=w, bias=b, index=index, relu=True,
                         f_in=5, f_w=5, f_b=8, f_out=5)
    got, report = sim_conv_layer(x, spec, AccelConfig())
    dense = np.zeros((3, 3, 5, 4), dtype=np.int16)
    for col in range(4):
        dense[:, :, index[:, col], col] = w[:, :, :, col]
    acc = _int_conv(x, dense) + _bias_to_acc(b, 8, 10)
    expected = np.maximum(requantize(acc, 10, 5), 0).astype(np.int16)
    np.testing.assert_array_equal(got, expected)
    # ledger charges the index words on top of weights and bias
    assert report.per_layer[0].transactions == (
        3 * 3 * kept * 4 + 4 + kept * 4 + 5 * 6 * 5 + 5 * 6 * 4)


@pytest.mark.parametrize("index", [
    [[0, -1], [1, 2]],  # -1 must not wrap to the last channel
    [[0, 1], [0, 1]],  # filter 0 lists channel 0 twice
])
def test_sim_conv_rejects_bad_index_lists(index):
    spec = ConvLayerSpec(weight=np.ones((1, 1, 2, 2), dtype=np.int16),
                         bias=np.zeros(2, dtype=np.int16),
                         index=np.array(index, dtype=np.int16), relu=False,
                         f_in=8, f_w=8, f_b=8, f_out=8)
    with pytest.raises(IndexOutOfRange):
        sim_conv_layer(np.ones((2, 2, 3), dtype=np.int16), spec, AccelConfig())


def test_reload_policy_multiplies_weight_stream():
    x = np.zeros((4, 3, 2), dtype=np.int16)
    w = np.zeros((3, 3, 2, 2), dtype=np.int16)
    spec = ConvLayerSpec(weight=w, bias=np.zeros(2, dtype=np.int16), index=None,
                         relu=False, f_in=8, f_w=8, f_b=8, f_out=8)
    _, resident = sim_conv_layer(x, spec, AccelConfig(), policy="weights_resident")
    _, reload = sim_conv_layer(x, spec, AccelConfig(), policy="reload_per_block")
    weight_words = 3 * 3 * 2 * 2 + 2
    act_words = 4 * 3 * 2 + 4 * 3 * 2
    assert resident.external_word_transactions == weight_words + act_words
    assert reload.external_word_transactions == 4 * weight_words + act_words


def test_sim_conv_input_validation():
    spec = _identity_spec(8)
    with pytest.raises(ShapeMismatch):
        sim_conv_layer(np.zeros((2, 2, 1), dtype=np.float32), spec, AccelConfig())
    with pytest.raises(ShapeMismatch):
        sim_conv_layer(np.zeros((2, 2), dtype=np.int16), spec, AccelConfig())
    with pytest.raises(InvalidConfig):
        sim_conv_layer(np.zeros((2, 2, 1), dtype=np.int16), spec, AccelConfig(),
                       policy="cached")
    wide = ConvLayerSpec(weight=np.zeros((1, 1, 3, 1), dtype=np.int16),
                         bias=np.zeros(1, dtype=np.int16), index=None, relu=False,
                         f_in=8, f_w=8, f_b=8, f_out=8)
    with pytest.raises(ShapeMismatch):
        sim_conv_layer(np.zeros((2, 2, 1), dtype=np.int16), wide, AccelConfig())


def test_bram_overflow():
    x = np.zeros((4, 4, 2), dtype=np.int16)
    w = np.zeros((3, 3, 2, 2), dtype=np.int16)
    spec = ConvLayerSpec(weight=w, bias=np.zeros(2, dtype=np.int16), index=None,
                         relu=False, f_in=8, f_w=8, f_b=8, f_out=8)
    with pytest.raises(BramOverflow):
        sim_conv_layer(x, spec, AccelConfig(bram_budget_bytes=16))


def test_five_tall_kernel_line_buffer():
    # kh=5 exercises the multi-row pre-fill path; compare against the
    # whole-tensor integer conv.
    rng = np.random.default_rng(14)
    x = rng.integers(-100, 100, size=(7, 4, 2)).astype(np.int16)
    w = rng.integers(-100, 100, size=(5, 3, 2, 3)).astype(np.int16)
    spec = ConvLayerSpec(weight=w, bias=np.zeros(3, dtype=np.int16), index=None,
                         relu=False, f_in=4, f_w=4, f_b=4, f_out=8)
    got, _ = sim_conv_layer(x, spec, AccelConfig())
    expected = requantize(_int_conv(x, w), 8, 8)
    np.testing.assert_array_equal(got, expected)


def test_single_row_image():
    rng = np.random.default_rng(15)
    x = rng.integers(-100, 100, size=(1, 5, 2)).astype(np.int16)
    w = rng.integers(-100, 100, size=(3, 3, 2, 2)).astype(np.int16)
    spec = ConvLayerSpec(weight=w, bias=np.zeros(2, dtype=np.int16), index=None,
                         relu=False, f_in=4, f_w=4, f_b=4, f_out=8)
    got, _ = sim_conv_layer(x, spec, AccelConfig())
    np.testing.assert_array_equal(got, requantize(_int_conv(x, w), 8, 8))


# ------------------------------------------------------------ routing replay


def _routing_per_pixel(caps, n_out, iterations, f_caps, f_logit, f_pre):
    """Reference routing engine: one pixel at a time in stream order,
    softmax, weighted sum, squash and agreement as matrix products.

    Returns the output capsules at f_pre and whether any logit update
    saturated at the int16 limits.
    """
    pixels, n_in, dim = caps.shape
    out = np.zeros((pixels, n_out, dim), dtype=np.int16)
    saturated = False
    for p in range(pixels):
        u = caps[p].astype(np.int64)  # [n_in, dim]
        b = np.zeros((n_in, n_out), dtype=np.int16)
        for it in range(iterations):
            c = _softmax_rows(b, f_logit).astype(np.int64)
            s = requantize(c.T @ u, f_logit + f_caps, f_pre)
            v = _squash_rows(s, f_pre)
            if it < iterations - 1:
                agree = u @ v.astype(np.int64).T
                total = b.astype(np.int64) + requantize(agree, f_caps + f_pre, f_logit)
                saturated |= bool(np.any(saturate16(total) != total))
                b = saturate16(total).astype(np.int16)
        out[p] = v
    return out, saturated


def test_sim_routing_matches_fixed_point_path():
    rng = np.random.default_rng(16)
    f_caps, f_logit, f_pre = 10, 12, 10
    # n_in != n_out both ways, 1 to 5 iterations, and raws at the int16
    # limits, where the logit update saturates. The reference runs every
    # iteration; _routing_fixed stops computing after the first.
    for pixels, n_in, n_out, dim, iterations, limit, saturates in (
        (12, 4, 2, 3, 3, 2000, False),
        (9, 2, 5, 4, 1, 2000, False),
        (7, 3, 3, 8, 3, 32767, True),
        (10, 3, 4, 2, 2, 2000, False),
        (8, 2, 3, 4, 4, 32767, True),
        (6, 5, 2, 3, 5, 32767, True),
    ):
        caps = rng.integers(-limit, limit, size=(pixels, n_in, dim), endpoint=True)
        caps = caps.astype(np.int16)
        got, report = sim_routing(caps, AccelConfig(), n_out=n_out, iterations=iterations,
                                  f_caps=f_caps, f_logit=f_logit, f_pre=f_pre)
        expected, saturated = _routing_per_pixel(caps, n_out, iterations,
                                                 f_caps, f_logit, f_pre)
        np.testing.assert_array_equal(got, expected)
        assert saturated == saturates
        assert report.per_layer[0].transactions == pixels * (n_in + n_out) * dim
        assert report.per_layer[0].stall_cycles == 0


@settings(max_examples=100, deadline=None)
@given(
    pixels=st.integers(0, 8), n_in=st.integers(1, 9), n_out=st.integers(1, 9),
    dim=st.integers(1, 9), iterations=st.integers(1, 6),
    f_caps=st.integers(0, 15), f_logit=st.integers(0, 15), f_pre=st.integers(0, 15),
    limit=st.integers(0, 32767), seed=st.integers(0, 2**32 - 1),
)
def test_sim_routing_matches_reference_at_any_scale(pixels, n_in, n_out, dim, iterations,
                                                    f_caps, f_logit, f_pre, limit, seed):
    # Any scale, including f_logit = 15 with n_out = 1, where the zero
    # logits' coupling saturates at 32767, and raws at the int16 limits.
    rng = np.random.default_rng(seed)
    caps = rng.integers(-limit, limit, size=(pixels, n_in, dim), endpoint=True)
    caps = caps.astype(np.int16)
    got, report = sim_routing(caps, AccelConfig(), n_out=n_out, iterations=iterations,
                              f_caps=f_caps, f_logit=f_logit, f_pre=f_pre)
    expected, _ = _routing_per_pixel(caps, n_out, iterations, f_caps, f_logit, f_pre)
    assert got.dtype == np.int16
    assert got.tobytes() == expected.tobytes()
    assert report.cycle_count == pixels * routing_cycles_per_pixel(
        max(n_in, n_out), dim, iterations)


def test_routing_cycles_affine_formula():
    # n*d = 64: softmax 8+128, matvec 4+64, squash 16+128, agreement 4+64
    assert routing_cycles_per_pixel(8, 8, 1) == 136 + 68 + 144 + 68
    assert routing_cycles_per_pixel(8, 8, 3) == 3 * 416


def test_routing_ops_charge_agreement_every_iteration():
    # The cycle/ops ledger bills the agreement stage in all iterations;
    # the FLOP accountant skips it after the last. The difference is one
    # agreement pass: 2 * n_in * n_out * d.
    from capsbeam.accel_sim import _routing_report
    from capsbeam.capsnet import RoutingCfg

    for n_in, n_out, d, iters in ((8, 8, 8, 3), (2, 4, 4, 2), (3, 1, 5, 1)):
        routing = RoutingCfg(n_in, d, n_out, d, iters)
        ledger = _routing_report(1, routing, AccelConfig()).ops
        flops = routing_flops_per_pixel(routing)
        assert ledger - flops == 2 * n_in * n_out * d


def test_sim_routing_validation():
    with pytest.raises(ShapeMismatch):
        sim_routing(np.zeros((4, 2, 3), dtype=np.float32), AccelConfig(), 2, 3,
                    f_caps=10, f_logit=12, f_pre=10)
    with pytest.raises(InvalidConfig):
        sim_routing(np.zeros((4, 2, 3), dtype=np.int16), AccelConfig(), 2, 0,
                    f_caps=10, f_logit=12, f_pre=10)
    with pytest.raises(InvalidConfig):
        sim_routing(np.zeros((4, 2, 3), dtype=np.int16), AccelConfig(), 0, 3,
                    f_caps=10, f_logit=12, f_pre=10)


def test_sim_routing_needs_capsules_and_dims_not_pixels():
    # Zero input capsules or zero dims route nothing and bill nothing; a
    # stream of zero pixels is valid and bills 0.
    for shape in ((4, 0, 3), (4, 2, 0), (0, 0, 3)):
        with pytest.raises(InvalidConfig, match="routing dims must be positive"):
            sim_routing(np.zeros(shape, dtype=np.int16), AccelConfig(), 2, 3,
                        f_caps=10, f_logit=12, f_pre=10)
    out, report = sim_routing(np.zeros((0, 2, 3), dtype=np.int16), AccelConfig(), 4, 3,
                              f_caps=10, f_logit=12, f_pre=10)
    assert out.shape == (0, 4, 3) and out.dtype == np.int16
    row = report.per_layer[0]
    assert (row.transactions, row.cycles, row.ops) == (0, 0, 0)


# ------------------------------------------------------------ reports


def test_report_totals_and_csv():
    report = SimReport(clock_hz=1e8)
    report.per_layer.append(LayerReport("conv0", 10, 7, 3, 20, 64))
    report.per_layer.append(LayerReport("conv1", 5, 4, 0, 8, 32))
    assert report.external_word_transactions == 15
    assert report.cycle_count == 14
    assert report.total_ops == 28
    assert report.bram_bytes_peak == 64
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "layer,transactions,compute_cycles,stall_cycles,cycles,ops,bram_bytes"
    assert lines[1] == "conv0,10,7,3,10,20,64"
    assert lines[-1] == "total,15,,,14,28,64"
    text = report.to_text()
    assert text.startswith("external_word_transactions=15\n")
    assert "cycle_count=14" in text


def test_report_derived_identity():
    report = SimReport(clock_hz=1e8)
    report.per_layer.append(LayerReport("conv0", 10, 128, 0, 4096, 64))
    assert report.modeled_latency_s == 128 / 1e8
    np.testing.assert_allclose(
        report.modeled_gops * report.modeled_latency_s, 1e-9 * 4096, rtol=1e-12)
    empty = SimReport(clock_hz=1e8)
    assert empty.modeled_gops == 0.0
    assert empty.cycle_count == 0


def test_pe_scaling_monotonicity():
    shape = LayerShape(rows=16, cols=24, kernel_h=3, kernel_w=3, cin=8, cout=12)
    from capsbeam.accel_sim import _conv_compute_cycles

    prev = None
    for pe_rows in (1, 2, 4, 8, 16):
        cycles = _conv_compute_cycles(shape, AccelConfig(pe_rows=pe_rows))
        if prev is not None:
            assert cycles <= prev
        prev = cycles
    prev = None
    for pe_cols in (4, 8, 16, 32, 64):
        cycles = _conv_compute_cycles(shape, AccelConfig(pe_cols=pe_cols))
        if prev is not None:
            assert cycles <= prev
        prev = cycles


# ------------------------------------------------------------ whole-network


def test_layer_shapes_names_and_pruning():
    cfg = default_config()
    grid = PixelGrid()
    shapes = dict(layer_shapes(cfg, grid))
    assert list(dict(layer_shapes(cfg, grid))) == [
        "conv0", "conv1", "caps0", "caps1", "fc0", "fc1", "fc2", "fc3"]
    assert shapes["conv0"].cin_kept == 128
    pruned = dict(layer_shapes(cfg, grid, pruned=True, prune_ratio=0.85))
    assert pruned["conv0"].cin_kept == 128 - int(np.floor(0.85 * 128))  # 20
    assert pruned["caps0"].cin_kept == 88 - int(np.floor(0.85 * 88))    # 14
    assert pruned["fc0"].cin_kept == 64  # fc layers stay dense
    assert pruned["fc0"].kernel_h == 1


def test_pruned_bram_charges_index_to_pruned_layers_only():
    cfg = default_config()
    grid = PixelGrid()
    accel = AccelConfig()
    dense = {l.name: l.bram_bytes for l in estimate_latency(cfg, grid, accel).per_layer}
    pruned = {l.name: l.bram_bytes
              for l in estimate_latency(cfg, grid, accel, pruned=True).per_layer}
    for name in ("fc0", "fc1", "fc2", "fc3", "routing"):
        assert pruned[name] == dense[name]
    # conv and caps layers hold kept weights, bias and one index word per kernel
    assert [pruned[n] for n in ("conv0", "conv1", "caps0", "caps1")] == [
        182_528, 156_208, 102_016, 35_456]
    # at ratio 0 every kernel is kept, yet pruned conv/caps layers still
    # hold one index word per kernel and fc layers none
    kept_all = {l.name: l.bram_bytes for l in estimate_latency(
        cfg, grid, accel, pruned=True, prune_ratio=0.0).per_layer}
    for layer in cfg.weighted_layers():
        index_bytes = layer.in_ch * layer.out_ch * accel.word_bytes if layer.prunable else 0
        assert kept_all[layer.name] == dense[layer.name] + index_bytes
    assert kept_all["routing"] == dense["routing"]


def test_estimate_latency_orderings():
    cfg = default_config()
    grid = PixelGrid()
    accel = AccelConfig()
    base = estimate_latency(cfg, grid, accel, pruned=False, policy="reload_per_block")
    opt = estimate_latency(cfg, grid, accel, pruned=True, policy="weights_resident")
    assert opt.external_word_transactions < base.external_word_transactions
    assert opt.cycle_count < base.cycle_count
    assert opt.modeled_latency_s < base.modeled_latency_s
    # conv0 under reload reproduces the frozen headline figure
    conv0 = next(l for l in base.per_layer if l.name == "conv0")
    assert conv0.transactions == 60_293_120


def test_estimate_latency_stall_accounting():
    cfg = default_config()
    report = estimate_latency(cfg, PixelGrid(), AccelConfig(), policy="reload_per_block")
    conv0 = next(l for l in report.per_layer if l.name == "conv0")
    need = int(np.ceil(conv0.transactions / 8.0))
    assert conv0.stall_cycles == max(0, need - conv0.compute_cycles)


def test_estimate_latency_toy_and_empty():
    toy = estimate_latency(toy_config(), PixelGrid(num_rows=16, num_cols=16),
                           AccelConfig())
    assert toy.cycle_count > 0
    names = [l.name for l in toy.per_layer]
    assert names[-1] == "routing"
    empty = estimate_latency(CapsConfig(), PixelGrid(num_rows=4, num_cols=4),
                             AccelConfig())
    assert empty.cycle_count == 0
    assert empty.per_layer == []
    with pytest.raises(InvalidConfig):
        estimate_latency(toy_config(), PixelGrid(), AccelConfig(), policy="cached")
