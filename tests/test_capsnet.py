"""Float capsule network: conv, squash, weight-free routing, inference.

conv2d and dynamic_routing are each checked against an independent
straight-loop transliteration of their definitions; routing invariants
(coupling rows sum to one, output norms below one, logit freeze after
the final iteration) are exercised with hypothesis.
"""

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsbeam import capsnet
from capsbeam.capsnet import (
    CapsConfig,
    CapsConvLayerCfg,
    ConvLayerCfg,
    FcLayerCfg,
    RoutingCfg,
    RoutingState,
    conv2d,
    correlate,
    default_config,
    dynamic_routing,
    infer,
    init_weights,
    routing_softmax,
    squash,
    toy_config,
)
from capsbeam.data_model import PixelGrid, RfVolume, bundle_hash
from capsbeam.errors import InvalidConfig, MissingWeight, ShapeMismatch
from capsbeam.quantized import plan_from_trace


# ---------------------------------------------------------------- conv2d


def _conv_loop(values, weights, bias=None, relu=False):
    kh, kw, cin, cout = weights.shape
    rows, cols = values.shape[:2]
    ph, pw = kh // 2, kw // 2
    out = np.zeros((rows, cols, cout))
    for r in range(rows):
        for c in range(cols):
            for o in range(cout):
                acc = 0.0
                for dr in range(kh):
                    for dc in range(kw):
                        rr, cc = r + dr - ph, c + dc - pw
                        if 0 <= rr < rows and 0 <= cc < cols:
                            acc += values[rr, cc] @ weights[dr, dc, :, o]
                out[r, c, o] = acc
    if bias is not None:
        out = out + bias
    if relu:
        out = np.maximum(out, 0)
    return out


def test_conv2d_matches_nested_loop():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((5, 6, 3))
    weights = rng.standard_normal((3, 3, 3, 4))
    bias = rng.standard_normal(4)
    for relu in (False, True):
        got = conv2d(values, weights, bias, relu=relu)
        np.testing.assert_allclose(got, _conv_loop(values, weights, bias, relu),
                                   atol=1e-12)


def test_conv2d_1x1_is_pointwise_matmul():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((4, 4, 5))
    weights = rng.standard_normal((1, 1, 5, 2))
    got = conv2d(values, weights)
    np.testing.assert_allclose(got, values @ weights[0, 0], atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv2d_equals_pad_then_correlate(monkeypatch, dtype):
    # conv2d borders each row chunk's slab itself; the bytes must equal
    # padding the whole input once and correlating it, chunk seams included.
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 1)  # one output row a chunk
    rng = np.random.default_rng(12)
    values = rng.standard_normal((11, 9, 3)).astype(dtype)
    weights = rng.standard_normal((5, 3, 3, 4)).astype(dtype)
    bias = rng.standard_normal(4).astype(dtype)
    ref = correlate(np.pad(values, ((2, 2), (1, 1), (0, 0))), weights)
    cases = {(None, False): ref, (None, True): np.maximum(ref, 0),
             ("bias", False): ref + bias, ("bias", True): np.maximum(ref + bias, 0)}
    for (with_bias, relu), expected in cases.items():
        got = conv2d(values, weights, bias if with_bias else None, relu=relu)
        assert got.dtype == expected.dtype == dtype
        np.testing.assert_array_equal(got, expected)


def test_conv2d_pad_rows_computes_any_row_range(monkeypatch):
    # A line buffer hands conv2d input rows lo - 2 .. hi + 2 of the frame
    # (clipped to it), its carried rows as above and the rest as values,
    # with zero rows only where the frame ends; each output row must be the
    # same-padded conv's row, chunk seams included.
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 1)  # one output row a chunk
    rng = np.random.default_rng(5)
    values = rng.standard_normal((11, 9, 3))
    weights = rng.standard_normal((5, 3, 3, 4))
    ref = conv2d(values, weights)
    for lo, hi in [(0, 11), (0, 1), (3, 8), (9, 11), (10, 11), (4, 4), (11, 11)]:
        first, last = max(lo - 2, 0), min(hi + 2, 11)
        pad_rows = (first - (lo - 2), hi + 2 - last)
        for split in range(first, last + 1):
            got = conv2d(values[split:last], weights, pad_rows=pad_rows,
                         above=values[first:split] if split > first else None)
            assert got.shape == (hi - lo, 9, 4)
            assert got.tobytes() == ref[lo:hi].tobytes(), (lo, hi, split)
    with pytest.raises(ShapeMismatch):
        conv2d(values[:2], weights, pad_rows=(0, 1))
    with pytest.raises(ShapeMismatch):
        conv2d(values, weights, above=values[:, :, :2])


def test_conv2d_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        conv2d(np.zeros((4, 4)), np.zeros((3, 3, 1, 1)))
    with pytest.raises(ShapeMismatch):
        conv2d(np.zeros((4, 4, 2)), np.zeros((3, 3, 3, 1)))
    with pytest.raises(InvalidConfig):
        conv2d(np.zeros((4, 4, 2)), np.zeros((2, 2, 2, 1)))


# ---------------------------------------------------------------- squash


def test_squash_unit_vector_halves():
    v = squash(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(v, [0.5, 0.0, 0.0], atol=1e-15)


def test_squash_zero_stays_zero():
    np.testing.assert_array_equal(squash(np.zeros(4)), np.zeros(4))


def test_squash_norm_formula():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((10, 6))
    v = squash(s, axis=-1)
    ns = np.linalg.norm(s, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    np.testing.assert_allclose(nv, ns**2 / (1.0 + ns**2), atol=1e-12)
    # direction is preserved
    np.testing.assert_allclose(v * ns[:, None] ** -1 * (1 + ns[:, None] ** 2),
                               s / ns[:, None] * ns[:, None], atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8))
def test_squash_norm_below_one(vec):
    v = squash(np.array(vec))
    assert np.linalg.norm(v) < 1.0


# ---------------------------------------------------------------- routing


def _routing_loop(u_hat, iterations):
    """Scalar transliteration of the routing recipe."""
    P, n_in, n_out, d = u_hat.shape
    out = np.zeros((P, n_out, d))
    for p in range(P):
        b = np.zeros((n_in, n_out))
        v = np.zeros((n_out, d))
        for it in range(iterations):
            c = np.zeros_like(b)
            for i in range(n_in):
                e = np.exp(b[i] - b[i].max())
                c[i] = e / e.sum()
            for j in range(n_out):
                s = np.zeros(d)
                for i in range(n_in):
                    s += c[i, j] * u_hat[p, i, j]
                n2 = float(s @ s)
                v[j] = (np.sqrt(n2) / (1.0 + n2)) * s if n2 > 0 else 0.0
            if it < iterations - 1:
                for i in range(n_in):
                    for j in range(n_out):
                        b[i, j] += u_hat[p, i, j] @ v[j]
        out[p] = v
    return out


def test_dynamic_routing_matches_transliteration():
    rng = np.random.default_rng(3)
    u_hat = rng.standard_normal((6, 4, 3, 5))
    for iters in (1, 2, 3):
        got = dynamic_routing(u_hat, iters)
        np.testing.assert_allclose(got, _routing_loop(u_hat, iters), atol=1e-6)


def test_routing_coupling_rows_sum_to_one():
    rng = np.random.default_rng(4)
    u_hat = rng.standard_normal((5, 3, 4, 2))
    record: list[RoutingState] = []
    dynamic_routing(u_hat, 3, record=record)
    assert len(record) == 3
    for state in record:
        np.testing.assert_allclose(state.coupling_c.sum(axis=-1), 1.0, atol=1e-12)
        s = np.einsum("...ij,...ijd->...jd", state.coupling_c, u_hat)
        np.testing.assert_array_equal(state.pre_squash_s, s)
        np.testing.assert_array_equal(squash(state.pre_squash_s), state.output_v)


def test_routing_logits_frozen_after_final_iteration():
    rng = np.random.default_rng(5)
    u_hat = rng.standard_normal((4, 3, 3, 4))
    record: list[RoutingState] = []
    dynamic_routing(u_hat, 3, record=record)
    # the agreement update runs between iterations only, so the last
    # recorded logits equal the second-to-last
    np.testing.assert_array_equal(record[2].logits_b, record[1].logits_b)
    assert not np.array_equal(record[0].logits_b, record[1].logits_b)


def test_single_iteration_routing_closed_form():
    # With zero logits the coupling is uniform 1/n_out, so
    # v_j = squash(sum_i u_hat[i, j] / n_out).
    rng = np.random.default_rng(6)
    u_hat = rng.standard_normal((7, 4, 3, 5))
    got = dynamic_routing(u_hat, 1)
    expected = squash(u_hat.sum(axis=1) / u_hat.shape[2], axis=-1)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_single_output_capsule_routes_to_squashed_sum():
    # One output capsule: the softmax over the output axis is identically
    # 1, every iteration computes the same s = sum_i u_hat[i], and the
    # agreement update cannot change the coupling.
    rng = np.random.default_rng(7)
    u_hat = rng.standard_normal((5, 3, 1, 4))
    for iters in (1, 3):
        got = dynamic_routing(u_hat, iters)
        np.testing.assert_allclose(got, squash(u_hat.sum(axis=1), axis=-1),
                                   atol=1e-12)


def test_routing_validation():
    with pytest.raises(ShapeMismatch):
        dynamic_routing(np.zeros((3, 4)), 3)
    with pytest.raises(InvalidConfig):
        dynamic_routing(np.zeros((2, 3, 4)), 0)


@settings(max_examples=40, deadline=None)
@given(
    n_in=st.integers(1, 5), n_out=st.integers(1, 4), d=st.integers(1, 4),
    iters=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
)
def test_routing_invariants_property(n_in, n_out, d, iters, seed):
    rng = np.random.default_rng(seed)
    u_hat = rng.uniform(-3, 3, size=(2, n_in, n_out, d))
    record: list[RoutingState] = []
    v = dynamic_routing(u_hat, iters, record=record)
    assert np.all(np.linalg.norm(v, axis=-1) < 1.0)
    for state in record:
        np.testing.assert_allclose(state.coupling_c.sum(axis=-1), 1.0, atol=1e-9)


def test_routing_softmax_uniform_on_zero_logits():
    out = routing_softmax(np.zeros((2, 5)))
    np.testing.assert_allclose(out, 0.2, atol=1e-15)


def test_dynamic_routing_overflow_gives_nan():
    # One pixel, capsules of +-a and 1e10: the coupled sum cancels to a
    # finite s, but u . v overflows. At a = 1.7e308 the first update is a
    # constant +-inf row; at 7e307 it is finite and the second update
    # overflows. From then on the output is NaN.
    for a, first_nan in ((1.7e308, 2), (7e307, 3)):
        caps = np.array([[a, a], [-a, -a], [1e10, 1e10]])[None, :, None, :]
        u_hat = np.broadcast_to(caps, (1, 3, 3, 2))
        for iterations in range(1, 6):
            with np.errstate(all="ignore"):
                v = dynamic_routing(u_hat, iterations)
            assert np.isnan(v).all() == (iterations >= first_nan)


def test_float_route_is_dynamic_routing_on_broadcast_predictions():
    # walk's float routing computes the closed form; it must give the loop's
    # bytes on the predictions infer routes (squashed input capsules
    # broadcast over the outputs), and trace the peaks of the loop's record.
    rng = np.random.default_rng(21)
    names = ("caps", "routing.logits", "routing.pre", "routing.out")
    for n_in, dim in ((4, 5), (8, 8), (11, 3)):
        caps = squash(rng.standard_normal((9, n_in, dim)) * 3)
        for n_out in (1, 3, 8):
            u_hat = np.broadcast_to(caps[:, :, None], (9, n_in, n_out, dim))
            for iterations in range(1, 6):
                routing = RoutingCfg(n_in, dim, n_out, dim, iterations)
                trace: dict = {}
                got = capsnet._FloatArith(None).route(caps, routing, names, trace)
                record: list[RoutingState] = []
                ref = dynamic_routing(u_hat, iterations, record=record)
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()
                assert trace == {
                    name: max(float(np.max(np.abs(getattr(state, field))))
                              for state in record)
                    for name, field in (("routing.logits", "logits_b"),
                                        ("routing.pre", "pre_squash_s"))
                }


def test_float_route_claim_holds_from_capsule_dim_two():
    # _FloatArith.route's byte claim on every small shape: dims 2-8 give the
    # loop's bytes and traced peaks; at dim 1, where the loop's einsum sums
    # the inputs in another order, they stay within the docstring's bound.
    rng = np.random.default_rng(30)
    eps = np.finfo(np.float64).eps
    names = ("caps", "routing.logits", "routing.pre", "routing.out")
    for dim, n_in, n_out in itertools.product(range(1, 9), range(1, 9), range(1, 5)):
        caps = squash(rng.standard_normal((16, n_in, dim)) * 3)
        u_hat = np.broadcast_to(caps[:, :, None], (16, n_in, n_out, dim))
        for iterations in (1, 3):
            trace: dict = {}
            got = capsnet._FloatArith(None).route(
                caps, RoutingCfg(n_in, dim, n_out, dim, iterations), names, trace)
            record: list[RoutingState] = []
            ref = dynamic_routing(u_hat, iterations, record=record)
            peaks = {name: max(float(np.max(np.abs(getattr(state, field))))
                               for state in record)
                     for name, field in (("routing.logits", "logits_b"),
                                         ("routing.pre", "pre_squash_s"))}
            case = f"dim {dim}, n_in {n_in}, n_out {n_out}, {iterations} iterations"
            if dim >= 2:
                assert got.tobytes() == ref.tobytes(), case
                assert trace == peaks, case
            else:
                np.testing.assert_allclose(got, ref, rtol=0, atol=2 * eps, err_msg=case)
                for name, peak in peaks.items():
                    assert abs(trace[name] - peak) <= 3 * eps * peak, case


# ---------------------------------------------------------------- layers


def test_caps_grouping_must_tile():
    with pytest.raises(InvalidConfig):
        CapsConvLayerCfg(3, 3, 4, 6, num_capsules=4, capsule_dim=2).validate()


def test_config_chain_validation():
    with pytest.raises(InvalidConfig):
        CapsConfig(conv_layers=(ConvLayerCfg(3, 3, 4, 8), ConvLayerCfg(3, 3, 6, 8))).validate()
    with pytest.raises(InvalidConfig):
        CapsConfig(fc_layers=(FcLayerCfg(4, 8), FcLayerCfg(6, 2))).validate()
    with pytest.raises(InvalidConfig):
        RoutingCfg(2, 4, 2, 3).validate()  # in_dim != out_dim
    cfg = toy_config()
    assert cfg.layer_names() == [
        "conv0", "conv1", "caps0", "caps1", "fc0", "fc1", "fc2", "fc3",
    ]


def test_partial_config_valid_but_not_inferable():
    cfg = CapsConfig(conv_layers=(ConvLayerCfg(3, 3, 4, 8),))
    cfg.validate()
    with pytest.raises(InvalidConfig):
        cfg.validate_for_inference()


# ---------------------------------------------------------------- weights / infer


def test_init_weights_deterministic(toy_cfg):
    a = init_weights(toy_cfg, seed=42)
    b = init_weights(toy_cfg, seed=42)
    assert sorted(a.entries) == sorted(b.entries)
    for name in a.entries:
        np.testing.assert_array_equal(a.entries[name].data, b.entries[name].data)
    c = init_weights(toy_cfg, seed=43)
    assert any(
        not np.array_equal(a.entries[n].data, c.entries[n].data)
        for n in a.entries if n.endswith(".weight")
    )
    assert a.metadata["init_seed"] == "42"
    for name in a.entries:
        if name.endswith(".bias"):
            assert np.all(a.entries[name].data == 0.0)


def test_init_weights_bytes_frozen():
    # Entry names, dims and payloads of the stock and toy seed-7 bundles.
    assert bundle_hash(init_weights(default_config(), seed=7)) == "fa9d426a9d69"
    assert bundle_hash(init_weights(toy_config(), seed=7)) == "50f9e7f6fcd5"


def test_weighted_layers_describe_the_bundle(toy_cfg, toy_weights):
    layers = toy_cfg.weighted_layers()
    assert [l.name for l in layers] == toy_cfg.layer_names() == [
        "conv0", "conv1", "caps0", "caps1", "fc0", "fc1", "fc2", "fc3"]
    assert [l.name for l in layers if l.prunable] == ["conv0", "conv1", "caps0", "caps1"]
    for l in layers:
        if l.prunable:
            assert l.weight_dims == (l.kernel_h, l.kernel_w, l.in_ch, l.out_ch)
        else:
            assert (l.kernel_h, l.kernel_w) == (1, 1)
            assert l.weight_dims == (l.in_ch, l.out_ch)
        assert toy_weights.entries[f"{l.name}.weight"].dims == l.weight_dims
        assert toy_weights.entries[f"{l.name}.bias"].dims == (l.out_ch,)


def test_infer_shapes_and_trace(toy_cfg, toy_weights, toy_rf):
    trace: dict = {}
    env = infer(toy_rf, toy_cfg, toy_weights, trace=trace)
    assert env.i_part.shape == (16, 16)
    assert env.q_part.shape == (16, 16)
    assert env.i_part.dtype == np.float32
    expected_keys = {
        "input", "conv0.out", "conv1.out", "caps0.pre", "caps0.out",
        "caps1.pre", "caps1.out", "routing.logits", "routing.pre",
        "routing.out", "fc0.out", "fc1.out", "fc2.out", "fc3.out",
    }
    assert expected_keys <= set(trace)
    assert all(v >= 0.0 for v in trace.values())


def test_infer_is_deterministic(toy_cfg, toy_weights, toy_rf):
    a = infer(toy_rf, toy_cfg, toy_weights)
    b = infer(toy_rf, toy_cfg, toy_weights)
    np.testing.assert_array_equal(a.i_part, b.i_part)
    np.testing.assert_array_equal(a.q_part, b.q_part)


def test_infer_bytes_independent_of_threads_and_blocks(monkeypatch, toy_cfg,
                                                       loud_toy_weights, wide_rf):
    # Reference: one conv chunk and one routing block, on one thread.
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**40)
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 10**9)
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    ref = infer(wide_rf, toy_cfg, loud_toy_weights)
    assert len(np.unique(ref.i_part)) > 1000
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**16)  # conv0: 2 rows a chunk
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)  # 7 blocks of 10 rows
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("CAPSBEAM_THREADS", threads)
        env = infer(wide_rf, toy_cfg, loud_toy_weights)
        assert env.i_part.tobytes() == ref.i_part.tobytes(), threads
        assert env.q_part.tobytes() == ref.q_part.tobytes(), threads


@dataclass(frozen=True)
class _Float64Arith(capsnet._FloatArith):
    """The float walk with every conv in float64: the reference that the
    float32 convs are bounded against."""

    def conv(self, layer, src, dst, relu):
        w, b = (t.data.astype(np.float64) for t in capsnet.layer_entries(self.weights, layer))
        w = w.reshape(layer.kernel_h, layer.kernel_w, layer.in_ch, layer.out_ch)
        return partial(conv2d, weights=w, bias=b, relu=relu)


def test_float_walk_dtypes(monkeypatch, toy_cfg, toy_weights, toy_rf):
    # _FloatArith's dtype policy: conv and caps-conv slabs and weights in
    # float32; the fc layers take routing's float64 output. toy_rf is one
    # block and every toy conv one chunk, so correlate runs once a layer.
    seen = []
    real = capsnet.correlate
    monkeypatch.setattr(capsnet, "correlate",
                        lambda padded, weights: seen.append((padded.dtype, weights.dtype))
                        or real(padded, weights))
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    infer(toy_rf, toy_cfg, toy_weights)
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert seen == [(f32, f32)] * 4 + [(f64, f32)] * 4


def _default_width_case():
    cfg = default_config()
    rng = np.random.default_rng(5)
    samples = rng.normal(size=(12, 10, 128)).astype(np.float32)
    rf = RfVolume(grid=PixelGrid(num_rows=12, num_cols=10), num_channels=128, samples=samples)
    return cfg, init_weights(cfg, seed=1234), rf


@pytest.mark.parametrize("case", ["toy", "default-width"])
def test_float32_convs_track_a_float64_reference(case, toy_cfg, loud_toy_weights, wide_rf):
    # Measured worst cases, I/Q deviation over the reference's peak and
    # relative trace deviation: toy 8.3e-7 and 1.2e-7, default width
    # 8.5e-7 and 6.1e-7; on the full default.ini frame, init_weights seeds
    # 1234 and 7, 9.6e-7 and 3.7e-7. The bounds sit within 10x of these.
    iq_bound, trace_bound = 4e-6, 4e-6
    if case == "toy":
        cfg, weights, rf = toy_cfg, loud_toy_weights, wide_rf
    else:
        cfg, weights, rf = _default_width_case()
    outs, traces = [], []
    for arith in (capsnet._FloatArith(weights), _Float64Arith(weights)):
        trace: dict = {}
        outs.append(capsnet.walk(rf, cfg, arith, trace))
        traces.append(trace)
    (got, ref), (got_trace, ref_trace) = outs, traces
    peak = np.max(np.abs(ref))
    assert peak > 0
    assert np.max(np.abs(got - ref)) <= iq_bound * peak
    assert got_trace.keys() == ref_trace.keys()
    for name, ref_peak in ref_trace.items():
        assert abs(got_trace[name] - ref_peak) <= trace_bound * ref_peak, name
    assert (plan_from_trace(weights, got_trace).scales
            == plan_from_trace(weights, ref_trace).scales)


def test_infer_channel_mismatch(toy_cfg, toy_weights):
    grid = PixelGrid(num_rows=16, num_cols=16)
    rf = RfVolume(grid=grid, num_channels=5,
                  samples=np.zeros((16, 16, 5), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        infer(rf, toy_cfg, toy_weights)


def test_infer_missing_weight(toy_cfg, toy_rf):
    from capsbeam.data_model import WeightBundle

    with pytest.raises(MissingWeight):
        infer(toy_rf, toy_cfg, WeightBundle())


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_walk_computes_each_row_once_but_at_worker_seams(threads, monkeypatch, toy_cfg,
                                                         loud_toy_weights, wide_rf):
    # Host work in conv rows, counted where they are computed. One worker
    # computes each layer's 70 rows once, whatever the block size: every
    # conv carries its input rows from block to block. Each seam between
    # two workers recomputes 2 x the halo still left after the layer (the
    # toy net's conv0 2, conv1 1, every later layer 0); wide_rf's seams lie
    # farther than the halo from a frame edge, so none is clipped.
    from capsbeam.quantized import calibrate, infer_quantized, quantize_bundle

    qbundle = quantize_bundle(loud_toy_weights, calibrate(loud_toy_weights, [wide_rf], toy_cfg))
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 80)  # 35 blocks of 2 rows
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 2**12)
    monkeypatch.setenv("CAPSBEAM_THREADS", str(threads))
    names = toy_cfg.layer_names()
    halo_after = {"conv0": 2, "conv1": 1}
    real = capsnet.correlate
    for run in (lambda: infer(wide_rf, toy_cfg, loud_toy_weights),
                lambda: infer_quantized(wide_rf, toy_cfg, qbundle)):
        computed = []  # (layer weights, output rows), appended from every worker

        def counted(padded, weights):
            y = real(padded, weights)
            computed.append((weights.tobytes(), len(y)))
            return y

        monkeypatch.setattr(capsnet, "correlate", counted)
        run()
        monkeypatch.setattr(capsnet, "correlate", real)
        # Every worker walks the layers in order, so first uses come in order.
        layers = dict(zip(dict.fromkeys(key for key, _ in computed), names))
        assert len(layers) == len(names)
        rows = dict.fromkeys(names, 0)
        for key, n in computed:
            rows[layers[key]] += n
        assert rows == {name: 70 + (threads - 1) * 2 * halo_after.get(name, 0)
                        for name in names}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_walk_runs_a_caps_stage_left_with_no_rows(threads, monkeypatch):
    # caps0 owes caps1's one-row halo, so on 600 columns (one-row blocks)
    # it has computed every row before the last block and computes none
    # there; its squash still gets an empty [0, 600, 2, 4] input. Float,
    # calibration and fixed point must give the bytes of one whole-frame
    # block on one worker.
    from dataclasses import replace

    from capsbeam.quantized import calibrate, infer_quantized, quantize_bundle

    cfg = toy_config()
    cfg = replace(cfg, caps_conv_layers=(cfg.caps_conv_layers[0],
                                         CapsConvLayerCfg(3, 3, 8, 8, 2, 4)))
    weights = init_weights(cfg, seed=5)
    samples = np.random.default_rng(3).standard_normal((20, 600, 8)).astype(np.float32)
    rf = RfVolume(grid=PixelGrid(num_rows=20, num_cols=600), num_channels=8, samples=samples)

    def run():
        plan = calibrate(weights, [rf], cfg)
        return (infer(rf, cfg, weights), plan,
                infer_quantized(rf, cfg, quantize_bundle(weights, plan)))

    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 10**9)
    ref = run()
    monkeypatch.undo()
    monkeypatch.setenv("CAPSBEAM_THREADS", threads)
    env, plan, fixed = run()
    assert np.count_nonzero(ref[2].i_part) > 1000
    assert plan == ref[1]
    for got, want in ((env, ref[0]), (fixed, ref[2])):
        assert got.i_part.tobytes() == want.i_part.tobytes()
        assert got.q_part.tobytes() == want.q_part.tobytes()
