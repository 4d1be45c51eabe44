"""DAS, MVDR, compounding, envelope, log compression, and PGM export.

MVDR is checked two independent ways: against a closed-form case
(channel-constant data makes the distortionless weights uniform, so the
output must reproduce the input) and against a from-scratch per-pixel
loop implementation of the same covariance/solve/normalize recipe.
"""

import io
import itertools
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import capsbeam
from capsbeam import beamform
from capsbeam.beamform import (
    BeamformedImage,
    MvdrParams,
    compound,
    das,
    envelope,
    log_compress,
    mvdr,
    thread_budget,
    write_pgm,
)
from capsbeam.data_model import EnvelopeImage, PixelGrid, RfVolume
from capsbeam.errors import (
    AllZeroImage,
    EmptyList,
    GridMismatch,
    InvalidConfig,
    NonFinite,
    ShapeMismatch,
    SingularCovariance,
    ZeroWeightSum,
)


def _rf(samples):
    samples = np.asarray(samples, dtype=np.float32)
    grid = PixelGrid(num_rows=samples.shape[0], num_cols=samples.shape[1])
    return RfVolume(grid=grid, num_channels=samples.shape[2], samples=samples)


# ---------------------------------------------------------------- DAS


def test_das_hand_oracle():
    # pixel (0,0): (1*1 + 2*2 + 3*3) / 6 = 14/6; integers keep partial
    # sums exact so equality is bitwise.
    samples = np.array(
        [[[1, 2, 3], [4, 0, 2]],
         [[0, 0, 6], [-3, 3, 0]]], dtype=np.float32)
    img = das(_rf(samples), np.array([1.0, 2.0, 3.0]))
    expected = np.array([[14 / 6, 10 / 6], [18 / 6, 3 / 6]])
    np.testing.assert_array_equal(img.values, expected)


def test_das_uniform_weights_average_channels():
    samples = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    img = das(_rf(samples), np.ones(4))
    np.testing.assert_allclose(img.values, samples.mean(axis=2), rtol=1e-12)


def test_das_zero_weight_sum():
    rf = _rf(np.ones((2, 2, 3), dtype=np.float32))
    with pytest.raises(ZeroWeightSum):
        das(rf, np.zeros(3))
    with pytest.raises(ZeroWeightSum):
        das(rf, np.array([1.0, -1.0, 0.0]))


def test_das_row_blocks_match_whole_volume_bytes():
    # 64 rows of 48x48 channels run in 14-row blocks, the last one 8 rows.
    samples = np.random.default_rng(6).standard_normal((64, 48, 48)).astype(np.float32)
    w = np.hanning(50)[1:-1]
    assert beamform._DAS_BLOCK_BYTES // (48 * 48 * 8) == 14
    expected = samples.astype(np.float64) @ w / w.sum()
    assert das(_rf(samples), w).values.tobytes() == expected.tobytes()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1] - out.values.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cols", [48, 96])
def test_beamformers_peak_memory_does_not_grow_with_columns(monkeypatch, cols):
    # Beside the output, DAS holds one float64 block and MVDR one column
    # block, whose whole working set its budget covers (5.9 MB here: five
    # columns). The whole-frame versions held 1.2 MB (DAS) and 17.8 MB
    # (MVDR) at 48 columns, and twice that at 96.
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    rf = _rf(np.random.default_rng(7).standard_normal((64, cols, 48)))
    assert _peak_bytes(lambda: das(rf, np.ones(48))) <= 2 * beamform._DAS_BLOCK_BYTES
    assert _peak_bytes(lambda: mvdr(rf, MvdrParams())) <= 1.5 * beamform._VAN_HERK_BYTES


def test_das_apodization_shape():
    with pytest.raises(ShapeMismatch):
        das(_rf(np.ones((2, 2, 3), dtype=np.float32)), np.ones(4))


# ---------------------------------------------------------------- MVDR


def test_mvdr_channel_constant_data_is_identity():
    # Constant-across-channel snapshots give rank-one R; loading keeps it
    # solvable and symmetry forces uniform weights, so the distortionless
    # response returns the pixel value itself.
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, 4)).astype(np.float32)
    rf = _rf(np.repeat(v[:, :, None], 6, axis=2))
    out = mvdr(rf, MvdrParams(subarray_len=3, temporal_half_window=1))
    np.testing.assert_allclose(out.values, v, atol=1e-12)


def _loop_reference(samples, params):
    """From-scratch per-pixel MVDR: gather every snapshot, solve, normalize."""
    data = samples.astype(np.float64)
    rows, cols, ch = data.shape
    L, K = params.subarray_len, params.temporal_half_window
    n_sub = ch - L + 1
    expected = np.empty((rows, cols))
    for r0 in range(rows):
        window = np.clip(np.arange(r0 - K, r0 + K + 1), 0, rows - 1)
        for c in range(cols):
            snaps = [data[r, c, g:g + L] for r in window for g in range(n_sub)]
            X = np.stack(snaps)
            R = X.T @ X / len(snaps)
            R = R + params.diagonal_loading * np.trace(R) / L * np.eye(L)
            w = np.linalg.solve(R, np.ones(L))
            w = w / w.sum()
            subs = np.stack([data[r0, c, g:g + L] for g in range(n_sub)])
            expected[r0, c] = w @ subs.mean(axis=0)
    return expected


def test_mvdr_matches_loop_reference():
    rng = np.random.default_rng(21)
    samples = rng.standard_normal((5, 4, 6)).astype(np.float32)
    params = MvdrParams(subarray_len=3, temporal_half_window=1,
                        diagonal_loading=0.01)
    out = mvdr(_rf(samples), params)
    np.testing.assert_allclose(out.values, _loop_reference(samples, params), atol=1e-10)


@pytest.mark.parametrize("half_window", [0, 3])
def test_mvdr_loop_reference_across_chunks(half_window):
    # 23 rows pad to 23 + 2K window positions: 23 chunks of one position
    # for K=0, five chunks of 7 for K=3, with the window clamped at both
    # edges.
    rng = np.random.default_rng(40 + half_window)
    samples = rng.standard_normal((23, 3, 7)).astype(np.float32)
    params = MvdrParams(subarray_len=3, temporal_half_window=half_window)
    out = mvdr(_rf(samples), params)
    np.testing.assert_allclose(out.values, _loop_reference(samples, params), atol=1e-10)


def test_mvdr_zero_data_is_singular():
    rf = _rf(np.zeros((3, 3, 6), dtype=np.float32))
    with pytest.raises(SingularCovariance):
        mvdr(rf, MvdrParams(subarray_len=3, temporal_half_window=1))


def test_mvdr_subarray_longer_than_aperture():
    rf = _rf(np.ones((3, 3, 4), dtype=np.float32))
    with pytest.raises(InvalidConfig):
        mvdr(rf, MvdrParams(subarray_len=5))


def test_mvdr_param_validation():
    with pytest.raises(InvalidConfig):
        MvdrParams(subarray_len=0)
    with pytest.raises(InvalidConfig):
        MvdrParams(temporal_half_window=-1)
    with pytest.raises(InvalidConfig):
        MvdrParams(diagonal_loading=-0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mvdr_params_reject_non_finite_loading(bad):
    with pytest.raises(NonFinite, match="MvdrParams.diagonal_loading"):
        MvdrParams(diagonal_loading=bad)


def test_mvdr_thread_count_does_not_change_values(monkeypatch):
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((6, 4, 6)).astype(np.float32)
    params = MvdrParams(subarray_len=3, temporal_half_window=2)
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    serial = mvdr(_rf(samples), params)
    monkeypatch.setenv("CAPSBEAM_THREADS", "4")
    threaded = mvdr(_rf(samples), params)
    np.testing.assert_array_equal(serial.values, threaded.values)


def _block_columns(monkeypatch, params, channels, width):
    # A budget of exactly `width` columns' working sets.
    monkeypatch.setattr(beamform, "_VAN_HERK_BYTES",
                        width * beamform._mvdr_column_bytes(params, channels))


def test_mvdr_bits_independent_of_workers_and_block_width(monkeypatch):
    # 23 rows in K=2's 5-row chunks end in a 3-row chunk; 3 rows are fewer
    # than one chunk; K=0 makes every row a chunk. 9 columns in blocks of
    # 2 or 4 end in a one-column block. Each must match one 9-column block.
    rng = np.random.default_rng(8)
    for rows, half_window in ((23, 2), (3, 2), (23, 0)):
        samples = rng.standard_normal((rows, 9, 6)).astype(np.float32)
        params = MvdrParams(subarray_len=3, temporal_half_window=half_window)
        monkeypatch.setenv("CAPSBEAM_THREADS", "1")
        _block_columns(monkeypatch, params, 6, 9)
        whole = mvdr(_rf(samples), params).values.tobytes()
        for width, threads in itertools.product((1, 2, 4), ("1", "2", "3")):
            _block_columns(monkeypatch, params, 6, width)
            monkeypatch.setenv("CAPSBEAM_THREADS", threads)
            got = mvdr(_rf(samples), params).values.tobytes()
            assert got == whole, f"{rows} rows, K={half_window}, {width} columns, {threads} threads"


def test_mvdr_bytes_frozen():
    # Both edges clamp the window and the last 5-row chunk has 2 rows.
    # MVDR's Grams and Cholesky run through BLAS and LAPACK, whose summation
    # order follows the kernel OpenBLAS picks for the machine, so the values
    # are bound, not frozen: against the per-pixel float64 np.linalg.solve
    # reference, to kappa * n * L * eps of the data's scale, a tolerance
    # fixed before it was run. Loading delta keeps the condition number
    # kappa <= L / delta + 1; each entry of R sums n = (2K + 1) G products,
    # and L is the solve's order.
    rng = np.random.default_rng(23)
    samples = rng.standard_normal((17, 5, 12)).astype(np.float32)
    params = MvdrParams(subarray_len=5, temporal_half_window=2)
    L, K = params.subarray_len, params.temporal_half_window
    kappa = L / params.diagonal_loading + 1
    n = (2 * K + 1) * (samples.shape[2] - L + 1)
    tol = kappa * n * L * np.finfo(np.float64).eps * np.abs(samples).max()
    np.testing.assert_allclose(mvdr(_rf(samples), params).values,
                               _loop_reference(samples, params), rtol=0, atol=tol)


def test_mvdr_zero_window_names_its_global_column(monkeypatch):
    # Column 7 is the second column of the third 3-column block.
    rng = np.random.default_rng(10)
    samples = rng.standard_normal((11, 9, 6)).astype(np.float32)
    samples[4:7, 7] = 0.0
    params = MvdrParams(subarray_len=3, temporal_half_window=1)
    _block_columns(monkeypatch, params, 6, 3)
    for threads in ("1", "2"):
        monkeypatch.setenv("CAPSBEAM_THREADS", threads)
        with pytest.raises(SingularCovariance, match="row 5, column 7"):
            mvdr(_rf(samples), params)


@pytest.mark.parametrize("zero, singular, message", [
    ((5, 7), (3, 8), "row 3, column 8: covariance singular"),
    ((3, 7), (5, 8), "row 3, column 7: all-zero window"),
    ((4, 8), (4, 7), "row 4, column 8: all-zero window"),
])
def test_mvdr_first_failure_in_a_chunk_names_its_row_and_column(monkeypatch, zero, singular,
                                                                message):
    # K=1 makes rows 3..5 one chunk, and columns 7 and 8 share the third
    # 3-column block. Unloaded, a pixel whose three window rows lack
    # channels 0..3 has no energy at subarray position 0: R is singular
    # with a non-zero trace. Its neighbours, like the zero window's, hold
    # one whole row, whose four subarrays give R full rank. A zero window
    # outranks a failed factorization in its own row.
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((11, 9, 6)).astype(np.float32)
    (zr, zc), (sr, sc) = zero, singular
    samples[zr - 1:zr + 2, zc] = 0.0
    samples[sr - 1:sr + 2, sc, :4] = 0.0
    params = MvdrParams(subarray_len=3, temporal_half_window=1, diagonal_loading=0.0)
    _block_columns(monkeypatch, params, 6, 3)
    for threads in ("1", "2"):
        monkeypatch.setenv("CAPSBEAM_THREADS", threads)
        with pytest.raises(SingularCovariance, match=message):
            mvdr(_rf(samples), params)


@pytest.mark.parametrize("loading, scale", [(0.0, 1.0), (0.01, 1e20), (0.01, 1e-20)])
def test_mvdr_matches_loop_reference_unloaded_and_at_any_scale(loading, scale):
    # Without loading, the bordered Cholesky still matches on full-rank
    # data; its border scales with tr(R), so RF at 1e+-20 matches the
    # reference relative to that scale.
    rng = np.random.default_rng(22)
    samples = (rng.standard_normal((9, 4, 6)) * scale).astype(np.float32)
    params = MvdrParams(subarray_len=3, temporal_half_window=1, diagonal_loading=loading)
    out = mvdr(_rf(samples), params)
    np.testing.assert_allclose(out.values / scale, _loop_reference(samples, params) / scale,
                               rtol=0, atol=1e-10)


def test_mvdr_single_snapshot_without_loading_is_singular():
    # L = channels and K = 0 pool one snapshot per pixel: R = x x^T has
    # rank one, and without loading the factorization must fail.
    rng = np.random.default_rng(12)
    rf = _rf(rng.standard_normal((4, 3, 5)))
    with pytest.raises(SingularCovariance):
        mvdr(rf, MvdrParams(subarray_len=5, temporal_half_window=0, diagonal_loading=0.0))


def test_mvdr_zero_window_between_rows_is_singular(monkeypatch):
    # Column 2 is zero on rows 4..6, so row 5's 3-row window there is all
    # zero although every row and the rows around it carry data.
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((11, 4, 6)).astype(np.float32)
    samples[4:7, 2] = 0.0
    params = MvdrParams(subarray_len=3, temporal_half_window=1)
    for threads in ("1", "2"):
        monkeypatch.setenv("CAPSBEAM_THREADS", threads)
        with pytest.raises(SingularCovariance, match="row 5, column 2"):
            mvdr(_rf(samples), params)


def test_network_opens_one_pool_at_most(monkeypatch, toy_cfg, loud_toy_weights, toy_rf,
                                        wide_rf):
    # walk's block ranges are the one place the network is split over
    # workers: conv2d runs its chunks on the calling thread, so no pool opens
    # under walk's pool, and a one-block frame or a direct conv opens none.
    import capsbeam.beamform as beamform
    from capsbeam import capsnet
    from capsbeam.accel_sim import AccelConfig, ConvLayerSpec, sim_conv_layer
    from capsbeam.capsnet import infer
    from capsbeam.quantized import calibrate, infer_quantized, quantize_bundle

    qbundle = quantize_bundle(loud_toy_weights, calibrate(loud_toy_weights, [wide_rf], toy_cfg))
    pools = []

    class CountingPool(beamform.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(beamform, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setenv("CAPSBEAM_THREADS", "2")
    monkeypatch.setattr(capsnet, "_IM2COL_BYTES", 1)  # one output row a conv chunk
    monkeypatch.setattr(capsnet, "_PIXEL_BLOCK", 400)  # wide_rf: 7 blocks, toy_rf: 1
    for run in (lambda rf: infer(rf, toy_cfg, loud_toy_weights),
                lambda rf: infer_quantized(rf, toy_cfg, qbundle)):
        pools.clear()
        run(wide_rf)
        assert pools == [1]
        pools.clear()
        run(toy_rf)
        assert pools == []
    rng = np.random.default_rng(4)
    spec = ConvLayerSpec(weight=rng.integers(-300, 300, size=(3, 3, 5, 4)).astype(np.int16),
                         bias=np.zeros(4, dtype=np.int16), index=None, relu=True,
                         f_in=6, f_w=6, f_b=10, f_out=6)
    sim_conv_layer(rng.integers(-500, 500, size=(9, 7, 5)).astype(np.int16), spec, AccelConfig())
    assert pools == []


def test_run_ranges_calling_thread_runs_the_first_range(monkeypatch):
    calls = []

    def record(lo, hi):
        calls.append((lo, hi, threading.get_ident()))

    monkeypatch.setenv("CAPSBEAM_THREADS", "3")
    beamform.run_ranges(10, record)
    main = threading.get_ident()
    assert [(lo, hi) for lo, hi, ident in calls if ident == main] == [(0, 3)]
    assert sorted((lo, hi) for lo, hi, _ in calls) == [(0, 3), (3, 6), (6, 10)]


@pytest.mark.parametrize("threads, n, grain", [("1", 7, 1), ("2", 7, 1), ("3", 7, 1),
                                               ("4", 3, 1), ("4", 10, 4), ("2", 0, 1)])
def test_run_ranges_runs_every_range_once(monkeypatch, threads, n, grain):
    seen = []
    monkeypatch.setenv("CAPSBEAM_THREADS", threads)
    beamform.run_ranges(n, lambda lo, hi: seen.append((lo, hi)), grain=grain)
    seen.sort()
    assert len(seen) == beamform.worker_count(n, grain)
    assert seen[0][0] == 0 and seen[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    assert all(hi - lo >= min(grain, n) for lo, hi in seen)


@pytest.mark.parametrize("failing", [(0, 2), (1, 2), (0, 1, 2)])
def test_run_ranges_raises_the_first_failing_range(monkeypatch, failing):
    # Every range runs to its end, and the lowest failing range's error wins,
    # whichever thread ran it and whichever finished first.
    finished = []

    def fn(lo, hi):
        k = lo // 4
        if k not in failing:
            finished.append(k)
            return
        if k == failing[0]:
            time.sleep(0.05)  # the first failure also comes last
        raise ValueError(f"range {k}")

    monkeypatch.setenv("CAPSBEAM_THREADS", "3")
    with pytest.raises(ValueError, match=f"range {failing[0]}"):
        beamform.run_ranges(12, fn)
    assert sorted(finished) == sorted(set(range(3)) - set(failing))


@pytest.mark.parametrize("threads", ["1", "2", "3", "4"])
def test_run_ranges_makes_every_working_set_first_on_the_calling_thread(monkeypatch, threads):
    # One workspace(lo, hi) call a range, all on the calling thread before
    # any range starts, and each range runs on the set made for it alone.
    made, ran = [], []
    lock = threading.Lock()

    def workspace(lo, hi):
        assert not ran, "a range started before every working set was made"
        made.append((lo, hi, threading.get_ident()))
        return [lo, hi]

    def fn(lo, hi, ws):
        time.sleep(0.01)  # let the ranges overlap
        with lock:
            ran.append((lo, hi, ws))

    monkeypatch.setenv("CAPSBEAM_THREADS", threads)
    beamform.run_ranges(11, fn, workspace=workspace)
    assert len(made) == len(ran) == beamform.worker_count(11) == int(threads)
    assert {ident for *_, ident in made} == {threading.get_ident()}
    assert sorted((lo, hi) for lo, hi, _ in made) == sorted((lo, hi) for lo, hi, _ in ran)
    assert all(ws == [lo, hi] for lo, hi, ws in ran)
    assert len({id(ws) for *_, ws in ran}) == len(ran)


def test_run_ranges_with_workspace_raises_the_first_failing_range(monkeypatch):
    # The later ranges fail first; the first range's error still wins. A
    # failing workspace call runs no range at all.
    def fn(lo, hi, ws):
        if lo == 0:
            time.sleep(0.05)
        raise ValueError(f"range {lo}")

    monkeypatch.setenv("CAPSBEAM_THREADS", "3")
    with pytest.raises(ValueError, match="range 0"):
        beamform.run_ranges(12, fn, workspace=lambda lo, hi: {})
    ran = []

    def workspace(lo, hi):
        if lo > 0:
            raise MemoryError(f"set {lo}")
        return {}

    with pytest.raises(MemoryError, match="set 4"):
        beamform.run_ranges(12, lambda lo, hi, ws: ran.append(lo), workspace=workspace)
    assert ran == []


def test_mvdr_workspaces_are_the_budgeted_bytes(monkeypatch):
    # MVDR's byte budget, taken from what it allocates: one working set a
    # worker, made on the calling thread, each width x _mvdr_column_bytes,
    # and every block computed in one of them.
    made, used = [], []
    real_workspace, real_block = beamform._mvdr_workspace, beamform._mvdr_block

    def workspace(*args):
        made.append((real_workspace(*args), threading.get_ident()))
        return made[-1][0]

    def block(*args):
        used.append(args[-1])
        return real_block(*args)

    monkeypatch.setattr(beamform, "_mvdr_workspace", workspace)
    monkeypatch.setattr(beamform, "_mvdr_block", block)
    monkeypatch.setenv("CAPSBEAM_THREADS", "2")
    params = MvdrParams()
    rf = _rf(np.random.default_rng(13).standard_normal((20, 12, 64)))
    mvdr(rf, params)
    width = beamform._VAN_HERK_BYTES // beamform._mvdr_column_bytes(params, 64)
    assert width == 4  # 3 blocks over 2 workers
    assert len(made) == 2 and len(used) == 3
    for buffers, ident in made:
        assert ident == threading.get_ident()
        assert all(buf.dtype == np.float64 for buf in buffers)
        assert sum(buf.nbytes for buf in buffers) == width * beamform._mvdr_column_bytes(params, 64)
    assert {id(buffers) for buffers in used} == {id(buffers) for buffers, _ in made}


def test_mvdr_workers_never_share_a_working_set(monkeypatch):
    # More workers than cores, switching threads as often as the interpreter
    # allows: each range must take a working set of its own (two ranges in
    # one set would mix their Grams), and the bytes must stay one worker's.
    owners = {}
    real_block = beamform._mvdr_block

    def block(*args):
        owners.setdefault(id(args[-1]), set()).add(threading.get_ident())
        return real_block(*args)

    rng = np.random.default_rng(17)
    samples = rng.standard_normal((9, 16, 6)).astype(np.float32)
    params = MvdrParams(subarray_len=3, temporal_half_window=1)
    _block_columns(monkeypatch, params, 6, 1)
    monkeypatch.setenv("CAPSBEAM_THREADS", "1")
    whole = mvdr(_rf(samples), params).values.tobytes()
    monkeypatch.setattr(beamform, "_mvdr_block", block)
    monkeypatch.setenv("CAPSBEAM_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            owners.clear()
            assert mvdr(_rf(samples), params).values.tobytes() == whole
            assert len(owners) == 8 and all(len(t) == 1 for t in owners.values())
    finally:
        sys.setswitchinterval(interval)


def test_thread_budget_parsing(monkeypatch):
    monkeypatch.delenv("CAPSBEAM_THREADS", raising=False)
    assert thread_budget() == 1
    monkeypatch.setenv("CAPSBEAM_THREADS", "4")
    assert thread_budget() == 4
    monkeypatch.setenv("CAPSBEAM_THREADS", "zero")
    with pytest.raises(InvalidConfig):
        thread_budget()
    monkeypatch.setenv("CAPSBEAM_THREADS", "0")
    with pytest.raises(InvalidConfig):
        thread_budget()


def test_package_loads_only_stdlib_and_numpy(tmp_path):
    # Importing every module and running a report must load no top-level
    # module but the stdlib's, numpy's and the package's own, so a heavy
    # dependency (scipy.fft alone cost ~20 MB and ~0.2 s a process) can
    # come back only on purpose. Modules that interpreter start-up loads
    # (site hooks) are not the package's and are left out, as are the
    # runtime shims that numpy.random's Cython extensions register.
    desk = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
    code = f"""
import importlib, pkgutil, sys
before = set(sys.modules)
import capsbeam
for mod in pkgutil.iter_modules(capsbeam.__path__):
    importlib.import_module("capsbeam." + mod.name)
from capsbeam import cli
assert cli.main(["report", "--config", {str(desk)!r}, "--out", {str(tmp_path)!r}]) == 0
allowed = set(sys.stdlib_module_names) | {{"numpy", "capsbeam"}}
extra = {{name.split(".")[0] for name in set(sys.modules) - before}} - allowed
extra = {{name for name in extra if name != "cython_runtime" and not name.startswith("_cython_")}}
assert not extra, sorted(extra)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(capsbeam.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "report.txt").is_file()


# ---------------------------------------------------------------- compound


def test_compound_single_image_identity():
    grid = PixelGrid(num_rows=3, num_cols=2)
    img = BeamformedImage(grid=grid, values=np.arange(6.0).reshape(3, 2))
    out = compound([img])
    np.testing.assert_array_equal(out.values, img.values)


def test_compound_is_pixel_mean():
    grid = PixelGrid(num_rows=2, num_cols=2)
    a = BeamformedImage(grid=grid, values=np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = BeamformedImage(grid=grid, values=np.array([[3.0, 6.0], [5.0, 0.0]]))
    out = compound([a, b])
    np.testing.assert_array_equal(out.values, np.array([[2.0, 4.0], [4.0, 2.0]]))


def test_compound_rejects_grid_mismatch():
    a = BeamformedImage(grid=PixelGrid(num_rows=2, num_cols=2), values=np.zeros((2, 2)))
    b = BeamformedImage(grid=PixelGrid(num_rows=2, num_cols=3), values=np.zeros((2, 3)))
    with pytest.raises(GridMismatch):
        compound([a, b])


def test_compound_empty():
    with pytest.raises(EmptyList):
        compound([])


# ---------------------------------------------------------------- envelope


def test_envelope_of_cosine_has_sine_quadrature():
    # 8 whole cycles over 64 rows: the analytic signal of cos is
    # cos + i sin, so |env| == 1 everywhere and q == sin.
    rows, cols = 64, 3
    grid = PixelGrid(num_rows=rows, num_cols=cols)
    phase = 2 * np.pi * 8 * np.arange(rows) / rows
    vals = np.cos(phase)[:, None] * np.ones((1, cols))
    env = envelope(BeamformedImage(grid=grid, values=vals))
    np.testing.assert_array_equal(env.i_part, vals.astype(np.float32))
    np.testing.assert_allclose(env.q_part, np.sin(phase)[:, None] * np.ones((1, cols)),
                               atol=1e-6)
    np.testing.assert_allclose(env.magnitude(), 1.0, atol=1e-6)


def test_envelope_pads_to_power_of_two():
    # 6 rows -> 8-point transform internally; output keeps 6 rows and the
    # in-phase channel is the input bit-for-bit.
    grid = PixelGrid(num_rows=6, num_cols=2)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((6, 2))
    env = envelope(BeamformedImage(grid=grid, values=vals))
    assert env.i_part.shape == (6, 2)
    np.testing.assert_array_equal(env.i_part, vals.astype(np.float32))


@pytest.mark.parametrize("rows", [6, 16, 23])
def test_envelope_matches_scipy_hilbert(rows):
    # scipy is a test-only oracle: the package runs the same steps on numpy.fft.
    signal = pytest.importorskip("scipy.signal")
    vals = np.random.default_rng(rows).standard_normal((rows, 5))
    nfft = 1 << (rows - 1).bit_length()
    ref = signal.hilbert(vals, N=nfft, axis=0)[:rows]
    analytic = beamform._analytic(vals)
    assert np.abs(analytic - ref).max() <= 1e-12 * np.abs(ref).max()
    env = envelope(BeamformedImage(grid=PixelGrid(num_rows=rows, num_cols=5), values=vals))
    np.testing.assert_array_equal(env.q_part, analytic.imag.astype(np.float32))


def test_envelope_needs_rows():
    grid = PixelGrid(num_rows=3, num_cols=2)
    with pytest.raises(ShapeMismatch):
        envelope(BeamformedImage(grid=grid, values=np.zeros((3, 2))))


# ---------------------------------------------------------------- log compression


def test_log_compress_decades_and_clamp():
    i = np.array([[1.0, 0.1], [0.01, 0.001]], dtype=np.float32)
    env = EnvelopeImage(grid=PixelGrid(num_rows=2, num_cols=2),
                        i_part=i, q_part=np.zeros_like(i))
    db = log_compress(env, dynamic_range_db=50.0)
    np.testing.assert_allclose(db, [[0.0, -20.0], [-40.0, -50.0]], atol=1e-5)
    assert db.max() == 0.0


def test_log_compress_all_zero():
    z = np.zeros((2, 2), dtype=np.float32)
    env = EnvelopeImage(grid=PixelGrid(num_rows=2, num_cols=2), i_part=z, q_part=z)
    with pytest.raises(AllZeroImage):
        log_compress(env)
    with pytest.raises(InvalidConfig):
        log_compress(env, dynamic_range_db=0.0)


# ---------------------------------------------------------------- PGM


def test_pgm_golden_bytes():
    # (db + 60) * 255/60: 0 -> 255, -30 -> 127.5 -> 128 (ties to even),
    # -60 -> 0, -15 -> 191.25 -> 191.
    db = np.array([[0.0, -30.0], [-60.0, -15.0]])
    buf = io.BytesIO()
    write_pgm(db, 60.0, buf)
    assert buf.getvalue() == b"P5\n2 2\n255\n\xff\x80\x00\xbf"


def test_pgm_path_and_filelike_agree(tmp_path):
    db = np.linspace(-60.0, 0.0, 12).reshape(3, 4)
    target = tmp_path / "img.pgm"
    write_pgm(db, 60.0, target)
    buf = io.BytesIO()
    write_pgm(db, 60.0, buf)
    assert target.read_bytes() == buf.getvalue()
    assert buf.getvalue().startswith(b"P5\n4 3\n255\n")


def test_pgm_rejects_non_2d():
    with pytest.raises(ShapeMismatch):
        write_pgm(np.zeros(4), 60.0, io.BytesIO())
