"""Phantom realization, plane-wave channel simulation, and ToF correction.

Peak-index oracles below were frozen from the two-way delay formula
tau = (z cos a + x sin a) / c + hypot(x - x_e, z) / c evaluated by hand
for each element; scatterer depths were chosen so every element's
fractional sample offset stays well clear of 0.5, making the rounded
index unambiguous.

_simulate_rx_loop is the independent reference for simulate_rx: one
np.add.at per scatterer, in realize() order, with a validity mask, and
gausspulse's direct exp(-a t^2) cos(2 pi f t) at every tap, where
simulate_rx evaluates the pulse factored about the nearest sample.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsbeam import cli, phantom
from capsbeam.config import load_config, parse_config_text
from capsbeam.data_model import PixelGrid, ProbeGeometry
from capsbeam.errors import InvalidConfig, NonFinite, OutOfField, ShapeMismatch
from capsbeam.phantom import CystRegion, Phantom, realize, simulate_rx, tof_correct


@pytest.fixture(scope="module")
def probe8():
    return ProbeGeometry(num_elements=8)


def _simulate_rx_loop(ph, geom, num_time_samples, noise_std=0.0):
    scatterers = realize(ph, geom, num_time_samples)
    fs = geom.sample_rate_hz
    c = geom.speed_of_sound_mps
    theta = geom.transmit_angle_rad
    elements = geom.element_positions()
    t_max = (num_time_samples - 1) / fs
    out = np.zeros((num_time_samples, geom.num_elements), dtype=np.float64)
    f0 = geom.center_freq_hz
    a = phantom._pulse_exponent(f0)
    half_n = int(np.ceil(phantom._pulse_halfwidth_s(f0) * fs))
    offsets = np.arange(-half_n, half_n + 1)
    n_explicit = len(ph.scatterers)
    for idx, (sx, sz, amp) in enumerate(scatterers):
        if amp == 0.0:
            continue
        tau_tx = (sz * np.cos(theta) + sx * np.sin(theta)) / c
        tau = tau_tx + np.hypot(sx - elements, sz) / c
        if tau.max() > t_max:
            if idx < n_explicit:
                raise OutOfField(f"explicit scatterer {idx} is late")
            continue
        center = np.rint(tau * fs).astype(np.int64)
        idx_grid = center[:, None] + offsets[None, :]
        t_rel = idx_grid / fs - tau[:, None]
        wave = amp * (np.exp(-a * t_rel * t_rel) * np.cos(2 * np.pi * f0 * t_rel))
        valid = (idx_grid >= 0) & (idx_grid < num_time_samples)
        elem_grid = np.broadcast_to(np.arange(geom.num_elements)[:, None], idx_grid.shape)
        np.add.at(out, (idx_grid[valid], elem_grid[valid]), wave[valid])
    if noise_std > 0:
        rng = np.random.default_rng(ph.rng_seed + 1)
        out += rng.normal(0.0, noise_std, size=out.shape)
    return out.astype(np.float32)


# A steered 32-element shot into a 256-sample window. 1e17 absorbs the
# 1.0 that follows it until -1e17 cancels it, so the float64 sums at
# (0, 2.5 mm) depend on the scatterer order. The shallow lateral point
# echoes more than a pulse length before t = 0 on the edge element; one
# background point is late.
_ORDER_GEOM = ProbeGeometry(num_elements=32, transmit_angle_rad=np.deg2rad(30.0))
_ORDER_SAMPLES = 256
_ORDER_PHANTOM = Phantom(
    scatterers=((0.0, 2.5e-3, 1e17), (1.0e-3, 3.0e-3, 0.0), (0.0, 2.5e-3, -1e17),
                (0.0, 2.5e-3, 1.0), (-4.6e-3, 1.0e-4, 0.8), (1.5e-3, 2.0e-3, -0.6)),
    cyst_regions=(CystRegion(0.0, 3.0e-3, 1.0e-3, echogenicity=0.5),),
    background_density_per_mm2=3.0, rng_seed=5)


def _two_way_delays(rows, geom):
    x, z = rows[:, :1], rows[:, 1:2]
    theta, c = geom.transmit_angle_rad, geom.speed_of_sound_mps
    return (z * np.cos(theta) + x * np.sin(theta)) / c + np.hypot(
        x - geom.element_positions(), z) / c


def test_delta_scatterer_peak_sample_indices(probe8):
    # tau_e * fs for (x=0.2 mm, z=12.2 mm) rounds to these samples; the
    # pulse is symmetric about its center so argmax lands on round(tau*fs).
    raw = simulate_rx(Phantom(scatterers=((2.0e-4, 12.2e-3, 1.0),)), probe8, 600)
    assert raw.shape == (600, 8)
    assert raw.dtype == np.float32
    assert raw.argmax(axis=0).tolist() == [483, 482, 482, 482, 482, 482, 482, 482]


def test_steered_delta_scatterer_peak_indices():
    geom = ProbeGeometry(num_elements=8, transmit_angle_rad=np.deg2rad(3.0))
    raw = simulate_rx(Phantom(scatterers=((-3.0e-4, 10.1e-3, 1.0),)), geom, 600)
    assert raw.argmax(axis=0).tolist() == [399, 398, 398, 398, 398, 399, 399, 400]


def test_peak_sample_matches_recomputed_delay(probe8):
    # Independent recomputation of the delay for every element.
    sx, sz = 2.0e-4, 12.2e-3
    c, fs = probe8.speed_of_sound_mps, probe8.sample_rate_hz
    expected = []
    for xe in probe8.element_positions():
        tau = sz / c + np.hypot(sx - xe, sz) / c
        expected.append(int(np.rint(tau * fs)))
    raw = simulate_rx(Phantom(scatterers=((sx, sz, 1.0),)), probe8, 600)
    assert raw.argmax(axis=0).tolist() == expected


def test_out_of_field_scatterer_raises(probe8):
    with pytest.raises(OutOfField):
        simulate_rx(Phantom(scatterers=((0.0, 50.0e-3, 1.0),)), probe8, 64)


def test_zero_amplitude_scatterer_contributes_nothing(probe8):
    raw = simulate_rx(Phantom(scatterers=((0.0, 8.0e-3, 0.0),)), probe8, 400)
    assert np.all(raw == 0.0)


def test_realize_explicit_only_returns_scatterers():
    pts = ((1.0e-3, 5.0e-3, 0.7), (-2.0e-3, 9.0e-3, -1.2))
    out = realize(Phantom(scatterers=pts), ProbeGeometry(num_elements=8), 512)
    np.testing.assert_array_equal(out, np.array(pts))


def test_realize_background_deterministic(probe8):
    ph = Phantom(background_density_per_mm2=3.0, rng_seed=77)
    a = realize(ph, probe8, 512)
    b = realize(ph, probe8, 512)
    np.testing.assert_array_equal(a, b)
    other = realize(Phantom(background_density_per_mm2=3.0, rng_seed=78), probe8, 512)
    assert a.shape == other.shape
    assert not np.array_equal(a, other)


def test_cyst_scales_background_amplitudes_only(probe8):
    cyst = CystRegion(0.0, 4.0e-3, 1.5e-3, echogenicity=0.25)
    base = Phantom(scatterers=((0.0, 4.0e-3, 1.0),),
                   background_density_per_mm2=4.0, rng_seed=5)
    with_cyst = Phantom(scatterers=base.scatterers, cyst_regions=(cyst,),
                        background_density_per_mm2=4.0, rng_seed=5)
    a = realize(base, probe8, 512)
    b = realize(with_cyst, probe8, 512)
    # Positions identical; the explicit scatterer is never modulated.
    np.testing.assert_array_equal(a[:, :2], b[:, :2])
    np.testing.assert_array_equal(a[0], b[0])
    bg_a, bg_b = a[1:], b[1:]
    inside = cyst.contains(bg_a[:, 0], bg_a[:, 1])
    assert inside.any() and (~inside).any()
    np.testing.assert_array_equal(bg_b[inside, 2], bg_a[inside, 2] * 0.25)
    np.testing.assert_array_equal(bg_b[~inside, 2], bg_a[~inside, 2])


def test_anechoic_cyst_zeroes_inside(probe8):
    cyst = CystRegion(0.0, 4.0e-3, 1.5e-3, echogenicity=0.0)
    ph = Phantom(cyst_regions=(cyst,), background_density_per_mm2=4.0, rng_seed=5)
    out = realize(ph, probe8, 512)
    inside = cyst.contains(out[:, 0], out[:, 1])
    assert inside.any()
    assert np.all(out[inside, 2] == 0.0)


def test_simulate_rx_deterministic_with_noise(probe8):
    ph = Phantom(scatterers=((0.0, 8.0e-3, 1.0),), rng_seed=9)
    a = simulate_rx(ph, probe8, 400, noise_std=0.1)
    b = simulate_rx(ph, probe8, 400, noise_std=0.1)
    np.testing.assert_array_equal(a, b)
    clean = simulate_rx(ph, probe8, 400)
    assert not np.array_equal(a, clean)


def test_tof_correct_matches_per_pixel_loop():
    geom = ProbeGeometry(num_elements=4, transmit_angle_rad=0.05)
    grid = PixelGrid(num_rows=6, num_cols=5, row_spacing_m=2.0e-4,
                     col_spacing_m=3.0e-4, depth_origin_m=4.0e-3)
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((96, 4))
    vol = tof_correct(raw, geom, grid)
    assert vol.samples.shape == (6, 5, 4)

    c, fs = geom.speed_of_sound_mps, geom.sample_rate_hz
    theta = geom.transmit_angle_rad
    elements = geom.element_positions()
    n_time = raw.shape[0]
    expected = np.empty((6, 5, 4), dtype=np.float32)
    for r, z in enumerate(grid.row_depths):
        for col, x in enumerate(grid.col_positions):
            for e, xe in enumerate(elements):
                tau = (z * np.cos(theta) + x * np.sin(theta)) / c
                tau = tau + np.hypot(x - xe, z) / c
                pos = tau * fs
                i0 = int(np.floor(pos))
                frac = pos - i0
                if i0 < 0 or i0 > n_time - 1:
                    expected[r, col, e] = 0.0
                    continue
                a = raw[i0, e]
                b = raw[i0 + 1, e] if i0 + 1 <= n_time - 1 else 0.0
                expected[r, col, e] = (1.0 - frac) * a + frac * b
    np.testing.assert_array_equal(vol.samples, expected)


def _tof_loop(raw, geom, grid):
    c, fs = geom.speed_of_sound_mps, geom.sample_rate_hz
    theta = geom.transmit_angle_rad
    n_time = raw.shape[0]
    expected = np.zeros((grid.num_rows, grid.num_cols, geom.num_elements), dtype=np.float32)
    for r, z in enumerate(grid.row_depths):
        for col, x in enumerate(grid.col_positions):
            for e, xe in enumerate(geom.element_positions()):
                tau = (z * np.cos(theta) + x * np.sin(theta)) / c + np.hypot(x - xe, z) / c
                i0 = int(np.floor(tau * fs))
                if 0 <= i0 <= n_time - 1:
                    b = raw[i0 + 1, e] if i0 + 1 <= n_time - 1 else 0.0
                    frac = tau * fs - i0
                    expected[r, col, e] = (1.0 - frac) * raw[i0, e] + frac * b
    return expected


def test_tof_correct_matches_loop_off_the_element_pitch():
    # At a 0.22 mm column spacing against the 0.3 mm pitch no two
    # column-element pairs share a lateral offset; the loop test above, at
    # the pitch, has pairs that do.
    geom = ProbeGeometry(num_elements=5, transmit_angle_rad=-0.08)
    grid = PixelGrid(num_rows=9, num_cols=6, row_spacing_m=1.5e-4,
                     col_spacing_m=2.2e-4, depth_origin_m=3.0e-3)
    offsets = grid.col_positions[:, None] - geom.element_positions()
    assert np.unique(offsets).size == 30
    raw = np.random.default_rng(13).standard_normal((160, 5))
    vol = tof_correct(raw, geom, grid)
    assert (vol.samples != 0.0).any() and (vol.samples == 0.0).any()
    np.testing.assert_array_equal(vol.samples, _tof_loop(raw, geom, grid))


def test_tof_correct_out_of_window_is_zero(probe8):
    # 64 samples cover ~1.6 mm two-way; a 30 mm grid has no valid delays.
    grid = PixelGrid(num_rows=4, num_cols=4, depth_origin_m=30.0e-3)
    raw = np.ones((64, 8))
    vol = tof_correct(raw, probe8, grid)
    assert np.all(vol.samples == 0.0)


def test_tof_correct_rejects_wrong_channel_count(probe8):
    with pytest.raises(ShapeMismatch):
        tof_correct(np.zeros((64, 5)), probe8, PixelGrid(num_rows=4, num_cols=4))


def test_validation_errors(probe8):
    with pytest.raises(InvalidConfig):
        CystRegion(0.0, 4.0e-3, radius_m=0.0)
    with pytest.raises(InvalidConfig):
        CystRegion(0.0, 4.0e-3, 1.0e-3, echogenicity=1.5)
    with pytest.raises(InvalidConfig):
        Phantom(background_density_per_mm2=-1.0)
    with pytest.raises(InvalidConfig):
        Phantom(scatterers=((0.0, -1.0e-3, 1.0),))
    with pytest.raises(ShapeMismatch):
        Phantom(scatterers=((0.0, 1.0e-3),))
    with pytest.raises(InvalidConfig):
        simulate_rx(Phantom(), probe8, 1)


@pytest.mark.parametrize("field", ["center_x_m", "center_z_m", "radius_m", "echogenicity"])
def test_cyst_rejects_non_finite(field):
    # A NaN cyst passed its radius check and then contained no pixel.
    fields = {"center_x_m": 0.0, "center_z_m": 4.0e-3, "radius_m": 1.0e-3,
              "echogenicity": 0.5}
    with pytest.raises(NonFinite, match=f"CystRegion.{field}"):
        CystRegion(**{**fields, field: float("nan")})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_realize_determinism_property(seed):
    geom = ProbeGeometry(num_elements=8)
    ph = Phantom(background_density_per_mm2=2.0, rng_seed=seed,
                 cyst_regions=(CystRegion(0.0, 4.0e-3, 1.0e-3, 0.0),))
    a = realize(ph, geom, 384)
    b = realize(ph, geom, 384)
    np.testing.assert_array_equal(a, b)
    inside = ph.cyst_regions[0].contains(a[:, 0], a[:, 1])
    assert np.all(a[inside, 2] == 0.0)


def test_order_phantom_covers_every_scatterer_kind():
    rows = realize(_ORDER_PHANTOM, _ORDER_GEOM, _ORDER_SAMPLES)
    n_explicit = len(_ORDER_PHANTOM.scatterers)
    tau = _two_way_delays(rows, _ORDER_GEOM)
    t_max = (_ORDER_SAMPLES - 1) / _ORDER_GEOM.sample_rate_hz
    background = rows[n_explicit:]
    assert (tau[n_explicit:].max(axis=1) > t_max).any()
    pulse_s = 2 * phantom._pulse_halfwidth_s(_ORDER_GEOM.center_freq_hz)
    assert tau[:n_explicit].min() < -pulse_s
    assert _ORDER_PHANTOM.cyst_regions[0].contains(background[:, 0], background[:, 1]).any()
    assert (rows[:, 2] == 0.0).any()


@pytest.mark.parametrize("tile_values", [None, 1, 3 * 35])
@pytest.mark.parametrize("noise_std", [0.0, 0.05])
def test_simulate_rx_matches_loop_for_any_thread_count(monkeypatch, tile_values, noise_std):
    # A one-value budget gives tiles of one scatterer on one element, so the
    # order-sensitive scatterers land in separate np.add.at calls; three
    # pulses' worth (35 taps here) gives one-scatterer tiles of three
    # elements, so every worker range ends in a shorter tile.
    if tile_values is not None:
        monkeypatch.setattr(phantom, "_TILE_VALUES", tile_values)
    expected = _simulate_rx_loop(_ORDER_PHANTOM, _ORDER_GEOM, _ORDER_SAMPLES, noise_std)
    assert np.abs(expected).max() > 0.5
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("CAPSBEAM_THREADS", threads)
        raw = simulate_rx(_ORDER_PHANTOM, _ORDER_GEOM, _ORDER_SAMPLES, noise_std=noise_std)
        assert raw.dtype == np.float32
        assert raw.tobytes() == expected.tobytes(), f"{threads} threads"


def test_factored_pulse_matches_direct_formula_in_float64():
    # Over delays spanning default.ini's recording window the factored
    # pulse stays within 3.9e-13 of the unit peak of the direct
    # exp(-a t^2) cos(2 pi f t) (200,000 delays measured); most of that is
    # the rounding of t or u next to a delay of up to 67 us. A float32
    # carrier or a dropped e^(2a d u) factor misses by 1e-8 or more.
    geom = load_config("configs/default.ini").probe
    fs, f0 = geom.sample_rate_hz, geom.center_freq_hz
    tables = phantom._PulseTables.build(geom)
    half_n = len(tables.slope) // 2
    tau = np.random.default_rng(8).uniform(0.0, 2047 / fs, size=(20_000, 1))
    nearest = np.rint(tau * fs)
    out, spare = np.empty((2, 20_000, 1, 2 * half_n + 1))
    phantom._pulse_taps(tau - nearest / fs, np.ones((20_000, 1)), tables, out, spare)
    t = (nearest + np.arange(-half_n, half_n + 1)) / fs - tau
    a = phantom._pulse_exponent(f0)
    direct = np.exp(-a * t * t) * np.cos(2 * np.pi * f0 * t)
    assert np.abs(out[:, 0] - direct).max() <= 2e-12


def test_simulate_rx_within_one_ulp_of_direct_pulse_at_default_geometry(monkeypatch):
    # default.ini's fourth angle: 1,414 scatterers on 128 elements. Every
    # float32 sample equals the direct-formula loop's or is its neighbour;
    # 3 of 262,144 samples differ here (1.1e-5), and 25 of 3,932,160 over
    # phantom seeds 1234, 90210 and 5 at all five angles.
    monkeypatch.setenv("CAPSBEAM_THREADS", "2")
    cfg = load_config("configs/default.ini")
    geom = replace(cfg.probe, transmit_angle_rad=cfg.angles_rad[3])
    assert cfg.phantom.background_density_per_mm2 == 1.0
    raw = simulate_rx(cfg.phantom, geom, cfg.num_time_samples)
    expected = _simulate_rx_loop(cfg.phantom, geom, cfg.num_time_samples)
    assert np.all((raw == expected) | (np.nextafter(expected, raw) == raw))
    assert np.count_nonzero(raw != expected) <= 1e-4 * raw.size


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_rx_peak_memory_does_not_grow_with_tiles(monkeypatch, threads):
    # 10x default.ini's speckle density (1,414 -> 14,133 scatterers) adds
    # only O(S) rows: realize's columns and the arrival times, 69 bytes a
    # scatterer measured. Tiles stay at _TILE_VALUES; an [S, E, taps]
    # float64 array at the higher density would take about 500 MB.
    monkeypatch.setenv("CAPSBEAM_THREADS", threads)
    cfg = load_config("configs/default.ini")
    peaks, counts = [], []
    for density in (1.0, 10.0):
        ph = replace(cfg.phantom, background_density_per_mm2=density)
        counts.append(len(realize(ph, cfg.probe, cfg.num_time_samples)))
        tracemalloc.start()
        try:
            simulate_rx(ph, cfg.probe, cfg.num_time_samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert counts[1] > 9 * counts[0]
    assert peaks[1] - peaks[0] <= 96 * (counts[1] - counts[0]) + (1 << 18)


@pytest.mark.parametrize("num_elements", [1, 2, 7, 128])
@pytest.mark.parametrize("angle_deg", [-20.0, 0.0, 0.43, 15.0])
def test_arrival_bounds_equal_the_min_and_max_over_every_element(num_elements, angle_deg):
    # Scatterers inside and far outside the aperture, on the array face,
    # exactly on each element and one ulp to either side of it, and
    # default.ini's phantom: the four-delay bounds must equal the min and
    # max of every scatterer-element delay bit for bit.
    geom = ProbeGeometry(num_elements=num_elements, transmit_angle_rad=np.deg2rad(angle_deg))
    e = geom.element_positions()
    rng = np.random.default_rng(num_elements)
    cfg = load_config("configs/default.ini")
    rows = realize(cfg.phantom, cfg.probe, cfg.num_time_samples)
    x = np.concatenate([rng.uniform(-0.03, 0.03, 3000), e, np.nextafter(e, -1.0),
                        np.nextafter(e, 1.0), rows[:, 0]])
    z = np.concatenate([rng.uniform(0.0, 0.05, 3000), rng.uniform(0.0, 0.05, 3 * len(e)),
                        rows[:, 1]])
    z[:100] = 0.0
    first, last = phantom._arrival_bounds(geom, x, z)
    tau = phantom._delays(geom, x[:, None], z[:, None], e)
    assert first.tobytes() == tau.min(axis=1).tobytes()
    assert last.tobytes() == tau.max(axis=1).tobytes()


def test_tof_correct_bytes_independent_of_threads(monkeypatch):
    # Rows start above the first echo and run past the window, so every
    # worker sees taps inside, before and after the trace.
    geom = ProbeGeometry(num_elements=32, transmit_angle_rad=np.deg2rad(-4.0))
    grid = PixelGrid(num_rows=23, num_cols=9, row_spacing_m=5.0e-4,
                     col_spacing_m=6.0e-4, depth_origin_m=0.0)
    raw = np.random.default_rng(3).standard_normal((256, 32)).astype(np.float32)
    monkeypatch.setattr(phantom, "_STEP_SAMPLES", 2 * 9 * 32)  # two rows a step
    results = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("CAPSBEAM_THREADS", threads)
        results.append(tof_correct(raw, geom, grid).samples.tobytes())
    assert results[0] == results[1] == results[2]
    samples = np.frombuffer(results[0], dtype=np.float32).reshape(23, 9, 32)
    assert (samples[0] != 0.0).any() and np.all(samples[-1] == 0.0)


def test_out_of_field_names_first_late_explicit_scatterer(probe8):
    ph = Phantom(scatterers=((0.0, 5.0e-3, 1.0), (1.0e-3, 40.0e-3, 0.0),
                             (2.0e-3, 50.0e-3, 1.0), (-1.0e-3, 60.0e-3, 1.0)))
    with pytest.raises(OutOfField, match=r"scatterer \(0\.002, 0\.05\) echo at"):
        simulate_rx(ph, probe8, 400)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_echo_late_on_one_edge_element_raises(probe8, side):
    # Only the element farthest from the point hears it after the window.
    x, z = side * 3.0e-3, 5.0e-3
    tau = _two_way_delays(np.array([[x, z, 1.0]]), probe8)[0]
    assert tau.argmax() == (0 if side > 0 else probe8.num_elements - 1)
    fs = probe8.sample_rate_hz
    n = int(np.floor(tau.max() * fs)) + 1
    assert np.sort(tau)[-2] <= (n - 1) / fs < tau.max()
    ph = Phantom(scatterers=((x, z, 1.0),))
    with pytest.raises(OutOfField):
        simulate_rx(ph, probe8, n)
    assert simulate_rx(ph, probe8, n + 1).tobytes() == _simulate_rx_loop(ph, probe8, n + 1).tobytes()


def test_zero_amplitude_late_explicit_scatterer_is_skipped(probe8):
    ph = Phantom(scatterers=((0.0, 5.0e-3, 1.0), (0.0, 50.0e-3, 0.0)))
    raw = simulate_rx(ph, probe8, 400)
    single = simulate_rx(Phantom(scatterers=ph.scatterers[:1]), probe8, 400)
    assert raw.tobytes() == single.tobytes()


@pytest.mark.parametrize("field", [0, 1, 2])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_phantom_rejects_non_finite_scatterer(field, bad):
    point = [0.0, 5.0e-3, 1.0]
    point[field] = bad
    with pytest.raises(NonFinite):
        Phantom(scatterers=(tuple(point),))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_phantom_rejects_non_finite_background_density(bad):
    with pytest.raises(NonFinite):
        Phantom(background_density_per_mm2=bad)


@pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf")])
def test_simulate_rx_rejects_bad_noise_std(probe8, noise_std):
    with pytest.raises(InvalidConfig, match="noise_std"):
        simulate_rx(Phantom(scatterers=((0.0, 5.0e-3, 1.0),)), probe8, 400,
                    noise_std=noise_std)


def test_config_rejects_bad_phantom_inputs(tmp_path, capsys):
    with pytest.raises(NonFinite):
        parse_config_text("[phantom]\npoints = 0.0, nan, 1.0\n")
    with pytest.raises(NonFinite):
        parse_config_text("[phantom]\npoints = 0.0, 5.0e-3, inf\n")
    desk = Path("configs/desk.ini").read_text()
    assert "noise_std = 0.0" in desk
    for value in ("-1.0", "nan"):
        cfg = tmp_path / f"noise{value}.ini"
        cfg.write_text(desk.replace("noise_std = 0.0", f"noise_std = {value}"))
        rc = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / value)])
        assert rc == 1
        assert "InvalidConfig" in capsys.readouterr().err
