"""Synthetic phantoms, plane-wave channel data, and time-of-flight correction.

Scatterers are ideal points insonified by a steered plane wave. Each one
contributes a Gaussian-windowed sinusoid to every element trace, delayed
by transmit time (z cos a + x sin a) / c plus the return path to the
element. Desk-scale stand-in for a full acoustic simulator: no
attenuation, no element directivity, single scattering only. Both stages
split over CAPSBEAM_THREADS workers, and their bytes never depend on how many.

The pulse is gausspulse's exp(-a t^2) cos(w t), factored about each
scatterer-element pair's nearest sample n0 = rint(tau fs): with
u = tau - n0 / fs and tap offsets d_k = k / fs, tap k sits at t = d_k - u and

    pulse = e^(-a u^2) e^(2a d_k u) (C_k cos wu + S_k sin wu),
    C_k = e^(-a d_k^2) cos w d_k,  S_k = e^(-a d_k^2) sin w d_k,

so C, S and 2a d are tables made once a call, each pair takes one exp,
one cos and one sin, and each tap one exp and four multiply-adds; no
trig function runs per tap (_pulse_taps). Synth works in tiles of one
scatterer chunk by one element chunk (_TILE_VALUES), and each tile ends
in one np.add.at, scatterer chunks in realize() order, so every sample
adds its contributions in scatterer order for any tiling or worker count.
ToF steps over _STEP_SAMPLES values, kept small because what a pool
thread allocates stays in its malloc arena; synth's tiles are 4x larger,
since each ends in a GIL-held np.add.at, and run_ranges makes their
buffers on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamform import run_ranges
from .data_model import PixelGrid, ProbeGeometry, RfVolume, require_finite_fields
from .errors import InvalidConfig, NonFinite, OutOfField, ShapeMismatch

# Envelope cutoff for pulse evaluation windows; below this the tail is dropped.
_PULSE_TAIL = 1e-10
_PULSE_BANDWIDTH = 0.6
# Float64 values per worker step of ToF, so its temporaries stay at
# 128 KB: what a pool thread allocates stays resident in its malloc arena
# after the call (the calling thread, the first worker, allocates from the
# main heap), and 4x larger steps raised the peak RSS of a later
# full-scale inference by 3-8 MB.
_STEP_SAMPLES = 1 << 14
# Values in one synth tile (scatterers x elements x taps). Each tile ends
# in one np.add.at, which holds the GIL, so small tiles serialize the
# workers: on 2 workers a default.ini call took 65-75 ms at 2^14 values and
# 51-73 ms at 2^15, against 51-52 ms at 2^16 (BENCH_synth_pulse.json). A
# worker's three tile buffers take 512 KB each, and the calling thread
# allocates them, as MVDR's working sets, so no pool thread's arena keeps
# them. Work too small to give each worker one tile runs inline.
_TILE_VALUES = 1 << 16


@dataclass(frozen=True)
class CystRegion:
    """Circular region whose background echo amplitude is scaled.

    echogenicity 0 is anechoic, 1 leaves the speckle untouched.
    """

    center_x_m: float
    center_z_m: float
    radius_m: float
    echogenicity: float = 0.0

    def __post_init__(self):
        require_finite_fields(self, "center_x_m", "center_z_m", "radius_m", "echogenicity")
        if self.radius_m <= 0:
            raise InvalidConfig("cyst radius must be positive")
        if not 0.0 <= self.echogenicity <= 1.0:
            raise InvalidConfig("echogenicity must lie in [0, 1]")

    def contains(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return (x - self.center_x_m) ** 2 + (z - self.center_z_m) ** 2 <= self.radius_m**2


@dataclass(frozen=True)
class Phantom:
    """Point scatterers plus optional speckle background and cysts.

    scatterers rows are (x_m, z_m, amplitude). background_density is in
    scatterers per square millimeter; the background field spans the
    aperture laterally and the recording window in depth. Cysts modulate
    background scatterers only, never the explicit ones.
    """

    scatterers: tuple[tuple[float, float, float], ...] = ()
    cyst_regions: tuple[CystRegion, ...] = ()
    background_density_per_mm2: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.background_density_per_mm2):
            raise NonFinite("background density must be finite")
        if self.background_density_per_mm2 < 0:
            raise InvalidConfig("background density cannot be negative")
        for s in self.scatterers:
            if len(s) != 3:
                raise ShapeMismatch(f"scatterer {s} must be (x, z, amplitude)")
            if not all(math.isfinite(v) for v in s):
                raise NonFinite(f"scatterer {s} has a NaN or infinite field")
            if s[1] < 0:
                raise InvalidConfig(f"scatterer depth {s[1]} cannot be negative")


def _pulse_exponent(center_freq_hz: float) -> float:
    # scipy.signal.gausspulse's envelope is exp(-a t^2), with a set by the
    # -6 dB fractional bandwidth.
    ref = 10 ** (-6 / 20.0)
    return -((np.pi * center_freq_hz * _PULSE_BANDWIDTH) ** 2) / (4.0 * np.log(ref))


def _transmit_delay(geom: ProbeGeometry, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Time for the steered plane wave to reach (x, z)."""
    theta, c = geom.transmit_angle_rad, geom.speed_of_sound_mps
    return (z * np.cos(theta) + x * np.sin(theta)) / c


def _delays(geom: ProbeGeometry, x: np.ndarray, z: np.ndarray,
            elements: np.ndarray) -> np.ndarray:
    """Two-way time from the steered transmit to (x, z) and back to each of
    the element positions, last axis per element."""
    return (_transmit_delay(geom, x, z)
            + np.hypot(x - elements, z) / geom.speed_of_sound_mps)


def _arrival_bounds(geom: ProbeGeometry, x: np.ndarray, z: np.ndarray) -> tuple:
    """First and last two-way arrivals of scatterers at (x, z), bit for bit
    _delays' min and max over the elements: the return path falls, then rises
    along the array, so they lie at the two elements around x and at an end."""
    elements = geom.element_positions()
    right = np.minimum(np.searchsorted(elements, x), len(elements) - 1)
    first = np.minimum(_delays(geom, x, z, elements[np.maximum(right - 1, 0)]),
                       _delays(geom, x, z, elements[right]))
    last = np.maximum(_delays(geom, x, z, elements[0]), _delays(geom, x, z, elements[-1]))
    return first, last


def _pulse_halfwidth_s(center_freq_hz: float) -> float:
    # Time where the envelope falls to _PULSE_TAIL.
    return float(np.sqrt(-np.log(_PULSE_TAIL) / _pulse_exponent(center_freq_hz)))


@dataclass(frozen=True)
class _PulseTables:
    """Per-tap tables of the factored pulse (module docstring), taps
    d_k = k / fs for |k| <= half_n."""

    exponent: float
    omega: float
    cos_taps: np.ndarray
    sin_taps: np.ndarray
    slope: np.ndarray

    @classmethod
    def build(cls, geom: ProbeGeometry) -> "_PulseTables":
        f0, fs = geom.center_freq_hz, geom.sample_rate_hz
        a, omega = _pulse_exponent(f0), 2 * np.pi * f0
        half_n = int(np.ceil(_pulse_halfwidth_s(f0) * fs))
        d = np.arange(-half_n, half_n + 1) / fs
        envelope = np.exp(-a * d * d)
        return cls(a, omega, envelope * np.cos(omega * d), envelope * np.sin(omega * d),
                   2 * a * d)


def _pulse_taps(u: np.ndarray, scale: np.ndarray, tables: _PulseTables,
                out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """out[..., k] = scale * exp(-a t^2) cos(w t) at t = d_k - u.

    u is [scatterers, elements] and scale broadcasts to it; out and spare
    are float64 [scatterers, elements, taps], and spare is overwritten.
    """
    # einsum forms each outer product's elements as single products, as a
    # broadcast multiply does, in about half the time at these shapes.
    g = scale * np.exp(-tables.exponent * u * u)
    wu = tables.omega * u
    np.einsum("ij,k->ijk", g * np.cos(wu), tables.cos_taps, out=out)
    np.einsum("ij,k->ijk", g * np.sin(wu), tables.sin_taps, out=spare)
    out += spare
    np.einsum("ij,k->ijk", u, tables.slope, out=spare)
    out *= np.exp(spare, out=spare)
    return out


def realize(phantom: Phantom, geom: ProbeGeometry, num_time_samples: int) -> np.ndarray:
    """Expand a phantom into concrete (x, z, amplitude) rows.

    Background speckle is drawn with the phantom's seed: uniform positions
    over the aperture span and recordable depth range, standard normal
    amplitudes, then cyst scaling. Deterministic for a given phantom.
    """
    explicit = np.array(phantom.scatterers, dtype=np.float64).reshape(-1, 3)
    if phantom.background_density_per_mm2 <= 0:
        return explicit
    c = geom.speed_of_sound_mps
    t_max = (num_time_samples - 1) / geom.sample_rate_hz
    positions = geom.element_positions()
    x_lo, x_hi = positions[0], positions[-1]
    half_aperture = max(abs(x_lo), abs(x_hi))
    # Keep worst-case two-way paths inside the recording window.
    z_hi = 0.45 * (c * t_max - half_aperture)
    z_lo = min(1e-3, 0.5 * z_hi)
    if z_hi <= z_lo:
        raise OutOfField("recording window too short for any background depth span")
    area_mm2 = (x_hi - x_lo) * 1e3 * (z_hi - z_lo) * 1e3
    count = int(round(phantom.background_density_per_mm2 * area_mm2))
    rng = np.random.default_rng(phantom.rng_seed)
    x = rng.uniform(x_lo, x_hi, size=count)
    z = rng.uniform(z_lo, z_hi, size=count)
    amp = rng.standard_normal(count)
    for cyst in phantom.cyst_regions:
        inside = cyst.contains(x, z)
        amp[inside] *= cyst.echogenicity
    background = np.stack([x, z, amp], axis=1)
    return np.concatenate([explicit, background], axis=0)


def simulate_rx(phantom: Phantom, geom: ProbeGeometry, num_time_samples: int,
                noise_std: float = 0.0) -> np.ndarray:
    """Raw element traces [time, elements] for one plane-wave shot.

    Raises OutOfField naming the first non-zero explicit scatterer whose echo
    lands past the last sample on any element; background scatterers past the
    window are dropped silently. Optional white Gaussian noise (noise_std >= 0)
    is seeded from the phantom for reproducibility.
    """
    if num_time_samples < 2:
        raise InvalidConfig("need at least two time samples")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise InvalidConfig(f"noise_std must be finite and non-negative, got {noise_std}")
    scatterers = realize(phantom, geom, num_time_samples)
    fs = geom.sample_rate_hz
    t_max = (num_time_samples - 1) / fs
    amp = scatterers[:, 2]
    first, last = _arrival_bounds(geom, scatterers[:, 0], scatterers[:, 1])
    late = (amp != 0.0) & (last > t_max)
    if late[:len(phantom.scatterers)].any():
        i = late.argmax()
        raise OutOfField(f"scatterer ({scatterers[i, 0]:.4g}, {scatterers[i, 1]:.4g}) echo at "
                         f"{last[i]:.3e}s exceeds the {t_max:.3e}s window")
    keep = (amp != 0.0) & ~late
    kept = scatterers[keep]
    tables = _PulseTables.build(geom)
    n_taps = len(tables.slope)
    half_n = n_taps // 2
    # Element-major traces with pad rows that catch taps outside the trace;
    # an echo before t = 0 (steered, shallow) deepens the pad below.
    pad = half_n - int(np.rint(first[keep].min(initial=0.0) * fs))
    rows = pad + num_time_samples + half_n
    padded = np.zeros((geom.num_elements, rows))
    flat = padded.reshape(-1)
    grain = -(-_TILE_VALUES // max(1, len(kept) * n_taps))
    taps = np.arange(-half_n, half_n + 1)
    elements = geom.element_positions()

    def tile(lo: int, hi: int) -> tuple:
        # The range's elements if they fit, and as many scatterers as fit.
        elem_step = max(1, min(hi - lo, _TILE_VALUES // n_taps))
        scat_step = max(1, min(len(kept), _TILE_VALUES // (elem_step * n_taps)))
        size = scat_step * elem_step * n_taps
        return elem_step, scat_step, np.empty(size), np.empty(size), np.empty(size, np.int64)

    def scatter(lo: int, hi: int, buffers: tuple) -> None:
        elem_step, scat_step, wave, spare, index = buffers
        for e0 in range(lo, hi, elem_step):
            e1 = min(e0 + elem_step, hi)
            base = np.arange(e0, e1) * rows + pad
            for s in range(0, len(kept), scat_step):
                chunk = kept[s:s + scat_step]
                shape = (len(chunk), e1 - e0, n_taps)
                n = shape[0] * shape[1] * n_taps
                tau = _delays(geom, chunk[:, :1], chunk[:, 1:2], elements[e0:e1])
                nearest = np.rint(tau * fs)
                values = _pulse_taps(tau - nearest / fs, chunk[:, 2:], tables,
                                     wave[:n].reshape(shape), spare[:n].reshape(shape))
                at = np.add((nearest.astype(np.int64) + base)[..., None], taps,
                            out=index[:n].reshape(shape))
                np.add.at(flat, at.reshape(-1), values.reshape(-1))

    run_ranges(geom.num_elements, scatter, grain=grain, workspace=tile)
    out = padded[:, pad:pad + num_time_samples].T
    if noise_std > 0:
        rng = np.random.default_rng(phantom.rng_seed + 1)
        out += rng.normal(0.0, noise_std, size=out.shape)
    return out.astype(np.float32, order="C")


def tof_correct(raw: np.ndarray, geom: ProbeGeometry, grid: PixelGrid) -> RfVolume:
    """Delay every channel to every pixel by linear interpolation.

    Output [rows, cols, channels]; a pixel/channel pair whose delay falls
    outside the trace contributes zero.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != geom.num_elements:
        raise ShapeMismatch(
            f"raw traces shaped {raw.shape}, geometry implies (time, {geom.num_elements})"
        )
    n_time, n_elem = raw.shape
    x, z = grid.col_positions[:, None], grid.row_depths[:, None, None]
    # The return path hypot(x - e, z) depends on a column-element pair only
    # through its lateral offset, and a regular grid and array share most
    # offsets (605 distinct of 16,384 pairs at default.ini): evaluate it
    # once per distinct offset and gather, with _delays' operations.
    lateral = x - geom.element_positions()
    offsets, which = np.unique(lateral, return_inverse=True)
    which = which.reshape(lateral.shape)
    out = np.empty((grid.num_rows, grid.num_cols, n_elem), dtype=np.float32)
    # Taps outside the trace, and the one after its last sample, read zeros.
    flat = np.concatenate([raw, np.zeros((2, n_elem))], axis=0).ravel()
    step = max(1, _STEP_SAMPLES // (grid.num_cols * n_elem))

    def correct(lo: int, hi: int) -> None:
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            depth = z[start:stop]
            back = np.hypot(offsets, depth[:, 0]) / geom.speed_of_sound_mps
            pos = (_transmit_delay(geom, x, depth)
                   + np.take(back, which, axis=1)) * geom.sample_rate_hz
            i0 = np.floor(pos).astype(np.int64)
            frac = pos - i0
            i0[(i0 < 0) | (i0 > n_time - 1)] = n_time
            tap = i0 * n_elem + np.arange(n_elem)
            out[start:stop] = (1.0 - frac) * flat[tap] + frac * flat[tap + n_elem]

    run_ranges(grid.num_rows, correct, grain=step)
    return RfVolume(grid=grid, num_channels=n_elem, samples=out)
