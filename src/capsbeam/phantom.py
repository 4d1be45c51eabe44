"""Synthetic phantoms, plane-wave channel data, and time-of-flight correction.

Scatterers are ideal points insonified by a steered plane wave. Each one
contributes a Gaussian-windowed sinusoid to every element trace, delayed
by transmit time (z cos a + x sin a) / c plus the return path to the
element. Desk-scale stand-in for a full acoustic simulator: no
attenuation, no element directivity, single scattering only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import PixelGrid, ProbeGeometry, RfVolume
from .errors import InvalidConfig, OutOfField, ShapeMismatch

# Envelope cutoff for pulse evaluation windows; below this the tail is dropped.
_PULSE_TAIL = 1e-10
_PULSE_BANDWIDTH = 0.6


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
        if self.background_density_per_mm2 < 0:
            raise InvalidConfig("background density cannot be negative")
        for s in self.scatterers:
            if len(s) != 3:
                raise ShapeMismatch(f"scatterer {s} must be (x, z, amplitude)")
            if s[1] < 0:
                raise InvalidConfig(f"scatterer depth {s[1]} cannot be negative")


def _pulse_exponent(center_freq_hz: float) -> float:
    # scipy.signal.gausspulse's envelope is exp(-a t^2), with a set by the
    # -6 dB fractional bandwidth.
    ref = 10 ** (-6 / 20.0)
    return -((np.pi * center_freq_hz * _PULSE_BANDWIDTH) ** 2) / (4.0 * np.log(ref))


def _pulse_wave(t: np.ndarray, center_freq_hz: float) -> np.ndarray:
    # gausspulse's in-phase output, evaluated in its operation order.
    a = _pulse_exponent(center_freq_hz)
    return np.exp(-a * t * t) * np.cos(2 * np.pi * center_freq_hz * t)


def _pulse_halfwidth_s(center_freq_hz: float) -> float:
    # Time where the envelope falls to _PULSE_TAIL.
    return float(np.sqrt(-np.log(_PULSE_TAIL) / _pulse_exponent(center_freq_hz)))


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

    Raises OutOfField when an explicit scatterer's echo would land beyond
    the last time sample on any element; background scatterers violating
    the window are dropped silently. Optional additive white Gaussian
    noise is seeded from the phantom for reproducibility.
    """
    if num_time_samples < 2:
        raise InvalidConfig("need at least two time samples")
    scatterers = realize(phantom, geom, num_time_samples)
    fs = geom.sample_rate_hz
    c = geom.speed_of_sound_mps
    theta = geom.transmit_angle_rad
    elements = geom.element_positions()
    t_max = (num_time_samples - 1) / fs
    out = np.zeros((num_time_samples, geom.num_elements), dtype=np.float64)
    half_w = _pulse_halfwidth_s(geom.center_freq_hz)
    half_n = int(np.ceil(half_w * fs))
    offsets = np.arange(-half_n, half_n + 1)
    n_explicit = len(phantom.scatterers)
    for idx, (sx, sz, amp) in enumerate(scatterers):
        if amp == 0.0:
            continue
        tau_tx = (sz * np.cos(theta) + sx * np.sin(theta)) / c
        tau = tau_tx + np.hypot(sx - elements, sz) / c
        if tau.max() > t_max:
            if idx < n_explicit:
                raise OutOfField(
                    f"scatterer ({sx:.4g}, {sz:.4g}) echo at {tau.max():.3e}s "
                    f"exceeds the {t_max:.3e}s window"
                )
            continue
        center = np.rint(tau * fs).astype(np.int64)
        idx_grid = center[:, None] + offsets[None, :]
        t_rel = idx_grid / fs - tau[:, None]
        wave = amp * _pulse_wave(t_rel, geom.center_freq_hz)
        valid = (idx_grid >= 0) & (idx_grid < num_time_samples)
        elem_grid = np.broadcast_to(np.arange(geom.num_elements)[:, None], idx_grid.shape)
        np.add.at(out, (idx_grid[valid], elem_grid[valid]), wave[valid])
    if noise_std > 0:
        rng = np.random.default_rng(phantom.rng_seed + 1)
        out += rng.normal(0.0, noise_std, size=out.shape)
    return out.astype(np.float32)


def tof_correct(raw: np.ndarray, geom: ProbeGeometry, grid: PixelGrid,
                row_chunk: int = 32) -> RfVolume:
    """Delay every channel to every pixel by linear interpolation.

    Output [rows, cols, channels]; a pixel/channel pair whose delay falls
    outside the trace contributes zero.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != geom.num_elements:
        raise ShapeMismatch(
            f"raw traces shaped {raw.shape}, geometry implies (time, {geom.num_elements})"
        )
    n_time = raw.shape[0]
    fs = geom.sample_rate_hz
    c = geom.speed_of_sound_mps
    theta = geom.transmit_angle_rad
    elements = geom.element_positions()
    depths = grid.row_depths
    laterals = grid.col_positions
    out = np.empty((grid.num_rows, grid.num_cols, geom.num_elements), dtype=np.float32)
    padded = np.concatenate([raw, np.zeros((1, geom.num_elements))], axis=0)
    for start in range(0, grid.num_rows, row_chunk):
        stop = min(start + row_chunk, grid.num_rows)
        z = depths[start:stop][:, None, None]
        x = laterals[None, :, None]
        tau = (z * np.cos(theta) + x * np.sin(theta)) / c
        tau = tau + np.hypot(x - elements[None, None, :], z) / c
        pos = tau * fs
        i0 = np.floor(pos).astype(np.int64)
        frac = pos - i0
        inside = (i0 >= 0) & (i0 <= n_time - 1)
        i0c = np.clip(i0, 0, n_time - 1)
        i1c = np.minimum(i0c + 1, n_time)  # padded zero row handles the tail
        e = np.broadcast_to(np.arange(geom.num_elements)[None, None, :], i0c.shape)
        vals = (1.0 - frac) * padded[i0c, e] + frac * padded[i1c, e]
        out[start:stop] = np.where(inside, vals, 0.0)
    return RfVolume(grid=grid, num_channels=geom.num_elements, samples=out)
