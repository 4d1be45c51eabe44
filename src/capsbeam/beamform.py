"""Classical beamformers and image-chain post-processing.

DAS is the normalized apodized channel sum. MVDR solves the loaded
spatial covariance per pixel over overlapping subarrays with temporal
(row) averaging, steering vector all-ones since delays are already
applied. The subarray Gram of each input row is computed once, and the
2K+1-row temporal window sums are built from prefix and suffix sums over
fixed row chunks (van Herk/Gil-Werman), so no snapshot is gathered twice.
Coherent compounding averages beamformed values across transmit angles
pixel-wise. The envelope stage is a frequency-domain Hilbert transform
down the rows, and log compression maps magnitudes to a clamped dB scale.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .data_model import EnvelopeImage, PixelGrid, RfVolume, require_finite_fields
from .errors import (
    AllZeroImage,
    EmptyList,
    GridMismatch,
    InvalidConfig,
    ShapeMismatch,
    SingularCovariance,
    ZeroWeightSum,
)

THREADS_ENV_VAR = "CAPSBEAM_THREADS"


def thread_budget() -> int:
    """Worker cap from the CAPSBEAM_THREADS environment variable (default 1)."""
    value = os.environ.get(THREADS_ENV_VAR)
    if value is None:
        return 1
    try:
        parsed = int(value)
    except ValueError as exc:
        raise InvalidConfig(f"{THREADS_ENV_VAR}={value!r} is not an integer") from exc
    if parsed < 1:
        raise InvalidConfig(f"{THREADS_ENV_VAR} must be at least 1")
    return parsed


def run_ranges(n: int, fn, grain: int = 1) -> None:
    """Call fn(lo, hi) on contiguous ranges splitting [0, n), one per each of
    min(thread_budget(), n // grain) threads, so each thread gets at least grain
    items; one range runs inline. MVDR, phantom and capsnet.walk's bands each
    split once, at the top, and no fn calls run_ranges again. Worker errors
    propagate."""
    workers = min(thread_budget(), n // grain)
    if workers <= 1:
        return fn(0, n)
    bounds = [n * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fn, bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class MvdrParams:
    """Subarray length L, temporal half-window K, diagonal loading factor."""

    subarray_len: int = 48
    temporal_half_window: int = 7
    diagonal_loading: float = 0.01

    def __post_init__(self):
        require_finite_fields(self, "diagonal_loading")
        if self.subarray_len < 1:
            raise InvalidConfig("subarray_len must be positive")
        if self.temporal_half_window < 0:
            raise InvalidConfig("temporal_half_window cannot be negative")
        if self.diagonal_loading < 0:
            raise InvalidConfig("diagonal_loading cannot be negative")


@dataclass(frozen=True)
class BeamformedImage:
    grid: PixelGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        expect = (self.grid.num_rows, self.grid.num_cols)
        if arr.shape != expect:
            raise ShapeMismatch(f"values shaped {arr.shape}, grid implies {expect}")
        object.__setattr__(self, "values", arr)


def das(rf: RfVolume, apodization: np.ndarray) -> BeamformedImage:
    """Apodized channel sum normalized by the weight sum."""
    w = np.asarray(apodization, dtype=np.float64)
    if w.shape != (rf.num_channels,):
        raise ShapeMismatch(f"apodization shaped {w.shape}, need ({rf.num_channels},)")
    denom = w.sum()
    if np.abs(w).sum() == 0.0 or denom == 0.0:
        raise ZeroWeightSum("apodization weights sum to zero")
    values = rf.samples.astype(np.float64) @ w / denom
    return BeamformedImage(grid=rf.grid, values=values)


def _gram(row: np.ndarray, subarray_len: int) -> np.ndarray:
    """Subarray Gram sum_g x[g:g+L] x[g:g+L]^T of one input row, [cols, L, L]."""
    subs = np.ascontiguousarray(
        sliding_window_view(row.astype(np.float64), subarray_len, axis=1))
    return np.matmul(subs.transpose(0, 2, 1), subs)


def _mvdr_pixels(rf_samples: np.ndarray, r0: int, window_sum: np.ndarray,
                 params: MvdrParams) -> np.ndarray:
    L = params.subarray_len
    n_snap = (2 * params.temporal_half_window + 1) * (rf_samples.shape[2] - L + 1)
    R = window_sum / n_snap
    trace = np.trace(R, axis1=1, axis2=2)
    load = params.diagonal_loading * trace / L
    R = R + load[:, None, None] * np.eye(L)[None]
    ones = np.ones((R.shape[0], L, 1))
    try:
        w_tilde = np.linalg.solve(R, ones)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        zero = np.flatnonzero(trace == 0.0)
        if zero.size:
            raise SingularCovariance(
                f"row {r0}, column {zero[0]}: all-zero window, covariance has zero trace"
            ) from exc
        raise SingularCovariance(f"row {r0}: covariance not solvable") from exc
    denom = w_tilde.sum(axis=1)
    bad = np.flatnonzero((denom == 0.0) | ~np.all(np.isfinite(w_tilde), axis=1))
    if bad.size:
        raise SingularCovariance(
            f"row {r0}, column {bad[0]}: distortionless normalization failed")
    w = w_tilde / denom[:, None]
    center = sliding_window_view(rf_samples[r0].astype(np.float64), L, axis=1)
    mean_sub = center.mean(axis=1)
    return np.einsum("cl,cl->c", w, mean_sub)


def _mvdr_chunks(rf_samples: np.ndarray, first: int, stop: int, params: MvdrParams,
                 out: np.ndarray) -> None:
    """Output rows of chunks [first, stop) by the van Herk/Gil-Werman scheme.

    Padded position p holds the Gram of row clip(p - K), and row r sums
    positions r .. r + 2K. Positions fall in chunks of W = 2K + 1, so that
    window is the suffix of r's chunk from r plus the prefix of the next
    chunk up to r + 2K (just the whole chunk when r starts one). Suffixes
    are summed backward and prefixes forward within a chunk, so a row's
    bits depend only on r, not on how the chunks are split among workers.
    """
    rows = rf_samples.shape[0]
    L, K = params.subarray_len, params.temporal_half_window
    W = 2 * K + 1
    cached_row, cached_gram = -1, None

    def gram_at(p: int) -> np.ndarray:
        # Positions are visited in order, and the K + 1 clamped positions
        # at either edge share one row, so one cached Gram suffices.
        nonlocal cached_row, cached_gram
        t = min(max(p - K, 0), rows - 1)
        if t != cached_row:
            cached_row, cached_gram = t, _gram(rf_samples[t], L)
        return cached_gram

    def to_suffix_sums():
        for i in range(W - 2, -1, -1):
            buf[i] += buf[i + 1]

    # buf holds the suffix sums of chunk j; slot i - 1 is refilled with
    # the Gram of chunk j + 1's position i - 1 once row jW + i is out.
    buf = np.empty((W, rf_samples.shape[1], L, L))
    for i in range(W):
        buf[i] = gram_at(first * W + i)
    to_suffix_sums()
    for j in range(first, stop):
        base = j * W
        out[base] = _mvdr_pixels(rf_samples, base, buf[0], params)
        prefix = None
        for i in range(1, min(W, rows - base)):
            q = gram_at(base + W + i - 1)
            prefix = q.copy() if prefix is None else np.add(prefix, q, out=prefix)
            out[base + i] = _mvdr_pixels(rf_samples, base + i, buf[i] + prefix, params)
            buf[i - 1] = q
        if j + 1 < stop:
            buf[W - 1] = gram_at(base + 2 * W - 1)
            to_suffix_sums()


def mvdr(rf: RfVolume, params: MvdrParams) -> BeamformedImage:
    """Adaptive beamformer with subarray averaging and diagonal loading.

    Per pixel the covariance pools the length-L channel windows of the
    2K+1 temporally adjacent rows (edge rows clamp the window by index,
    so the snapshot count stays (2K+1) * (channels - L + 1) everywhere).
    Each input row's subarray Gram is formed once; the 2K+1-row window
    sums come from per-chunk prefix and suffix sums, which only add, so an
    all-zero window sums to exactly zero and raises SingularCovariance.
    Loading adds diagonal_loading * trace(R) / L to the diagonal. Weights
    solve R w = 1 and are normalized so w . 1 == 1; the output is the
    weight response averaged over subarrays at the center row.
    """
    if params.subarray_len > rf.num_channels:
        raise InvalidConfig(
            f"subarray_len {params.subarray_len} exceeds {rf.num_channels} channels"
        )
    rows = rf.grid.num_rows
    out = np.empty((rows, rf.grid.num_cols), dtype=np.float64)
    n_chunks = -(-rows // (2 * params.temporal_half_window + 1))
    run_ranges(n_chunks, lambda lo, hi: _mvdr_chunks(rf.samples, lo, hi, params, out))
    return BeamformedImage(grid=rf.grid, values=out)


def compound(images: list[BeamformedImage]) -> BeamformedImage:
    """Pixel-wise mean across transmits; grids must match exactly."""
    if not images:
        raise EmptyList("nothing to compound")
    grid = images[0].grid
    for img in images[1:]:
        if img.grid != grid:
            raise GridMismatch(f"grid {img.grid} differs from {grid}")
    stacked = np.stack([img.values for img in images], axis=0)
    return BeamformedImage(grid=grid, values=stacked.mean(axis=0))


def envelope(image: BeamformedImage) -> EnvelopeImage:
    """Analytic signal down each column via zero-padded FFT Hilbert.

    The FFT length is the next power of two at or above the row count,
    which bounds circular wrap at the edges. The in-phase part is the
    input itself; quadrature is the Hilbert transform.
    """
    rows = image.grid.num_rows
    if rows < 4:
        raise ShapeMismatch("envelope needs at least 4 rows")
    nfft = 1 << (rows - 1).bit_length()
    # scipy.signal.hilbert's steps for even N, without importing scipy.signal.
    spectrum = scipy.fft.fft(image.values, nfft, axis=0)
    spectrum[1:nfft // 2] *= 2.0
    spectrum[nfft // 2 + 1:] = 0.0
    analytic = scipy.fft.ifft(spectrum, axis=0)[:rows]
    return EnvelopeImage(
        grid=image.grid,
        i_part=image.values.astype(np.float32),
        q_part=analytic.imag.astype(np.float32),
    )


def log_compress(env: EnvelopeImage, dynamic_range_db: float = 60.0) -> np.ndarray:
    """20 log10(|env| / max) clamped to [-dynamic_range_db, 0]."""
    if dynamic_range_db <= 0:
        raise InvalidConfig("dynamic range must be positive")
    mag = env.magnitude()
    peak = mag.max()
    if peak == 0.0:
        raise AllZeroImage("log compression undefined for an all-zero image")
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    return np.maximum(db, -dynamic_range_db)


def write_pgm(db_image: np.ndarray, dynamic_range_db: float, path) -> None:
    """8-bit binary PGM with [-range, 0] dB mapped linearly onto [0, 255].

    path may be a filesystem path or a binary file object.
    """
    db = np.asarray(db_image, dtype=np.float64)
    if db.ndim != 2:
        raise ShapeMismatch("PGM export expects a 2-D dB image")
    scaled = (db + dynamic_range_db) * (255.0 / dynamic_range_db)
    pixels = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    header = f"P5\n{db.shape[1]} {db.shape[0]}\n255\n".encode("ascii")
    if hasattr(path, "write"):
        path.write(header + pixels.tobytes())
        return
    with open(path, "wb") as fh:
        fh.write(header + pixels.tobytes())
