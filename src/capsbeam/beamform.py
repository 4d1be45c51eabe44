"""Classical beamformers and image-chain post-processing.

DAS is the normalized apodized channel sum, cast to float64 a few rows at
a time. MVDR solves the loaded spatial covariance per pixel over
overlapping subarrays with temporal (row) averaging, steering vector
all-ones since delays are already applied. Pixels in different columns
share no MVDR work, so it runs in column blocks sized from a byte budget,
split over workers. Within a block the subarray Gram of each input row is
computed once, and the 2K+1-row temporal window sums are built from
prefix and suffix sums over fixed row chunks (van Herk/Gil-Werman), so no
snapshot is gathered twice. Coherent compounding averages beamformed
values across transmit angles pixel-wise. The envelope stage is a
frequency-domain Hilbert transform down the rows on numpy.fft, and log
compression maps magnitudes to a clamped dB scale.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
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
# Float64 bytes of one DAS block: two full-scale rows. The whole-volume
# cast held 48 MB at default.ini.
_DAS_BLOCK_BYTES = 1 << 18
# Bytes of one MVDR column block's van Herk buffer, 2K+1 Grams [cols, L, L]:
# 32 columns at the default L = 48, K = 7, so 2 workers take 2 blocks each
# of a 128-column frame.
_VAN_HERK_BYTES = 9_000_000


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
    items; one range runs inline. MVDR's column blocks, phantom and
    capsnet.walk's pixel blocks each split once, at the top, and no fn
    calls run_ranges again. Worker errors propagate."""
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
    rows, cols, channels = rf.samples.shape
    step = max(1, _DAS_BLOCK_BYTES // (cols * channels * 8))
    values = np.empty((rows, cols))
    for r in range(0, rows, step):
        values[r:r + step] = rf.samples[r:r + step].astype(np.float64) @ w / denom
    return BeamformedImage(grid=rf.grid, values=values)


def _gram(row: np.ndarray, subarray_len: int) -> np.ndarray:
    """Subarray Gram sum_g x[g:g+L] x[g:g+L]^T of one input row, [cols, L, L]."""
    subs = np.ascontiguousarray(
        sliding_window_view(row.astype(np.float64), subarray_len, axis=1))
    return np.matmul(subs.transpose(0, 2, 1), subs)


def _mvdr_row(samples: np.ndarray, r0: int, c0: int, A: np.ndarray,
              params: MvdrParams) -> np.ndarray:
    """Output row r0 of a column block starting at global column c0.

    A [cols, L+2, L+2] holds the row's window sum R in its top-left L x L
    and ones in row and column L. R's diagonal is loaded in place, and
    row and column L+1 take the centre row's mean subarray m, so A is R
    bordered by B = [1, m] and D = diag(1/(eps p), 1/eps), p = tr(R)/L
    after loading. The Cholesky factor's last two rows are then
    y = G^-1 1 and z = G^-1 m, with R = G G^T, and the output
    1'R^-1 m / 1'R^-1 1 is y.z / y.y: no triangular solve is needed, and
    y.y > 0 once the factorization succeeds. D never changes y or z.
    """
    L = params.subarray_len
    R = A[:, :L, :L]
    trace = np.trace(R, axis1=1, axis2=2)
    zero = np.flatnonzero(trace == 0.0)
    if zero.size:
        raise SingularCovariance(
            f"row {r0}, column {c0 + zero[0]}: all-zero window, covariance has zero trace")
    diag = np.arange(L)
    R[:, diag, diag] += (params.diagonal_loading * trace / L)[:, None]
    eps = np.finfo(np.float64).eps
    A[:, L, L] = L / (eps * (1.0 + params.diagonal_loading) * trace)
    A[:, L + 1, L + 1] = 1.0 / eps
    A[:, L + 1, :L] = A[:, :L, L + 1] = sliding_window_view(
        samples[r0].astype(np.float64), L, axis=1).mean(axis=1)
    try:
        factor = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(
            f"row {r0}: covariance singular to working precision") from exc
    y, z = factor[:, L, :L], factor[:, L + 1, :L]
    return np.einsum("cl,cl->c", y, z) / np.einsum("cl,cl->c", y, y)


def _mvdr_block(samples: np.ndarray, c0: int, params: MvdrParams, out: np.ndarray) -> None:
    """Every output row of one column block by the van Herk/Gil-Werman scheme.

    samples [rows, cols, channels] and out [rows, cols] are the block's
    columns, c0 its first global column. Padded position p holds the Gram
    of row clip(p - K), and row r sums positions r .. r + 2K. Positions
    fall in chunks of W = 2K + 1, so that window is the suffix of r's chunk
    from r plus the prefix of the next chunk up to r + 2K (just the whole
    chunk when r starts one). Suffixes are summed backward and prefixes
    forward within a chunk, and each column's Gram, factor and sums are
    its own, so a pixel's bits depend neither on the block width nor on
    the worker count.
    """
    rows, cols, _ = samples.shape
    L, K = params.subarray_len, params.temporal_half_window
    W = 2 * K + 1
    cached_row, cached_gram = -1, None

    def gram_at(p: int) -> np.ndarray:
        # Positions are visited in order, and the K + 1 clamped positions
        # at either edge share one row, so one cached Gram suffices.
        nonlocal cached_row, cached_gram
        t = min(max(p - K, 0), rows - 1)
        if t != cached_row:
            cached_row, cached_gram = t, _gram(samples[t], L)
        return cached_gram

    def to_suffix_sums():
        for i in range(W - 2, -1, -1):
            buf[i] += buf[i + 1]

    A = np.zeros((cols, L + 2, L + 2))
    A[:, L, :L] = A[:, :L, L] = 1.0
    R = A[:, :L, :L]
    prefix = np.empty((cols, L, L))
    # buf holds the suffix sums of the current chunk; slot i - 1 is refilled
    # with the Gram of the next chunk's position i - 1 once row base + i is out.
    buf = np.empty((W, cols, L, L))
    for i in range(W):
        buf[i] = gram_at(i)
    to_suffix_sums()
    for base in range(0, rows, W):
        R[...] = buf[0]
        out[base] = _mvdr_row(samples, base, c0, A, params)
        for i in range(1, min(W, rows - base)):
            q = gram_at(base + W + i - 1)
            if i == 1:
                prefix[...] = q
            else:
                prefix += q
            np.add(buf[i], prefix, out=R)
            out[base + i] = _mvdr_row(samples, base + i, c0, A, params)
            buf[i - 1] = q
        if base + W < rows:
            buf[W - 1] = gram_at(base + 2 * W - 1)
            to_suffix_sums()


def mvdr(rf: RfVolume, params: MvdrParams) -> BeamformedImage:
    """Adaptive beamformer with subarray averaging and diagonal loading.

    Per pixel the covariance R pools the length-L channel windows of the
    2K+1 temporally adjacent rows (edge rows clamp the window by index,
    so every pixel pools (2K+1) * G snapshots, G = channels - L + 1).
    Each input row's subarray Gram is formed once; the 2K+1-row window
    sums come from per-chunk prefix and suffix sums, which only add, so an
    all-zero window sums to exactly zero and raises SingularCovariance.
    Loading adds diagonal_loading * trace(R) / L to the diagonal. Weights
    solve R w = 1 and are normalized so w . 1 == 1; the output is the
    weight response to the subarrays' mean at the center row. R is left
    unnormalized, since scaling it does not change the weights.

    One bordered Cholesky per row of a column block gives the weights
    (_mvdr_row). Its border D dominates: with loading delta > 0 and
    p = tr(R)/L after loading, p * 1'R^-1 1 <= L (1 + delta) / delta, and
    m'R^-1 m <= 1/G because R holds the centre row's sum_g x_g x_g^T,
    which is at least G m m^T. So the border's Schur complement stays
    positive definite whenever eps * (L (1 + delta) / delta + 1/G) < 1,
    eps = 2^-52: for any delta above about L * eps, 1.1e-14 at L = 48.
    Below that, and without loading, the factorization fails only when R
    is singular to working precision. Either failure, like a zero trace,
    raises SingularCovariance.
    """
    if params.subarray_len > rf.num_channels:
        raise InvalidConfig(
            f"subarray_len {params.subarray_len} exceeds {rf.num_channels} channels"
        )
    L, W = params.subarray_len, 2 * params.temporal_half_window + 1
    rows, cols = rf.grid.num_rows, rf.grid.num_cols
    width = max(1, _VAN_HERK_BYTES // (W * L * L * 8))
    out = np.empty((rows, cols), dtype=np.float64)

    def run(lo: int, hi: int) -> None:
        for c0 in range(lo * width, min(hi * width, cols), width):
            _mvdr_block(rf.samples[:, c0:c0 + width], c0, params, out[:, c0:c0 + width])

    run_ranges(-(-cols // width), run)
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


def _analytic(values: np.ndarray) -> np.ndarray:
    """Analytic signal down the rows of a [rows, cols] image, complex128.

    The FFT length is the next power of two at or above the row count,
    which bounds circular wrap at the edges. These are the steps of
    scipy.signal.hilbert(values, N=nfft, axis=0)[:rows] for even N. The
    bins above nfft/2 are zeroed, so the real-input rfft gives every bin
    kept; it is also the transform scipy.fft.fft runs on real input, so
    the result matches scipy's bit for bit where numpy.fft.fft's complex
    transform would differ in the last bits.
    """
    rows = values.shape[0]
    nfft = 1 << (rows - 1).bit_length()
    spectrum = np.zeros((nfft,) + values.shape[1:], dtype=np.complex128)
    spectrum[:nfft // 2 + 1] = np.fft.rfft(values, nfft, axis=0)
    spectrum[1:nfft // 2] *= 2.0
    return np.fft.ifft(spectrum, axis=0)[:rows]


def envelope(image: BeamformedImage) -> EnvelopeImage:
    """Analytic signal down each column via zero-padded FFT Hilbert
    (_analytic). The in-phase part is the input itself; quadrature is the
    Hilbert transform.
    """
    if image.grid.num_rows < 4:
        raise ShapeMismatch("envelope needs at least 4 rows")
    return EnvelopeImage(
        grid=image.grid,
        i_part=image.values.astype(np.float32),
        q_part=_analytic(image.values).imag.astype(np.float32),
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
