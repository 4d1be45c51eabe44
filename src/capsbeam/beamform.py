"""Classical beamformers and image-chain post-processing.

DAS is the normalized apodized channel sum, cast to float64 a few rows at
a time. MVDR solves the loaded spatial covariance per pixel over
overlapping subarrays with temporal (row) averaging, steering vector
all-ones since delays are already applied. Pixels in different columns
share no MVDR work, so it runs in narrow column blocks sized from a byte
budget on the block's working set, split over workers, whose working
sets run_ranges makes on the calling thread. Within a block the subarray
Gram of each input row is computed once, and the 2K+1-row temporal window
sums are built from prefix and suffix sums over fixed row chunks (van
Herk/Gil-Werman), so no snapshot is gathered twice.
Each step takes one such chunk of output rows: one batch of Grams, one
stack of bordered matrices and one Cholesky call, so the per-call cost
does not grow as blocks narrow. Coherent compounding averages beamformed
values across transmit angles pixel-wise. The envelope stage is a
frequency-domain Hilbert transform down the rows on numpy.fft, and log
compression maps magnitudes to a clamped dB scale. DAS and MVDR sum
floats through BLAS and LAPACK, in the order the machine's kernel picks,
so their bytes hold per machine, unlike the fixed-point path's (quantized).
"""

from __future__ import annotations

import math
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
# Bytes of one MVDR worker's working set (_mvdr_workspace), _mvdr_column_bytes
# a column: 4 columns at the default L = 48, K = 7 and 128 channels (4.5 MB),
# so 2 workers take 16 blocks each of a 128-column frame. Each step's
# Cholesky factor adds 1.2 MB there. Wider blocks hold more memory for
# little time; 2 or 3 columns ran about 15% slower.
_VAN_HERK_BYTES = 4_500_000


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


def worker_count(n: int, grain: int = 1) -> int:
    """How many ranges run_ranges splits [0, n) into: min(thread_budget(),
    n // grain), at least one."""
    return max(1, min(thread_budget(), n // grain))


def run_ranges(n: int, fn, grain: int = 1, workspace=None) -> None:
    """Call fn(lo, hi) on worker_count(n, grain) contiguous ranges splitting
    [0, n), so each worker gets at least grain items. The calling thread
    runs the first range itself and a pool of one thread fewer runs the
    rest, so a single range opens no pool. With workspace, the calling thread
    first makes ws = workspace(lo, hi) for every range and each range runs
    fn(lo, hi, ws) on its own, so no pool thread's malloc arena keeps what
    ranges work in. Callers split once, at the top: no fn calls run_ranges
    again. Errors propagate, the first range's first."""
    workers = worker_count(n, grain)
    bounds = [n * k // workers for k in range(workers + 1)]
    calls = [(lo, hi) if workspace is None else (lo, hi, workspace(lo, hi))
             for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        return fn(*calls[0])
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        rest = [pool.submit(fn, *args) for args in calls[1:]]
        fn(*calls[0])
        for future in rest:
            future.result()


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


def _mvdr_shapes(params: MvdrParams, channels: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """Float64 shapes of an MVDR worker's working set over cols columns, in
    _mvdr_block's order: the bordered stack (2K+1 [L+2, L+2] a column), the
    chunk's suffix sums and the next chunk's Grams (2K+1 [L, L] each), the
    prefix [L, L] and one Gram batch's subarrays (K + 1 rows of G
    length-L windows)."""
    L, K = params.subarray_len, params.temporal_half_window
    W, G = 2 * K + 1, channels - L + 1
    return ((W, cols, L + 2, L + 2), (W, cols, L, L), (W, cols, L, L), (cols, L, L),
            (K + 1, cols, G, L))


def _mvdr_column_bytes(params: MvdrParams, channels: int) -> int:
    """Bytes one column adds to an MVDR worker's working set. Besides it, a
    step allocates np.linalg.cholesky's factor, one more [L+2, L+2] a pixel
    of the chunk."""
    return sum(8 * math.prod(shape) for shape in _mvdr_shapes(params, channels, 1))


def _mvdr_workspace(params: MvdrParams, channels: int, width: int) -> list[np.ndarray]:
    """One worker's working set for blocks of up to width columns, as flat
    float64 buffers: a block takes the leading part of each in its own
    shape, so its arrays are contiguous whatever its width."""
    return [np.empty(math.prod(shape)) for shape in _mvdr_shapes(params, channels, width)]


def _mvdr_rows(samples: np.ndarray, r0: int, c0: int, A: np.ndarray,
               params: MvdrParams, out: np.ndarray) -> None:
    """Output rows r0 .. r0 + n - 1 of a column block starting at global column c0.

    A [n, cols, L+2, L+2] holds each pixel's window sum R in its top-left
    L x L and ones in row and column L. R's diagonal is loaded in place,
    and row and column L+1 take the mean subarray m of the pixel's own
    row, so A is R bordered by B = [1, m] and D = diag(1/(eps p), 1/eps),
    p = tr(R)/L after loading. The Cholesky factor's last two rows are then
    y = G^-1 1 and z = G^-1 m, with R = G G^T, and the output
    1'R^-1 m / 1'R^-1 1 is y.z / y.y: no triangular solve is needed, and
    y.y > 0 once the factorization succeeds. D never changes y or z.
    Errors name the first failing row and, within it, the first failing
    column; a zero window outranks a failed factorization in its own row.
    """
    L = params.subarray_len
    trace = np.trace(A[..., :L, :L], axis1=2, axis2=3)
    zero = np.argwhere(trace == 0.0)
    # Only the rows before the first zero window are loaded and factored.
    ok = zero[0, 0] if zero.size else len(A)
    A, trace = A[:ok], trace[:ok]
    diag = np.arange(L)
    A[..., diag, diag] += (params.diagonal_loading * trace / L)[..., None]
    eps = np.finfo(np.float64).eps
    A[..., L, L] = L / (eps * (1.0 + params.diagonal_loading) * trace)
    A[..., L + 1, L + 1] = 1.0 / eps
    A[..., L + 1, :L] = A[..., :L, L + 1] = sliding_window_view(
        samples[r0:r0 + ok].astype(np.float64), L, axis=2).mean(axis=2)
    try:
        factor = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        for i, c in np.ndindex(A.shape[:2]):
            try:
                np.linalg.cholesky(A[i, c])
            except np.linalg.LinAlgError as exc:
                raise SingularCovariance(
                    f"row {r0 + i}, column {c0 + c}: "
                    "covariance singular to working precision") from exc
        raise
    if zero.size:
        raise SingularCovariance(
            f"row {r0 + ok}, column {c0 + zero[0, 1]}: "
            "all-zero window, covariance has zero trace")
    y, z = factor[..., L, :L], factor[..., L + 1, :L]
    out[...] = np.einsum("ncl,ncl->nc", y, z) / np.einsum("ncl,ncl->nc", y, y)


def _mvdr_block(samples: np.ndarray, c0: int, params: MvdrParams, out: np.ndarray,
                workspace: list[np.ndarray]) -> None:
    """Every output row of one column block by the van Herk/Gil-Werman scheme.

    samples [rows, cols, channels] and out [rows, cols] are the block's
    columns, c0 its first global column, and workspace the worker's buffers
    (_mvdr_workspace), so a step allocates only the Cholesky factor and
    small temporaries. Padded position p holds the Gram of row
    clip(p - K), and row r sums positions r .. r + 2K. Positions
    fall in chunks of W = 2K + 1, so that window is the suffix of r's chunk
    from r plus the prefix of the next chunk up to r + 2K (just the whole
    chunk when r starts one). Each step takes one chunk of output rows: it
    computes the next chunk's Grams into the free buffer, K + 1 rows per
    matmul, builds every row's window sum in one bordered stack and
    factors it with one Cholesky call (_mvdr_rows). Suffixes are summed
    backward and prefixes forward within a chunk, and each pixel's Gram,
    factor and sums are its own, so its bits depend neither on the block
    width nor on the worker count.
    """
    rows, cols, channels = samples.shape
    L, K = params.subarray_len, params.temporal_half_window
    W = 2 * K + 1
    A, suffix, nxt, prefix, batch = (
        buf[:math.prod(shape)].reshape(shape)
        for buf, shape in zip(workspace, _mvdr_shapes(params, channels, cols)))
    windows = sliding_window_view(samples, L, axis=2)

    def fill(grams: np.ndarray, p0: int, m: int) -> None:
        # grams[:m] = the Grams of positions p0 .. p0 + m - 1. Their rows
        # rise by one a position but at the clamped edges, so each distinct
        # row is computed once, into the slot of its last leading position,
        # and copied to the slots that repeat it.
        t = np.clip(np.arange(p0, p0 + m) - K, 0, rows - 1)
        lo, hi = int(t[0]), int(t[-1]) + 1
        s = int(np.count_nonzero(t == lo)) - 1
        for r in range(lo, hi, K + 1):
            e = min(r + K + 1, hi)
            subs = batch[:e - r]
            subs[...] = windows[r:e]  # float32 subarrays to float64, one copy
            np.matmul(subs.transpose(0, 1, 3, 2), subs, out=grams[s + r - lo:s + e - lo])
        grams[:s] = grams[s]
        grams[s + hi - lo:m] = grams[s + hi - lo - 1]

    def to_suffix_sums(grams: np.ndarray) -> None:
        for i in range(W - 2, -1, -1):
            grams[i] += grams[i + 1]

    # The buffers hold the worker's last block, maybe in another shape:
    # reset the border (ones in row and column L, zeros beyond). R is
    # written before every use.
    A[..., L:, :] = A[..., :L, L:] = 0.0
    A[..., L, :L] = A[..., :L, L] = 1.0
    R = A[..., :L, :L]
    # suffix holds the current chunk's suffix sums, nxt the next chunk's
    # Grams; once a chunk's rows are out, nxt becomes the suffix and the
    # old suffix buffer takes the chunk after.
    fill(suffix, 0, W)
    to_suffix_sums(suffix)
    for base in range(0, rows, W):
        n = min(W, rows - base)
        m = min(W, rows + 2 * K - base - W)
        if m > 0:
            fill(nxt, base + W, m)
        R[0] = suffix[0]
        for i in range(1, n):
            if i == 1:
                prefix[...] = nxt[0]
            else:
                prefix += nxt[i - 1]
            np.add(suffix[i], prefix, out=R[i])
        _mvdr_rows(samples, base, c0, A[:n], params, out[base:base + n])
        if base + W < rows:
            to_suffix_sums(nxt)
            suffix, nxt = nxt, suffix


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

    One Cholesky call per chunk of 2K+1 output rows factors every pixel's
    bordered matrix, each by itself, and gives the weights (_mvdr_rows).
    Its border D dominates: with loading delta > 0 and
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
    rows, cols = rf.grid.num_rows, rf.grid.num_cols
    width = max(1, min(cols, _VAN_HERK_BYTES // _mvdr_column_bytes(params, rf.num_channels)))
    blocks = -(-cols // width)
    out = np.empty((rows, cols), dtype=np.float64)

    def run(lo: int, hi: int, workspace: list[np.ndarray]) -> None:
        for c0 in range(lo * width, min(hi * width, cols), width):
            _mvdr_block(rf.samples[:, c0:c0 + width], c0, params, out[:, c0:c0 + width],
                        workspace)

    run_ranges(blocks, run,
               workspace=lambda lo, hi: _mvdr_workspace(params, rf.num_channels, width))
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
