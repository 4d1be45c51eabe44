"""Core data types and the binary tensor / weight-bundle file formats.

Tensor file layout (little-endian throughout):

    offset  size        field
    0       4           magic b"CBTF"
    4       4           format version, u32 (currently 1)
    8       1           dtype code, u8: 0 = float32, 1 = fixed16
    9       1           scale_exp, i8 (fraction bits; 0 for float32)
    10      1           ndim, u8
    11      2           reserved, two zero bytes
    13      8 * ndim    dims, u64 each
    ...     payload     row-major values, f32 or i16

A weight bundle file is magic b"CBWB", version u32, entry count u32, then
per entry: name length u16, UTF-8 name bytes, and a complete embedded
tensor record (including its own magic). Bundle metadata key/value pairs
travel as ordinary entries under the reserved "meta." name prefix, with
the value's UTF-8 bytes widened into a fixed16 payload.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadEncoding,
    BadMagic,
    DimOverflow,
    InvalidConfig,
    IoFailure,
    NonFinite,
    ShapeMismatch,
    TruncatedFile,
    UnknownDtype,
)

TENSOR_MAGIC = b"CBTF"
BUNDLE_MAGIC = b"CBWB"
FORMAT_VERSION = 1

DTYPE_FLOAT32 = "float32"
DTYPE_FIXED16 = "fixed16"
_DTYPE_CODE = {DTYPE_FLOAT32: 0, DTYPE_FIXED16: 1}
_CODE_DTYPE = {code: name for name, code in _DTYPE_CODE.items()}
_NP_DTYPE = {DTYPE_FLOAT32: np.dtype("<f4"), DTYPE_FIXED16: np.dtype("<i2")}

_FIXED_HEADER = struct.Struct("<4sIBbB2s")
META_PREFIX = "meta."

# Refuse to allocate payloads past this element count when reading headers.
MAX_ELEMENTS = 1 << 40


@dataclass(frozen=True)
class Tensor:
    """N-dimensional array with an on-disk dtype tag.

    data is kept C-contiguous with shape == dims. fixed16 payloads hold
    raw int16 words whose real value is raw * 2**-scale_exp. Treat
    instances as immutable once built.
    """

    dims: tuple[int, ...]
    dtype: str
    data: np.ndarray
    scale_exp: int = 0

    def __post_init__(self):
        if self.dtype not in _DTYPE_CODE:
            raise UnknownDtype(f"unsupported dtype {self.dtype!r}")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ShapeMismatch(f"dims must be non-empty and positive, got {dims}")
        if not -128 <= int(self.scale_exp) <= 127:
            raise InvalidConfig(f"scale_exp {self.scale_exp} outside i8 range")
        data = np.asarray(self.data).reshape(-1)
        with np.errstate(invalid="ignore", over="ignore"):  # a lossy cast is caught below
            arr = np.ascontiguousarray(data, dtype=_NP_DTYPE[self.dtype])
        fixed = self.dtype == DTYPE_FIXED16
        bad = () if data.dtype == arr.dtype else (
            data[arr != data] if fixed else data[np.isfinite(data) & ~np.isfinite(arr)])
        if len(bad) and fixed:
            raise InvalidConfig(f"fixed16 data must be integers in [-32768, 32767]: {bad[0]}")
        if len(bad):
            raise NonFinite(f"float32 data must stay finite in the cast: {bad[0]}")
        if arr.size != int(np.prod(dims)):
            raise ShapeMismatch(
                f"data has {arr.size} elements, dims {dims} imply {int(np.prod(dims))}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "scale_exp", int(self.scale_exp))
        object.__setattr__(self, "data", arr.reshape(dims))

    @classmethod
    def from_array(cls, array, scale_exp: int = 0) -> "Tensor":
        """Wrap a numpy array, inferring float32 vs fixed16 from its kind."""
        arr = np.asarray(array)
        dtype = DTYPE_FIXED16 if arr.dtype.kind == "i" else DTYPE_FLOAT32
        dims = arr.shape if arr.ndim > 0 else (1,)
        return cls(dims=dims, dtype=dtype, data=arr.reshape(dims), scale_exp=scale_exp)

    def chunks(self) -> list:
        """The tensor record as two chunks: the header with the dims, then
        the payload as a byte view of data, not a copy."""
        header = _FIXED_HEADER.pack(
            TENSOR_MAGIC,
            FORMAT_VERSION,
            _DTYPE_CODE[self.dtype],
            self.scale_exp,
            len(self.dims),
            b"\x00\x00",
        )
        dims = struct.pack(f"<{len(self.dims)}Q", *self.dims)
        return [header + dims, memoryview(self.data).cast("B")]

    def tobytes(self) -> bytes:
        """Serialize to a complete tensor record."""
        return b"".join(self.chunks())


def _parse_tensor(buf: bytes, offset: int, where: str) -> tuple[Tensor, int]:
    """Parse one tensor record at offset; returns (tensor, next offset)."""
    end = offset + _FIXED_HEADER.size
    if len(buf) < end:
        raise TruncatedFile(f"{where}: header needs {end - len(buf)} more bytes")
    magic, version, code, scale_exp, ndim, _reserved = _FIXED_HEADER.unpack_from(buf, offset)
    if magic != TENSOR_MAGIC:
        raise BadMagic(f"{where}: expected {TENSOR_MAGIC!r}, found {magic!r}")
    if version != FORMAT_VERSION:
        raise UnknownDtype(f"{where}: unsupported format version {version}")
    if code not in _CODE_DTYPE:
        raise UnknownDtype(f"{where}: unknown dtype code {code}")
    if ndim < 1:
        raise ShapeMismatch(f"{where}: ndim must be at least 1")
    dims_end = end + 8 * ndim
    if len(buf) < dims_end:
        raise TruncatedFile(f"{where}: dims list truncated")
    dims = struct.unpack_from(f"<{ndim}Q", buf, end)
    count = 1
    for d in dims:
        if d < 1:
            raise ShapeMismatch(f"{where}: zero-sized dim in {dims}")
        count *= d
        if count > MAX_ELEMENTS:
            raise DimOverflow(f"{where}: dims {dims} exceed addressable size")
    dtype = _CODE_DTYPE[code]
    nbytes = count * _NP_DTYPE[dtype].itemsize
    payload_end = dims_end + nbytes
    if len(buf) < payload_end:
        raise TruncatedFile(f"{where}: payload truncated ({len(buf) - dims_end} of {nbytes} bytes)")
    data = np.frombuffer(buf, dtype=_NP_DTYPE[dtype], count=count, offset=dims_end).copy()
    tensor = Tensor(dims=dims, dtype=dtype, data=data, scale_exp=scale_exp)
    return tensor, payload_end


def write_chunks(chunks, path) -> None:
    """Write byte chunks to path in order."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise IoFailure(f"writing {path}: {exc}") from exc


def write_tensor_file(tensor: Tensor, path) -> None:
    write_chunks(tensor.chunks(), path)


def read_tensor_file(path) -> Tensor:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise IoFailure(f"reading {path}: {exc}") from exc
    tensor, end = _parse_tensor(buf, 0, str(path))
    if end != len(buf):
        raise TruncatedFile(f"{path}: {len(buf) - end} trailing bytes after payload")
    return tensor


@dataclass
class WeightBundle:
    """Named tensors plus string metadata, preserving entry order."""

    entries: dict[str, Tensor] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def require(self, name: str) -> Tensor:
        from .errors import MissingWeight

        if name not in self.entries:
            raise MissingWeight(f"bundle has no entry {name!r}")
        return self.entries[name]

    def copy(self) -> "WeightBundle":
        return WeightBundle(entries=dict(self.entries), metadata=dict(self.metadata))


def _meta_entry(key: str, value: str) -> Tensor:
    raw = np.frombuffer(value.encode("utf-8"), dtype=np.uint8).astype(np.int16)
    if raw.size == 0:
        raw = np.zeros(1, dtype=np.int16)
    return Tensor(dims=(raw.size,), dtype=DTYPE_FIXED16, data=raw, scale_exp=0)


def _utf8(raw: bytes, path, idx: int) -> str:
    """raw decoded as UTF-8; BadEncoding naming bundle entry idx if it is not."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadEncoding(
            f"{path}: entry {idx} is not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc


def bundle_chunks(bundle: WeightBundle) -> list:
    """The bundle record, in the layout read_bundle_file parses, as byte
    chunks to write in order; tensor payloads are views, not copies."""
    records = []
    for name, tensor in bundle.entries.items():
        if name.startswith(META_PREFIX):
            raise InvalidConfig(f"entry name {name!r} collides with metadata prefix")
        records.append((name, tensor))
    for key in sorted(bundle.metadata):
        records.append((META_PREFIX + key, _meta_entry(key, bundle.metadata[key])))
    chunks = [BUNDLE_MAGIC, struct.pack("<II", FORMAT_VERSION, len(records))]
    for name, tensor in records:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise InvalidConfig(f"entry name too long: {name[:32]!r}...")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.extend(tensor.chunks())
    return chunks


def write_bundle_file(bundle: WeightBundle, path) -> None:
    write_chunks(bundle_chunks(bundle), path)


def read_bundle_file(path) -> WeightBundle:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise IoFailure(f"reading {path}: {exc}") from exc
    if len(buf) < 12:
        raise TruncatedFile(f"{path}: bundle header needs 12 bytes")
    if buf[:4] != BUNDLE_MAGIC:
        raise BadMagic(f"{path}: expected {BUNDLE_MAGIC!r}, found {buf[:4]!r}")
    version, count = struct.unpack_from("<II", buf, 4)
    if version != FORMAT_VERSION:
        raise UnknownDtype(f"{path}: unsupported bundle version {version}")
    bundle = WeightBundle()
    offset = 12
    for idx in range(count):
        if len(buf) < offset + 2:
            raise TruncatedFile(f"{path}: entry {idx} name length truncated")
        (name_len,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        if len(buf) < offset + name_len:
            raise TruncatedFile(f"{path}: entry {idx} name truncated")
        name = _utf8(buf[offset : offset + name_len], path, idx)
        offset += name_len
        tensor, offset = _parse_tensor(buf, offset, f"{path}[{name}]")
        if name.startswith(META_PREFIX):
            bad = tensor.data[tensor.data.astype(np.uint8) != tensor.data]
            if bad.size:
                raise BadEncoding(f"{path}: entry {idx} ({name}) holds raw {bad[0]}, not a byte")
            value = tensor.data.astype(np.uint8).tobytes().rstrip(b"\x00")
            bundle.metadata[name[len(META_PREFIX) :]] = _utf8(value, path, idx)
        else:
            if name in bundle.entries:
                raise InvalidConfig(f"{path}: duplicate entry name {name!r}")
            bundle.entries[name] = tensor
    if offset != len(buf):
        raise TruncatedFile(f"{path}: {len(buf) - offset} trailing bytes")
    return bundle


def bundle_hash(bundle: WeightBundle) -> str:
    """Stable short digest over entry names, dims, and payloads."""
    digest = hashlib.sha256()
    for name, tensor in bundle.entries.items():
        digest.update(name.encode())
        for chunk in tensor.chunks():
            digest.update(chunk)
    return digest.hexdigest()[:12]


# geometry ---------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeGeometry:
    """Linear array and plane-wave acquisition parameters."""

    num_elements: int = 128
    pitch_m: float = 3.0e-4
    speed_of_sound_mps: float = 1540.0
    sample_rate_hz: float = 30.4e6
    transmit_angle_rad: float = 0.0
    center_freq_hz: float = 7.6e6

    def __post_init__(self):
        require_finite_fields(self, "pitch_m", "speed_of_sound_mps", "sample_rate_hz",
                              "transmit_angle_rad", "center_freq_hz")
        if self.num_elements < 1:
            raise InvalidConfig("num_elements must be positive")
        for name in ("pitch_m", "speed_of_sound_mps", "sample_rate_hz", "center_freq_hz"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be positive")

    def element_positions(self) -> np.ndarray:
        """Lateral element coordinates in meters, centered on the array."""
        idx = np.arange(self.num_elements, dtype=np.float64)
        return (idx - (self.num_elements - 1) / 2.0) * self.pitch_m


@dataclass(frozen=True)
class PixelGrid:
    """Imaging grid: rows advance in depth, columns laterally."""

    num_rows: int = 368
    num_cols: int = 128
    row_spacing_m: float = 1.0e-4
    col_spacing_m: float = 3.0e-4
    depth_origin_m: float = 5.0e-3

    def __post_init__(self):
        require_finite_fields(self, "row_spacing_m", "col_spacing_m", "depth_origin_m")
        if self.num_rows < 1 or self.num_cols < 1:
            raise InvalidConfig("grid must have at least one row and column")
        if self.row_spacing_m <= 0 or self.col_spacing_m <= 0:
            raise InvalidConfig("grid spacings must be positive")

    @property
    def row_depths(self) -> np.ndarray:
        return self.depth_origin_m + np.arange(self.num_rows) * self.row_spacing_m

    @property
    def col_positions(self) -> np.ndarray:
        idx = np.arange(self.num_cols, dtype=np.float64)
        return (idx - (self.num_cols - 1) / 2.0) * self.col_spacing_m

    @property
    def num_pixels(self) -> int:
        return self.num_rows * self.num_cols


def require_finite_fields(obj, *names: str) -> None:
    """Raise NonFinite naming the first of obj's named float fields that is
    NaN or infinite; comparisons such as x <= 0 let NaN through."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise NonFinite(f"{type(obj).__name__}.{name} is not finite: {value!r}")


def require_finite(what: str, *arrays: np.ndarray) -> None:
    """Raise NonFinite naming what unless every array is free of NaN and
    infinity. min/max propagate NaN and expose infinities without an
    array-sized mask."""
    for arr in arrays:
        if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise NonFinite(f"{what} contain NaN or infinity")


@dataclass(frozen=True)
class RfVolume:
    """Time-of-flight corrected channel data, [rows, cols, channels]."""

    grid: PixelGrid
    num_channels: int
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float32)
        expect = (self.grid.num_rows, self.grid.num_cols, self.num_channels)
        if arr.shape != expect:
            raise ShapeMismatch(f"samples shape {arr.shape}, geometry implies {expect}")
        require_finite("RF samples", arr)
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class EnvelopeImage:
    """In-phase / quadrature pair on a pixel grid."""

    grid: PixelGrid
    i_part: np.ndarray
    q_part: np.ndarray

    def __post_init__(self):
        expect = (self.grid.num_rows, self.grid.num_cols)
        i_arr = np.asarray(self.i_part, dtype=np.float32)
        q_arr = np.asarray(self.q_part, dtype=np.float32)
        if i_arr.shape != expect or q_arr.shape != expect:
            raise ShapeMismatch(
                f"envelope parts {i_arr.shape}/{q_arr.shape}, grid implies {expect}"
            )
        require_finite("envelope values", i_arr, q_arr)
        object.__setattr__(self, "i_part", i_arr)
        object.__setattr__(self, "q_part", q_arr)

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.i_part.astype(np.float64), self.q_part.astype(np.float64))


# parameter and op accounting ----------------------------------------------------


def count_params(cfg) -> int:
    """Total trainable parameter count (weights plus biases, routing has none)."""
    cfg.validate()
    total = 0
    for layer in cfg.weighted_layers():
        total += layer.kernel_h * layer.kernel_w * layer.in_ch * layer.out_ch + layer.out_ch
    return total


def routing_flops_per_pixel(routing) -> int:
    """Op count for one pixel's routing, 2 ops per MAC.

    Per iteration: softmax n_in*(3*n_out - 1) (exp, sum, divide), weighted
    sum 2*n_in*n_out*d, squash n_out*(3*d + 4) (norm MACs, scale, sqrt and
    divide). The agreement update costs 2*n_in*n_out*d and is skipped after
    the final iteration, matching the inference dataflow.
    """
    n_in, n_out, d = routing.num_in_capsules, routing.num_out_capsules, routing.out_dim
    iters = routing.num_iterations
    softmax = n_in * (3 * n_out - 1)
    weighted = 2 * n_in * n_out * d
    squash = n_out * (3 * d + 4)
    agreement = 2 * n_in * n_out * d
    return iters * (softmax + weighted + squash) + (iters - 1) * agreement


def count_flops(cfg, grid: PixelGrid) -> int:
    """Whole-frame op count at 2 ops per multiply-accumulate.

    Convolutions and pointwise FC layers count only their MACs; bias adds
    and ReLUs are free. Routing uses routing_flops_per_pixel.
    """
    cfg.validate()
    pixels = grid.num_pixels
    total = 0
    for layer in cfg.weighted_layers():
        total += 2 * pixels * layer.kernel_h * layer.kernel_w * layer.in_ch * layer.out_ch
    if cfg.routing is not None:
        total += pixels * routing_flops_per_pixel(cfg.routing)
    return total
