"""Image-quality figures computed on linear envelope magnitudes.

Contrast figures (CR, CNR, gCNR) are evaluated on the linear envelope,
never on log-compressed pixels; dB appears only where the figure itself
is defined in dB. Half maximum means max/2 exactly, the -6.02 dB point,
rather than a rounded -6 dB level. Regions are geometric specs resolved
against the image's own pixel grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import EnvelopeImage, PixelGrid
from .errors import (
    DepthOutOfRange,
    EmptyRegion,
    InvalidConfig,
    NoCrossing,
    NoPeak,
    RegionMismatch,
    ShapeMismatch,
    ZeroMean,
    ZeroVariance,
)

GCNR_BINS = 256
REGION_KINDS = ("circle", "rectangle")
REGION_ROLES = ("target_in", "background_out", "")


@dataclass(frozen=True)
class RegionSpec:
    """Circle (center_x_m, center_z_m, radius_m) or axis-aligned
    rectangle (x0_m, z0_m, x1_m, z1_m) in probe coordinates.

    Masks clip to the grid; a region must select at least one pixel.
    """

    name: str
    kind: str
    params: tuple[float, ...]
    role: str = ""

    def __post_init__(self):
        if self.kind == "circle":
            if len(self.params) != 3 or self.params[2] <= 0:
                raise InvalidConfig(f"region {self.name}: circle needs (cx, cz, r>0)")
        elif self.kind == "rectangle":
            if len(self.params) != 4:
                raise InvalidConfig(f"region {self.name}: rectangle needs (x0, z0, x1, z1)")
            x0, z0, x1, z1 = self.params
            if x1 <= x0 or z1 <= z0:
                raise InvalidConfig(f"region {self.name}: rectangle corners out of order")
        else:
            raise InvalidConfig(f"region {self.name}: unknown kind {self.kind!r}")
        if self.role not in REGION_ROLES:
            raise InvalidConfig(f"region {self.name}: unknown role {self.role!r}")

    def mask(self, grid: PixelGrid) -> np.ndarray:
        xs = grid.col_positions[None, :]
        zs = grid.row_depths[:, None]
        if self.kind == "circle":
            cx, cz, r = self.params
            m = (xs - cx) ** 2 + (zs - cz) ** 2 <= r * r
        else:
            x0, z0, x1, z1 = self.params
            m = (xs >= x0) & (xs <= x1) & (zs >= z0) & (zs <= z1)
        m = np.broadcast_to(m, (grid.num_rows, grid.num_cols)).copy()
        if not m.any():
            raise EmptyRegion(f"region {self.name} selects no pixels")
        return m


def check_disjoint(grid: PixelGrid, a: RegionSpec, b: RegionSpec) -> None:
    if (a.mask(grid) & b.mask(grid)).any():
        raise RegionMismatch(f"regions {a.name} and {b.name} overlap")


def _region_values(env: EnvelopeImage, inside: RegionSpec,
                   outside: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    check_disjoint(env.grid, inside, outside)
    mag = env.magnitude()
    return mag[inside.mask(env.grid)], mag[outside.mask(env.grid)]


# 1-D profile width ---------------------------------------------------------------


def fwhm(profile: np.ndarray, spacing_m: float) -> float:
    """Full width at half maximum of a 1-D magnitude profile, in meters.

    The peak is the first global maximum; the two crossings of peak/2
    adjacent to it are placed by linear interpolation between bracketing
    samples. A flat plateau at the peak walks out from the plateau edge.
    """
    p = np.asarray(profile, dtype=np.float64)
    if p.ndim != 1 or p.size < 3:
        raise ShapeMismatch("profile must be 1-D with at least 3 samples")
    if spacing_m <= 0:
        raise InvalidConfig("spacing must be positive")
    peak_idx = int(np.argmax(p))
    if p[peak_idx] <= 0 or np.all(p == p[0]):
        raise NoPeak("profile has no positive peak")
    half = p[peak_idx] / 2.0
    lo = peak_idx
    while lo > 0 and p[lo] >= half:
        lo -= 1
    if p[lo] >= half:
        raise NoCrossing("no half-maximum crossing left of the peak")
    left = lo + (half - p[lo]) / (p[lo + 1] - p[lo])
    hi = peak_idx
    while hi < p.size - 1 and p[hi] >= half:
        hi += 1
    if p[hi] >= half:
        raise NoCrossing("no half-maximum crossing right of the peak")
    right = hi - 1 + (half - p[hi - 1]) / (p[hi] - p[hi - 1])
    return float((right - left) * spacing_m)


# region contrast -----------------------------------------------------------------


def contrast_ratio(env: EnvelopeImage, inside: RegionSpec, outside: RegionSpec) -> float:
    """CR = |20 log10(mean_in / mean_out)| in dB on the linear envelope."""
    vin, vout = _region_values(env, inside, outside)
    mu_in, mu_out = float(vin.mean()), float(vout.mean())
    if mu_in <= 0 or mu_out <= 0:
        raise ZeroMean("region mean envelope is zero")
    return float(abs(20.0 * np.log10(mu_in / mu_out)))


def cnr(env: EnvelopeImage, inside: RegionSpec, outside: RegionSpec) -> float:
    """|mean difference| over the root of summed variances."""
    vin, vout = _region_values(env, inside, outside)
    denom = float(np.sqrt(vin.var() + vout.var()))
    if denom == 0.0:
        raise ZeroVariance("both regions are constant")
    return abs(float(vin.mean() - vout.mean())) / denom


def gcnr(env: EnvelopeImage, inside: RegionSpec, outside: RegionSpec,
         num_bins: int = GCNR_BINS, binning: str = "linear") -> float:
    """Generalized CNR: 1 minus the histogram overlap of the two regions.

    linear binning spans the pooled value range with equal-width bins;
    rank binning histograms each value's position in the sorted pooled
    sample (ties take the first position), making the figure invariant
    under any strictly monotone remap of the envelope.
    """
    vin, vout = _region_values(env, inside, outside)
    if num_bins < 2:
        raise InvalidConfig("need at least 2 bins")
    pooled = np.concatenate([vin, vout])
    if binning == "rank":
        order = np.sort(pooled)
        vin = np.searchsorted(order, vin, side="left").astype(np.float64)
        vout = np.searchsorted(order, vout, side="left").astype(np.float64)
        lo, hi = 0.0, float(pooled.size)
    elif binning == "linear":
        lo, hi = float(pooled.min()), float(pooled.max())
        if lo == hi:
            return 0.0
    else:
        raise InvalidConfig(f"unknown binning {binning!r}")
    h_in, _ = np.histogram(vin, bins=num_bins, range=(lo, hi))
    h_out, _ = np.histogram(vout, bins=num_bins, range=(lo, hi))
    p = h_in / vin.size
    q = h_out / vout.size
    return float(1.0 - np.minimum(p, q).sum())


# depth lookup --------------------------------------------------------------------


def depth_row(grid: PixelGrid, depth_m: float) -> int:
    """Index of the grid row nearest to depth_m; DepthOutOfRange when
    depth_m (NaN included) lies outside the grid's row depths."""
    depths = grid.row_depths
    if not (depths[0] <= depth_m <= depths[-1]):
        raise DepthOutOfRange(f"depth {depth_m} outside [{depths[0]}, {depths[-1]}]")
    return int(np.argmin(np.abs(depths - depth_m)))
