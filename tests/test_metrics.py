"""Image-quality metrics: FWHM, CR, CNR, gCNR and depth lookup.

Contrast figures are verified on hand-built envelopes where the region
populations are known exactly (two-pixel rectangles make means and
variances trivial to compute by hand). gCNR is checked at its exact
fixed points (identical regions -> 0, disjoint ranges -> 1) and against
the analytic 0.5 overlap of two half-overlapping uniforms, allowing for
the histogram estimator's noise bias.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsbeam.data_model import EnvelopeImage, PixelGrid
from capsbeam.errors import (
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
from capsbeam.metrics import (
    GCNR_BINS,
    RegionSpec,
    check_disjoint,
    cnr,
    contrast_ratio,
    depth_row,
    fwhm,
    gcnr,
)

GRID = PixelGrid(num_rows=16, num_cols=16, row_spacing_m=1e-3,
                 col_spacing_m=1e-3, depth_origin_m=0.0)


def _env(mag, grid=GRID):
    mag = np.asarray(mag, dtype=np.float32)
    return EnvelopeImage(grid=grid, i_part=mag, q_part=np.zeros_like(mag))


# two-pixel rectangles at row 2 (z = 2 mm): cols 3,4 are x = -4.5, -3.5 mm
RECT_IN = RegionSpec("in", "rectangle", (-4.6e-3, 1.9e-3, -3.4e-3, 2.1e-3),
                     role="target_in")
RECT_OUT = RegionSpec("out", "rectangle", (3.4e-3, 1.9e-3, 4.6e-3, 2.1e-3),
                      role="background_out")


def _four_pixel_env(a, b, c, d):
    mag = np.zeros((16, 16))
    mag[2, 3], mag[2, 4] = a, b
    mag[2, 11], mag[2, 12] = c, d
    return _env(mag)


# ---------------------------------------------------------------- fwhm


def test_fwhm_triangle_exact():
    assert fwhm(np.array([0.0, 0.5, 1.0, 0.5, 0.0]), 0.5e-3) == 1.0e-3


def test_fwhm_plateau_walks_to_edges():
    assert fwhm(np.array([0.0, 1.0, 1.0, 1.0, 0.0]), 1.0) == 3.0


def test_fwhm_gaussian_sigma_four():
    x = np.arange(41, dtype=np.float64)
    p = np.exp(-((x - 20.0) ** 2) / (2.0 * 16.0))
    width = fwhm(p, 1.0)
    assert abs(width - 4.0 * 2.3548200450309493) < 0.1


def test_fwhm_reversal_and_scaling_invariance():
    x = np.arange(60, dtype=np.float64)
    p = np.exp(-((x - 25.0) ** 2) / 30.0) + 0.02 * np.exp(-((x - 45.0) ** 2) / 8.0)
    base = fwhm(p, 1.0)
    np.testing.assert_allclose(fwhm(p[::-1], 1.0), base, rtol=1e-12)
    assert fwhm(4.0 * p, 1.0) == base  # power-of-two scaling is exact
    np.testing.assert_allclose(fwhm(3.0 * p, 1.0), base, rtol=1e-12)


def test_fwhm_error_cases():
    with pytest.raises(NoPeak):
        fwhm(np.zeros(8), 1.0)
    with pytest.raises(NoPeak):
        fwhm(np.full(8, 3.0), 1.0)  # flat profile has no peak
    with pytest.raises(NoCrossing):
        fwhm(np.array([0.9, 1.0, 0.9]), 1.0)
    with pytest.raises(ShapeMismatch):
        fwhm(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(InvalidConfig):
        fwhm(np.array([0.0, 1.0, 0.0]), 0.0)


# ---------------------------------------------------------------- regions


def test_region_masks_and_validation():
    circle = RegionSpec("c", "circle", (0.0, 3.0e-3, 1.5e-3))
    m = circle.mask(GRID)
    assert m[3, 7] and m[3, 8]       # row at z=3mm, |x|=0.5mm
    assert not m[10, 7]
    with pytest.raises(InvalidConfig):
        RegionSpec("bad", "circle", (0.0, 0.0, 0.0))
    with pytest.raises(InvalidConfig):
        RegionSpec("bad", "rectangle", (1.0, 0.0, 0.0, 1.0))
    with pytest.raises(InvalidConfig):
        RegionSpec("bad", "hexagon", (0.0, 0.0, 1.0))
    with pytest.raises(InvalidConfig):
        RegionSpec("bad", "circle", (0.0, 0.0, 1.0), role="inside")
    with pytest.raises(EmptyRegion):
        RegionSpec("far", "circle", (1.0, 1.0, 1e-4)).mask(GRID)


def test_check_disjoint():
    a = RegionSpec("a", "circle", (0.0, 3.0e-3, 1.5e-3))
    b = RegionSpec("b", "rectangle", (-1.0e-3, 2.0e-3, 1.0e-3, 4.0e-3))
    with pytest.raises(RegionMismatch):
        check_disjoint(GRID, a, b)
    check_disjoint(GRID, RECT_IN, RECT_OUT)  # no overlap, no raise


# ---------------------------------------------------------------- CR / CNR


def test_contrast_ratio_decade_is_twenty_db():
    env = _four_pixel_env(10.0, 10.0, 1.0, 1.0)
    assert contrast_ratio(env, RECT_IN, RECT_OUT) == 20.0
    # symmetric: bright background gives the same magnitude
    env2 = _four_pixel_env(1.0, 1.0, 10.0, 10.0)
    assert contrast_ratio(env2, RECT_IN, RECT_OUT) == 20.0


def test_contrast_ratio_zero_mean():
    with pytest.raises(ZeroMean):
        contrast_ratio(_four_pixel_env(1.0, 1.0, 0.0, 0.0), RECT_IN, RECT_OUT)


def test_cnr_two_value_populations():
    # means 2 and 4, population variances 1 and 1: |2| / sqrt(2)
    env = _four_pixel_env(1.0, 3.0, 3.0, 5.0)
    np.testing.assert_allclose(cnr(env, RECT_IN, RECT_OUT), np.sqrt(2.0), rtol=1e-12)


def test_cnr_zero_variance():
    with pytest.raises(ZeroVariance):
        cnr(_four_pixel_env(2.0, 2.0, 5.0, 5.0), RECT_IN, RECT_OUT)


# ---------------------------------------------------------------- gCNR


def test_gcnr_identical_distributions_zero():
    env = _four_pixel_env(1.0, 3.0, 1.0, 3.0)
    assert gcnr(env, RECT_IN, RECT_OUT) == 0.0


def test_gcnr_disjoint_ranges_one():
    env = _four_pixel_env(1.0, 1.2, 5.0, 5.5)
    assert gcnr(env, RECT_IN, RECT_OUT) == 1.0


def test_gcnr_constant_image_zero():
    env = _four_pixel_env(2.0, 2.0, 2.0, 2.0)
    assert gcnr(env, RECT_IN, RECT_OUT) == 0.0


def _uniform_halves(seed):
    grid = PixelGrid(num_rows=128, num_cols=128, row_spacing_m=1e-3,
                     col_spacing_m=1e-3, depth_origin_m=0.0)
    rng = np.random.default_rng(seed)
    mag = np.zeros((128, 128), dtype=np.float32)
    mag[:, :60] = rng.uniform(0.0, 1.0, size=(128, 60))
    mag[:, 68:] = rng.uniform(0.5, 1.5, size=(128, 60))
    rin = RegionSpec("in", "rectangle", (-64.0e-3, -1.0, -4.4e-3, 1.0))
    rout = RegionSpec("out", "rectangle", (4.4e-3, -1.0, 64.0e-3, 1.0))
    return _env(mag, grid), rin, rout


def test_gcnr_half_overlapping_uniforms():
    # Analytic overlap of U[0,1] and U[0.5,1.5] is 0.5; the histogram
    # estimator sits slightly above from per-bin noise.
    env, rin, rout = _uniform_halves(0)
    for binning in ("linear", "rank"):
        g = gcnr(env, rin, rout, binning=binning)
        assert 0.45 <= g <= 0.62


def test_gcnr_rank_invariant_under_monotone_remap():
    env, rin, rout = _uniform_halves(1)
    remapped = _env(np.exp(env.magnitude()).astype(np.float32), env.grid)
    assert (gcnr(env, rin, rout, binning="rank")
            == gcnr(remapped, rin, rout, binning="rank"))


def test_gcnr_linear_invariant_under_power_of_two_gain():
    env, rin, rout = _uniform_halves(2)
    scaled = _env(4.0 * env.magnitude(), env.grid)
    assert (gcnr(env, rin, rout, binning="linear")
            == gcnr(scaled, rin, rout, binning="linear"))


def test_gcnr_bounds_and_validation():
    env, rin, rout = _uniform_halves(3)
    with pytest.raises(InvalidConfig):
        gcnr(env, rin, rout, num_bins=1)
    with pytest.raises(InvalidConfig):
        gcnr(env, rin, rout, binning="kde")
    assert GCNR_BINS == 256


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_gcnr_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.0, 2.0, size=(16, 16)).astype(np.float32)
    env = _env(mag)
    g = gcnr(env, RECT_IN, RECT_OUT)
    assert 0.0 <= g <= 1.0


# ---------------------------------------------------------------- depth lookup


def test_depth_row_is_nearest_and_checked():
    # GRID rows sit at 0, 1, ..., 15 mm
    assert depth_row(GRID, 0.0) == 0
    assert depth_row(GRID, 15.0e-3) == 15
    assert depth_row(GRID, 6.4e-3) == 6
    assert depth_row(GRID, 6.6e-3) == 7
    for depth in (-1.0e-6, 15.1e-3, float("nan"), float("inf")):
        with pytest.raises(DepthOutOfRange):
            depth_row(GRID, depth)
