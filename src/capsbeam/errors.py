"""Error types raised across the toolkit.

Everything derives from ToolError so the CLI can map any library failure
to a single runtime exit code. Names follow the failing condition, not the
module that raises them; several are shared (ShapeMismatch, InvalidConfig).
"""


class ToolError(Exception):
    """Base class for all toolkit errors."""


# file formats ---------------------------------------------------------------

class BadMagic(ToolError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(ToolError):
    """File ends before the header or payload is complete."""


class UnknownDtype(ToolError):
    """Dtype code in a tensor header is not 0 (float32) or 1 (fixed16)."""


class DimOverflow(ToolError):
    """Header dims multiply out beyond the addressable payload size."""


class IoFailure(ToolError):
    """Underlying OS read or write failed."""


class BadEncoding(ToolError):
    """A bundle entry name or metadata value is not valid UTF-8."""


# configuration and geometry -------------------------------------------------

class InvalidConfig(ToolError):
    """Config value out of range, unknown key, or inconsistent layer chain."""


class GridMismatch(ToolError):
    """Operands were beamformed on different pixel grids."""


class ShapeMismatch(ToolError):
    """Array dims disagree with the declared geometry or layer shape."""


class NonFinite(ToolError):
    """Samples, envelopes or weights contain NaN or infinity."""


# synthesis and beamforming --------------------------------------------------

class OutOfField(ToolError):
    """Scatterer echo arrives after the last recorded time sample."""


class ZeroWeightSum(ToolError):
    """Apodization weights sum to zero; normalization undefined."""


class SingularCovariance(ToolError):
    """Spatial covariance not solvable even after diagonal loading."""


class EmptyList(ToolError):
    """An operation over a list of images received no images."""


class AllZeroImage(ToolError):
    """Log compression of an image whose peak magnitude is zero."""


# network weights ------------------------------------------------------------

class MissingWeight(ToolError):
    """Weight bundle lacks an entry required by the layer config."""


class IndexOutOfRange(ToolError):
    """Kernel index lies outside the layer's channel range."""


class RatioOutOfRange(ToolError):
    """Prune ratio not inside [0, 1)."""


class MaskMismatch(ToolError):
    """Prune mask dims disagree with the weight tensor they mask."""


# quantization ---------------------------------------------------------------

class EmptyCalibration(ToolError):
    """Calibration was given no sample inputs."""


class MissingScale(ToolError):
    """Quantization plan lacks a scale for a required tensor."""


# accelerator simulation -----------------------------------------------------

class BramOverflow(ToolError):
    """Layer working set exceeds the configured on-chip buffer budget."""


# metrics --------------------------------------------------------------------

class NoPeak(ToolError):
    """Profile contains no positive peak to measure."""


class NoCrossing(ToolError):
    """Profile never falls to half maximum on one side of the peak."""


class EmptyRegion(ToolError):
    """Region mask selects no pixels on this grid."""


class ZeroMean(ToolError):
    """Contrast ratio undefined because a region mean is zero."""


class ZeroVariance(ToolError):
    """CNR undefined because both region variances are zero."""


class DepthOutOfRange(ToolError):
    """Requested depth lies outside the image grid."""


# cli ------------------------------------------------------------------------

class MissingMetrics(ToolError):
    """Comparison input lacks a metrics table."""


class RegionMismatch(ToolError):
    """Two metrics tables do not describe the same regions."""
