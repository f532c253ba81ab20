"""Volumes of solids of revolution about arbitrary lines in the plane.

The core operation integrates 2*pi times the distance to the axis over the
rotating region; the classical disk, shell, polar, and Pappus routes (plus
a seeded Monte Carlo oracle) are provided as cross-checks that this single
formula subsumes.
"""

from .errors import (
    AxisIntersectsRegion,
    ConfigError,
    DomainError,
    ExprSyntaxError,
    IntegrandError,
    InvalidAxisError,
    InvalidRegionError,
    QuadratureNoConvergence,
    RevolveError,
    UnknownIdentifierError,
    UnsupportedMethod,
)
from .expr import ExprAst, eval_array, eval_expr, parse_expr, parse_scalar
from .geometry import Axis, Point, signed_distance
from .region import (
    NormalX,
    NormalY,
    Polygon,
    PolarSector,
    Region,
    UnionRegion,
    axis_side_check,
    bounding_box,
    contains,
    contains_mask,
    curve,
)
from .quadrature import (
    QuadratureResult,
    Tolerance,
    integrate_1d,
    integrate_region,
)
from .methods import (
    METHODS,
    CentroidReport,
    ComparisonReport,
    McConfig,
    MethodFailure,
    VolumeReport,
    area,
    centroid,
    compare_methods,
    volume_disk,
    volume_double_integral,
    volume_monte_carlo,
    volume_pappus,
    volume_polar,
    volume_shell,
)
from .config import JobConfig, load_job, parse_job, region_doc

__version__ = "0.1.0"

__all__ = [
    "AxisIntersectsRegion",
    "ConfigError",
    "DomainError",
    "ExprSyntaxError",
    "IntegrandError",
    "InvalidAxisError",
    "InvalidRegionError",
    "QuadratureNoConvergence",
    "RevolveError",
    "UnknownIdentifierError",
    "UnsupportedMethod",
    "ExprAst",
    "eval_array",
    "eval_expr",
    "parse_expr",
    "parse_scalar",
    "Axis",
    "Point",
    "signed_distance",
    "curve",
    "NormalX",
    "NormalY",
    "Polygon",
    "PolarSector",
    "Region",
    "UnionRegion",
    "axis_side_check",
    "bounding_box",
    "contains",
    "contains_mask",
    "QuadratureResult",
    "Tolerance",
    "integrate_1d",
    "integrate_region",
    "METHODS",
    "CentroidReport",
    "ComparisonReport",
    "McConfig",
    "MethodFailure",
    "VolumeReport",
    "area",
    "centroid",
    "compare_methods",
    "volume_disk",
    "volume_double_integral",
    "volume_monte_carlo",
    "volume_pappus",
    "volume_polar",
    "volume_shell",
    "JobConfig",
    "load_job",
    "parse_job",
    "region_doc",
]
