"""Exact verification of reflection-equation points on quantum conjugacy
classes of the classical groups.

Everything is computed in the field Q(i)(q) with structural equality, so every
check in the package is a zero-tolerance symbolic identity.
"""

from .points import (
    ParamError,
    PointParams,
    QuantumPoint,
    default_params,
    quantum_point,
    theta_for_class,
    validate_params,
)
from .qmatrix import QMatrix, commutator
from .rmatrix import build_rmatrix_data
from .rootdata import ClassSpec, LieSeries, series_for_group, standard_cases
from .scalar import GaussRational, QScalar, parse_scalar, q_integer, render_scalar
from .verifier import VerificationReport, full_report

__version__ = "0.1.0"

__all__ = [
    "ClassSpec",
    "GaussRational",
    "LieSeries",
    "ParamError",
    "PointParams",
    "QMatrix",
    "QScalar",
    "QuantumPoint",
    "VerificationReport",
    "build_rmatrix_data",
    "commutator",
    "default_params",
    "full_report",
    "parse_scalar",
    "q_integer",
    "quantum_point",
    "render_scalar",
    "series_for_group",
    "standard_cases",
    "theta_for_class",
    "validate_params",
]
