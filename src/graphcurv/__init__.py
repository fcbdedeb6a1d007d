"""Bakry-Emery curvature and heat semigroup estimates on weighted graphs.

The package computes the carre du champ operators Gamma and Gamma_2 of a
weighted graph Laplacian, decides the curvature-dimension condition CD(K,n)
exactly via local quadratic forms, applies the heat semigroup through a
Chebyshev expansion or a spectral factorization, and numerically verifies
the equivalence between curvature bounds and the semigroup
gradient/variance estimates, together with Green's formula, the
ellipticity norm identity and the heat-kernel cutoff machinery.
"""

from .curvature import (
    CurvatureProfile,
    CurvatureResult,
    cd_check,
    cd_extremal_function,
    curvature_profile,
    curvature_solve,
)
from .estimates import (
    CutoffResult,
    EstimateReport,
    PreconditionError,
    SweepResult,
    SweepSummary,
    build_cutoff,
    default_corpus,
    ec_norm_check,
    estimate_sweep,
    finiteness_probe,
    green_check,
    taylor_check,
    verify_estimates,
)
from .graph_io import GraphFormatError, parse_graph, serialize_graph
from .graphs import (
    EllipticityCertificate,
    GraphFunction,
    WeightedGraph,
    ball,
    degree,
    ellipticity_constant,
    generate,
    is_connected,
    validate,
)
from .heat import HeatOperator, build_heat, semigroup_gamma_path
from .operators import LocalForms, gamma_closed_form, gamma_k, laplacian, local_forms

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "WeightedGraph",
    "GraphFunction",
    "EllipticityCertificate",
    "validate",
    "degree",
    "ball",
    "is_connected",
    "ellipticity_constant",
    "generate",
    "LocalForms",
    "laplacian",
    "gamma_k",
    "gamma_closed_form",
    "local_forms",
    "CurvatureResult",
    "CurvatureProfile",
    "cd_check",
    "curvature_solve",
    "curvature_profile",
    "cd_extremal_function",
    "HeatOperator",
    "build_heat",
    "semigroup_gamma_path",
    "EstimateReport",
    "SweepResult",
    "SweepSummary",
    "CutoffResult",
    "PreconditionError",
    "verify_estimates",
    "estimate_sweep",
    "default_corpus",
    "green_check",
    "ec_norm_check",
    "build_cutoff",
    "finiteness_probe",
    "taylor_check",
    "parse_graph",
    "serialize_graph",
    "GraphFormatError",
]
