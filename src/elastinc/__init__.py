"""Matrix method for the plane elastostatic inclusion problem.

Given an exterior conformal map of the inclusion boundary, Lame constants
for the matrix and the inclusion, and a far-field loading expanded in Faber
polynomials, the package assembles a block linear system for layer-potential
density coefficients, solves its truncation, and evaluates displacement
fields and boundary residuals. An independent Nystrom boundary-integral
solver cross-checks the result.
"""

from .materials import MaterialPair, derive_constants, cavity_limit
from .geometry import ConformalMap, GeometryBundle, build_geometry
from .loading import LoadingSpec, RhsVector, rhs_vectors, eval_loading
from .system import BlockSystem, DensitySolution, assemble_system, solve
from .field import (
    FieldEvaluator,
    FieldGrid,
    FieldSample,
    GridSpec,
    transmission_residual,
    boundary_traction_spread,
    classify_points,
    invert_map,
    grid_field,
)
from .oracle import (
    BoundaryMesh,
    ComparisonReport,
    OracleSolution,
    build_mesh,
    solve_oracle,
    eval_oracle_exterior,
    eval_oracle_interior,
    compare,
    self_convergence,
)

__all__ = [
    "MaterialPair",
    "derive_constants",
    "cavity_limit",
    "ConformalMap",
    "GeometryBundle",
    "build_geometry",
    "LoadingSpec",
    "RhsVector",
    "rhs_vectors",
    "eval_loading",
    "BlockSystem",
    "DensitySolution",
    "assemble_system",
    "solve",
    "FieldEvaluator",
    "FieldGrid",
    "FieldSample",
    "GridSpec",
    "transmission_residual",
    "boundary_traction_spread",
    "classify_points",
    "invert_map",
    "grid_field",
    "BoundaryMesh",
    "ComparisonReport",
    "OracleSolution",
    "build_mesh",
    "solve_oracle",
    "eval_oracle_exterior",
    "eval_oracle_interior",
    "compare",
    "self_convergence",
]

__version__ = "0.1.0"
