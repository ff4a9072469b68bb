"""Matrix method for the plane elastostatic inclusion problem.

Given an exterior conformal map of the inclusion boundary, Lame constants
for the matrix and the inclusion, and a far-field loading expanded in Faber
polynomials, the package assembles a block linear system for layer-potential
density coefficients, solves its truncation, and evaluates displacement
fields and boundary residuals. An independent Nystrom boundary-integral
solver cross-checks the result.
"""

from .materials import MaterialPair, derive_constants
from .geometry import ConformalMap, GeometryBundle, build_geometry
from .loading import LoadingSpec, eval_loading
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
    compare,
)

__all__ = [
    "MaterialPair",
    "derive_constants",
    "ConformalMap",
    "GeometryBundle",
    "build_geometry",
    "LoadingSpec",
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
    "compare",
]

__version__ = "0.1.0"
