"""Certified lower bounds for the surface area of Plateau foams.

Given candidate foam vertices inside a domain, the toolkit builds the
admissible-radii polytope, maximizes the extrinsic vertex area over it
(eva) and over all point subsets (evA), evaluates the closed-form area,
cost, and pressure bounds, and numerically verifies the disc inequality
on triangulated foam meshes.
"""

from .bounds import (
    CompactFoamBounds,
    CostInput,
    KelvinCellBound,
    PressureInput,
    a0,
    compact_foam_bounds,
    cost_lower_bound,
    kelvin_cell_bound,
    main_theorem_bound,
    pressure_lower_bound,
)
from .errors import (
    DegeneratePolytopeError,
    DomainMembershipError,
    FoamBoundsError,
    MeshFormatError,
    MeshInvariantError,
    NumericalError,
    SubsetSizeError,
    UnboundedInstanceError,
)
from .eva import (
    EvaAResult,
    EvaObjective,
    EvaResult,
    convexity_certified,
    evA_algorithm1,
    evA_algorithm1_from_matrix,
    evA_exact,
    evA_exact_from_matrix,
    maximize_eva,
)
from .geometry import (
    ARCCOS_THIRD,
    THETA_EDGE,
    THETA_FACE,
    THETA_V_PI,
    THETA_VERTEX,
    AllSpace,
    Ball,
    Box,
    DensityClass,
    DistanceMatrix,
    Domain,
    HalfspaceIntersection,
    Instance,
    PeriodicBox,
    PointSet,
    ReducedDistanceMatrix,
    build_distance_matrix,
    domain_from_json,
    load_instance,
    reduce_distance_matrix,
)
from .meshcheck import (
    AngleReport,
    DiscProbe,
    FoamMesh,
    InequalityReport,
    clipped_area,
    load_mesh,
    plateau_angle_check,
    save_off,
    verify_main_inequality,
)
from .polytope import (
    HPolytope,
    VertexSet,
    build_h_polytope,
    enumerate_vertices,
    interior_point,
)

__version__ = "0.1.0"
