"""Level-set interface capturing with mesh-length scaled distances.

Smooth, monotone regularized Heaviside fields on arbitrary (graded,
distorted, simplicial) meshes, an approximate element-length distance field
maintained by multiplicative scaling instead of Eikonal redistancing, and a
stabilized convection solver with global volume conservation.
"""

from .basis import BasisEval, BasisSpec, eval_bspline, eval_rational, eval_simplex
from .fields import (
    AnalyticField,
    HeavisideParams,
    ScalarField,
    blend_property,
    naive_scaled_distance,
    parametric_gradient_norm,
    regularized_heaviside,
    regularized_heaviside_physical,
    sharp_heaviside,
    subdomain_volumes,
)
from .linalg import (
    CsrPattern,
    IterationLimitError,
    RootFindingError,
    SparseSystem,
    scalar_newton,
    solve_nonsymmetric,
    solve_spd,
)
from .mesh import (
    DegenerateDirectionError,
    InvalidGradingError,
    InvertedElementError,
    MeshPatch,
    MetricPair,
    QuadratureRule,
    build_structured,
    grade_structured,
    jacobian,
    meshsize_parametric,
    meshsize_physical,
    metric,
    read_gmsh,
    triangulate,
)
from .redistance import (
    PositivityError,
    ProjectionOperator,
    RedistanceParams,
    direct_redistance,
    project_function,
    projected_inverse_scaling,
    projected_redistance,
    projected_scaling,
    redistance_field,
)
from .transport import (
    ConservationError,
    PicardError,
    TimeState,
    TransportIntegrator,
    TransportParams,
    capturing_kappa,
    stabilization_tau,
)

__version__ = "0.1.0"
