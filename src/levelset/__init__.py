"""Level-set interface capturing with mesh-length scaled distances.

Smooth, monotone regularized Heaviside fields on structured, graded and
triangulated patches, or on a user-supplied :class:`MeshPatch` geometry; an
approximate element-length distance field maintained by multiplicative
scaling instead of Eikonal redistancing; and a stabilized convection solver
with global volume conservation.
"""

from .basis import BasisEval, BasisSpec, eval_rational
from .fields import (
    AnalyticField,
    HeavisideParams,
    NaiveScaledField,
    ScalarField,
    regularized_heaviside,
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
    InvalidGradingError,
    InvertedElementError,
    MeshPatch,
    QuadratureRule,
    build_structured,
    grade_structured,
    triangulate,
)
from .redistance import (
    PositivityError,
    ProjectionOperator,
    RedistanceParams,
    project_function,
    redistance_field,
)
from .transport import (
    ConservationError,
    PicardError,
    SeparableVelocity,
    TimeState,
    TransportIntegrator,
    TransportParams,
    capturing_kappa,
)

__version__ = "0.1.0"
