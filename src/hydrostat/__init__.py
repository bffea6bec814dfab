"""hydrostat: pseudo-spectral simulation and verification of the anisotropic
viscosity limits of the rescaled Navier-Stokes equations on the periodic box.
"""

from .bootstrap import (
    BootstrapCertificate,
    BudgetFunctions,
    SampledFunction,
    certify_bootstrap_family,
    certify_exp_quadratic_bound,
    certify_quadratic_bound,
    continuation_schedule,
)
from .errors import (
    BlowupDetected,
    CompatibilityError,
    ConfigError,
    FormatError,
    HydrostatError,
    InsufficientData,
    InvalidGrid,
    InvalidParameter,
    OrderingError,
    ScheduleInfeasible,
    ShapeError,
)
from .fields import (
    SplitState,
    VelocityState,
    barotropic_split,
    baroclinic_rhs,
    diff_rhs_F,
)
from .norms import NormAccumulator, accumulate, finalize, norm_aniso, norm_sobolev
from .solvers import (
    SimConfig,
    TrajectoryRecord,
    run_simulation,
)
from .spectral import (
    EVEN,
    NONE,
    ODD,
    Grid,
    PhysicalField,
    SpectralField,
    dealias,
    enforce_parity,
    field_from_function,
    forward_transform,
    inner_l2,
    inverse_transform,
    laplacian_delta,
    make_grid,
    spectral_derivative,
)

__version__ = "0.1.0"
