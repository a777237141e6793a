"""Transport-coefficient pipeline for alignment-interaction hydrodynamics.

Computes, from a microscopic alignment rule (rate nu(mu), noise d) and an
interaction-range constant kappa, every macroscopic constant of the
first-order corrected hydrodynamic model: the leading constants c1, c2, c3,
the mass-diffusion pair (beta, gamma), and the thirteen assembled velocity
correction coefficients, together with discrete evaluation of the correction
fields on periodic grids and an independent verification oracle.
"""

from .coeffs import (
    HydroCoefficients,
    Pipeline,
    beta_quadratic_form,
    compute_c123,
    compute_coefficients,
    compute_r1_coeffs,
    compute_r2_coeffs,
    run_pipeline,
    solve_profiles,
)
from .elliptic import MuProfile, solve_gci, solve_type1, solve_type2
from .errors import (
    ConfigError,
    DegenerateWeightError,
    DomainError,
    FieldStateError,
    FlockError,
    GridShapeError,
    InvariantError,
    NumericError,
    PreconditionError,
    SolverError,
    UsageError,
)
from .fields import (
    CorrectionFields,
    FieldState,
    GradientBundle,
    Grid,
    decompose_gradients,
    evaluate_corrections,
    evaluate_r1,
    evaluate_r2,
    make_field,
)
from .kernel import (
    CollisionKernel,
    SpatialKernel,
    affine_kernel,
    ball_kernel,
    compute_kappa,
    constant_kernel,
    evaluate_kernel,
    even_poly_kernel,
    gaussian_kernel,
    make_kernel,
    registry_kernels,
    tabulated_kernel,
)
from .oracle import (
    compare_spectral_fd,
    fd_solve,
    gci_orthogonality,
    mode_apply,
    mode_residuals,
    source_orthogonality,
)
from .quad import (
    QuadratureRule,
    VonMisesEquilibrium,
    average_weighted,
    build_equilibrium,
    build_rule,
)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"
