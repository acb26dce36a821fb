"""rexiprop: rational-exponential-integrator propagation of 1D Schrodinger
systems -- CF/Faber partial-fraction approximation of exp on an imaginary
interval, P2 finite elements, and shifted-solve time stepping."""

from .approx import (
    CFApproximation,
    JoukowskiMap,
    PartialFractionApproximation,
    approx_from_json,
    approx_to_json,
    cf_approximate,
    cf_circle_error,
    evaluate_pfd,
    faber_cf,
    joukowski_eval,
    rounding_floor,
    stability_indicator,
    stabilize,
    sup_error_on_interval,
)
from .errors import (
    AdmissibilityError,
    ApproximationError,
    ConfigError,
    NumericalError,
    SolverError,
    SpatialError,
)
from .integrate import (
    SAFETY_FACTOR,
    ChebyshevStepper,
    OracleDecomposition,
    RexiStepper,
    chebyshev_coeffs,
    chebyshev_prepare,
    chebyshev_reference,
    chebyshev_run,
    dense_decomposition,
    dense_expm_apply,
    max_step_size,
    rexi_error_bound,
    rexi_prepare,
    rexi_run,
)
from .spatial import (
    Mesh1D,
    PhysicalConstants,
    PotentialSpec,
    SpectralRadiusEstimate,
    SystemMatrices,
    WavePacketParams,
    assemble_system,
    b_norm,
    build_mesh,
    evaluate_state,
    probability_density,
    project_initial,
    spectral_radius_estimate,
    wave_packet_eval,
)

__version__ = "0.1.0"
