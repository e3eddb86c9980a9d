"""Q-tensor analysis toolkit for nematic liquid crystals.

Closed-form bulk phase analysis, explicit norm bounds for energy minimizers,
a 3D gradient-flow minimizer of the one-constant free energy (quartic,
general even-polynomial, and penalized variants), and an independent
second-moment oracle built from orientation distributions on the sphere.
"""

from .bounds import BoundAudit, TriangleReport, audit_field, elastic_bound_gamma, triangle_report
from .bulk import (
    BulkFunctional,
    CharacteristicTemperatures,
    GLPenalized,
    Material,
    Polynomial,
    Quartic,
    StationaryReport,
    a_of_temperature,
    characteristic_temperatures,
    gl_bound,
    poly_bound_C,
    stationary_scalars,
)
from .errors import (
    ConfigError,
    DivergenceError,
    FieldFormatError,
    FrameError,
    LdgError,
    NormalizationError,
    RegimeError,
)
from .moments import (
    Distribution,
    SphericalQuadrature,
    band_distribution,
    build_quadrature,
    distribution_from_values,
    load_density_csv,
    q_from_psi,
    uniform_distribution,
    watson_distribution,
)
from .qtensor import (
    EigenSystem,
    OrderParams,
    QTensor,
    biaxiality,
    eigensystem,
    eigenvalues_desc,
    in_physical_triangle,
    make_biaxial,
    norm_and_region,
    order_params,
    rotate_coeffs,
    trace_invariants,
    uniaxial_coeffs,
)
from .solver import (
    Grid3,
    QField,
    SolveReport,
    SolverConfig,
    discrete_energy,
    el_residual,
    harmonic_interior,
    minimize,
    minimize_on_subspace,
    minimize_uniaxial_fixed_director,
    read_field,
    write_field,
)

__version__ = "0.1.0"
