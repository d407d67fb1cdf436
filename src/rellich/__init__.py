"""Best constants in Hardy-Rellich-type inequalities.

Closed-form and minimized constants (including the piecewise weighted
gradient constant), spherical-harmonic radial reduction of the quadratic
functionals, singular quadrature, minimizing-sequence Rayleigh scans, and a
property-check registry for every identity and inequality in scope.
"""

from .constants import (
    ConstantReport,
    HigherOrderVariant,
    a_mn,
    brezis_vazquez_z0,
    hardy_constant,
    higher_order_coefficients,
    k_bar,
    m1k,
    m2k,
    m_star,
    per_mode_quotient,
    reduction_constant_A,
    rellich_constant,
    rellich_grad_constant,
    section2_constants,
    sigma,
    sigma_bar,
    x0,
)
from .errors import DivergenceError, DomainError, QuadratureError
from .iterlog import x1, xk
from .minseq import (
    CutoffSpec,
    MinSeqParams,
    ScanFamily,
    ScanResult,
    build_minimizer,
    default_schedule,
    rayleigh_quotient,
    scan_result_csv,
    scan_to_limit,
)
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    integrate,
    integrate_logweighted,
)
from .radial import (
    Functional,
    FunctionalValue,
    RadialProfile,
    Representation,
    SphericalMode,
    TestFunction,
    functional,
    mode_operator,
    sphere_area,
    substitute_v,
)
from .verify import (
    AdmissibilityCondition,
    CheckReport,
    SobolevForm,
    SuiteCase,
    admissibility,
    check_identity,
    check_inequality,
    registry_targets,
    sobolev_quotient,
    standard_suite,
)

__version__ = "0.1.0"
