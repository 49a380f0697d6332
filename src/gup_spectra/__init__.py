"""Quantum models on a 1D space with the deformed commutator
[X, P] = i hbar (1 + tau_check P^2): closed-form spectra, wavefunctions and
metrics in several operator representations, an independent finite-difference
eigensolver, metric-weighted expectation values, and reality phase diagrams.
"""

__version__ = "0.1.0"

from .algebra import (
    DeformationParams,
    Domain,
    FGHCoefficients,
    HarmonicOscillator,
    ModelSpec,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
    p_domain,
)
from .errors import (
    BranchAmbiguity,
    ConvergenceFailure,
    DomainError,
    DomainMismatch,
    GupSpectraError,
    IntrinsicNoncommutativity,
    NoRoot,
    NonIntegrable,
    NonFiniteResult,
    NonMonotoneMap,
    ParameterError,
    SingularCoefficient,
    UnsupportedOrder,
    UnsupportedPair,
)
from .liouville import (
    FactorizationAnsatz,
    TransformResult,
    master_residual,
    to_potential,
    v_from_Qw,
)
from .operators import (
    apply_P,
    apply_X,
    commutator_residual,
    default_grid,
    uniform_grid,
)
from .oracle import (
    EigenProblem,
    SpectrumResult,
    expectation_direct,
    expectation_unified,
    fd_eigenvalues,
    matrix_element_direct,
    parse_word,
    verify_spectrum,
)
from .phase import (
    PhaseCurve,
    PhaseQuery,
    boundary_beta,
    discriminant,
    pt_model_reality,
    scan,
)
from .solutions import (
    Classification,
    ClosedFormSolution,
    PotentialSpec,
    ansatz_for,
    classify_physical,
    gram_matrix,
    metric_generic,
    native_quadrature,
    solve,
    transformed_potential,
)
from .specfun import (
    JacobiSpec,
    LegendreSpec,
    assoc_legendre,
    gauss_legendre_nodes,
    jacobi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
