"""Quantum models on a 1D space with the deformed commutator
[X, P] = i hbar (1 + tau_check P^2): closed-form spectra, wavefunctions and
metrics in several operator representations, an independent spectral
eigensolver, metric-weighted expectation values, and reality phase diagrams.

The package namespace holds what the README quick start and the benchmark
call; every other public name is imported from its submodule.
"""

__version__ = "0.1.0"

from .algebra import (
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
)
from .errors import GupSpectraError
from .liouville import master_residual, to_potential
from .oracle import expectation_direct, expectation_unified, verify_spectrum
from .phase import PhaseQuery, scan
from .solutions import (
    ClosedFormSolution,
    classify_physical,
    gram_matrix,
    metric_generic,
    solve,
)

__all__ = [
    "ClosedFormSolution", "DeformationParams", "GupSpectraError", "HarmonicOscillator",
    "PhaseQuery", "PoschlTeller", "Representation", "Swanson", "classify_physical",
    "coefficients", "expectation_direct", "expectation_unified", "gram_matrix",
    "master_residual", "metric_generic", "scan", "solve", "to_potential",
    "verify_spectrum",
]
