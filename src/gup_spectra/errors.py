"""Exception hierarchy shared across the package."""


class GupSpectraError(Exception):
    """Base class for all errors raised by gup_spectra."""


class ParameterError(GupSpectraError, ValueError):
    """A physical or polynomial parameter is out of its admissible range."""


class UnsupportedPair(GupSpectraError):
    """No closed-form coefficient table exists for this (model, representation)."""


class IntrinsicNoncommutativity(GupSpectraError):
    """The model has no commutative limit and requires tau > 0."""


class DomainMismatch(GupSpectraError):
    """A sample grid leaves the natural momentum domain of the representation."""


class DomainError(GupSpectraError, ValueError):
    """Function argument outside the evaluation domain."""


class UnsupportedOrder(GupSpectraError):
    """Associated Legendre order not covered by the implemented branch."""


class SingularCoefficient(GupSpectraError):
    """Leading ODE coefficient vanishes in the interior of the domain."""


class NonMonotoneMap(GupSpectraError):
    """The coordinate map q(p) failed to be strictly monotone/integrable."""


class BranchAmbiguity(GupSpectraError):
    """1 - w^2 changes sign on the requested domain; no single real branch."""


class NonIntegrable(GupSpectraError):
    """An operator word creates a non-integrable endpoint singularity."""


class ConvergenceFailure(GupSpectraError):
    """Grid-refinement estimates disagree beyond the requested tolerance."""


class NonFiniteResult(GupSpectraError):
    """A computed result holds inf or NaN where a number is required."""


class NoRoot(GupSpectraError):
    """No admissible root exists for the requested boundary equation."""
