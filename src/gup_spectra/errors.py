"""Exception hierarchy shared across the package."""


class GupSpectraError(Exception):
    """Base class for all errors raised by gup_spectra."""


class ParameterError(GupSpectraError, ValueError):
    """A physical or polynomial parameter is out of its admissible range."""


class UnsupportedPair(GupSpectraError):
    """No closed-form coefficient table exists for this (model, representation)."""


class IntrinsicNoncommutativity(GupSpectraError):
    """The model has no commutative limit and requires tau > 0."""


class DomainError(GupSpectraError, ValueError):
    """Function argument outside the evaluation domain."""


class SingularCoefficient(GupSpectraError):
    """Leading ODE coefficient vanishes in the interior of the domain."""


class NonMonotoneMap(GupSpectraError):
    """The coordinate map q(p) failed to be strictly monotone/integrable."""


class NonIntegrable(GupSpectraError):
    """An operator word creates a non-integrable endpoint singularity."""


class ConvergenceFailure(GupSpectraError):
    """The numerical method cannot resolve the problem to its tolerance:
    successive degrees disagree, round-off swamps the levels, or the
    samples cannot hold the state."""


class NonFiniteResult(GupSpectraError):
    """A computed result holds inf or NaN where a number is required."""


class NoRoot(GupSpectraError):
    """No admissible root exists for the requested boundary equation."""
