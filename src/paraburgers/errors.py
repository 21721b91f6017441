"""Exception types shared across the package.

Every error carries enough context (key names, frequencies, measured values)
to be actionable from a failure log without re-running.
"""


class ParaburgersError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(ParaburgersError):
    """Two objects built on different grids were combined."""


class NonFiniteMultiplier(ParaburgersError):
    """A Fourier multiplier evaluated to NaN or infinity on a retained mode."""


class DegenerateProbe(ParaburgersError):
    """Order probe outputs all below the noise floor; no slope can be fit."""


class SmallDivisor(ParaburgersError):
    """A commutator-equation denominator fell below the resonance floor."""


class NewtonDiverged(ParaburgersError):
    """Newton iteration failed to reach tolerance within the budget."""


class SmallnessViolated(ParaburgersError):
    """Input data exceeds the smallness threshold a construction requires."""


class TamenessViolated(ParaburgersError):
    """Measured time-derivative growth breaks the tameness hypothesis."""


class SpectrumOverflow(ParaburgersError):
    """Rescaling would push populated modes off the frequency lattice."""


class InvariantBroken(ParaburgersError, RuntimeError):
    """A certified identity failed beyond its stated tolerance."""


class NanDetected(ParaburgersError):
    """A non-finite value: a time step's coefficients, or the input of a
    matrix exponential."""
