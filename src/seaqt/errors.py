"""Exception hierarchy shared across the library."""


class SeaqtError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(SeaqtError):
    """Operands live on Hilbert spaces of different dimension."""


class NotHermitianError(SeaqtError):
    """Matrix fails the Hermiticity tolerance."""


class NotPositiveError(SeaqtError):
    """State operator has an eigenvalue below the clamp floor."""


class TraceError(SeaqtError):
    """State operator trace is too far from one to renormalize."""


class NonCommutingGeneratorError(SeaqtError):
    """An operator declared conserved (a generator, a constant of the
    motion, the double-commutator F) does not commute with the Hamiltonian."""


class NonPositiveTauError(SeaqtError):
    """Relaxation time constant must be strictly positive."""


class SingularStateError(SeaqtError):
    """Operation requires a full-rank state operator."""


class SingularCompositeStateError(SeaqtError):
    """Composite log operator is undefined on a singular non-product state."""


class TargetInfeasibleError(SeaqtError):
    """Requested mean values lie outside the attainable range."""


class NoConvergenceError(SeaqtError):
    """Iterative solver exhausted its iteration budget."""


class StepUnderflowError(SeaqtError):
    """Adaptive integrator hit dt_min with error still above tolerance."""


class StateInvalidError(SeaqtError):
    """Integrated matrix left the valid state set beyond repair."""


class MeasureWeightError(SeaqtError):
    """Statistical weights must be positive and sum to one."""


class ConfigError(SeaqtError):
    """Scenario configuration failed to parse or validate.  ``field`` is the
    dotted path of the offending field when it is known; the message then
    starts with it."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.message, self.field = message, field
