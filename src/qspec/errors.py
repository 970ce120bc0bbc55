"""Exception types shared across the package."""


class QspecError(Exception):
    """Base class for all package errors."""


class HermiticityError(QspecError):
    """Matrix violates the Hermiticity tolerance."""


class UnitarityError(QspecError):
    """Matrix violates the unitarity tolerance."""


class DimensionMismatchError(QspecError):
    """Operator, state or register dimensions disagree."""


class RegisterError(QspecError):
    """Bad qubit register specification (overlap, repetition, out of range, empty)."""


class NormalizationError(QspecError):
    """State is not unit-normalized where a normalized state is required."""


class ZeroOperatorError(QspecError):
    """Operation undefined for a (numerically) zero operator."""


class ZeroNormError(ZeroOperatorError):
    """The observable annihilates the ensemble's base state: (O tensor 1) leaves it zero norm."""


class DegenerateAngleError(QspecError):
    """Rotation angle leaves the postselected branch empty."""


class ResourceCapError(QspecError):
    """Requested register exceeds the configured qubit cap."""


class ConfigError(QspecError):
    """Experiment configuration document is invalid, or its output path cannot be written."""


class PrepExhaustedError(QspecError):
    """Circuit preparation failed to accept within the attempt budget."""
