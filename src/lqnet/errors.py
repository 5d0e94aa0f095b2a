"""Exception types shared across the package."""


class LqnetError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(LqnetError):
    """Inputs that should share a group size N do not."""


class OrientationBudgetError(LqnetError):
    """Sponsorship-orientation search space exceeds the enumeration budget."""


class RankDeficientDataError(LqnetError):
    """Regression data too degenerate to identify the model coefficients."""


class SchemaVersionError(LqnetError):
    """Persisted record carries a format version this code does not read."""


class UnknownTreatmentError(LqnetError):
    """Treatment name not found among the bundled presets."""


class ConfigError(LqnetError, ValueError):
    """A value type refuses a field, or a policy file or parameter mapping is
    malformed; the message starts with the field or its file path."""
