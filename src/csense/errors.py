"""Exception types shared across the toolkit."""


class RankDeficientError(ArithmeticError):
    """A matrix expected to have full column rank does not."""


class NotHermitianError(ValueError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class UnsupportedSizeError(ValueError):
    """No equiangular tight frame construction is available for this size."""


class ZeroColumnError(ValueError):
    """A column with (near-)zero norm cannot be normalized."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""
