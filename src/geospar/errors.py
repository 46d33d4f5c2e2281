"""Exception types shared across the package, and the index check that
raises one."""

import operator


class GeosparError(Exception):
    """Base class for all library errors."""


class EmptyInput(GeosparError):
    """Fewer points than the operation requires."""


class DuplicatePoint(GeosparError):
    """Two points coincide where distinctness is required."""


class UnknownPoint(GeosparError):
    """Referenced point id is not present."""


class PointOutOfRange(GeosparError):
    """Point lies outside the tree's root region."""


class OutOfRegion(GeosparError):
    """Update target lies outside the normalized bounding region."""


class AspectRatioTooLarge(GeosparError):
    """Points are closer than the maximum refinement level can resolve."""


class BadDimension(GeosparError):
    """Projection target dimension is not smaller than the source."""


class DimensionMismatch(GeosparError):
    """Vector dimension does not match the structure."""


class IndexOutOfRange(GeosparError):
    """Point index outside [0, n)."""


class NumericalFailure(GeosparError):
    """A dense factorization or eigensolve did not converge."""


class SingularMatrix(GeosparError):
    """Graph is disconnected where a pseudoinverse oracle needs connectivity."""


class ConfigError(GeosparError):
    """Malformed run configuration."""


class TraceError(GeosparError):
    """Malformed trace or points file; message carries the line number."""


def check_index(i, n: int) -> int:
    """`i` as a Python int, if it is an integer (a numpy one included) in
    [0, n); raises IndexOutOfRange otherwise, for a float too."""
    try:
        idx = operator.index(i)
    except TypeError:
        raise IndexOutOfRange(f"index {i!r} is not an integer") from None
    if not 0 <= idx < n:
        raise IndexOutOfRange(f"index {idx} outside [0, {n})")
    return idx
