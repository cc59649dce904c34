"""Exception types shared across the package."""

import cmath


class DwbcError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidParameter(DwbcError, ValueError):
    """A parameter is structurally invalid (wrong sign, zero, length mismatch)."""


class DegenerateParameter(DwbcError, ValueError):
    """A theta or rational denominator vanishes for these parameters."""


class DegenerateNodes(DegenerateParameter):
    """Interpolation nodes coincide modulo the period lattice."""


class SizeCap(DwbcError, ValueError):
    """Requested size exceeds the configured cost cap for this route."""


def _check_cap(n: int, cap: int, route: str) -> None:
    if n > cap:
        raise SizeCap(f"n = {n} exceeds the {route} cap {cap}")


def _check_finite(**fields) -> None:
    """Raise InvalidParameter naming the first field that is not finite; a
    field is a number, a tuple of numbers, or None (absent)."""
    for name, value in fields.items():
        values = value if isinstance(value, tuple) else (value,)
        if any(x is not None and not cmath.isfinite(x) for x in values):
            raise InvalidParameter(f"{name} must be finite, got {value}")
