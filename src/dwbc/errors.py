"""Exception types shared across the package."""


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
