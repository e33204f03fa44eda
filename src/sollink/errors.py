"""Exception types shared across the package, and its one integer rule: an
int is a value of type exactly int (_is_int), so bool, 2.0, "3" and Fraction
are not ints, and an index, norm or truncation is an int >= 1 (_check_index)."""


class InputError(ValueError):
    """Invalid user-supplied input (bad field, matrix, range, file)."""


class ConsistencyError(RuntimeError):
    """An internal exactness or cross-check assertion failed."""


def _is_int(value) -> bool:
    return type(value) is int


def _check_index(name: str, value, top: int | None = None) -> None:
    """InputError unless value is an int with 1 <= value (<= top, if given)."""
    if not _is_int(value):
        raise InputError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")
    if top is not None and value > top:
        raise InputError(f"{name} must be at most {top}, got {value}")
