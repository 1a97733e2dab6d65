"""Argument checks shared by every module: each failure raises a ValueError
that names the argument. count and real return nothing; the array checks
return the array: shaped, finite and integers np.asarray(value), broadcast
the broadcast view."""

import math
import numbers

import numpy as np

__all__ = ["is_integer", "is_real", "count", "real", "shaped", "finite", "broadcast", "integers"]


def is_integer(kind: type) -> bool:
    return issubclass(kind, numbers.Integral) and kind is not bool


def is_real(kind: type) -> bool:
    return issubclass(kind, numbers.Real) and kind is not bool


def count(name: str, value, minimum: int | None = None) -> None:
    """ValueError unless value is an integer >= minimum (any integer if None)."""
    if not is_integer(type(value)) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound} (not bool), got {value!r}")


def real(name: str, value, positive: bool = False, finite: bool = True) -> None:
    """ValueError unless value is a real number > 0 if positive, else >= 0,
    and below infinity if finite; NaN always fails."""
    if not (is_real(type(value)) and (0 < value if positive else 0 <= value)
            and (value < math.inf or not finite)):
        sign = "positive" if positive else "nonnegative"
        bound = " and finite" if finite else ""
        raise ValueError(f"{name} must be {sign}{bound} (a real number, not bool), got {value!r}")


def shaped(name: str, value, need: tuple) -> np.ndarray:
    """np.asarray(value), or a ValueError unless its shape is need; a need
    that starts with ... matches any leading axes."""
    array, text = np.asarray(value), str(need).replace("Ellipsis", "...")
    if need[:1] == (...,):
        need = array.shape[:max(array.ndim + 1 - len(need), 0)] + need[1:]
    if array.shape != need:
        raise ValueError(f"{name} has shape {array.shape}, need {text}")
    return array


def finite(name: str, value) -> np.ndarray:
    """np.asarray(value), or a ValueError unless it is a real array, of
    bool, integer or float dtype, that holds no NaN or infinity."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":  # complex, string, object, ...
        raise ValueError(f"{name} must be a real array, got dtype {array.dtype}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got NaN or inf")
    return array


def broadcast(name: str, value, shape: tuple) -> np.ndarray:
    """value broadcast to shape (a read-only view), or a ValueError."""
    try:
        return np.broadcast_to(value, shape)
    except ValueError:
        raise ValueError(
            f"{name} has shape {np.shape(value)}, which does not broadcast to {shape}"
        ) from None


def integers(name: str, value, need: tuple) -> np.ndarray:
    """shaped(name, value, need), or a ValueError unless it holds integers:
    bool, float and NaN labels fail, and an empty array passes whatever its
    dtype, since np.asarray([]) is float64."""
    array = shaped(name, value, need)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"{name} must be an integer array, got dtype {array.dtype}")
    return array
