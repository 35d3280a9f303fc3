"""Unit conventions and validation helpers used across the library.

All quantities in this library use a single canonical unit per dimension:

- time:   seconds (``float``)
- size:   bytes (``int`` or ``float``)
- power:  watts
- energy: joules

These helpers exist so that call sites can express literals in the unit the
paper uses (kilobytes, milliseconds) without sprinkling magic conversion
factors around, and so that constructors can validate their inputs early.
"""

from __future__ import annotations

import math
import numbers

#: Bytes per kilobyte.  The paper reports page sizes in KB; we follow the
#: networking convention of 1 KB = 1000 bytes throughout.
BYTES_PER_KB = 1000.0


def kb(value: float) -> float:
    """Convert kilobytes to bytes."""
    return value * BYTES_PER_KB


def as_kb(num_bytes: float) -> float:
    """Convert bytes to kilobytes."""
    return num_bytes / BYTES_PER_KB


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value / 1000.0


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * 60.0


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * 3600.0


def require_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, non-negative number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def require_count(name: str, value: int) -> int:
    """Validate that ``value`` is an integer of at least 1.

    Numpy integers count; a float (even an integral one such as
    ``300.0``) and a ``bool`` do not, so a count is never silently
    truncated or read from a flag.
    """
    if (not isinstance(value, numbers.Integral)
            or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")
    return int(value)


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, strictly positive number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value
