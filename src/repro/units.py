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

#: Bytes per kilobyte.  The paper reports page sizes in KB; we follow the
#: networking convention of 1 KB = 1000 bytes throughout.
BYTES_PER_KB = 1000.0
BYTES_PER_MB = 1000.0 * BYTES_PER_KB


def kb(value: float) -> float:
    """Convert kilobytes to bytes."""
    return value * BYTES_PER_KB


def mb(value: float) -> float:
    """Convert megabytes to bytes."""
    return value * BYTES_PER_MB


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


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, strictly positive number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def require_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value
