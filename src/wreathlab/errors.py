"""Exception taxonomy shared by every module.

The CLI maps these onto exit codes: ValidationError (and subclasses) -> 1,
InvariantViolation -> 2, ResourceLimitError -> 3.
"""

import os


class WreathError(Exception):
    """Base class for all package errors."""


class ValidationError(WreathError):
    """Bad input or a violated precondition."""


class EncodingError(ValidationError):
    """Malformed element encoding. Carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EstimationError(ValidationError):
    """Insufficient or degenerate data for a statistical fit."""


class RadiusExceededError(ValidationError):
    """A bounded graph search ran out of radius before reaching its target."""


class InvariantViolation(WreathError):
    """A mathematical assertion that should hold was observed to fail."""


class ResourceLimitError(WreathError):
    """An enumeration grew past its configured cap."""


def check_physical_memory(needed: int, what: str) -> None:
    """Refuse, before allocating, what needs more bytes than physical memory."""
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise ResourceLimitError(
            f"{what} need about {needed / 2**30:.1f} GiB, "
            f"more than the {available / 2**30:.1f} GiB of physical memory"
        )
