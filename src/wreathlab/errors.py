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


def _read_text(path: str) -> str | None:
    """The contents of a small system file, or None where it cannot be read."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        return None


def cgroup_memory_limit() -> int | None:
    """The tightest memory limit, in bytes, on this process's own cgroup and
    its ancestors, or None where none is set or none can be read.

    Each line of /proc/self/cgroup names a hierarchy and the process's path in
    it: under cgroup v2 (no controllers) the limit is memory.max, under v1's
    memory controller memory.limit_in_bytes; "max" means no limit.
    """
    table = _read_text("/proc/self/cgroup")
    if table is None:
        return None
    limits = []
    for line in table.splitlines():
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        _, controllers, path = parts
        if controllers == "":
            root, name = "/sys/fs/cgroup", "memory.max"
        elif "memory" in controllers.split(","):
            root, name = "/sys/fs/cgroup/memory", "memory.limit_in_bytes"
        else:
            continue
        path = "/" + path.strip("/")
        while True:
            text = _read_text(os.path.join(root + path, name))
            if text is not None and text.strip().isdigit():
                limits.append(int(text))
            if path == "/":
                break
            path = os.path.dirname(path)
    return min(limits, default=None)


def check_physical_memory(needed: int, what: str) -> None:
    """Refuse, before allocating, what needs more bytes than physical memory
    or than the memory limit of this process's cgroup, whichever is less."""
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    source = "of physical memory"
    limit = cgroup_memory_limit()
    if limit is not None and limit < available:
        available, source = limit, "memory limit of this process's cgroup"
    if needed > available:
        raise ResourceLimitError(
            f"{what} need about {needed / 2**30:.1f} GiB, "
            f"more than the {available / 2**30:.1f} GiB {source}"
        )
