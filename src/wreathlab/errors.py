"""Exception taxonomy and memory guards shared by every module.

The CLI maps these onto exit codes: ValidationError (and subclasses) -> 1,
InvariantViolation -> 2, ResourceLimitError -> 3. check_physical_memory refuses
an allocation past physical memory or the cgroup's limit, and check_dense_chain,
which hosts and markov both call, a chain whose n x n arrays would pass it.
"""

import codecs
import functools
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


# where /proc/self/mountinfo cannot be read: the usual mount points, each
# showing its hierarchy from the root
_CGROUP_MOUNTS = {"": ("/sys/fs/cgroup", "/"), "memory": ("/sys/fs/cgroup/memory", "/")}


def _cgroup_mounts() -> dict[str, tuple[str, str]]:
    """Mount point and mount root of the cgroup v2 hierarchy (key "") and of
    v1's memory controller (key "memory"), the first mount of each that
    /proc/self/mountinfo lists."""
    table = _read_text("/proc/self/mountinfo")
    if table is None:
        return _CGROUP_MOUNTS
    mounts: dict[str, tuple[str, str]] = {}
    for line in table.splitlines():
        # id parent major:minor root point options [optional...] - type source super
        fields = line.split(" ")
        dash = fields.index("-", 6) if "-" in fields[6:] else len(fields)
        if len(fields) < dash + 4:
            continue
        fs_type, options = fields[dash + 1], fields[dash + 3]
        if fs_type == "cgroup2":
            kind = ""
        elif fs_type == "cgroup" and "memory" in options.split(","):
            kind = "memory"
        else:
            continue
        # mountinfo writes a space, tab, newline or backslash in a path as \ooo
        root, point = (codecs.decode(f, "unicode_escape") for f in fields[3:5])
        mounts.setdefault(kind, (point, root))
    return mounts


def cgroup_memory_limit() -> int | None:
    """The tightest memory limit, in bytes, on this process's own cgroup and
    its ancestors, or None where none is set or none can be read.

    Each line of /proc/self/cgroup names a hierarchy and the process's path in
    it: under cgroup v2 (no controllers) the limit is memory.max, under v1's
    memory controller memory.limit_in_bytes; "max" means no limit. A path is
    read where /proc/self/mountinfo mounts its hierarchy, relative to the
    mount's root; an ancestor above that root is not visible there.
    """
    table = _read_text("/proc/self/cgroup")
    if table is None:
        return None
    mounts = _cgroup_mounts()
    limits = []
    for line in table.splitlines():
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        _, controllers, path = parts
        if controllers == "":
            kind, name = "", "memory.max"
        elif "memory" in controllers.split(","):
            kind, name = "memory", "memory.limit_in_bytes"
        else:
            continue
        if kind not in mounts:
            continue
        point, root = mounts[kind]
        root = root.rstrip("/")  # "" for the hierarchy's own root
        path = "/" + path.strip("/")
        while path == root or path.startswith(root + "/"):
            text = _read_text(os.path.join(point + path[len(root):], name))
            if text is not None and text.strip().isdigit():
                limits.append(int(text))
            if path == "/":
                break
            path = os.path.dirname(path)
    return min(limits, default=None)


@functools.cache
def _memory_limit() -> tuple[int, str]:
    """(bytes, source) of physical memory or of the memory limit of this
    process's cgroup, whichever is less; read once per process."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = cgroup_memory_limit()
    if limit is not None and limit < physical:
        return limit, "memory limit of this process's cgroup"
    return physical, "of physical memory"


def check_physical_memory(needed: int, what: str) -> None:
    """Refuse, before allocating, what needs more bytes than physical memory
    or than the memory limit of this process's cgroup, whichever is less."""
    available, source = _memory_limit()
    if needed > available:
        raise ResourceLimitError(
            f"{what} need about {needed / 2**30:.1f} GiB, "
            f"more than the {available / 2**30:.1f} GiB {source}"
        )


# n x n float64 arrays a replay holds at its peak when its balls of radius t
# are one group, the whole set: a, a^t and the temporaries of the matrix
# power. An upper bound: every one of them is float32 wherever that holds a^t
# exactly. A replay whose stacked powers over smaller balls hold no n x n
# array is sized so too, until the power is taken from the nonzeros alone
_DENSE_ARRAYS = 4


def check_dense_chain(n: int) -> None:
    """Refuse, before anything is built, n states whose dense chain would not
    fit in physical memory."""
    check_physical_memory(_DENSE_ARRAYS * 8 * n * n, f"the dense n x n arrays of {n} states")
