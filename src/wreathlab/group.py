"""Exact arithmetic in the wreath product of the integers with themselves.

An element is a pair (lamps, cursor): a finitely supported map from integer
positions to nonzero integer lamp values, plus an integer cursor. The product
places the right factor's lamps relative to the left factor's cursor:

    (f, x) * (g, y) = (z -> f(z) + g(z - x), x + y)

All arithmetic is exact (Python integers); canonical form never stores a zero
lamp, so equality is structural.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

from .errors import EncodingError, ValidationError

__all__ = [
    "LampConfig",
    "GroupElement",
    "IDENTITY",
    "multiply",
    "inverse",
    "canonical_generators",
    "generator_names",
    "encode",
    "decode",
    "element_from_text",
]


@dataclass(frozen=True, slots=True)
class LampConfig:
    """Finitely supported integer lamp assignment, sorted by position.

    entries is a tuple of (position, value) pairs with strictly increasing
    positions and nonzero values; this is the canonical form.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = None
        for position, value in self.entries:
            if value == 0:
                raise ValidationError(f"zero lamp value at position {position}")
            if last is not None and position <= last:
                raise ValidationError("lamp positions must be strictly increasing")
            last = position

    def value_at(self, position: int) -> int:
        for p, v in self.entries:
            if p == position:
                return v
            if p > position:
                break
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


EMPTY_LAMPS = LampConfig()


@dataclass(frozen=True, slots=True)
class GroupElement:
    """One element (lamps, cursor) of the wreath product."""

    lamps: LampConfig = EMPTY_LAMPS
    cursor: int = 0

    def __str__(self) -> str:
        return _to_text(self)


IDENTITY = GroupElement()


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law: b's lamps are shifted by a's cursor, cursors add."""
    merged = dict(a.lamps.entries)
    shift = a.cursor
    for position, value in b.lamps.entries:
        target = position + shift
        total = merged.get(target, 0) + value
        if total:
            merged[target] = total
        else:
            del merged[target]
    return GroupElement(LampConfig(tuple(sorted(merged.items()))), a.cursor + b.cursor)


def inverse(a: GroupElement) -> GroupElement:
    """The unique element with multiply(a, inverse(a)) == IDENTITY."""
    entries = tuple((p - a.cursor, -v) for p, v in a.lamps.entries)
    return GroupElement(LampConfig(entries), -a.cursor)


def canonical_generators() -> tuple[GroupElement, ...]:
    """The four standard generators, inverse-closed.

    Order: lamp increment at the cursor, lamp decrement, cursor step right,
    cursor step left. Right multiplication by a lamp generator bumps the lamp
    at the current cursor position.
    """
    up = GroupElement(LampConfig(((0, 1),)), 0)
    down = GroupElement(LampConfig(((0, -1),)), 0)
    right = GroupElement(EMPTY_LAMPS, 1)
    left = GroupElement(EMPTY_LAMPS, -1)
    return (up, down, right, left)


def generator_names() -> tuple[str, ...]:
    return ("lamp+", "lamp-", "move+", "move-")


def _to_text(a: GroupElement) -> str:
    if not a.lamps:
        return f"{a.cursor};"
    body = ", ".join(f"{p}:{v}" for p, v in a.lamps.entries)
    return f"{a.cursor}; {body}"


def encode(a: GroupElement) -> bytes:
    """Canonical serialization: the text form `k; p1:v1, p2:v2` as UTF-8.

    Equal elements encode identically; distinct canonical elements differ.
    """
    return _to_text(a).encode("utf-8")


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(token: str, what: str, offset: int) -> int:
    """An optional sign and ASCII digits, around which ASCII whitespace is ignored."""
    token = token.strip(string.whitespace)
    if not _INTEGER.fullmatch(token):
        raise EncodingError(f"{what} is not an integer", offset)
    return int(token)


def decode(data: bytes) -> GroupElement:
    """Inverse of encode. Raises EncodingError with a byte offset on bad input.

    Accepted grammar (ASCII; the whitespace of string.whitespace around
    tokens is ignored):
        cursor ";" [entry ("," entry)*]      entry = position ":" value
    where each integer is an optional sign and decimal digits. Positions must
    be strictly increasing and values nonzero, so every accepted input is
    already in canonical form.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid UTF-8", exc.start) from None
    if not text.isascii():
        # held to ASCII, a character index below is also a byte offset
        raise EncodingError("non-ASCII byte", next(i for i, byte in enumerate(data) if byte > 127))

    semi = text.find(";")
    if semi < 0:
        raise EncodingError("missing ';' after cursor", len(data))
    cursor = _integer(text[:semi], "cursor", 0)

    rest = text[semi + 1 :]
    if not rest.strip(string.whitespace):
        return GroupElement(EMPTY_LAMPS, cursor)

    entries: list[tuple[int, int]] = []
    last_position = None
    chunk_start = semi + 1
    for chunk in rest.split(","):
        colon = chunk.find(":")
        if colon < 0:
            raise EncodingError("lamp entry is missing ':'", chunk_start)
        position = _integer(chunk[:colon], "lamp position", chunk_start)
        value = _integer(chunk[colon + 1 :], "lamp value", chunk_start + colon + 1)
        if value == 0:
            raise EncodingError("lamp value must be nonzero", chunk_start + colon + 1)
        if last_position is not None and position <= last_position:
            raise EncodingError("lamp positions must be strictly increasing", chunk_start)
        last_position = position
        entries.append((position, value))
        chunk_start += len(chunk) + 1

    return GroupElement(LampConfig(tuple(entries)), cursor)


def element_from_text(text: str) -> GroupElement:
    """Convenience wrapper for CLI flags and tests."""
    return decode(text.encode("utf-8"))
