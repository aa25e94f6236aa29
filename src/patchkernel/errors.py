"""Exception types shared across the package, and the readers that raise one.

KDESC, KMDL and KIDX share one container: a 4-byte magic, a u32 version at
byte offset 4, u32 header fields from offset 8, and an exact length.
"""

from __future__ import annotations

from pathlib import Path
from struct import Struct
from typing import Callable


class FormatError(ValueError):
    """Raised when a binary or CSV artifact cannot be parsed.

    Messages for binary formats name the byte offset of the failure.
    """


class TrainingError(RuntimeError):
    """Raised when a model cannot be trained from the given data."""


class StageError(Exception):
    """An error attributed to a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.message = message


def read_utf8(path: str | Path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise a FormatError
    naming the path and the byte offset."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc


def check_header(
    path: Path, data: bytes, header: Struct, magic: bytes, version: int,
    nonzero: tuple[str, ...], may_be_empty: bool = False,
) -> list[int]:
    """The header fields at the start of `data`; refuses a short header,
    another magic or version, and a 0 in the leading fields that `nonzero`
    names, unless `may_be_empty` and the last field, the entry count, is 0."""
    if len(data) < header.size:
        raise FormatError(f"{path}: truncated header at byte offset {len(data)}")
    found, found_version, *fields = header.unpack_from(data)
    if found != magic:
        raise FormatError(f"{path}: bad magic at byte offset 0")
    if found_version != version:
        raise FormatError(f"{path}: unsupported version {found_version} at byte offset 4")
    for i, (name, value) in enumerate(zip(nonzero, fields)):
        if value == 0 and not (may_be_empty and fields[-1] == 0):
            raise FormatError(f"{path}: {name} is 0 at byte offset {8 + 4 * i}")
    return fields


def check_length(path: Path, size: int, expected: int) -> None:
    """Refuse a container whose `size` in bytes is not exactly `expected`."""
    if size != expected:
        problem = "truncated" if size < expected else "trailing bytes"
        at = min(size, expected)
        raise FormatError(f"{path}: expected {expected} bytes, {problem} at byte offset {at}")


def refuse_first(path: Path, bad, describe: Callable[[int], tuple[str, int]]) -> None:
    """Refuse the first set entry of the mask `bad`, if any; describe(i) gives
    the problem of flat entry i and its byte offset."""
    if bad.any():
        problem, offset = describe(int(bad.argmax()))
        raise FormatError(f"{path}: {problem} at byte offset {offset}")
