"""Exception types shared across the package, and the text reader that raises one."""

from __future__ import annotations

from pathlib import Path


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
