"""Shared exception types.

Everything subclasses ValueError (or OSError passes through untouched) so
callers that only care about "bad input" can catch one thing, while the CLI
and tests can match the specific condition.
"""

from __future__ import annotations


class SubicapError(ValueError):
    """Base class for domain errors raised by this package."""


class CorpusFormatError(SubicapError):
    """A corpus line does not follow the id<TAB>caption format."""


class OutOfInventoryError(SubicapError):
    """Text contains a character the vocabulary cannot segment."""

    def __init__(self, char: str, position: int, message: str | None = None):
        self.char = char
        self.position = position
        super().__init__(
            message or f"character {char!r} at position {position} is not coverable"
        )


class OrphanContinuationError(SubicapError):
    """A continuation-marked piece appeared with no word in progress."""


class VocabFormatError(SubicapError):
    """A serialized vocabulary file is malformed."""


class CheckpointError(SubicapError):
    """A model checkpoint is malformed or inconsistent with its config."""


class TrainingDivergedError(SubicapError):
    """Training produced a non-finite loss."""
