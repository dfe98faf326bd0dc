"""Exception hierarchy shared across the toolkit.

Each class is kept because some code tells it apart from the others:

* ``InputError``: malformed, unreadable or incomplete input; the CLI
  exits 1 (``cli.main``);
* ``ParseError``: an ``InputError`` whose ``line`` and ``column`` name
  where the bad token sits, in the message and as attributes;
* ``InvariantViolation``: well-formed data that breaks a domain rule;
  the CLI exits 2 (``cli.main``);
* ``DegenerateConfiguration``: an ``InvariantViolation`` for points that
  determine no similarity, which ``align.umeyama`` raises so that a
  caller can tell a rejected fit from other domain errors.
"""

from __future__ import annotations


class TrajkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(TrajkitError):
    """Malformed, unreadable, or incomplete input."""


class ParseError(InputError):
    """A token or line of an input stream could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class InvariantViolation(TrajkitError):
    """Structurally valid data that violates a domain invariant."""


class DegenerateConfiguration(InvariantViolation):
    """Points that determine no similarity, such as coincident or collinear sources."""
