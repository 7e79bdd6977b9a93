"""Exception hierarchy shared across faaslab modules, and the file and
JSON readers that report bad input documents with it."""

from __future__ import annotations

import json
import sys
from typing import Any, Callable


class FaaslabError(Exception):
    """Base class for all faaslab errors."""


# --- workflow declaration errors ---------------------------------------

class WorkflowSyntaxError(FaaslabError):
    """The workflow document is not well-formed JSON."""


class SchemaError(FaaslabError):
    """A workflow field is missing, ill-typed, or unknown.

    `path` is a dotted field path such as "stages[1].options.ratio".
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class SemanticError(FaaslabError):
    """The workflow parses but violates a structural invariant."""


def read_utf8(path: str) -> str:
    """The text of the file at `path`; a file that is not UTF-8 text
    raises SchemaError naming it. OSError propagates."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(path, f"file is not UTF-8 text: {exc}") from exc


def load_json(text: str, noun: str, error: Callable[[str], FaaslabError]) -> Any:
    """json.loads(text); a document that does not parse raises
    error(reason), the reason naming the document as `noun`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{noun} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{noun} is nested too deeply to parse") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise error(
            f"{noun} holds an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


# --- blob store errors --------------------------------------------------

class StoreError(FaaslabError):
    """Base class for object store failures."""


class NotFound(StoreError):
    """The requested key does not exist."""


class RangeError(StoreError):
    """A byte range exceeds the object bounds."""


class CapacityError(StoreError):
    """The CLI's store directory has no space left."""


# --- analytic model errors ----------------------------------------------

class DomainError(FaaslabError):
    """A model operation received an out-of-domain argument."""


# --- methylation pipeline errors ------------------------------------------

class ParseError(FaaslabError):
    """A record line could not be parsed.

    `column` is 1-based; 0 means the failure is not tied to one column.
    """

    def __init__(self, column: int, reason: str):
        self.column = column
        self.reason = reason
        super().__init__(f"column {column}: {reason}")


class UnsortedInput(FaaslabError):
    """encode_block received records out of sort order."""


class Overflow(FaaslabError):
    """A field value does not fit the codec's varint bounds."""


class BadMagic(FaaslabError):
    """Payload does not start with the codec magic bytes."""


class ChecksumMismatch(FaaslabError):
    """Encoded block checksum does not match its payload."""


class Truncated(FaaslabError):
    """Encoded block ends before all declared data was read."""


# --- shuffle errors -------------------------------------------------------

class MissingPartition(StoreError):
    """A reducer's expected partition object is absent."""


# --- execution errors -----------------------------------------------------

class ValidationError(FaaslabError):
    """A workflow spec failed validation before execution."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class TaskError(FaaslabError):
    """A worker task failed; carries the worker index and the phase."""

    def __init__(self, worker: int, cause: BaseException, phase: str):
        self.worker = worker
        self.cause = cause
        self.phase = phase
        super().__init__(f"worker {worker} in {phase}: {cause!r}")


class MemoryBudgetError(FaaslabError):
    """A task would exceed its memory budget."""


class ExecutionError(FaaslabError):
    """A stage failed; names the stage and wraps the task failure."""

    def __init__(self, stage_id: str, cause: BaseException):
        self.stage_id = stage_id
        self.cause = cause
        super().__init__(f"stage {stage_id!r} failed: {cause}")
