"""Exception hierarchy shared by all modules.

Exit codes follow the CLI contract: 2 for bad input, 3 for numerical
failure, 4 for a violated internal invariant.
"""

import json


class FredK2Error(Exception):
    """Base class; carries the process exit code for the CLI."""

    exit_code = 1


class InputError(FredK2Error):
    """Malformed or out-of-contract input (files, parameters, degrees)."""

    exit_code = 2


class NumericalError(FredK2Error):
    """Failure of a numerical procedure: singularities, band overflow,
    non-converging refinement."""

    exit_code = 3


class WindingError(NumericalError):
    """A loop winds where winding zero is required, e.g. for an inverse."""


class InvariantViolation(FredK2Error):
    """An internal consistency assertion failed, e.g. a nonzero symbol
    where a zero symbol is structurally required."""

    exit_code = 4


def read_json(path):
    """The JSON document in the file at path, read as UTF-8 (RFC 8259); an
    unreadable file, bytes that are not UTF-8 or invalid JSON is an
    InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int past int's digit limit
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
