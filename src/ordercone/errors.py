"""Shared exception types, and the JSON field readers that raise them.

The CLI's exit codes: usage problems 2, budget exhaustion or a declined
perturbation 3, a failed cross-check (CrossCheckError) 4.  A scan's
property violation is a certificate in the report, and the CLI exits 1.
"""


class OrderconeError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatchError(OrderconeError):
    """Operands belong to different groups."""


class UsageError(OrderconeError):
    """Malformed input: bad word text, bad descriptor, bad dimensions."""


class BudgetExceededError(OrderconeError):
    """A configured budget (steps, radius, frontier, precision) ran out."""


class PerturbationError(BudgetExceededError):
    """No admissible perturbation passed the exact checks before the delta
    schedule's precision floor or within the difference-witness radius.  A
    subclass of the budget error, exiting 3 on the CLI, but printed with no
    ``budget exhausted:`` prefix: no budget field raises these limits."""


class CertificateError(OrderconeError):
    """A construction that requires a convexity certificate was attempted
    without one, or with a certificate for a different cone or subgroup."""


class CrossCheckError(OrderconeError):
    """An exact verdict and its ball-search cross-check disagreed.  Neither
    answer is trusted; the operation fails loudly instead."""


def _field(data, key: str):
    """One field of a JSON descriptor, or UsageError if the payload is
    not an object or lacks the field."""
    if not isinstance(data, dict) or key not in data:
        raise UsageError(f"descriptor {data!r} has no {key!r} field")
    return data[key]


def _int_field(data, key: str) -> int:
    """An integer field; floats, strings and booleans are refused."""
    value = _field(data, key)
    if type(value) is not int:
        raise UsageError(f"descriptor field {key!r} must be an integer")
    return value
