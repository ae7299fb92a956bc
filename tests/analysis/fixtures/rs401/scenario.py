"""Seeded RS401 scenarios: opposite-order acquisitions at runtime.

Imported and executed by tests/analysis/test_sanitizer.py with the
sanitizer enabled (this module's name is in the tracked prefixes); the
static lint never sees this directory.
"""

import threading


def inversion() -> None:
    first = threading.Lock()
    second = threading.Lock()
    with first:
        with second:
            pass
    with second:
        with first:  # RS401: closes the observed a->b / b->a cycle
            pass


def inversion_after(churn: int) -> None:
    """The a->b half, then ``churn`` unrelated acquisitions, then b->a."""
    first = threading.Lock()
    second = threading.Lock()
    unrelated = threading.Lock()
    with first:
        with second:
            pass
    for _ in range(churn):
        with unrelated:
            pass
    with second:
        with first:  # RS401: the a->b edge must still be on record
            pass


def inversion_suppressed() -> None:
    first = threading.Lock()
    second = threading.Lock()
    with first:
        with second:  # analysis: ignore[RS401]
            pass
    with second:
        with first:  # analysis: ignore[RS401]
            pass


def nested_consistent() -> None:
    """Same nesting both times: no inversion, no finding."""
    outer = threading.Lock()
    inner = threading.Lock()
    with outer:
        with inner:
            pass
    with outer:
        with inner:
            pass
