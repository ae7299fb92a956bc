"""Seeded RA001: core reaching up into service (a layering back-edge)."""

from repro.service.query_service import QueryService


def peek() -> type:
    return QueryService
