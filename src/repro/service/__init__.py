"""The serving layer: cache, admission control, metrics, HTTP front end.

Turns the in-process :class:`~repro.core.XKeyword` engine into a
long-lived query service (``python -m repro serve``).  Service logic —
the one session every search is served through, mutations, health and
metrics — lives in :mod:`repro.service.query_service`; the HTTP/SSE
transport (route table, response writer, error map) in
:mod:`repro.service.server`.  One service serves one database for the
life of the process, on the engine's default ``sql`` backend (neither a
deployment nor a request can pick another); the only state that outlives
a query is the :class:`QueryCache`, whose entries are valid only under
the mutation epoch they were computed at.
"""

from .admission import (
    AdmissionController,
    AdmissionStats,
    DeadlineExceededError,
    RejectedError,
)
from .cache import CacheStats, QueryCache, query_cache_key
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .singleflight import Flight, SingleFlight
from .query_service import QueryService, ServiceConfig
from .server import XKeywordHTTPServer, create_server, serve

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CacheStats",
    "Counter",
    "DeadlineExceededError",
    "Flight",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryCache",
    "QueryService",
    "RejectedError",
    "ServiceConfig",
    "SingleFlight",
    "XKeywordHTTPServer",
    "create_server",
    "query_cache_key",
    "serve",
]
