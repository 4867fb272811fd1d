"""Design service: content-addressed caching + parallel batch generation.

The generator is positioned to run *in series* with DSE frameworks
(paper §VII-a), which means the same specs get regenerated over and
over.  This subsystem memoizes the frontend→backend flow behind a
canonical, hashable :class:`DesignRequest`, stores finished designs in a
content-addressed :class:`DesignCache`, and fans batches of requests
across a :class:`BatchEngine` worker pool.  The :mod:`repro.service.api`
façade is the single entry point the CLI, the DSE explorer, and the
benchmarks all route through.
"""

from .api import (cache_stats, clear_cache, explore_cached, export_trace,
                  generate_many, get_engine, list_backends, metrics_text,
                  submit)
from .cache import CacheStats, DesignCache
from .client import ServiceClient, ServiceError
from .engine import (BatchEngine, BatchPlan, PlanGroup, evaluate_archs,
                     model_fingerprint, requests_from_space)
from .faults import (FaultError, FaultRegistry, get_faults,
                     parse_fault_spec, reset_faults)
from .health import BackendHealth, CircuitBreaker, FleetHealth
from .jobs import Job, JobRegistry
from .persist import JobJournal
from .router import DesignRouter, RouterThread, route
from .server import (DesignServer, HttpServerBase, ServerOnThread,
                     ServerThread, serve)
from .spec import DesignRequest, DesignResult, execute_request

__all__ = [
    "DesignRequest", "DesignResult", "execute_request",
    "DesignCache", "CacheStats",
    "BatchEngine", "BatchPlan", "PlanGroup",
    "evaluate_archs", "requests_from_space", "model_fingerprint",
    "get_engine", "submit", "generate_many", "explore_cached",
    "cache_stats", "clear_cache", "list_backends",
    "metrics_text", "export_trace",
    "DesignServer", "HttpServerBase", "ServerOnThread", "ServerThread",
    "serve",
    "DesignRouter", "RouterThread", "route",
    "ServiceClient", "ServiceError",
    "Job", "JobRegistry", "JobJournal",
    "FaultError", "FaultRegistry", "get_faults", "parse_fault_spec",
    "reset_faults",
    "BackendHealth", "CircuitBreaker", "FleetHealth",
]
