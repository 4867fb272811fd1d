"""Design service: content-addressed caching + parallel batch generation.

The generator is positioned to run *in series* with DSE frameworks
(paper §VII-a), which means the same specs get regenerated over and
over.  This subsystem memoizes the frontend→backend flow behind a
canonical, hashable :class:`DesignRequest`, stores finished designs in a
content-addressed :class:`DesignCache`, and fans batches of requests
across a :class:`BatchEngine` worker pool.  Library users build their
own engine — ``BatchEngine(cache=DesignCache())`` — exactly as the CLI
does; ``repro serve`` puts one behind HTTP.
"""

from .._lazy import lazy_exports

# Public name -> the submodule it is imported from on first use:
# ``repro.service.client`` must not load the generator, and a router or
# a DSE sweep must not load the server (docs/architecture.md, "Import
# layers").
_EXPORTS = {
    "DesignRequest": ".spec", "DesignResult": ".spec",
    "execute_request": ".spec",
    "DesignCache": ".cache", "CacheStats": ".cache",
    "BatchEngine": ".engine", "BatchPlan": ".engine",
    "PlanGroup": ".engine", "evaluate_archs": ".engine",
    "requests_from_space": ".engine", "model_fingerprint": ".engine",
    "DesignServer": ".server", "HttpServerBase": ".server",
    "ServerOnThread": ".server", "ServerThread": ".server",
    "serve": ".server",
    "DesignRouter": ".router", "RouterThread": ".router", "route": ".router",
    "ServiceClient": ".client", "ServiceError": ".client",
    "Job": ".jobs", "JobRegistry": ".jobs", "JobJournal": ".persist",
    "FaultError": ".faults", "FaultRegistry": ".faults",
    "get_faults": ".faults", "parse_fault_spec": ".faults",
    "reset_faults": ".faults",
    "BackendHealth": ".health", "CircuitBreaker": ".health",
    "FleetHealth": ".health",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
