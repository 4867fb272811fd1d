"""The staged pipeline's phase-name vocabulary, in one place.

``DesignResult.phases`` keys, the cache's phase/live-tier namespaces,
the ``repro_phase_seconds`` metric labels, and the trace span names all
draw from these constants, so the pipeline, the cache listings, and the
docs table can never drift apart.  (Before this module existed the same
strings were retyped ad hoc in three places in ``service/spec.py``.)
"""

from __future__ import annotations

__all__ = [
    "PHASE_ADG", "PHASE_SCHEDULE", "PHASE_EMIT", "PHASE_DESIGN_LOAD",
    "PHASE_DESIGN", "PHASE_SIM", "PIPELINE_PHASES", "CACHE_PHASE_TIERS",
]

#: front-end phase: dataflows -> architecture description graph
PHASE_ADG = "adg"
#: backend §V pass pipeline: ADG -> scheduled design
PHASE_SCHEDULE = "schedule"
#: emission phase: scheduled design -> backend-family artifacts
PHASE_EMIT = "emit"
#: reloading a cached scheduled design instead of re-scheduling
#: (appears in ``DesignResult.phases`` when the intermediate tier hit)
PHASE_DESIGN_LOAD = "design_load"
#: cache namespace of the serialized scheduled design
PHASE_DESIGN = "design"
#: cache namespace of one dataflow's golden simulation vectors
PHASE_SIM = "sim"

#: every wall-clock phase a cold ``execute_request`` can report
PIPELINE_PHASES = (PHASE_ADG, PHASE_SCHEDULE, PHASE_EMIT,
                   PHASE_DESIGN_LOAD)

#: the ``(phase, key)`` namespaces the cache's phase/live tiers store
CACHE_PHASE_TIERS = (PHASE_ADG, PHASE_DESIGN, PHASE_SIM)
