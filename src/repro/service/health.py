"""Fleet health: one tracker per backend, the probe schedule, retry backoff.

Every backend the router knows about gets a :class:`BackendHealth`
tracker fed from two directions: the request path (every forward
records its transport success/failure) and the router's prober task
(:func:`probe_forever`: a periodic ``GET /healthz`` per backend).  The
tracker folds both into a three-state machine:

``up``
    breaker closed and the last probe answered.
``degraded``
    something is off — probe failing but breaker not yet tripped, or
    breaker half-open mid-recovery.  Traffic is still attempted.
``down``
    breaker open: consecutive transport failures hit the threshold.
    Requests skip this backend until a half-open probe succeeds.

The breaker is the classic three-state machine: ``closed`` → (K
consecutive failures) → ``open`` → (cooldown expires, one trial
request allowed) → ``half_open`` → ``closed`` on success or back to
``open`` (with doubled cooldown) on failure.  Cooldowns start at a
quarter of the probe interval and are capped at the interval, so a
revived backend is re-admitted within one probe interval — the
prober's success closes the breaker even when no client traffic is
flowing.  Trackers and prober live on the router's event loop, so
nothing here takes a lock.

Exported metrics: ``repro_backend_state{backend}`` (2=up, 1=degraded,
0=down; set when the state changes) and
``repro_breaker_transitions_total{backend,to}``.
"""

from __future__ import annotations

import asyncio
import random
import time

from ..obs import get_registry
from .wire import ProtocolError

__all__ = ["BackendHealth", "backoff_delays", "classify_error",
           "probe_forever"]

_BREAKER_TRANSITIONS = get_registry().counter(
    "repro_breaker_transitions_total",
    "circuit-breaker state transitions, by backend and entered state",
    ("backend", "to"))
_BACKEND_STATE = get_registry().gauge(
    "repro_backend_state",
    "per-backend fleet state: 2=up, 1=degraded, 0=down", ("backend",))

STATE_VALUES = {"up": 2.0, "degraded": 1.0, "down": 0.0}


def classify_error(exc: BaseException) -> str:
    """Name the transport-failure class for error payloads and the
    ``repro_router_retries_total{reason}`` label."""
    if isinstance(exc, ConnectionRefusedError):
        return "refused"
    if isinstance(exc, (ConnectionResetError, BrokenPipeError,
                        ConnectionAbortedError)):
        return "reset"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, ProtocolError):
        return "protocol"
    if isinstance(exc, OSError):
        return "os_error"
    return "error"


def backoff_delays(base_s: float = 0.05, max_s: float = 2.0,
                   factor: float = 2.0):
    """Infinite generator of jittered exponential backoff delays
    (0.5x–1.5x jitter so synchronized retriers fan out)."""
    delay = base_s
    while True:
        yield delay * (0.5 + random.random())
        delay = min(max_s, delay * factor)


class BackendHealth:
    """Circuit breaker plus last-probe verdict for one backend URL;
    breaker cooldowns derive from the router's probe interval."""

    def __init__(self, url: str, threshold: int = 3,
                 probe_interval_s: float = 1.0):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.url = url
        self.threshold = threshold
        self.probe_interval_s = probe_interval_s
        self.breaker = "closed"
        self.failures = 0  # consecutive transport failures
        self.probe_ok = True  # optimistic until the first verdict
        self.last_error: str | None = None
        self.state: str | None = None
        self._trips = 0    # consecutive open transitions, for backoff
        self._retry_at = 0.0
        self._settle()

    def _settle(self) -> None:
        """Re-derive :attr:`state`; export the gauge when it moved."""
        if self.breaker == "open":
            state = "down"
        elif self.breaker == "closed" and self.probe_ok:
            state = "up"
        else:
            state = "degraded"
        if state != self.state:
            self.state = state
            _BACKEND_STATE.labels(backend=self.url).set(STATE_VALUES[state])

    def _transition(self, to: str) -> None:
        self.breaker = to
        _BREAKER_TRANSITIONS.labels(backend=self.url, to=to).inc()
        if to == "open":
            self._trips += 1
            interval = self.probe_interval_s
            cooldown = min(interval, interval / 4 * 2 ** (self._trips - 1))
            self._retry_at = time.monotonic() + cooldown

    def allows(self) -> bool:
        """May a request be sent now?  An expired-cooldown call flips
        open → half_open and admits exactly one trial request."""
        if self.breaker == "closed":
            return True
        if self.breaker == "open" and time.monotonic() >= self._retry_at:
            self._transition("half_open")
            self._settle()
            return True
        return False

    def record(self, ok: bool, error: str | None = None) -> None:
        """Fold one transport (or probe) verdict into the breaker."""
        self.probe_ok = ok
        if ok:
            self.last_error = None
            self.failures = 0
            self._trips = 0
            if self.breaker != "closed":
                self._transition("closed")
        else:
            if error is not None:
                self.last_error = error
            self.failures += 1
            if self.breaker == "half_open" or (
                    self.breaker == "closed"
                    and self.failures >= self.threshold):
                self._transition("open")
        self._settle()

    def to_dict(self) -> dict:
        out = {"state": self.state,
               "breaker": {"state": self.breaker,
                           "failures": self.failures}}
        if self.last_error:
            out["last_error"] = self.last_error
        return out


async def probe_forever(probe, count: int, interval: float) -> None:
    """Run ``await probe(index) -> bool`` for backends ``0..count-1``
    until cancelled: each one every *interval*, all due ones at once.
    While a backend is failing its probes back off exponentially from
    ``interval / 4`` up to the interval itself (fast confirmation of a
    blip, steady-state cost bounded) — so a revived backend is marked
    ``up`` within one probe interval of coming back."""
    next_due = [0.0] * count  # probe everyone immediately at start
    backoff = [interval] * count
    while True:
        now = time.monotonic()
        due = [index for index in range(count) if next_due[index] <= now]
        verdicts = await asyncio.gather(*map(probe, due))
        for index, ok in zip(due, verdicts):
            if ok:
                backoff[index] = interval
            elif backoff[index] >= interval:
                backoff[index] = interval / 4
            else:
                backoff[index] = min(interval, backoff[index] * 2)
            next_due[index] = time.monotonic() + backoff[index]
        await asyncio.sleep(max(min(next_due) - time.monotonic(), 0.01))
