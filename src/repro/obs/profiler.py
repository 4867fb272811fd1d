"""Stdlib sampling profiler: wall-clock stack sampling, flamegraph-ready.

For the length of one timed capture (:func:`profile_for`), a daemon
thread wakes at a configurable rate (default ~67 Hz — an odd frequency
so samples do not phase-lock with common 10 ms/100 ms timer loops),
snapshots every thread's Python stack via ``sys._current_frames()``,
and accumulates collapsed call stacks (Brendan Gregg's flamegraph input
format: ``frame;frame;frame count``).  Nothing is installed per-call,
so the only cost to the profiled code is the GIL time the sampler
thread steals while the capture runs.

Samples are attributed to the innermost open trace span on the sampled
thread (see :func:`repro.obs.tracing.active_spans`), so the per-phase
CPU split (``by_phase``) answers "*why* is ``schedule`` slow" rather
than just "schedule is slow".

Two surfaces share this module: ``GET /debug/profile[?seconds=N]`` on
a server (the router fans the capture across backends and merges) and
``repro profile [--url]`` on the CLI.

>>> p = Profile.from_dict({"hz": 50, "wall_s": 1.0, "samples": 2,
...     "idle_samples": 0, "stacks": {"a;b": 2}, "by_phase": {"emit": 2}})
>>> p.collapsed()
'a;b 2'
>>> p.top(1)[0]["frame"], p.top(1)[0]["self"]
('b', 2)
"""

from __future__ import annotations

import pathlib
import sys
import threading
import time

from .tracing import active_spans

__all__ = ["Profile", "SamplingProfiler", "profile_for", "DEFAULT_HZ"]

DEFAULT_HZ = 67.0
_MAX_DEPTH = 64
_MAX_STACKS = 20_000
_TRUNCATED = "(truncated)"

#: leaf function names that mean "this thread is parked, not burning
#: CPU" — event loops in select, executors waiting on queues, our own
#: sampler sleeping.  They are counted separately as ``idle_samples``.
_IDLE_LEAVES = frozenset({
    "select", "poll", "epoll", "kqueue", "accept", "wait", "_wait",
    "acquire", "get", "recv", "recv_into", "read", "readinto",
    "readline", "sleep", "settimeout", "park", "_recv_bytes",
})


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{pathlib.PurePath(code.co_filename).stem}.{code.co_name}"


class Profile:
    """An accumulated set of stack samples.

    ``stacks`` maps a collapsed stack string (root-first,
    ``;``-joined) to its sample count; ``by_phase`` maps trace-span
    names to the samples taken while that span was the innermost open
    one on the sampled thread ("(no span)" otherwise).
    """

    def __init__(self, hz: float, stacks: dict | None = None,
                 by_phase: dict | None = None, samples: int = 0,
                 idle_samples: int = 0, wall_s: float = 0.0):
        self.hz = hz
        self.stacks: dict[str, int] = dict(stacks or {})
        self.by_phase: dict[str, int] = dict(by_phase or {})
        self.samples = samples
        self.idle_samples = idle_samples
        self.wall_s = wall_s

    def collapsed(self, include_idle: bool = False) -> str:
        """Flamegraph input: one ``frame;frame;... count`` line per
        distinct stack, busiest first.  Feed to ``flamegraph.pl`` or
        paste into https://www.speedscope.app (collapsed format)."""
        lines = []
        for stack, count in sorted(self.stacks.items(),
                                   key=lambda kv: (-kv[1], kv[0])):
            if not include_idle and self._is_idle(stack):
                continue
            lines.append(f"{stack} {count}")
        return "\n".join(lines)

    @staticmethod
    def _is_idle(stack: str) -> bool:
        leaf = stack.rsplit(";", 1)[-1]
        return leaf.rsplit(".", 1)[-1] in _IDLE_LEAVES

    def top(self, n: int = 20, include_idle: bool = False) -> list[dict]:
        """Hottest frames: ``self`` counts samples with the frame on
        top of the stack, ``total`` counts samples with it anywhere."""
        self_c: dict[str, int] = {}
        total_c: dict[str, int] = {}
        for stack, count in self.stacks.items():
            if not include_idle and self._is_idle(stack):
                continue
            frames = stack.split(";")
            self_c[frames[-1]] = self_c.get(frames[-1], 0) + count
            for frame in set(frames):
                total_c[frame] = total_c.get(frame, 0) + count
        ranked = sorted(total_c,
                        key=lambda f: (-self_c.get(f, 0), -total_c[f], f))
        return [{"frame": f, "self": self_c.get(f, 0),
                 "total": total_c[f]} for f in ranked[:n]]

    def merge(self, other: "Profile") -> "Profile":
        """Fold *other* into self (cross-backend fleet merges)."""
        for stack, count in other.stacks.items():
            self.stacks[stack] = self.stacks.get(stack, 0) + count
        for phase, count in other.by_phase.items():
            self.by_phase[phase] = self.by_phase.get(phase, 0) + count
        self.samples += other.samples
        self.idle_samples += other.idle_samples
        self.wall_s = max(self.wall_s, other.wall_s)
        return self

    def to_dict(self, top_n: int = 30) -> dict:
        return {"hz": self.hz, "wall_s": round(self.wall_s, 3),
                "samples": self.samples, "idle_samples": self.idle_samples,
                "stacks": dict(self.stacks),
                "by_phase": dict(self.by_phase),
                "top": self.top(top_n)}

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        return cls(hz=float(data.get("hz", DEFAULT_HZ)),
                   stacks=data.get("stacks") or {},
                   by_phase=data.get("by_phase") or {},
                   samples=int(data.get("samples", 0)),
                   idle_samples=int(data.get("idle_samples", 0)),
                   wall_s=float(data.get("wall_s", 0.0)))


class SamplingProfiler:
    """The daemon sampler of one capture: ``start()``, ``stop()``, then
    ``snapshot()``.  Bounded: at most ``max_stacks`` distinct stacks are
    kept, further novel stacks aggregate under ``(truncated)``."""

    max_stacks = _MAX_STACKS

    def __init__(self, hz: float = DEFAULT_HZ, exclude_idents=()):
        self.hz = max(1.0, min(1000.0, float(hz)))
        #: thread idents never sampled (e.g. the thread blocked in
        #: ``profile_for``'s sleep — a builtin, so its Python leaf frame
        #: would otherwise masquerade as hot).
        self.exclude_idents = set(exclude_idents)
        self._stacks: dict[str, int] = {}
        self._by_phase: dict[str, int] = {}
        self._samples = 0
        self._idle = 0
        self._started_at = 0.0
        self._wall_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-profiler")

    def start(self) -> "SamplingProfiler":
        self._started_at = time.perf_counter()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self._wall_s = time.perf_counter() - self._started_at

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self._sample_once()

    def _sample_once(self) -> None:
        own = threading.get_ident()
        frames = sys._current_frames()
        phases = active_spans()
        for ident, frame in frames.items():
            if ident == own or ident in self.exclude_idents:
                continue
            stack = []
            depth = 0
            while frame is not None and depth < _MAX_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()
            key = ";".join(stack)
            if key not in self._stacks and \
                    len(self._stacks) >= self.max_stacks:
                key = _TRUNCATED
            self._stacks[key] = self._stacks.get(key, 0) + 1
            phase = phases.get(ident, "(no span)")
            self._by_phase[phase] = self._by_phase.get(phase, 0) + 1
            self._samples += 1
            if Profile._is_idle(key):
                self._idle += 1

    def snapshot(self) -> Profile:
        """The profile of the capture (read it after ``stop()``)."""
        return Profile(self.hz, dict(self._stacks), dict(self._by_phase),
                       self._samples, self._idle, self._wall_s)


def profile_for(seconds: float, hz: float = DEFAULT_HZ) -> Profile:
    """Blocking capture: sample every thread for *seconds*, return the
    :class:`Profile` — what ``GET /debug/profile`` runs on an executor
    thread."""
    profiler = SamplingProfiler(
        hz=hz, exclude_idents=(threading.get_ident(),))
    profiler.start()
    time.sleep(max(0.0, seconds))
    profiler.stop()
    return profiler.snapshot()
