"""Restart-safe job journal: the serving tier's table on disk.

The in-memory :class:`~repro.service.jobs.JobRegistry` dies with the
process; this journal is how it survives.  Each job gets one JSON file
(``<dir>/<job id>.json``) holding its latest
:meth:`~repro.service.jobs.Job.to_dict` snapshot plus its submission
params — for an exploration, everything needed to replay it; every
transition overwrites it with the same atomic temp-file +
``os.replace`` discipline the design cache uses, so a reader (or a
rebooting server) never observes a partial record.

The journal is deliberately dumb: no log compaction, no cross-file
index, no locking.  One file per job means a transition costs one
atomic write, a forgotten job costs one unlink, and recovery is "read
the directory".  Recovery *policy* — which journaled states are
replayed after a crash — lives in :meth:`JobRegistry.restore`, not
here.

The server places the journal under the cache root
(``<root>/jobs/``), so "reboot on the same cache root" is all it takes
to recover both the designs and the job table that produced them.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import tempfile

__all__ = ["JobJournal", "JOURNAL_FORMAT"]

JOURNAL_FORMAT = "lego-job-journal-v1"

#: job ids are ``<kind>-<seq>-<hex>``; anything else (a hand-edited
#: journal, a path-traversal attempt) is refused rather than written
_SAFE_ID = re.compile(r"^[A-Za-z0-9._-]+$")


class JobJournal:
    """One directory of atomic per-job JSON records."""

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def path_for(self, job_id: str) -> pathlib.Path:
        if not _SAFE_ID.match(job_id):
            raise ValueError(f"unsafe job id for journal: {job_id!r}")
        return self.root / f"{job_id}.json"

    # -- write -------------------------------------------------------------

    def record(self, job_id: str, data: dict) -> None:
        """Persist *data* (a ``Job.to_dict`` + params snapshot) as the
        job's current journal record; last writer wins."""
        path = self.path_for(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"format": JOURNAL_FORMAT, "job": data},
                             sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def forget(self, job_id: str) -> None:
        """Drop a job's record (registry eviction of finished jobs)."""
        try:
            self.path_for(job_id).unlink()
        except (OSError, ValueError):
            pass

    # -- read --------------------------------------------------------------

    def load(self, job_id: str) -> dict | None:
        """The job's journaled snapshot, or None if absent/corrupt."""
        try:
            with open(self.path_for(job_id)) as fh:
                wrapper = json.load(fh)
        except (OSError, ValueError):
            return None
        if (isinstance(wrapper, dict)
                and wrapper.get("format") == JOURNAL_FORMAT
                and isinstance(wrapper.get("job"), dict)
                and wrapper["job"].get("id") == job_id):
            return wrapper["job"]
        return None

    def load_all(self) -> list[dict]:
        """Every readable journal record (corrupt files are skipped,
        never raised: recovery must always be allowed to proceed with
        whatever survived)."""
        if not self.root.is_dir():
            return []
        records = []
        for path in sorted(self.root.glob("*.json")):
            record = self.load(path.stem)
            if record is not None:
                records.append(record)
        return records

    def __len__(self) -> int:
        return len(self.load_all())
