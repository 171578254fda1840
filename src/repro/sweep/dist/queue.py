"""Shared-directory work queue with leases, retries, and quarantine.

The queue is a directory tree that any number of processes — on one
host or many, via a shared filesystem — mutate concurrently with no
server and no locks. Every task is a single JSON file whose *location*
encodes its state::

    <root>/queue.json        protocol parameters (manifest)
    <root>/pending/<id>.json waiting to be claimed
    <root>/leases/<id>.json  claimed; mtime is the lease heartbeat
    <root>/done/<id>.json    completed, metrics attached
    <root>/failed/<id>.json  quarantined after max_attempts claims
    <root>/corrupt/          unreadable files moved aside, kept for audit
    <root>/closed            campaign-complete marker (workers exit;
                             the next campaign's coordinator reopens)

Correctness rests on two filesystem guarantees only: ``os.replace`` is
atomic within a directory tree, and a file's mtime can be refreshed
with ``os.utime``. Three rules follow:

* **Claims are atomic moves.** A worker claims a task by
  ``os.replace(pending/<id>, leases/<id>)``; exactly one racer wins,
  the losers see ``FileNotFoundError`` and move on.
* **Publishes are atomic.** Every record is written by
  :func:`repro.persist.publish`: a hidden ``.*.tmp`` sibling renamed
  into place, so a writer crashing mid-write leaves an orphan the
  scans never match (state scans glob ``*.json`` only) — never a torn
  record. A record is state, not a cache, so a failed write raises.
* **Transitions write the destination before removing the source.**
  ``complete``/``fail``/``reap`` may therefore leave a task briefly
  visible in two directories if the writer dies in between; a task is
  *never* in zero directories. Readers resolve duplicates by
  precedence (done > failed > leased > pending) and ``claim`` deletes
  a stale pending copy of an already-terminal task.

The scheme is exactly-once-*effective*, not exactly-once-executed: a
lease that expires while its worker is merely slow (not dead) lets a
second worker recompute the same point. That is safe because points
are deterministic functions of their payload and results land in the
content-addressed :class:`~repro.sweep.cache.ResultCache` — duplicate
execution wastes cycles but cannot change any answer. See DESIGN.md
§10 for the full crash matrix.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.persist import publish

#: Task-record layout version; bumped on incompatible change.
RECORD_SCHEMA = 1

#: The four task states a scan can report, in claim-precedence order
#: (later entries win when a crash window leaves a duplicate).
TASK_STATES = ("pending", "leased", "failed", "done")


class QueueError(RuntimeError):
    """A malformed queue directory or protocol violation."""


#: Uniquifies the names of files moved aside into ``corrupt/``.
_QUARANTINE_SEQUENCE = itertools.count()


def _write_json(path: Path, record: dict, *,
                exclusive: bool = False) -> bool:
    """Publish ``record`` at ``path`` (see :func:`repro.persist.publish`
    for ``exclusive`` and the return value)."""
    data = json.dumps(record, sort_keys=True).encode()
    return publish(path, lambda handle: handle.write(data),
                   exclusive=exclusive)


def _publish_exclusive(path: Path, record: dict) -> bool:
    """Create ``path`` only if nothing exists there yet: unlike a
    replace it never overwrites, so two racing creators cannot each
    install their own copy. Returns True if this call published."""
    return _write_json(path, record, exclusive=True)


def _read_json(path: Path) -> dict | None:
    """Read a task record; any failure — missing file, torn or
    truncated JSON, wrong schema — reads as None (the caller
    quarantines or skips)."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict):
        return None
    if record.get("schema") != RECORD_SCHEMA:
        return None
    if not isinstance(record.get("point"), dict):
        return None
    return record


@dataclass(frozen=True)
class Task:
    """A claimed task: the payload to compute plus claim accounting."""

    id: str
    payload: dict
    attempts: int


class FileQueue:
    """One campaign's task files under a shared directory.

    The first process to construct the queue writes the manifest;
    every later construction **adopts the manifest's parameters** (the
    directory owns the protocol — lease TTL, retry budget, backoff,
    cache location — so a fleet never runs with mixed settings).
    """

    def __init__(self, root: str | os.PathLike, *,
                 lease_ttl_s: float = 30.0,
                 max_attempts: int = 3,
                 backoff_base_s: float = 0.25,
                 backoff_cap_s: float = 30.0,
                 cache_dir: str | None = None) -> None:
        if lease_ttl_s <= 0:
            raise QueueError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
        if max_attempts < 1:
            raise QueueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.pending_dir = self.root / "pending"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        self.corrupt_dir = self.root / "corrupt"
        for directory in (self.pending_dir, self.leases_dir, self.done_dir,
                          self.failed_dir, self.corrupt_dir):
            directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.root / "queue.json"
        manifest = _read_json_manifest(manifest_path)
        if manifest is None:
            candidate = {
                "schema": RECORD_SCHEMA,
                "lease_ttl_s": float(lease_ttl_s),
                "max_attempts": int(max_attempts),
                "backoff_base_s": float(backoff_base_s),
                "backoff_cap_s": float(backoff_cap_s),
                "cache_dir": cache_dir,
            }
            # Exclusive create: exactly one racing creator publishes;
            # every loser re-reads and adopts the winner's parameters,
            # so the fleet can never run with mixed TTLs or budgets.
            if _publish_exclusive(manifest_path, candidate):
                manifest = candidate
            else:
                manifest = _read_json_manifest(manifest_path)
        if manifest is None:
            raise QueueError(
                f"unreadable queue manifest at {manifest_path} — the "
                f"directory's protocol parameters are unknown; move "
                f"the file aside or start a fresh queue directory")
        self.lease_ttl_s = float(manifest["lease_ttl_s"])
        self.max_attempts = int(manifest["max_attempts"])
        self.backoff_base_s = float(manifest["backoff_base_s"])
        self.backoff_cap_s = float(manifest["backoff_cap_s"])
        self.cache_dir = manifest.get("cache_dir")

    @classmethod
    def open(cls, root: str | os.PathLike) -> "FileQueue":
        """Attach to an existing queue; raise if no manifest yet."""
        manifest = _read_json_manifest(Path(root) / "queue.json")
        if manifest is None:
            raise QueueError(
                f"no queue manifest at {os.path.join(root, 'queue.json')} "
                f"(start the coordinator first, or pass its --queue-dir)")
        return cls(root)

    # -- enqueue -------------------------------------------------------
    def _base_record(self, task_id: str, payload: dict) -> dict:
        return {"schema": RECORD_SCHEMA, "id": task_id, "point": payload,
                "attempts": 0, "failures": 0, "expiries": 0,
                "not_before": 0.0, "worker": None, "error": None}

    def enqueue(self, task_id: str, payload: dict) -> bool:
        """Add a task unless it already exists in any state."""
        if self.state_of(task_id) is not None:
            return False
        _write_json(self.pending_dir / f"{task_id}.json",
                    self._base_record(task_id, payload))
        return True

    def ensure(self, payloads: dict[str, dict]) -> int:
        """Enqueue every task id not present anywhere (resume /
        corrupt-file recovery); returns how many were (re-)enqueued."""
        states = self.states()
        added = 0
        for task_id, payload in sorted(payloads.items()):
            if task_id not in states:
                _write_json(self.pending_dir / f"{task_id}.json",
                            self._base_record(task_id, payload))
                added += 1
        return added

    # -- claim / heartbeat --------------------------------------------
    def claim(self, worker: str) -> Task | None:
        """Atomically claim one eligible pending task, or None.

        Eligible means readable, past its retry backoff, and not
        already terminal (a stale pending duplicate left by a
        crash-window transition is deleted here instead of re-run).
        """
        now = time.time()
        for path in self._scan(self.pending_dir):
            task_id = path.stem
            if self._is_terminal(task_id):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
                continue
            record = _read_json(path)
            if record is None:
                self._quarantine_corrupt(path)
                continue
            if record.get("not_before", 0) > now:
                continue
            lease = self.leases_dir / path.name
            try:
                os.replace(path, lease)
            except FileNotFoundError:
                continue  # lost the claim race; try the next task
            # os.replace preserves mtime: without this touch a task
            # that sat pending longer than the TTL would be reaped the
            # instant it was claimed.
            try:
                os.utime(lease)
            except FileNotFoundError:
                continue  # reaped between replace and utime (tiny TTL)
            # The file we just moved is the authoritative record:
            # between our pending read and winning the replace, a racer
            # can claim, fail, and re-enqueue the task, and writing the
            # stale pre-claim copy back would roll back its
            # attempts/failures accounting — letting a poison point
            # outlive the quarantine budget. Keep the earlier read only
            # if the lease is unreadable.
            record = _read_json(lease) or record
            record["attempts"] = int(record.get("attempts", 0)) + 1
            record["worker"] = worker
            _write_json(lease, record)
            return Task(id=task_id, payload=record["point"],
                        attempts=record["attempts"])
        return None

    def renew(self, task_id: str) -> bool:
        """Heartbeat: refresh the lease mtime. False = lease lost
        (expired and reaped, or completed elsewhere)."""
        try:
            os.utime(self.leases_dir / f"{task_id}.json")
        except FileNotFoundError:
            return False
        return True

    # -- transitions ---------------------------------------------------
    def complete(self, task: Task, metrics: dict, *,
                 cached: bool = False, worker: str | None = None) -> None:
        """Publish the result, then release the lease.

        Destination-before-source: a crash between the two writes
        leaves the task both done and leased; ``done`` wins every scan
        and the stale lease is reaped harmlessly later.
        """
        # Preserve the lease record's accumulated counters (attempts,
        # failures, expiries) — stats() reconstructs fleet history from
        # terminal records, so completion must not zero them.
        record = _read_json(self.leases_dir / f"{task.id}.json")
        if record is None:  # lease reaped or corrupted mid-compute
            record = self._base_record(task.id, task.payload)
            record["attempts"] = task.attempts
        record.update(worker=worker, status="ok", metrics=metrics,
                      cached=cached)
        _write_json(self.done_dir / f"{task.id}.json", record)
        self._release(task.id)

    def fail(self, task: Task, error: str, *,
             worker: str | None = None) -> str:
        """Record a failed attempt: requeue with capped exponential
        backoff, or quarantine once the claim budget is spent.

        Returns ``"retry"`` or ``"quarantined"``.
        """
        lease = self.leases_dir / f"{task.id}.json"
        record = _read_json(lease)
        if record is None:  # lease corrupted or reaped mid-compute
            record = self._base_record(task.id, task.payload)
            record["attempts"] = task.attempts
        record["failures"] = int(record.get("failures", 0)) + 1
        record["worker"] = worker
        record["error"] = error
        if record["attempts"] >= self.max_attempts:
            record["status"] = "failed"
            _write_json(self.failed_dir / f"{task.id}.json", record)
            self._release(task.id)
            return "quarantined"
        delay = min(self.backoff_cap_s,
                    self.backoff_base_s * 2 ** (record["failures"] - 1))
        record["not_before"] = time.time() + delay
        _write_json(self.pending_dir / f"{task.id}.json", record)
        self._release(task.id)
        return "retry"

    def _release(self, task_id: str) -> None:
        try:
            os.remove(self.leases_dir / f"{task_id}.json")
        except FileNotFoundError:
            pass  # reaped (or released by a racing reaper) already

    # -- reaping -------------------------------------------------------
    def reap(self) -> int:
        """Return expired leases to pending (or quarantine them).

        A lease whose mtime is older than the TTL belongs to a worker
        that died — or stalled past its heartbeat, which the protocol
        treats identically (see module docstring on duplicate
        execution being safe). Unreadable lease files are moved to
        ``corrupt/``; their task ids resurface via :meth:`ensure`.
        """
        now = time.time()
        reaped = 0
        for path in self._scan(self.leases_dir):
            try:
                age = now - path.stat().st_mtime
            except FileNotFoundError:
                continue  # released while we scanned
            if age <= self.lease_ttl_s:
                continue
            record = _read_json(path)
            if record is None:
                self._quarantine_corrupt(path)
                continue
            record["expiries"] = int(record.get("expiries", 0)) + 1
            record["worker"] = None
            if record.get("attempts", 0) >= self.max_attempts:
                record["status"] = "failed"
                record["error"] = record.get("error") or (
                    f"lease expired after {record['attempts']} claim(s) "
                    f"with no recorded worker error (worker killed?)")
                _write_json(self.failed_dir / path.name, record)
            else:
                record["not_before"] = now  # eligible immediately
                _write_json(self.pending_dir / path.name, record)
            try:
                os.remove(path)
            except FileNotFoundError:
                pass  # the worker completed in the race window
            reaped += 1
        return reaped

    def _quarantine_corrupt(self, path: Path) -> None:
        """Move an unreadable file aside (unique, non-``.json`` name so
        no scan ever matches it again)."""
        target = (self.corrupt_dir /
                  f"{path.name}.{os.getpid()}."
                  f"{next(_QUARANTINE_SEQUENCE)}.quarantined")
        try:
            os.replace(path, target)
        except FileNotFoundError:
            pass  # a racing process quarantined or transitioned it

    # -- inspection ----------------------------------------------------
    def _scan(self, directory: Path) -> list[Path]:
        try:
            return sorted(directory.glob("*.json"))
        except OSError:
            return []

    def _is_terminal(self, task_id: str) -> bool:
        return ((self.done_dir / f"{task_id}.json").exists()
                or (self.failed_dir / f"{task_id}.json").exists())

    def state_of(self, task_id: str) -> str | None:
        name = f"{task_id}.json"
        for state, directory in (("done", self.done_dir),
                                 ("failed", self.failed_dir),
                                 ("leased", self.leases_dir),
                                 ("pending", self.pending_dir)):
            if (directory / name).exists():
                return state
        return None

    def states(self) -> dict[str, str]:
        """Every known task id -> state, duplicates resolved by
        precedence (done > failed > leased > pending)."""
        out: dict[str, str] = {}
        for state, directory in (("pending", self.pending_dir),
                                 ("leased", self.leases_dir),
                                 ("failed", self.failed_dir),
                                 ("done", self.done_dir)):
            for path in self._scan(directory):
                out[path.stem] = state
        return out

    def result(self, task_id: str) -> tuple[str | None, dict | None]:
        """Terminal record for a task: ``("done"|"failed", record)`` or
        ``(None, None)`` while still in flight."""
        for state, directory in (("done", self.done_dir),
                                 ("failed", self.failed_dir)):
            record = _read_json(directory / f"{task_id}.json")
            if record is not None:
                return state, record
        return None, None

    def stats(self) -> dict[str, int]:
        """Scan-derived fleet counters (valid across processes and
        coordinator restarts — nothing here lives in memory).

        ``retries`` counts extra claims beyond the first, whatever
        their cause; ``failures`` counts worker-reported errors;
        ``expiries`` counts lease reaps; ``quarantined`` is the poison
        pile; ``corrupt`` counts files moved aside as unreadable.
        """
        counts = {"pending": 0, "leased": 0, "done": 0, "failed": 0,
                  "retries": 0, "failures": 0, "expiries": 0}
        states = self.states()
        for task_id, state in states.items():
            counts[state] += 1
        for directory in (self.pending_dir, self.leases_dir,
                          self.done_dir, self.failed_dir):
            for path in self._scan(directory):
                if states.get(path.stem) != {
                        self.pending_dir: "pending",
                        self.leases_dir: "leased",
                        self.done_dir: "done",
                        self.failed_dir: "failed"}[directory]:
                    continue  # stale duplicate: count the winner only
                record = _read_json(path)
                if record is None:
                    continue
                counts["retries"] += max(int(record.get("attempts", 0)) - 1, 0)
                counts["failures"] += int(record.get("failures", 0))
                counts["expiries"] += int(record.get("expiries", 0))
        counts["quarantined"] = counts["failed"]
        try:
            counts["corrupt"] = sum(1 for entry in self.corrupt_dir.iterdir()
                                    if entry.is_file())
        except OSError:
            counts["corrupt"] = 0
        return counts

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Mark the campaign terminal; workers exit their poll loops."""
        _write_json(self.root / "closed", {"schema": RECORD_SCHEMA,
                                           "point": {}, "closed": True})

    def is_closed(self) -> bool:
        return (self.root / "closed").exists()

    def reopen(self) -> None:
        """Remove the campaign-complete marker so a new campaign can
        dispatch fresh work over the same directory. Without this,
        every worker spawned or attached after a completed run sees
        ``is_closed()`` and exits before claiming anything."""
        try:
            os.remove(self.root / "closed")
        except FileNotFoundError:
            pass


def _read_json_manifest(path: Path) -> dict | None:
    """Manifest reader: like :func:`_read_json` but without the task
    ``point`` requirement."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or record.get("schema") != RECORD_SCHEMA:
        return None
    return record
