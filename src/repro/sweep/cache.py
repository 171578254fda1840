"""Content-addressed persistent result cache for sweep points.

Each computed point is stored as one JSON file whose name is the
SHA-256 of (schema version, code version, canonical point payload), so

* re-running a sweep with unchanged code and config is pure cache hits,
* *any* source edit under ``repro/`` invalidates every entry at once
  (conservative, but never stale), and
* a point already stored is never rewritten, and two processes racing
  on a new point write the same bytes to the same key; the last writer
  wins, atomically.

Layout under the cache root (default ``.sweep-cache/``)::

    <root>/<first two key hex chars>/<full key>.json

:class:`ResultCache` holds only the record format; the keys, paths and
failure policy are :class:`repro.persist.ContentStore`'s, shared with
the compiled-program store. Clearing the cache is deleting the
directory.

The module also hosts :class:`DatasetCache`, the in-memory per-owner
graph cache that replaced the ``@staticmethod @lru_cache`` combo on
``Harness.graph`` — that pattern cached at module scope, so graphs
leaked across Harness instances and could never be dropped or swapped
per instance.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO

from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.persist import ContentStore, content_key

#: Bump when the cached record layout changes; old entries become misses.
SCHEMA_VERSION = 1


def cache_key(payload: dict, code_version: str) -> str:
    """Content address of one point under one code version."""
    return content_key(SCHEMA_VERSION, code_version, payload)


def _decode_record(handle: IO[bytes]) -> dict:
    record = json.load(handle)
    if (isinstance(record, dict) and record.get("schema") == SCHEMA_VERSION
            and record.get("status") == "ok"
            and isinstance(record.get("metrics"), dict)):
        return record
    # Removed on read: a put skips present entries, so one left here
    # would never be rewritten.
    raise ValueError("not a successful point's record of this schema")


class ResultCache(ContentStore):
    """On-disk store of computed point records, keyed by content.

    A record is read back only if it is a successful point's, of this
    schema. A record JSON cannot encode raises ``TypeError``; a
    directory the record cannot be written to skips it
    (:class:`~repro.persist.ContentStore`), so a finished point is
    never lost to its cache.
    """

    schema = SCHEMA_VERSION
    suffix = "json"

    def key_for(self, payload: dict) -> str:
        return self.key(payload)

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or None."""
        from repro.obs.spans import span

        with span("cache-get"):
            return self._read(self._path(key), _decode_record)

    def put(self, key: str, record: dict) -> bool:
        """Persist ``record`` under ``key``; False when it was skipped."""
        from repro.obs.spans import span

        with span("cache-put"):
            return self._write(
                self._path(key),
                lambda: json.dumps(record, sort_keys=True).encode())

    def cached_metrics(self, key: str) -> dict | None:
        """The metrics of the successful point stored under ``key``."""
        record = self.get(key)
        return None if record is None else record["metrics"]

    def put_metrics(self, key: str, payload: dict, metrics: dict) -> None:
        """Store a successful point: the one place its record is built."""
        self.put(key, {
            "schema": SCHEMA_VERSION,
            "key": key,
            "code_version": self.code_version,
            "point": payload,
            "status": "ok",
            "metrics": metrics,
        })


class NullCache(ResultCache):
    """A result cache that stores nothing (``--no-cache`` runs); keys
    stay stable so callers can still log them."""

    def __init__(self) -> None:
        super().__init__(os.devnull, code_version="uncached")

    def get(self, key: str) -> dict | None:
        self.misses += 1
        return None

    def put(self, key: str, record: dict) -> bool:
        return False


def result_cache_at(cache_dir: str | os.PathLike | None) -> ResultCache:
    """The result cache at ``cache_dir``, or a :class:`NullCache` when
    there is none."""
    return ResultCache(cache_dir) if cache_dir else NullCache()


class DatasetCache:
    """In-memory graphs keyed by dataset name, owned by one harness.

    ``load_dataset`` keeps its own deterministic synthesis cache, so
    this layer only pins the loaded object per owner — dropping a
    harness drops its references, and two harnesses never share cache
    *state* (the fix for the old module-level ``lru_cache``).

    Thread-safe under the serve daemon's request threads: a per-name
    lock means concurrent requests for the same dataset run one load
    (all callers get the *same* Graph object — the compiler's
    per-graph memos key on identity, so a duplicate object would
    duplicate every shard grid), while different datasets load in
    parallel.
    """

    def __init__(self, loader=load_dataset) -> None:
        self._loader = loader
        self._graphs: dict[str, Graph] = {}
        self._lock = threading.Lock()
        self._load_locks: dict[str, threading.Lock] = {}

    def get(self, name: str) -> Graph:
        with self._lock:
            graph = self._graphs.get(name)
            if graph is not None:
                return graph
            name_lock = self._load_locks.setdefault(name,
                                                    threading.Lock())
        with name_lock:
            with self._lock:
                graph = self._graphs.get(name)
                if graph is not None:
                    return graph
            graph = self._loader(name)
            with self._lock:
                self._graphs[name] = graph
                self._load_locks.pop(name, None)
            return graph

    def clear(self) -> None:
        with self._lock:
            self._graphs.clear()

    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, name: str) -> bool:
        return name in self._graphs
