"""Persistent result cache for sweep points: an append-only log.

A point's key is the SHA-256 of (schema version, code version,
canonical point payload), so

* re-running a sweep with unchanged code and config is pure cache hits,
* *any* source edit under ``repro/`` invalidates every entry at once
  (conservative, but never stale), and
* a point already stored is never appended again, and two processes
  racing on a new point append equal records; a reader keeps either.

Each writing process appends to its own segment under the cache root
(default ``.sweep-cache/``), ``<root>/<code version>/<host>-<pid>.log``,
one line per record, ``<key> <CRC-32 of the record JSON> <record
JSON>``. A reader indexes the segments once, holding each line's bytes,
and on a miss reads only the bytes appended since; it decodes and
checks a record when it is read. A torn last line waits for its writer.
A line whose CRC fails, or whose record is not a successful point's,
is a miss, and the recomputed record's append takes its place.
Clearing the cache is deleting the directory.

The module also hosts :class:`DatasetCache`, the in-memory per-owner
graph cache that replaced the ``@staticmethod @lru_cache`` combo on
``Harness.graph`` — that pattern cached at module scope, so graphs
leaked across Harness instances and could never be dropped or swapped
per instance.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import threading
import zlib
from pathlib import Path

from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.persist import ContentStore, content_key

#: Bump when the cached record layout changes; old entries become misses.
SCHEMA_VERSION = 2

#: This process's open segment per code-version directory, as
#: ``(pid, fd, name)``: every cache over one root appends to the same
#: one. A forked child inherits its parent's entries and opens its own.
_SEGMENTS: dict[Path, tuple[int, int, str]] = {}
_SEGMENTS_LOCK = threading.Lock()


def cache_key(payload: dict, code_version: str) -> str:
    """Content address of one point under one code version."""
    return content_key(SCHEMA_VERSION, code_version, payload)


def _append_record(directory: Path, key: str,
                   body: bytes) -> tuple[bytes, str, int, int]:
    """Append the line ``<key> <crc32> <body>`` to this process's segment
    in ``directory`` with one unbuffered ``write``. Returns the index's
    entry for it, the segment's name, and where the write began and
    ended. Raises ``OSError`` when it cannot."""
    entry = b"%08x %s" % (zlib.crc32(body), body)
    line = b"%s %s\n" % (key.encode(), entry)
    with _SEGMENTS_LOCK:
        pid, fd, name = _SEGMENTS.get(directory, (None, -1, ""))
        stat = os.fstat(fd) if pid == os.getpid() else None
        if stat is None or stat.st_nlink == 0:
            if pid is not None:  # a parent's segment, or a deleted one
                os.close(fd)
                del _SEGMENTS[directory]
            pid = os.getpid()
            name = f"{socket.gethostname()}-{pid}.log"
            directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(directory / name,
                         os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            _SEGMENTS[directory] = (pid, fd, name)
            stat = os.fstat(fd)
            if stat.st_size and os.pread(fd, 1, stat.st_size - 1) != b"\n":
                # A reused pid's segment ends torn: end that line first.
                line = b"\n" + line
        if os.write(fd, line) != len(line):
            # A short write (a full disk) tore the line; the next append
            # reopens the segment and ends that line first.
            os.close(fd)
            del _SEGMENTS[directory]
            raise OSError(errno.ENOSPC, "short write", str(directory))
    return entry, name, stat.st_size, stat.st_size + len(line)


def _decode(entry: bytes) -> dict | None:
    """The record an indexed line holds, or None when its CRC fails or
    it is not a successful point's record of this schema."""
    crc, _, body = entry.partition(b" ")
    if crc != b"%08x" % zlib.crc32(body):
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    if (isinstance(record, dict) and record.get("schema") == SCHEMA_VERSION
            and record.get("status") == "ok"
            and isinstance(record.get("metrics"), dict)):
        return record
    return None


class ResultCache(ContentStore):
    """On-disk log of computed point records, keyed by content.

    :class:`~repro.persist.ContentStore` gives it its keys, code version
    and hit/miss counts; the log is its own. A record is read back only
    if it is a successful point's, of this schema. A record JSON cannot
    encode raises ``TypeError``; a directory the record cannot be
    appended to skips it, so a finished point is never lost to its
    cache. Safe to share between threads: the serve daemon's request
    threads use one.
    """

    schema = SCHEMA_VERSION

    def __init__(self, root: str | os.PathLike[str],
                 code_version: str | None = None,
                 code_root: str | os.PathLike[str] | None = None) -> None:
        super().__init__(root, code_version, code_root)
        self._dir = Path(os.path.abspath(self.root / self.code_version))
        self._lock = threading.Lock()
        #: Each indexed key's line after the key, undecoded.
        self._index: dict[str, bytes] = {}
        #: Bytes of each segment read into the index so far.
        self._offsets: dict[str, int] = {}

    def key_for(self, payload: dict) -> str:
        return self.key(payload)

    def _refresh(self) -> None:
        """Index the complete lines appended to every segment since the
        last read; the caller holds the lock. A line for an indexed key
        replaces its entry only if that entry does not decode."""
        try:
            segments = [entry for entry in os.scandir(self._dir)
                        if entry.name.endswith(".log")]
        except OSError:
            return
        for segment in segments:
            offset = self._offsets.get(segment.name, 0)
            try:
                size = segment.stat().st_size
                if size == offset:
                    continue
                if size < offset:  # truncated or recreated: read it again
                    offset = 0
                with open(segment.path, "rb") as handle:
                    handle.seek(offset)
                    data = handle.read()
            except OSError:  # removed since the scan
                continue
            end = data.rfind(b"\n") + 1
            self._offsets[segment.name] = offset + end
            for line in data[:end].split(b"\n")[:-1]:
                key, _, entry = line.partition(b" ")
                key = key.decode("latin-1")
                old = self._index.get(key)
                if old is None or (old != entry and _decode(old) is None):
                    self._index[key] = entry

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or None."""
        from repro.obs.spans import span

        with span("cache-get"):
            with self._lock:
                entry = self._index.get(key)
                if entry is None:
                    self._refresh()
                    entry = self._index.get(key)
            record = None if entry is None else _decode(entry)
            if entry is not None and record is None:
                with self._lock:
                    if self._index.get(key) is entry:
                        del self._index[key]
            self._count("hits" if record is not None else "misses")
            return record

    def put(self, key: str, record: dict) -> bool:
        """Append ``record`` under ``key`` unless a line for ``key`` is
        indexed already; False when it was skipped."""
        from repro.obs.spans import span

        with span("cache-put"):
            with self._lock:
                if key not in self._index:
                    self._refresh()
                if key in self._index:
                    return True
            body = json.dumps(record, sort_keys=True).encode()
            try:
                entry, name, start, end = _append_record(self._dir, key,
                                                         body)
            except OSError:
                return False
            with self._lock:
                self._index[key] = entry
                if self._offsets.get(name, 0) == start:  # none unread
                    self._offsets[name] = end
            return True

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

    def records(self) -> dict[str, dict]:
        """Every successful point's record of this code version, by key."""
        with self._lock:
            self._refresh()
            entries = list(self._index.items())
        return {key: record for key, entry in entries
                if (record := _decode(entry)) is not None}

    def __len__(self) -> int:
        return len(self.records())


class NullCache(ResultCache):
    """A result cache that stores nothing (``--no-cache`` runs); keys
    stay stable so callers can still log them."""

    def __init__(self) -> None:
        super().__init__(os.devnull, code_version="uncached")

    def get(self, key: str) -> dict | None:
        self._count("misses")
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
