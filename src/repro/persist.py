"""One atomic publish and one content-addressed store.

Every file the framework persists (dataset-cache files, result-cache
and program-store entries, fleet-queue records, benchmark payloads) is
written by :func:`publish`: to a hidden sibling
``.<name>.<pid>.<seq>.tmp``, then renamed into place (or, exclusively,
hard-linked there). A reader sees the old complete file or the new
one, never a torn write, and a writer that dies leaves an orphan that
no scan matches. ``<seq>`` comes from one counter shared by every
publish in the process, so two threads publishing one path never
share a tmp file.

A failed publish raises. A cache skips the write, since a cache must
never cost a result already computed; state and records (queue
records, benchmark files) let it raise.

:class:`ContentStore` implements the content-addressed store once;
:class:`~repro.sweep.cache.ResultCache` and
:class:`~repro.compiler.store.ProgramStore` are its two views, each
holding only its format.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import IO, Callable, TypeVar

_T = TypeVar("_T")

#: Uniquifies tmp names across every publish of this process.
_SEQUENCE = itertools.count()

#: Guards every store's read counts: one lock for all stores, since a
#: lock attribute would make a store unpicklable, and a result cache
#: rides in every pool chunk.
_COUNTS_LOCK = threading.Lock()


def _discard(path: Path) -> None:
    """Remove ``path`` if it can (a racing process may have already)."""
    try:
        os.remove(path)
    except OSError:
        pass


def publish(path: str | os.PathLike[str],
            write: Callable[[IO[bytes]], object], *,
            exclusive: bool = False) -> bool:
    """Atomically create or replace ``path`` with what ``write`` writes.

    ``write`` receives the tmp file, open for binary writing, so a
    caller can stream into it (``np.save``) instead of buffering. With
    ``exclusive`` the tmp is hard-linked into place rather than renamed:
    of several racing creators exactly one publishes, and every other
    call returns False. Raises on any I/O error (or whatever ``write``
    raises) and never leaves its tmp file behind.
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{next(_SEQUENCE)}.tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        if not exclusive:
            os.replace(tmp, path)
            return True
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            os.remove(tmp)
        return True
    except BaseException:
        _discard(tmp)
        raise


def cache_dir_from_env(name: str, default: str) -> Path | None:
    """The directory a cache's environment variable ``name`` selects:
    ``default`` when unset, None (the cache is disabled) for ``""``,
    ``0``, ``off`` or ``none`` in any case."""
    value = os.environ.get(name)
    if value is None:
        return Path(default)
    if value.strip().lower() in ("", "0", "off", "none"):
        return None
    return Path(value)


#: Last computed code hash per source root, revalidated by a cheap
#: (path, mtime, size) snapshot on every lookup. Deliberately NOT an
#: ``lru_cache`` on the function: a long-lived process (notebook,
#: server) that edits source must not keep writing cache entries under
#: a stale code hash.
_CODE_HASH_MEMO: dict[Path, tuple[tuple[tuple[str, int, int], ...],
                                  str, int]] = {}

#: A same-size edit landing in the same filesystem-timestamp tick as
#: the hash would be invisible to the snapshot (git's "racy" problem);
#: distrust the fast path for files modified within this window of the
#: memoized digest and rehash instead.
_RACY_WINDOW_NS = 2_000_000_000


def _code_snapshot(root: Path) -> tuple[tuple[str, int, int], ...]:
    """Cheap freshness fingerprint of a source tree (no file reads)."""
    entries = []
    for path in sorted(root.rglob("*.py")):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((str(path.relative_to(root)),
                        stat.st_mtime_ns, stat.st_size))
    return tuple(entries)


def code_version_hash(root: str | os.PathLike[str] | None = None) -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Used as the code-version component of cache keys: any edit to the
    simulator, compiler, or models invalidates all cached results.
    Computed fresh whenever the mtime/size snapshot of the tree changes;
    an unchanged snapshot reuses the previous digest, so per-store
    construction stays cheap.
    """
    if root is None:
        root = Path(__file__).resolve().parent  # the ``repro`` package
    tree = Path(root).resolve()
    snapshot = _code_snapshot(tree)
    memo = _CODE_HASH_MEMO.get(tree)
    if memo is not None:
        old_snapshot, old_digest, hashed_at = memo
        newest_mtime = max((mtime for _, mtime, _ in snapshot), default=0)
        if (old_snapshot == snapshot
                and newest_mtime + _RACY_WINDOW_NS < hashed_at):
            return old_digest
    digest = hashlib.sha256()
    for path in sorted(tree.rglob("*.py")):
        try:
            contents = path.read_bytes()
        except OSError:
            continue
        digest.update(str(path.relative_to(tree)).encode())
        digest.update(b"\0")
        digest.update(contents)
        digest.update(b"\0")
    value = digest.hexdigest()
    _CODE_HASH_MEMO[tree] = (snapshot, value, time.time_ns())
    return value


def content_key(schema: int, code_version: str, payload: object) -> str:
    """SHA-256 of (schema, code version, payload). A payload value JSON
    cannot encode (a frozen geometry) is encoded by its ``repr``."""
    blob = json.dumps(
        {"schema": schema, "code": code_version, "payload": payload},
        sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class ContentStore:
    """Content-addressed files under one root; a subclass adds a format.

    An entry lives at ``<root>/<2 hex>/<key>.<suffix>``, its key the
    :func:`content_key` of the view's ``schema``, the code version and
    a payload. The code version is resolved at construction, so a
    process that edits source gets fresh keys from its next store;
    ``code_root`` narrows the hashed tree (tests use it).

    Reads heal: a missing file is a miss, and a file that fails to
    decode (truncated, corrupt, incompatible) is a miss that is removed
    if it can be. Writes skip: a present entry (its address names the
    same content) costs one stat, and an entry that cannot be published
    (a read-only or unusable directory) is not stored, the write
    returning False. :attr:`stats` counts this instance's reads.
    """

    #: Mixed into every key; a view bumps it when its format changes.
    schema: int
    #: File suffix of the view's entries; ``len(store)`` counts these.
    suffix: str
    #: The counts :attr:`stats` holds: a hit and a miss count per kind
    #: of name a view reads entries by.
    counted: tuple[str, ...] = ("hits", "misses")

    def __init__(self, root: str | os.PathLike[str],
                 code_version: str | None = None,
                 code_root: str | os.PathLike[str] | None = None) -> None:
        self.root = Path(root)
        self.code_version = (code_version if code_version is not None
                             else code_version_hash(code_root))
        self._counts = dict.fromkeys(self.counted, 0)

    def key(self, payload: object) -> str:
        """Content address of ``payload`` under this code version."""
        return content_key(self.schema, self.code_version, payload)

    def _path(self, key: str | dict[str, object],
              suffix: str | None = None) -> Path:
        """Where the entry for ``key`` (or the payload it hashes) lives."""
        if not isinstance(key, str):
            key = self.key(key)
        return self.root.joinpath(key[:2], f"{key}.{suffix or self.suffix}")

    def _count(self, name: str) -> None:
        with _COUNTS_LOCK:
            self._counts[name] += 1

    def _read(self, path: Path, decode: Callable[[IO[bytes]], _T | None],
              counts: tuple[str, str] = ("hits", "misses")) -> _T | None:
        """``decode`` of the file at ``path``, or None (a miss), counted
        under ``counts``, the names of the hit and the miss count."""
        value: _T | None = None
        try:
            with open(path, "rb") as handle:
                value = decode(handle)
        except FileNotFoundError:
            pass
        except Exception:
            _discard(path)
        self._count(counts[0] if value is not None else counts[1])
        return value

    def _write(self, path: Path, encode: Callable[[], bytes]) -> bool:
        """Publish ``encode()`` at ``path`` unless an entry is there
        already; False when it cannot be published."""
        if os.path.exists(path):
            return True
        data = encode()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            publish(path, lambda handle: handle.write(data))
        except OSError:
            return False
        return True

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob(f"*.{self.suffix}"))

    @property
    def stats(self) -> dict[str, int]:
        with _COUNTS_LOCK:
            return dict(self._counts)
