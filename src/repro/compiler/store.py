"""Persistent, content-addressed store of compiled programs.

Compilation is now ~99% of host wall time (BENCH_host.json), yet a
compiled :class:`~repro.compiler.program.Program` is a deterministic
function of inputs that rarely change: the graph, the network, the
traversal, the feature block, and the compile-relevant slice of the
platform config. Parameters are not among them — a program holds no
values — so one entry serves every parameter seed. This module memoizes
that function *on disk*, as a view of the one content-addressed store
(:class:`repro.persist.ContentStore`, shared with the sweep result
cache):

* **content-addressed** — one pickle per program under
  ``<root>/<2 hex>/<key>.pkl`` where the key is the SHA-256 of
  ``(schema, compiler-source hash, dataset fingerprint, workload spec,
  program projection of the config)``. Any source edit under
  ``repro/`` conservatively invalidates every entry; any knob the
  compiler actually reads changes the key; knobs it does not read
  (DRAM, clock frequencies — see
  :func:`repro.compiler.lowering.program_projection`) do not.
* **two names per lowering** — a lowered program is also hard-linked
  as ``<root>/<2 hex>/<name>.structure``, named by the network, hidden
  dim and :class:`~repro.compiler.lowering.Geometry`
  (:func:`structure_key_payload`): re-costed, it serves every design
  of that structure. ``len(store)`` counts programs, not names.
* **atomic and race-tolerant** — the store's contract: readers only
  ever observe absent or complete entries, any read failure (missing,
  truncated, corrupt, wrong schema) is a miss that drops the broken
  entry, and a put that cannot be written is skipped. A put of a
  present entry rewrites nothing; two workers racing on an absent key
  write identical bytes, and the last writer wins. A name that cannot
  be linked (another worker linked first) is skipped too.

An entry is a plain pickle of two things: the program without its
shard grids or re-timed plans, and each grid's interval size. Never the
graph, nor data derived from it: a put refuses a program whose grids
are not over the keyed :class:`~repro.graph.graph.Graph` object, and a
get refuses an entry of another graph name, then enters each interval
into the caller's graph memo (:func:`~repro.graph.partition.memoize_grid`),
unbuilt when the memo has none: the |E|-sized sort order is rebuilt by
the same in-place sort, and only if something reads the grid's edges —
simulating a loaded program never does. Since schema 5 an entry holds
the plan template and cost lists, never a re-timed plan. Since schema 6
it holds the ops as one nested pickle beside the op count, and the cost
pass's inputs as int32 arrays; a get decodes no op. The pickle is
followed by its CRC-32, so a damaged byte anywhere in an entry makes it
a miss.
Entries are orders of magnitude smaller than the graphs they index,
and a memory-mapped million-edge feature matrix is never pulled
through pickle. Workloads whose graph cannot be fingerprinted (real
Planetoid files on disk) bypass the store entirely rather than risk
stale keys.

Disabled by pointing :data:`PROGRAM_CACHE_ENV` at ``0``/``off``/
``none`` (or per-call: ``Harness(program_store=None)``,
``repro perf --no-program-cache``); cleared by deleting the directory.
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING, cast

from repro.obs.spans import span
from repro.persist import ContentStore, cache_dir_from_env

if TYPE_CHECKING:
    from repro.compiler.program import Program
    from repro.graph.graph import Graph

#: Bump when the pickled layout (or anything about how entries are
#: produced) changes incompatibly; old entries become misses.
PROGRAM_SCHEMA = 7

#: Environment variable pointing at the store; ``0``/``off``/``none``/
#: empty disables it (:func:`repro.persist.cache_dir_from_env`).
PROGRAM_CACHE_ENV = "REPRO_PROGRAM_CACHE"

#: Default on-disk location, next to ``.dataset-cache``/``.sweep-cache``.
DEFAULT_PROGRAM_CACHE = ".program-cache"


def default_program_store() -> "ProgramStore | None":
    """The environment-configured store, or None when disabled."""
    root = cache_dir_from_env(PROGRAM_CACHE_ENV, DEFAULT_PROGRAM_CACHE)
    return None if root is None else ProgramStore(root)


def program_key_payload(*, dataset_fingerprint: str, network: str,
                        hidden_dim: int, traversal: str,
                        feature_block: int | None,
                        config_projection: tuple[tuple[str, object], ...],
                        ) -> dict[str, object]:
    """The canonical JSON-able key payload for one compiled program.

    Everything compilation depends on, and nothing it does not:

    * ``dataset_fingerprint`` — graph content, including the generator
      source hash (:func:`repro.graph.datasets.dataset_fingerprint`);
    * the workload: network name, hidden dim, traversal, resolved
      feature block (an int or None — never the ``"config"`` sentinel);
    * ``config_projection`` — the config fields compilation reads
      (:func:`repro.compiler.lowering.program_projection`).

    The compiler-source hash and schema version are mixed in by
    :meth:`ProgramStore.key`, not here.
    """
    return {
        "dataset": dataset_fingerprint,
        "network": network,
        "hidden_dim": hidden_dim,
        "traversal": traversal,
        "feature_block": feature_block,
        "config": [list(pair) for pair in config_projection],
    }


def structure_key_payload(*, dataset_fingerprint: str, network: str,
                          hidden_dim: int, geometry: object
                          ) -> dict[str, object]:
    """The name payload of one program structure: what a full lowering
    is a function of. :meth:`ProgramStore.key` encodes the frozen
    ``geometry`` as its ``repr``, which names each stage entry's class.
    """
    return {
        "dataset": dataset_fingerprint,
        "network": network,
        "hidden_dim": hidden_dim,
        "geometry": geometry,
    }


def _encode(program: Program, graph: Graph) -> bytes:
    """An entry: the pickle of ``program`` without its grids or plans
    and of each grid's interval size, then that pickle's CRC-32."""
    import dataclasses
    import zlib

    for grid in program.grids.values():
        if grid.graph is not graph:
            # A program over another graph object (even an equal-named
            # copy or a subclass instance) would be stored under this
            # graph's key; refuse it.
            raise pickle.PicklingError(
                f"program references a graph ({grid.graph.name!r}) other "
                f"than the one it was keyed under ({graph.name!r})")
    intervals = {stage: grid.interval_size
                 for stage, grid in program.grids.items()}
    data = pickle.dumps((dataclasses.replace(
        program, grids={}, _coalesced_plans={}), intervals), protocol=5)
    return data + zlib.crc32(data).to_bytes(4, "little")


def _decode(data: bytes, graph: Graph) -> Program:
    """The program in an entry, checked against its CRC-32, over
    ``graph``'s memoized grids."""
    import zlib

    from repro.graph.partition import memoize_grid

    body = memoryview(data)[:-4]
    if zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
        raise pickle.UnpicklingError("entry fails its CRC-32")
    program, intervals = pickle.loads(body)
    if program.graph_name != graph.name:
        raise pickle.UnpicklingError(
            f"entry holds a program of graph {program.graph_name!r}, "
            f"but the caller's graph is {graph.name!r}")
    program.grids = {stage: memoize_grid(graph, interval_size)
                     for stage, interval_size in intervals.items()}
    return cast("Program", program)


class ProgramStore(ContentStore):
    """On-disk compiled-program cache: the pickle format over
    :class:`~repro.persist.ContentStore`'s keys, paths and failure
    policy. Its :attr:`stats` count this instance's lookups by program
    key as ``hits``/``misses``, and by structure name as
    ``structure_hits``/``structure_misses``.
    """

    schema = PROGRAM_SCHEMA
    suffix = "pkl"
    counted = ("hits", "misses", "structure_hits", "structure_misses")

    def get(self, key: str | dict[str, object], graph: Graph,
            structure: bool = False) -> "Program | None":
        """The stored program for ``key`` (a structure name when
        ``structure``; either may be the payload :meth:`key` hashes)
        rebuilt against ``graph``, or None.

        Any failure to read, to match the entry's CRC-32 or to unpickle
        is a miss (see the store's contract); the ops stay undecoded.
        The loaded program's shard grids are ``graph``'s memoized grids
        (unbuilt ones entered under the memo's lock and size bound), so
        programs and later compiles of one graph share each scatter.
        """
        with span("store-get", graph=graph.name, structure=structure):
            return self._read(
                self._path(key, "structure" if structure else None),
                lambda handle: _decode(handle.read(), graph),
                ("structure_hits", "structure_misses") if structure
                else ("hits", "misses"))

    def put(self, key: str | dict[str, object], program: "Program",
            graph: Graph,
            structure: str | dict[str, object] | None = None) -> bool:
        """Persist ``program`` under ``key`` (best-effort), hard-linked
        under the ``structure`` name if one is given (either may be a
        payload, as for :meth:`get`).

        Returns False, leaving no partial file behind, when the entry
        is not written — an unpicklable program, a read-only cache
        directory — since caching must never fail the compile that
        produced the program. An entry already present is kept, not
        re-encoded, and its name still linked. A name that cannot be
        linked (present already, or no hard links here) is skipped.
        """
        with span("store-put", graph=graph.name):
            path = self._path(key)
            try:
                if not self._write(path, lambda: _encode(program, graph)):
                    return False
            except Exception:
                return False
            if structure is not None:
                name = self._path(structure, "structure")
                try:
                    name.parent.mkdir(parents=True, exist_ok=True)
                    os.link(path, name)
                except OSError:
                    pass
            return True
