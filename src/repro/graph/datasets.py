"""Benchmark dataset registry (Table II).

Three citation datasets drive the paper's evaluation:

========  ========  =======  ============  =======
Dataset   Vertices  Edges    Feature Dim.  Size
========  ========  =======  ============  =======
CORA      2708      10556    1433          15.6 MB
CITESEER  3327      9104     3703          49 MB
PUBMED    19717     88648    500           40.5 MB
========  ========  =======  ============  =======

("Size" is the fp32 feature matrix; edge counts are directed message
edges of the symmetrised graph, as DGL reports them.)

Real Planetoid files cannot be downloaded here, so :func:`load_dataset`
synthesises deterministic equivalents with exactly these statistics (see
:mod:`repro.graph.generators` and DESIGN.md §3 for why that preserves the
behaviour being measured). If a real Planetoid ``<name>.content`` /
``<name>.cites`` pair is found under ``data_dir`` it is used instead.
"""

from __future__ import annotations

import functools
import hashlib
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.graph.generators as _generators
from repro.graph.generators import citation_network, powerlaw_graph
from repro.graph.graph import Graph, GraphError
from repro.persist import cache_dir_from_env, publish


@dataclass(frozen=True)
class DatasetStats:
    """Published statistics of one benchmark dataset (one Table II row).

    ``degree_exponent`` documents the degree structure the synthesiser
    reproduces: ``None`` means a citation-style graph grown by
    preferential attachment and symmetrised (the Planetoid trio);
    a float is the Zipf exponent of the in-degree tail of a directed
    power-law multigraph (the million-edge workloads), whose out-degree
    tail uses half that exponent — see
    :func:`repro.graph.generators.powerlaw_graph`.
    """

    name: str
    num_nodes: int
    num_edges: int
    feature_dim: int
    num_classes: int
    #: Bag-of-words density used when synthesising features.
    feature_density: float
    #: In-degree Zipf exponent (power-law datasets) or None
    #: (citation-style preferential attachment).
    degree_exponent: float | None = None

    @property
    def feature_megabytes(self) -> float:
        """The Table II "Size" column (fp32 features, MB = 1e6 bytes)."""
        return self.num_nodes * self.feature_dim * 4 / 1e6


DATASETS: dict[str, DatasetStats] = {
    "cora": DatasetStats(
        name="cora", num_nodes=2708, num_edges=10556, feature_dim=1433,
        num_classes=7, feature_density=0.0127),
    "citeseer": DatasetStats(
        name="citeseer", num_nodes=3327, num_edges=9104, feature_dim=3703,
        num_classes=6, feature_density=0.0085),
    "pubmed": DatasetStats(
        name="pubmed", num_nodes=19717, num_edges=88648, feature_dim=500,
        num_classes=3, feature_density=0.10),
    # Not a Table II dataset: a deliberately small citation-style graph
    # for CI smoke runs and design-space-exploration searches, where
    # hundreds of candidate configs must each simulate in milliseconds.
    "tiny": DatasetStats(
        name="tiny", num_nodes=64, num_edges=256, feature_dim=32,
        num_classes=4, feature_density=0.25),
    # Million-edge scale-up workloads (not Table II): synthetic stand-ins
    # with the published |V| / |E| / feature dimension of the graphs the
    # accelerator literature evaluates on (GraphSAINT's Flickr; Reddit at
    # GenGNN's node count). Directed power-law multigraphs — see
    # ``degree_exponent`` above for the documented degree structure.
    "flickr": DatasetStats(
        name="flickr", num_nodes=89250, num_edges=899756, feature_dim=500,
        num_classes=7, feature_density=0.046, degree_exponent=1.2),
    "reddit-s": DatasetStats(
        name="reddit-s", num_nodes=232965, num_edges=11606920,
        feature_dim=602, num_classes=41, feature_density=0.05,
        degree_exponent=1.1),
}

#: Seeds fixed per dataset so every run sees the same synthetic graph.
_DATASET_SEEDS = {"cora": 11, "citeseer": 23, "pubmed": 37, "tiny": 53,
                  "flickr": 71, "reddit-s": 89}


def dataset_stats(name: str) -> DatasetStats:
    """Published statistics for ``name`` (KeyError lists known names)."""
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise GraphError(
            f"unknown dataset {name!r}; known datasets: {known}") from None


@functools.lru_cache(maxsize=None)
def _load_planetoid(stats: DatasetStats, data_dir: str) -> Graph:
    """Parse real Planetoid ``.content`` / ``.cites`` files if present.

    Cached per (dataset, directory) like the synthetic path, so new
    Harness instances in one process never re-parse the files."""
    content = os.path.join(data_dir, f"{stats.name}.content")
    cites = os.path.join(data_dir, f"{stats.name}.cites")
    ids: list[str] = []
    rows: list[np.ndarray] = []
    with open(content) as handle:
        for line in handle:
            parts = line.strip().split()
            if not parts:
                continue
            ids.append(parts[0])
            rows.append(np.asarray(parts[1:-1], dtype=np.float32))
    index = {paper: i for i, paper in enumerate(ids)}
    edges = []
    with open(cites) as handle:
        for line in handle:
            parts = line.strip().split()
            if len(parts) != 2:
                continue
            cited, citing = parts
            if cited in index and citing in index:
                edges.append((index[citing], index[cited]))
    graph = Graph.from_edges(len(ids), edges, name=stats.name)
    graph = graph.with_reverse_edges()
    graph.features = np.stack(rows)
    return graph


#: Environment variable pointing at the persistent synthetic-graph
#: cache; ``0``/``off``/``none``/empty disables it
#: (:func:`repro.persist.cache_dir_from_env`).
DATASET_CACHE_ENV = "REPRO_DATASET_CACHE"

#: Default on-disk location for synthesized graphs (per dataset: an npz
#: record plus edge and feature ``.npy`` sidecars).
DEFAULT_DATASET_CACHE = ".dataset-cache"


def _dataset_cache_dir() -> Path | None:
    return cache_dir_from_env(DATASET_CACHE_ENV, DEFAULT_DATASET_CACHE)


@functools.lru_cache(maxsize=1)
def _generator_fingerprint() -> str:
    """Hash of the generator source: any edit to the synthesis algorithm
    invalidates every cached graph (same contract as the sweep cache's
    code version, scoped to the one module that shapes the graphs)."""
    source = Path(_generators.__file__).read_bytes()
    return hashlib.sha256(source).hexdigest()[:16]


#: Bumped when the on-disk layout changes; old entries become misses.
_CACHE_FORMAT = "v3"

#: Process-wide disk-cache accounting (the in-process ``_synthesize``
#: memo sits above this layer, so each counter moves at most once per
#: dataset per process unless the memo is cleared).
_DISK_CACHE_STATS = {"hits": 0, "misses": 0}


def disk_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the persistent dataset cache (this process)."""
    return dict(_DISK_CACHE_STATS)


def dataset_fingerprint(name: str, data_dir: str | None = None
                        ) -> str | None:
    """Stable content fingerprint of the graph ``load_dataset(name)``
    returns, or ``None`` when it cannot be fingerprinted cheaply.

    Covers everything that shapes the synthetic graph — published
    stats, the per-dataset seed, the on-disk format version, and the
    generator-source hash — so downstream caches (the compiled-program
    store) can key on graph *content* without hashing hundreds of MB of
    features. Returns ``None`` when real Planetoid files would be
    loaded instead of the synthetic equivalent: their content is not
    covered by this fingerprint, so callers must treat the workload as
    uncacheable rather than risk a stale key.
    """
    stats = dataset_stats(name)
    for directory in [data_dir, os.environ.get("REPRO_DATA_DIR"), "data"]:
        if not directory:
            continue
        if (os.path.exists(os.path.join(directory, f"{stats.name}.content"))
                and os.path.exists(
                    os.path.join(directory, f"{stats.name}.cites"))):
            return None
    return _graph_recipe(stats, _DATASET_SEEDS.get(name, 0))


def _graph_recipe(stats: DatasetStats, seed: int) -> str:
    """Everything that shapes a synthetic graph: the published stats,
    the seed, the on-disk format version and the generator-source
    hash. It is the dataset fingerprint and, hashed, names the
    graph's cache files."""
    return (f"{stats.name}|{stats.num_nodes}|{stats.num_edges}|"
            f"{stats.feature_dim}|{stats.feature_density}|"
            f"{stats.degree_exponent}|{seed}|{_CACHE_FORMAT}|"
            f"{_generator_fingerprint()}")


def _dataset_cache_path(stats: DatasetStats, seed: int) -> Path | None:
    root = _dataset_cache_dir()
    if root is None:
        return None
    digest = hashlib.sha256(_graph_recipe(stats, seed).encode()).hexdigest()
    return root / f"{stats.name}-{digest[:16]}.npz"


def _features_path(path: Path) -> Path:
    """The sidecar ``.npy`` holding the feature matrix.

    Features live outside the record npz so they can be loaded with
    ``mmap_mode`` — ``np.load`` cannot memory-map members of a zip
    archive — and so a load never materialises a second in-memory copy
    of the matrix while the archive is being decoded."""
    return path.with_suffix(".features.npy")


def _edges_path(path: Path) -> Path:
    """The sidecar ``.npy`` holding the edges as one ``(2, |E|)`` int64
    array (``src`` then ``dst``), memory-mapped for the same reasons as
    the features."""
    return path.with_suffix(".edges.npy")


def _dataset_cache_load(path: Path | None, stats: DatasetStats) -> Graph | None:
    """A cached graph, or None; any read or validation error — missing
    sidecar, truncated zip, short-mapped ``.npy``, edge checksum or
    stat mismatch — is treated as a miss and the entry is rewritten by
    the next store.

    The record npz holds the node count and a CRC-32 of the edge
    sidecar's data, and both arrays load as read-only memory maps. The
    checksum and the ``Graph`` range checks read the edges here, in
    place: they never pass through a zip decoder or a second copy.
    The feature matrix is not checksummed, so its pages fault in only
    when (and if) a consumer reads them. A compile or a simulation
    never does: a compiled program holds no values, so a DSE point, a
    sweep point or a cycle-accurate run reads structure only. That
    keeps a loaded graph small in every process that holds one, and
    keeps a forked sweep worker, whose RSS starts at its parent's,
    small with it. A write to the mapped features or edges raises.
    """
    if path is None:
        return None
    try:
        features = np.load(_features_path(path), mmap_mode="r")
        if features.shape != (stats.num_nodes, stats.feature_dim):
            return None
        with np.load(path) as record:
            num_nodes = int(record["num_nodes"])
            edges_crc32 = int(record["edges_crc32"])
        edges = np.load(_edges_path(path), mmap_mode="r")
        if (edges.dtype != np.int64
                or edges.shape != (2, stats.num_edges)
                or zlib.crc32(edges) != edges_crc32):
            return None
        graph = Graph(num_nodes, edges[0], edges[1],
                      features=features, name=stats.name)
    except Exception:
        return None
    if graph.num_nodes != stats.num_nodes:
        return None
    return graph


def _dataset_cache_store(path: Path | None, graph: Graph) -> None:
    """Persist the graph: the feature and edge sidecars first, then the
    record npz holding the node count and the edges' CRC-32 (loads
    require all three, so a crash between the writes reads as a miss,
    never as a torn graph). Each file is published atomically and
    streamed, never buffered; a write that fails is skipped, as a
    cache write is."""
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        edges = np.stack([graph.src, graph.dst])
        publish(_features_path(path),
                lambda handle: np.save(handle, graph.features))
        publish(_edges_path(path), lambda handle: np.save(handle, edges))
        publish(path, lambda handle: np.savez(
            handle, num_nodes=np.int64(graph.num_nodes),
            edges_crc32=np.int64(zlib.crc32(edges))))
    except OSError:
        pass  # caching is best-effort; synthesis already succeeded


@functools.lru_cache(maxsize=None)
def _synthesize(name: str) -> Graph:
    stats = dataset_stats(name)
    seed = _DATASET_SEEDS.get(name, 0)
    cache_path = _dataset_cache_path(stats, seed)
    cached = _dataset_cache_load(cache_path, stats)
    if cached is not None:
        _DISK_CACHE_STATS["hits"] += 1
        return cached
    if cache_path is not None:
        _DISK_CACHE_STATS["misses"] += 1
    if stats.degree_exponent is not None:
        graph = powerlaw_graph(
            num_nodes=stats.num_nodes,
            num_edges=stats.num_edges,
            feature_dim=stats.feature_dim,
            exponent=stats.degree_exponent,
            density=stats.feature_density,
            seed=seed,
            name=stats.name,
        )
    else:
        graph = citation_network(
            num_nodes=stats.num_nodes,
            num_undirected_edges=stats.num_edges,
            feature_dim=stats.feature_dim,
            density=stats.feature_density,
            seed=seed,
            name=stats.name,
        )
    _dataset_cache_store(cache_path, graph)
    return graph


def load_dataset(name: str, data_dir: str | None = None) -> Graph:
    """Load a benchmark graph by name.

    Prefers real Planetoid files under ``data_dir`` (or ``$REPRO_DATA_DIR``
    or ``./data``); falls back to the deterministic synthetic equivalent.
    The synthetic graphs are cached, so repeated loads are cheap — callers
    must not mutate the returned object (copy arrays first). A graph
    read from the disk cache carries its features and its ``src``/``dst``
    arrays as read-only memory maps, so writing to them raises.
    """
    stats = dataset_stats(name)
    candidates = [data_dir, os.environ.get("REPRO_DATA_DIR"), "data"]
    for directory in candidates:
        if not directory:
            continue
        content = os.path.join(directory, f"{stats.name}.content")
        cites = os.path.join(directory, f"{stats.name}.cites")
        if os.path.exists(content) and os.path.exists(cites):
            return _load_planetoid(stats, directory)
    return _synthesize(name)


#: The datasets the paper's Table II actually lists; synthetic smoke
#: extensions like "tiny" stay out of the rendered paper table.
PAPER_DATASETS = ("cora", "citeseer", "pubmed")


def dataset_table() -> list[dict[str, str]]:
    """Render Table II as report rows (paper datasets only)."""
    rows = []
    for stats in (DATASETS[name] for name in PAPER_DATASETS):
        rows.append({
            "Dataset": stats.name.upper(),
            "Vertices": str(stats.num_nodes),
            "Edges": str(stats.num_edges),
            "Feature Dim.": str(stats.feature_dim),
            "Size": f"{stats.feature_megabytes:.1f} MB",
        })
    return rows
