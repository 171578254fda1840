"""Unit tests for the dataset registry (Table II)."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config.workload import WorkloadSpec
from repro.eval.harness import Harness
from repro.graph import datasets as datasets_module
from repro.graph.datasets import (
    DATASET_CACHE_ENV,
    DATASETS,
    _dataset_cache_load,
    _dataset_cache_path,
    _dataset_cache_store,
    dataset_stats,
    dataset_table,
    load_dataset,
)
from repro.graph.graph import GraphError
from repro.models.zoo import NETWORK_NAMES
from repro.sweep.cache import DatasetCache

TABLE2 = {
    "cora": (2708, 10556, 1433),
    "citeseer": (3327, 9104, 3703),
    "pubmed": (19717, 88648, 500),
    # Not in the paper: the CI/DSE smoke dataset.
    "tiny": (64, 256, 32),
    # Not in the paper: the million-edge scale-up workloads, pinned to
    # the published sizes of Flickr (GraphSAINT) and Reddit.
    "flickr": (89250, 899756, 500),
    "reddit-s": (232965, 11606920, 602),
}


def _smaps_rss_kb(path: str) -> list[int]:
    """Resident kB of each mapping of ``path`` in this process."""
    rss: list[int] = []
    mapping = None
    for line in Path("/proc/self/smaps").read_text().splitlines():
        fields = line.split()
        if "-" in fields[0] and not fields[0].endswith(":"):
            mapping = fields[5] if len(fields) > 5 else None
        elif fields[0] == "Rss:" and mapping == path:
            rss.append(int(fields[1]))
    return rss


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_stats_match_table2(self, name):
        stats = dataset_stats(name)
        nodes, edges, dim = TABLE2[name]
        assert stats.num_nodes == nodes
        assert stats.num_edges == edges
        assert stats.feature_dim == dim

    def test_sizes_match_table2_column(self):
        # Paper reports 15.6 / 49 / 40.5 MB for fp32 features.
        assert dataset_stats("cora").feature_megabytes == pytest.approx(
            15.5, abs=0.2)
        assert dataset_stats("citeseer").feature_megabytes == pytest.approx(
            49.3, abs=0.4)
        assert dataset_stats("pubmed").feature_megabytes == pytest.approx(
            39.4, abs=1.2)

    def test_unknown_dataset_lists_names(self):
        with pytest.raises(GraphError, match="cora"):
            dataset_stats("imaginary")

    def test_table_rendering_shows_paper_datasets_only(self):
        rows = dataset_table()
        assert len(rows) == 3
        assert rows[0]["Dataset"] == "CORA"
        assert all(row["Dataset"] != "TINY" for row in rows)


class TestLoading:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_synthetic_matches_published_counts(self, name):
        graph = load_dataset(name)
        stats = dataset_stats(name)
        assert graph.num_nodes == stats.num_nodes
        assert graph.num_edges == stats.num_edges
        assert graph.feature_dim == stats.feature_dim

    def test_loads_are_cached(self):
        assert load_dataset("cora") is load_dataset("cora")

    def test_symmetrised(self):
        graph = load_dataset("cora")
        pairs = set(zip(graph.src.tolist(), graph.dst.tolist()))
        sample = list(pairs)[:200]
        assert all((v, u) in pairs for u, v in sample)

    def test_disk_cache_roundtrip_is_exact(self, tmp_path, monkeypatch):
        """A graph served from the persistent npz cache is structurally
        identical to a fresh synthesis (same edges, same features)."""
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path))
        fresh = datasets_module._synthesize.__wrapped__("tiny")
        path = _dataset_cache_path(dataset_stats("tiny"), 53)
        assert path is not None and path.exists()
        cached = _dataset_cache_load(path, dataset_stats("tiny"))
        assert cached is not None
        assert np.array_equal(cached.src, fresh.src)
        assert np.array_equal(cached.dst, fresh.dst)
        assert np.array_equal(cached.features, fresh.features)

    def test_disk_cache_corrupt_file_is_a_miss(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path))
        stats = dataset_stats("tiny")
        path = _dataset_cache_path(stats, 53)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz archive")
        assert _dataset_cache_load(path, stats) is None
        graph = datasets_module._synthesize.__wrapped__("tiny")
        assert graph.num_nodes == stats.num_nodes

    def test_disk_cache_rejects_mismatched_stats(self, tmp_path):
        """An entry whose stored graph no longer matches the published
        statistics (e.g. stale after a registry change) is a miss."""
        stats = dataset_stats("tiny")
        wrong = datasets_module.DatasetStats(
            name="tiny", num_nodes=stats.num_nodes,
            num_edges=stats.num_edges, feature_dim=stats.feature_dim,
            num_classes=stats.num_classes,
            feature_density=stats.feature_density)
        path = tmp_path / "entry.npz"
        graph = load_dataset("tiny")
        _dataset_cache_store(path, graph)
        bigger = datasets_module.DatasetStats(
            name="tiny", num_nodes=stats.num_nodes + 1,
            num_edges=stats.num_edges, feature_dim=stats.feature_dim,
            num_classes=stats.num_classes,
            feature_density=stats.feature_density)
        assert _dataset_cache_load(path, wrong) is not None
        assert _dataset_cache_load(path, bigger) is None

    def test_disk_cache_truncated_entry_is_a_miss(self, tmp_path,
                                                  monkeypatch):
        """A truncated structure npz — a crashed writer, a torn disk —
        must read as a miss and be re-synthesised, mirroring
        ``ResultCache.get``'s any-read-error-is-a-miss contract."""
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path))
        stats = dataset_stats("tiny")
        datasets_module._synthesize.__wrapped__("tiny")
        path = _dataset_cache_path(stats, 53)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        assert _dataset_cache_load(path, stats) is None
        graph = datasets_module._synthesize.__wrapped__("tiny")
        assert graph.num_nodes == stats.num_nodes
        # ...and the store path healed the entry for the next reader.
        assert _dataset_cache_load(path, stats) is not None

    def test_disk_cache_truncated_features_sidecar_is_a_miss(
            self, tmp_path, monkeypatch):
        """Same for the features ``.npy`` sidecar, which is loaded as a
        memory map: a short file must never reach the point of faulting
        past EOF."""
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path))
        stats = dataset_stats("tiny")
        datasets_module._synthesize.__wrapped__("tiny")
        path = _dataset_cache_path(stats, 53)
        sidecar = datasets_module._features_path(path)
        blob = sidecar.read_bytes()
        sidecar.write_bytes(blob[:len(blob) // 2])
        assert _dataset_cache_load(path, stats) is None
        sidecar.unlink()  # missing sidecar entirely is a miss too
        assert _dataset_cache_load(path, stats) is None

    def test_cached_features_are_memory_mapped(self, tmp_path,
                                               monkeypatch):
        """Every cached dataset loads its features as a read-only
        memmap: no second in-memory copy, and accidental mutation of
        the shared cache graph raises instead of corrupting."""
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path))
        fresh = datasets_module._synthesize.__wrapped__("tiny")
        stats = dataset_stats("tiny")
        path = _dataset_cache_path(stats, 53)
        cached = _dataset_cache_load(path, stats)
        assert cached is not None
        base = cached.features.base
        assert isinstance(base, np.memmap) or isinstance(
            cached.features, np.memmap)
        assert np.array_equal(cached.features, fresh.features)
        with pytest.raises((ValueError, OSError)):
            cached.features[0, 0] = 99.0

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_disk_cache_damaged_edge_sidecar_is_a_miss_that_heals(
            self, tmp_path, monkeypatch, damage):
        """The edge sidecar loads as a memory map, so no zip CRC reads
        it: the record's CRC-32 must. A flipped bit that leaves every
        node id in range is a miss, and so is a short file; the next
        store heals the entry."""
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path))
        stats = dataset_stats("tiny")
        fresh = datasets_module._synthesize.__wrapped__("tiny")
        path = _dataset_cache_path(stats, 53)
        sidecar = datasets_module._edges_path(path)
        blob = bytearray(sidecar.read_bytes())
        if damage == "flip":
            # The low bit of dst[0]: still a valid node id.
            offset = len(blob) - 8 * stats.num_edges
            blob[offset] ^= 0x01
        else:
            del blob[len(blob) // 2:]
        sidecar.write_bytes(bytes(blob))
        assert _dataset_cache_load(path, stats) is None
        datasets_module._synthesize.__wrapped__("tiny")
        healed = _dataset_cache_load(path, stats)
        assert healed is not None
        assert np.array_equal(healed.src, fresh.src)
        assert np.array_equal(healed.dst, fresh.dst)

    def test_cached_edges_are_read_only_memory_maps(self, tmp_path,
                                                    monkeypatch):
        """A cached graph's edges are views of one mapped sidecar: no
        decoded copy, and a write raises instead of corrupting the
        graph every holder shares."""
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path))
        fresh = datasets_module._synthesize.__wrapped__("tiny")
        stats = dataset_stats("tiny")
        cached = _dataset_cache_load(_dataset_cache_path(stats, 53), stats)
        assert cached is not None
        for array, expected in ((cached.src, fresh.src),
                                (cached.dst, fresh.dst)):
            base = array
            while base is not None and not isinstance(base, np.memmap):
                base = base.base
            assert base is not None, "not a view of a memory map"
            assert not array.flags.writeable
            assert np.array_equal(array, expected)
        with pytest.raises(ValueError):
            cached.src[0] = 1
        with pytest.raises(ValueError):
            cached.dst[0] = 1

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads /proc/self/smaps")
    def test_dse_evaluation_reads_no_feature_value(self, tmp_path,
                                                   monkeypatch):
        """A DSE evaluation reads graph structure only: after every zoo
        network is compiled and simulated on a disk-cached cora, no
        page of its mapped feature matrix is resident. This is why a
        forked sweep worker inherits a parent that holds no features."""
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path))
        stats = dataset_stats("cora")
        datasets_module._synthesize.__wrapped__("cora")
        path = _dataset_cache_path(stats, 11)
        graph = _dataset_cache_load(path, stats)
        assert graph is not None
        harness = Harness(program_store=None)
        harness._datasets = DatasetCache(loader=lambda name: graph)
        for network in NETWORK_NAMES:
            metrics = harness.gnnerator_dse_metrics(
                WorkloadSpec(dataset="cora", network=network))
            assert metrics["cycles"] > 0
        mapped = str(datasets_module._features_path(path).resolve())
        rss = _smaps_rss_kb(mapped)
        assert rss, f"{mapped} is not mapped"
        assert rss == [0] * len(rss), rss

    def test_disk_cache_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv(DATASET_CACHE_ENV, "off")
        assert _dataset_cache_path(dataset_stats("tiny"), 53) is None

    def test_planetoid_files_preferred(self, tmp_path):
        """A real .content/.cites pair under data_dir overrides synthesis."""
        content = tmp_path / "cora.content"
        cites = tmp_path / "cora.cites"
        content.write_text(
            "p1 1 0 1 classA\n"
            "p2 0 1 0 classB\n"
            "p3 1 1 1 classA\n")
        cites.write_text("p1 p2\np2 p3\nunknown p1\n")
        graph = load_dataset("cora", data_dir=str(tmp_path))
        assert graph.num_nodes == 3
        assert graph.feature_dim == 3
        # Two parseable citations, symmetrised.
        assert graph.num_edges == 4
