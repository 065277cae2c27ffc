"""Tests for table serialization (save/load round-trip)."""

import json

import numpy as np
import pytest

from repro.core.config import DyCuckooConfig
from repro.core.persistence import FORMAT_VERSION, load_table, save_table
from repro.core.table import DyCuckooTable
from repro.errors import InvalidConfigError

from .conftest import unique_keys


class TestRoundTrip:
    def test_contents_preserved(self, tmp_path):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             bucket_capacity=8))
        keys = unique_keys(3000, seed=1)
        table.insert(keys, keys * 5)
        table.delete(keys[:500])
        path = tmp_path / "table.npz"
        save_table(table, path)

        loaded = load_table(path)
        loaded.validate()
        assert len(loaded) == len(table)
        values, found = loaded.find(keys)
        orig_values, orig_found = table.find(keys)
        assert np.array_equal(found, orig_found)
        assert np.array_equal(values[found], orig_values[orig_found])

    def test_config_preserved(self, tmp_path):
        config = DyCuckooConfig(num_tables=3, bucket_capacity=4,
                                initial_buckets=32, alpha=0.25, beta=0.75,
                                routing="uniform")
        table = DyCuckooTable(config)
        path = tmp_path / "t.npz"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.config == config

    def test_archive_with_retired_resize_switch_loads(self, tmp_path):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             bucket_capacity=8))
        keys = unique_keys(500, seed=4)
        table.insert(keys, keys)
        path = tmp_path / "t.npz"
        save_table(table, path)
        with np.load(path) as archive:
            payload = dict(archive)
        config = json.loads(bytes(payload["config"]).decode("utf-8"))
        config["incremental_resize"] = True
        payload["config"] = np.frombuffer(json.dumps(config).encode("utf-8"),
                                          dtype=np.uint8)
        np.savez_compressed(path, **payload)
        loaded = load_table(path)
        assert loaded.config == table.config
        _values, found = loaded.find(keys)
        assert found.all()

    def test_stats_preserved(self, tmp_path):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             bucket_capacity=8))
        keys = unique_keys(1000, seed=2)
        table.insert(keys, keys)
        path = tmp_path / "t.npz"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.stats.snapshot() == table.stats.snapshot()

    def test_loaded_table_continues_working(self, tmp_path):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             bucket_capacity=8))
        keys = unique_keys(2000, seed=3)
        table.insert(keys[:1000], keys[:1000])
        path = tmp_path / "t.npz"
        save_table(table, path)

        loaded = load_table(path)
        loaded.insert(keys[1000:], keys[1000:])
        loaded.validate()
        _, found = loaded.find(keys)
        assert found.all()
        loaded.delete(keys)
        assert len(loaded) == 0

    def test_empty_table_round_trip(self, tmp_path):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=4))
        path = tmp_path / "empty.npz"
        save_table(table, path)
        loaded = load_table(path)
        assert len(loaded) == 0
        loaded.validate()

    def test_version_check(self, tmp_path):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=4))
        path = tmp_path / "t.npz"
        save_table(table, path)
        # Corrupt the version field.
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["version"] = np.asarray([FORMAT_VERSION + 1])
        np.savez_compressed(path, **payload)
        with pytest.raises(InvalidConfigError):
            load_table(path)

    def test_resized_table_round_trip(self, tmp_path):
        """Subtables of different sizes serialize correctly."""
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=8))
        keys = unique_keys(5000, seed=4)
        table.insert(keys, keys)  # triggers several upsizes
        sizes = [st.n_buckets for st in table.subtables]
        assert len(set(sizes)) >= 1
        path = tmp_path / "resized.npz"
        save_table(table, path)
        loaded = load_table(path)
        assert [st.n_buckets for st in loaded.subtables] == sizes
        loaded.validate()
        _, found = loaded.find(keys)
        assert found.all()
