"""Save/load DyCuckoo tables to disk.

A saved table round-trips exactly: hash-function constants, storage
arrays, configuration, and counters are all preserved, so a reloaded
table answers every query identically and continues resizing from the
same state.  The format is a single ``.npz`` file (numpy's zipped
archive) with a version field for forward compatibility.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.core.config import DyCuckooConfig
from repro.core.hashing import UniversalHash
from repro.core.stats import TableStats
from repro.core.table import DyCuckooTable
from repro.errors import InvalidConfigError

#: Format version written into every archive.
FORMAT_VERSION = 1


def _hash_constants(hash_fn: UniversalHash) -> list[int]:
    return [int(hash_fn.a), int(hash_fn.b), int(hash_fn.premix)]


def _hash_from_constants(constants) -> UniversalHash:
    a, b, premix = (int(x) for x in constants)
    return UniversalHash(a, b, premix)


def save_table(table: DyCuckooTable, path) -> None:
    """Serialize ``table`` to ``path`` (a ``.npz`` archive).

    Any open migration epoch is drained first: the archive
    format stores settled storage (bucket count inferred from the key
    array's shape), so a dual-view subtable must finish migrating
    before its arrays are written out.
    """
    path = Path(path)
    table.finalize_resizes()
    payload = {
        "version": np.asarray([FORMAT_VERSION]),
        "config": np.frombuffer(
            json.dumps(dataclasses.asdict(table.config)).encode("utf-8"),
            dtype=np.uint8).copy(),
        "stats": np.asarray(
            [table.stats.snapshot()[f.name]
             for f in dataclasses.fields(TableStats)], dtype=np.int64),
        "pair_hash": np.asarray(_hash_constants(table.pair_hash.hash),
                                dtype=np.uint64),
        "victim_counter": np.asarray([table._victim_counter],
                                     dtype=np.int64),
    }
    stash_codes, stash_values = table.stash.export_entries()
    payload["stash_keys"] = stash_codes
    payload["stash_values"] = stash_values
    for idx, st in enumerate(table.subtables):
        payload[f"keys_{idx}"] = st.keys
        payload[f"values_{idx}"] = st.values
        payload[f"size_{idx}"] = np.asarray([st.size], dtype=np.int64)
        payload[f"hash_{idx}"] = np.asarray(
            _hash_constants(table.table_hashes[idx]), dtype=np.uint64)
    np.savez_compressed(path, **payload)


def load_table(path) -> DyCuckooTable:
    """Reconstruct a table previously written by :func:`save_table`."""
    path = Path(path)
    with np.load(path) as archive:
        version = int(archive["version"][0])
        if version != FORMAT_VERSION:
            raise InvalidConfigError(
                f"unsupported table archive version {version} "
                f"(this build reads version {FORMAT_VERSION})")
        config_dict = json.loads(bytes(archive["config"]).decode("utf-8"))
        # Archives written while a one-shot resize path existed carry
        # its retired ``incremental_resize`` switch.
        config_dict.pop("incremental_resize", None)
        config = DyCuckooConfig(**config_dict)
        table = DyCuckooTable(config)

        table.pair_hash.hash = _hash_from_constants(archive["pair_hash"])
        table._victim_counter = int(archive["victim_counter"][0])
        stats_fields = [f.name for f in dataclasses.fields(TableStats)]
        for name, value in zip(stats_fields, archive["stats"]):
            setattr(table.stats, name, int(value))

        for idx, st in enumerate(table.subtables):
            keys = archive[f"keys_{idx}"]
            st.n_buckets = keys.shape[0]
            st.keys = keys.copy()
            st.values = archive[f"values_{idx}"].copy()
            st.size = int(archive[f"size_{idx}"][0])
            table.table_hashes[idx] = _hash_from_constants(
                archive[f"hash_{idx}"])
        table.restack_hashes()
        table.geometry_changed()
        # Stash entries appeared with the fault-injection layer; archives
        # written before it simply have an empty stash.
        if "stash_keys" in archive:
            stash_codes = archive["stash_keys"]
            if len(stash_codes):
                table.stash.push(stash_codes, archive["stash_values"])
    return table
