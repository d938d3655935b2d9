"""Torn-write and durability regressions for the on-disk result cache."""

from __future__ import annotations

import hashlib
import json
import os

from repro.service.cache import (
    CACHE_KEY_SCHEMA,
    ResultCache,
    canonical_request,
    request_key,
)


def _entry_files(directory):
    return sorted(p for p in directory.iterdir() if p.suffix == ".json")


def test_disk_put_is_atomic_and_leaves_no_temp_files(tmp_path):
    cache = ResultCache(capacity=4, directory=tmp_path)
    cache.put("k" * 64, {"value": 1})
    files = _entry_files(tmp_path)
    assert len(files) == 1
    entry = json.loads(files[0].read_text())
    assert entry["schema"] == CACHE_KEY_SCHEMA
    assert entry["result"] == {"value": 1}
    leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
    assert leftovers == []


def test_torn_disk_entry_is_dropped_not_served(tmp_path):
    key = "a" * 64
    cache = ResultCache(capacity=4, directory=tmp_path)
    cache.put(key, {"value": 42})
    # Simulate a torn write (power loss mid-flush): truncate the entry.
    path = _entry_files(tmp_path)[0]
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    # A fresh cache (cold memory front) must treat it as a miss and
    # remove the torn file so it cannot shadow a future good entry.
    cold = ResultCache(capacity=4, directory=tmp_path)
    assert cold.get(key) is None
    assert _entry_files(tmp_path) == []
    # And a rewrite round-trips again.
    cold.put(key, {"value": 43})
    fresh = ResultCache(capacity=4, directory=tmp_path)
    assert fresh.get(key) == {"value": 43}


def test_disk_put_survives_fsync_failure(tmp_path, monkeypatch):
    cache = ResultCache(capacity=4, directory=tmp_path)

    def broken_fsync(fd):
        raise OSError("no fsync for you")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    cache.put("b" * 64, {"value": 7})  # must not raise
    leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
    assert leftovers == []
    # The memory front still serves the result even though the disk
    # store failed.
    assert cache.get("b" * 64) == {"value": 7}


def test_wrong_schema_entry_is_dropped(tmp_path):
    key = "c" * 64
    cache = ResultCache(capacity=4, directory=tmp_path)
    (tmp_path / f"{key}.json").write_text(
        json.dumps({"schema": "something-else/9", "result": {"value": 1}})
    )
    assert cache.get(key) is None
    assert _entry_files(tmp_path) == []


def test_entry_from_the_previous_key_schema_is_a_miss(tmp_path):
    """A tier filled by an older node (``/4``) never serves this one."""
    assert CACHE_KEY_SCHEMA == "repro-service-key/5"
    params = {"expr": "a & b"}
    material = canonical_request("synth", params)
    old_material = {**material, "schema": "repro-service-key/4"}
    old_key = hashlib.sha256(
        json.dumps(old_material, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    key = request_key("synth", params)
    assert key != old_key
    # Even an entry written under the current key but stamped /4 is dropped.
    for stale in (old_key, key):
        (tmp_path / f"{stale}.json").write_text(
            json.dumps({"schema": "repro-service-key/4", "result": {"value": 1}})
        )
    cache = ResultCache(capacity=4, directory=tmp_path)
    assert cache.get(key) is None
    assert [p.stem for p in _entry_files(tmp_path)] == [old_key]
