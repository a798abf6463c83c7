"""Tests for the on-disk content-addressed result cache."""

import json

import pytest

from repro.harness.cache import ResultCache
from repro.harness.fingerprint import clear_fingerprint_cache, module_fingerprint
from repro.harness.jobs import JobSpec


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


SPEC = JobSpec.make("selftest", mode="ok", value=7)


class TestPutGet:
    def test_round_trip(self, cache):
        key = SPEC.key()
        cache.put(key, SPEC, {"echo": 7}, elapsed_seconds=0.5)
        assert cache.get(key) == {"echo": 7}

    def test_miss_returns_none_and_counts(self, cache):
        assert cache.get("0" * 24) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_hit_counts(self, cache):
        key = SPEC.key()
        cache.put(key, SPEC, {"echo": 7}, 0.1)
        cache.get(key)
        cache.get(key)
        assert cache.hits == 2 and cache.misses == 0

    def test_no_temp_files_left_behind(self, cache):
        key = SPEC.key()
        cache.put(key, SPEC, {"echo": 7}, 0.1)
        leftovers = [
            p for p in cache.root.rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_corrupt_entry_is_a_self_healing_miss(self, cache):
        key = SPEC.key()
        cache.put(key, SPEC, {"echo": 7}, 0.1)
        cache.path_for(key).write_text('{"torn')
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_entries_are_valid_json_with_metadata(self, cache):
        key = SPEC.key()
        cache.put(key, SPEC, {"echo": 7}, 0.25)
        payload = json.loads(cache.path_for(key).read_text())
        assert payload["key"] == key
        assert payload["spec"] == SPEC.to_dict()
        assert payload["elapsed_seconds"] == 0.25
        assert payload["result"] == {"echo": 7}

    def test_entry_text_is_json_dumps_of_the_entry(self, cache):
        key = SPEC.key()
        result = {"records": [[0, 1, 2.5e5, 0.1, 0.30000000000000004]]}
        cache.put(key, SPEC, result, 0.25)
        text = cache.path_for(key).read_text()
        assert text == json.dumps(json.loads(text))
        assert json.loads(text)["result"] == result


class TestManagement:
    def test_len_entries_and_clear(self, cache):
        for value in range(3):
            spec = JobSpec.make("selftest", mode="ok", value=value)
            cache.put(spec.key(), spec, {"echo": value}, 0.1)
        assert len(cache) == 3
        entries = list(cache.entries())
        assert len(entries) == 3
        assert all("selftest" in e["label"] for e in entries)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_clear_on_missing_root(self, cache):
        assert cache.clear() == 0

    def test_default_root_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultCache.default_root() == tmp_path / "elsewhere"


class TestFingerprint:
    def test_fingerprint_changes_with_source(self, tmp_path, monkeypatch):
        pkg = tmp_path / "fp_probe_pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))

        clear_fingerprint_cache()
        before = module_fingerprint(("fp_probe_pkg",))
        (pkg / "__init__.py").write_text("VALUE = 2\n")
        clear_fingerprint_cache()
        after = module_fingerprint(("fp_probe_pkg",))
        assert before != after

    def test_fingerprint_changes_when_file_added(self, tmp_path, monkeypatch):
        pkg = tmp_path / "fp_probe_pkg2"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))

        clear_fingerprint_cache()
        before = module_fingerprint(("fp_probe_pkg2",))
        (pkg / "extra.py").write_text("OTHER = 1\n")
        clear_fingerprint_cache()
        after = module_fingerprint(("fp_probe_pkg2",))
        assert before != after

    def test_fingerprint_stable_across_calls(self):
        clear_fingerprint_cache()
        a = module_fingerprint(("repro.harness",))
        clear_fingerprint_cache()
        b = module_fingerprint(("repro.harness",))
        assert a == b

    def test_unknown_module_rejected(self):
        clear_fingerprint_cache()
        with pytest.raises(ModuleNotFoundError):
            module_fingerprint(("definitely_not_a_module_xyz",))
