"""Persistent content-addressed model/trace cache."""

import json
import os

import numpy as np
import pytest

from repro.circuit.power import PowerSimulator
from repro.core import characterize_module, classify_transitions
from repro.core.characterize import uniform_hd_input_bits
from repro.eval import ExperimentConfig
from repro.modules import make_module
from repro.runtime import ModelCache
from repro.runtime.cache import default_cache_dir


@pytest.fixture()
def result():
    module = make_module("ripple_adder", 3)
    return characterize_module(module, n_patterns=400, seed=1, enhanced=True)


def test_characterization_round_trip(tmp_path, result):
    cache = ModelCache(tmp_path)
    config = ExperimentConfig(n_characterization=400)
    key = cache.characterization_key("ripple_adder", 3, True, config, 1)
    assert cache.load_characterization(key) is None
    assert cache.misses == 1
    cache.store_characterization(key, result)
    assert cache.stores == 1

    loaded = ModelCache(tmp_path).load_characterization(key)
    assert loaded is not None
    np.testing.assert_array_equal(
        loaded.model.coefficients, result.model.coefficients
    )
    np.testing.assert_array_equal(loaded.model.counts, result.model.counts)
    assert loaded.enhanced.coefficients == result.enhanced.coefficients
    assert loaded.n_patterns == result.n_patterns
    assert loaded.converged == result.converged
    assert loaded.convergence_reason == result.convergence_reason
    assert loaded.history == pytest.approx(result.history)
    assert loaded.accumulator == result.accumulator


def test_trace_round_trip(tmp_path):
    module = make_module("ripple_adder", 3)
    bits = uniform_hd_input_bits(200, module.input_bits, seed=2)
    trace = PowerSimulator(module.compiled).simulate(bits)
    events = classify_transitions(bits)
    cache = ModelCache(tmp_path)
    config = ExperimentConfig()
    key = cache.trace_key("ripple_adder", 3, "I", config, 7)
    assert cache.load_trace(key) is None
    cache.store_trace(key, events, trace)
    loaded_events, loaded_trace = ModelCache(tmp_path).load_trace(key)
    np.testing.assert_array_equal(loaded_events.hd, events.hd)
    np.testing.assert_array_equal(
        loaded_events.stable_zeros, events.stable_zeros
    )
    np.testing.assert_array_equal(loaded_trace.charge, trace.charge)
    np.testing.assert_array_equal(
        loaded_trace.total_toggles, trace.total_toggles
    )


def test_key_covers_full_provenance(tmp_path):
    """Any change to kind, width, enhanced flag, seed or any config field
    must change the content address."""
    cache = ModelCache(tmp_path)
    base = ExperimentConfig()
    key = cache.characterization_key("ripple_adder", 4, False, base, 1)
    assert cache.characterization_key("ripple_adder", 4, False, base, 1) == key
    variants = [
        cache.characterization_key("csa_multiplier", 4, False, base, 1),
        cache.characterization_key("ripple_adder", 8, False, base, 1),
        cache.characterization_key("ripple_adder", 4, True, base, 1),
        cache.characterization_key("ripple_adder", 4, False, base, 2),
        cache.characterization_key(
            "ripple_adder", 4, False,
            ExperimentConfig(n_characterization=999), 1,
        ),
        cache.characterization_key(
            "ripple_adder", 4, False,
            ExperimentConfig(glitch_weight=0.5), 1,
        ),
        cache.trace_key("ripple_adder", 4, "I", base, 1),
    ]
    assert len({key, *variants}) == len(variants) + 1


def test_code_version_invalidates(tmp_path, result, monkeypatch):
    """Bumping CHARACTERIZATION_VERSION orphans old entries."""
    import repro.runtime.cache as cache_module

    cache = ModelCache(tmp_path)
    config = ExperimentConfig()
    key = cache.characterization_key("ripple_adder", 3, True, config, 1)
    cache.store_characterization(key, result)
    monkeypatch.setattr(
        cache_module, "CHARACTERIZATION_VERSION", "999-test"
    )
    new_key = cache.characterization_key("ripple_adder", 3, True, config, 1)
    assert new_key != key
    assert cache.load_characterization(new_key) is None


def test_version_2_records_are_clean_misses(tmp_path, monkeypatch):
    """A cache filled before the vectorized stimulus (version "2") is a
    clean miss now: characterize_jobs recharacterizes and never returns
    the old record's coefficients."""
    import repro.runtime.cache as cache_module
    from repro.runtime.service import (
        CharacterizationJob,
        characterization_seed,
        characterize_jobs,
    )

    config = ExperimentConfig(n_characterization=300, seed=4)
    job = CharacterizationJob("ripple_adder", 3, False)
    seed = characterization_seed(config.seed, job.width, job.enhanced,
                                 job.kind)
    # Plant a version-2 record whose coefficients are recognizably not
    # this job's (a differently seeded run of the same module).
    planted = characterize_module(
        make_module("ripple_adder", 3), n_patterns=300, seed=seed + 1
    )
    cache = ModelCache(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "CHARACTERIZATION_VERSION", "2")
        old_key = cache.characterization_key(
            job.kind, job.width, job.enhanced, config, seed
        )
        old_path = cache.store_characterization(old_key, planted)
        served = characterize_jobs([job], config=config, cache=cache)
        assert served.cache_hits == 1

    report = characterize_jobs(
        [job], config=config, cache=ModelCache(tmp_path)
    )
    assert report.cache_hits == 0
    assert report.cache_misses == 1
    fresh = characterize_jobs([job], config=config, cache=None).results[0]
    got = report.results[0].model.coefficients
    np.testing.assert_array_equal(got, fresh.model.coefficients)
    assert not np.array_equal(got, planted.model.coefficients)
    # The old record is orphaned, not overwritten: `cache clear` reclaims it.
    assert old_path.exists()
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_corrupt_entry_is_a_miss(tmp_path, result):
    cache = ModelCache(tmp_path)
    key = cache.characterization_key(
        "ripple_adder", 3, True, ExperimentConfig(), 1
    )
    path = cache.store_characterization(key, result)
    path.write_text("{not json")
    assert ModelCache(tmp_path).load_characterization(key) is None
    # Unknown format versions are also rejected, not misparsed.
    record = {"format": "unsupported", "meta": {}, "payload": {}}
    path.write_text(json.dumps(record))
    assert ModelCache(tmp_path).load_characterization(key) is None


# ----------------------------------------------------------------------
# Degradation: broken on-disk records must be quarantined misses, never
# exceptions that take down a benchmark run.
# ----------------------------------------------------------------------
def _stored_characterization(tmp_path, result):
    cache = ModelCache(tmp_path)
    key = cache.characterization_key(
        "ripple_adder", 3, True, ExperimentConfig(), 1
    )
    path = cache.store_characterization(key, result)
    return cache, key, path


def test_truncated_record_quarantined(tmp_path, result):
    """A half-written file (crashed writer, full disk) is quarantined."""
    cache, key, path = _stored_characterization(tmp_path, result)
    full = path.read_text()
    path.write_text(full[: len(full) // 2])

    fresh = ModelCache(tmp_path)
    assert fresh.load_characterization(key) is None
    assert fresh.misses == 1 and fresh.hits == 0
    assert fresh.quarantined == 1
    assert not path.exists()
    assert path.with_suffix(".corrupt").exists()
    # The quarantined file no longer pollutes listings, and a re-store
    # plus reload works normally.
    assert fresh.entries() == []
    fresh.store_characterization(key, result)
    assert fresh.load_characterization(key) is not None


def test_binary_garbage_record_quarantined(tmp_path, result):
    cache, key, path = _stored_characterization(tmp_path, result)
    path.write_bytes(bytes([0x80, 0xFF, 0x00, 0x13, 0x37]))
    fresh = ModelCache(tmp_path)
    assert fresh.load_characterization(key) is None
    assert fresh.quarantined == 1
    assert path.with_suffix(".corrupt").exists()


def test_structurally_wrong_payload_quarantined(tmp_path, result):
    """Valid JSON with the right format tag but a gutted payload: the
    typed loader must demote the hit to a quarantined miss."""
    cache, key, path = _stored_characterization(tmp_path, result)
    record = json.loads(path.read_text())
    record["payload"] = {"model": {"what": "is this"}}
    path.write_text(json.dumps(record))

    fresh = ModelCache(tmp_path)
    assert fresh.load_characterization(key) is None
    assert fresh.hits == 0 and fresh.misses == 1
    assert fresh.quarantined == 1
    assert not path.exists()


def test_non_object_top_level_quarantined(tmp_path, result):
    cache, key, path = _stored_characterization(tmp_path, result)
    path.write_text("[1, 2, 3]")
    fresh = ModelCache(tmp_path)
    assert fresh.load(key) is None
    assert fresh.quarantined == 1


def test_corrupt_trace_record_quarantined(tmp_path):
    module = make_module("ripple_adder", 3)
    bits = uniform_hd_input_bits(50, module.input_bits, seed=3)
    trace = PowerSimulator(module.compiled).simulate(bits)
    events = classify_transitions(bits)
    cache = ModelCache(tmp_path)
    key = cache.trace_key("ripple_adder", 3, "I", ExperimentConfig(), 7)
    path = cache.store_trace(key, events, trace)
    record = json.loads(path.read_text())
    del record["payload"]["charge"]
    path.write_text(json.dumps(record))

    fresh = ModelCache(tmp_path)
    assert fresh.load_trace(key) is None
    assert fresh.quarantined == 1
    assert path.with_suffix(".corrupt").exists()


def test_clear_removes_quarantined_files(tmp_path, result):
    cache, key, path = _stored_characterization(tmp_path, result)
    path.write_text("{broken")
    fresh = ModelCache(tmp_path)
    assert fresh.load_characterization(key) is None
    assert fresh.clear() == 0  # no healthy entries left...
    assert list(tmp_path.glob("*.corrupt")) == []  # ...and no quarantine

    stats = fresh.stats()
    assert stats["quarantined"] == 1
    assert stats["entries"] == 0


def test_stats_ls_clear(tmp_path, result):
    cache = ModelCache(tmp_path)
    config = ExperimentConfig()
    for width in (3, 4):
        key = cache.characterization_key(
            "ripple_adder", width, False, config, width
        )
        cache.store_characterization(
            key, result, meta={"kind": "ripple_adder", "width": width}
        )
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["total_bytes"] > 0
    assert stats["stores"] == 2
    entries = cache.entries()
    assert len(entries) == 2
    assert {row["record"] for row in entries} == {"characterization"}
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0


def test_default_directory_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    assert ModelCache().directory == tmp_path / "override"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert str(default_cache_dir()).endswith(".cache/repro-hd")


def test_empty_cache_maintenance(tmp_path):
    cache = ModelCache(tmp_path / "never-created")
    assert cache.entries() == []
    assert cache.clear() == 0
    assert cache.stats()["entries"] == 0


# ----------------------------------------------------------------------
# Concurrent writers: store() must never share a temp file between two
# in-flight writes (the old fixed ".tmp" name let one worker rename the
# other's half-written record into place, or steal the temp file out from
# under its atomic replace).
# ----------------------------------------------------------------------
def test_store_uses_unique_temp_names(tmp_path, monkeypatch):
    import pathlib

    seen = []
    original_write_text = pathlib.Path.write_text

    def spy(self, *args, **kwargs):
        seen.append(self.name)
        return original_write_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", spy)
    cache = ModelCache(tmp_path)
    cache.store("samekey", {"writer": "a"}, {})
    cache.store("samekey", {"writer": "b"}, {})
    tmp_names = [name for name in seen if name.endswith(".tmp")]
    assert len(tmp_names) == 2
    assert tmp_names[0] != tmp_names[1]


def test_interleaved_writers_leave_valid_record(tmp_path, monkeypatch):
    """Writer B completes an entire store *between* writer A's temp write
    and its atomic replace; A's record must land intact, with no temp
    litter.  With a shared temp name this interleaving corrupted or lost
    one of the writes."""
    import pathlib

    cache_a = ModelCache(tmp_path)
    cache_b = ModelCache(tmp_path)
    original_replace = pathlib.Path.replace
    state = {"interleaved": False}

    def interleaving_replace(self, target):
        if not state["interleaved"]:
            state["interleaved"] = True
            cache_b.store("contested", {"writer": "b"}, {"who": "b"})
        return original_replace(self, target)

    monkeypatch.setattr(pathlib.Path, "replace", interleaving_replace)
    cache_a.store("contested", {"writer": "a"}, {"who": "a"})

    assert state["interleaved"]
    record = json.loads((tmp_path / "contested.json").read_text())
    # A's replace ran last, so A wins the race with a *complete* record.
    assert record["payload"] == {"writer": "a"}
    assert list(tmp_path.glob("*.tmp*")) == []
    assert cache_a.stores == 1 and cache_b.stores == 1


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork() not available on this platform"
)
def test_fork_resets_tmp_sequence_and_children_never_collide(tmp_path):
    """Temp names must stay unique across fork() (the fleet's worker model).

    The parent advances the shared sequence, then forks two children
    that hammer the same key concurrently.  Each child must (a) observe
    a *reset* sequence (the ``os.register_at_fork`` hook), (b) mint temp
    names from its own pid read at call time, and (c) leave the contested
    record valid with zero temp litter.
    """
    import pathlib

    from repro.runtime import cache as cache_module

    parent_cache = ModelCache(tmp_path)
    # Advance the parent's sequence so inherited state is non-trivial.
    for n in range(3):
        parent_cache.store("warm", {"n": n}, {})

    def child(tag: str) -> None:
        status = 1
        try:
            # (a) the at-fork hook restarted the per-process sequence
            seen = []
            original_write_text = pathlib.Path.write_text
            pathlib.Path.write_text = lambda self, *a, **k: (
                seen.append(self.name), original_write_text(self, *a, **k)
            )[-1]
            child_cache = ModelCache(tmp_path)
            for n in range(20):
                child_cache.store("contested", {"writer": tag, "n": n}, {})
            pathlib.Path.write_text = original_write_text
            tmp_names = [s for s in seen if s.endswith(".tmp")]
            # (b) names carry this child's pid and restart at sequence 0
            assert all(f".{os.getpid()}." in s for s in tmp_names), tmp_names
            assert any(".0.tmp" in s for s in tmp_names), (
                "fork did not reset the temp sequence: %r" % tmp_names[:3]
            )
            status = 0
        finally:
            os._exit(status)

    pids = []
    for index in range(2):
        pid = os.fork()
        if pid == 0:
            child("ab"[index])  # never returns: child() always _exits
        pids.append(pid)
    statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    assert all(os.WEXITSTATUS(s) == 0 for s in statuses), statuses
    # (c) the contested record is a complete write from one child
    record = json.loads((tmp_path / "contested.json").read_text())
    assert record["payload"]["writer"] in ("a", "b")
    assert record["payload"]["n"] == 19
    assert list(tmp_path.glob("*.tmp")) == []
    # The parent's own sequence keeps counting where it left off.
    assert next(cache_module._TMP_SEQUENCE) >= 3


def test_engine_never_in_cache_keys(tmp_path):
    """Engines are bit-identical, so the key must not split on them."""
    cache = ModelCache(tmp_path)
    keys = {
        cache.characterization_key(
            "ripple_adder", 3, False, ExperimentConfig(engine=engine), 1
        )
        for engine in ("auto", "bool", "compiled")
    }
    assert len(keys) == 1
    # Dict-shaped configs get the same treatment.
    assert cache.make_key(
        {"config": {"n": 1}}
    ) == cache.make_key({"config": {"n": 1}})
    from repro.runtime.cache import _config_payload

    assert _config_payload({"n": 1, "engine": "compiled"}) == {"n": 1}
    # The oracle self-check can only reject wrong traces, never change
    # correct ones — it must not split the cache either.
    assert _config_payload({"n": 1, "self_check": True}) == {"n": 1}
    assert cache.characterization_key(
        "ripple_adder", 3, False, ExperimentConfig(self_check=True), 1
    ) == cache.characterization_key(
        "ripple_adder", 3, False, ExperimentConfig(self_check=False), 1
    )
    # Everything else still keys: a different seed is a different entry.
    assert cache.characterization_key(
        "ripple_adder", 3, False, ExperimentConfig(), 1
    ) != cache.characterization_key(
        "ripple_adder", 3, False, ExperimentConfig(), 2
    )


def test_concurrent_readers_during_writes(tmp_path, result):
    """Readers racing a writer see either a miss or a complete record —
    never an exception, never a partial read (the serving registry loads
    from threads while ``characterize_jobs`` stores)."""
    import threading

    cache = ModelCache(tmp_path)
    config = ExperimentConfig(n_characterization=400)
    keys = [
        cache.characterization_key("ripple_adder", 3, True, config, seed)
        for seed in range(8)
    ]
    failures = []
    done = threading.Event()

    def reader():
        readers_cache = ModelCache(tmp_path)
        while not done.is_set():
            for key in keys:
                try:
                    loaded = readers_cache.load_characterization(key)
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                    return
                if loaded is not None:
                    np.testing.assert_array_equal(
                        loaded.model.coefficients,
                        result.model.coefficients,
                    )
        if readers_cache.quarantined:
            failures.append(
                AssertionError("reader quarantined an in-flight record")
            )

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        for _ in range(3):
            for key in keys:
                cache.store_characterization(key, result)
    finally:
        done.set()
        for t in threads:
            t.join()
    assert not failures
    # After the dust settles every key loads cleanly.
    final = ModelCache(tmp_path)
    for key in keys:
        assert final.load_characterization(key) is not None
    assert final.hits == len(keys)
