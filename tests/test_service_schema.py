"""Tests for the service wire schema and the result store."""

import json

import pytest

import repro.service.store as store_module
from repro.service import ServiceConfig
from repro.service.schema import (SCHEMA_VERSION, PointResult, PointSpec,
                                  SchemaError, SweepRequest, decode_line,
                                  encode_line)
from repro.service.store import ResultStore

#: resilience knobs no run can honour
IMPOSSIBLE_RESILIENCE = pytest.mark.parametrize(
    "knobs", [{"timeout_s": -1.0}, {"timeout_s": 0.0},
              {"timeout_s": float("nan")}, {"retries": -1}],
    ids=["timeout_-1", "timeout_0", "timeout_nan", "retries_-1"])


def _result(point=None, key="k" * 64, status="ok", **kw):
    point = point or PointSpec("table1", 0.5, 1)
    defaults = dict(all_passed=True, result={"x": 1}, attempts=1,
                    wall_s=0.25, source="computed", error=None)
    defaults.update(kw)
    return PointResult(point=point, key=key, status=status, **defaults)


class TestWireLines:
    def test_encode_is_key_sorted_compact_newline(self):
        line = encode_line({"b": 1, "a": [2, 3]})
        assert line == b'{"a":[2,3],"b":1}\n'

    def test_decode_round_trip(self):
        assert decode_line(encode_line({"a": 1})) == {"a": 1}

    def test_decode_rejects_junk_and_non_objects(self):
        with pytest.raises(SchemaError):
            decode_line(b"{not json\n")
        with pytest.raises(SchemaError):
            decode_line(b"[1, 2]\n")


class TestPointSpec:
    def test_wire_round_trip(self):
        spec = PointSpec("fig6", scale=0.7, seed=3)
        assert PointSpec.from_wire(spec.to_wire()) == spec

    def test_key_is_stable_and_content_sensitive(self, process):
        a = PointSpec("table1", 0.5, 1)
        assert a.key(process) == a.key(process)
        assert a.key(process) != PointSpec("table1", 0.5, 2).key(process)
        assert a.key(process) != PointSpec("table1", 0.6, 1).key(process)
        assert a.key(process) != PointSpec("table2", 0.5, 1).key(process)

    def test_to_options_threads_the_point(self, process):
        opts = PointSpec("fig2", 0.7, 9).to_options(process=process)
        assert opts.scale == 0.7
        assert opts.seed == 9
        assert opts.process is process

    def test_bad_wire_spec_raises(self):
        with pytest.raises(SchemaError):
            PointSpec.from_wire({"scale": 1.0})


class TestSweepRequest:
    def test_wire_round_trip(self):
        req = SweepRequest.from_ids(["table1", "fig2"], scale=0.7,
                                    seed=2, timeout_s=30.0, retries=1)
        back = SweepRequest.from_wire(req.to_wire())
        assert back == req
        assert back.to_wire()["schema_version"] == SCHEMA_VERSION

    def test_from_ids_defaults_to_whole_registry(self):
        req = SweepRequest.from_ids()
        assert len(req.points) >= 11
        assert "table1" in req.experiment_ids()

    def test_version_mismatch_rejected(self):
        wire = SweepRequest.from_ids(["table1"]).to_wire()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema version"):
            SweepRequest.from_wire(wire)

    def test_validate_rejects_empty_unknown_and_duplicates(self):
        with pytest.raises(SchemaError, match="empty"):
            SweepRequest(points=()).validate()
        with pytest.raises(SchemaError, match="unknown experiment ids"):
            SweepRequest.from_ids(["nope"]).validate(known=["table1"])
        with pytest.raises(SchemaError, match="duplicate"):
            SweepRequest.from_ids(["table1", "table1"]).validate()

    def test_distinct_seeds_are_not_duplicates(self):
        req = SweepRequest(points=(PointSpec("table1", 1.0, 1),
                                   PointSpec("table1", 1.0, 2)))
        req.validate(known=["table1"])

    @IMPOSSIBLE_RESILIENCE
    def test_validate_rejects_impossible_resilience(self, knobs):
        req = SweepRequest.from_ids(["table1"], **knobs)
        with pytest.raises(SchemaError, match=next(iter(knobs))):
            req.validate()

    def test_validate_accepts_a_positive_timeout_and_no_retries(self):
        SweepRequest.from_ids(["table1"], timeout_s=0.5,
                              retries=0).validate()


class TestServiceConfig:
    @IMPOSSIBLE_RESILIENCE
    def test_impossible_defaults_are_rejected(self, knobs):
        with pytest.raises(SchemaError, match=next(iter(knobs))):
            ServiceConfig(**knobs)

    def test_no_timeout_is_the_default(self):
        assert ServiceConfig().timeout_s is None


class TestPointResult:
    def test_wire_round_trip(self):
        res = _result(attempts=2, source="cache")
        assert PointResult.from_wire(res.to_wire()) == res

    def test_canonical_excludes_timing_and_provenance(self):
        computed = _result(wall_s=1.5, attempts=3, source="computed")
        cached = _result(wall_s=0.0, attempts=1, source="cache")
        assert computed.canonical_json() == cached.canonical_json()
        doc = json.loads(computed.canonical_json())
        assert "wall_s" not in doc
        assert "attempts" not in doc
        assert "source" not in doc

    def test_bad_status_and_source_rejected(self):
        wire = _result().to_wire()
        wire["status"] = "exploded"
        with pytest.raises(SchemaError, match="status"):
            PointResult.from_wire(wire)
        wire = _result().to_wire()
        wire["source"] = "guesswork"
        with pytest.raises(SchemaError, match="source"):
            PointResult.from_wire(wire)


class TestResultStore:
    def test_memory_round_trip(self):
        store = ResultStore()
        res = _result()
        store.put(res)
        assert store.get(res.key) == res
        assert store.get("f" * 64) is None

    def test_disk_tier_survives_a_fresh_store(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        res = _result()
        store.put(res)
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(res.key) == res

    def test_failures_are_never_stored(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put(_result(status="failed", all_passed=False, result={},
                          error="boom"))
        assert len(store) == 0
        assert ResultStore(cache_dir=tmp_path).get("k" * 64) is None

    def test_corrupt_disk_entry_is_a_miss_and_dropped(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        res = _result()
        store.put(res)
        path = store._path(res.key)
        path.write_bytes(b"{torn write")
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(res.key) is None
        assert not path.exists()

    def test_wrong_key_entry_is_dropped(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        res = _result()
        store.put(res)
        # file moved under a different key: content no longer matches
        other = "a" * 64
        store._path(res.key).rename(store._path(other))
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(other) is None

    def test_memory_tier_is_fifo_capped(self, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_ENTRIES", 2)
        store = ResultStore()
        results = [_result(key=str(i) * 64) for i in range(3)]
        for res in results:
            store.put(res)
        assert len(store) == 2
        assert store.get(results[0].key) is None
        assert store.get(results[2].key) == results[2]
