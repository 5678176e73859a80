"""Tests for the semantic-vector maintenance policies."""

import pytest

from repro.core.config import FarmerConfig
from repro.core.extractor import Extractor
from repro.core.farmer import Farmer
from repro.core.vector_store import VectorStore
from repro.vsm.similarity import ipa_similarity
from tests.conftest import generate_trace, make_record


def store_for(policy: str, merge_cap: int = 4, attrs=("user", "process", "host", "path")):
    cfg = FarmerConfig(sv_policy=policy, merge_cap=merge_cap, attributes=attrs)
    return VectorStore(cfg, Extractor(cfg.attributes))


class TestLatestPolicy:
    def test_tracks_last_request(self):
        store = store_for("latest")
        store.update(make_record(1, uid=1))
        store.update(make_record(1, uid=2))
        other = store_for("latest")
        other.update(make_record(2, uid=2))
        # latest SV of fid 1 has uid 2 only
        v1 = store.get(1)
        assert v1 is not None
        assert len(v1.scalar_ids) == 3  # user, process, host

    def test_get_unknown(self):
        assert store_for("latest").get(99) is None


class TestFirstPolicy:
    def test_frozen_at_first(self):
        store = store_for("first")
        store.update(make_record(1, uid=1, pid=10))
        first = store.get(1)
        store.update(make_record(1, uid=2, pid=20))
        assert store.get(1) == first


class TestMergePolicy:
    def test_accumulates_contexts(self):
        store = store_for("merge")
        store.update(make_record(1, uid=1, pid=10))
        store.update(make_record(1, uid=2, pid=20))
        v = store.get(1)
        # two users, two pids, one host
        assert len(v.scalar_ids) == 5

    def test_cap_evicts_lru_value(self):
        store = store_for("merge", merge_cap=2)
        for uid in (1, 2, 3):
            store.update(make_record(1, uid=uid))
        store_fresh = store_for("merge", merge_cap=2)
        store_fresh.update(make_record(2, uid=1))
        v = store.get(1)
        # uid bucket capped at 2: uids {2, 3} kept, 1 evicted
        uid1_token = store_fresh.get(2)  # not comparable across vocabs
        assert sum(1 for _ in v.scalar_ids) == 2 + 1 + 1  # 2 users + pid? no:
        # actually: users capped at 2, pids capped at 2 (only 1 distinct), host 1
        # total = 2 + 1 + 1 = 4
        assert len(v.scalar_ids) == 4

    def test_duplicate_value_refreshes_recency(self):
        store = store_for("merge", merge_cap=2)
        store.update(make_record(1, uid=1))
        store.update(make_record(1, uid=2))
        store.update(make_record(1, uid=1))  # refresh 1
        store.update(make_record(1, uid=3))  # evicts 2, not 1
        v = store.get(1)
        # check via similarity against a probe file touched by uid=1
        store.update(make_record(2, uid=1))
        sim = ipa_similarity(store.get(1), store.get(2))
        assert sim > 0.0

    def test_shared_library_effect(self):
        """A shared file's merged vector overlaps both requesters."""
        store = store_for("merge")
        store.update(make_record(100, uid=1, pid=10, path="/usr/lib/libc.so"))
        store.update(make_record(100, uid=2, pid=20, path="/usr/lib/libc.so"))
        store.update(make_record(1, uid=1, pid=10, path="/home/u1/a"))
        store.update(make_record(2, uid=2, pid=20, path="/home/u2/b"))
        lib = store.get(100)
        sim_to_1 = ipa_similarity(lib, store.get(1))
        sim_to_2 = ipa_similarity(lib, store.get(2))
        assert sim_to_1 > 0.0 and sim_to_2 > 0.0

    def test_path_kept_latest(self):
        store = store_for("merge")
        store.update(make_record(1, path="/a/b"))
        store.update(make_record(1, path="/a/c"))
        v = store.get(1)
        assert v.path_ids is not None and len(v.path_ids) == 2

    def test_len(self):
        store = store_for("merge")
        store.update(make_record(1))
        store.update(make_record(2))
        store.update(make_record(1))
        assert len(store) == 2

    def test_approx_bytes_grows(self):
        store = store_for("merge")
        before = store.approx_bytes()
        for i in range(30):
            store.update(make_record(i, uid=i, path=f"/d/{i}"))
        assert store.approx_bytes() > before


class TestUpdateBatch:
    @pytest.mark.parametrize("policy", ["merge", "latest", "first"])
    def test_matches_update_loop(self, policy):
        """Batch folding is observably identical to the per-record
        loop: the same vectors for the same files."""
        pytest.importorskip("numpy")  # the HP profile draws from numpy
        trace = generate_trace("hp", 3_000, seed=11)
        cfg = FarmerConfig(sv_policy=policy)
        batched = Farmer(cfg).constructor.vectors
        looped = Farmer(cfg).constructor.vectors
        batched.update_batch(trace)
        for record in trace:
            looped.update(record)
        va = batched.vector_map()
        vb = looped.vector_map()
        assert va.keys() == vb.keys()
        for fid in va:
            assert va[fid].scalar_ids == vb[fid].scalar_ids, fid
            assert va[fid].path_ids == vb[fid].path_ids, fid

    def test_alternating_paths_probe_case(self):
        """A path *string* change with unchanged buckets still rebuilds
        the vector; alternate two paths so the batch defers that
        rebuild repeatedly."""
        records = [
            make_record(1, ts=i, path=("/a/x", "/b/x")[i % 2])
            for i in range(12)
        ] + [make_record(2, ts=100 + i, path="/c/y") for i in range(3)]
        cfg = FarmerConfig(sv_policy="merge", merge_cap=6)
        batched = Farmer(cfg).constructor.vectors
        looped = Farmer(cfg).constructor.vectors
        batched.update_batch(records)
        for record in records:
            looped.update(record)
        va = batched.vector_map()
        vb = looped.vector_map()
        assert va.keys() == vb.keys()
        for fid in va:
            assert va[fid].scalar_ids == vb[fid].scalar_ids
            assert va[fid].path_ids == vb[fid].path_ids
