"""Per-file semantic-vector maintenance policies.

A file's semantic vector must summarise *who touches it*. Three policies:

* ``latest`` — snapshot of the most recent request. Cheap, but on files
  shared across users/processes (libraries, course material, parallel
  shared inputs) the snapshot thrashes: the vector only ever matches the
  last requester's context.
* ``first`` — frozen at the first request (the paper's "attributes are
  rarely modified" reading).
* ``merge`` — the VSM document-vector reading and our default: keep up to
  ``merge_cap`` recent *distinct* values per attribute, so a shared
  library's vector overlaps every program currently linking it while a
  private file's vector stays a single context. The cap bounds memory and
  ages out stale contexts LRU-style.

Every file's vector carries a monotonically increasing *version*, bumped
only when an update actually changes the vector. Versions are what the
bulk re-rank's entry stamps key on: as long as both endpoints' versions
are unchanged, a stamped ``sim(x, y)`` is exact and need not be
recomputed.

Vector-stability heuristic (``FarmerConfig.vector_freeze_threshold``)
---------------------------------------------------------------------

Under the "merge" policy a hot shared file's vector is rewritten dozens
of times early in a trace while its sharing set is still being
discovered, and every rewrite invalidates all of the file's stamped
similarities. Once a vector has survived ``vector_freeze_threshold``
rewrites it has effectively saturated — the distinct users/processes/
hosts that touch the file have been seen — so further updates are
dropped and the version stops bumping, which lets the stamps reuse
most similarities: on the synthetic HP trace a threshold of 8 cuts
Function-1 evaluations to about a fifth of the unfrozen run. The threshold is
off (0) by default: freezing trades a little adaptivity (a file whose
sharing set genuinely changes late keeps its saturated vector) for a
large reduction in Function-1 recomputation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.config import FarmerConfig
from repro.core.extractor import Extractor
from repro.traces.record import TraceRecord, attribute_getter
from repro.vsm.path import tokenize_path
from repro.vsm.vector import SemanticVector

__all__ = ["VectorStore", "ThreadSafeVectorStore"]


class _MergeState:
    """Recent distinct values per attribute for one file (LRU per attr).

    Buckets map raw value → interned token id, so rebuilding the merged
    vector never re-interns: the ids were resolved when the value
    entered the bucket; ``path_ids`` caches the interned components of
    ``path`` for the same reason.
    """

    __slots__ = ("values", "path", "path_ids")

    def __init__(self) -> None:
        self.values: dict[str, OrderedDict] = {}
        self.path: str | None = None
        self.path_ids: tuple[int, ...] | None = None


class VectorStore:
    """fid → semantic vector, maintained under the configured policy."""

    def __init__(self, config: FarmerConfig, extractor: Extractor) -> None:
        self.config = config
        self.extractor = extractor
        self._vectors: dict[int, SemanticVector] = {}
        self._versions: dict[int, int] = {}
        self._epoch = 0
        self._merge: dict[int, _MergeState] = {}
        # path string -> interned component ids; paths repeat across the
        # namespace, so tokenisation+interning is paid once per path
        self._path_ids: dict[str, tuple[int, ...]] = {}
        self._scalar_attrs = tuple(a for a in config.attributes if a != "path")
        self._wants_path = "path" in config.attributes
        # per-record hot-path constants, resolved once
        self._getters = tuple(
            (attr, attribute_getter(attr)) for attr in self._scalar_attrs
        )
        self._policy = config.sv_policy
        self._merge_cap = config.merge_cap
        self._freeze_threshold = config.vector_freeze_threshold

    def _store(self, fid: int, vector: SemanticVector) -> None:
        """Install a vector, bumping the version only on a real change."""
        if self._vectors.get(fid) != vector:
            self._vectors[fid] = vector
            self._versions[fid] = self._versions.get(fid, 0) + 1
            self._epoch += 1

    def _store_changed(self, fid: int, vector: SemanticVector) -> None:
        """Install a vector the caller knows differs from the stored one
        (merge-state change implies a different id set, so the equality
        probe of :meth:`_store` would always say "changed")."""
        self._vectors[fid] = vector
        self._versions[fid] = self._versions.get(fid, 0) + 1
        self._epoch += 1

    def is_frozen(self, fid: int) -> bool:
        """Whether ``fid``'s vector has saturated and no longer updates."""
        threshold = self.config.vector_freeze_threshold
        return threshold > 0 and self._versions.get(fid, 0) >= threshold

    def update(self, record: TraceRecord) -> None:
        """Fold one request into the file's vector."""
        fid = record.fid
        threshold = self._freeze_threshold
        if threshold > 0 and self._versions.get(fid, 0) >= threshold:
            return
        policy = self._policy
        if policy == "first":
            if fid not in self._vectors:
                self._store(fid, self.extractor.extract(record))
            return
        if policy == "latest":
            self._store(fid, self.extractor.extract(record))
            return
        # merge policy
        state = self._merge.get(fid)
        if state is None:
            state = _MergeState()
            self._merge[fid] = state
        cap = self._merge_cap
        vocab = self.extractor.vocabulary
        values = state.values
        changed = False
        for attr, getter in self._getters:
            value = getter(record)
            if value is None:
                continue
            bucket = values.get(attr)
            if bucket is None:
                bucket = OrderedDict()
                values[attr] = bucket
            if value in bucket:
                # recency refresh only — the merged vector is built from
                # the bucket's key *set*, so no rebuild is needed
                bucket.move_to_end(value)
            else:
                changed = True
                bucket[value] = vocab.scalar_token(attr, value)
                if len(bucket) > cap:
                    bucket.popitem(last=False)
        path_changed = False
        if self._wants_path and record.path is not None and record.path != state.path:
            state.path = record.path
            state.path_ids = self._resolve_path_ids(record.path)
            path_changed = True
        # fast path: a request that repeats an already-known context
        # leaves every bucket's key set and the path untouched, so the
        # merged vector is bit-identical — skip the rebuild entirely
        # (the common case once a file's sharing set has been seen).
        if changed and not path_changed and fid in self._vectors:
            # a bucket gained an id it lacked (ids are attr-namespaced and
            # unique), so the new vector provably differs — no eq probe
            self._store_changed(fid, self._build_merged(state))
        elif changed or path_changed or fid not in self._vectors:
            # a changed path *string* can still tokenise to the same ids,
            # so this path keeps the equality probe
            self._store(fid, self._build_merged(state))

    def update_batch(self, records) -> None:
        """Fold a whole batch of requests, deferring merged-vector builds.

        Semantically identical to calling :meth:`update` per record —
        same final vectors, same per-file *version trajectory* (the
        freeze threshold and the re-rank stamps key on versions, so
        the trajectory is part of the contract) — but under the "merge"
        policy the actual :class:`~repro.vsm.vector.SemanticVector`
        construction is deferred: a version bump is provable from the
        bucket fold alone (a bucket gaining a namespaced id it lacked
        guarantees a different vector), so a file touched k times in the
        batch is rebuilt once at the end instead of k times. The one
        case that needs the stored vector mid-batch — a changed path
        *string* with unchanged buckets, whose new ids may tokenise
        equal — materialises the pending build first and keeps the
        equality probe. Deferred builds are flushed before returning,
        so no stale vector is ever visible outside this call.
        """
        policy = self._policy
        if policy != "merge":
            # "first"/"latest" build straight from the record (extract
            # *is* the build — no rebuild redundancy to defer)
            for record in records:
                self.update(record)
            return
        threshold = self._freeze_threshold
        versions = self._versions
        vectors = self._vectors
        merge = self._merge
        cap = self._merge_cap
        vocab = self.extractor.vocabulary
        getters = self._getters
        wants_path = self._wants_path
        pending: set[int] = set()
        for record in records:
            fid = record.fid
            if threshold > 0 and versions.get(fid, 0) >= threshold:
                continue
            state = merge.get(fid)
            if state is None:
                state = _MergeState()
                merge[fid] = state
            values = state.values
            changed = False
            for attr, getter in getters:
                value = getter(record)
                if value is None:
                    continue
                bucket = values.get(attr)
                if bucket is None:
                    bucket = OrderedDict()
                    values[attr] = bucket
                if value in bucket:
                    bucket.move_to_end(value)
                else:
                    changed = True
                    bucket[value] = vocab.scalar_token(attr, value)
                    if len(bucket) > cap:
                        bucket.popitem(last=False)
            new_path = record.path if wants_path else None
            path_changed = new_path is not None and new_path != state.path
            known = fid in vectors or fid in pending
            if not changed and path_changed and known:
                # the only branch whose bump decision needs the stored
                # vector (new path ids may tokenise equal): settle any
                # pending build first — this record left the buckets
                # untouched, so the pre-fold vector is still current
                if fid in pending:
                    vectors[fid] = self._build_merged(state)
                    pending.discard(fid)
                state.path = new_path
                state.path_ids = self._resolve_path_ids(new_path)
                self._store(fid, self._build_merged(state))
            else:
                if path_changed:
                    state.path = new_path
                    state.path_ids = self._resolve_path_ids(new_path)
                if changed or path_changed or not known:
                    # provable bump: a bucket gained an id it lacked, or
                    # the fid is new (first store always bumps) — defer
                    # the build, count the version now
                    versions[fid] = versions.get(fid, 0) + 1
                    self._epoch += 1
                    pending.add(fid)
        for fid in pending:
            vectors[fid] = self._build_merged(merge[fid])

    def _build_merged(self, state: _MergeState) -> SemanticVector:
        scalars: list[int] = []
        for bucket in state.values.values():
            scalars.extend(bucket.values())
        # unsorted on purpose: SemanticVector normalises once in
        # __post_init__, so sorting here would sort twice
        return SemanticVector(scalar_ids=tuple(scalars), path_ids=state.path_ids)

    def _resolve_path_ids(self, path: str) -> tuple[int, ...]:
        ids = self._path_ids.get(path)
        if ids is None:
            ids = self.extractor.vocabulary.path_components(tokenize_path(path))
            self._path_ids[path] = ids
        return ids

    def get(self, fid: int) -> SemanticVector | None:
        """Current vector of ``fid`` (None if never seen)."""
        return self._vectors.get(fid)

    def version_of(self, fid: int) -> int:
        """Version of ``fid``'s vector: 0 if unseen, then +1 per change."""
        return self._versions.get(fid, 0)

    def epoch(self) -> int:
        """Monotonic store-wide change counter: bumps once per version
        bump anywhere in the store, so a consumer holding the epoch it
        last read at can tell in O(1) whether *any* vector changed —
        the bulk kernel's whole-list-skip gate."""
        return self._epoch

    def maps(self) -> tuple[dict[int, SemanticVector], dict[int, int]]:
        """The live ``(fid → vector, fid → version)`` dicts — the bulk
        re-rank kernel's read view. Treat strictly as read-only; writes
        go through :meth:`update`."""
        return self._vectors, self._versions

    def __len__(self) -> int:
        return len(self._vectors)

    def approx_bytes(self) -> int:
        """Vector store footprint (merge state and version table included)."""
        total = 64 + sum(104 + v.approx_bytes() for v in self._vectors.values())
        total += 56 * len(self._versions)
        for state in self._merge.values():
            total += 64
            for bucket in state.values.values():
                total += 48 + 56 * len(bucket)
            if state.path is not None:
                total += len(state.path)
        total += sum(160 + len(p) for p in self._path_ids)
        return total


class ThreadSafeVectorStore(VectorStore):
    """A :class:`VectorStore` whose writes are safe under parallel ingest.

    The sharded service routes every record to its fid's owner shard and
    the echo path skips vector updates, so concurrent shards write
    *disjoint* fid keys — the lock's job is to serialise the underlying
    dict/merge-state mutations, not to arbitrate per-fid races (there are
    none by construction). Reads (``get`` / ``version_of`` /
    ``resolve``) stay lock-free: they are single dict lookups, and the
    parallel runner's flush phase only runs after an ingest barrier, so
    flush-time reads never race a write.

    Instances are picklable (the process-backend runner ships a snapshot
    to each worker); the lock is recreated on unpickle.
    """

    def __init__(self, config: FarmerConfig, extractor: Extractor) -> None:
        super().__init__(config, extractor)
        self._lock = threading.Lock()

    def update(self, record: TraceRecord) -> None:
        with self._lock:
            super().update(record)

    def update_batch(self, records) -> None:
        with self._lock:
            super().update_batch(records)

    def approx_bytes(self) -> int:
        with self._lock:
            return super().approx_bytes()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        del state["_getters"]  # lambdas; re-resolved from attr names
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._getters = tuple(
            (attr, attribute_getter(attr)) for attr in self._scalar_attrs
        )
        self._lock = threading.Lock()
