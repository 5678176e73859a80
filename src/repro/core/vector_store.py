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
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.config import FarmerConfig
from repro.core.extractor import Extractor
from repro.traces.record import TraceRecord, attribute_getter
from repro.vsm.path import tokenize_path
from repro.vsm.vector import SemanticVector

__all__ = ["VectorStore"]


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

    def update(self, record: TraceRecord) -> None:
        """Fold one request into the file's vector."""
        fid = record.fid
        policy = self._policy
        if policy == "first":
            if fid not in self._vectors:
                self._vectors[fid] = self.extractor.extract(record)
            return
        if policy == "latest":
            self._vectors[fid] = self.extractor.extract(record)
            return
        # merge policy: a request that repeats an already-known context
        # leaves every bucket's key set and the path untouched, so the
        # merged vector is bit-identical — skip the rebuild entirely
        # (the common case once a file's sharing set has been seen)
        state = self._merge_state(fid)
        if self._fold(state, record) or fid not in self._vectors:
            self._vectors[fid] = self._build_merged(state)

    def update_batch(self, records) -> None:
        """Fold a whole batch of requests, deferring merged-vector builds.

        Semantically identical to calling :meth:`update` per record (same
        final vectors), but under the "merge" policy the
        :class:`~repro.vsm.vector.SemanticVector` construction is
        deferred: a file touched k times in the batch is rebuilt once at
        the end instead of k times. Deferred builds are flushed before
        returning, so no stale vector is ever visible outside this call.
        """
        if self._policy != "merge":
            # "first"/"latest" build straight from the record (extract
            # *is* the build — no rebuild redundancy to defer)
            for record in records:
                self.update(record)
            return
        vectors = self._vectors
        fold = self._fold
        merge_state = self._merge_state
        pending: set[int] = set()
        for record in records:
            fid = record.fid
            if fold(merge_state(fid), record) or fid not in vectors:
                pending.add(fid)
        merge = self._merge
        for fid in pending:
            vectors[fid] = self._build_merged(merge[fid])

    def _merge_state(self, fid: int) -> _MergeState:
        state = self._merge.get(fid)
        if state is None:
            state = _MergeState()
            self._merge[fid] = state
        return state

    def _fold(self, state: _MergeState, record: TraceRecord) -> bool:
        """Fold one request into a file's merge state; returns whether a
        bucket's key set or the path changed, i.e. whether the merged
        vector must be rebuilt."""
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
        path = record.path
        if self._wants_path and path is not None and path != state.path:
            state.path = path
            state.path_ids = self._resolve_path_ids(path)
            changed = True
        return changed

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

    def vector_map(self) -> dict[int, SemanticVector]:
        """The live fid → vector dict — the re-rank kernel's read view.
        Treat strictly as read-only; writes go through :meth:`update`."""
        return self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def approx_bytes(self) -> int:
        """Vector store footprint (merge state included)."""
        total = 64 + sum(104 + v.approx_bytes() for v in self._vectors.values())
        for state in self._merge.values():
            total += 64
            for bucket in state.values.values():
                total += 48 + 56 * len(bucket)
            if state.path is not None:
                total += len(state.path)
        total += sum(160 + len(p) for p in self._path_ids)
        return total


    def __getstate__(self):
        # the attribute getters are lambdas, which do not pickle; they
        # are re-resolved from the attribute names on load
        state = self.__dict__.copy()
        del state["_getters"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._getters = tuple(
            (attr, attribute_getter(attr)) for attr in self._scalar_attrs
        )
