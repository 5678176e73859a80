"""Exception hierarchy for the FARMER reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of ``repro`` with a single ``except`` clause
while still being able to discriminate the failure class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """A configuration object failed validation.

    Raised eagerly at construction time (e.g. a weight outside ``[0, 1]``,
    a non-positive cache capacity) so misconfiguration never silently
    corrupts an experiment.
    """


class TraceFormatError(ReproError):
    """A trace file or record could not be parsed.

    Carries the offending line number when available so bad traces can be
    located quickly.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state.

    This always indicates a bug (e.g. completing a request that was never
    issued), never a user error, and is therefore loud by design.
    """


class KVStoreError(ReproError):
    """An operation on the Berkeley-DB-substitute key/value store failed."""


class ReplicationError(ReproError):
    """A shard replication/failover operation was misused.

    Raised when failover entry points are driven outside their contract
    (failing a shard with replication disabled, promoting a shard that
    is not failed, double-failing an already-failed shard) — these are
    caller errors, never data loss.
    """


class ShardFailedError(ReproError):
    """A request was routed to a failed shard.

    The shard's partition is unavailable between ``fail_shard(i)`` and
    ``promote_standby(i)``; requests and queries owned by other shards
    keep working. Carries the shard index so a client can trigger the
    promotion.
    """

    def __init__(self, shard: int) -> None:
        super().__init__(
            f"shard {shard} is failed; call promote_standby({shard}) "
            f"to restore its partition from the warm standby"
        )
        self.shard = shard


class PersistenceError(ReproError):
    """Base class for durability failures (snapshots and the WAL).

    Everything the :mod:`repro.durability` layer refuses — corrupt
    files, mismatched manifests, misused recovery entry points — derives
    from this class, so a serving layer can treat "the disk state is not
    usable" as one failure class while still discriminating below.
    """


class WalCorruptError(PersistenceError):
    """The write-ahead log is damaged somewhere other than its tail.

    A torn *tail* (the record being appended when the process died) is
    expected and silently truncated at open; a bad CRC or frame in the
    *middle* of the log — with intact records after it — means records
    would be silently skipped on replay, so recovery refuses instead.
    """


class WalFormatError(PersistenceError):
    """A WAL segment was written in a format this version does not read.

    Segments carry a magic and a format version in their header; a
    segment without that header was written by the JSON-frame WAL of an
    earlier version. Recovery refuses such a segment, naming the file
    and the format that wrote it, rather than misreading its records.
    """


class SnapshotMismatchError(PersistenceError):
    """A snapshot disagrees with the booting configuration or program.

    Restoring a snapshot into a service with a different shard count,
    router or kernel would serve answers from a topology that never
    existed; recovery refuses and names the differing fields so the
    operator can boot with the matching flags (or discard the data dir).
    A snapshot whose pickles name a class this version lacks (or whose
    state no longer fits its class) is refused the same way, naming the
    file and the class.
    """


class UnknownExperimentError(ReproError):
    """An experiment id was requested that the registry does not know."""
