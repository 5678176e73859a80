"""Semantic vectors: the VSM representation of one file (or request).

A vector holds the interned scalar items (user, process, host, device,
file-id, …) plus — when the trace provides one — the ordered, interned
path components. The split lets the two path algorithms coexist:

* DPA treats every path component as one more scalar item;
* IPA treats the whole path as a single item whose match value against
  another path is the *directory similarity* (a fraction in [0, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SemanticVector", "bag_intersection"]


def bag_intersection(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Multiset intersection size of two *sorted* id tuples (linear merge)."""
    i = j = hits = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ai, bj = a[i], b[j]
        if ai == bj:
            hits += 1
            i += 1
            j += 1
        elif ai < bj:
            i += 1
        else:
            j += 1
    return hits


@dataclass(frozen=True, slots=True)
class SemanticVector:
    """Immutable semantic vector of a file.

    Attributes:
        scalar_ids: sorted, de-duplicated interned ids of the scalar
            items (scalar items are a set — tokens are namespaced by
            attribute, so a duplicate id carries no information).
        path_ids: interned path-component ids in path order, or ``None``
            when the trace carries no path for this file.
        n_ipa: precomputed IPA item count (scalars + 1 for the path) —
            the similarity denominator, read twice per comparison.
        scalar_set: ``scalar_ids`` as a frozenset, lazily cached. Scalar
            ids are unique by construction (tokens are namespaced by
            attribute, and each attribute contributes distinct values),
            so the bag intersection of two scalar tuples equals the set
            intersection — which runs as one C-level ``&``.

    A vector pickles as ``(scalar_ids, path_ids)`` alone; the derived
    fields are rebuilt on load (``scalar_set`` on first use), and a
    state of any other shape raises ``TypeError``.
    """

    scalar_ids: tuple[int, ...]
    path_ids: tuple[int, ...] | None = None
    n_ipa: int = field(init=False, repr=False, compare=False, default=0)
    _scalar_set: frozenset[int] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        ids = self.scalar_ids
        # normalise to strictly increasing: scalar items are a *set*
        # (namespaced interning makes duplicates meaningless), and
        # uniqueness is what lets similarity run set intersections
        normalised = tuple(sorted(set(ids)))
        if normalised != ids:
            object.__setattr__(self, "scalar_ids", normalised)
        object.__setattr__(
            self,
            "n_ipa",
            len(self.scalar_ids) + (1 if self.path_ids is not None else 0),
        )

    def __getstate__(self) -> tuple:
        return (self.scalar_ids, self.path_ids)

    def __setstate__(self, state) -> None:
        if type(state) is not tuple or len(state) != 2:
            raise TypeError(
                "SemanticVector state must be a 2-tuple (scalar_ids, path_ids), "
                f"got a {type(state).__name__}"
            )
        scalar_ids, path_ids = state
        setattr_ = object.__setattr__
        setattr_(self, "scalar_ids", scalar_ids)
        setattr_(self, "path_ids", path_ids)
        setattr_(self, "n_ipa", len(scalar_ids) + (1 if path_ids is not None else 0))
        setattr_(self, "_scalar_set", None)

    @property
    def scalar_set(self) -> frozenset[int]:
        cached = self._scalar_set
        if cached is None:
            cached = frozenset(self.scalar_ids)
            object.__setattr__(self, "_scalar_set", cached)
        return cached

    def n_items(self, method: str) -> int:
        """Item count under a path algorithm ("dpa" or "ipa").

        Under DPA every path component is an item; under IPA the whole
        path is one item.
        """
        n = len(self.scalar_ids)
        if self.path_ids is not None:
            if method == "dpa":
                n += len(self.path_ids)
            elif method == "ipa":
                n += 1
            else:
                raise ValueError(f"unknown path method {method!r}")
        return n

    def dpa_items(self) -> tuple[int, ...]:
        """All items under DPA semantics, sorted (scalars + path comps)."""
        if self.path_ids is None:
            return self.scalar_ids
        return tuple(sorted((*self.scalar_ids, *self.path_ids)))

    def approx_bytes(self) -> int:
        """Approximate resident size (memory-overhead accounting)."""
        n = len(self.scalar_ids) + (len(self.path_ids) if self.path_ids else 0)
        total = 64 + 8 * n
        if self._scalar_set is not None:
            total += 216 + 32 * len(self._scalar_set)
        return total
