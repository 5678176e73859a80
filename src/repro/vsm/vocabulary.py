"""Vocabulary: interning of semantic-attribute tokens.

Semantic-vector items are interned to dense integer ids so similarity
computations are integer merges. Tokens are *namespaced by attribute*
(``("user", 7)`` is a different token from ``("process", 7)``) — two
attributes that happen to share a raw value must not count as a match.
Path components get their own namespace for the same reason; the paper's
Table 1 example (where ``user1`` appears both as the user attribute and a
path component and both matches count) comes out identical under this
scheme.
"""

from __future__ import annotations

from typing import Any

from repro.utils.intern import Interner

__all__ = ["Vocabulary"]

_PATH_NS = "pathc"


class Vocabulary:
    """Interner specialised for namespaced semantic tokens."""

    __slots__ = ("_interner",)

    def __init__(self) -> None:
        self._interner = Interner()

    def scalar_token(self, attr: str, value: Any) -> int:
        """Id of the scalar item ``attr=value``."""
        return self._interner.intern((attr, value))

    def path_component(self, component: str) -> int:
        """Id of one path component (namespaced separately from scalars)."""
        return self._interner.intern((_PATH_NS, component))

    def path_components(self, components: tuple[str, ...]) -> tuple[int, ...]:
        """Ids for an ordered run of path components."""
        interner = self._interner
        return tuple(interner.intern((_PATH_NS, c)) for c in components)

    def decode(self, token_id: int) -> tuple[str, Any]:
        """Inverse lookup: ``(namespace_or_attr, value)`` of a token id."""
        return self._interner.token_of(token_id)  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._interner)

    def approx_bytes(self) -> int:
        """Approximate resident size (memory-overhead accounting)."""
        return self._interner.approx_bytes()

