"""Versioned key/value store — the Rover server's object store.

Every stored value carries a monotonically increasing version number,
which is what the server's conflict detection compares: an exported
object commits (an unconditional :meth:`KVStore.put`) only if the
client's base version still matches the stored version.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional


class KVStore:
    """In-memory versioned map: key -> (value, version)."""

    def __init__(self) -> None:
        self._data: dict[str, tuple[Any, int]] = {}

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data)

    def get(self, key: str) -> tuple[Any, int]:
        """Return ``(value, version)``; raises :class:`KeyError` if absent."""
        return self._data[key]

    def entry(self, key: str) -> Optional[tuple[Any, int]]:
        """``(value, version)`` in one lookup, or ``None`` if absent."""
        return self._data.get(key)

    def get_value(self, key: str, default: Any = None) -> Any:
        entry = self._data.get(key)
        return entry[0] if entry is not None else default

    def version(self, key: str) -> Optional[int]:
        entry = self._data.get(key)
        return entry[1] if entry is not None else None

    def put(self, key: str, value: Any) -> int:
        """Unconditional write; returns the new version (starts at 1)."""
        current = self._data.get(key)
        new_version = (current[1] if current is not None else 0) + 1
        self._data[key] = (value, new_version)
        return new_version

    def set(self, key: str, value: Any, version: int) -> None:
        """Store ``value`` at a version chosen elsewhere (a replica
        installing what its primary wrote)."""
        self._data[key] = (value, version)

    def delete(self, key: str) -> bool:
        """Remove a key; returns whether it existed."""
        return self._data.pop(key, None) is not None
