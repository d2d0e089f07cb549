"""Stirling numbers of both kinds, with shared grow-on-demand triangles.

Tables are built row by row from the standard recurrences and kept as
module-level singletons; rows already built are immutable and can be read
concurrently, while growth is serialized by a lock (single writer).
"""

from __future__ import annotations

import threading
from typing import Callable


class StirlingTable:
    """Triangular cache of Stirling numbers of one kind, grown by T(n+1, k) =
    factor(n, k) T(n, k) + T(n, k-1): factor = k for {n, k}, n for [n, k]."""

    def __init__(self, factor: Callable[[int, int], int]):
        self._factor = factor
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._lock = threading.Lock()

    @property
    def built_rows(self) -> int:
        return len(self._rows)

    def _grow_to(self, n: int) -> None:
        with self._lock:
            while len(self._rows) <= n:
                m = len(self._rows) - 1  # index of the last built row
                prev = self._rows[-1]
                row = [0] * (m + 2)
                for k in range(m + 2):
                    rec = self._factor(m, k) * prev[k] if k <= m else 0
                    low = prev[k - 1] if 1 <= k <= m + 1 else 0
                    row[k] = rec + low
                self._rows.append(tuple(row))

    def value(self, n: int, k: int) -> int:
        if n < 0:
            raise ValueError(f"Stirling numbers need n >= 0, got {n}")
        if k < 0 or k > n:
            return 0
        if n >= len(self._rows):
            self._grow_to(n)
        return self._rows[n][k]

    def row(self, n: int) -> tuple[int, ...]:
        if n < 0:
            raise ValueError(f"Stirling numbers need n >= 0, got {n}")
        if n >= len(self._rows):
            self._grow_to(n)
        return self._rows[n]


_SECOND = StirlingTable(lambda n, k: k)
_FIRST = StirlingTable(lambda n, k: n)


def stirling2(n: int, k: int) -> int:
    """{n, k}: set partitions of an n-set into k nonempty blocks."""
    return _SECOND.value(n, k)


def stirling1_unsigned(n: int, k: int) -> int:
    """[n, k]: permutations of n elements with exactly k cycles."""
    return _FIRST.value(n, k)
