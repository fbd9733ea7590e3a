"""Deterministic counter-based random streams.

Every random quantity in this package is *addressed* rather than drawn from
shared mutable state: the uniform used for point i, pair (i, j), Monte Carlo
tuple t, and so on is a pure function of (base seed, stream kind, stream
index, position).  Splitting work across workers therefore cannot change any
result, because each worker reads exactly the positions it would have read
serially.

The concrete rule (version `STREAM_RULE`), which file formats and reports
rely on:

* a stream is a Philox4x64 bit generator keyed with the uint64 pair
  ``(seed mod 2**64, kind * 2**48 + index)``, exact for every integer seed;
* position p of the stream is the p-th raw 64-bit output; its top 53 bits
  are the integer k (`integers`) of the exact uniform k/2**53 (`uniforms`).

Stream kinds used by the samplers:

* ``POINTS``      - X_i is position i (one uniform per point);
* ``CONDITIONALS``- second per-point uniform (conditional atom selection);
* ``PAIRS``       - reserved and not read: it held the pair coin flips of
                    general kernels, and keeps its number so that no other
                    stream's key moves;
* ``EDGES``       - random graph order edge (i, j): position j of stream
                    index i;
* ``MC_TUPLES``   - Monte Carlo density tuple t: positions t*q*k ..
                    t*q*k+q*k-1, k = 2 for a step measure, else 1;
* ``SUBSETS``     - random subset draws for fingerprint estimation;
* ``SPAWN``       - child-seed derivation for independent trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidArgument

STREAM_RULE = 2
UNIT = 1 << 53  # the uniform at a position is k/UNIT
_MASK64 = (1 << 64) - 1
_MAX_INDEX = 1 << 48

POINTS = 1
PAIRS = 2  # reserved, not read
CONDITIONALS = 3
EDGES = 4
MC_TUPLES = 5
SUBSETS = 6
SPAWN = 7


@dataclass(frozen=True)
class SeededRng:
    """A base seed plus the documented stream-splitting rule."""

    seed: int

    def _key(self, kind: int, index: int) -> np.ndarray:
        if not 0 <= index < _MAX_INDEX:
            raise InvalidArgument(f"stream index out of range: {index}")
        return np.array([self.seed & _MASK64, ((kind & 0xFFFF) << 48) | index], dtype=np.uint64)

    def raw(self, kind: int, count: int, index: int = 0) -> np.ndarray:
        """Raw uint64 outputs at positions 0..count-1 of a stream."""
        if count < 0:
            raise InvalidArgument(f"count must be at least 0, got {count}")
        bg = np.random.Philox(key=self._key(kind, index))
        return bg.random_raw(count)

    def integers(self, kind: int, count: int, index: int = 0) -> np.ndarray:
        """int64 k in [0, UNIT) at positions 0..count-1 of a stream."""
        return _top(self.raw(kind, count, index))

    def uniforms(self, kind: int, count: int, index: int = 0) -> np.ndarray:
        """float64 uniforms k/UNIT in [0, 1) at positions 0..count-1 of a stream."""
        return self.integers(kind, count, index) / UNIT

    def upper_rows(self, kind: int, n: int) -> Iterator[np.ndarray]:
        """For i in 0..n-1, the uniforms at positions i+1..n-1 of stream i.

        One generator is re-keyed per row by assigning its state, moved on
        (i + 1) // 4 counter steps of four outputs by `advance`, and the
        outputs left before position i + 1 in that block are dropped."""
        bg = np.random.Philox(key=self._key(kind, 0))
        state = bg.state  # buffer_pos stays 4: nothing is ever buffered
        for i in range(n):
            state["state"].update(key=self._key(kind, i), counter=np.zeros(4, np.uint64))
            bg.state, skip = state, (i + 1) % 4
            raw = bg.advance((i + 1) // 4).random_raw(skip + n - i - 1)[skip:]
            yield _top(raw) / UNIT

    def spawn(self, index: int) -> "SeededRng":
        """Child rng for trial `index`; children are mutually independent."""
        return SeededRng(int(self.raw(SPAWN, 1, index)[0]))


def _top(raw: np.ndarray) -> np.ndarray:
    """The top 53 bits of raw 64-bit outputs, as int64."""
    return (raw >> np.uint64(64 - 53)).astype(np.int64)
