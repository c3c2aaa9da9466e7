"""Packed chunks: several sequences stacked as the rows of one array.

A chunk's sequences sit one after another, so token-wise work runs once on a
``(rows, width)`` array. The few steps that look across a sequence
(attention, pooling, the CRF recursions) use the ``Packing`` to pad the rows
to ``(sequences, longest, width)`` or to reduce each sequence's rows; when
every sequence has the same length the padded view is a plain reshape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

# Memory sets the budget: every stage caches its activations until the
# chunk's backward pass (about 11 KB a token at d=32 with two blocks and three
# descriptions, attention adding the longest sequence squared) and the
# backward's temporaries grow with the chunk too; only one chunk's caches are
# alive at a time. The largest is CoDA's (rows, bank rows, d) L1 temporary
# against the packed description bank: 1.4 MB at 64 rows and d=32 for a
# 9-description bank of 88 tokens, 0.5 MB for a 3-description bank. With 64
# tokens training peaks about 2.5% above running one sequence at a time; 80
# and 96 tokens ran faster but peaked 3.6% and 4.5% above, too close to the
# 5% the benchmark allows for a model with a larger description bank.
_CHUNK_TOKENS = 64


class Packing:
    """How a chunk's sequences sit in its rows: sequence ``b`` holds rows
    ``starts[b]`` to ``starts[b] + lengths[b] - 1``."""

    def __init__(self, lengths):
        sizes = [int(n) for n in lengths]
        if not sizes or min(sizes) < 1:
            raise ValueError("a chunk needs at least one sequence, each of at least one row")
        self.size = len(sizes)
        self.n_max = max(sizes)
        self.n_rows = sum(sizes)
        self.uniform = self.n_rows == self.size * self.n_max
        self.lengths = np.array(sizes, dtype=np.intp)
        self.starts = np.array(list(accumulate(sizes, initial=0))[:-1], dtype=np.intp)

    @classmethod
    def single(cls, n: int) -> "Packing":
        """One sequence of ``n`` rows."""
        return cls([n])

    @cached_property
    def seg(self) -> np.ndarray:
        """The sequence of each row."""
        return np.repeat(np.arange(self.size), self.lengths)

    @cached_property
    def ends(self) -> np.ndarray:
        """Last row of each sequence."""
        return self.starts + self.lengths - 1

    @cached_property
    def ending(self) -> dict:
        """Time step -> the sequences whose last row is at that step."""
        if self.uniform:
            return {self.n_max - 1: slice(None)}
        out: dict[int, list[int]] = {}
        for b, n in enumerate(self.lengths.tolist()):
            out.setdefault(n - 1, []).append(b)
        return out

    @cached_property
    def positions(self) -> np.ndarray:
        """Each row's position within its sequence."""
        return np.arange(self.n_rows) - self.starts[self.seg]

    @cached_property
    def pair_rows(self) -> np.ndarray:
        """Rows followed by a row of the same sequence."""
        keep = np.ones(self.n_rows, dtype=bool)
        keep[self.ends] = False
        return np.flatnonzero(keep)

    @cached_property
    def _pad_rows(self) -> np.ndarray:
        return self.seg * self.n_max + self.positions

    @cached_property
    def key_mask(self) -> np.ndarray:
        """(sequences, 1, 1, longest): 0 on real keys, -inf on padding."""
        mask = np.full((self.size, self.n_max), -np.inf)
        mask.reshape(-1)[self._pad_rows] = 0.0
        return mask[:, None, None, :]

    def pad(self, x: np.ndarray, fill: float) -> np.ndarray:
        """(rows, ...) to (sequences, longest, ...), ``fill`` past each end."""
        shape = (self.size, self.n_max) + x.shape[1:]
        if self.uniform:
            return x.reshape(shape)
        out = np.full((self.size * self.n_max,) + x.shape[1:], fill)
        out[self._pad_rows] = x
        return out.reshape(shape)

    def unpad(self, x: np.ndarray) -> np.ndarray:
        """(sequences, longest, ...) back to the packed (rows, ...)."""
        flat = x.reshape((self.size * self.n_max,) + x.shape[2:])
        return flat if self.uniform else flat[self._pad_rows]

    def seg_sum(self, x: np.ndarray) -> np.ndarray:
        """Sum of each sequence's rows: (rows, ...) to (sequences, ...)."""
        return np.add.reduceat(x, self.starts, axis=0)

    def seg_argmax(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column maxima of each sequence's rows and the first row holding
        each, as (sequences, width) arrays."""
        padded = self.pad(x, -np.inf)
        return padded.max(axis=1), padded.argmax(axis=1) + self.starts[:, None]


@dataclass
class Chunk:
    """Sequences of a caller's list packed together: ``order`` lists their
    indices in packing order, ``token_ids`` their concatenated ids."""

    order: list[int]
    token_ids: np.ndarray
    packing: Packing

    def split(self, flat: list) -> list:
        """A packed per-row list cut into one list per sequence."""
        bounds = np.append(self.packing.starts, self.packing.n_rows).tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def make_chunks(id_lists: list[list[int]]) -> list[Chunk]:
    """Sequences sorted by length, so a chunk's lengths ascend and little
    attention padding is wasted, then cut into chunks of at most
    ``_CHUNK_TOKENS`` tokens; a longer sequence gets a chunk of its own."""
    order = sorted(range(len(id_lists)), key=lambda i: len(id_lists[i]))
    groups, group, tokens = [], [], 0
    for i in order:
        n = len(id_lists[i])
        if group and tokens + n > _CHUNK_TOKENS:
            groups.append(group)
            group, tokens = [], 0
        group.append(i)
        tokens += n
    if group:
        groups.append(group)
    return [Chunk(g, np.array([t for i in g for t in id_lists[i]], dtype=np.intp),
                  Packing([len(id_lists[i]) for i in g])) for g in groups]
