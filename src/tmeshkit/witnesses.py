"""Witness sequences whose tuples are built when they are read.

The pairwise classifiers (SGAS, WGAS, SDC, WDC) and AAS report each
failing pair as a tuple.  Most readers take only the verdict, the count
or the first few (`cli` prints 20), and on a large mesh the failing
pairs grow with the square of its size.  So a scan keeps its witnesses
as index arrays over arrays it already holds, and `Witnesses` builds
the tuples of the positions read, each time they are read.

A builder holds arrays, junctions and anchors, never the mesh.  The
mesh memoizes the AAS sequence with its verdict: the (i, n, j, m) slice
pairs and the anchor arrays, from which a read builds each pair's
region.  A builder that held the mesh would close a reference cycle
(mesh -> memo -> witnesses -> mesh) that only the cyclic garbage
collector frees, and never if `gc.freeze` runs while the mesh is alive.
The pair classifiers build their sequence on each call, over memoized
arrays, by the same rule, so no sequence keeps its mesh alive.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

CHUNK = 4096   # tuples built per step of an iteration


class Witnesses(Sequence):
    """A read-only sequence of `count` witness tuples.

    `build(rows)` returns the list of tuples at the positions of an
    int64 index array, in its order.  Indexing, slicing (to a tuple),
    iteration, `len` and truth act as on the tuple of all witnesses,
    which the sequence also equals and hashes like.  Each read builds
    new tuples: an AAS witness holds a new `BoxRegion`, which compares
    and hashes by identity, so AAS witnesses compare by `region.boxes`."""

    __slots__ = ("_count", "_build")

    def __init__(self, count: int, build):
        self._count = count
        self._build = build

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self._build(np.arange(*key.indices(self._count))))
        i = operator.index(key)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("witness index out of range")
        return self._build(np.array([i]))[0]

    def __iter__(self):
        for start in range(0, self._count, CHUNK):
            stop = min(start + CHUNK, self._count)
            yield from self._build(np.arange(start, stop))

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, (tuple, Witnesses)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<Witnesses: {self._count}>"
