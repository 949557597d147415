"""Non-crossing partitions of {1..m}."""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .series import Record

Block = Tuple[int, ...]

MAX_POINTS = 14


class NCPartition(Record):
    """Non-crossing set partition, blocks ordered by minimum element.

    Instances keep a ``__dict__``, so callers may cache derived data on
    them with ``object.__setattr__``."""

    _fields = ("m", "blocks")

    def __init__(self, m: int, blocks: Tuple[Block, ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "blocks", blocks)
        seen = sorted(x for b in blocks for x in b)
        if seen != list(range(1, m + 1)):
            raise ValueError("blocks do not partition 1..%d" % m)
        if any(tuple(sorted(b)) != b for b in blocks):
            raise ValueError("blocks must be sorted")
        if tuple(sorted(blocks, key=min)) != blocks:
            raise ValueError("blocks must be ordered by minimum element")
        if self.parents() is None:
            raise ValueError("partition is crossing")

    @classmethod
    def from_blocks(cls, m: int, blocks) -> "NCPartition":
        """Build from blocks in any storage order; canonicalizes."""
        ordered = tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))
        return cls(m, ordered)

    def parents(self) -> Tuple[int | None, ...] | None:
        """Index of the nearest enclosing block per block (None = covering),
        or None when two blocks cross, which ``__init__`` refuses.

        Linear stack scan: opening a block pushes it, and a block may
        continue or close only while it is on top of the stack, so the
        block on top when a block opens is its nearest enclosure."""
        owner = {x: idx for idx, b in enumerate(self.blocks) for x in b}
        seen = [0] * len(self.blocks)
        parents: list = [None] * len(self.blocks)
        stack: list = []
        for x in range(1, self.m + 1):
            idx = owner[x]
            if seen[idx] == 0:
                parents[idx] = stack[-1] if stack else None
                stack.append(idx)
            elif stack[-1] != idx:
                return None
            seen[idx] += 1
            if seen[idx] == len(self.blocks[idx]):
                stack.pop()
        return tuple(parents)


def _gaps(points: Tuple[int, ...], chosen: Tuple[int, ...]):
    gaps = []
    pos = {x: i for i, x in enumerate(points)}
    for a, b in zip(chosen, chosen[1:]):
        gaps.append(points[pos[a] + 1:pos[b]])
    gaps.append(points[pos[chosen[-1]] + 1:])
    return gaps


def _nc_blocks(points: Tuple[int, ...]):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    n = len(rest)
    for mask in range(1 << n):
        chosen = (first,) + tuple(rest[i] for i in range(n)
                                  if mask >> i & 1)
        partials = [()]
        for gap in _gaps(points, chosen):
            partials = [p + sub for p in partials for sub in _nc_blocks(gap)]
            if not partials:
                break
        for tail in partials:
            yield (chosen,) + tail


@lru_cache(maxsize=None)
def enumerate_nc(m: int) -> Tuple[NCPartition, ...]:
    """All non-crossing partitions of {1..m}; |result| = Catalan(m)."""
    if not 1 <= m <= MAX_POINTS:
        raise ValueError("m must be in 1..%d, got %d" % (MAX_POINTS, m))
    return tuple(NCPartition.from_blocks(m, blocks)
                 for blocks in _nc_blocks(tuple(range(1, m + 1))))
