"""Bit-level helpers shared by the family types and the kernels.

A family over the n-cube is one Python integer with bit x set iff the subset
with characteristic mask x belongs to the family (so the integer has 2**n bit
positions).  Subsets themselves are n-bit masks; coordinates are 1-indexed
externally and 0-indexed in masks.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache


def popcount(x: int) -> int:
    return x.bit_count()


def mask_of(elements) -> int:
    """Mask of a collection of 1-indexed elements."""
    m = 0
    for e in elements:
        if e < 1:
            raise ValueError(f"elements are 1-indexed, got {e}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-indexed elements of a subset mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def iter_bit_indices(x: int):
    """Yield 0-indexed positions of set bits, ascending.  Each step rebuilds
    x, so this is for n-bit subset masks; walk a 2**n-bit family with
    `iter_members`."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


_NONZERO_BYTE = re.compile(rb"[^\x00]")

#: the set bit positions of each byte value, ascending (built by doubling:
#: the entry of b + 2**j is that of b < 2**j followed by j)
_BYTE_BITS = [()]
for _j in range(8):
    _BYTE_BITS += [bits + (_j,) for bits in _BYTE_BITS]


def iter_members(bits: int, n: int):
    """Yield the set positions of a 2**n-bit family integer, ascending.

    One pass over the nonzero bytes of its little-endian image: the cost is
    one scan of 2**n / 8 bytes (in C) plus one step per member, where
    `iter_bit_indices` would rebuild the whole integer once per member.
    """
    buf = bits.to_bytes(((1 << n) + 7) // 8, "little")
    for match in _NONZERO_BYTE.finditer(buf):
        i = match.start()
        base = i << 3
        for j in _BYTE_BITS[buf[i]]:
            yield base + j


@lru_cache(maxsize=None)
def full_family_mask(n: int) -> int:
    """All 2**n cube positions set."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def size_class_masks(n: int) -> tuple[int, ...]:
    """class[j] has bit x set iff popcount(x) == j.  Built by doubling: on
    [m+1], class j is class j on [m] plus class j-1 shifted up by 2**m."""
    classes = [1]
    for m in range(n):
        upper = [0] + [c << (1 << m) for c in classes]
        classes = [lo | hi for lo, hi in zip(classes + [0], upper)]
    return tuple(classes)


@lru_cache(maxsize=None)
def coord_zero_mask(n: int, i: int) -> int:
    """Bit x set iff coordinate i (0-indexed) is absent from x.  Built by
    doubling the block of 2**i ones that opens each period of 2**(i+1)."""
    if i >= n:
        return full_family_mask(n)
    m = (1 << (1 << i)) - 1
    for level in range(i + 1, n):
        m |= m << (1 << level)
    return m


@lru_cache(maxsize=None)
def _coord_shifts(n: int) -> tuple:
    return tuple((1 << i, coord_zero_mask(n, i)) for i in range(n))


def minimal_bits(bits: int, n: int) -> int:
    """The members of a 2**n-bit family that are no member plus one
    element; for an increasing family these are its minimal members."""
    non_minimal = 0
    for d, zero in _coord_shifts(n):
        non_minimal |= (bits & zero) << d
    return bits & ~non_minimal


def cube_mask(n: int, contains: int = 0, misses: int = 0) -> int:
    """Bit x set iff subset x contains the mask `contains` and misses the
    mask `misses`."""
    m = full_family_mask(n)
    for i in iter_bit_indices(contains):
        m &= ~coord_zero_mask(n, i)
    for i in iter_bit_indices(misses):
        m &= coord_zero_mask(n, i)
    return m


def subset_masks(n: int, t: int):
    """(B, mask of B) for every t-subset B of [n], lexicographically."""
    for combo in itertools.combinations(range(1, n + 1), t):
        yield combo, mask_of(combo)


def reverse_bits(x: int, width: int) -> int:
    """Reverse an integer's low `width` bits (position b -> width-1-b)."""
    s = format(x, f"0{width}b")
    return int(s[::-1], 2)
