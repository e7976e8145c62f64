"""Set families on [n] = {1,..,n}: representations, algebra, and predicates.

A SetFamily is a dense bit-indexed subset of the 2**n cube positions (bit x
set iff the subset with characteristic mask x is a member).  A UniformFamily
holds k-element subsets only and has no dense cap.  Coordinates are 1-indexed
externally and 0-indexed inside masks.
"""

from __future__ import annotations

import itertools

from . import _kernels
from .bitops import (coord_zero_mask, elements_of, full_family_mask,
                     iter_members, mask_of, minimal_bits, popcount,
                     reverse_bits)
from .numerics import _Frozen

MAX_DENSE_N = 30


def _check_ground(n: int) -> None:
    if not 0 <= n <= MAX_DENSE_N:
        raise ValueError(f"ground size must be in [0, {MAX_DENSE_N}], got {n}")


def _member_bits(n: int, masks) -> int:
    """The 2**n-bit family integer with bit m set for each mask m, filled
    in a byte buffer that reaches the largest mask, rather than OR-ed into
    a growing integer."""
    masks = list(masks)
    limit = 1 << n
    if masks and not (0 <= min(masks) and max(masks) < limit):
        bad = next(m for m in masks if not 0 <= m < limit)
        raise ValueError(f"subset mask {bad} out of range for n={n}")
    buf = bytearray((max(masks, default=0) >> 3) + 1)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


class EdgeGround(_Frozen):
    """Ground set of unordered vertex pairs of [v], indexed 1..C(v,2) in
    colex order on pairs: (1,2),(1,3),(2,3),(1,4),(2,4),(3,4),...

    Lets plain set families act as families of graphs on v vertices.
    """

    __slots__ = ("v",)

    def __init__(self, v: int):
        if v < 2:
            raise ValueError("edge ground needs at least 2 vertices")
        if v * (v - 1) // 2 > MAX_DENSE_N:
            raise ValueError(f"C({v},2) exceeds the dense family cap")
        super().__init__(v)

    @property
    def n(self) -> int:
        return self.v * (self.v - 1) // 2

    def pair_index(self, a: int, b: int) -> int:
        """1-based ground index of edge {a,b}."""
        if a == b or not (1 <= a <= self.v and 1 <= b <= self.v):
            raise ValueError(f"not an edge of [{self.v}]: {{{a},{b}}}")
        a, b = min(a, b), max(a, b)
        return (b - 1) * (b - 2) // 2 + a

    def edge_mask(self, pairs) -> int:
        return mask_of(self.pair_index(a, b) for a, b in pairs)

    def triangle_masks(self) -> tuple[int, ...]:
        """Edge masks of all triangles on [v]."""
        tris = []
        for x, y, z in itertools.combinations(range(1, self.v + 1), 3):
            tris.append(self.edge_mask([(x, y), (x, z), (y, z)]))
        return tuple(tris)


class SetFamily(_Frozen):
    """An arbitrary family of subsets of [n], bit-indexed over all 2**n masks."""

    __slots__ = ("n", "bits", "edges", "_buf")

    def __init__(self, n: int, bits: int, edges: EdgeGround | None = None):
        _check_ground(n)
        if bits < 0 or bits.bit_length() > (1 << n):
            raise ValueError("family bits exceed the 2**n cube positions")
        if edges is not None and edges.n != n:
            raise ValueError("edge ground does not match ground size")
        super().__init__(n, bits, edges)

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, n: int, edges=None) -> "SetFamily":
        return cls(n, 0, edges)

    @classmethod
    def full(cls, n: int, edges=None) -> "SetFamily":
        return cls(n, full_family_mask(n), edges)

    @classmethod
    def from_masks(cls, n: int, masks, edges=None) -> "SetFamily":
        _check_ground(n)
        return cls(n, _member_bits(n, masks), edges)

    @classmethod
    def from_sets(cls, n: int, sets, edges=None) -> "SetFamily":
        return cls.from_masks(n, (mask_of(s) for s in sets), edges)

    @classmethod
    def from_predicate(cls, n: int, pred, edges=None,
                       width: int | None = None) -> "SetFamily":
        """Family of all masks m in [0, 2**n) with pred(m) true.

        A predicate that reads only the low `width` coordinates (a junta)
        runs once on each of their 2**width patterns, and that block of
        bits repeats across the cube; the block is at least 2**3 bits, so
        it is whole bytes."""
        _check_ground(n)
        w = n if width is None else min(n, max(width, 3))
        block = _member_bits(w, filter(pred, range(1 << w)))
        if w == n:
            return cls(n, block, edges)
        image = block.to_bytes(1 << (w - 3), "little") * (1 << (n - w))
        return cls(n, int.from_bytes(image, "little"), edges)

    def _replace(self, bits: int) -> "SetFamily":
        return SetFamily(self.n, bits, self.edges)

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return popcount(self.bits)

    def __contains__(self, subset) -> bool:
        m = subset if isinstance(subset, int) else mask_of(subset)
        buf = self._buffer()
        return bool((buf[m >> 3] >> (m & 7)) & 1)

    def _buffer(self) -> bytes:
        if self._buf is None:
            size = ((1 << self.n) + 7) // 8
            object.__setattr__(self, "_buf", self.bits.to_bytes(size, "little"))
        return self._buf

    def __iter__(self):
        """Member masks in ascending numeric order."""
        return iter_members(self.bits, self.n)

    def member_sets(self):
        """Members as sorted tuples of 1-indexed elements."""
        for m in self:
            yield elements_of(m)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SetFamily) and self.n == other.n
                and self.bits == other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, members={len(self)})"

    # -- algebra -----------------------------------------------------------

    def __or__(self, other: "SetFamily") -> "SetFamily":
        self._same_ground(other)
        return self._replace(self.bits | other.bits)

    def __and__(self, other: "SetFamily") -> "SetFamily":
        self._same_ground(other)
        return self._replace(self.bits & other.bits)

    def __sub__(self, other: "SetFamily") -> "SetFamily":
        self._same_ground(other)
        return self._replace(self.bits & ~other.bits)

    def __xor__(self, other: "SetFamily") -> "SetFamily":
        self._same_ground(other)
        return self._replace(self.bits ^ other.bits)

    def _same_ground(self, other: "SetFamily"):
        if not isinstance(other, SetFamily) or other.n != self.n:
            raise ValueError("families live on different ground sets")

    def issubset(self, other: "SetFamily") -> bool:
        self._same_ground(other)
        return self.bits & ~other.bits == 0

    def complement_family(self) -> "SetFamily":
        """All subsets NOT in the family (the ^c of the family algebra)."""
        return self._replace(full_family_mask(self.n) & ~self.bits)

    def bar(self) -> "SetFamily":
        """{[n] - A : A in family}: complement every member."""
        # complementing a mask m is the numeric reflection m -> 2**n-1-m,
        # so the bit string simply reverses
        return self._replace(reverse_bits(self.bits, 1 << self.n))

    def dual(self) -> "SetFamily":
        """{[n] - A : A not in family}; an involution."""
        return self.bar().complement_family()

    def up_closure(self) -> "SetFamily":
        """Minimal increasing family containing this one, in one pass over
        the coordinates.  Closing under a later coordinate j keeps the
        closure under i: when x + j is added and lacks i, x + i is already
        a member, so x + i + j is added with it."""
        bits, n = self.bits, self.n
        for i in range(n):
            bits |= (bits & coord_zero_mask(n, i)) << (1 << i)
        return self._replace(bits)

    # -- structure predicates ----------------------------------------------

    def is_increasing(self) -> bool:
        n, bits = self.n, self.bits
        for i in range(n):
            if ((bits & coord_zero_mask(n, i)) << (1 << i)) & ~bits:
                return False
        return True

    def minimal_members(self) -> "SetFamily":
        """Members none of whose proper subsets are members."""
        return self._replace(minimal_bits(self.bits, self.n))

    def is_subcube(self) -> bool:
        """True iff the members are exactly a subcube {x : x_i = c_i for i in T}."""
        if self.bits == 0:
            return False
        and_all = (1 << self.n) - 1
        or_all = 0
        for m in self:
            and_all &= m
            or_all |= m
        fixed = popcount(and_all) + (self.n - popcount(or_all))
        return len(self) == 1 << (self.n - fixed)

    def increasing_subcube_generator(self) -> int | None:
        """If the family is S_B for some B (an increasing subcube), return
        B's mask; else None.  The full family is S_emptyset."""
        if self.bits == 0:
            return None
        and_all = (1 << self.n) - 1
        for m in self:
            and_all &= m
        # every member contains and_all, so equal sizes force equality with
        # the full upset of and_all
        if len(self) == 1 << (self.n - popcount(and_all)):
            return and_all
        return None

    def weight_vector(self) -> list[int]:
        """w[j] = number of members of size j."""
        return _kernels.weight_counts(self.bits, self.n)

    def uniform_slice(self, k: int) -> "UniformFamily":
        """Members of size exactly k, as a UniformFamily."""
        return UniformFamily(self.n, k, (m for m in self if popcount(m) == k))

    def is_t_intersecting(self, t: int) -> bool:
        return is_t_intersecting(self, t)


class UniformFamily(_Frozen):
    """A family of k-element subsets of [n] (no dense 2**n representation)."""

    __slots__ = ("n", "k", "members")

    def __init__(self, n: int, k: int, members):
        if n < 0:
            raise ValueError("ground size must be nonnegative")
        if not 0 <= k <= n:
            raise ValueError(f"uniformity k={k} out of range for n={n}")
        ms = frozenset(int(m) for m in members)
        for m in ms:
            if m < 0 or m.bit_length() > n or popcount(m) != k:
                raise ValueError(f"mask {m:#x} is not a {k}-subset of [{n}]")
        super().__init__(n, k, ms)

    @classmethod
    def from_sets(cls, n: int, k: int, sets) -> "UniformFamily":
        return cls(n, k, (mask_of(s) for s in sets))

    @classmethod
    def full(cls, n: int, k: int) -> "UniformFamily":
        return cls(n, k, (mask_of(c) for c in
                          itertools.combinations(range(1, n + 1), k)))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, subset) -> bool:
        m = subset if isinstance(subset, int) else mask_of(subset)
        return m in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def member_sets(self):
        for m in self:
            yield elements_of(m)

    def __eq__(self, other) -> bool:
        return (isinstance(other, UniformFamily) and self.n == other.n
                and self.k == other.k and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.members))

    def __repr__(self) -> str:
        return f"UniformFamily(n={self.n}, k={self.k}, members={len(self)})"

    def to_set_family(self) -> SetFamily:
        if self.n > MAX_DENSE_N:
            raise ValueError("ground set too large for a dense family")
        return SetFamily.from_masks(self.n, self.members)

    def is_t_intersecting(self, t: int) -> bool:
        return is_t_intersecting(self, t)


# -- predicates and statistics on either family kind ------------------------


def _member_masks(fam) -> list[int]:
    if isinstance(fam, SetFamily):
        return list(fam)
    if isinstance(fam, UniformFamily):
        return sorted(fam.members)
    raise TypeError(f"not a family: {fam!r}")


def is_t_intersecting(fam, t: int) -> bool:
    """Every two members (A = B included, so |A| >= t too) share >= t elements."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if isinstance(fam, SetFamily) and fam.is_increasing():
        members = _member_masks(fam.minimal_members())
    else:
        members = _member_masks(fam)
    for i, a in enumerate(members):
        if popcount(a) < t:
            return False
        for b in members[i + 1:]:
            if popcount(a & b) < t:
                return False
    return True


def is_intersecting(fam) -> bool:
    return is_t_intersecting(fam, 1)


def are_cross_intersecting(f, g) -> bool:
    """Every member of f meets every member of g."""
    fa = _member_masks(f.minimal_members()
                       if isinstance(f, SetFamily) and f.is_increasing() else f)
    ga = _member_masks(g.minimal_members()
                       if isinstance(g, SetFamily) and g.is_increasing() else g)
    return all(a & b for a in fa for b in ga)


def matching_number(fam) -> int:
    """Largest number of pairwise disjoint members, by branch and bound.

    The empty set, if present, is disjoint from every other member but not
    from a second copy of itself, so it contributes exactly one.
    """
    members = _member_masks(fam)
    if not members:
        return 0
    bonus = 0
    if members[0] == 0:
        bonus = 1
        members = members[1:]
    members.sort(key=popcount)
    best = 0

    def rec(start: int, used: int, size: int):
        nonlocal best
        if size > best:
            best = size
        if size + (len(members) - start) <= best:
            return
        for idx in range(start, len(members)):
            m = members[idx]
            if not m & used:
                rec(idx + 1, used | m, size + 1)

    rec(0, 0, 0)
    return best + bonus


def compress(fam: UniformFamily, i: int, j: int) -> UniformFamily:
    """The (i,j)-shift: replace j by i in each member containing j but not i,
    unless the shifted set is already present.  Preserves cardinality."""
    if i == j:
        raise ValueError("shift coordinates must differ")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    members = set(fam.members)
    out = set()
    for m in sorted(members):
        if m & bj and not m & bi:
            shifted = (m & ~bj) | bi
            out.add(shifted if shifted not in members else m)
        else:
            out.add(m)
    return UniformFamily(fam.n, fam.k, out)


# -- triangle machinery ------------------------------------------------------


def is_triangle_intersecting(fam, edges: EdgeGround | None = None) -> bool:
    """Every two member graphs (a member with itself included) share a
    triangle of `edges`, by default the family's own edge ground."""
    ground = edges or getattr(fam, "edges", None)
    if ground is None:
        raise ValueError("family has no edge ground; build it over an EdgeGround")
    tris = ground.triangle_masks()
    members = _member_masks(fam)
    for i, g in enumerate(members):
        for h in members[i:]:
            gh = g & h
            if not any(tri & ~gh == 0 for tri in tris):
                return False
    return True
