"""Shadows, lex/colex segments, the Kruskal-Katona minimum, Katona's
shadow/intersection checks, and the finite lift of a family.

Lex order on k-sets compares sorted element tuples (the set containing the
smallest symmetric-difference element comes first); colex order compares
from the largest element down.  Initial colex segments minimize the shadow.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .bitops import coord_zero_mask, elements_of, mask_of, popcount
from .families import SetFamily, UniformFamily, is_t_intersecting
from .measures import mu
from .numerics import _Frozen, check_le
from .report import VerdictReport


# -- shadows -----------------------------------------------------------------


def lower_shadow(fam: UniformFamily, s: int = 1) -> UniformFamily:
    """All (k-s)-sets contained in some member."""
    if not 0 <= s <= fam.k:
        raise ValueError("need 0 <= s <= k")
    out = set()
    for m in fam.members:
        for combo in itertools.combinations(elements_of(m), fam.k - s):
            out.add(mask_of(combo))
    return UniformFamily(fam.n, fam.k - s, out)


def upper_shadow(fam: UniformFamily, s: int = 1) -> UniformFamily:
    """All (k+s)-sets containing some member."""
    if fam.k + s > fam.n:
        raise ValueError("k + s exceeds the ground size")
    out = set()
    universe = range(1, fam.n + 1)
    for m in fam.members:
        rest = [e for e in universe if not (m >> (e - 1)) & 1]
        for extra in itertools.combinations(rest, s):
            out.add(m | mask_of(extra))
    return UniformFamily(fam.n, fam.k + s, out)


def increasing_shadow(fam: SetFamily, s: int) -> SetFamily:
    """s-fold shadow of an increasing family: all A such that A union C is a
    member for some s-element C (C may overlap A)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if not fam.is_increasing():
        raise ValueError("the union-form shadow is defined for increasing families")
    n = fam.n
    if s > n:
        return SetFamily.empty(n)  # no s-element C exists inside [n]
    bits = fam.bits
    full = (1 << (1 << n)) - 1
    for _ in range(s):
        step = bits
        for i in range(n):
            ones = full ^ coord_zero_mask(n, i)
            step |= (bits & ones) >> (1 << i)
        bits = step
    return SetFamily(n, bits)


# -- lex / colex segments ----------------------------------------------------


def colex_rank(mask: int) -> int:
    """Rank of a k-set in colex order (0-based)."""
    r = 0
    for i, e in enumerate(elements_of(mask), start=1):
        r += math.comb(e - 1, i)
    return r


def colex_unrank(r: int, k: int) -> int:
    """The k-set with colex rank r (ground-free; elements 1-indexed)."""
    mask = 0
    for i in range(k, 0, -1):
        a = i - 1
        while math.comb(a + 1, i) <= r:
            a += 1
        r -= math.comb(a, i)
        mask |= 1 << a  # element a+1
    return mask


def lex_rank(n: int, k: int, mask: int) -> int:
    """Rank of a k-subset of [n] in lex order (0-based)."""
    elems = elements_of(mask)
    if len(elems) != k or (elems and elems[-1] > n):
        raise ValueError("not a k-subset of [n]")
    r = 0
    prev = 0
    for i, e in enumerate(elems):
        for skipped in range(prev + 1, e):
            r += math.comb(n - skipped, k - i - 1)
        prev = e
    return r


def lex_unrank(n: int, k: int, r: int) -> int:
    mask = 0
    prev = 0
    for i in range(k):
        e = prev + 1
        while True:
            block = math.comb(n - e, k - i - 1)
            if r < block:
                break
            r -= block
            e += 1
        mask |= 1 << (e - 1)
        prev = e
    return mask


def _check_segment(n: int, k: int, m: int) -> None:
    if not 0 <= m <= math.comb(n, k):
        raise ValueError("segment size out of range")


class LexSegment(_Frozen):
    """Initial segment of the lex order on [n]^(k), given by its size."""

    __slots__ = ("n", "k", "m")

    def __init__(self, n: int, k: int, m: int):
        _check_segment(n, k, m)
        super().__init__(n, k, m)

    def __contains__(self, subset) -> bool:
        mask = subset if isinstance(subset, int) else mask_of(subset)
        return lex_rank(self.n, self.k, mask) < self.m

    def __len__(self) -> int:
        return self.m

    def family(self) -> UniformFamily:
        return UniformFamily(self.n, self.k,
                             (lex_unrank(self.n, self.k, r) for r in range(self.m)))


class ColexSegment(_Frozen):
    """Initial segment of the colex order on [n]^(k); shadow-minimal."""

    __slots__ = ("n", "k", "m")

    def __init__(self, n: int, k: int, m: int):
        _check_segment(n, k, m)
        super().__init__(n, k, m)

    def __contains__(self, subset) -> bool:
        mask = subset if isinstance(subset, int) else mask_of(subset)
        return colex_rank(mask) < self.m

    def __len__(self) -> int:
        return self.m

    def family(self) -> UniformFamily:
        return UniformFamily(self.n, self.k,
                             (colex_unrank(r, self.k) for r in range(self.m)))


# -- Kruskal-Katona ----------------------------------------------------------


def cascade_decomposition(m: int, k: int) -> list[tuple[int, int]]:
    """Greedy binomial cascade m = C(a_k,k) + C(a_{k-1},k-1) + ...;
    returns [(a_k, k), ...] with a_k > a_{k-1} > ..."""
    if m < 0 or k < 1:
        raise ValueError("need m >= 0 and k >= 1")
    out = []
    i = k
    while m > 0 and i >= 1:
        a = i - 1
        while math.comb(a + 1, i) <= m:
            a += 1
        out.append((a, i))
        m -= math.comb(a, i)
        i -= 1
    if m:
        raise ArithmeticError("cascade decomposition failed")  # unreachable
    return out


def kk_min_shadow(m: int, k: int, s: int = 1) -> int:
    """Minimum possible size of the s-fold lower shadow over all families of
    m distinct k-sets (ground set unbounded); attained by colex segments."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if s < 0 or s > k:
        raise ValueError(f"need 0 <= s <= k, got s={s}, k={k}")
    for step in range(s):
        kk = k - step
        m = sum(math.comb(a, i - 1) for a, i in cascade_decomposition(m, kk))
    return m


# -- Katona shadow/intersection checks ---------------------------------------


def katona_check(fam, t: int, p=None) -> VerdictReport:
    """Shadow/intersection inequalities for t-intersecting families.

    Uniform variant (UniformFamily): |shadow^t(F)| >= |F|.
    Biased variant (SetFamily, rational p): mu_p(shadow^t(F)) >=
    ((1-p)/p)**t * mu_p(F), where the shadow is the union-form one.
    Both comparisons are exact rationals.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if isinstance(fam, UniformFamily):
        if p is not None:
            raise ValueError("uniform variant takes no p")
        if t > fam.k:
            raise ValueError("t exceeds the uniformity")
        if not is_t_intersecting(fam, t):
            raise ValueError("family is not t-intersecting")
        rep = VerdictReport("katona/uniform")
        shadow_size = len(lower_shadow(fam, t))
        chk = check_le(len(fam), shadow_size)
        rep.add_hypothesis("|shadow^t(F)| >= |F|", chk)
        rep.conclusion_holds = chk.holds
        rep.add_slack("slack", chk.slack)
        return rep
    if isinstance(fam, SetFamily):
        if p is None:
            raise ValueError("biased variant needs a rational p")
        p = Fraction(p)
        if not 0 < p < 1:
            raise ValueError("need 0 < p < 1")
        if not fam.is_increasing():
            raise ValueError("biased variant requires an increasing family")
        if not is_t_intersecting(fam, t):
            raise ValueError("family is not t-intersecting")
        rep = VerdictReport("katona/biased")
        lhs = ((1 - p) / p) ** t * mu(fam, p)
        rhs = mu(increasing_shadow(fam, t), p)
        chk = check_le(lhs, rhs)
        rep.add_hypothesis("mu_p(shadow^t(F)) >= ((1-p)/p)^t mu_p(F)", chk)
        rep.conclusion_holds = chk.holds
        rep.add_slack("slack", chk.slack)
        return rep
    raise TypeError("expected a UniformFamily or SetFamily")


# -- the finite lift ---------------------------------------------------------


def lift_size(fam: SetFamily, big_n: int, k: int) -> int:
    """|{A in [N]^(k) : A cap [n] in F}| by size classes, without
    materializing."""
    if big_n < fam.n:
        raise ValueError("N must be at least n")
    w = fam.weight_vector()
    return sum(w[j] * math.comb(big_n - fam.n, k - j)
               for j in range(min(fam.n, k) + 1))


def lift(fam: SetFamily, big_n: int, k: int,
         max_members: int = 2_000_000) -> UniformFamily:
    """Materialize the lift {A in [N]^(k) : A cap [n] in F}."""
    if not 0 <= k <= big_n:
        raise ValueError("need 0 <= k <= N")
    total = lift_size(fam, big_n, k)
    if total > max_members:
        raise ValueError(f"lift has {total} members; raise max_members to materialize")
    fresh = range(fam.n + 1, big_n + 1)
    out = []
    for m in fam:
        need = k - popcount(m)
        if need < 0:
            continue
        for extra in itertools.combinations(fresh, need):
            out.append(m | mask_of(extra))
    return UniformFamily(big_n, k, out)

