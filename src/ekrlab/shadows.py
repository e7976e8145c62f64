"""Shadows, the Kruskal-Katona minimum, and Katona's shadow/intersection
checks.

Initial segments of the colex order on k-sets (which compares from the
largest element down) minimize the shadow.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .bitops import coord_zero_mask, elements_of, mask_of
from .families import SetFamily, UniformFamily, is_t_intersecting
from .measures import mu
from .numerics import check_le
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
    if s < 0:
        raise ValueError("s must be nonnegative")
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


# -- Kruskal-Katona ----------------------------------------------------------


def cascade_decomposition(m: int, k: int) -> list[tuple[int, int]]:
    """Greedy binomial cascade m = C(a_k,k) + C(a_{k-1},k-1) + ...;
    returns [(a_k, k), ...] with a_k > a_{k-1} > ...

    Each a_i is the largest a with C(a, i) <= m, found by doubling the
    step past i - 1 (C(i-1, i) = 0) and then halving it, so a query costs
    about 2 log2(a_i) binomials rather than a_i."""
    if m < 0 or k < 1:
        raise ValueError("need m >= 0 and k >= 1")
    out = []
    i = k
    while m > 0 and i >= 1:
        # C(a, i) <= m < C(a + step, i) once the doubling stops
        a, step = i - 1, 1
        while math.comb(a + step, i) <= m:
            a += step
            step *= 2
        while step > 1:
            step //= 2
            if math.comb(a + step, i) <= m:
                a += step
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
