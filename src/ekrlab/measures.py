"""Exact p-biased measures, influences, and the analytic
tool checks built on them.

mu_p gives each element probability p independently; for a family F the
measure is the sum of p**|S| (1-p)**(n-|S|) over members S.  With w[j] the
number of size-j members and p = a/b, that is one integer dot product,
sum_j w[j] a**j (b-a)**(n-j), over b**n, and one `Fraction` is built at the
end.  Influences are measures of integer pivot-count vectors, and measure
polynomials have integer coefficients.  Only log-ratio and irrational-power
expressions go through the high-precision real layer in `numerics`.
"""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction

from . import _kernels
from .bitops import cube_mask, popcount
from .families import MAX_DENSE_N, SetFamily
from .numerics import (_Frozen, default_tol, fmt_rational, fmt_real, log,
                       to_mpf)

#: ground size above which influence counting switches to member scans
_SCAN_THRESHOLD = 22


def polynomial(n: int, weights) -> tuple[int, ...]:
    """sum_j w_j p**j (1-p)**(n-j) as integer monomial coefficients, the
    coefficient of p**m at index m, trailing zeros dropped."""
    coeffs = [0] * (n + 1)
    for j, w in enumerate(weights):
        if not w:
            continue
        for m in range(j, n + 1):
            coeffs[m] += w * (-1) ** (m - j) * math.comb(n - j, m - j)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def power_table(n: int, p: Fraction) -> tuple[list[int], int]:
    """(pw, den) with pw[j] = a**j (b-a)**(n-j) and den = b**n at p = a/b:
    a size-j point has measure pw[j] / den."""
    a, b = p.numerator, p.denominator
    c = b - a
    return [a**j * c ** (n - j) for j in range(n + 1)], b**n


def dot(weights, pw: list[int]) -> int:
    """sum_j weights[j] pw[j]: with (pw, den) from `power_table`, a family
    with weight vector w has mu_p = dot(w, pw) / den."""
    return sum(w * x for w, x in zip(weights, pw) if w)


def _cube_counter(fam, pw: list[int]):
    """num(contains, misses): the sum of pw[|S|] over the members S that
    contain every coordinate of `contains` and none of `misses`.  For a
    SetFamily with n <= _kernels.DENSE_COUNT_N that is per-size counts of
    fam.bits & cube_mask; otherwise (larger grounds, a UniformFamily) one
    pass over (member, weight) pairs, so a query costs |F| steps rather
    than 2**n bits."""
    n = fam.n
    if isinstance(fam, SetFamily) and n <= _kernels.DENSE_COUNT_N:
        def num(contains=0, misses=0):
            inside = fam.bits & cube_mask(n, contains, misses)
            return dot(_kernels.weight_counts(inside, n), pw)
    else:
        pairs = [(m, pw[popcount(m)]) for m in fam]

        def num(contains=0, misses=0):
            return sum(x for m, x in pairs
                       if m & contains == contains and not m & misses)
    return num


def nearest_cube(fam, candidates, p=None, misses: bool = False):
    """(key, mask, residual) of the first (key, mask) candidate B with the
    least residual: the members not containing B (F minus S_B) or, with
    `misses`, the members disjoint from B (F minus OR_B), measured by mu_p,
    or counted when p is None.  Candidates come in lexicographic order of
    key, so ties go to the least key.  `fam` is a SetFamily or a
    UniformFamily."""
    pw, den = (([1] * (fam.n + 1), 1) if p is None
               else power_table(fam.n, Fraction(p)))
    num = _cube_counter(fam, pw)
    total = 0 if misses else num()
    best = None
    for key, mask in candidates:
        r = num(misses=mask) if misses else total - num(contains=mask)
        if best is None or r < best[2]:
            best = (key, mask, r)
    if best is None:
        raise ValueError("the structure size exceeds the ground size")
    key, mask, r = best
    return key, mask, r if p is None else Fraction(r, den)


class InfluenceVector(_Frozen):
    """Per-coordinate pivot counts plus their sum: pivots[i][j] counts the
    size-j cube points whose membership flips with coordinate i, and Inf_i
    is the measure of that integer vector."""

    __slots__ = ("n", "pivots", "total_weights")

    @property
    def total(self) -> tuple[int, ...]:
        """The total influence as a `polynomial`."""
        return polynomial(self.n, self.total_weights)

    def at(self, p) -> list[Fraction]:
        pw, den = power_table(self.n, Fraction(p))
        return [Fraction(dot(w, pw), den) for w in self.pivots]

    def total_at(self, p) -> Fraction:
        pw, den = power_table(self.n, Fraction(p))
        return Fraction(dot(self.total_weights, pw), den)


def check_p_open(p: Fraction):
    """A ValueError unless 0 < p < 1, the domain of the isoperimetric check."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")


def mu(fam: SetFamily, p) -> Fraction:
    """Exact mu_p of the family."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    pw, den = power_table(fam.n, p)
    return Fraction(dot(fam.weight_vector(), pw), den)


def mu_polynomial(fam: SetFamily) -> tuple[int, ...]:
    """mu_p of the family as a `polynomial` in p."""
    return polynomial(fam.n, fam.weight_vector())


def _counts(fam: SetFamily) -> tuple[list[int], list[list[int]]]:
    """(w, low): per-size member counts, and low[i][j] = number of pivotal
    edges in direction i whose lower end has size j (see
    `_kernels.weight_pivot_counts`).  Above _SCAN_THRESHOLD each pivotal
    edge is found from its one member end and recorded at its lower end."""
    n = fam.n
    if n <= _SCAN_THRESHOLD:
        return _kernels.weight_pivot_counts(fam.bits, n)
    low = [[0] * (n + 1) for _ in range(n)]
    for m in fam:
        for i in range(n):
            if (m ^ (1 << i)) not in fam:
                low[i][popcount(m & ~(1 << i))] += 1
    return fam.weight_vector(), low


def influence(fam: SetFamily, p=None) -> InfluenceVector:
    """Influences; evaluate with .at(p) / .total_at(p).

    Inf_i is the mu_p-measure of the points whose membership flips when
    coordinate i flips: a pivotal edge in direction i with lower end of
    size j puts one such point in size j and one in size j + 1.  The total
    influence is the measure of the pivot counts summed over coordinates.
    """
    if p is not None:
        check_p_open(Fraction(p))
    _, low = _counts(fam)
    piv = tuple(tuple(map(sum, zip([0] + row, row))) for row in low)
    return InfluenceVector(fam.n, piv, tuple(map(sum, zip(*piv))))


def russo_identity(fam: SetFamily) -> bool:
    """Exact polynomial identity d(mu_p)/dp == total influence.

    In the basis p**j (1-p)**(n-j), the total influence has coefficients
    L[j] + L[j-1], where L[j] counts the pivotal edges whose lower end has
    size j, summed over directions; d(mu_p)/dp has D[j] + D[j-1], where
    D[j] = (j+1) w[j+1] - (n-j) w[j] and D[n] = 0 (and L[n] = 0).  The map
    x -> (x[j] + x[j-1])_j is injective, so the identity holds iff L == D:
    n + 1 integer comparisons, with no polynomial expanded.

    Asserted only for increasing families (it can fail otherwise), so
    non-increasing input is rejected.
    """
    if not fam.is_increasing():
        raise ValueError("the derivative identity is asserted for increasing families only")
    n = fam.n
    w, low = _counts(fam)
    lower = list(map(sum, zip(*low))) or [0]  # n = 0: no directions
    return lower == [(j + 1) * w[j + 1] - (n - j) * w[j]
                     for j in range(n)] + [0]


def iso_table(n: int, masks, ps) -> tuple[array, list[list[tuple]]]:
    """(profile_of, profiles) for increasing families on [n], given as
    2**n-bit masks.

    Both sides of the isoperimetric inequality depend on an increasing
    family only through its weight counts w: mu_p is their measure and, by
    Russo-Margulis, I_p = d(mu_p)/dp = sum_j w[j] p**(j-1) (1-p)**(n-j-1)
    (j - np).  Few such profiles exist (26 among the 168 families on [4]),
    so each is evaluated once: profiles[k] holds one row per bias in ps,
    (mu_p, I_p, slack, log_p mu) with slack = p*I_p - mu*log_p(mu) in reals
    at the working precision, or both None when mu is 0 or 1; profile_of[i]
    is the index of mask i's profile, in order of first appearance, in an
    array("I").  ln p is taken once per bias."""
    ps = [Fraction(p) for p in ps]
    index: dict[tuple, int] = {}
    profile_of = array("I")
    for bits in masks:
        key = tuple(_kernels.weight_counts(bits, n))
        profile_of.append(index.setdefault(key, len(index)))
    # at p = a/b, I_p = sum_j w[j] pw[j] (jb - na) b / (a (b-a) b**n)
    tables = []
    for p in ps:
        a, b = p.numerator, p.denominator
        pw, den = power_table(n, p)
        slope = [x * (j * b - n * a) * b for j, x in enumerate(pw)]
        tables.append((pw, den, slope, a * (b - a) * den))
    profiles = []
    reals = [(to_mpf(p), log(to_mpf(p))) for p in ps]
    for w in index:
        rows = []
        for (pw, den, slope, ip_den), (p_real, log_p) in zip(tables, reals):
            m = Fraction(dot(w, pw), den)
            ip = Fraction(dot(w, slope), ip_den)
            if m == 0 or m == 1:
                rows.append((m, ip, None, None))
                continue
            m_real = to_mpf(m)
            log_mu = log(m_real) / log_p
            slack = p_real * to_mpf(ip) - m_real * log_mu
            rows.append((m, ip, slack, log_mu))
        profiles.append(rows)
    return profile_of, profiles


def iso_sweep(n: int, ps: list[Fraction]):
    """(profile_of, fields, violations) for every increasing family on [n],
    canonical order: profile_of[i] indexes family i's rows in `fields`
    (see `iso_table`); fields[k] holds profile k's rows, one per bias, as
    (p_num, p_den, mu, I_p, slack, log_p mu) formatted for output, with
    "vacuous" and "" when mu is 0 or 1; and the number of family rows whose
    slack is below -tau.

    Families with the same weight counts share their rows, so each
    profile's rows are formatted and decided once.  A bias outside
    0 < p < 1 is a ValueError."""
    for p in ps:
        check_p_open(p)
    profile_of, profiles = iso_table(n, _kernels.iter_monotone_masks(n), ps)
    tau = to_mpf(default_tol())
    bad = [sum(slack is not None and slack < -tau for _, _, slack, _ in values)
           for values in profiles]
    fields = [
        [(p.numerator, p.denominator, fmt_rational(m), fmt_rational(ip))
         + (("vacuous", "") if slack is None else
            (fmt_real(slack), fmt_real(log_mu)))
         for p, (m, ip, slack, log_mu) in zip(ps, values)]
        for values in profiles]
    return profile_of, fields, sum(map(bad.__getitem__, profile_of))


def russo_sweep(n: int | None, random_count: int, seed: int,
                max_n: int) -> tuple[int, list[tuple]]:
    """(checked, failing) for the exact polynomial Russo check over all
    increasing families on [n] (ids from 0) and/or `random_count` random
    increasing families on grounds up to max_n (ids from -1 down): how many
    were checked, each as it is made, and (family id, n) of each failure."""
    if random_count < 0:
        raise ValueError(f"need a random family count >= 0, got {random_count}")
    if not 1 <= max_n <= MAX_DENSE_N:
        raise ValueError(f"need 1 <= max_n <= {MAX_DENSE_N} (a random ground "
                         f"has 1 to max_n elements), got max_n={max_n}")
    failing = []
    checked = random_count
    masks = _kernels.iter_monotone_masks(n) if n is not None else ()
    for fid, bits in enumerate(masks):
        checked += 1
        if not russo_identity(SetFamily(n, bits)):
            failing.append((fid, n))
    rng = random.Random(seed)
    for i in range(random_count):
        rn = rng.randint(1, max_n)
        bits = 0
        for _ in range(rng.randint(0, 2 * rn)):
            bits |= 1 << rng.randrange(1 << rn)
        if not russo_identity(SetFamily(rn, bits).up_closure()):
            failing.append((-(i + 1), rn))
    return checked, failing
