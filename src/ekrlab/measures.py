"""Exact p-biased measures, influences, edge boundaries, and the analytic
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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _kernels
from .bitops import (coord_zero_mask, cube_mask, elements_of, iter_members,
                     popcount, subset_masks)
from .families import SetFamily, are_cross_intersecting
from .numerics import Checked, check_le, log_base, mpmath, to_mpf
from .report import VerdictReport

#: ground size above which influence counting switches to member scans
_SCAN_THRESHOLD = 22

#: largest ground size whose cube queries use 2**n-bit masks (the count
#: kernel still counts through class masks there)
_CUBE_DENSE_N = 18


class MeasurePolynomial:
    """Polynomial in p, p -> mu_p(F), as monomial coefficients: integers
    when built from a weight vector (other rationals stay `Fraction`s)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("MeasurePolynomial is immutable")

    @classmethod
    def zero(cls) -> "MeasurePolynomial":
        return cls(())

    @classmethod
    def from_weights(cls, n: int, weights) -> "MeasurePolynomial":
        """Expand sum_j w_j p**j (1-p)**(n-j) into integer monomial
        coefficients."""
        coeffs = [0] * (n + 1)
        for j, w in enumerate(weights):
            if not w:
                continue
            for m in range(j, n + 1):
                coeffs[m] += w * (-1) ** (m - j) * math.comb(n - j, m - j)
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, p):
        p = Fraction(p)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def derivative(self) -> "MeasurePolynomial":
        return MeasurePolynomial(
            (m * c for m, c in enumerate(self.coeffs) if m >= 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasurePolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "MeasurePolynomial(0)"
        terms = []
        for m, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*p^{m}" if m else f"{c}")
        return "MeasurePolynomial(" + " + ".join(terms) + ")"


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
    SetFamily with n <= _CUBE_DENSE_N that is per-size counts of
    fam.bits & cube_mask; otherwise (larger grounds, a UniformFamily) one
    pass over (member, weight) pairs, so a query costs |F| steps rather
    than 2**n bits."""
    n = fam.n
    if isinstance(fam, SetFamily) and n <= _CUBE_DENSE_N:
        def num(contains=0, misses=0):
            inside = fam.bits & cube_mask(n, contains, misses)
            return dot(_kernels.weight_counts(inside, n), pw)
    else:
        pairs = [(m, pw[popcount(m)]) for m in fam]

        def num(contains=0, misses=0):
            return sum(x for m, x in pairs
                       if m & contains == contains and not m & misses)
    return num


def cube_measure(fam: SetFamily, p, contains: int = 0, misses: int = 0
                 ) -> Fraction:
    """mu_p of the members containing every coordinate of the mask
    `contains` and none of the mask `misses`."""
    pw, den = power_table(fam.n, Fraction(p))
    return Fraction(_cube_counter(fam, pw)(contains, misses), den)


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


@dataclass(frozen=True)
class InfluenceVector:
    """Per-coordinate pivot counts plus their sum: pivots[i][j] counts the
    size-j cube points whose membership flips with coordinate i, and Inf_i
    is the measure of that integer vector."""

    n: int
    pivots: tuple[tuple[int, ...], ...]
    total_weights: tuple[int, ...]

    @cached_property
    def per_coordinate(self) -> tuple[MeasurePolynomial, ...]:
        return tuple(MeasurePolynomial.from_weights(self.n, w)
                     for w in self.pivots)

    @cached_property
    def total(self) -> MeasurePolynomial:
        return MeasurePolynomial.from_weights(self.n, self.total_weights)

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


def point_measures(n: int, p: Fraction) -> list[Fraction]:
    """mu_p of a single subset, by size: [p**j (1-p)**(n-j) for j in 0..n]."""
    pw, den = power_table(n, Fraction(p))
    return [Fraction(x, den) for x in pw]


def mu(fam: SetFamily, p) -> Fraction:
    """Exact mu_p of the family."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    pw, den = power_table(fam.n, p)
    return Fraction(dot(fam.weight_vector(), pw), den)


def mu_polynomial(fam: SetFamily) -> MeasurePolynomial:
    return MeasurePolynomial.from_weights(fam.n, fam.weight_vector())


def _counts(fam: SetFamily) -> tuple[list[int], list[list[int]]]:
    """(w, piv): per-size member counts, and piv[i][j] = number of size-j
    cube points pivotal for coordinate i."""
    n = fam.n
    if n <= _SCAN_THRESHOLD:
        return _kernels.weight_pivot_counts(fam.bits, n)
    piv = [[0] * (n + 1) for _ in range(n)]
    for m in fam:
        for i in range(n):
            if (m ^ (1 << i)) not in fam:
                lo = m & ~(1 << i)
                piv[i][popcount(lo)] += 1
                piv[i][popcount(lo) + 1] += 1
    return fam.weight_vector(), piv


def influence(fam: SetFamily, p=None) -> InfluenceVector:
    """Influences; evaluate with .at(p) / .total_at(p).

    Inf_i is the mu_p-measure of the points whose membership flips when
    coordinate i flips; the total influence is the measure of the pivot
    counts summed over coordinates.
    """
    if p is not None:
        check_p_open(Fraction(p))
    _, piv = _counts(fam)
    return InfluenceVector(fam.n, tuple(map(tuple, piv)),
                           tuple(map(sum, zip(*piv))))


def total_influence(fam: SetFamily, p) -> Fraction:
    return influence(fam).total_at(p)


@dataclass(frozen=True)
class EdgeBoundaryReport:
    count: int
    edges: tuple[tuple[int, int], ...] | None
    harper: Checked | None           # |bd A| >= |A| log2(2^n / |A|)
    is_subcube: bool
    equality: bool | None

    def __int__(self):
        return self.count


def edge_boundary(fam: SetFamily, include_edges: bool = True) -> EdgeBoundaryReport:
    """Exact edge boundary in the n-cube plus the isoperimetric check.

    Equality in the bound holds exactly for subcubes, which is cross-checked
    structurally.
    """
    n, bits = fam.n, fam.bits
    count = 0
    edges: list[tuple[int, int]] = []
    for i in range(n):
        d = 1 << i
        p0 = (bits ^ (bits >> (1 << i))) & coord_zero_mask(n, i)
        count += popcount(p0)
        if include_edges:
            edges.extend((x, x | d) for x in iter_members(p0, n))
    size = len(fam)
    subcube = fam.is_subcube()
    if size == 0:
        return EdgeBoundaryReport(count, tuple(edges) if include_edges else None,
                                  None, False, None)
    harper = check_le(lambda: size * (mpmath.log(1 << n, 2) - mpmath.log(size, 2)),
                      count)
    return EdgeBoundaryReport(count, tuple(edges) if include_edges else None,
                              harper, subcube, harper.equal)


def russo_identity(fam: SetFamily) -> bool:
    """Exact polynomial identity d(mu_p)/dp == total influence.

    Asserted only for increasing families (it can fail otherwise), so
    non-increasing input is rejected.
    """
    if not fam.is_increasing():
        raise ValueError("the derivative identity is asserted for increasing families only")
    w, piv = _counts(fam)
    return (MeasurePolynomial.from_weights(fam.n, w).derivative()
            == MeasurePolynomial.from_weights(fam.n, map(sum, zip(*piv))))


def iso_table(n: int, masks, ps, dps: int) -> list[list[tuple]]:
    """Per family (2**n-bit mask on [n]), one row per bias in ps: (mu_p,
    I_p, slack, log_p mu) with slack = p*I_p - mu*log_p(mu) in mpmath at
    `dps` digits, or both None when mu is 0 or 1.  ln p is taken once per
    bias."""
    ps = [Fraction(p) for p in ps]
    tables = [power_table(n, p) for p in ps]
    out = []
    with mpmath.workdps(dps):
        reals = [(to_mpf(p), mpmath.log(to_mpf(p))) for p in ps]
        for bits in masks:
            w, piv = _kernels.weight_pivot_counts(bits, n)
            tot = [sum(col) for col in zip(*piv)]
            rows = []
            for (pw, den), (p_real, log_p) in zip(tables, reals):
                m = Fraction(dot(w, pw), den)
                ip = Fraction(dot(tot, pw), den)
                if m == 0 or m == 1:
                    rows.append((m, ip, None, None))
                    continue
                log_mu = mpmath.log(to_mpf(m)) / log_p
                slack = p_real * to_mpf(ip) - to_mpf(m) * log_mu
                rows.append((m, ip, slack, log_mu))
            out.append(rows)
    return out


@dataclass(frozen=True)
class IsoSlackReport:
    """p*I_p - mu log_p(mu) for the skewed isoperimetric inequality.

    status: "ok", "vacuous" (mu in {0,1}), or "skipped" (outside the
    inequality's domain: non-increasing family with p > 1/2).
    """

    status: str
    p: Fraction
    mu_value: Fraction
    slack: object | None
    equal: bool | None
    is_increasing_subcube: bool
    structure_consistent: bool | None

    @property
    def holds(self) -> bool:
        return self.status != "ok" or bool(self.slack >= -_tau())


def _tau():
    from .numerics import default_tol

    return to_mpf(default_tol())


def iso_slack(fam: SetFamily, p) -> IsoSlackReport:
    """Slack in p*I_p[A] >= mu_p(A) log_p(mu_p(A)).

    Valid for increasing A at any 0<p<1 and for arbitrary A at 0<p<=1/2;
    outside that domain the check is skipped.  Equality characterizes
    increasing subcubes (for increasing A); the structural cross-check is
    reported alongside.
    """
    p = Fraction(p)
    check_p_open(p)
    increasing = fam.is_increasing()
    if not increasing and p > Fraction(1, 2):
        return IsoSlackReport("skipped", p, mu(fam, p), None, None, False, None)
    m = mu(fam, p)
    gen = fam.increasing_subcube_generator()
    is_sub = gen is not None and increasing
    if m == 0 or m == 1:
        return IsoSlackReport("vacuous", p, m, None, None, is_sub, None)
    ip = total_influence(fam, p)

    def slack_fn():
        mm = to_mpf(m)
        return to_mpf(p) * to_mpf(ip) - mm * mpmath.log(mm) / mpmath.log(to_mpf(p))

    chk = check_le(0, slack_fn)
    consistent = (chk.equal == is_sub) if increasing else None
    return IsoSlackReport("ok", p, m, chk.rhs, chk.equal, is_sub, consistent)


@dataclass(frozen=True)
class LogMeasureProfile:
    points: tuple[tuple[Fraction, object], ...]   # (p, log_p mu_p)
    non_increasing: bool
    strictly_decreasing_somewhere: bool
    is_increasing_subcube: bool


def log_measure_profile(fam: SetFamily, grid) -> LogMeasureProfile:
    """log_p(mu_p) along an ascending grid in (0,1).

    For an increasing family this sequence never increases, and is strictly
    decreasing unless the family is an increasing subcube (where it is the
    constant codimension).
    """
    grid = [Fraction(g) for g in grid]
    if any(not 0 < g < 1 for g in grid) or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing inside (0,1)")
    if not fam.is_increasing():
        raise ValueError("profile is defined for increasing families")
    if fam.bits == 0 or fam == SetFamily.full(fam.n):
        raise ValueError("degenerate family: measure is constant 0 or 1")
    pts = []
    for g in grid:
        m = mu(fam, g)
        pts.append((g, log_base(m, g)))
    tau = _tau()
    non_inc = all(b[1] <= a[1] + tau for a, b in zip(pts, pts[1:]))
    strict = any(a[1] - b[1] > tau for a, b in zip(pts, pts[1:]))
    return LogMeasureProfile(tuple(pts), non_inc, strict,
                             fam.increasing_subcube_generator() is not None)


def _as_exponent(t):
    """Normalize an exponent: exact Fraction when rational, else mpf."""
    if isinstance(t, (int, Fraction)):
        return Fraction(t)
    return to_mpf(t)


def _rational_power(base: Fraction, expo) -> object:
    """base**expo as a Fraction when the exponent is a nonnegative integer,
    otherwise a closure producing an mpf."""
    if isinstance(expo, Fraction) and expo.denominator == 1 and expo >= 0:
        return base ** int(expo)
    return lambda: mpmath.power(to_mpf(base), to_mpf(expo))


def measure_transfer_check(fam: SetFamily, p0, p, mode: str = "umvirate",
                           t=1, x=None) -> VerdictReport:
    """Monotone measure-transfer checks between two bias parameters p < p0.

    mode "umvirate":  mu_{p0} <= p0**t      implies  mu_p <= p**t
    mode "or":        mu_{p0} <= 1-(1-p0)**t implies mu_p <= 1-(1-p)**t
    mode "lex":       mu_{p0} <= p0**t (1-(1-p0)**x) implies the same at p

    Equality in the first two characterizes t-umvirates / OR-families for
    integer t, which is confirmed structurally when equality is seen.
    """
    p0, p = Fraction(p0), Fraction(p)
    if not 0 < p < p0 < 1:
        raise ValueError("need 0 < p < p0 < 1")
    if not fam.is_increasing():
        raise ValueError("measure transfer applies to increasing families")
    t = _as_exponent(t)
    rep = VerdictReport(f"measure-transfer/{mode}")
    mu0 = mu(fam, p0)
    mu1 = mu(fam, p)

    def bound(q: Fraction):
        if mode == "umvirate":
            return _rational_power(q, t)
        if mode == "or":
            pw = _rational_power(1 - q, t)
            if callable(pw):
                return lambda: 1 - pw()
            return 1 - pw
        if mode == "lex":
            if x is None:
                raise ValueError("lex mode needs the exponent x")
            pt = _rational_power(q, t)
            px = _rational_power(1 - q, _as_exponent(x))
            if callable(pt) or callable(px):
                def rhs():
                    a = pt() if callable(pt) else to_mpf(pt)
                    b = px() if callable(px) else to_mpf(px)
                    return a * (1 - b)
                return rhs
            return pt * (1 - px)
        raise ValueError(f"unknown transfer mode {mode!r}")

    hyp = check_le(mu0, bound(p0))
    rep.add_hypothesis(f"mu_p0 <= bound(p0) [t={t}]", hyp)
    if not hyp.holds:
        rep.notes.append("hypothesis not met; nothing is implied at p")
        return rep
    concl = check_le(mu1, bound(p))
    rep.add_hypothesis("conclusion: mu_p <= bound(p)", concl)
    rep.conclusion_holds = concl.holds
    rep.add_slack("conclusion_slack", concl.slack)
    if concl.equal:
        if mode == "umvirate":
            gen = fam.increasing_subcube_generator()
            ok = gen is not None and (not isinstance(t, Fraction) or popcount(gen) == t)
            rep.witness = {"umvirate": list(elements_of(gen))} if gen is not None else None
            rep.notes.append("equality: family is a t-umvirate" if ok
                             else "equality without t-umvirate structure (check!)")
        elif mode == "or":
            gen = fam.dual().increasing_subcube_generator()
            ok = gen is not None and (not isinstance(t, Fraction) or popcount(gen) == t)
            rep.witness = {"or_set": list(elements_of(gen))} if gen is not None else None
            rep.notes.append("equality: family is an OR-family" if ok
                             else "equality without OR structure (check!)")
    return rep


def cross_measure_bound(f: SetFamily, g: SetFamily, p) -> VerdictReport:
    """mu_p(G) <= (1 - mu_p(F)) ** log_{1-p}(p) for increasing
    cross-intersecting families at 0 < p <= 1/2."""
    p = Fraction(p)
    if not 0 < p <= Fraction(1, 2):
        raise ValueError("need 0 < p <= 1/2")
    if not (f.is_increasing() and g.is_increasing()):
        raise ValueError("both families must be increasing")
    if not are_cross_intersecting(f, g):
        raise ValueError("families are not cross-intersecting")
    rep = VerdictReport("cross-measure-bound")
    muf, mug = mu(f, p), mu(g, p)
    if muf == 1:
        rep.add_flag("rhs defined", "vacuous", note="mu_p(F) = 1 forces G empty")
        rep.conclusion_holds = mug == 0
        return rep

    def rhs():
        return mpmath.power(to_mpf(1 - muf), log_base(p, 1 - p))

    chk = check_le(mug, rhs)
    rep.add_hypothesis("mu_p(G) <= (1-mu_p(F))^log_{1-p}(p)", chk)
    rep.conclusion_holds = chk.holds
    rep.add_slack("slack", chk.slack)
    return rep


def subcube_distance(fam: SetFamily, p, t_max: int | None = None
                     ) -> tuple[int, Fraction]:
    """The increasing subcube S_B minimizing mu_p(F symmetric-difference S_B).

    Exhaustive over all 2**n choices of B when t_max is None (ground sizes
    up to 20); otherwise restricted to |B| <= t_max.  Ties break to the
    lexicographically least B.  Purely diagnostic: no pass/fail judgement.
    """
    p = Fraction(p)
    check_p_open(p)
    n = fam.n
    if t_max is None and n > 20:
        raise ValueError("exhaustive subcube scan capped at n=20; pass t_max")
    pw, den = power_table(n, p)
    a, b = p.numerator, p.denominator
    num = _cube_counter(fam, pw)
    mu_f_num = num()

    if t_max is None:
        candidates = range(1 << n)
        # superset-sum transform of the member weights, integer arithmetic
        v = [0] * (1 << n)
        for m in fam:
            v[m] = pw[popcount(m)]
        for i in range(n):
            d = 1 << i
            for x in range(1 << n):
                if not x & d:
                    v[x] += v[x | d]
        inter = v.__getitem__
    else:
        candidates = (mask for size in range(min(t_max, n) + 1)
                      for _, mask in subset_masks(n, size))

        def inter(mask):
            return num(contains=mask)

    best = None
    best_mask = 0
    for mask in candidates:
        size = popcount(mask)
        dist_num = mu_f_num + a ** size * b ** (n - size) - 2 * inter(mask)
        key = (dist_num, elements_of(mask))
        if best is None or key < best:
            best = key
            best_mask = mask
    return best_mask, Fraction(best[0], den)
