"""Hypothesis/condition/conclusion checkers for the stability theorems, the
bootstrap inequalities, tightness reports for the extremal families, and
counterexample scanners for the conjectured sharp forms.

Every check evaluates exact rational left-hand sides against (possibly
irrational) right-hand sides through the tolerance layer.  Theorems whose
statements involve nonconstructive constants evaluate those hypotheses only
when the caller supplies constants; otherwise the flag reads "unresolved"
and the epsilon-condition / conclusion pair is still reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .bitops import (elements_of, iter_bit_indices, mask_of, minimal_bits,
                     popcount, subset_masks)
from .families import (EdgeGround, SetFamily, UniformFamily,
                       is_t_intersecting, is_triangle_intersecting,
                       matching_number)
from .measures import cube_measure, dot, mu, nearest_cube, power_table
from .numerics import (check_eq, check_le, default_dps, load_real_layer,
                       log_base, mpmath, parse_rational, to_mpf)
from .report import HOLDS, UNRESOLVED, VerdictReport, fmt
from .search import (_index_families, enumerate_monotone_masks,
                     iter_uniform_families)
from .zoo import (FamilySpec, closed_form_mu, comb0, construct,
                  defining_root)

THEOREM_IDS = (
    "MainBiased", "Biased1", "TIntersectingBiased", "DualBiased",
    "MatchingBiased", "WilsonUniform", "TriangleBiased", "TriangleUniform",
    "MatchingUniform", "FranklG_i",
)


@dataclass(frozen=True)
class DerivedConstants:
    """The transfer exponents and prefactors shared by the biased theorems."""

    p0: Fraction | None
    p: Fraction
    t: int = 1

    @property
    def c_tilde(self):
        """((1-p0)/p0) ** log_{1-p0}(1-p)"""
        q0 = Fraction(1 - self.p0)
        return mpmath.power(to_mpf(q0 / self.p0), log_base(1 - self.p, q0))

    @property
    def u(self):
        """log_p(p0) * log_{1-p0}(1-p); lies in (0,1) for 0<p<p0<1."""
        return log_base(self.p0, self.p) * log_base(1 - self.p, 1 - self.p0)

    @property
    def v(self):
        """log_p(1-p)"""
        return log_base(1 - self.p, self.p)

    def region_scale(self):
        """p * u**(1/(1-u)), the scale of the bootstrap contraction region"""
        return to_mpf(self.p) * mpmath.power(self.u, 1 / (1 - self.u))

    @property
    def c_prime(self):
        """(2**t - 1) ** (-log_p(1-p))"""
        return mpmath.power(2**self.t - 1, -self.v)


@dataclass(frozen=True)
class TheoremCase:
    """A theorem id plus its parameters (p0, p, t/s, eps, d, i, delta...).

    Optional user-supplied constants (keys "C", "c", "delta0", "delta") make
    the nonconstructive hypotheses checkable; they are never guessed.
    """

    theorem_id: str
    params: dict

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem {self.theorem_id!r}")

    def get(self, key, default=None):
        return self.params.get(key, default)

    def need(self, key):
        """A required parameter; a ValueError naming it when it is missing."""
        if key not in self.params:
            raise ValueError(f"{self.theorem_id} needs parameter {key!r}")
        return self.params[key]

    def frac(self, key) -> Fraction:
        return Fraction(self.need(key))


# -- nearest extremal structures ----------------------------------------------


def _triangles(eg: EdgeGround):
    """(vertices, edge mask) for every triangle on [v], lexicographically."""
    return zip(itertools.combinations(range(1, eg.v + 1), 3), eg.triangle_masks())


def nearest_umvirate(fam: SetFamily, t: int, p) -> tuple[int, Fraction]:
    """The t-set B minimizing mu_p(F - S_B); ties to lexicographically
    least B.  Exhaustive over all C(n,t) choices."""
    _, bm, residual = nearest_cube(fam, subset_masks(fam.n, t), p)
    return bm, residual


def nearest_or(fam: SetFamily, s: int, p) -> tuple[int, Fraction]:
    """The s-set B minimizing mu_p(F - OR_B) (members disjoint from B)."""
    _, bm, residual = nearest_cube(fam, subset_masks(fam.n, s), p, misses=True)
    return bm, residual


def nearest_umvirate_uniform(fam: UniformFamily, t: int) -> tuple[int, int]:
    _, bm, outside = nearest_cube(fam, subset_masks(fam.n, t))
    return bm, outside


def nearest_or_uniform(fam: UniformFamily, s: int) -> tuple[int, int]:
    _, bm, outside = nearest_cube(fam, subset_masks(fam.n, s), misses=True)
    return bm, outside


def nearest_triangle(fam: SetFamily, p) -> tuple[tuple[int, int, int], Fraction]:
    """The triangle T minimizing mu_p(F - S_T) over an edge ground."""
    if fam.edges is None:
        raise ValueError("family has no edge ground")
    tri, _, residual = nearest_cube(fam, _triangles(fam.edges), p)
    return tri, residual


def nearest_triangle_uniform(fam: UniformFamily, eg: EdgeGround
                             ) -> tuple[tuple[int, int, int], int]:
    tri, _, outside = nearest_cube(fam, _triangles(eg))
    return tri, outside


# -- theorem checks -------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _constants_flag(rep: VerdictReport, case: TheoremCase, mu_p: Fraction,
                    rhs_fn, description: str) -> bool:
    """Constant-gated hypothesis: evaluated only with user constants.

    Returns True when user constants were supplied and their hypothesis
    holds (so the theorem applies in full strength).
    """
    if case.get("C") is None or case.get("c") is None:
        rep.add_flag(description, UNRESOLVED,
                     note="unresolved (constant unknown); supply C and c to check")
        return False
    big_c = to_mpf(Fraction(case.get("C")))
    small_c = to_mpf(Fraction(case.get("c")))
    chk = check_le(lambda: rhs_fn(big_c, small_c), mu_p)
    rep.add_hypothesis(description, chk)
    return chk.holds


def _bootstrap_region_flag(rep: VerdictReport, residual: Fraction,
                           p: Fraction, t: int, region_scale,
                           constants_ok: bool) -> bool:
    """The constructive contraction region of the bootstrap step.

    When the nearest-structure residual satisfies
    residual <= (1-p) p^{t-1} * region_scale, the epsilon-condition provably
    implies the conclusion even without the nonconstructive constants.  The
    flag joins the hypotheses only when constants are unresolved (with
    constants supplied and valid the theorem already applies).
    """
    delta = residual / ((1 - p) * p ** (t - 1))
    chk = check_le(delta, region_scale)
    if constants_ok:
        rep.notes.append("bootstrap region "
                         + ("holds" if chk.holds else "not established")
                         + " (informational; user constants decide)")
        return True
    # never a blocking hypothesis: outside the region the constructive route
    # simply does not apply, which is weaker than a failed hypothesis
    rep.add_flag("residual within the bootstrap contraction region",
                 HOLDS if chk.holds else UNRESOLVED,
                 lhs=fmt(chk.lhs), rhs=fmt(chk.rhs),
                 note="" if chk.holds else
                 "outside the constructive region; the conclusion then rests "
                 "on the nonconstructive constants")
    return chk.holds


def _conclusion(rep: VerdictReport, residual: Fraction, bound,
                witness: dict, proved: bool = True) -> None:
    """Set the verdict.  With `proved` False (nonconstructive hypothesis
    unresolved and no constructive region), a numeric failure asserts
    nothing, so the verdict stays None with an explanatory note."""
    chk = check_le(residual, bound)
    rep.witness = witness
    rep.add_slack("conclusion_residual", residual)
    rep.add_slack("conclusion_bound", chk.rhs)
    rep.add_slack("conclusion_slack", chk.slack)
    if not rep.hypotheses_met:
        return
    if chk.holds:
        rep.conclusion_holds = True
    elif proved:
        rep.conclusion_holds = False
    else:
        rep.notes.append("conclusion inequality fails numerically, but a "
                         "nonconstructive hypothesis is unresolved; the "
                         "theorem asserts nothing for this family")


def check_theorem(case: TheoremCase, fam) -> VerdictReport:
    """Evaluate one stability theorem against a concrete family.

    Family-type mismatches raise; failed (resolved) hypotheses produce a
    report with conclusion_holds = None; the witness and both sides of every
    inequality are always reported.
    """
    handler = _HANDLERS[case.theorem_id]
    return handler(case, fam)


def _check_main_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p0, p, t, eps = case.frac("p0"), case.frac("p"), case.need("t"), case.frac("eps")
    _require(0 < p < p0 < 1, "need 0 < p < p0 < 1")
    _require(t >= 1 and eps > 0, "need t >= 1 and eps > 0")
    _require(fam.is_increasing(), "family must be increasing")
    rep = VerdictReport("MainBiased")
    mu0, mu_p = mu(fam, p0), mu(fam, p)
    dc = DerivedConstants(p0, p, t)
    rep.add_hypothesis("mu_{p0}(F) <= p0^t", check_le(mu0, p0**t))
    constants_ok = _constants_flag(
        rep, case, mu_p,
        lambda C, c: min(C * to_mpf(p) ** (t + 1),
                         to_mpf(p) ** t * (1 - c * to_mpf(p0 - p))),
        "mu_p(F) >= min{C p^{t+1}, p^t(1 - c(p0-p))}")

    def condition_rhs():
        return (to_mpf(p) ** t * (1 - dc.c_tilde * mpmath.power(to_mpf(eps), dc.u))
                + to_mpf((1 - p) * p ** (t - 1) * eps))

    rep.add_hypothesis("mu_p(F) >= p^t(1 - ctilde eps^u) + (1-p)p^{t-1} eps",
                       check_le(condition_rhs, mu_p))
    bmask, residual = nearest_umvirate(fam, t, p)
    region = _bootstrap_region_flag(rep, residual, p, t, dc.region_scale,
                                    constants_ok)
    _conclusion(rep, residual, (1 - p) * p ** (t - 1) * eps,
                {"umvirate": list(elements_of(bmask))},
                proved=constants_ok or region)
    return rep


def _check_biased1(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p, eps = case.frac("p"), case.frac("eps")
    _require(0 < p < Fraction(1, 2), "need 0 < p < 1/2")
    _require(eps > 0, "need eps > 0")
    _require(fam.is_increasing(), "family must be increasing")
    rep = VerdictReport("Biased1")
    mu_half, mu_p = mu(fam, Fraction(1, 2)), mu(fam, p)
    rep.add_hypothesis("mu_{1/2}(F) <= 1/2", check_le(mu_half, Fraction(1, 2)))
    constants_ok = _constants_flag(
        rep, case, mu_p,
        lambda C, c: min(C * to_mpf(p) ** 2,
                         to_mpf(p) * (1 - c * to_mpf(Fraction(1, 2) - p))),
        "mu_p(F) >= min{C p^2, p(1 - c(1/2 - p))}")

    def condition_rhs():
        return (to_mpf(p) * (1 - mpmath.power(to_mpf(eps), log_base(1 - p, p)))
                + to_mpf((1 - p) * eps))

    rep.add_hypothesis("mu_p(F) >= p(1 - eps^{log_p(1-p)}) + (1-p) eps",
                       check_le(condition_rhs, mu_p))
    bmask, residual = nearest_umvirate(fam, 1, p)
    dc = DerivedConstants(Fraction(1, 2), p, 1)
    region = _bootstrap_region_flag(rep, residual, p, 1, dc.region_scale,
                                    constants_ok)
    _conclusion(rep, residual, (1 - p) * eps,
                {"dictatorship": list(elements_of(bmask))},
                proved=constants_ok or region)
    return rep


def _check_t_intersecting_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    t, p, eps = case.need("t"), case.frac("p"), case.frac("eps")
    _require(t >= 1 and eps > 0, "need t >= 1 and eps > 0")
    _require(0 < p < Fraction(1, t + 1), "need 0 < p < 1/(t+1)")
    _require(is_t_intersecting(fam, t), f"family must be {t}-intersecting")
    rep = VerdictReport("TIntersectingBiased")
    mu_p = mu(fam, p)
    constants_ok = _constants_flag(
        rep, case, mu_p,
        lambda C, c: min(C * to_mpf(p) ** (t + 1),
                         to_mpf(p) ** t
                         * (1 - c * to_mpf(Fraction(1, t + 1) - p))),
        "mu_p(F) >= min{C p^{t+1}, p^t(1 - c(1/(t+1) - p))}")
    factor = case.get("factor", 2**t - 1)  # conjectured sharp form uses t

    def condition_rhs():
        pw = mpmath.power(to_mpf(eps) / factor, log_base(1 - p, p))
        return to_mpf(p) ** t * (1 - pw) + to_mpf((1 - p) * p ** (t - 1) * eps)

    rep.add_hypothesis(
        f"mu_p(F) >= p^t(1 - (eps/{factor})^{{log_p(1-p)}}) + (1-p)p^{{t-1}} eps",
        check_le(condition_rhs, mu_p))
    bmask, residual = nearest_umvirate(fam, t, p)
    proved = constants_ok
    if factor == 2**t - 1:
        dc = DerivedConstants(None, p, t)

        def region_scale():
            cv = dc.c_prime * dc.v
            return to_mpf(p) * mpmath.power(cv, 1 / (1 - dc.v))

        proved = proved or _bootstrap_region_flag(rep, residual, p, t,
                                                  region_scale, constants_ok)
    _conclusion(rep, residual, (1 - p) * p ** (t - 1) * eps,
                {"umvirate": list(elements_of(bmask))}, proved=proved)
    return rep


def _check_dual_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p0, p, s, eps = case.frac("p0"), case.frac("p"), case.need("s"), case.frac("eps")
    _require(0 < p < p0 < 1, "need 0 < p < p0 < 1")
    _require(s >= 1 and eps > 0, "need s >= 1 and eps > 0")
    _require(fam.is_increasing(), "family must be increasing")
    rep = VerdictReport("DualBiased")
    mu0, mu_p = mu(fam, p0), mu(fam, p)
    dc = DerivedConstants(p0, p)
    rep.add_hypothesis("mu_{p0}(F) <= 1 - (1-p0)^s",
                       check_le(mu0, 1 - (1 - p0) ** s))
    constants_ok = _constants_flag(
        rep, case, mu_p,
        lambda C, c: min((s - 1) * to_mpf(p) + C * to_mpf(p) ** 2,
                         (1 - c * to_mpf(p0 - p))
                         * to_mpf(1 - (1 - p) ** s)),
        "mu_p(F) >= min{(s-1)p + C p^2, (1 - c(p0-p))(1-(1-p)^s)}")

    def condition_rhs():
        inner = (to_mpf(p) * (1 - dc.c_tilde * mpmath.power(to_mpf(eps), dc.u))
                 + to_mpf((1 - p) * eps))
        return to_mpf(1 - (1 - p) ** (s - 1)) + to_mpf((1 - p) ** (s - 1)) * inner

    rep.add_hypothesis(
        "mu_p(F) >= 1-(1-p)^{s-1} + (1-p)^{s-1}(p(1 - ctilde eps^u) + (1-p) eps)",
        check_le(condition_rhs, mu_p))
    bmask, residual = nearest_or(fam, s, p)
    _conclusion(rep, residual, (1 - p) ** s * eps,
                {"or_set": list(elements_of(bmask))}, proved=constants_ok)
    return rep


def _check_matching_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    s, p, eps = case.need("s"), case.frac("p"), case.frac("eps")
    _require(s >= 1 and eps > 0, "need s >= 1 and eps > 0")
    _require(0 < p < Fraction(1, 2 * s + 1), "need 0 < p < 1/(2s+1)")
    m_f = matching_number(fam)
    _require(m_f <= s, f"family must have matching number <= {s}, got {m_f}")
    rep = VerdictReport("MatchingBiased")
    mu_p = mu(fam, p)
    constants_ok = _constants_flag(
        rep, case, mu_p,
        lambda C, c: min((s - 1) * to_mpf(p) + C * to_mpf(p) ** 2,
                         (1 - c * to_mpf(Fraction(1, 2 * s + 1) - p))
                         * to_mpf(1 - (1 - p) ** s)),
        "mu_p(F) >= min{(s-1)p + C p^2, (1 - c(1/(2s+1)-p))(1-(1-p)^s)}")
    base = Fraction(2 * s, 2 * s + 1)

    def condition_rhs():
        c_tilde = mpmath.power(2 * s, log_base(1 - p, base))
        expo = log_base(Fraction(1, 2 * s + 1), p) * log_base(1 - p, base)
        return (to_mpf(1 - (1 - p) ** s)
                - to_mpf((1 - p) ** (s - 1) * p) * c_tilde
                * mpmath.power(to_mpf(eps), expo)
                + to_mpf((1 - p) ** s * eps))

    rep.add_hypothesis(
        "mu_p(F) >= 1-(1-p)^s - (1-p)^{s-1} p ctilde eps^{log_p(1/(2s+1)) log_{2s/(2s+1)}(1-p)} + (1-p)^s eps",
        check_le(condition_rhs, mu_p))
    bmask, residual = nearest_or(fam, s, p)
    _conclusion(rep, residual, (1 - p) ** s * eps,
                {"or_set": list(elements_of(bmask))}, proved=constants_ok)
    return rep


def _check_wilson_uniform(case: TheoremCase, fam: UniformFamily) -> VerdictReport:
    t, d = case.need("t"), case.need("d")
    _require(t >= 1 and d >= 1, "need t >= 1 and d >= 1")
    _require(isinstance(fam, UniformFamily), "need a k-uniform family")
    _require(is_t_intersecting(fam, t), f"family must be {t}-intersecting")
    n, k = fam.n, fam.k
    rep = VerdictReport("WilsonUniform")
    rep.add_flag("k/n below 1/(t+1)", "holds" if k * (t + 1) < n else "fails",
                 lhs=f"{k}/{n}", rhs=f"1/{t + 1}",
                 note="the theorem needs k/n <= 1/(t+1) - eta")
    size = len(fam)
    if case.get("delta0") is not None:
        delta0 = Fraction(case.get("delta0"))
        thr = (1 - delta0) * comb0(n - t, k - t)
        rep.add_flag("|A| > (1-delta0) C(n-t,k-t)",
                     "holds" if size > thr else "fails", lhs=str(size),
                     rhs=fmt(thr))
    else:
        rep.add_flag("|A| > (1-delta0) C(n-t,k-t)", UNRESOLVED,
                     note="unresolved (delta0 unknown); supply delta0 to check")
    d_threshold = (comb0(n - t, k - t) - comb0(n - t - d, k - t)
                   + (2**t - 1) * comb0(n - t - d, k - t - d + 1))
    rep.add_flag("|A| > C(n-t,k-t) - C(n-t-d,k-t) + (2^t-1)C(n-t-d,k-t-d+1)",
                 "holds" if size > d_threshold else "fails",
                 lhs=str(size), rhs=str(d_threshold))
    bmask, outside = nearest_umvirate_uniform(fam, t)
    _conclusion(rep, Fraction(outside),
                Fraction((2**t - 1) * comb0(n - t - d, k - t - d + 1)),
                {"umvirate": list(elements_of(bmask))},
                proved=case.get("delta0") is not None)
    return rep


def _check_triangle_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p, eps = case.frac("p"), case.frac("eps")
    _require(0 < p < Fraction(1, 2), "need 0 < p < 1/2")
    _require(eps > 0, "need eps > 0")
    _require(fam.edges is not None, "family must live on an edge ground")
    _require(is_triangle_intersecting(fam), "family must be triangle-intersecting")
    rep = VerdictReport("TriangleBiased")
    mu_p = mu(fam, p)
    constants_ok = _constants_flag(
        rep, case, mu_p,
        lambda C, c: min(C * to_mpf(p) ** 4,
                         to_mpf(p) ** 3
                         * (1 - c * to_mpf(Fraction(1, 2) - p))),
        "mu_p(F) >= min{C p^4, p^3(1 - c(1/2 - p))}")

    def condition_rhs():
        pw = mpmath.power(to_mpf(eps), log_base(1 - p, p))
        return to_mpf(p) ** 3 * (1 - pw) + to_mpf(p**2 * (1 - p) * eps)

    rep.add_hypothesis("mu_p(F) >= p^3(1 - eps^{log_p(1-p)}) + p^2(1-p) eps",
                       check_le(condition_rhs, mu_p))
    tri, residual = nearest_triangle(fam, p)
    dc = DerivedConstants(Fraction(1, 2), p, 3)
    region = _bootstrap_region_flag(rep, residual, p, 3, dc.region_scale,
                                    constants_ok)
    _conclusion(rep, residual, (1 - p) * p**2 * eps, {"triangle": list(tri)},
                proved=constants_ok or region)
    return rep


def _check_triangle_uniform(case: TheoremCase, fam: UniformFamily) -> VerdictReport:
    d, v = case.need("d"), case.need("v")
    eg = EdgeGround(v)
    _require(fam.n == eg.n, "family ground must be the edge set of [v]")
    tris = eg.triangle_masks()
    members = sorted(fam.members)
    for i, g in enumerate(members):
        for h in members[i:]:
            gh = g & h
            _require(any(tri & ~gh == 0 for tri in tris),
                     "family must be triangle-intersecting")
    big_m, k = eg.n, fam.k
    rep = VerdictReport("TriangleUniform")
    size = len(fam)
    if case.get("delta0") is not None:
        delta0 = Fraction(case.get("delta0"))
        thr = (1 - delta0) * comb0(big_m - 3, k - 3)
        rep.add_flag("|A| > (1-delta0) C(M-3,k-3)",
                     "holds" if size > thr else "fails",
                     lhs=str(size), rhs=fmt(thr))
    else:
        rep.add_flag("|A| > (1-delta0) C(M-3,k-3)", UNRESOLVED,
                     note="unresolved (delta0 unknown)")
    d_threshold = (comb0(big_m - 3, k - 3) - comb0(big_m - d - 3, k - 3)
                   + 7 * comb0(big_m - d - 3, k - d - 2))
    rep.add_flag("|A| > C(M-3,k-3) - C(M-d-3,k-3) + 7 C(M-d-3,k-d-2)",
                 "holds" if size > d_threshold else "fails",
                 lhs=str(size), rhs=str(d_threshold))
    tri, outside = nearest_triangle_uniform(fam, eg)
    _conclusion(rep, Fraction(outside),
                Fraction(7 * comb0(big_m - d - 3, k - d - 2)),
                {"triangle": list(tri)},
                proved=case.get("delta0") is not None)
    return rep


def _check_matching_uniform(case: TheoremCase, fam: UniformFamily) -> VerdictReport:
    s, eps = case.need("s"), case.frac("eps")
    _require(s >= 1 and eps > 0, "need s >= 1 and eps > 0")
    m_f = matching_number(fam)
    _require(m_f <= s, f"family must have matching number <= {s}, got {m_f}")
    n, k = fam.n, fam.k
    rep = VerdictReport("MatchingUniform")
    rep.add_flag("k/n below 1/(2s+1)", "holds" if k * (2 * s + 1) < n else "fails",
                 lhs=f"{k}/{n}", rhs=f"1/{2 * s + 1}",
                 note="the theorem needs k/n <= 1/(2s+1) - eta")
    size = len(fam)
    if case.get("delta") is not None:
        delta = Fraction(case.get("delta"))
        thr = (comb0(n, k) - comb0(n - s, k)
               - delta * comb0(n - s, k - 1))
        rep.add_flag("|A| >= C(n,k) - C(n-s,k) - delta C(n-s,k-1)",
                     "holds" if size >= thr else "fails",
                     lhs=str(size), rhs=fmt(thr))
    else:
        rep.add_flag("|A| >= C(n,k) - C(n-s,k) - delta C(n-s,k-1)", UNRESOLVED,
                     note="unresolved (delta unknown); supply delta to check")
    bmask, outside = nearest_or_uniform(fam, s)
    _conclusion(rep, Fraction(outside), eps * comb0(n - s, k),
                {"or_set": list(elements_of(bmask))},
                proved=case.get("delta") is not None)
    if case.get("c") is not None and case.get("delta") is not None:
        p1 = Fraction(k, n)
        eps_remark = mpmath.power(to_mpf(Fraction(case.get("c"))
                                         * Fraction(case.get("delta"))),
                                  log_base(p1, 1 - s * p1))
        rep.add_slack("remark_epsilon(c delta)^{log_{1-s p1} p1}", eps_remark)
        rep.notes.append("remark epsilon(delta) relation reported, not asserted")
    return rep


def _check_frankl_gi(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p, i = case.frac("p"), case.need("i")
    _require(0 < p < Fraction(1, 2), "need 0 < p < 1/2")
    _require(3 <= i <= fam.n, "need 3 <= i <= n")
    _require(is_t_intersecting(fam, 1), "family must be intersecting")
    rep = VerdictReport("FranklG_i")
    mu_p = mu(fam, p)
    gi_mu = closed_form_mu(FamilySpec("tilde_Gi", {"n": fam.n, "i": i}), p)
    strict = mu_p > gi_mu
    rep.add_flag("mu_p(F) > mu_p(tilde_G_i)", "holds" if strict else "fails",
                 lhs=fmt(mu_p), rhs=fmt(gi_mu))
    bmask, residual = nearest_umvirate(fam, 1, p)
    bound = (1 - p) * p ** (i - 1)
    rep.witness = {"dictatorship": list(elements_of(bmask))}
    rep.add_slack("conclusion_residual", residual)
    rep.add_slack("conclusion_bound", bound)
    if rep.hypotheses_met:
        rep.conclusion_holds = residual < bound  # strict, exact rationals
    return rep


_HANDLERS = {
    "MainBiased": _check_main_biased,
    "Biased1": _check_biased1,
    "TIntersectingBiased": _check_t_intersecting_biased,
    "DualBiased": _check_dual_biased,
    "MatchingBiased": _check_matching_biased,
    "WilsonUniform": _check_wilson_uniform,
    "TriangleBiased": _check_triangle_biased,
    "TriangleUniform": _check_triangle_uniform,
    "MatchingUniform": _check_matching_uniform,
    "FranklG_i": _check_frankl_gi,
}


# -- bootstrap diagnostics ------------------------------------------------------


def bootstrap_diagnostics(fam: SetFamily, p0, p, t: int,
                          variant: str = "general") -> VerdictReport:
    """The two bootstrap inequalities, with delta extracted from the family.

    delta is defined by mu_p(F - S_[t]) = (1-p) p^{t-1} delta.  The general
    variant checks (a) the measure of the part outside S_[t] transfers up to
    p0 with exponent log_p(p0), and (b) given mu_{p0}(F) <= p0^t, the part
    inside S_[t] at p is capped by p^t (1 - ctilde delta^u).  The
    "intersecting" variant (t-intersecting F, p <= 1/2) checks the sharper
    cap p^t (1 - (delta/(2^t-1))^{log_p(1-p)}) instead.
    """
    p = Fraction(p)
    _require(fam.is_increasing(), "family must be increasing")
    _require(t >= 1, "t must be >= 1")
    outside_p = _canonical_residual(fam, t, p)
    inside_p = mu(fam, p) - outside_p
    delta = outside_p / ((1 - p) * p ** (t - 1))
    rep = VerdictReport(f"bootstrap/{variant}")
    rep.add_slack("delta", delta)

    if variant == "general":
        p0 = Fraction(p0)
        _require(0 < p < p0 < 1, "need 0 < p < p0 < 1")
        dc = DerivedConstants(p0, p, t)
        outside_p0 = _canonical_residual(fam, t, p0)

        def rhs_a():
            return (to_mpf((1 - p0) * p0 ** (t - 1))
                    * mpmath.power(to_mpf(delta), log_base(p0, p)))

        rep.add_hypothesis("(a) mu_{p0}(F - S_[t]) >= (1-p0)p0^{t-1} delta^{log_p p0}",
                           check_le(rhs_a, outside_p0))
        cap_ok = check_le(mu(fam, p0), p0**t)
        rep.add_hypothesis("(b-pre) mu_{p0}(F) <= p0^t", cap_ok)
        if cap_ok.holds:
            def rhs_b():
                return to_mpf(p) ** t * (1 - dc.c_tilde
                                         * mpmath.power(to_mpf(delta), dc.u))

            rep.add_hypothesis("(b) mu_p(F cap S_[t]) <= p^t(1 - ctilde delta^u)",
                               check_le(inside_p, rhs_b))
        rep.conclusion_holds = rep.hypotheses_met
        return rep

    if variant == "intersecting":
        _require(0 < p <= Fraction(1, 2), "need 0 < p <= 1/2")
        _require(is_t_intersecting(fam, t), f"family must be {t}-intersecting")

        def rhs_int():
            pw = mpmath.power(to_mpf(delta) / (2**t - 1), log_base(1 - p, p))
            return to_mpf(p) ** t * (1 - pw)

        rep.add_hypothesis(
            "mu_p(F cap S_[t]) <= p^t(1 - (delta/(2^t-1))^{log_p(1-p)})",
            check_le(inside_p, rhs_int))
        rep.conclusion_holds = rep.hypotheses_met
        return rep

    raise ValueError(f"unknown variant {variant!r}")


# -- tightness reports ----------------------------------------------------------


def tightness_report(spec: FamilySpec, p) -> VerdictReport:
    """Recompute both sides of the relevant condition/conclusion pair at the
    family's prescribed epsilon (and defining root p0 where one exists) and
    report the equality residuals."""
    p = Fraction(p)
    fam = construct(spec)
    name = spec.name
    pr = dict(spec.params)
    rep = VerdictReport(f"tightness/{name}")
    mu_p = mu(fam, p)
    cf = closed_form_mu(spec, p)
    rep.add_flag("mu matches closed form", "holds" if mu_p == cf else "fails",
                 lhs=mu_p, rhs=cf)

    def equality(name_: str, lhs, rhs) -> bool:
        chk = check_eq(lhs, rhs)
        rep.add_flag(name_, "holds" if chk.equal else "fails",
                     lhs=chk.lhs, rhs=chk.rhs)
        rep.add_slack(name_ + "_residual", chk.slack)
        return chk.equal

    if name == "tilde_Gi":
        i = pr["i"]
        eps = p ** (i - 1)
        # eps^{log_p(1-p)} collapses to the rational (1-p)^(i-1) here
        condition_rhs = p * (1 - (1 - p) ** (i - 1)) + (1 - p) * eps
        cond = equality("condition equality at eps = p^(i-1)", condition_rhs, mu_p)
        residual = _canonical_residual(fam, 1, p)
        concl = residual == (1 - p) * eps
        rep.add_flag("conclusion equality at the dictatorship on 1: "
                     "residual == (1-p) eps",
                     "holds" if concl else "fails",
                     lhs=residual, rhs=(1 - p) * eps)
        rep.add_slack("nearest_umvirate_residual", nearest_umvirate(fam, 1, p)[1])
        rep.conclusion_holds = cond and concl and rep.hypotheses_met
        return rep

    if name == "tilde_F_ts":
        t = pr["t"]
        eps = t * p ** pr["s"]
        # (eps/t)^{log_p(1-p)} collapses to the rational (1-p)^s here
        condition_rhs = (p ** t * (1 - (1 - p) ** pr["s"])
                         + (1 - p) * p ** (t - 1) * eps)
        cond = equality("condition equality (t-replaced constant) at eps = t p^s",
                        condition_rhs, mu_p)
        residual = _canonical_residual(fam, t, p)
        bound = (1 - p) * p ** (t - 1) * eps
        concl = residual == bound
        rep.add_flag("conclusion equality at S_[t]: residual == (1-p)p^(t-1) eps",
                     "holds" if concl else "fails", lhs=residual, rhs=bound)
        nearest = nearest_umvirate(fam, t, p)[1]
        rep.add_slack("nearest_umvirate_residual", nearest)
        if nearest < residual:
            rep.notes.append("a different umvirate is strictly closer than "
                             "S_[t] (degenerate small-s case)")
        rep.conclusion_holds = cond and concl and rep.hypotheses_met
        return rep

    if name == "tilde_H_tsr":
        t = pr["t"]
        root = defining_root(spec)
        p0 = root.value
        eps = p ** pr["s"]
        _require(to_mpf(p) < to_mpf(p0), "tightness needs p < p0")
        if root.exact:
            equality("mu_{p0}(F) == p0^t", mu(fam, p0), p0**t)
        else:
            equality("mu_{p0}(F) == p0^t",
                     lambda: mu_at_real(fam, p0),
                     lambda: mpmath.power(to_mpf(p0), t))

        if root.exact:
            # p0 = 1/2 (r = s): ctilde = 1 and eps^u = (1-p)^r, all rational
            condition_rhs = (p ** t * (1 - (1 - p) ** pr["r"])
                             + (1 - p) * p ** (t - 1) * eps)
        else:
            def condition_rhs():
                q0 = 1 - to_mpf(p0)
                ct = mpmath.power(q0 / to_mpf(p0),
                                  mpmath.log(1 - to_mpf(p)) / mpmath.log(q0))
                u = (mpmath.log(to_mpf(p0)) / mpmath.log(to_mpf(p))
                     * mpmath.log(1 - to_mpf(p)) / mpmath.log(q0))
                return (to_mpf(p) ** t * (1 - ct * mpmath.power(to_mpf(eps), u))
                        + to_mpf((1 - p) * p ** (t - 1) * eps))

        cond = equality("condition equality at eps = p^s", condition_rhs, mu_p)
        residual = _canonical_residual(fam, t, p)
        bound = (1 - p) * p ** (t - 1) * eps
        concl = residual == bound
        rep.add_flag("conclusion equality at S_[t]: residual == (1-p)p^(t-1) eps",
                     "holds" if concl else "fails", lhs=residual, rhs=bound)
        rep.add_slack("nearest_umvirate_residual", nearest_umvirate(fam, t, p)[1])
        rep.conclusion_holds = cond and concl and rep.hypotheses_met
        return rep

    if name == "tilde_D_sdl":
        s = pr["s"]
        root = defining_root(spec)
        p0 = root.value
        eps = p ** pr["l"]
        _require(to_mpf(p) < to_mpf(p0), "tightness needs p < p0")
        if root.exact:
            equality("mu_{p0}(F) == 1 - (1-p0)^s", mu(fam, p0),
                     1 - (1 - p0) ** s)
        else:
            equality("mu_{p0}(F) == 1 - (1-p0)^s",
                     lambda: mu_at_real(fam, p0),
                     lambda: 1 - mpmath.power(1 - to_mpf(p0), s))

        if root.exact:
            # p0 = 1/2 (d = l): ctilde = 1 and eps^u = (1-p)^d, all rational
            inner = p * (1 - (1 - p) ** pr["d"]) + (1 - p) * eps
            condition_rhs = 1 - (1 - p) ** (s - 1) + (1 - p) ** (s - 1) * inner
        else:
            def condition_rhs():
                q0 = 1 - to_mpf(p0)
                ct = mpmath.power(q0 / to_mpf(p0),
                                  mpmath.log(1 - to_mpf(p)) / mpmath.log(q0))
                u = (mpmath.log(to_mpf(p0)) / mpmath.log(to_mpf(p))
                     * mpmath.log(1 - to_mpf(p)) / mpmath.log(q0))
                inner = (to_mpf(p) * (1 - ct * mpmath.power(to_mpf(eps), u))
                         + to_mpf((1 - p) * eps))
                return (to_mpf(1 - (1 - p) ** (s - 1))
                        + to_mpf((1 - p) ** (s - 1)) * inner)

        cond = equality("condition equality at eps = p^l", condition_rhs, mu_p)
        residual = _canonical_or_residual(fam, s, p)
        bound = (1 - p) ** s * eps
        concl = residual == bound
        rep.add_flag("conclusion equality at OR_[s]: residual == (1-p)^s eps",
                     "holds" if concl else "fails", lhs=residual, rhs=bound)
        rep.add_slack("nearest_or_residual", nearest_or(fam, s, p)[1])
        rep.conclusion_holds = cond and concl and rep.hypotheses_met
        return rep
    raise ValueError(f"no tightness claim handled for {name!r}")


def _canonical_residual(fam: SetFamily, t: int, p: Fraction) -> Fraction:
    """mu_p of the part outside the canonical umvirate S_[t]."""
    return mu(fam, p) - cube_measure(fam, p, contains=mask_of(range(1, t + 1)))


def _canonical_or_residual(fam: SetFamily, s: int, p: Fraction) -> Fraction:
    return cube_measure(fam, p, misses=mask_of(range(1, s + 1)))


def mu_at_real(fam: SetFamily, x):
    """mu at a possibly-irrational bias, via the weight vector."""
    if isinstance(x, Fraction):
        return to_mpf(mu(fam, x))
    w = fam.weight_vector()
    xm = to_mpf(x)
    return sum(w[j] * xm**j * (1 - xm) ** (fam.n - j) for j in range(fam.n + 1))


# -- conjecture scanners --------------------------------------------------------


@dataclass
class ScanReport:
    conjecture: str
    ranges: dict
    families_examined: int
    candidates: list
    complete: bool
    notes: list

    def to_dict(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "ranges": {k: str(v) for k, v in self.ranges.items()},
            "families_examined": self.families_examined,
            "candidates": self.candidates,
            "complete": self.complete,
            "notes": self.notes,
        }


CONJECTURES = ("TIntersectingSharp", "WilsonSharp", "EMCStability")

#: the fewest increasing families for which the TIntersectingSharp scan
#: starts a process pool: [6] has 7,828,354 and scans in 12 s with two
#: workers against 18 s in one process (two vCPUs), while [5] (7,581) scans
#: in less time than a pool takes to start
_POOL_MIN_FAMILIES = 100_000


def conjecture_scan(conj_id: str, ranges: dict, budget: int | None = None,
                    threads: int = 1) -> ScanReport:
    """Scan a declared desk-scale range for counterexamples to a conjecture.

    An empty candidate list means the scan completed with no violation in
    range (not that the conjecture is proved).  Candidates are re-verified
    exactly before emission.  Budget exhaustion yields complete=False.
    TIntersectingSharp scans its families in a process pool when threads > 1,
    no budget is set and there are at least _POOL_MIN_FAMILIES of them
    (n = 6); chunks merge in canonical order, so the report does not depend
    on the thread count.  EMCStability walks only the subtrees that can
    reach its size threshold, and its budget counts the nodes of that walk.
    """
    if conj_id == "TIntersectingSharp":
        return _scan_t_intersecting_sharp(ranges, budget, threads)
    if conj_id == "WilsonSharp":
        return _scan_wilson_sharp(ranges, budget)
    if conj_id == "EMCStability":
        return _scan_emc_stability(ranges, budget)
    raise ValueError(f"unknown conjecture {conj_id!r}; known: {CONJECTURES}")


def _range_values(conj_id: str, ranges, *keys) -> list:
    """The values of the required range keys, in order; a ValueError naming
    the conjecture and the first key that is missing or, other than the
    bias list "ps", not an integer."""
    if not isinstance(ranges, dict):
        raise ValueError(f"{conj_id} ranges must be a JSON object")
    for key in keys:
        if key not in ranges:
            raise ValueError(f"{conj_id} needs range key {key!r}")
        val = ranges[key]
        if key != "ps" and (not isinstance(val, int) or isinstance(val, bool)):
            raise ValueError(f"{conj_id} range key {key!r} must be an integer")
    return [ranges[key] for key in keys]


def _bias_list(conj_id: str, ps) -> list[Fraction]:
    """The bias list "ps": a JSON list of exact "num/den" strings."""
    if not isinstance(ps, list) or not all(isinstance(x, str) for x in ps):
        raise ValueError(f"{conj_id} range key 'ps' must be a list of "
                         '"num/den" strings')
    try:
        return [parse_rational(x) for x in ps]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{conj_id} range key 'ps': {exc}") from None


def _t_intersecting_test(n: int, t: int):
    """A test of an increasing family on [n] (a 2**n-bit mask) for being
    t-intersecting, equal to `is_t_intersecting` there.

    It is enough that each minimal member a meets every member in at least
    t elements, i.e. bits & far[a] == 0, where far[a] is the 2**n-bit mask
    of the subsets that meet a in fewer than t elements.
    """
    far = [sum(1 << x for x in range(1 << n) if popcount(a & x) < t)
           for a in range(1 << n)]

    def test(bits: int) -> bool:
        return not any(bits & far[a]
                       for a in iter_bit_indices(minimal_bits(bits, n)))

    return test


def _scan_t_intersecting_masks(n: int, t: int, ps, dps: int, masks,
                               budget: int | None = None) -> tuple:
    """(examined, candidates, complete) over the increasing families
    `masks` (2**n-bit), in order; the scan stops incomplete when a family
    comes up with `budget` t-intersecting families already examined.  The
    real layer runs at `dps` digits, passed in because a pool worker that
    was not forked does not inherit the session precision.

    The t-intersection test runs on the mask (`_t_intersecting_test`).
    Each t-intersecting family's weight vector w is counted once; at p = a/b
    its measure is dot(w, pw) / b**n, so mu_p > thr is one integer
    comparison, and a SetFamily is built only for the families that pass it.
    """
    t_intersecting = _t_intersecting_test(n, t)
    biases = []
    for p in ps:
        thr = (t + 2) * p ** (t + 1) - (t + 1) * p ** (t + 2)
        pw, den = power_table(n, p)
        biases.append((p, pw, den, thr.numerator * den, thr.denominator))
    examined = 0
    candidates = []
    for bits in masks:
        if budget is not None and examined >= budget:
            return examined, candidates, False
        if not t_intersecting(bits):
            continue
        examined += 1
        w = _kernels.weight_counts(bits, n)
        fam = None
        for p, pw, den, thr_num, thr_den in biases:
            num = dot(w, pw)
            if num * thr_den <= thr_num:
                continue
            if fam is None:
                fam = SetFamily(n, bits)
            cand = _examine_t_intersecting(fam, t, p, Fraction(num, den),
                                           dps)
            if cand is not None:
                candidates.append(cand)
    return examined, candidates, True


def _examine_t_intersecting(fam: SetFamily, t: int, p: Fraction,
                            mu_p: Fraction, dps: int):
    _, residual = nearest_umvirate(fam, t, p)
    if residual == 0:
        return None
    eps_r = residual / ((1 - p) * p ** (t - 1))
    viol = _condition_beats_mu(mu_p, p, t, eps_r, dps)
    if viol is None:
        return None
    return {"family": [list(s) for s in fam.member_sets()],
            "p": str(p), "eps": str(viol),
            "note": "condition holds while conclusion fails"}


def _scan_t_intersecting_sharp(ranges: dict, budget, threads: int = 1) -> ScanReport:
    """Sharp-constant form of the t-intersecting stability claim.

    Scans increasing t-intersecting families (up-closing any counterexample
    preserves both the condition and the failure, so increasing families
    suffice).  For each family and bias the conjectured implication is
    violated iff the condition holds at some eps strictly below the point
    where the conclusion starts to hold.  The scan runs on the 2**n-bit
    masks and on integers: a mask test for t-intersection, then one exact
    integer comparison of mu_p with the threshold measure (see
    `_scan_t_intersecting_masks`).  Only the families above the threshold
    reach the real layer, where `_condition_beats_mu` takes the minimum of
    the convex condition curve in closed form at the working precision and
    reports a violation when it clears that function's float margin.  The
    biases "ps" are exact "num/den" strings.
    """
    t, n, ps = _range_values("TIntersectingSharp", ranges, "t", "n", "ps")
    if t < 1:
        raise ValueError("TIntersectingSharp range key 't' must be >= 1")
    ps = _bias_list("TIntersectingSharp", ps)
    for p in ps:
        if not 0 < p < Fraction(1, t + 1):
            raise ValueError("TIntersectingSharp range key 'ps': each p "
                             "must satisfy 0 < p < 1/(t+1)")
    notes = ["range: all increasing t-intersecting families on [n]",
             "up-closure preserves counterexamples, so this covers all families",
             "hypothesis taken strictly (> the threshold measure): the "
             "threshold family itself achieves equality and is the sharpness "
             "example, exactly as in the proven t=1 form"]
    masks = enumerate_monotone_masks(n)
    if threads > 1 and budget is None and len(masks) >= _POOL_MIN_FAMILIES:
        import multiprocessing

        masks = [int(b) for b in masks]
        step = max(64, len(masks) // (threads * 8) + 1)
        chunks = [(n, t, ps, default_dps(), masks[i:i + step])
                  for i in range(0, len(masks), step)]
        load_real_layer()  # once here; forked workers inherit it
        with multiprocessing.Pool(threads) as pool:
            results = pool.starmap(_scan_t_intersecting_masks, chunks)
        examined = sum(exd for exd, _, _ in results)
        candidates = [c for _, cands, _ in results for c in cands]
        complete = True
    else:
        examined, candidates, complete = _scan_t_intersecting_masks(
            n, t, ps, default_dps(), (int(b) for b in masks), budget)
    if not complete:
        notes.append("budget exhausted; scan incomplete")
    return ScanReport("TIntersectingSharp", ranges, examined, candidates,
                      complete, notes)


def _condition_beats_mu(mu_p: Fraction, p: Fraction, t: int,
                        eps_r: Fraction, dps: int):
    """Return an eps < eps_r where the sharp condition holds, if any.

    g(eps) = p^t (1 - (eps/t)^v) + c eps, with c = (1-p) p^{t-1} and
    v = log_p(1-p) in (0,1), is convex, and g' vanishes at
    eps* = t (c t / (p^t v))^{1/(v-1)}; clamped to [eps_r 1e-9, eps_r],
    eps* minimizes g there.  It is reported when mu_p exceeds g(eps*) by
    more than a fixed float margin of 1e-11 and it lies below eps_r by a
    relative 1e-9.  Everything runs in mpmath at `dps` digits.  No exact
    recheck follows.
    """
    with mpmath.workdps(dps):
        v = log_base(1 - p, p)
        pt, c = to_mpf(p) ** t, to_mpf((1 - p) * p ** (t - 1))
        hi = to_mpf(eps_r)
        eps = t * mpmath.power(c * t / (pt * v), 1 / (v - 1))
        eps = min(max(eps, hi * mpmath.mpf("1e-9")), hi)
        margin = to_mpf(mu_p) - pt * (1 - mpmath.power(eps / t, v)) - c * eps
        if (margin > mpmath.mpf("1e-11")
                and eps < hi * (1 - mpmath.mpf("1e-9"))):
            return mpmath.nstr(eps, 18)
    return None


def _scan_wilson_sharp(ranges: dict, budget) -> ScanReport:
    """Sharp-factor (t instead of 2^t - 1) form of the uniform stability
    claim, scanned over compression-closed t-intersecting families."""
    n, k, t, d_max = _range_values("WilsonSharp", ranges, "n", "k", "t", "d_max")
    if n < (t + 1) * (k - t + 1):
        raise ValueError("conjecture needs n >= (t+1)(k-t+1)")
    notes = ["range: compression-closed (shifted) t-intersecting families",
             "size threshold taken strictly (>): the threshold is attained "
             "by the sharpness families themselves"]
    candidates = []
    examined = 0
    complete = True
    try:
        for fam in iter_uniform_families(n, k, "t-intersecting", t,
                                         shifted=True, budget=budget):
            examined += 1
            size = len(fam)
            for d in range(1, d_max + 1):
                thr = max(
                    (t + 2) * comb0(n - t - 2, k - t - 1)
                    - (t + 1) * comb0(n - t - 2, k - t - 2),
                    comb0(n - t, k - t) - comb0(n - t - d, k - t)
                    + t * comb0(n - t - d, k - t - d + 1))
                if size <= thr:
                    continue
                _, outside = nearest_umvirate_uniform(fam, t)
                bound = t * comb0(n - t - d, k - t - d + 1)
                if outside > bound and is_t_intersecting(fam, t):
                    candidates.append({
                        "family": [list(s) for s in fam.member_sets()],
                        "d": d, "outside": outside, "bound": bound,
                    })
    except _kernels.BudgetExceeded:
        complete = False
        notes.append("budget exhausted; scan incomplete")
    return ScanReport("WilsonSharp", ranges, examined, candidates, complete, notes)


def _scan_emc_stability(ranges: dict, budget) -> ScanReport:
    """Matching-stability conjecture, scanned over compression-closed
    families with matching number exactly s and size above the threshold."""
    n, k, s, d = _range_values("EMCStability", ranges, "n", "k", "s", "d")
    if n < (s + 1) * k:
        raise ValueError("conjecture needs n >= (s+1)k")
    thr = max(comb0(k * (s + 1) - 1, k) + 1,
              comb0(n, k) - comb0(n - s, k)
              - comb0(n - s - d, k - 1) + comb0(n - s - d, k - d))
    bound = comb0(n - s - d, k - d)
    notes = [f"range: compression-closed families with matching number {s}, "
             f"size >= {thr}"]
    candidates = []
    examined = 0
    complete = True
    universe, families = _index_families(n, k, "matching_at_most", s, True,
                                         budget, min_size=thr)
    try:
        for idx in families:
            fam = UniformFamily(n, k, (universe[i] for i in idx))
            if matching_number(fam) != s:
                continue
            examined += 1
            _, outside = nearest_or_uniform(fam, s)
            if outside > bound and matching_number(fam) == s:
                candidates.append({
                    "family": [list(x) for x in fam.member_sets()],
                    "outside": outside, "bound": bound,
                })
    except _kernels.BudgetExceeded:
        complete = False
        notes.append("budget exhausted; scan incomplete")
    return ScanReport("EMCStability", ranges, examined, candidates, complete, notes)
