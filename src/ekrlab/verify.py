"""Hypothesis/condition/conclusion checkers for the stability theorems,
tightness reports for the extremal families, and counterexample scanners
for the conjectured sharp forms.

Every check evaluates exact rational left-hand sides against (possibly
irrational) right-hand sides through the tolerance layer.  Theorems whose
statements involve nonconstructive constants evaluate those hypotheses only
when the caller supplies constants; otherwise the flag reads "unresolved"
and the epsilon-condition / conclusion pair is still reported.

The six biased theorems share one shape: a constant-gated measure bound at
a critical bias (p0, 1/2, 1/(t+1) or 1/(2s+1)), an epsilon-condition, the
nearest extremal structure (t-umvirate, triangle or s-OR family) and a
bound on its residual.  A handler checks its own requirements and
pre-hypotheses; `_biased_verdict` does the rest.  All six come from one
isoperimetric transfer, so `_condition` builds every epsilon-condition:
mu_p(F) >= p^t(1 - ctilde x^u) + (1-p) p^{t-1} eps, lifted over [s] for
DualBiased and MatchingBiased, with ctilde and u the `DerivedConstants` of
the bias p0 it transfers from (p0 itself; 1/2 for Biased1, TriangleBiased
and TIntersectingBiased; 1/(2s+1) for MatchingBiased).  Its cap,
`_ctilde_cap`, serves the TIntersectingSharp scan too.  Both run inside
the closures that `check_le` re-invokes, so every value is recomputed at
each retry's precision.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from . import _kernels
from .bitops import mask_of, subset_masks
from .families import (KINDS, EdgeGround, SetFamily, UniformFamily,
                       is_t_intersecting, is_triangle_intersecting,
                       matching_number)
from .measures import (check_p_open, cube_measure, dot, mu, nearest_cube,
                       power_table)
from .numerics import (_Frozen, check_eq, check_le, log, log_base, nstr,
                       parse_rational, power, to_mpf)
from .report import HOLDS, UNRESOLVED, VerdictReport, fmt
from .search import iter_uniform_families
from .zoo import (FAMILIES, ROOT_EXPONENTS, FamilySpec, closed_form_mu,
                  comb0, construct, defining_root)

class DerivedConstants(_Frozen):
    """The transfer exponents and prefactors shared by the biased theorems."""

    __slots__ = ("p0", "p", "t")

    @property
    def c_tilde(self):
        """((1-p0)/p0) ** log_{1-p0}(1-p)"""
        q0 = Fraction(1 - self.p0)
        return power(to_mpf(q0 / self.p0), log_base(1 - self.p, q0))

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
        return to_mpf(self.p) * power(self.u, 1 / (1 - self.u))

    @property
    def c_prime(self):
        """(2**t - 1) ** (-log_p(1-p))"""
        return power(2**self.t - 1, -self.v)

    def intersecting_region_scale(self):
        """p * (c' v)**(1/(1-v)), the region scale of the t-intersecting
        bootstrap (p <= 1/(t+1), no critical bias p0)"""
        return to_mpf(self.p) * power(self.c_prime * self.v, 1 / (1 - self.v))


class TheoremCase(_Frozen):
    """A theorem id plus its parameters (p0, p, t/s, eps, d, i, delta...).

    Optional user-supplied constants (keys "C", "c", "delta0", "delta") make
    the nonconstructive hypotheses checkable; they are never guessed.
    """

    __slots__ = ("theorem_id", "params")

    def __init__(self, theorem_id: str, params: dict):
        if theorem_id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem {theorem_id!r}")
        super().__init__(theorem_id, params)

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
    """(vertices, edge mask) for every triangle on [v], lexicographically:
    the candidates of `nearest_cube` for the nearest triangle, as
    `subset_masks(n, t)` are for the nearest t-umvirate or s-OR family."""
    return zip(itertools.combinations(range(1, eg.v + 1), 3), eg.triangle_masks())


# -- theorem checks -------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _ctilde_cap(p, t: int, c_tilde, u, x):
    """p^t (1 - ctilde x^u), for a real x."""
    return to_mpf(p) ** t * (1 - c_tilde * power(x, u))


def _condition(p, t: int, eps, c_tilde, u, x, s: int | None = None):
    """p^t (1 - ctilde x^u) + (1-p) p^{t-1} eps, the epsilon-condition, and
    with an s its lift 1 - (1-p)^{s-1} + (1-p)^{s-1} X over [s]: the measure
    of a family that holds every set meeting [s-1] and whose section at the
    sets missing [s-1] has measure X."""
    value = _ctilde_cap(p, t, c_tilde, u, x) + to_mpf((1 - p) * p ** (t - 1) * eps)
    if s is None:
        return value
    return to_mpf(1 - (1 - p) ** (s - 1)) + to_mpf((1 - p) ** (s - 1)) * value


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
    big_c, small_c = Fraction(case.get("C")), Fraction(case.get("c"))
    # converted inside the closure, so that a precision retry refines them
    chk = check_le(lambda: rhs_fn(to_mpf(big_c), to_mpf(small_c)), mu_p)
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


def _biased_verdict(rep: VerdictReport, case: TheoremCase, fam: SetFamily,
                    structure: str, t: int, crit: Fraction, labels,
                    dc: DerivedConstants, divisor: int = 1,
                    region_scale=None) -> VerdictReport:
    """The rest of a biased stability check once the handler has checked
    its requirements and added its pre-hypotheses to `rep`.

    `structure` is the nearest extremal structure and the witness key:
    "umvirate" or "dictatorship" (S_B with |B| = t), "triangle" (S_T, with
    t = 3) or "or_set" (OR_B with |B| = t = s).  With the critical bias
    `crit` it fixes the constant-gated bound, min{C p^{t+1}, p^t(1 -
    c(crit-p))} or for OR_B min{(s-1)p + C p^2, (1 - c(crit-p))(1-(1-p)^s)},
    and the conclusion bound on the residual, (1-p) p^{t-1} eps or for OR_B
    (1-p)^s eps.  `labels` name the constant-gated hypothesis and the
    epsilon-condition, mu_p(F) >= `_condition` at x = eps/divisor with the
    constants of `dc`, whose p0 is the bias the theorem transfers from (at
    1/2, ctilde = 1 and u = log_p(1-p)), lifted over [s] for OR_B.  With a
    `region_scale` the bootstrap region is reported too, and the verdict is
    proved inside it.
    """
    p, eps = case.frac("p"), case.frac("eps")
    orform = structure == "or_set"

    def condition():
        return _condition(p, dc.t, eps, dc.c_tilde, dc.u,
                          to_mpf(eps) / divisor, t if orform else None)

    def constants_rhs(big_c, small_c):
        if orform:
            return min((t - 1) * to_mpf(p) + big_c * to_mpf(p) ** 2,
                       (1 - small_c * to_mpf(crit - p))
                       * to_mpf(1 - (1 - p) ** t))
        return min(big_c * to_mpf(p) ** (t + 1),
                   to_mpf(p) ** t * (1 - small_c * to_mpf(crit - p)))

    mu_p = mu(fam, p)
    constants_ok = _constants_flag(rep, case, mu_p, constants_rhs, labels[0])
    rep.add_hypothesis(labels[1], check_le(condition, mu_p))
    candidates = (_triangles(fam.edges) if structure == "triangle"
                  else subset_masks(fam.n, t))
    witness, _, residual = nearest_cube(fam, candidates, p, misses=orform)
    region = region_scale is not None and _bootstrap_region_flag(
        rep, residual, p, t, region_scale, constants_ok)
    bound = ((1 - p) ** t if orform else (1 - p) * p ** (t - 1)) * eps
    _conclusion(rep, residual, bound, {structure: list(witness)},
                proved=constants_ok or region)
    return rep


def _size_flag(rep: VerdictReport, case: TheoremCase, key: str, label: str,
               size: int, threshold, strict: bool = True,
               note: str | None = None) -> bool:
    """The constant-gated size hypothesis of a uniform theorem: |A| against
    threshold(value of `key`), > or, unless `strict`, >=, evaluated only
    when the caller supplies `key`.  Returns whether it was supplied, which
    is when a failed conclusion is asserted."""
    if case.get(key) is None:
        rep.add_flag(label, UNRESOLVED, note=note or
                     f"unresolved ({key} unknown); supply {key} to check")
        return False
    thr = threshold(Fraction(case.get(key)))
    rep.add_flag(label, "holds" if (size > thr if strict else size >= thr)
                 else "fails", lhs=str(size), rhs=fmt(thr))
    return True


def check_theorem(case: TheoremCase, fam) -> VerdictReport:
    """Evaluate one stability theorem against a concrete family.

    Family-type mismatches raise ValueError, first a family of the other
    kind than `THEOREMS` gives; failed (resolved) hypotheses produce a
    report with conclusion_holds = None; the witness and both sides of every
    inequality are always reported.
    """
    check, uniform = THEOREMS[case.theorem_id]
    _require(isinstance(fam, UniformFamily) == uniform, f"{case.theorem_id} "
             f"needs {KINDS[uniform]}, not {KINDS[not uniform]}")
    return check(case, fam)


def _check_main_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p0, p, t, eps = case.frac("p0"), case.frac("p"), case.need("t"), case.frac("eps")
    _require(0 < p < p0 < 1, "need 0 < p < p0 < 1")
    _require(t >= 1 and eps > 0, "need t >= 1 and eps > 0")
    _require(fam.is_increasing(), "family must be increasing")
    rep = VerdictReport("MainBiased")
    dc = DerivedConstants(p0, p, t)
    rep.add_hypothesis("mu_{p0}(F) <= p0^t", check_le(mu(fam, p0), p0**t))
    return _biased_verdict(
        rep, case, fam, "umvirate", t, p0,
        ("mu_p(F) >= min{C p^{t+1}, p^t(1 - c(p0-p))}",
         "mu_p(F) >= p^t(1 - ctilde eps^u) + (1-p)p^{t-1} eps"),
        dc, region_scale=dc.region_scale)


def _check_biased1(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p, eps = case.frac("p"), case.frac("eps")
    _require(0 < p < Fraction(1, 2), "need 0 < p < 1/2")
    _require(eps > 0, "need eps > 0")
    _require(fam.is_increasing(), "family must be increasing")
    rep = VerdictReport("Biased1")
    dc = DerivedConstants(Fraction(1, 2), p, 1)
    rep.add_hypothesis("mu_{1/2}(F) <= 1/2",
                       check_le(mu(fam, Fraction(1, 2)), Fraction(1, 2)))
    return _biased_verdict(
        rep, case, fam, "dictatorship", 1, Fraction(1, 2),
        ("mu_p(F) >= min{C p^2, p(1 - c(1/2 - p))}",
         "mu_p(F) >= p(1 - eps^{log_p(1-p)}) + (1-p) eps"),
        dc, region_scale=dc.region_scale)


def _check_t_intersecting_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    t, p, eps = case.need("t"), case.frac("p"), case.frac("eps")
    _require(t >= 1 and eps > 0, "need t >= 1 and eps > 0")
    _require(0 < p < Fraction(1, t + 1), "need 0 < p < 1/(t+1)")
    _require(is_t_intersecting(fam, t), f"family must be {t}-intersecting")
    rep = VerdictReport("TIntersectingBiased")
    factor = case.get("factor", 2**t - 1)  # conjectured sharp form uses t
    dc = DerivedConstants(Fraction(1, 2), p, t)
    return _biased_verdict(
        rep, case, fam, "umvirate", t, Fraction(1, t + 1),
        ("mu_p(F) >= min{C p^{t+1}, p^t(1 - c(1/(t+1) - p))}",
         f"mu_p(F) >= p^t(1 - (eps/{factor})^{{log_p(1-p)}}) + (1-p)p^{{t-1}} eps"),
        dc, factor,
        dc.intersecting_region_scale if factor == 2**t - 1 else None)


def _check_dual_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p0, p, s, eps = case.frac("p0"), case.frac("p"), case.need("s"), case.frac("eps")
    _require(0 < p < p0 < 1, "need 0 < p < p0 < 1")
    _require(s >= 1 and eps > 0, "need s >= 1 and eps > 0")
    _require(fam.is_increasing(), "family must be increasing")
    rep = VerdictReport("DualBiased")
    dc = DerivedConstants(p0, p, 1)
    rep.add_hypothesis("mu_{p0}(F) <= 1 - (1-p0)^s",
                       check_le(mu(fam, p0), 1 - (1 - p0) ** s))
    return _biased_verdict(
        rep, case, fam, "or_set", s, p0,
        ("mu_p(F) >= min{(s-1)p + C p^2, (1 - c(p0-p))(1-(1-p)^s)}",
         "mu_p(F) >= 1-(1-p)^{s-1} + (1-p)^{s-1}(p(1 - ctilde eps^u) + (1-p) eps)"),
        dc)


def _check_matching_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    s, p, eps = case.need("s"), case.frac("p"), case.frac("eps")
    _require(s >= 1 and eps > 0, "need s >= 1 and eps > 0")
    _require(0 < p < Fraction(1, 2 * s + 1), "need 0 < p < 1/(2s+1)")
    m_f = matching_number(fam)
    _require(m_f <= s, f"family must have matching number <= {s}, got {m_f}")
    rep = VerdictReport("MatchingBiased")
    dc = DerivedConstants(Fraction(1, 2 * s + 1), p, 1)
    return _biased_verdict(
        rep, case, fam, "or_set", s, dc.p0,
        ("mu_p(F) >= min{(s-1)p + C p^2, (1 - c(1/(2s+1)-p))(1-(1-p)^s)}",
         "mu_p(F) >= 1-(1-p)^s - (1-p)^{s-1} p ctilde eps^{log_p(1/(2s+1)) log_{2s/(2s+1)}(1-p)} + (1-p)^s eps"),
        dc)


def _check_wilson_uniform(case: TheoremCase, fam: UniformFamily) -> VerdictReport:
    t, d = case.need("t"), case.need("d")
    _require(t >= 1 and d >= 1, "need t >= 1 and d >= 1")
    _require(is_t_intersecting(fam, t), f"family must be {t}-intersecting")
    n, k = fam.n, fam.k
    rep = VerdictReport("WilsonUniform")
    rep.add_flag("k/n below 1/(t+1)", "holds" if k * (t + 1) < n else "fails",
                 lhs=f"{k}/{n}", rhs=f"1/{t + 1}",
                 note="the theorem needs k/n <= 1/(t+1) - eta")
    size = len(fam)
    proved = _size_flag(rep, case, "delta0", "|A| > (1-delta0) C(n-t,k-t)",
                        size, lambda delta0: (1 - delta0) * comb0(n - t, k - t))
    d_threshold = (comb0(n - t, k - t) - comb0(n - t - d, k - t)
                   + (2**t - 1) * comb0(n - t - d, k - t - d + 1))
    rep.add_flag("|A| > C(n-t,k-t) - C(n-t-d,k-t) + (2^t-1)C(n-t-d,k-t-d+1)",
                 "holds" if size > d_threshold else "fails",
                 lhs=str(size), rhs=str(d_threshold))
    b, _, outside = nearest_cube(fam, subset_masks(n, t))
    _conclusion(rep, Fraction(outside),
                Fraction((2**t - 1) * comb0(n - t - d, k - t - d + 1)),
                {"umvirate": list(b)}, proved=proved)
    return rep


def _check_triangle_biased(case: TheoremCase, fam: SetFamily) -> VerdictReport:
    p, eps = case.frac("p"), case.frac("eps")
    _require(0 < p < Fraction(1, 2), "need 0 < p < 1/2")
    _require(eps > 0, "need eps > 0")
    _require(fam.edges is not None, "family must live on an edge ground")
    _require(is_triangle_intersecting(fam), "family must be triangle-intersecting")
    rep = VerdictReport("TriangleBiased")
    dc = DerivedConstants(Fraction(1, 2), p, 3)
    return _biased_verdict(
        rep, case, fam, "triangle", 3, Fraction(1, 2),
        ("mu_p(F) >= min{C p^4, p^3(1 - c(1/2 - p))}",
         "mu_p(F) >= p^3(1 - eps^{log_p(1-p)}) + p^2(1-p) eps"),
        dc, region_scale=dc.region_scale)


def _check_triangle_uniform(case: TheoremCase, fam: UniformFamily) -> VerdictReport:
    d, v = case.need("d"), case.need("v")
    eg = EdgeGround(v)
    _require(fam.n == eg.n, "family ground must be the edge set of [v]")
    _require(is_triangle_intersecting(fam, eg),
             "family must be triangle-intersecting")
    big_m, k = eg.n, fam.k
    rep = VerdictReport("TriangleUniform")
    size = len(fam)
    proved = _size_flag(rep, case, "delta0", "|A| > (1-delta0) C(M-3,k-3)",
                        size, lambda delta0: (1 - delta0) * comb0(big_m - 3, k - 3),
                        note="unresolved (delta0 unknown)")
    d_threshold = (comb0(big_m - 3, k - 3) - comb0(big_m - d - 3, k - 3)
                   + 7 * comb0(big_m - d - 3, k - d - 2))
    rep.add_flag("|A| > C(M-3,k-3) - C(M-d-3,k-3) + 7 C(M-d-3,k-d-2)",
                 "holds" if size > d_threshold else "fails",
                 lhs=str(size), rhs=str(d_threshold))
    tri, _, outside = nearest_cube(fam, _triangles(eg))
    _conclusion(rep, Fraction(outside),
                Fraction(7 * comb0(big_m - d - 3, k - d - 2)),
                {"triangle": list(tri)}, proved=proved)
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
    proved = _size_flag(rep, case, "delta",
                        "|A| >= C(n,k) - C(n-s,k) - delta C(n-s,k-1)", len(fam),
                        lambda delta: (comb0(n, k) - comb0(n - s, k)
                                       - delta * comb0(n - s, k - 1)),
                        strict=False)
    b, _, outside = nearest_cube(fam, subset_masks(n, s), misses=True)
    _conclusion(rep, Fraction(outside), eps * comb0(n - s, k),
                {"or_set": list(b)}, proved=proved)
    if case.get("c") is not None and case.get("delta") is not None:
        p1 = Fraction(k, n)
        eps_remark = power(to_mpf(Fraction(case.get("c"))
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
    b, _, residual = nearest_cube(fam, subset_masks(fam.n, 1), p)
    bound = (1 - p) * p ** (i - 1)
    rep.witness = {"dictatorship": list(b)}
    rep.add_slack("conclusion_residual", residual)
    rep.add_slack("conclusion_bound", bound)
    if rep.hypotheses_met:
        rep.conclusion_holds = residual < bound  # strict, exact rationals
    return rep


#: theorem -> (its check, whether it reads a k-uniform family rather than
#: one on the whole cube), in the order the "known:" messages list them
THEOREMS = {
    "MainBiased": (_check_main_biased, False),
    "Biased1": (_check_biased1, False),
    "TIntersectingBiased": (_check_t_intersecting_biased, False),
    "DualBiased": (_check_dual_biased, False),
    "MatchingBiased": (_check_matching_biased, False),
    "WilsonUniform": (_check_wilson_uniform, True),
    "TriangleBiased": (_check_triangle_biased, False),
    "TriangleUniform": (_check_triangle_uniform, True),
    "MatchingUniform": (_check_matching_uniform, True),
    "FranklG_i": (_check_frankl_gi, False),
}

THEOREM_IDS = tuple(THEOREMS)


def theorem_id(name: str) -> str:
    """The theorem `name` spells, in any case and with or without "-" and
    "_" (so "biased1", "wilson-uniform" and "franklg_i" all resolve)."""
    key = name.lower().replace("-", "").replace("_", "")
    for tid in THEOREMS:
        if tid.lower().replace("_", "") == key:
            return tid
    raise ValueError(f"unknown theorem {name!r}; known: {THEOREM_IDS}")


# -- tightness reports ----------------------------------------------------------


_AT_UMVIRATE = "conclusion equality at S_[t]: residual == (1-p)p^(t-1) eps"

#: family -> its tightness chain: `chain(p, *parameters)` gives (t, r, eps
#: at p, the s of the OR-lift over [s] or None), then the labels of the
#: condition and conclusion equalities and a note for when another
#: umvirate is strictly closer than S_[t] (None: not looked for)
TIGHTNESS = {
    "tilde_Gi": (lambda p, n, i: (1, i - 1, p ** (i - 1), None),
                 "condition equality at eps = p^(i-1)",
                 "conclusion equality at the dictatorship on 1: "
                 "residual == (1-p) eps", None),
    "tilde_F_ts": (lambda p, n, t, s: (t, s, t * p ** s, None),
                   "condition equality (t-replaced constant) at eps = t p^s",
                   _AT_UMVIRATE, "a different umvirate is strictly closer "
                   "than S_[t] (degenerate small-s case)"),
    "tilde_H_tsr": (lambda p, n, t, s, r: (t, r, p ** s, None),
                    "condition equality at eps = p^s", _AT_UMVIRATE, None),
    "tilde_D_sdl": (lambda p, n, s, d, el: (1, d, p ** el, s),
                    "condition equality at eps = p^l",
                    "conclusion equality at OR_[s]: residual == (1-p)^s eps",
                    None),
}


def tightness_report(spec: FamilySpec, p) -> VerdictReport:
    """Both sides of each equality of the family's `TIGHTNESS` chain at p
    (and of mu_{p0}(F) at its defining root p0, where it has one), with
    residuals.  Without a root or at p0 = 1/2, the condition is rational:
    p^t(1 - (1-p)^r) + (1-p) p^{t-1} eps, OR-lifted over [s].  A bias
    outside 0 < p < 1 is a ValueError."""
    if spec.name not in TIGHTNESS:
        raise ValueError(f"no tightness claim handled for {spec.name!r}")
    chain, cond_name, concl_name, closer_note = TIGHTNESS[spec.name]
    p = Fraction(p)
    check_p_open(p)
    fam = construct(spec)
    rep = VerdictReport(f"tightness/{spec.name}")
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

    t, r, eps, s = chain(p, *FAMILIES[spec.name].values(spec.params))
    if s is None:  # the chain at the umvirate S_[t]
        lift, residual, near = 1, _canonical_residual(fam, t, p), "umvirate"
        at_p0, p0_name = (lambda x: x ** t), "p0^t"
    else:  # its OR-lift over [s], at OR_[s]
        lift, residual, near = ((1 - p) ** (s - 1),
                                _canonical_or_residual(fam, s, p), "or")
        at_p0, p0_name = (lambda x: 1 - (1 - x) ** s), "1 - (1-p0)^s"
    root = defining_root(spec) if spec.name in ROOT_EXPONENTS else None
    if root is not None:
        p0 = root.value
        _require(to_mpf(p) < to_mpf(p0), "tightness needs p < p0")
        if root.exact:
            equality("mu_{p0}(F) == " + p0_name, mu(fam, p0), at_p0(p0))
        else:
            equality("mu_{p0}(F) == " + p0_name, lambda: mu_at_real(fam, p0),
                     lambda: at_p0(to_mpf(p0)))
    if root is None or root.exact:
        condition = 1 - lift + lift * (p ** t * (1 - (1 - p) ** r)
                                       + (1 - p) * p ** (t - 1) * eps)
    else:
        def condition():
            return _condition(p, t, eps, *_root_constants(p0, p),
                              to_mpf(eps), s)

    cond = equality(cond_name, condition, mu_p)
    nearest = nearest_cube(fam, subset_masks(fam.n, s or t), p,
                           misses=s is not None)[2]
    bound = lift * (1 - p) * p ** (t - 1) * eps
    concl = residual == bound
    rep.add_flag(concl_name, "holds" if concl else "fails",
                 lhs=residual, rhs=bound)
    rep.add_slack(f"nearest_{near}_residual", nearest)
    if closer_note and nearest < residual:
        rep.notes.append(closer_note)
    rep.conclusion_holds = cond and concl and rep.hypotheses_met
    return rep


def _root_constants(p0, p) -> tuple:
    """(ctilde, u) at a defining root p0 given as a real, from the reals
    (DerivedConstants takes a rational p0 and rounds differently)."""
    q0 = 1 - to_mpf(p0)
    ct = power(q0 / to_mpf(p0), log(1 - to_mpf(p)) / log(q0))
    u = (log(to_mpf(p0)) / log(to_mpf(p))
         * log(1 - to_mpf(p)) / log(q0))
    return ct, u


def _canonical_residual(fam: SetFamily, t: int, p: Fraction) -> Fraction:
    """mu_p of the part outside the canonical umvirate S_[t]."""
    return mu(fam, p) - cube_measure(fam, p, contains=mask_of(range(1, t + 1)))


def _canonical_or_residual(fam: SetFamily, s: int, p: Fraction) -> Fraction:
    return cube_measure(fam, p, misses=mask_of(range(1, s + 1)))


def mu_at_real(fam: SetFamily, x):
    """mu at an irrational bias, via the weight vector."""
    w = fam.weight_vector()
    xm = to_mpf(x)
    return sum(w[j] * xm**j * (1 - xm) ** (fam.n - j) for j in range(fam.n + 1))


# -- conjecture scanners --------------------------------------------------------


class ScanReport(_Frozen):
    __slots__ = ("conjecture", "ranges", "families_examined", "candidates",
                 "complete", "notes")

    def to_dict(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "ranges": {k: str(v) for k, v in self.ranges.items()},
            "families_examined": self.families_examined,
            "candidates": self.candidates,
            "complete": self.complete,
            "notes": self.notes,
        }


def conjecture_scan(conj_id: str, ranges: dict,
                    budget: int | None = None) -> ScanReport:
    """Scan a declared desk-scale range for counterexamples to a conjecture.

    An empty candidate list means the scan completed with no violation in
    range (not that the conjecture is proved).  Candidates are re-verified
    exactly before emission.  Budget exhaustion yields complete=False.
    Every scan runs in one process.  TIntersectingSharp walks only the
    t-intersecting increasing families (`_kernels.iter_monotone_masks`),
    and its budget counts them, so a budget that covers them all completes.
    EMCStability walks only the subtrees that can reach its size threshold,
    and its budget counts the nodes of that walk.  A budget below 1 is a
    ValueError.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"need budget >= 1, got budget={budget}")
    if conj_id not in _SCANS:
        raise ValueError(f"unknown conjecture {conj_id!r}; "
                         f"known: {CONJECTURES}")
    return _SCANS[conj_id](ranges, budget)


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
    except ValueError as exc:
        raise ValueError(f"{conj_id} range key 'ps': {exc}") from None


def _examine_t_intersecting(fam: SetFamily, t: int, p: Fraction,
                            mu_p: Fraction):
    residual = nearest_cube(fam, subset_masks(fam.n, t), p)[2]
    if residual == 0:
        return None
    eps_r = residual / ((1 - p) * p ** (t - 1))
    viol = _condition_beats_mu(mu_p, p, t, eps_r)
    if viol is None:
        return None
    return {"family": [list(s) for s in fam.member_sets()],
            "p": str(p), "eps": str(viol),
            "note": "condition holds while conclusion fails"}


def _scan_t_intersecting_sharp(ranges: dict, budget) -> ScanReport:
    """Sharp-constant form of the t-intersecting stability claim.

    Scans increasing t-intersecting families (up-closing any counterexample
    preserves both the condition and the failure, so increasing families
    suffice).  For each family and bias the conjectured implication is
    violated iff the condition holds at some eps strictly below the point
    where the conclusion starts to hold.  The scan runs on the 2**n-bit
    masks and on integers.  `_kernels.iter_monotone_masks` yields only the
    t-intersecting families, in ascending order, and the scan stops
    incomplete when a family comes up with `budget` of them examined, so
    the budget also bounds the enumeration.  At p = a/b a family with
    weight vector w has measure dot(w, pw) / b**n, and the numerator is
    summed from the two halves of the mask (`_split_numerators`), each
    counted once per distinct half: two lookups and one addition per
    family and bias.  So mu_p > thr is one integer comparison, and a
    SetFamily is built only for the families that pass it.  Only those
    reach `_condition_beats_mu`, which takes the minimum of the convex
    condition curve.  Where eps_r/t is an exact power of p it first tries
    to prove in integers that the minimum sits at eps_r, which decides "no
    violation" without reals.
    Otherwise it takes the minimum in closed form at the working precision
    and reports a violation when it clears that function's float margin.  The biases "ps" are exact
    "num/den" strings.
    """
    t, n, ps = _range_values("TIntersectingSharp", ranges, "t", "n", "ps")
    _require(t >= 1, "TIntersectingSharp range key 't' must be >= 1")
    ps = _bias_list("TIntersectingSharp", ps)
    for p in ps:
        if not 0 < p < Fraction(1, t + 1):
            raise ValueError("TIntersectingSharp range key 'ps': each p "
                             "must satisfy 0 < p < 1/(t+1)")
    _require(0 <= n <= 6,
             "TIntersectingSharp range key 'n' must satisfy 0 <= n <= 6")
    notes = ["range: all increasing t-intersecting families on [n]",
             "up-closure preserves counterexamples, so this covers all families",
             "hypothesis taken strictly (> the threshold measure): the "
             "threshold family itself achieves equality and is the sharpness "
             "example, exactly as in the proven t=1 form"]
    biases, pws = [], []
    for p in ps:
        thr = (t + 2) * p ** (t + 1) - (t + 1) * p ** (t + 2)
        pw, den = power_table(n, p)
        biases.append((p, den, thr.numerator * den, thr.denominator))
        pws.append(pw)
    numerators = _split_numerators(n, pws)
    examined = 0
    candidates = []
    complete = True
    for bits in _kernels.iter_monotone_masks(n, t):
        if budget is not None and examined >= budget:
            complete = False
            notes.append("budget exhausted; scan incomplete")
            break
        examined += 1
        fam = None
        for (p, den, thr_num, thr_den), num in zip(biases, numerators(bits)):
            if num * thr_den <= thr_num:
                continue
            if fam is None:
                fam = SetFamily(n, bits)
            cand = _examine_t_intersecting(fam, t, p, Fraction(num, den))
            if cand is not None:
                candidates.append(cand)
    return ScanReport("TIntersectingSharp", ranges, examined, candidates,
                      complete, notes)


def _split_numerators(n: int, pws: list[list[int]]):
    """numerators(bits) yields dot(weight_counts(bits, n), pw) for each pw
    in `pws` (tables of `power_table(n, .)`), for a 2**n-bit family mask
    bits, from the two halves of bits.

    The mask is lo | hi << 2**(n-1), with lo the members without element n
    and hi the members with it, less that element: a member of size j in lo
    weighs pw[j], and one of size j in hi weighs pw[j+1].  So the sum is
    dot(w_{n-1}(lo), pw[:n]) + dot(w_{n-1}(hi), pw[1:]), and each term is
    counted once per distinct half and kept.  On [0] the one point is the
    empty set, of weight pw[0].
    """
    if n == 0:
        return lambda bits: (bits * pw[0] for pw in pws)
    half = 1 << (n - 1)
    low = (1 << half) - 1
    lows: dict = {}
    highs: dict = {}

    def numerators(bits):
        lo, hi = bits & low, bits >> half
        a = lows.get(lo)
        if a is None:
            w = _kernels.weight_counts(lo, n - 1)
            a = lows[lo] = tuple(dot(w, pw[:n]) for pw in pws)
        b = highs.get(hi)
        if b is None:
            w = _kernels.weight_counts(hi, n - 1)
            b = highs[hi] = tuple(dot(w, pw[1:]) for pw in pws)
        return map(operator.add, a, b)
    return numerators


#: relative guard of `_minimum_at_eps_r`, far above the error of its
#: double logs (a few units in 1e-16)
_POWER_GUARD = Fraction(1, 10**9)


def _minimum_at_eps_r(p: Fraction, t: int, eps_r: Fraction) -> bool:
    """True when eps_r/t = p^m for an integer m >= 1 and the condition
    curve g of `_condition_beats_mu` provably still falls at eps_r, so the
    minimizer is clamped to eps_r; False when this is not proved.

    At x = p^m, p^v = 1-p gives x^(v-1) = ((1-p)/p)^m, so g'(eps_r) <= 0
    iff v >= q = t (p/(1-p))^(m-1), a rational.  v = log1p(-p)/log(p) is
    taken in doubles: for 1e-300 < p < 1/2 its relative error is below
    1e-15, so v >= q (1 + 1e-9) in doubles proves v > q.  The test is exact
    in integers up to that one comparison and never touches the real layer.
    """
    x = eps_r / t
    a, b = p.numerator, p.denominator
    m, num, den = 0, 1, 1
    while den < x.denominator:
        m, num, den = m + 1, num * a, den * b
    if m == 0 or (num, den) != (x.numerator, x.denominator):
        return False
    pf = float(p)
    if pf < 1e-300:
        return False
    v = math.log1p(-pf) / math.log(pf)
    return Fraction(v) >= t * (p / (1 - p)) ** (m - 1) * (1 + _POWER_GUARD)


def _condition_beats_mu(mu_p: Fraction, p: Fraction, t: int,
                        eps_r: Fraction):
    """Return an eps < eps_r where the sharp condition holds, if any.

    g(eps) = p^t (1 - (eps/t)^v) + c eps, with c = (1-p) p^{t-1} and
    v = log_p(1-p) in (0,1), is convex, and g' vanishes at
    eps* = t (c t / (p^t v))^{1/(v-1)}; clamped to [eps_r 1e-9, eps_r],
    eps* minimizes g there.  It is reported when mu_p exceeds g(eps*) by
    more than a fixed float margin of 1e-11 and it lies below eps_r by a
    relative 1e-9.  First, when eps_r/t is an exact power of p,
    `_minimum_at_eps_r` may prove in integers and doubles that eps* is
    clamped to eps_r, and the answer is None without reals (the closed
    form below gives eps = eps_r to its working precision there, which
    fails the 1e-9 test).  Otherwise everything runs in reals at the
    working precision, and no exact recheck follows.
    """
    if _minimum_at_eps_r(p, t, eps_r):
        return None
    v = log_base(1 - p, p)
    pt, c = to_mpf(p) ** t, to_mpf((1 - p) * p ** (t - 1))
    hi = to_mpf(eps_r)
    eps = t * power(c * t / (pt * v), 1 / (v - 1))
    eps = min(max(eps, hi * to_mpf("1e-9")), hi)
    margin = to_mpf(mu_p) - _ctilde_cap(p, t, 1, v, eps / t) - c * eps
    if margin > to_mpf("1e-11") and eps < hi * (1 - to_mpf("1e-9")):
        return nstr(eps, 18)
    return None


def _scan_wilson_sharp(ranges: dict, budget) -> ScanReport:
    """Sharp-factor (t instead of 2^t - 1) form of the uniform stability
    claim, scanned over compression-closed t-intersecting families."""
    n, k, t, d_max = _range_values("WilsonSharp", ranges, "n", "k", "t", "d_max")
    if n < (t + 1) * (k - t + 1):
        raise ValueError("conjecture needs n >= (t+1)(k-t+1)")
    _require(t >= 1, "WilsonSharp range key 't' must be >= 1")
    _require(k >= t, "WilsonSharp range key 'k' must be >= t")
    _require(d_max >= 1, "WilsonSharp range key 'd_max' must be >= 1")
    notes = ["range: compression-closed (shifted) t-intersecting families",
             "size threshold taken strictly (>): the threshold is attained "
             "by the sharpness families themselves"]
    # (d, size threshold, outside bound) for each d; the nearest
    # t-umvirate does not depend on d, so it is found once per family
    limits = []
    for d in range(1, d_max + 1):
        bound = t * comb0(n - t - d, k - t - d + 1)
        thr = max((t + 2) * comb0(n - t - 2, k - t - 1)
                  - (t + 1) * comb0(n - t - 2, k - t - 2),
                  comb0(n - t, k - t) - comb0(n - t - d, k - t) + bound)
        limits.append((d, thr, bound))
    candidates = []
    examined = 0
    complete = True
    try:
        for fam in iter_uniform_families(n, k, "t-intersecting", t,
                                         shifted=True, budget=budget):
            examined += 1
            size = len(fam)
            live = [(d, bound) for d, thr, bound in limits if size > thr]
            if not live:
                continue
            outside = nearest_cube(fam, subset_masks(n, t))[2]
            hits = [(d, bound) for d, bound in live if outside > bound]
            if hits and is_t_intersecting(fam, t):
                candidates.extend({
                    "family": [list(s) for s in fam.member_sets()],
                    "d": d, "outside": outside, "bound": bound,
                } for d, bound in hits)
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
    _require(s >= 1, "EMCStability range key 's' must be >= 1")
    _require(k >= 1, "EMCStability range key 'k' must be >= 1")
    _require(1 <= d <= k, "EMCStability range key 'd' must satisfy 1 <= d <= k")
    thr = max(comb0(k * (s + 1) - 1, k) + 1,
              comb0(n, k) - comb0(n - s, k)
              - comb0(n - s - d, k - 1) + comb0(n - s - d, k - d))
    bound = comb0(n - s - d, k - d)
    notes = [f"range: compression-closed families with matching number {s}, "
             f"size >= {thr}"]
    candidates = []
    examined = 0
    complete = True
    try:
        for fam in iter_uniform_families(n, k, "matching_at_most", s,
                                         shifted=True, budget=budget,
                                         min_size=thr):
            if matching_number(fam) != s:
                continue
            examined += 1
            outside = nearest_cube(fam, subset_masks(n, s), misses=True)[2]
            if outside > bound:
                candidates.append({
                    "family": [list(x) for x in fam.member_sets()],
                    "outside": outside, "bound": bound,
                })
    except _kernels.BudgetExceeded:
        complete = False
        notes.append("budget exhausted; scan incomplete")
    return ScanReport("EMCStability", ranges, examined, candidates, complete, notes)


#: conjecture -> its scanner, in the order the "known:" message lists them
_SCANS = {"TIntersectingSharp": _scan_t_intersecting_sharp,
          "WilsonSharp": _scan_wilson_sharp,
          "EMCStability": _scan_emc_stability}

CONJECTURES = tuple(_SCANS)
