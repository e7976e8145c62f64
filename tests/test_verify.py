import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from ekrlab import (DerivedConstants, EdgeGround, FamilySpec, SetFamily,
                    TheoremCase, UniformFamily, check_theorem,
                    conjecture_scan, construct, is_t_intersecting,
                    iter_uniform_families, mu, tightness_report)
from ekrlab import _kernels, numerics, verify
from ekrlab.bitops import subset_masks
from ekrlab.measures import nearest_cube
from ekrlab.verify import _triangles
from ekrlab.zoo import (comb0, dictatorship, or_family, t_umvirate,
                        tilde_d_sdl, tilde_f_ts, tilde_gi, tilde_h_tsr,
                        triangle_umvirate)

from conftest import monotone_families

F = Fraction


def test_nearest_umvirate_examples():
    g3 = tilde_gi(4, 3)
    _, b, resid = nearest_cube(g3, subset_masks(4, 1), F(1, 4))
    assert b == 0b0001 and resid == F(3, 4) * F(1, 16)

    _, b, resid = nearest_cube(t_umvirate(5, 2), subset_masks(5, 2), F(1, 3))
    assert b == 0b00011 and resid == 0

    d = tilde_d_sdl(6, 2, 2, 2)
    _, b, resid = nearest_cube(d, subset_masks(6, 2), F(1, 5), misses=True)
    assert b == 0b000011 and resid == F(16, 25) * F(1, 25)


def test_nearest_uniform_and_triangle():
    sl = or_family(6, 2).uniform_slice(2)
    _, b, outside = nearest_cube(sl, subset_masks(6, 2), misses=True)
    assert b == 0b000011 and outside == 0
    usl = t_umvirate(6, 2).uniform_slice(3)
    _, b, outside = nearest_cube(usl, subset_masks(6, 2))
    assert b == 0b000011 and outside == 0
    tri_fam = triangle_umvirate(4)
    tri, _, resid = nearest_cube(tri_fam, _triangles(tri_fam.edges), F(1, 3))
    assert tri == (1, 2, 3) and resid == 0


def test_biased1_tightness_case():
    g3 = tilde_gi(3, 3)
    rep = check_theorem(TheoremCase("Biased1", {"p": F(1, 4), "eps": F(1, 16)}),
                        g3)
    assert rep.conclusion_holds
    assert rep.slacks["conclusion_residual"] == "3/64"
    assert rep.slacks["conclusion_bound"] == "3/64"
    assert rep.witness == {"dictatorship": [1]}
    statuses = {f.name: f.status for f in rep.hypotheses}
    assert any(s == "unresolved" for s in statuses.values())


def test_biased1_with_user_constants():
    g3 = tilde_gi(3, 3)
    rep = check_theorem(TheoremCase("Biased1", {"p": F(1, 4), "eps": F(1, 16),
                                                "C": F(2), "c": F(1, 100)}),
                        g3)
    assert all(f.status != "unresolved" for f in rep.hypotheses)
    assert rep.conclusion_holds


def test_main_biased_on_umvirate():
    for t in (1, 2):
        fam = t_umvirate(5, t)
        rep = check_theorem(TheoremCase("MainBiased",
                                        {"p0": F(1, 2), "p": F(1, 4), "t": t,
                                         "eps": F(1, 10**6)}), fam)
        assert rep.conclusion_holds
        assert rep.slacks["conclusion_residual"] == "0/1"


def test_main_biased_rejects_type_mismatch():
    not_increasing = SetFamily.from_sets(4, [[1, 2]])
    with pytest.raises(ValueError):
        check_theorem(TheoremCase("MainBiased",
                                  {"p0": F(1, 2), "p": F(1, 4), "t": 1,
                                   "eps": F(1, 4)}), not_increasing)


#: parameters each theorem accepts, for the family-kind check below
_KIND_PARAMS = {
    "MainBiased": {"p0": F(1, 2), "p": F(1, 4), "t": 1, "eps": F(1, 10)},
    "Biased1": {"p": F(1, 4), "eps": F(1, 16)},
    "TIntersectingBiased": {"t": 1, "p": F(1, 5), "eps": F(1, 25)},
    "DualBiased": {"p0": F(1, 2), "p": F(1, 4), "s": 1, "eps": F(1, 10)},
    "MatchingBiased": {"s": 1, "p": F(1, 10), "eps": F(1, 36)},
    "WilsonUniform": {"t": 1, "d": 1},
    "TriangleBiased": {"p": F(1, 4), "eps": F(1, 8)},
    "TriangleUniform": {"d": 1, "v": 4},
    "MatchingUniform": {"s": 1, "eps": F(1, 10)},
    "FranklG_i": {"p": F(1, 4), "i": 3},
}


@pytest.mark.parametrize("theorem", verify.THEOREM_IDS)
def test_check_theorem_refuses_the_other_kind(theorem):
    # four whole-cube checks once raised AttributeError on a k-uniform
    # family and three reported an unrelated hypothesis
    uniform = verify.THEOREMS[theorem][1]
    case = TheoremCase(theorem, _KIND_PARAMS[theorem])
    fam = (triangle_umvirate(4) if theorem.startswith("Triangle")
           else t_umvirate(6, 1))
    right, wrong = ((fam.uniform_slice(3), fam) if uniform
                    else (fam, fam.uniform_slice(3)))
    check_theorem(case, right)
    with pytest.raises(ValueError) as info:
        check_theorem(case, wrong)
    kinds = ("a family on the whole cube", "a k-uniform family")
    assert str(info.value) == (f"{theorem} needs {kinds[uniform]}, "
                               f"not {kinds[not uniform]}")


def test_wilson_uniform_tight_family():
    fam = construct(FamilySpec("F_ts", {"n": 12, "k": 3, "t": 1, "s": 2}))
    rep = check_theorem(TheoremCase("WilsonUniform", {"t": 1, "d": 2}), fam)
    # the family sits exactly at the size threshold (hypothesis is strict)
    flags = {f.name: f for f in rep.hypotheses}
    key = [k for k in flags if k.startswith("|A| > C")][0]
    assert flags[key].status == "fails"
    assert flags[key].lhs == flags[key].rhs == "28"
    # and achieves the conclusion bound exactly
    assert rep.slacks["conclusion_residual"] == "9/1"
    assert rep.slacks["conclusion_bound"] == "9/1"
    assert rep.conclusion_holds is None  # hypothesis boundary, nothing asserted


def test_wilson_uniform_interior_family():
    fam = t_umvirate(12, 1).uniform_slice(3)
    rep = check_theorem(TheoremCase("WilsonUniform",
                                    {"t": 1, "d": 2, "delta0": F(1, 100)}), fam)
    assert rep.conclusion_holds
    assert rep.slacks["conclusion_residual"] == "0/1"


def test_t_intersecting_biased():
    # an umvirate passes outright (residual 0)
    rep = check_theorem(TheoremCase("TIntersectingBiased",
                                    {"t": 2, "p": F(1, 5), "eps": F(1, 25)}),
                        t_umvirate(6, 2))
    assert rep.conclusion_holds
    # the tightness family passes the t-replaced (sharp) condition exactly
    f22 = tilde_f_ts(6, 2, 2)
    eps = 2 * F(1, 5) ** 2
    rep = check_theorem(TheoremCase("TIntersectingBiased",
                                    {"t": 2, "p": F(1, 5), "eps": eps,
                                     "factor": 2}), f22)
    assert rep.slacks["conclusion_residual"] == rep.slacks["conclusion_bound"]
    # with the theorem's 2^t-1 constant the harder condition fails here and
    # the epsilon-condition flag records it
    rep = check_theorem(TheoremCase("TIntersectingBiased",
                                    {"t": 2, "p": F(1, 5), "eps": eps}), f22)
    assert rep.conclusion_holds in (True, None)


@pytest.mark.parametrize("theorem, params, fam, missing", [
    ("MainBiased", {"p": F(1, 4), "t": 1, "eps": F(1, 16)}, tilde_gi(4, 3),
     "p0"),
    # the first missing parameter in the order the check reads them
    ("MainBiased", {"t": 1}, tilde_gi(4, 3), "p0"),
    ("DualBiased", {"p0": F(1, 2), "p": F(1, 4), "eps": F(1, 10)},
     tilde_gi(4, 3), "s"),
    ("TriangleUniform", {"d": 1}, triangle_umvirate(4).uniform_slice(3), "v"),
    ("WilsonUniform", {"t": 1}, t_umvirate(6, 1).uniform_slice(3), "d"),
])
def test_missing_parameter_named(theorem, params, fam, missing):
    with pytest.raises(ValueError) as info:
        check_theorem(TheoremCase(theorem, params), fam)
    assert str(info.value) == f"{theorem} needs parameter {missing!r}"


def test_unread_parameter_refused():
    # Biased1 once ran and ignored t; the check reads p, eps, C and c
    case = TheoremCase("Biased1", {"p": F(1, 4), "eps": F(1, 16), "t": 1})
    with pytest.raises(ValueError) as info:
        check_theorem(case, tilde_gi(4, 3))
    assert str(info.value) == ("Biased1 does not read 't'; it reads p, eps, "
                               "C, c")
    # MatchingUniform reads c (in its remark) but not C
    with pytest.raises(ValueError, match="'C'"):
        check_theorem(TheoremCase("MatchingUniform",
                                  {"s": 2, "eps": F(1, 10), "C": F(1)}),
                      or_family(11, 2).uniform_slice(2))


def test_check_parameters_are_the_cli_theorem_flags():
    from ekrlab import cli

    flags = {flag[2:] for flag, _ in cli._THEOREM_OPTIONS}
    read = set()
    for check, _ in verify.THEOREMS.values():
        code = check.__code__
        assert code.co_varnames[:code.co_argcount] == ("rep", "fam")
        names = code.co_varnames[2:2 + code.co_kwonlyargcount]
        assert set(check.__kwdefaults__ or ()) <= set(names)
        read |= set(names)
    # factor is the library-only knob of TIntersectingBiased
    assert read - {"factor"} == flags
    assert verify._RATIONALS <= flags


def test_triangle_biased_reads_a_plain_family_over_v():
    tu = triangle_umvirate(4)
    params = {"p": F(1, 4), "eps": F(1, 20)}
    want = check_theorem(TheoremCase("TriangleBiased", params), tu).to_dict()
    plain = SetFamily(tu.n, tu.bits)
    for fam in (plain, tu):
        rep = check_theorem(TheoremCase("TriangleBiased", {**params, "v": 4}),
                            fam)
        assert rep.to_dict() == want
    with pytest.raises(ValueError) as info:
        check_theorem(TheoremCase("TriangleBiased", params), plain)
    assert str(info.value) == "family must live on an edge ground"
    # a v other than the family's own edge ground is refused, not ignored
    with pytest.raises(ValueError) as info:
        check_theorem(TheoremCase("TriangleBiased", {**params, "v": 5}), tu)
    assert str(info.value) == ("v = 5 disagrees with the family's edge "
                               "ground, on 4 vertices")


@pytest.mark.parametrize("theorem, params, fam", [
    ("MainBiased", {"p0": F(1, 2), "p": F(1, 4), "t": 1, "eps": F(1, 16)},
     tilde_gi(4, 3)),
    ("Biased1", {"p": F(1, 4), "eps": F(1, 16)}, tilde_gi(4, 3)),
    ("TIntersectingBiased", {"t": 1, "p": F(1, 4), "eps": F(1, 10)},
     tilde_f_ts(5, 1, 2)),
    ("TriangleBiased", {"p": F(1, 4), "eps": F(1, 20)}, triangle_umvirate(4)),
])
def test_bootstrap_region_noted_with_user_constants(theorem, params, fam):
    # with C and c supplied and holding, every check with a bootstrap region
    # still reports it, as a note instead of a flag
    rep = check_theorem(TheoremCase(theorem, {**params, "C": F(1, 10**6),
                                              "c": F(50)}), fam)
    assert [f.status for f in rep.hypotheses if "min{" in f.name] == ["holds"]
    assert len(rep.notes) == 1
    assert rep.notes[0].startswith("bootstrap region ")
    assert rep.notes[0].endswith(" (informational; user constants decide)")
    assert not any(f.name.startswith("residual within") for f in rep.hypotheses)


def test_dual_and_matching_biased():
    d = tilde_d_sdl(6, 2, 2, 2)
    rep = check_theorem(TheoremCase("DualBiased",
                                    {"p0": F(1, 2), "p": F(1, 5), "s": 2,
                                     "eps": F(1, 25)}), d)
    assert rep.conclusion_holds

    o2 = or_family(6, 2)
    rep = check_theorem(TheoremCase("MatchingBiased",
                                    {"s": 2, "p": F(1, 6), "eps": F(1, 36)}), o2)
    assert rep.conclusion_holds
    assert rep.slacks["conclusion_residual"] == "0/1"


def test_matching_biased_rejects_large_matching():
    full = SetFamily.from_masks(6, UniformFamily.full(6, 2).members)
    with pytest.raises(ValueError):
        check_theorem(TheoremCase("MatchingBiased",
                                  {"s": 2, "p": F(1, 6), "eps": F(1, 4)}), full)


def test_triangle_biased_and_uniform():
    tu = triangle_umvirate(4)
    rep = check_theorem(TheoremCase("TriangleBiased",
                                    {"p": F(1, 4), "eps": F(1, 20)}), tu)
    assert rep.conclusion_holds
    assert rep.witness == {"triangle": [1, 2, 3]}

    # at v=4 no family can reach the size threshold; the pair is still
    # reported and the verdict stays open
    sl = tu.uniform_slice(4)
    rep = check_theorem(TheoremCase("TriangleUniform", {"v": 4, "d": 1}), sl)
    assert rep.conclusion_holds is None
    assert rep.slacks["conclusion_residual"] == "0/1"

    # v=5, k=5, d=4 admits the full umvirate slice above the threshold
    sl5 = triangle_umvirate(5).uniform_slice(5)
    rep = check_theorem(TheoremCase("TriangleUniform",
                                    {"v": 5, "d": 4, "delta0": F(1, 2)}), sl5)
    assert rep.conclusion_holds
    assert rep.slacks["conclusion_residual"] == "0/1"


def test_matching_uniform():
    sl = or_family(11, 2).uniform_slice(2)
    rep = check_theorem(TheoremCase("MatchingUniform",
                                    {"s": 2, "eps": F(1, 10),
                                     "delta": F(1, 10)}), sl)
    assert rep.conclusion_holds
    assert rep.slacks["conclusion_residual"] == "0/1"


def test_frankl_gi_check():
    # a star strictly beats tilde_G_i in measure and is dictator-centred
    star = dictatorship(6, 1)
    rep = check_theorem(TheoremCase("FranklG_i", {"p": F(1, 4), "i": 4}), star)
    assert rep.conclusion_holds
    # tilde_G_4 itself does not satisfy the strict hypothesis
    rep = check_theorem(TheoremCase("FranklG_i", {"p": F(1, 4), "i": 4}),
                        tilde_gi(6, 4))
    assert rep.conclusion_holds is None


def test_tightness_reports():
    rep = tightness_report(FamilySpec("tilde_Gi", {"n": 6, "i": 4}), F(1, 3))
    assert rep.conclusion_holds

    rep = tightness_report(FamilySpec("tilde_H_tsr",
                                      {"n": 6, "t": 1, "s": 2, "r": 2}),
                           F(1, 4))
    assert rep.conclusion_holds

    rep = tightness_report(FamilySpec("tilde_F_ts", {"n": 8, "t": 2, "s": 3}),
                           F(1, 6))
    assert rep.conclusion_holds

    rep = tightness_report(FamilySpec("tilde_D_sdl",
                                      {"n": 7, "s": 2, "d": 2, "l": 2}),
                           F(1, 5))
    assert rep.conclusion_holds

    # irrational defining root case
    rep = tightness_report(FamilySpec("tilde_H_tsr",
                                      {"n": 7, "t": 1, "s": 2, "r": 3}),
                           F(1, 4))
    assert rep.conclusion_holds


def _curve(p, t, r, eps, s=None):
    """p^t(1 - (1-p)^r) + (1-p)p^{t-1} eps, OR-lifted over [s] when s is
    given: 1 - (1-p)^{s-1} + (1-p)^{s-1} times the curve."""
    x = p ** t * (1 - (1 - p) ** r) + (1 - p) * p ** (t - 1) * eps
    return x if s is None else 1 - (1 - p) ** (s - 1) + (1 - p) ** (s - 1) * x


def _identity_cases():
    """(spec, its condition at p) for every tightness family on n <= 7
    whose chain is rational: H with r = s and D with d = l."""
    for n in range(2, 8):
        for i in range(3, n + 1):
            yield (FamilySpec("tilde_Gi", {"n": n, "i": i}),
                   lambda p, i=i: _curve(p, 1, i - 1, p ** (i - 1)))
        # (a, b) is (t, s) of F and H, and (s, d) of D
        for a, b in itertools.product(range(1, n), repeat=2):
            if a + b > n:
                continue
            yield (FamilySpec("tilde_F_ts", {"n": n, "t": a, "s": b}),
                   lambda p, t=a, s=b: _curve(p, t, s, t * p ** s))
            if b >= 2:
                yield (FamilySpec("tilde_H_tsr",
                                  {"n": n, "t": a, "s": b, "r": b}),
                       lambda p, t=a, s=b: _curve(p, t, s, p ** s))
                yield (FamilySpec("tilde_D_sdl",
                                  {"n": n, "s": a, "d": b, "l": b}),
                       lambda p, s=a, d=b: _curve(p, 1, d, p ** d, s))


def test_tightness_condition_is_the_one_identity():
    # the printed condition side of every rational chain is the curve, and
    # every chain closes
    cases = list(_identity_cases())
    assert {sp.name for sp, _ in cases} == set(verify.TIGHTNESS)
    for sp, curve in cases:
        for p in (F(1, 7), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(3, 7)):
            rep = tightness_report(sp, p).to_dict()
            cond = [h for h in rep["hypotheses"]
                    if h["name"].startswith("condition equality")]
            assert len(cond) == 1, (sp, p)
            assert cond[0]["lhs"] == numerics.fmt_rational(curve(p)), (sp, p)
            assert rep["conclusion_holds"] is True, (sp, p)


def test_derived_constants():
    grid = [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(9, 20)]
    prev = None
    for p in grid:
        dc = DerivedConstants(F(1, 2), p, 1)
        assert 0 < dc.u < 1
        assert dc.c_tilde > 0
        if prev is not None:
            assert dc.u > prev  # u -> 1 as p -> p0
        prev = dc.u
    dc = DerivedConstants(F(1, 2), F(499, 1000), 1)
    assert dc.u > numerics.to_mpf(F(99, 100))
    assert DerivedConstants(None, F(1, 4), 2).c_prime > 0


def test_master_regression_biased1_corpus():
    # every increasing family on [4] meeting the hypotheses must satisfy the
    # conclusion (the theorems are proved; a failure is an implementation bug)
    p = F(1, 4)
    checked = 0
    for fam in monotone_families(4):
        if mu(fam, F(1, 2)) > F(1, 2):
            continue
        for eps in (F(1, 16), F(1, 8), F(1, 4)):
            rep = check_theorem(TheoremCase("Biased1", {"p": p, "eps": eps}),
                                fam)
            if rep.hypotheses_met:
                assert rep.conclusion_holds is not False
                checked += 1
    assert checked > 30


def test_master_regression_t_intersecting_corpus():
    p = F(1, 5)
    checked = 0
    for fam in monotone_families(4):
        if not is_t_intersecting(fam, 2):
            continue
        for eps in (F(1, 25), F(1, 10), F(1, 5)):
            rep = check_theorem(TheoremCase("TIntersectingBiased",
                                            {"t": 2, "p": p, "eps": eps}), fam)
            if rep.hypotheses_met:
                assert rep.conclusion_holds is not False
                checked += 1
    assert checked > 10


def test_conjecture_scans_clean():
    rep = conjecture_scan("TIntersectingSharp",
                          {"t": 1, "n": 4, "ps": ["1/4", "1/3"]})
    assert rep.complete and rep.candidates == []

    rep = conjecture_scan("WilsonSharp", {"n": 7, "k": 3, "t": 1, "d_max": 3})
    assert rep.complete and rep.candidates == []

    rep = conjecture_scan("EMCStability", {"n": 9, "k": 2, "s": 2, "d": 1})
    assert rep.complete and rep.candidates == []


def test_wilson_sharp_finds_the_nearest_umvirate_once_per_family(monkeypatch):
    # the nearest t-umvirate does not depend on d: at most one query per
    # examined family (24 on [9], where a query per d made 48)
    calls = []

    def counting(fam, candidates, *args, **kwargs):
        calls.append(len(fam))
        return nearest_cube(fam, candidates, *args, **kwargs)

    monkeypatch.setattr(verify, "nearest_cube", counting)
    rep = conjecture_scan("WilsonSharp", {"n": 9, "k": 3, "t": 1, "d_max": 3})
    assert rep.complete and rep.candidates == []
    assert len(calls) == 24 and rep.families_examined == 240


def test_wilson_sharp_candidates_per_d(monkeypatch):
    # a residual above every bound makes each family a candidate for every
    # d whose size threshold it exceeds, in order of d: the per-d loop
    # with a query per d, kept here as the oracle
    n, k, t, d_max = 7, 3, 1, 3
    monkeypatch.setattr(verify, "nearest_cube",
                        lambda fam, candidates: (None, None, 10**6))
    expect = []
    for fam in iter_uniform_families(n, k, "t-intersecting", t, shifted=True):
        for d in range(1, d_max + 1):
            thr = max((t + 2) * comb0(n - t - 2, k - t - 1)
                      - (t + 1) * comb0(n - t - 2, k - t - 2),
                      comb0(n - t, k - t) - comb0(n - t - d, k - t)
                      + t * comb0(n - t - d, k - t - d + 1))
            if len(fam) > thr:
                expect.append({"family": [list(s) for s in fam.member_sets()],
                               "d": d, "outside": 10**6,
                               "bound": t * comb0(n - t - d, k - t - d + 1)})
    rep = conjecture_scan("WilsonSharp",
                          {"n": n, "k": k, "t": t, "d_max": d_max})
    assert len(expect) == 4 and rep.candidates == expect


def test_conjecture_scan_budget():
    # the range holds 81 t-intersecting families, so a budget of 81 covers
    # it and the scan completes
    for budget, complete in ((5, False), (80, False), (81, True)):
        rep = conjecture_scan("TIntersectingSharp",
                              {"t": 1, "n": 4, "ps": ["1/4"]}, budget=budget)
        assert rep.to_dict() == {
            "conjecture": "TIntersectingSharp",
            "ranges": {"n": "4", "ps": "['1/4']", "t": "1"},
            "families_examined": budget,
            "candidates": [],
            "complete": complete,
            "notes": [
                "range: all increasing t-intersecting families on [n]",
                "up-closure preserves counterexamples, so this covers all "
                "families",
                "hypothesis taken strictly (> the threshold measure): the "
                "threshold family itself achieves equality and is the "
                "sharpness example, exactly as in the proven t=1 form",
            ] + ([] if complete else ["budget exhausted; scan incomplete"]),
        }
    with pytest.raises(ValueError):
        conjecture_scan("NoSuchConjecture", {})


def test_verdict_report_serialization():
    g3 = tilde_gi(3, 3)
    rep = check_theorem(TheoremCase("Biased1", {"p": F(1, 4), "eps": F(1, 16)}),
                        g3)
    data = rep.to_dict()
    assert data["slacks"]["conclusion_residual"] == "3/64"


def test_tightness_residuals_exact_when_rational():
    rep = tightness_report(FamilySpec("tilde_Gi", {"n": 6, "i": 4}), F(1, 3))
    assert rep.slacks["condition equality at eps = p^(i-1)_residual"] == "0/1"
    rep = tightness_report(FamilySpec("tilde_H_tsr",
                                      {"n": 6, "t": 2, "s": 2, "r": 2}),
                           F(1, 4))
    assert rep.slacks["condition equality at eps = p^s_residual"] == "0/1"
    rep = tightness_report(FamilySpec("tilde_F_ts", {"n": 7, "t": 2, "s": 2}),
                           F(1, 5))
    key = "condition equality (t-replaced constant) at eps = t p^s_residual"
    assert rep.slacks[key] == "0/1"


def test_nearest_umvirate_zero_iff_contained():
    for t in (1, 2):
        fam = t_umvirate(5, t)
        resid = nearest_cube(fam, subset_masks(5, t), F(1, 3))[2]
        assert resid == 0
    g = tilde_gi(4, 3)
    resid = nearest_cube(g, subset_masks(4, 1), F(1, 3))[2]
    assert resid > 0  # not contained in any dictatorship


def test_master_regression_frankl_corpus():
    # Frankl's corollary is fully constructive: whenever an intersecting
    # family strictly beats tilde_G_i in measure, some dictatorship must be
    # within (1-p)p^(i-1); any False here is an implementation bug
    checked = 0
    for fam in monotone_families(4):
        if fam.bits == 0 or not is_t_intersecting(fam, 1):
            continue
        for i in (3, 4):
            for p in (F(1, 4), F(1, 3)):
                rep = check_theorem(TheoremCase("FranklG_i",
                                                {"p": p, "i": i}), fam)
                assert rep.conclusion_holds is not False
                if rep.hypotheses_met:
                    checked += 1
    assert checked >= 16


def test_master_regression_main_biased_corpus():
    # region-gated: inside the bootstrap contraction region the implication
    # is proved, so conclusion_holds must come back True when the condition
    # holds -- and must never be False anywhere
    p0, p = F(1, 2), F(1, 4)
    proved_hits = 0
    for fam in monotone_families(4):
        for t in (1, 2):
            if mu(fam, p0) > p0**t:
                continue
            for eps in (F(1, 32), F(1, 16), F(1, 8)):
                rep = check_theorem(TheoremCase(
                    "MainBiased", {"p0": p0, "p": p, "t": t, "eps": eps}), fam)
                assert rep.conclusion_holds is not False
                region = any(f.name.startswith("residual within") and f.holds
                             for f in rep.hypotheses)
                if region and rep.hypotheses_met and rep.conclusion_holds:
                    proved_hits += 1
    assert proved_hits >= 30


def test_master_regression_sampled_n5():
    # sampled stress of the verifier at the n=5 scale: never a False verdict,
    # and inside the constructive region with the condition met, always True
    rng = random.Random(2026)
    masks = list(_kernels.monotone_masks(5))
    sample = rng.sample(masks, 400)
    p = F(1, 4)
    proved = 0
    for bits in sample:
        fam = SetFamily(5, int(bits))
        if mu(fam, F(1, 2)) <= F(1, 2):
            rep = check_theorem(TheoremCase("Biased1",
                                            {"p": p, "eps": F(1, 16)}), fam)
            assert rep.conclusion_holds is not False
            if rep.conclusion_holds:
                proved += 1
        if is_t_intersecting(fam, 2):
            rep = check_theorem(TheoremCase("TIntersectingBiased",
                                            {"t": 2, "p": F(1, 5),
                                             "eps": F(1, 20)}), fam)
            assert rep.conclusion_holds is not False
    assert proved >= 5


def test_dual_and_matching_corpus_never_false():
    p0, p = F(1, 2), F(1, 4)
    for fam in monotone_families(4):
        for s in (1, 2):
            if mu(fam, p0) > 1 - (1 - p0) ** s:
                continue
            rep = check_theorem(TheoremCase(
                "DualBiased", {"p0": p0, "p": p, "s": s, "eps": F(1, 16)}), fam)
            assert rep.conclusion_holds is not False


# -- pinned reports ---------------------------------------------------------------

#: sha256 of each group's outcomes in `_pinned_corpus(19)`, one report JSON or
#: error message per line, at the default precision and tolerance
PINNED_DIGESTS = {
    "MainBiased":
        "c1ddd7120e4a3098c3384c1c2544648acf828a0cfa0898ea3bc15ba9b0e422d2",
    "MainBiased+constants":
        "eb87112684d10a4413e0cb90b892c974b4b4a911d8914e4a2e2af2842c953964",
    "Biased1+constants":
        "b599507f7ae250f066b2f14dd4d76df3b2ed764c923fa576630564059be10888",
    "Biased1":
        "879479d18d75cd3625acea49f86464c7767f1782a6fadaf8a017c5259493eaeb",
    "TIntersectingBiased+constants":
        "e1f6110b48a964f9590e2b11fa3e30facf89c7d2c6a648a6a95da77a690f73ae",
    "TIntersectingBiased":
        "c869f6541112b300fd34656222a26edc95ec3704b5025a574b29ca75ba5b290d",
    "DualBiased+constants":
        "356a3cd06d7c3fdcd798c110adefb1d2a3ca752f8ffea1b5dd95eaffe75cc7ec",
    "DualBiased":
        "519f2d974c9855059f0fa8372a1337e76c0dc1a8decc1389fb6b889007147220",
    "MatchingBiased+constants":
        "7c81bd94fa09ec108b892390348cfa12c2423cddc7f22299018d7cc2cefd583c",
    "MatchingBiased":
        "b146ca8d71d945848924c08c3d3193de5685d7799a2f299f1a8d2dbe4d0640f8",
    "TriangleBiased+constants":
        "f197c4573f1515d2e6a6403483650dde3a2c98283adfa4d9e641eec980596456",
    "TriangleBiased":
        "9986b807cdaff101db5c11ad45a8d719d9498cb69a3fad937f6070b420023c66",
    "FranklG_i":
        "7413532e3add3ca631e7a16a6cd359b88f46c32b106ee34479a971a4a9b5452e",
    "WilsonUniform":
        "e7a0b68870c3c00871d687f64d9bddae8ef08a8e24e1caa6496116de2d1809e7",
    "MatchingUniform":
        "e28beaa31060ae3deee343294eaa94fedc46a3cc0abefa88dd6cbd112742721a",
    "TriangleUniform":
        "92223b10303b27e3247064aaedd0e7600f30cc3ece3bb8c41edd50b8f5da9008",
    "tightness/tilde_Gi":
        "ed7bd136631fe3c8b4b7bf5f69997f66acef7619f90d283a9981abba5909aa82",
    "tightness/tilde_F_ts":
        "4bb61248525309d49d7268f16c2ac827f41062a2459a23a6e2fc56b448aaa344",
    "tightness/tilde_H_tsr":
        "005215a00650f1a2794cca0a6902eb05169e866b7a6d3a8223c6e775efe5a1b9",
    "tightness/tilde_D_sdl":
        "da7cd920ab748c6049fb14899657ef9684555d167045af54411ae60c3a944e2e",
}

#: the constant sets: none, two that split the min{...} bound, and c = 0,
#: which makes the bound of an umvirate an exact tie
_CONSTANTS = ({}, {"C": F(2), "c": F(1, 100)}, {"C": F(1, 10**6), "c": F(50)},
              {"C": F(1), "c": F(0)})


def _grid(constants=(), **axes):
    """Every combination of the axes as a parameter dict, each with every
    constant set in `constants` (or none); a None value leaves its key out."""
    combos = [{k: v for k, v in zip(axes, vals) if v is not None}
              for vals in itertools.product(*axes.values())]
    return [{**c, **k} for c in combos for k in (constants or ({},))]


def _pinned_corpus(step: int):
    """(group, outcome thunk) for every `step`-th theorem case and every
    tightness case, in a fixed order.  Groups are the theorems (the biased
    ones split by whether C and c are supplied) and the four tightness
    families; cases include parameters the checks reject."""
    rng = random.Random(20261018)
    biased = list(monotone_families(4)) + [
        tilde_gi(4, 3), tilde_gi(5, 4), t_umvirate(5, 2), tilde_f_ts(5, 1, 2),
        tilde_f_ts(6, 2, 2), tilde_h_tsr(6, 1, 2, 3), tilde_d_sdl(6, 2, 2, 2),
        or_family(5, 2), dictatorship(5)]
    eg4 = EdgeGround(4)
    tu = triangle_umvirate(4)
    tris = eg4.triangle_masks()

    def graph():  # two triangles of K_4 and a random edge set
        return rng.choice(tris) | rng.choice(tris) | rng.getrandbits(6)

    graphs = [tu, triangle_umvirate(5), SetFamily(6, tu.bits)] + [
        SetFamily(6, sum(1 << g for g in {graph() for _ in range(3)}),
                  eg4).up_closure() for _ in range(12)]
    triples = [m for m in range(64) if bin(m).count("1") == 3]
    uniform = {
        "WilsonUniform": [fam for t in (1, 2) for fam in itertools.islice(
            iter_uniform_families(7, 3, "t-intersecting", t), 60)]
        + [t_umvirate(8, 2).uniform_slice(4), UniformFamily.full(5, 2)],
        "MatchingUniform": list(itertools.islice(
            iter_uniform_families(7, 2, "matching_at_most", 2), 80))
        + [or_family(11, 2).uniform_slice(2), UniformFamily.full(6, 2)],
        "TriangleUniform": [triangle_umvirate(v).uniform_slice(k)
                            for v in (4, 5) for k in (3, 4, 5, 6)]
        + [UniformFamily(6, 3, rng.sample(triples, 4)) for _ in range(6)],
    }
    p0p = [(F(1, 2), F(1, 4)), (F(1, 2), F(1, 3)), (F(2, 5), F(1, 5)),
           (F(3, 4), F(1, 3)), (F(1, 3), F(1, 2))]
    eps = [F(1, 32), F(1, 10), F(1, 2), F(0)]
    grids = {
        "MainBiased": [{"p0": a, "p": b, **g} for a, b in p0p
                       for g in _grid(_CONSTANTS, t=[1, 2], eps=eps)],
        "Biased1": _grid(_CONSTANTS, p=[F(1, 4), F(1, 3), F(2, 5), F(1, 2)],
                         eps=[F(1, 16), F(1, 12), F(1, 4), F(0)]),
        "TIntersectingBiased": _grid(
            _CONSTANTS, t=[1, 2], p=[F(1, 8), F(1, 5), F(1, 4)],
            eps=[F(1, 25), F(1, 5), F(2, 25)], factor=[1, 2, None]),
        "DualBiased": [{"p0": a, "p": b, **g} for a, b in p0p
                       for g in _grid(_CONSTANTS, s=[1, 2, 3], eps=eps)],
        "MatchingBiased": _grid(_CONSTANTS, s=[1, 2], p=[F(1, 10), F(1, 6),
                                                         F(1, 4)],
                                eps=[F(1, 36), F(1, 4), F(0)]),
        "TriangleBiased": _grid(_CONSTANTS, p=[F(1, 4), F(1, 3), F(2, 5),
                                               F(1, 2)],
                                eps=[F(1, 20), F(1, 8), F(1, 2)]),
        "FranklG_i": _grid(p=[F(1, 4), F(1, 3), F(1, 2)], i=[3, 4, 5]),
        "WilsonUniform": _grid(t=[1, 2], d=[1, 2, 3],
                               delta0=[None, F(1, 10), F(1, 2)]),
        "MatchingUniform": _grid(s=[1, 2], eps=[F(1, 10), F(1, 2)],
                                 delta=[None, F(1, 10), F(1)],
                                 c=[None, F(1, 2)]),
        "TriangleUniform": _grid(v=[4, 5], d=[1, 2, 4],
                                 delta0=[None, F(1, 2)]),
    }
    families = {"TriangleBiased": graphs, **uniform}
    cases = []
    for theorem, grid in grids.items():
        for fam, params in itertools.product(families.get(theorem, biased), grid):
            group = theorem + ("+constants" if "C" in params else "")
            cases.append((group, lambda th=theorem, pr=params, f=fam:
                          check_theorem(TheoremCase(th, pr), f)))
    specs = (
        [FamilySpec("tilde_Gi", {"n": n, "i": i})
         for n in (5, 6, 7) for i in range(3, n + 1)]
        + [FamilySpec("tilde_F_ts", {"n": n, "t": t, "s": s})
           for n in (5, 7) for t in (1, 2) for s in (2, 3)]
        + [FamilySpec("tilde_H_tsr", {"n": 7, "t": t, "s": s, "r": r})
           for t in (1, 2) for s in (2, 3) for r in (2, 3, 4)]
        + [FamilySpec("tilde_D_sdl", {"n": 7, "s": s, "d": d, "l": el})
           for s in (1, 2) for d in (2, 3) for el in (2, 3, 4)])
    return cases[::step] + [
        ("tightness/" + spec.name, lambda s=spec, b=p: tightness_report(s, b))
        for spec, p in itertools.product(specs, (F(1, 5), F(1, 4), F(1, 3),
                                                 F(2, 5)))]


def _pinned_outcomes(step: int) -> dict:
    """Each group's outcomes in `_pinned_corpus(step)`: a report as sorted
    JSON, or the type and message of the error it raised."""
    out = {}
    for group, run in _pinned_corpus(step):
        try:
            line = json.dumps(run().to_dict(), sort_keys=True)
        except (ValueError, ArithmeticError) as exc:
            line = f"{type(exc).__name__}: {exc}"
        out.setdefault(group, []).append(line)
    return out


def test_reports_pinned(monkeypatch):
    # every report the checks emit over the corpus, byte for byte; a change
    # in any label, note, digit or rounding of a verdict shows up here
    monkeypatch.delenv("EKRLAB_PRECISION", raising=False)
    with numerics.settings():
        got = {group: hashlib.sha256("\n".join(lines).encode()).hexdigest()
               for group, lines in _pinned_outcomes(19).items()}
    assert got == PINNED_DIGESTS


def test_catalogue_order():
    # the "known: ..." messages print these tuples, so their order is pinned
    assert verify.THEOREM_IDS == tuple(verify.THEOREMS) == (
        "MainBiased", "Biased1", "TIntersectingBiased", "DualBiased",
        "MatchingBiased", "WilsonUniform", "TriangleBiased",
        "TriangleUniform", "MatchingUniform", "FranklG_i")
    assert verify.CONJECTURES == (
        "TIntersectingSharp", "WilsonSharp", "EMCStability")
    assert [t for t, (_, uniform) in verify.THEOREMS.items() if uniform] == [
        "WilsonUniform", "TriangleUniform", "MatchingUniform"]


def _spellings(tid: str) -> set:
    """The theorem id in each case, with its words split by "_" or "-"."""
    words = re.findall(r"[A-Z][a-z0-9]*|_[a-z]", tid)
    forms = set()
    for joined in {tid, "".join(words).replace("_", ""), "_".join(words),
                   "-".join(words), tid.replace("_", "-")}:
        forms |= {joined, joined.lower(), joined.upper()}
    return forms


def test_theorem_spellings_resolve():
    assert verify.theorem_id("biased1") == "Biased1"
    assert verify.theorem_id("wilson-uniform") == "WilsonUniform"
    assert verify.theorem_id("franklg_i") == "FranklG_i"
    assert verify.theorem_id("t_intersecting_biased") == "TIntersectingBiased"
    for tid in verify.THEOREM_IDS:
        for spelling in _spellings(tid):
            assert verify.theorem_id(spelling) == tid, spelling
    with pytest.raises(ValueError) as info:
        verify.theorem_id("Biased2")
    assert str(info.value) == ("unknown theorem 'Biased2'; known: "
                               f"{verify.THEOREM_IDS}")
    with pytest.raises(ValueError) as info:
        verify.conjecture_scan("Nope", {})
    assert str(info.value) == ("unknown conjecture 'Nope'; known: "
                               f"{verify.CONJECTURES}")
