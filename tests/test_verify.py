from fractions import Fraction

import pytest

from ekrlab import (DerivedConstants, FamilySpec, SetFamily, TheoremCase,
                    UniformFamily, bootstrap_diagnostics, check_theorem,
                    conjecture_scan, construct, enumerate_monotone,
                    is_t_intersecting, mu, nearest_or, nearest_or_uniform,
                    nearest_triangle, nearest_umvirate,
                    nearest_umvirate_uniform, tightness_report, verify)
from ekrlab.zoo import (dictatorship, or_family, t_umvirate, tilde_d_sdl,
                        tilde_f_ts, tilde_gi, tilde_h_tsr, triangle_umvirate)

F = Fraction


def test_nearest_umvirate_examples():
    g3 = tilde_gi(4, 3)
    b, resid = nearest_umvirate(g3, 1, F(1, 4))
    assert b == 0b0001 and resid == F(3, 4) * F(1, 16)

    b, resid = nearest_umvirate(t_umvirate(5, 2), 2, F(1, 3))
    assert b == 0b00011 and resid == 0

    d = tilde_d_sdl(6, 2, 2, 2)
    b, resid = nearest_or(d, 2, F(1, 5))
    assert b == 0b000011 and resid == F(16, 25) * F(1, 25)


def test_nearest_uniform_and_triangle():
    sl = or_family(6, 2).uniform_slice(2)
    b, outside = nearest_or_uniform(sl, 2)
    assert b == 0b000011 and outside == 0
    usl = t_umvirate(6, 2).uniform_slice(3)
    b, outside = nearest_umvirate_uniform(usl, 2)
    assert b == 0b000011 and outside == 0
    tri, resid = nearest_triangle(triangle_umvirate(4), F(1, 3))
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
    full = UniformFamily.full(6, 2).to_set_family()
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


def test_bootstrap_general():
    s2 = t_umvirate(5, 2)
    rep = bootstrap_diagnostics(s2, F(1, 2), F(1, 4), 2)
    assert rep.conclusion_holds
    assert rep.slacks["delta"] == "0/1"

    h = tilde_h_tsr(6, 1, 2, 2)
    rep = bootstrap_diagnostics(h, F(1, 2), F(1, 4), 1)
    assert rep.conclusion_holds
    assert rep.slacks["delta"] != "0/1"


def test_bootstrap_intersecting_variant():
    f22 = tilde_f_ts(8, 2, 2)
    rep = bootstrap_diagnostics(f22, None, F(1, 5), 2, variant="intersecting")
    assert rep.conclusion_holds


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
    assert dc.u > 0.99
    assert DerivedConstants(None, F(1, 4), 2).c_prime > 0


def test_master_regression_biased1_corpus():
    # every increasing family on [4] meeting the hypotheses must satisfy the
    # conclusion (the theorems are proved; a failure is an implementation bug)
    p = F(1, 4)
    checked = 0
    for fam in enumerate_monotone(4):
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
    for fam in enumerate_monotone(4):
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


def test_conjecture_scan_budget():
    rep = conjecture_scan("TIntersectingSharp",
                          {"t": 1, "n": 4, "ps": ["1/4"]}, budget=5)
    assert not rep.complete
    assert rep.to_dict() == {
        "conjecture": "TIntersectingSharp",
        "ranges": {"n": "4", "ps": "['1/4']", "t": "1"},
        "families_examined": 5,
        "candidates": [],
        "complete": False,
        "notes": [
            "range: all increasing t-intersecting families on [n]",
            "up-closure preserves counterexamples, so this covers all families",
            "hypothesis taken strictly (> the threshold measure): the "
            "threshold family itself achieves equality and is the sharpness "
            "example, exactly as in the proven t=1 form",
            "budget exhausted; scan incomplete",
        ],
    }
    with pytest.raises(ValueError):
        conjecture_scan("NoSuchConjecture", {})


def test_verdict_report_serialization():
    g3 = tilde_gi(3, 3)
    rep = check_theorem(TheoremCase("Biased1", {"p": F(1, 4), "eps": F(1, 16)}),
                        g3)
    data = rep.to_dict()
    assert data["slacks"]["conclusion_residual"] == "3/64"
    assert rep.to_json()


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
        _, resid = nearest_umvirate(fam, t, F(1, 3))
        assert resid == 0
    g = tilde_gi(4, 3)
    _, resid = nearest_umvirate(g, 1, F(1, 3))
    assert resid > 0  # not contained in any dictatorship


def test_master_regression_frankl_corpus():
    # Frankl's corollary is fully constructive: whenever an intersecting
    # family strictly beats tilde_G_i in measure, some dictatorship must be
    # within (1-p)p^(i-1); any False here is an implementation bug
    checked = 0
    for fam in enumerate_monotone(4):
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
    for fam in enumerate_monotone(4):
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


def test_conjecture_scan_threads_match(monkeypatch):
    monkeypatch.setattr(verify, "_POOL_MIN_FAMILIES", 0)  # pool at n = 4
    seq = conjecture_scan("TIntersectingSharp",
                          {"t": 1, "n": 4, "ps": ["1/4"]})
    par = conjecture_scan("TIntersectingSharp",
                          {"t": 1, "n": 4, "ps": ["1/4"]}, threads=2)
    assert seq.families_examined == par.families_examined
    assert seq.candidates == par.candidates == []


def test_master_regression_sampled_n5():
    # sampled stress of the verifier at the n=5 scale: never a False verdict,
    # and inside the constructive region with the condition met, always True
    import random

    from ekrlab import enumerate_monotone_masks

    rng = random.Random(2026)
    masks = list(enumerate_monotone_masks(5))
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
    for fam in enumerate_monotone(4):
        for s in (1, 2):
            if mu(fam, p0) > 1 - (1 - p0) ** s:
                continue
            rep = check_theorem(TheoremCase(
                "DualBiased", {"p0": p0, "p": p, "s": s, "eps": F(1, 16)}), fam)
            assert rep.conclusion_holds is not False
