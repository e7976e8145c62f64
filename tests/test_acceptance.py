"""Acceptance suite: the exact desk-scale reproductions and property sweeps.

Each criterion prints one [PASS]/[FAIL] line (run with `pytest -s` to see
them).  Tolerances are pinned here: exact rational equality wherever the
statement is algebraic, 1e-12 for log/power comparisons.
"""

import itertools
import math
import time
from fractions import Fraction

import mpmath

from ekrlab import (FamilySpec, SearchProblem, SetFamily, UniformFamily,
                    _kernels, conjecture_scan, construct, is_t_intersecting,
                    katona_check, kk_min_shadow, lower_shadow, max_uniform,
                    monotone_count_oracle, mu, tightness_report)
from ekrlab.measures import iso_sweep, russo_sweep
from ekrlab.search import MONOTONE_COUNTS, iter_uniform_families
from ekrlab.zoo import closed_form_mu, tilde_d_sdl, tilde_h_tsr

from conftest import iso_rows, monotone_families

F = Fraction
TOL = mpmath.mpf("1e-12")


def report(name: str, ok: bool, started: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({time.time() - started:.1f}s)")
    assert ok, name


def test_criterion_1_ekr_exact():
    t0 = time.time()
    instances = [(n, k) for n in range(3, 22) for k in range(1, n // 2)
                 if 2 * k < n and math.comb(n, k) <= 21]
    ok = True
    for n, k in instances:
        cert = max_uniform(SearchProblem(n=n, k=k, predicate="intersecting"))
        ok &= cert.complete and cert.optimum == math.comb(n - 1, k - 1)
    cert = max_uniform(SearchProblem(n=7, k=3, predicate="intersecting",
                                     shifted=True))
    ok &= cert.complete and cert.optimum == math.comb(6, 2)
    report(f"criterion 1: EKR exact optimum on {len(instances)} plain instances"
           " + (7,3) shifted", ok, t0)


def test_criterion_2_wilson_exact():
    t0 = time.time()
    ok = True
    for n, expect in ((6, 4), (7, 5)):
        cert = max_uniform(SearchProblem(n=n, k=3, predicate="t-intersecting",
                                         t=2, shifted=True))
        ok &= cert.complete and cert.optimum == expect == math.comb(n - 2, 1)
    report("criterion 2: Wilson exact 2-intersecting optima in [6]^(3), [7]^(3)",
           ok, t0)


def test_criterion_3_frankl_matching_exact():
    t0 = time.time()
    cert = max_uniform(SearchProblem(n=9, k=2, predicate="matching_at_most",
                                     t=2, shifted=True))
    ok = (cert.complete and cert.optimum == 15
          == math.comb(9, 2) - math.comb(7, 2))
    report("criterion 3: matching-number-2 optimum 15 in [9]^(2)", ok, t0)


def test_criterion_4_iso_sweep():
    t0 = time.time()
    ps = [F(1, 8), F(1, 4), F(1, 2), F(3, 4)]
    ok = True
    for n in (3, 4, 5):
        masks = _kernels.monotone_masks(n)
        ok &= len(masks) == monotone_count_oracle(n) == MONOTONE_COUNTS[n]
        subcube_ids = set()
        for fid, bits in enumerate(masks):
            fam = SetFamily(n, int(bits))
            gen = fam.increasing_subcube_generator()
            if gen is not None and fam.bits not in (0,) and len(fam) < 1 << n:
                subcube_ids.add(fid)
        profile_of, fields, violations = iso_sweep(n, ps)
        ok &= violations == 0
        equal_ids = {p: set() for p in ps}
        for fid, num, den, _mu, _ip, slack, _log in iso_rows(profile_of,
                                                             fields):
            if slack == "vacuous":
                continue
            val = mpmath.mpf(slack)
            ok &= val >= -TOL
            if abs(val) <= TOL:
                equal_ids[F(num, den)].add(fid)
        for p in ps:
            ok &= equal_ids[p] == subcube_ids
    report("criterion 4: iso-inequality sweep over all monotone families "
           "n in {3,4,5} x 4 biases (equality exactly at increasing subcubes)",
           ok, t0)


def test_criterion_5_russo():
    t0 = time.time()
    ok = True
    for n in range(5):
        checked, failing = russo_sweep(n, 0, 0, 12)
        ok &= checked == MONOTONE_COUNTS[n] and not failing
    checked, failing = russo_sweep(None, 1000, 42, 12)
    ok &= checked == 1000 and not failing
    report("criterion 5: exact Russo identity (all monotone n<=4 and 1000 "
           "random monotone n<=12, coefficientwise)", ok, t0)


def test_criterion_6_tightness():
    t0 = time.time()
    ok = True
    for i in (3, 4, 5, 6):
        for p in (F(1, 8), F(1, 4), F(3, 8)):
            rep = tightness_report(FamilySpec("tilde_Gi", {"n": i + 1, "i": i}), p)
            ok &= bool(rep.conclusion_holds)
    for t in (1, 2, 3):
        for s in (1, 2, 3):
            n = t + s + 2
            for p in (F(1, 8),) + ((F(1, 5),) if t < 4 else ()):
                if not p < F(1, t + 1):
                    continue
                rep = tightness_report(FamilySpec("tilde_F_ts",
                                                  {"n": n, "t": t, "s": s}), p)
                ok &= bool(rep.conclusion_holds)
    for t in (1, 2, 3):
        for s in (2, 3):
            fam = tilde_h_tsr(t + s + 1, t, s, s)
            ok &= mu(fam, F(1, 2)) == F(1, 2**t)  # exact rational equality
    for s in (1, 2):
        for dl in (2, 3):
            fam = tilde_d_sdl(s + dl + 1, s, dl, dl)
            ok &= mu(fam, F(1, 2)) == 1 - F(1, 2**s)
            rep = tightness_report(FamilySpec("tilde_D_sdl",
                                              {"n": s + dl + 1, "s": s,
                                               "d": dl, "l": dl}), F(1, 4))
            ok &= bool(rep.conclusion_holds)
    report("criterion 6: tightness equality chains (tilde_Gi, tilde_F_ts, "
           "tilde_H at p0=1/2, tilde_D duals)", ok, t0)


def test_criterion_7_katona():
    t0 = time.time()
    ok = True
    # uniform variant over every 2-intersecting family produced by search
    for n, k, t in ((5, 3, 2), (6, 3, 2)):
        produced = 0
        for fam in iter_uniform_families(n, k, "t-intersecting", t,
                                         shifted=True):
            if len(fam) == 0:
                continue
            produced += 1
            ok &= bool(katona_check(fam, t).conclusion_holds)
        ok &= produced > 0
    # plus an exhaustive (unshifted) pass at (5,3,2)
    universe = list(itertools.combinations(range(1, 6), 3))
    for bits in range(1, 1 << 10):
        members = [c for i, c in enumerate(universe) if (bits >> i) & 1]
        fam = UniformFamily.from_sets(5, 3, members)
        if is_t_intersecting(fam, 2):
            ok &= bool(katona_check(fam, 2).conclusion_holds)
    # biased variant over every increasing t-intersecting family on n <= 4
    for n in (2, 3, 4):
        for fam in monotone_families(n):
            if fam.bits == 0:
                continue
            for t in range(1, n + 1):
                if not is_t_intersecting(fam, t):
                    continue
                for p in (F(1, 4), F(1, 2), F(2, 3)):
                    ok &= bool(katona_check(fam, t, p).conclusion_holds)
    report("criterion 7: Katona shadow/intersection checks (uniform at "
           "(5,3,2),(6,3,2); biased on all monotone n<=4)", ok, t0)


def test_criterion_8_kruskal_katona():
    t0 = time.time()
    ok = True
    for k in (2, 3):
        universe = list(itertools.combinations(range(1, 6), k))
        by_size = {}
        for bits in range(1, 1 << len(universe)):
            members = [c for i, c in enumerate(universe) if (bits >> i) & 1]
            size = len(lower_shadow(UniformFamily.from_sets(5, k, members)))
            m = len(members)
            by_size[m] = min(by_size.get(m, 10**9), size)
        for m in range(1, len(universe) + 1):
            ok &= kk_min_shadow(m, k) == by_size[m]
        ok &= kk_min_shadow(0, k) == 0
    report("criterion 8: Kruskal-Katona minimum equals brute force over "
           "[5]^(2) and [5]^(3), every size", ok, t0)


def test_criterion_9_closed_form_mu():
    t0 = time.time()
    import random

    rng = random.Random(99)
    cases = []
    for n in (7, 8, 9, 10):
        cases += [
            FamilySpec("dictatorship", {"n": n, "j": 1}),
            FamilySpec("t_umvirate", {"n": n, "t": 2}),
            FamilySpec("or_family", {"n": n, "s": 3}),
            FamilySpec("tilde_Gi", {"n": n, "i": 4}),
            FamilySpec("tilde_F_ts", {"n": n, "t": 2, "s": 2}),
            FamilySpec("tilde_H_tsr", {"n": n, "t": 1, "s": 3, "r": 2}),
            FamilySpec("tilde_D_sdl", {"n": n, "s": 2, "d": 2, "l": 3}),
            FamilySpec("C_ts_lex", {"n": n, "t": 2, "s": 3}),
        ]
    cases.append(FamilySpec("triangle_umvirate", {"v": 4}))
    ok = True
    for sp in cases:
        fam = construct(sp)
        for _ in range(5):
            den = rng.randint(2, 50)
            p = F(rng.randint(1, den - 1), den)
            ok &= closed_form_mu(sp, p) == mu(fam, p)
    report(f"criterion 9: closed-form measures equal enumeration exactly "
           f"({len(cases)} families x 5 random biases)", ok, t0)


def test_criterion_10_conjecture_scans():
    t0 = time.time()
    scans = [
        ("TIntersectingSharp", {"t": 1, "n": 4, "ps": ["1/4", "1/3"]}),
        ("WilsonSharp", {"n": 7, "k": 3, "t": 1, "d_max": 3}),
        ("EMCStability", {"n": 9, "k": 2, "s": 2, "d": 1}),
    ]
    ok = True
    for conj, ranges in scans:
        rep = conjecture_scan(conj, ranges)
        ok &= rep.complete and rep.candidates == []
    report("criterion 10: conjecture scans complete with no counterexample "
           "in the declared ranges", ok, t0)
