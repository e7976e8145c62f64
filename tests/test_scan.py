"""The TIntersectingSharp scan on masks and integers: the enumeration of
the t-intersecting increasing families, which a budget cuts short, the
measures summed from the two halves of each mask, the condition verdict
against a ternary search (the exact-power test where eps_r/t = p^m, on
both sides of its bound, and the closed-form minimum), the working
precision, and pinned reports; and pinned EMCStability reports, with the
size-floored walk and with a budget."""

import bisect
import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from ekrlab import (SetFamily, _kernels, conjecture_scan, is_t_intersecting,
                    verify)
from ekrlab.measures import dot, power_table
from ekrlab.numerics import (log_base, nstr, power, settings, to_mpf,
                             workdps)


# -- t-intersection in the enumeration -----------------------------------------


@pytest.mark.parametrize("t", [1, 2, 3])
def test_mask_test_matches_is_t_intersecting(t):
    # the enumeration's mask test keeps exactly the t-intersecting families,
    # in the order of the full enumeration
    for n in range(6):
        expect = [bits for bits in _kernels.monotone_masks(n)
                  if is_t_intersecting(SetFamily(n, bits), t)]
        assert list(_kernels.monotone_masks(n, t)) == expect


@pytest.fixture(scope="module")
def masks_n6():
    """t -> the t-intersecting increasing families on [6] (ascending)."""
    return {t: _kernels.monotone_masks(6, t) for t in (1, 2, 3)}


def test_mask_test_matches_is_t_intersecting_sampled_n6(masks_n6):
    # up-closures of a few random generators, checked against membership in
    # the [6] enumeration; few of them are 2- or 3-intersecting
    rng = random.Random(6)
    sample = []
    for _ in range(600):
        gens = [sum(1 << e for e in rng.sample(range(6), rng.randint(1, 6)))
                for _ in range(rng.randint(1, 4))]
        sample.append(SetFamily.from_masks(6, gens).up_closure().bits)
    for t in (1, 2, 3):
        kept = masks_n6[t]
        hits = 0
        for bits in sample:
            expect = is_t_intersecting(SetFamily(6, bits), t)
            i = bisect.bisect_left(kept, bits)
            assert (i < len(kept) and kept[i] == bits) == expect
            hits += expect
        assert 0 < hits < len(sample)


def test_t_intersecting_count_n6(masks_n6):
    # t = 1 is the families_examined of the whole [6] scan, as the
    # enumeration of every family and a per-family test counted it
    assert [len(masks_n6[t]) for t in (1, 2, 3)] == [1_422_564, 60_080, 1_271]
    for masks in masks_n6.values():
        assert all(a < b for a, b in itertools.pairwise(masks))


def test_budget_bounds_the_enumeration(monkeypatch, masks_n6):
    # a budgeted scan on [6] takes at most budget + 1 families from the
    # enumeration, rather than enumerating all 1,422,564 first
    taken = []

    def counting(n, t=0):
        for bits in real(n, t):
            taken.append(bits)
            yield bits

    real = _kernels.iter_monotone_masks
    monkeypatch.setattr(_kernels, "iter_monotone_masks", counting)
    d = conjecture_scan("TIntersectingSharp", {"t": 1, "n": 6, "ps": ["1/4"]},
                        budget=5).to_dict()
    assert d["families_examined"] == 5 and not d["complete"]
    assert len(taken) <= 6
    assert taken == list(masks_n6[1][:len(taken)])


# -- measures from the two halves of a mask ------------------------------------


@pytest.mark.parametrize("t", [1, 2])
def test_split_numerators_match_the_weight_vector(t):
    # every increasing family on [n], n <= 5, at biases on both sides of
    # 1/(t+1): the numerator summed from the two halves of the mask equals
    # the one from the whole weight vector
    edge = F(1, t + 1)
    ps = [edge / 3, edge - F(1, 97), edge, edge + F(1, 89), F(5, 6)]
    for n in range(6):
        pws = [power_table(n, p)[0] for p in ps]
        numerators = verify._split_numerators(n, pws)
        for bits in _kernels.iter_monotone_masks(n):
            w = _kernels.weight_counts(bits, n)
            assert list(numerators(bits)) == [dot(w, pw) for pw in pws], \
                (n, bits)


# -- the condition curve in closed form ----------------------------------------


def _ternary(p, t, eps_r, steps=200):
    """(eps, g(eps)) at the end of a ternary search for the minimum of the
    condition curve over [eps_r 1e-9, eps_r], at the current precision: the
    reference the closed form is checked against."""
    v = log_base(1 - p, p)
    pt, c = to_mpf(p) ** t, to_mpf((1 - p) * p ** (t - 1))

    def g(eps):
        return pt * (1 - power(eps / t, v)) + c * eps

    lo, hi = to_mpf(eps_r) * to_mpf("1e-9"), to_mpf(eps_r)
    for _ in range(steps):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if g(m1) < g(m2):
            hi = m2
        else:
            lo = m1
    eps = (lo + hi) / 2
    return eps, g(eps)


def _as_fraction(x) -> F:
    sign, man, exp, _ = to_mpf(x)._mpf_
    return F(-man if sign else man) * F(2) ** exp


EPS_RS = (F(1, 1000), F(1, 10), F(1, 2), F(3, 1), F(40, 1))

#: the exact powers eps_r = t p^m checked besides EPS_RS
POWERS = range(1, 7)


@pytest.mark.parametrize("p", [F(1, 97), F(2, 101), F(1, 10), F(1, 5), F(19, 113)])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_closed_form_decides_as_the_ternary_search(p, t):
    # at eps_r = t p^m the exact-power test runs first; the search checks
    # its verdicts on both sides of v = q as well as the closed form's
    reported = 0
    for eps_r in EPS_RS + tuple(t * p**m for m in POWERS):
        eps_t, g_t = _ternary(p, t, eps_r)
        beats = eps_t < to_mpf(eps_r) * (1 - to_mpf("1e-9"))
        for lift in (0, F(1, 10**6)):
            mu_p = _as_fraction(g_t) + lift
            got = verify._condition_beats_mu(mu_p, p, t, eps_r)
            assert (got is not None) == (beats and lift > 0)
            if got is not None:
                # the search pins eps down to about the square root of
                # the working precision, where g is flat
                assert abs(to_mpf(got) - eps_t) <= to_mpf("1e-13") * to_mpf(eps_r)
                reported += 1
    assert reported > 0  # the reporting path ran
    # both sides of v = q ran: m <= 2 falls back to the reals, m = 4 does not
    decided = {m for m in POWERS
               if verify._minimum_at_eps_r(p, t, t * p**m)}
    assert 4 in decided and not decided & {1, 2}


@pytest.mark.parametrize("t", [1, 2])
def test_condition_runs_at_the_given_precision(t):
    # a search at 80 digits fixes the minimizer to far more than the 18
    # reported digits; the condition runs at the enclosing settings' digits
    p, eps_r = F(1, 7), F(1, 2)
    with workdps(80):
        eps_ref, g_ref = _ternary(p, t, eps_r, steps=300)
        expect = nstr(eps_ref, 18)
    mu_p = _as_fraction(g_ref) + F(1, 10**6)
    with settings(50):
        assert verify._condition_beats_mu(mu_p, p, t, eps_r) == expect
    with settings(15):
        assert verify._condition_beats_mu(mu_p, p, t, eps_r) != expect


# -- pinned reports ------------------------------------------------------------

#: sha256 of json.dumps(report, sort_keys=True, indent=2), recorded with the
#: per-family SetFamily, Fraction and mpmath scan these replace
PINS = [
    (1, 5, ["2/101", "19/113"], 2646,
     "97e883b7f9562f528f8d3ddae5d59f9c82f6ba8f52f5760d42bfbba98dec2016"),
    (2, 5, ["1/5", "3/11"], 328,
     "3fda0c50ac9eb7fd1879764003c7903024e93f4e8199be6e8b830d54a95942ad"),
    (3, 5, ["1/5"], 43,
     "cd004092eddb01a666da70c853a28bee4cd6e8536d53d0e413ad9bca81ac289e"),
    (1, 4, ["1/4", "1/3"], 81,
     "0062a7c2b4543afed8e75cbb88c2f7ca7458a569db98f82331d1bb5c8e2f95e0"),
    # recorded with the scan that enumerated every increasing family on [6]
    # and tested each one for being t-intersecting
    (2, 6, ["1/5", "3/11"], 60080,
     "bcc513d9d8f064eeeaedc6a5aa99c494214c43e6b6554b7a005e41fb687728fc"),
    (3, 6, ["1/5"], 1271,
     "9476a955036ba3babc8db05a207bfe29fd7be71754c5800281bdeceab2ee9947"),
    # the smallest grounds, [0] included, recorded with the scan that
    # counted each family's weight vector whole
    (1, 0, ["1/5", "2/5"], 1,
     "255e847a641bc96e01d739245f2b0be0b12dee066a9c7cf7fd9352dfb32d5d1e"),
    (1, 1, ["1/5", "2/5"], 2,
     "3cfd903cfeb7733e5a3d8de84de9fe6bc040a47ae9b68554f2e6f14c1c315fc9"),
    (1, 2, ["1/5", "2/5"], 4,
     "6348bc6affe457561e6444b1264c9713644fe4d0bec0cd126302619fa73f12d6"),
    (1, 3, ["1/5", "2/5"], 12,
     "4b5a77579dcf6897fcec1795904c55dcbd73e0703035429ef0481ba00f6d4672"),
    (2, 0, ["1/7", "3/10"], 1,
     "30c0a8cacd0444b3fd70d5e9446dff7f727d9e074ac1c71bade9b99f853d15be"),
    (2, 1, ["1/7", "3/10"], 1,
     "214dfe31e41258a362723439e23ba6c86808b5cf53660bdd1f3f6289e11466d3"),
    (2, 2, ["1/7", "3/10"], 2,
     "587a0d02d24d8019cbb12e778d632dfcec1f7212bc7820ade974347b8e13d344"),
    (2, 3, ["1/7", "3/10"], 5,
     "e03ebe9d55b6a2a1e3550dc47bc69852b7d08ed7361568ee7f0e1d778b3efc70"),
]


@pytest.mark.parametrize("t, n, ps, examined, digest", PINS)
def test_scan_report_pinned(t, n, ps, examined, digest):
    rep = conjecture_scan("TIntersectingSharp", {"t": t, "n": n, "ps": ps})
    d = rep.to_dict()
    assert d["families_examined"] == examined and d["candidates"] == []
    text = json.dumps(d, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


#: (ranges, budget, families_examined, complete, sha256 as above).  The
#: rows without a budget were recorded with the walk over every family,
#: before the scan took a size floor.  A budget counts the nodes of the
#: floored walk, whose floor counts the later sets neither blocked nor
#: dead; it takes 33, 633 and 4,407 nodes on the three budgeted ranges,
#: so the budgeted rows are recorded with that walk, one on each side of
#: those counts (the rows at a count come last).  The budgets 171, 21,447
#: and 45,608 are the node counts of the earlier floor, which still counted
#: dead sets as able to join; the same families now come in fewer nodes,
#: so those budgets still complete.
EMC_PINS = [
    ({"n": 9, "k": 2, "s": 1, "d": 1}, None, 1, True,
     "36cf3f6039f4eb99bbed7fc4fe8fc7496f8168f842b53028870afba90bef2263"),
    ({"n": 9, "k": 2, "s": 2, "d": 1}, None, 1, True,
     "d42df1cf4f9e6788a4ec1e93cfb2f9fe9e4d400c4ce8ec5f0b36bb6cf46009bc"),
    ({"n": 9, "k": 2, "s": 2, "d": 1}, 100_000, 1, True,
     "d42df1cf4f9e6788a4ec1e93cfb2f9fe9e4d400c4ce8ec5f0b36bb6cf46009bc"),
    ({"n": 9, "k": 2, "s": 3, "d": 1}, None, 0, True,
     "ad5bf62982cd0d134748e27340a0f24f9eea88636f2c29a02a8cbe8630c8e5b4"),
    ({"n": 9, "k": 2, "s": 3, "d": 1}, 171, 0, True,
     "ad5bf62982cd0d134748e27340a0f24f9eea88636f2c29a02a8cbe8630c8e5b4"),
    ({"n": 9, "k": 2, "s": 3, "d": 1}, 32, 0, False,
     "2ebe60f59df7c4a662022d8ce63548e5c67eb4ce800f15e80866bfc3b4a75982"),
    ({"n": 9, "k": 2, "s": 3, "d": 2}, None, 0, True,
     "8e70c5e168eb63aec06f08555ad417aec027e09ffc601ccf692f0e35593aa20e"),
    ({"n": 10, "k": 3, "s": 1, "d": 1}, None, 1, True,
     "0d379496521308ba6df323b66f80104d8f3b6012d1b4ccefa64b7eae6789a266"),
    ({"n": 10, "k": 3, "s": 2, "d": 1}, None, 1, True,
     "df30ce4071e9a02f9b39000abf3a21ba004a28bb4bb69cea601319a48bc0beb5"),
    ({"n": 10, "k": 3, "s": 2, "d": 1}, 21_447, 1, True,
     "df30ce4071e9a02f9b39000abf3a21ba004a28bb4bb69cea601319a48bc0beb5"),
    ({"n": 10, "k": 3, "s": 2, "d": 1}, 632, 1, False,
     "94be12500330c552b0e154519d068cade43e1fea3593db7bc5bbb84b92d949de"),
    ({"n": 10, "k": 3, "s": 2, "d": 2}, None, 53, True,
     "7b42d05f89abaa9d0ff91b37ec89cb14361493d5dab3c22bcca40eb364ab1ec5"),
    ({"n": 10, "k": 3, "s": 2, "d": 2}, 45_608, 53, True,
     "7b42d05f89abaa9d0ff91b37ec89cb14361493d5dab3c22bcca40eb364ab1ec5"),
    ({"n": 10, "k": 3, "s": 2, "d": 2}, 4_406, 53, False,
     "1905085b3288677814bac5b566742de615d7d7c4998a7dc27e1c7a3cd0ac72b6"),
    ({"n": 10, "k": 3, "s": 2, "d": 2}, 2_000, 31, False,
     "d31559647cabe21b6b03feeccdd341d9f7052720b1be6090fe79ce535b77d2ef"),
    ({"n": 9, "k": 2, "s": 3, "d": 1}, 33, 0, True,
     "ad5bf62982cd0d134748e27340a0f24f9eea88636f2c29a02a8cbe8630c8e5b4"),
    ({"n": 10, "k": 3, "s": 2, "d": 1}, 633, 1, True,
     "df30ce4071e9a02f9b39000abf3a21ba004a28bb4bb69cea601319a48bc0beb5"),
    ({"n": 10, "k": 3, "s": 2, "d": 2}, 4_407, 53, True,
     "7b42d05f89abaa9d0ff91b37ec89cb14361493d5dab3c22bcca40eb364ab1ec5"),
]


@pytest.mark.parametrize("ranges, budget, examined, complete, digest",
                         EMC_PINS)
def test_emc_stability_report_pinned(ranges, budget, examined, complete,
                                     digest):
    d = conjecture_scan("EMCStability", ranges, budget=budget).to_dict()
    assert (d["families_examined"], d["complete"]) == (examined, complete)
    text = json.dumps(d, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
