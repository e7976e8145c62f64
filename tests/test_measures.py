from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrlab import (MeasurePolynomial, SetFamily, cross_measure_bound,
                    edge_boundary, influence, iso_slack, log_measure_profile,
                    measure_transfer_check, mu, mu_polynomial,
                    total_influence)
from ekrlab.bitops import popcount
from ekrlab.measures import point_measures, russo_identity
from ekrlab.search import enumerate_monotone
from ekrlab.zoo import c_ts, dictatorship, or_family, t_umvirate, tilde_gi

from conftest import random_family, random_increasing_family, random_rational

F = Fraction


def test_mu_examples(rng):
    for _ in range(5):
        p = random_rational(rng)
        assert mu(dictatorship(5, 2), p) == p
        for t in (1, 2, 3):
            assert mu(t_umvirate(5, t), p) == p**t
    assert mu(tilde_gi(3, 3), F(1, 4)) == F(5, 32)


def test_mu_polynomial_examples():
    assert mu_polynomial(dictatorship(4, 1)).coeffs == (F(0), F(1))
    assert mu_polynomial(tilde_gi(3, 3)).coeffs == (F(0), F(0), F(3), F(-2))
    assert mu_polynomial(SetFamily.empty(4)) == MeasurePolynomial.zero()


def test_mu_polynomial_matches_mu(rng):
    for _ in range(30):
        n = rng.randint(1, 6)
        fam = random_family(rng, n)
        poly = mu_polynomial(fam)
        for _ in range(5):
            p = random_rational(rng)
            assert poly(p) == mu(fam, p)


def test_point_measures():
    pm = point_measures(3, F(1, 4))
    assert pm == [F(27, 64), F(9, 64), F(3, 64), F(1, 64)]


def test_edge_boundary_subcube_equality():
    n = 4
    for t in (1, 2, 3, 4):
        rep = edge_boundary(t_umvirate(n, t), include_edges=False)
        assert rep.count == t * 2 ** (n - t)
        assert rep.is_subcube and rep.equality
    rep = edge_boundary(dictatorship(3, 1))
    assert rep.count == 4
    assert len(rep.edges) == 4


def test_edge_boundary_sweep_n3():
    # equality in the lower bound exactly at subcubes, all 256 subsets
    for bits in range(1 << 8):
        fam = SetFamily(3, bits)
        rep = edge_boundary(fam, include_edges=False)
        if bits == 0:
            assert rep.harper is None
            continue
        assert rep.harper.holds
        assert rep.equality == rep.is_subcube


def test_influence_examples():
    for t in (1, 2, 3):
        vec = influence(t_umvirate(5, t))
        # t * p^(t-1) as a polynomial
        expect = MeasurePolynomial([0] * (t - 1) + [t])
        assert vec.total == expect
    assert total_influence(tilde_gi(3, 3), F(1, 2)) == F(3, 2)
    vec = influence(SetFamily.full(4))
    assert vec.total == MeasurePolynomial.zero()
    assert influence(SetFamily.empty(4)).total == MeasurePolynomial.zero()


def test_influence_matches_pivotal_enumeration(rng):
    for _ in range(20):
        n = rng.randint(1, 5)
        fam = random_increasing_family(rng, n)
        p = random_rational(rng)
        vec = influence(fam)
        for i in range(n):
            pivotal = sum(
                point_measures(n, p)[bin(x).count("1")]
                for x in range(1 << n)
                if ((x in fam) != ((x ^ (1 << i)) in fam)))
            assert vec.per_coordinate[i](p) == pivotal


def test_russo_identity_examples():
    assert russo_identity(dictatorship(4, 1))
    g3 = tilde_gi(3, 3)
    assert mu_polynomial(g3).derivative().coeffs == (F(0), F(6), F(-6))
    assert russo_identity(g3)
    with pytest.raises(ValueError):
        russo_identity(SetFamily.from_sets(2, [[1]]))  # not increasing


def _pivots_by_member_scan(fam: SetFamily) -> list[list[int]]:
    """piv[i][j]: the size-j points whose membership flips with coordinate
    i, found from the member end of each pivotal edge and counted at both
    ends."""
    n = fam.n
    piv = [[0] * (n + 1) for _ in range(n)]
    for m in fam:
        for i in range(n):
            if (m ^ (1 << i)) not in fam:
                piv[i][popcount(m)] += 1
                piv[i][popcount(m ^ (1 << i))] += 1
    return piv


def _russo_by_monomials(fam: SetFamily) -> bool:
    """d(mu_p)/dp == total influence, both expanded into monomials."""
    total = map(sum, zip(*_pivots_by_member_scan(fam)))
    return (MeasurePolynomial.from_weights(fam.n, fam.weight_vector())
            .derivative() == MeasurePolynomial.from_weights(fam.n, total))


def _russo_on_any_family(fam: SetFamily) -> bool:
    """russo_identity with the increasing-input guard lifted, so that the
    coefficient comparison also meets families where the identity fails."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SetFamily, "is_increasing", lambda self: True)
        return russo_identity(fam)


@st.composite
def _families(draw):
    """A family on [n], n <= 12: dense (every subset drawn) or a few drawn
    members, and up-closed half of the time."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        bits = draw(st.integers(0, (1 << (1 << n)) - 1))
    else:
        bits = 0
        for x in draw(st.lists(st.integers(0, (1 << n) - 1),
                               max_size=2 * n + 1)):
            bits |= 1 << x
    fam = SetFamily(n, bits)
    return fam.up_closure() if draw(st.booleans()) else fam


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_families())
def test_russo_identity_matches_monomial_comparison(fam):
    expect = _russo_by_monomials(fam)
    if fam.is_increasing():
        assert expect and russo_identity(fam)
    assert _russo_on_any_family(fam) == expect


def test_russo_comparison_fails_off_increasing_families():
    # the lifted check is no constant: a family that is not increasing
    # breaks the identity on both sides
    for fam in (SetFamily.from_sets(2, [[1]]), SetFamily.from_masks(3, [0])):
        assert not _russo_by_monomials(fam)
        assert not _russo_on_any_family(fam)


@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(st.integers(23, 24), st.data())
def test_russo_identity_member_scan_branch(n, data):
    # sparse increasing families above the scan threshold: each generator
    # misses at most 3 elements, so its up-set has at most 8 members
    gens = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), max_size=3, unique=True),
        min_size=1, max_size=4))
    fam = SetFamily.from_masks(
        n, [((1 << n) - 1) & ~sum(1 << i for i in gen) for gen in gens]
    ).up_closure()
    assert _russo_by_monomials(fam) and russo_identity(fam)
    assert [list(row) for row in influence(fam).pivots] \
        == _pivots_by_member_scan(fam)


def _pivots_by_points(fam: SetFamily) -> list[list[int]]:
    """piv[i][j] from every cube point x of size j: whether x and x ^ i
    differ in membership."""
    n = fam.n
    piv = [[0] * (n + 1) for _ in range(n)]
    for x in range(1 << n):
        for i in range(n):
            if (x in fam) != ((x ^ (1 << i)) in fam):
                piv[i][popcount(x)] += 1
    return piv


def test_influence_pivots_match_point_count(rng):
    fams = [SetFamily(n, bits)
            for n in range(4) for bits in range(1 << (1 << n))]
    for _ in range(40):
        n = rng.randint(4, 6)
        fams += [random_family(rng, n), random_increasing_family(rng, n)]
    for fam in fams:
        pivots = influence(fam).pivots
        assert [list(row) for row in pivots] == _pivots_by_points(fam)


def test_russo_identity_all_monotone_n4():
    for fam in enumerate_monotone(4):
        assert russo_identity(fam)


def test_iso_slack_examples():
    rep = iso_slack(t_umvirate(4, 2), F(1, 3))
    assert rep.status == "ok" and rep.equal and rep.is_increasing_subcube
    assert rep.structure_consistent

    rep = iso_slack(tilde_gi(3, 3), F(1, 2))
    assert rep.status == "ok" and not rep.equal
    assert abs(rep.slack - 0.25) < 1e-20

    anti = SetFamily.from_predicate(3, lambda m: not m & 1)
    rep = iso_slack(anti, F(2, 3))
    assert rep.status == "skipped"
    # ... but arbitrary families are fine at p <= 1/2
    assert iso_slack(anti, F(1, 2)).status == "ok"

    assert iso_slack(SetFamily.full(3), F(1, 2)).status == "vacuous"
    assert iso_slack(SetFamily.empty(3), F(1, 2)).status == "vacuous"


def test_log_measure_profile():
    prof = log_measure_profile(t_umvirate(4, 2), [F(1, 4), F(1, 2), F(3, 4)])
    assert prof.is_increasing_subcube
    assert prof.non_increasing and not prof.strictly_decreasing_somewhere
    for _, val in prof.points:
        assert abs(val - 2) < 1e-20

    prof = log_measure_profile(tilde_gi(3, 3), [F(1, 4), F(1, 2)])
    assert prof.non_increasing and prof.strictly_decreasing_somewhere

    prof = log_measure_profile(or_family(4, 2),
                               [F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(5, 8)])
    assert prof.non_increasing and prof.strictly_decreasing_somewhere

    with pytest.raises(ValueError):
        log_measure_profile(SetFamily.full(3), [F(1, 2)])
    with pytest.raises(ValueError):
        log_measure_profile(tilde_gi(3, 3), [F(1, 2), F(1, 4)])  # not ascending


def test_measure_transfer_umvirate_mode():
    # all increasing families on [4] with mu_{1/2} <= 1/2 transfer to 1/4
    checked = 0
    for fam in enumerate_monotone(4):
        if mu(fam, F(1, 2)) > F(1, 2):
            continue
        rep = measure_transfer_check(fam, F(1, 2), F(1, 4), "umvirate", t=1)
        assert rep.conclusion_holds
        checked += 1
    assert checked > 50

    rep = measure_transfer_check(t_umvirate(4, 2), F(1, 2), F(1, 3),
                                 "umvirate", t=2)
    assert rep.conclusion_holds
    assert "equality: family is a t-umvirate" in rep.notes

    g3 = tilde_gi(4, 3)
    rep = measure_transfer_check(g3, F(1, 2), F(1, 4), "umvirate", t=1)
    assert rep.conclusion_holds
    assert mu(g3, F(1, 4)) == F(5, 32) < F(1, 4)  # strict at p


def test_measure_transfer_or_and_lex_modes():
    o2 = or_family(4, 2)
    rep = measure_transfer_check(o2, F(1, 2), F(1, 4), "or", t=2)
    assert rep.conclusion_holds
    assert "equality: family is an OR-family" in rep.notes

    c12 = c_ts(5, 1, 2)
    rep = measure_transfer_check(c12, F(1, 2), F(1, 4), "lex", t=1, x=2)
    assert rep.conclusion_holds

    rep = measure_transfer_check(SetFamily.full(4), F(1, 2), F(1, 4),
                                 "umvirate", t=1)
    assert rep.conclusion_holds is None  # hypothesis not met
    assert any("hypothesis not met" in n for n in rep.notes)


def test_cross_measure_bound():
    d = dictatorship(3, 1)
    rep = cross_measure_bound(d, d, F(1, 3))
    assert rep.conclusion_holds

    s2 = t_umvirate(5, 2)
    rep = cross_measure_bound(s2, s2, F(1, 3))
    assert rep.conclusion_holds

    # full x full fails cross-intersection (the empty set misses everything)
    with pytest.raises(ValueError):
        cross_measure_bound(SetFamily.full(3), SetFamily.full(3), F(1, 3))


def test_cross_measure_bound_random_pairs(rng):
    found = 0
    for _ in range(60):
        f = random_increasing_family(rng, 5)
        if f.bits == 0 or mu(f, F(1, 3)) == 1:
            continue
        g = (f.dual() & random_increasing_family(rng, 5)).up_closure() & f.dual()
        if g.bits == 0 or not g.is_increasing():
            continue
        rep = cross_measure_bound(f, g, F(1, 3))
        assert rep.conclusion_holds
        found += 1
    assert found > 10


def test_measure_identities(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        fam = random_family(rng, n)
        p = random_rational(rng)
        assert mu(fam, p) + mu(fam.complement_family(), p) == 1
        assert mu(fam.bar(), p) == mu(fam, 1 - p)
        assert mu(fam.dual(), p) == 1 - mu(fam, 1 - p)


def test_weight_vector_counts(rng):
    fam = SetFamily.from_sets(4, [[1], [1, 2], [2, 3, 4], [1, 2, 3, 4]])
    assert fam.weight_vector() == [0, 1, 1, 1, 1]
    big = random_family(rng, 6)
    assert sum(big.weight_vector()) == len(big)
    assert big.weight_vector() == [
        sum(1 for m in big if bin(m).count("1") == j) for j in range(7)]


def test_edge_boundary_edge_list_matches_brute(rng):
    for _ in range(15):
        fam = random_family(rng, 4)
        rep = edge_boundary(fam)
        brute = set()
        for x in range(16):
            for i in range(4):
                y = x | (1 << i)
                if y != x and ((x in fam) != (y in fam)):
                    brute.add((x, y))
        assert set(rep.edges) == brute
        assert rep.count == len(brute)


def test_iso_domain_restriction_is_real():
    # the skipped domain genuinely fails: for the family of sets avoiding 1,
    # at p = 2/3 the raw slack is negative, so skipping is not conservatism
    from ekrlab.numerics import to_mpf
    import mpmath

    anti = SetFamily.from_predicate(3, lambda m: not m & 1)
    p = F(2, 3)
    with mpmath.workdps(30):
        lhs = to_mpf(p * total_influence(anti, p))
        m = to_mpf(mu(anti, p))
        rhs = m * mpmath.log(m) / mpmath.log(to_mpf(p))
        assert lhs < rhs
    assert iso_slack(anti, p).status == "skipped"


def test_iso_holds_for_arbitrary_families_up_to_half(rng):
    for bits in range(1 << 8):
        fam = SetFamily(3, bits)
        for p in (F(1, 4), F(1, 2)):
            rep = iso_slack(fam, p)
            assert rep.status in ("ok", "vacuous")
            assert rep.status != "ok" or rep.holds


def test_mu_polynomial_boundary_values(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        fam = random_family(rng, n)
        poly = mu_polynomial(fam)
        full_mask = (1 << n) - 1
        assert poly(1) == (1 if full_mask in fam else 0)
        assert poly(0) == (1 if 0 in fam else 0)


def test_influence_polynomials_bounded(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        fam = random_family(rng, n)
        vec = influence(fam)
        assert vec.total.degree <= n
        p = random_rational(rng)
        for val in vec.at(p):
            assert 0 <= val <= 1
        assert vec.total_at(p) == sum(vec.at(p))
