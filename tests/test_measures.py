import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrlab import SetFamily, influence, mu, mu_polynomial
from ekrlab.bitops import popcount
from ekrlab.cli import main
from ekrlab.measures import polynomial, power_table, russo_identity
from ekrlab.numerics import fmt_rational
from ekrlab.zoo import dictatorship, t_umvirate, tilde_gi

from conftest import (monotone_families, random_family,
                      random_increasing_family, random_rational)

F = Fraction


def _horner(coeffs, p):
    """The polynomial with monomial coefficients `coeffs` at p."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def _derivative(coeffs):
    """The monomial coefficients of the derivative."""
    return tuple(m * c for m, c in enumerate(coeffs))[1:]


def test_mu_examples(rng):
    for _ in range(5):
        p = random_rational(rng)
        assert mu(dictatorship(5, 2), p) == p
        for t in (1, 2, 3):
            assert mu(t_umvirate(5, t), p) == p**t
    assert mu(tilde_gi(3, 3), F(1, 4)) == F(5, 32)


def test_mu_polynomial_examples():
    assert mu_polynomial(dictatorship(4, 1)) == (0, 1)
    assert mu_polynomial(tilde_gi(3, 3)) == (0, 0, 3, -2)
    assert mu_polynomial(SetFamily.empty(4)) == ()


def test_mu_polynomial_matches_mu(rng):
    for _ in range(30):
        n = rng.randint(1, 6)
        fam = random_family(rng, n)
        poly = mu_polynomial(fam)
        for _ in range(5):
            p = random_rational(rng)
            assert _horner(poly, p) == mu(fam, p)


def test_point_measures():
    pw, den = power_table(3, F(1, 4))
    assert [F(x, den) for x in pw] == [F(27, 64), F(9, 64), F(3, 64), F(1, 64)]


def test_influence_examples():
    for t in (1, 2, 3):
        vec = influence(t_umvirate(5, t))
        # t * p^(t-1) as a polynomial
        assert vec.total == (0,) * (t - 1) + (t,)
    assert influence(tilde_gi(3, 3)).total_at(F(1, 2)) == F(3, 2)
    assert influence(SetFamily.full(4)).total == ()
    assert influence(SetFamily.empty(4)).total == ()


def test_influence_matches_pivotal_enumeration(rng):
    for _ in range(20):
        n = rng.randint(1, 5)
        fam = random_increasing_family(rng, n)
        p = random_rational(rng)
        vec = influence(fam)
        pw, den = power_table(n, p)
        for i in range(n):
            pivotal = sum(
                F(pw[bin(x).count("1")], den)
                for x in range(1 << n)
                if ((x in fam) != ((x ^ (1 << i)) in fam)))
            assert vec.at(p)[i] == pivotal


def test_russo_identity_examples():
    assert russo_identity(dictatorship(4, 1))
    g3 = tilde_gi(3, 3)
    assert _derivative(mu_polynomial(g3)) == (0, 6, -6)
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
    return (_derivative(polynomial(fam.n, fam.weight_vector()))
            == polynomial(fam.n, total))


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
    for fam in monotone_families(4):
        assert russo_identity(fam)


def _printed(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_russo_margulis_on_the_printed_polynomials(capsys, rng):
    # what `measure --polynomial` and `influence` print: the coefficients
    # at the command's p are the printed mu, and their derivative is the
    # printed total influence polynomial
    for fam in monotone_families(4):
        source = json.dumps({"n": 4, "sets": [list(s) for s in fam.member_sets()]})
        p = fmt_rational(random_rational(rng))
        measured = _printed(capsys, "measure", "--family", source, "--p", p,
                            "--polynomial")
        coeffs = tuple(map(F, measured["polynomial"]))
        assert _horner(coeffs, F(p)) == F(measured["mu"])
        total = _printed(capsys, "influence", "--family", source, "--p", p)
        assert _derivative(coeffs) == tuple(map(F, total["total_polynomial"]))
        assert _horner(_derivative(coeffs), F(p)) == F(total["total"])


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


def test_mu_polynomial_boundary_values(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        fam = random_family(rng, n)
        poly = mu_polynomial(fam)
        full_mask = (1 << n) - 1
        assert _horner(poly, 1) == (1 if full_mask in fam else 0)
        assert _horner(poly, 0) == (1 if 0 in fam else 0)


def test_influence_polynomials_bounded(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        fam = random_family(rng, n)
        vec = influence(fam)
        assert len(vec.total) <= n + 1
        p = random_rational(rng)
        for val in vec.at(p):
            assert 0 <= val <= 1
        assert vec.total_at(p) == sum(vec.at(p))
