import itertools

import pytest

from ekrlab import (EdgeGround, SetFamily, UniformFamily,
                    are_cross_intersecting, compress, is_intersecting,
                    is_t_intersecting, is_triangle_intersecting,
                    matching_number)
from ekrlab.bitops import coord_zero_mask
from ekrlab.shadows import increasing_shadow
from ekrlab.zoo import (dictatorship, hm_matching_e, or_family, t_umvirate,
                        tilde_f_ts, triangle_umvirate)

from conftest import random_family, random_increasing_family


def test_up_closure_examples():
    f = SetFamily.from_sets(2, [[1]])
    assert set(f.up_closure().member_sets()) == {(1,), (1, 2)}
    g = or_family(3, 2)
    assert g.up_closure() == g  # increasing families are fixed points
    h = SetFamily.from_masks(3, [0])  # the empty set
    assert h.up_closure() == SetFamily.full(3)


def test_up_closure_properties(rng):
    for _ in range(50):
        n = rng.randint(1, 6)
        f = random_family(rng, n)
        g = random_family(rng, n)
        fu = f.up_closure()
        assert fu.is_increasing()
        assert f.issubset(fu)
        assert fu.up_closure() == fu
        if f.issubset(g):
            assert fu.issubset(g.up_closure())
        # minimality: dropping any added member breaks increasingness
        assert fu == SetFamily(n, fu.bits)


def _fixpoint_closure(fam: SetFamily) -> int:
    """Up-closure by repeating passes over the coordinates until none adds
    a member."""
    n, bits = fam.n, fam.bits
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = bits | ((bits & coord_zero_mask(n, i)) << (1 << i))
            if grown != bits:
                bits, changed = grown, True
    return bits


def test_up_closure_one_pass_matches_fixpoint(rng):
    for bits in range(1 << 8):
        fam = SetFamily(3, bits)
        assert fam.up_closure().bits == _fixpoint_closure(fam)
    # dense random families and sparse ones (a few random members, whose
    # closures grow the most)
    for _ in range(100):
        n = rng.randint(0, 10)
        sparse = 0
        for _ in range(rng.randint(0, 2 * n)):
            sparse |= 1 << rng.randrange(1 << n)
        for fam in (random_family(rng, n), SetFamily(n, sparse)):
            assert fam.up_closure().bits == _fixpoint_closure(fam)


def test_dual_examples():
    s2 = t_umvirate(4, 2)
    assert s2.dual() == or_family(4, 2)
    assert SetFamily.empty(3).dual() == SetFamily.full(3)


def test_dual_involution_and_identities(rng):
    for _ in range(200):
        n = rng.randint(1, 10) if rng.random() < 0.3 else rng.randint(1, 6)
        f = random_family(rng, n)
        assert f.dual().dual() == f
        assert f.dual() == f.bar().complement_family()
        assert f.dual() == f.complement_family().bar()


def test_t_intersecting_predicate():
    for k in (2, 3, 4):
        sl = t_umvirate(6, 2).uniform_slice(k)
        assert is_t_intersecting(sl, 2)
    assert not is_t_intersecting(SetFamily.from_sets(4, [[1, 2], [3, 4]]), 1)
    assert is_t_intersecting(tilde_f_ts(6, 2, 2), 2)
    # downward monotone in t
    f = tilde_f_ts(6, 3, 2)
    assert is_t_intersecting(f, 3)
    for tp in (1, 2):
        assert is_t_intersecting(f, tp)


def test_cross_intersecting():
    d1 = dictatorship(3, 1)
    assert are_cross_intersecting(d1, d1)
    assert not are_cross_intersecting(SetFamily.from_sets(2, [[1]]),
                                      SetFamily.from_sets(2, [[2]]))
    s2 = t_umvirate(5, 2)
    shadow = increasing_shadow(s2, 1)
    assert are_cross_intersecting(s2, shadow)


def test_triangle_intersecting():
    tu = triangle_umvirate(4)
    assert is_triangle_intersecting(tu)

    eg6 = EdgeGround(6)
    two_disjoint = SetFamily.from_masks(
        eg6.n,
        [eg6.edge_mask([(1, 2), (1, 3), (2, 3)]),
         eg6.edge_mask([(4, 5), (4, 6), (5, 6)])],
        edges=eg6)
    assert not is_triangle_intersecting(two_disjoint)

    # a non-member graph meeting every member in a triangle may be added
    eg = EdgeGround(4)
    tri = eg.edge_mask([(1, 2), (1, 3), (2, 3)])
    extra = tri | eg.edge_mask([(1, 4)])
    fam = SetFamily.from_masks(eg.n, [m for m in triangle_umvirate(4)] + [extra],
                               edges=eg)
    assert is_triangle_intersecting(fam)

    plain = SetFamily.full(3)
    with pytest.raises(ValueError):
        is_triangle_intersecting(plain)


def test_matching_number():
    or2 = or_family(9, 2).uniform_slice(2)
    assert matching_number(or2) == 2
    assert matching_number(UniformFamily.full(7, 2)) == 3
    assert matching_number(UniformFamily.full(9, 3)) == 3
    assert matching_number(hm_matching_e(9, 3, 2)) == 2
    # the empty set contributes exactly one
    assert matching_number(SetFamily.from_masks(3, [0])) == 1
    assert matching_number(SetFamily.from_masks(3, [0, 0b001])) == 2
    assert matching_number(SetFamily.empty(3)) == 0


def test_matching_number_is_one_iff_intersecting(rng):
    # sole exception: {emptyset} has matching number 1 (the empty set counts
    # once) while failing the intersecting predicate
    assert matching_number(SetFamily.from_masks(2, [0])) == 1
    for _ in range(120):
        n = rng.randint(1, 5)
        f = random_family(rng, n)
        if f.bits == 1:
            continue
        lhs = matching_number(f) == 1
        rhs = len(f) > 0 and is_intersecting(f) and 0 not in f
        assert lhs == rhs


def test_compress_examples():
    f = UniformFamily.from_sets(3, 2, [[2, 3]])
    assert compress(f, 1, 2) == UniformFamily.from_sets(3, 2, [[1, 3]])
    g = UniformFamily.from_sets(3, 2, [[1, 3], [2, 3]])
    assert compress(g, 1, 2) == g  # target present, blocked
    with pytest.raises(ValueError):
        compress(f, 2, 2)


def test_compress_preserves_cardinality_idempotent(rng):
    universe = list(itertools.combinations(range(1, 6), 3))
    for _ in range(80):
        members = [s for s in universe if rng.random() < 0.5]
        fam = UniformFamily.from_sets(5, 3, members)
        i, j = rng.sample(range(1, 6), 2)
        c = compress(fam, i, j)
        assert len(c) == len(fam)
        assert compress(c, i, j) == c


def test_compress_preserves_two_intersecting_sweep():
    # all 2-intersecting subfamilies of [5]^(3)
    universe = [UniformFamily.from_sets(5, 3, [c]) for c in
                itertools.combinations(range(1, 6), 3)]
    masks = [next(iter(u.members)) for u in universe]
    count = 0
    for bits in range(1 << len(masks)):
        members = [m for i, m in enumerate(masks) if (bits >> i) & 1]
        fam = UniformFamily(5, 3, members)
        if not is_t_intersecting(fam, 2):
            continue
        count += 1
        for i in range(1, 5):
            for j in range(i + 1, 6):
                assert is_t_intersecting(compress(fam, i, j), 2)
    assert count > 1  # the sweep actually exercised families


def test_membership_and_iteration_order(rng):
    f = random_family(rng, 5)
    masks = list(f)
    assert masks == sorted(masks)
    for m in masks[:10]:
        assert m in f
    assert len(f) == len(masks)


def test_edge_ground_indexing():
    eg = EdgeGround(4)
    # colex on pairs: (1,2),(1,3),(2,3),(1,4),(2,4),(3,4)
    expect = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    for idx, pair in enumerate(expect, start=1):
        assert eg.pair_index(*pair) == idx


def test_minimal_members(rng):
    for _ in range(40):
        f = random_increasing_family(rng, 5)
        mins = set(f.minimal_members())
        for m in f:
            assert any(mm & m == mm for mm in mins) or not mins
        for mm in mins:
            for i in range(5):
                if (mm >> i) & 1:
                    assert (mm & ~(1 << i)) not in f
