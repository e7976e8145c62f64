import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekrlab
from ekrlab import (SetFamily, UniformFamily, increasing_shadow,
                    is_t_intersecting, katona_check, kk_min_shadow,
                    lower_shadow, upper_shadow)
from ekrlab.bitops import mask_of
from ekrlab.shadows import cascade_decomposition
from ekrlab.zoo import c_ts, dictatorship, or_family, t_umvirate

from conftest import random_increasing_family

F = Fraction


def _sets(fam):
    return set(fam.member_sets())


def _lex_segment(n, k, m):
    """The first m k-subsets of [n] in lex order."""
    return UniformFamily.from_sets(
        n, k, list(itertools.combinations(range(1, n + 1), k))[:m])


def _colex_segment(n, k, m):
    """The first m k-subsets of [n] in colex order: tuples compared from
    the largest element down."""
    return UniformFamily.from_sets(
        n, k, sorted(itertools.combinations(range(1, n + 1), k),
                     key=lambda c: c[::-1])[:m])


def _lift(g, big_n, k):
    """The k-subsets of [big_n] whose trace on [g.n] is a member of g."""
    trace = (1 << g.n) - 1
    return UniformFamily.from_sets(
        big_n, k, [c for c in itertools.combinations(range(1, big_n + 1), k)
                   if (mask_of(c) & trace) in g])


def test_lower_shadow_examples():
    fam = UniformFamily.from_sets(4, 3, [[1, 2, 3]])
    assert _sets(lower_shadow(fam)) == {(1, 2), (1, 3), (2, 3)}
    full = UniformFamily.full(5, 3)
    assert lower_shadow(full) == UniformFamily.full(5, 2)
    seg = _colex_segment(4, 2, 3)
    assert _sets(seg) == {(1, 2), (1, 3), (2, 3)}
    assert _sets(lower_shadow(seg)) == {(1,), (2,), (3,)}


def test_lower_shadow_minimum_bruteforce():
    # every 3-member subfamily of [4]^(2) has shadow at least 3
    universe = list(itertools.combinations(range(1, 5), 2))
    best = min(len(lower_shadow(UniformFamily.from_sets(4, 2, trio)))
               for trio in itertools.combinations(universe, 3))
    assert best == 3 == kk_min_shadow(3, 2)


def test_increasing_shadow_examples():
    s2 = t_umvirate(4, 2)
    assert increasing_shadow(s2, 2) == SetFamily.full(4)
    assert increasing_shadow(s2, 1) == or_family(4, 2)
    assert increasing_shadow(SetFamily.empty(4), 1) == SetFamily.empty(4)
    assert increasing_shadow(s2, 0) == s2
    with pytest.raises(ValueError):
        increasing_shadow(SetFamily.from_sets(3, [[1, 2]]), 1)


def test_increasing_shadow_properties(rng):
    for _ in range(20):
        fam = random_increasing_family(rng, 5)
        sh1 = increasing_shadow(fam, 1)
        sh2 = increasing_shadow(fam, 2)
        assert fam.bits & ~sh1.bits == 0 and sh1.bits & ~sh2.bits == 0
        assert sh1.is_increasing()
        # agreement with the definition by direct enumeration
        direct = SetFamily.from_predicate(
            5, lambda a: any((a | c) in fam
                             for c in range(32) if bin(c).count("1") == 1))
        assert sh1 == direct


def test_upper_shadow_examples():
    fam = UniformFamily.from_sets(3, 1, [[1]])
    assert _sets(upper_shadow(fam)) == {(1, 2), (1, 3)}
    assert upper_shadow(UniformFamily.full(5, 2), 2) == UniformFamily.full(5, 4)


def test_upper_shadow_of_lift_slices(rng):
    # for increasing G on [n] and n <= k <= k0 <= N, the (k0-k)-fold upper
    # shadow of the k-lift is the k0-lift (each big member keeps its trace
    # on [n] while padding elements move freely)
    for _ in range(10):
        g = random_increasing_family(rng, 3)
        for big_n, k, k0 in ((6, 3, 5), (7, 4, 6), (6, 4, 5)):
            lo = _lift(g, big_n, k)
            hi = _lift(g, big_n, k0)
            if len(lo) == 0:
                assert len(hi) == 0
                continue
            assert upper_shadow(lo, k0 - k) == hi


def test_shadow_adjointness(rng):
    for _ in range(10):
        universe = list(itertools.combinations(range(1, 6), 2))
        members = [c for c in universe if rng.random() < 0.4]
        if not members:
            continue
        fam = UniformFamily.from_sets(5, 2, members)
        up = upper_shadow(fam, 1)
        for combo in itertools.combinations(range(1, 6), 3):
            b = UniformFamily.from_sets(5, 3, [combo])
            in_up = combo in _sets(up)
            meets = bool(_sets(lower_shadow(b)) & _sets(fam))
            assert in_up == meets


def test_lex_colex_segments():
    assert _sets(_lex_segment(4, 2, 3)) == {(1, 2), (1, 3), (1, 4)}
    assert _sets(_colex_segment(4, 2, 3)) == {(1, 2), (1, 3), (2, 3)}
    # a lex segment of size C(n-1,k-1) is the dictatorship slice
    seg = _lex_segment(5, 3, math.comb(4, 2))
    assert seg == dictatorship(5, 1).uniform_slice(3)
    # ... and of size C(n-t,k-t) the [t]-umvirate slice
    n, k, t = 6, 3, 2
    seg = _lex_segment(n, k, math.comb(n - t, k - t))
    assert _sets(seg) == _sets(t_umvirate(n, t).uniform_slice(k))
    # C_{t,s} slices are initial lex segments
    n, t, s, keep = 6, 1, 2, 3
    sl = c_ts(n, t, s).uniform_slice(keep)
    assert _sets(sl) == _sets(_lex_segment(n, keep, len(sl)))


def test_kk_min_shadow():
    assert kk_min_shadow(3, 2) == 3
    for a in range(3, 8):
        assert kk_min_shadow(math.comb(a, 3), 3) == math.comb(a, 2)
    # m = 5, k = 3: compare against the colex segment and brute force
    seg = _colex_segment(6, 3, 5)
    assert kk_min_shadow(5, 3) == len(lower_shadow(seg))
    universe = list(itertools.combinations(range(1, 7), 3))
    brute = min(len(lower_shadow(UniformFamily.from_sets(6, 3, c)))
                for c in itertools.combinations(universe, 5))
    assert kk_min_shadow(5, 3) == brute
    assert kk_min_shadow(0, 3) == 0
    assert cascade_decomposition(5, 3) == [(4, 3), (2, 2)]


def _linear_cascade(m, k):
    """The cascade found one step of a_i at a time: the oracle."""
    out = []
    for i in range(k, 0, -1):
        if not m:
            break
        a = i - 1
        while math.comb(a + 1, i) <= m:
            a += 1
        out.append((a, i))
        m -= math.comb(a, i)
    return out


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(m=st.integers(0, 10**6), k=st.integers(1, 8))
def test_cascade_matches_the_linear_scan(m, k):
    assert cascade_decomposition(m, k) == _linear_cascade(m, k)


def test_kk_cascade_of_a_large_m_is_fast():
    # a one-step-at-a-time cascade took tens of seconds here; the timeout
    # fails the test instead of hanging it
    env = dict(os.environ, PYTHONPATH=str(Path(ekrlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ekrlab.cli", "kk", "--m", str(10**21),
         "--k", "3"], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["cascade"] == [[18171206, 3], [17507854, 2], [13866449, 1]]
    assert out["min_shadow"] == 165096372169470


def test_colex_segment_attains_kk_minimum():
    for n, k in ((5, 2), (5, 3)):
        for m in range(math.comb(n, k) + 1):
            seg = _colex_segment(n, k, m)
            if m:
                assert len(lower_shadow(seg)) == kk_min_shadow(m, k)


def test_katona_uniform():
    sl = t_umvirate(5, 2).uniform_slice(3)
    rep = katona_check(sl, 2)
    assert rep.conclusion_holds
    # shadow of the three {1,2,x} is all five singletons
    assert len(lower_shadow(sl, 2)) == 5 >= len(sl) == 3
    with pytest.raises(ValueError):
        katona_check(UniformFamily.from_sets(4, 2, [[1, 2], [3, 4]]), 1)


def test_katona_uniform_sweep_5_3():
    universe = list(itertools.combinations(range(1, 6), 3))
    count = 0
    for bits in range(1, 1 << len(universe)):
        members = [c for i, c in enumerate(universe) if (bits >> i) & 1]
        fam = UniformFamily.from_sets(5, 3, members)
        if not is_t_intersecting(fam, 2):
            continue
        count += 1
        assert katona_check(fam, 2).conclusion_holds
    assert count > 0


def test_katona_biased():
    for t in (1, 2):
        s_t = t_umvirate(4, t)
        for p in (F(1, 4), F(1, 2), F(2, 3)):
            rep = katona_check(s_t, t, p)
            assert rep.conclusion_holds
    g = c_ts(4, 2, 2).up_closure()
    assert katona_check(g, 2, F(1, 3)).conclusion_holds


def test_increasing_shadow_s_larger_than_ground():
    s2 = t_umvirate(3, 2)
    assert increasing_shadow(s2, 4) == SetFamily.empty(3)


def test_kk_min_shadow_multifold_bruteforce():
    universe = list(itertools.combinations(range(1, 6), 3))
    best = {}
    for bits in range(1, 1 << len(universe)):
        members = [c for i, c in enumerate(universe) if (bits >> i) & 1]
        fam = UniformFamily.from_sets(5, 3, members)
        size = len(lower_shadow(fam, 2))
        m = len(members)
        best[m] = min(best.get(m, 10**9), size)
    for m, val in best.items():
        assert kk_min_shadow(m, 3, s=2) == val
