import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrlab import (FamilySpec, SetFamily, UniformFamily, ak_max,
                    closed_form_mu, closed_form_size, construct,
                    defining_root, is_intersecting, is_t_intersecting,
                    matching_number, mu)
from ekrlab import families
from ekrlab.bitops import elements_of
from ekrlab.families import MAX_DENSE_N
from ekrlab.numerics import workdps
from ekrlab.zoo import (hm_matching_e, hm_matching_layout,
                        or_family, relabel, t_umvirate, triangle_umvirate)

from conftest import random_rational

F = Fraction


def spec(name, **params):
    return FamilySpec(name, params)


def test_ak_family_sizes():
    fam = construct(spec("ak_family", n=6, k=3, t=2, r=0))
    assert len(fam) == 4
    assert set(fam.member_sets()) == {(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6)}
    assert closed_form_size(spec("ak_family", n=6, k=3, t=2, r=0), 3) == 4
    assert closed_form_size(spec("ak_family", n=6, k=3, t=2, r=1), 3) == 4
    best, argmax = ak_max(6, 3, 2)
    assert best == 4 and argmax == [0, 1]


def test_tilde_gi_majority():
    fam = construct(spec("tilde_Gi", n=3, i=3))
    assert len(fam) == 4
    assert set(fam.member_sets()) == {(1, 2), (1, 3), (2, 3), (1, 2, 3)}


def test_tilde_d_predicate_enumeration():
    fam = construct(spec("tilde_D_sdl", n=6, s=2, d=2, l=2))
    for m in range(1 << 6):
        meets_1 = bool(m & 0b000001)
        exactly_s = (m & 0b000011) == 0b000010
        meets_window = bool(m & 0b001100)
        avoids = (m & 0b000011) == 0
        contains_l = (m & 0b001100) == 0b001100
        expect = meets_1 or (exactly_s and meets_window) or (avoids and contains_l)
        assert (m in fam) == expect


def test_closed_form_mu_matches_enumeration(rng):
    cases = [
        spec("dictatorship", n=7, j=1),
        spec("t_umvirate", n=8, t=3),
        spec("or_family", n=8, s=3),
        spec("tilde_Gi", n=9, i=4),
        spec("tilde_Gi", n=10, i=6),
        spec("tilde_F_ts", n=9, t=2, s=3),
        spec("tilde_F_ts", n=7, t=3, s=2),
        spec("tilde_H_tsr", n=10, t=2, s=3, r=2),
        spec("tilde_H_tsr", n=8, t=1, s=2, r=3),
        spec("tilde_D_sdl", n=9, s=2, d=3, l=2),
        spec("tilde_D_sdl", n=10, s=3, d=2, l=4),
        spec("C_ts_lex", n=8, t=2, s=2),
        spec("triangle_umvirate", v=4),
    ]
    for sp in cases:
        fam = construct(sp)
        for _ in range(5):
            p = random_rational(rng)
            assert closed_form_mu(sp, p) == mu(fam, p), sp


def test_closed_form_mu_examples():
    assert closed_form_mu(spec("tilde_Gi", n=5, i=3), F(1, 4)) == F(5, 32)
    assert closed_form_mu(spec("tilde_H_tsr", n=6, t=1, s=2, r=2),
                          F(1, 2)) == F(1, 2)
    # first clause p^3 = 1/27, off-part 2 p^2 (1-p) = 4/27; enumeration agrees
    got = closed_form_mu(spec("tilde_F_ts", n=5, t=2, s=1), F(1, 3))
    assert got == F(5, 27) == mu(construct(spec("tilde_F_ts", n=5, t=2, s=1)),
                                 F(1, 3))
    with pytest.raises(ValueError):
        closed_form_mu(spec("ak_family", n=6, k=3, t=2, r=0), F(1, 2))


def test_closed_form_size_matches_enumeration():
    cases = [
        (spec("dictatorship", n=7, j=1), (2, 3, 4)),
        (spec("t_umvirate", n=7, t=2), (2, 3, 4)),
        (spec("or_family", n=7, s=2), (2, 3)),
        (spec("frankl_Gi", n=6, k=3, i=3), (3,)),
        (spec("tilde_Gi", n=7, i=4), (2, 3, 4)),
        (spec("F_ts", n=8, k=3, t=1, s=2), (3,)),
        (spec("tilde_F_ts", n=7, t=2, s=2), (3, 4)),
        (spec("tilde_H_tsr", n=7, t=2, s=2, r=3), (3, 4)),
        (spec("tilde_D_sdl", n=7, s=2, d=2, l=3), (3, 4)),
        (spec("C_ts_lex", n=7, t=1, s=3), (2, 3)),
        (spec("conj_H", n=8, k=3, s=2, d=2), (3,)),
        (spec("triangle_umvirate", v=4), (3, 4)),
    ]
    for sp, ks in cases:
        fam = construct(sp)
        dense = fam if isinstance(fam, SetFamily) else fam.to_set_family()
        for k in ks:
            if isinstance(fam, UniformFamily) and k != fam.k:
                continue
            assert closed_form_size(sp, k) == len(dense.uniform_slice(k)), (sp, k)


def test_f_ts_off_part_count():
    n, k, t, s = 8, 3, 1, 2
    fam = construct(spec("F_ts", n=n, k=k, t=t, s=s))
    off = [m for m in fam.members if not m & 1]
    assert len(off) == t * math.comb(n - t - s, k - t - s + 1) == 5


def test_hm_matching_family():
    e922 = construct(spec("hm_matching_E", n=9, k=2, s=2))
    assert len(e922) == 8 < 15
    assert closed_form_size(spec("hm_matching_E", n=9, k=2, s=2), 2) == 8
    xs, ts = hm_matching_layout(9, 2, 2)
    assert xs == (1, 2)
    assert matching_number(e922) == 2
    e932 = hm_matching_e(9, 3, 2)
    assert matching_number(e932) == 2
    # deleting any single coordinate still leaves a full matching
    for fam in (e922, e932):
        for i in range(1, 10):
            rest = UniformFamily(fam.n, fam.k,
                                 (m for m in fam.members if not m & (1 << (i - 1))))
            assert matching_number(rest) == 2


def test_invariant_predicates():
    assert is_t_intersecting(construct(spec("tilde_F_ts", n=6, t=2, s=2)), 2)
    assert is_intersecting(construct(spec("tilde_Gi", n=6, i=4)))
    assert matching_number(construct(spec("tilde_D_sdl", n=7, s=2, d=2, l=3))) <= 2
    assert matching_number(construct(spec("tilde_D_sdl", n=7, s=3, d=2, l=2))) <= 3
    tu = construct(spec("t_umvirate", n=5, t=2))
    assert tu.increasing_subcube_generator() == 0b00011
    assert construct(spec("or_family", n=5, s=2)) == tu.dual()
    tri = construct(spec("triangle_umvirate", v=4))
    assert tri.increasing_subcube_generator() is not None
    assert mu(tri, F(1, 3)) == F(1, 27)


def test_tilde_h_root_measure():
    # after solving the defining equation, the measure at the root equals p0^t
    for (t, s, r) in ((1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 3, 2)):
        sp = spec("tilde_H_tsr", n=t + max(s, r) + 1, t=t, s=s, r=r)
        root = defining_root(sp)
        fam = construct(sp)
        if root.exact:
            assert root.value == F(1, 2)
            assert mu(fam, root.value) == root.value ** t
        else:
            # the sum runs in ekrlab's reals, at ekrlab's working precision
            with workdps(40):
                w = fam.weight_vector()
                x = root.value
                val = sum(w[j] * x**j * (1 - x) ** (fam.n - j)
                          for j in range(fam.n + 1))
                assert abs(val - x**t) < mpmath.mpf("1e-25")


def test_defining_root_values():
    sp = spec("tilde_H_tsr", n=6, t=1, s=2, r=3)
    root = defining_root(sp)
    with mpmath.workdps(40):
        golden = (3 - mpmath.sqrt(5)) / 2
        assert abs(root.value - golden) < mpmath.mpf("1e-25")
    assert defining_root(spec("tilde_D_sdl", n=6, s=2, d=2, l=2)).value == F(1, 2)
    with pytest.raises(ValueError):
        defining_root(spec("tilde_H_tsr", n=6, t=1, s=1, r=2))
    with pytest.raises(ValueError):
        defining_root(spec("tilde_Gi", n=5, i=3))


def test_validation_errors():
    with pytest.raises(ValueError):
        FamilySpec("ak_family", {"n": 5, "k": 3, "t": 2, "r": 2})  # t+2r > n
    with pytest.raises(ValueError):
        FamilySpec("tilde_Gi", {"n": 5, "i": 2})
    with pytest.raises(ValueError):
        FamilySpec("unknown_family", {})
    with pytest.raises(ValueError):
        FamilySpec("hm_matching_E", {"n": 4, "k": 2, "s": 2})


def test_relabel_is_isomorphic(rng):
    sp = spec("tilde_Gi", n=5, i=3)
    fam = construct(sp)
    perm = [3, 5, 1, 2, 4]
    moved = construct(sp, perm=perm)
    assert len(moved) == len(fam)
    p = F(1, 3)
    assert mu(moved, p) == mu(fam, p)
    assert moved != fam
    uni = construct(spec("F_ts", n=6, k=3, t=1, s=2))
    moved = relabel(uni, [2, 1, 3, 4, 5, 6])
    assert len(moved) == len(uni)


def test_spec_roundtrip():
    sp = spec("tilde_H_tsr", n=7, t=2, s=2, r=3)
    assert FamilySpec.from_dict(sp.to_dict()) == sp


#: the parameters besides n of each family built over the whole cube
DENSE_KEYS = {
    "dictatorship": ("j",), "t_umvirate": ("t",), "or_family": ("s",),
    "tilde_Gi": ("i",), "tilde_F_ts": ("t", "s"),
    "tilde_H_tsr": ("t", "s", "r"), "tilde_D_sdl": ("s", "d", "l"),
    "C_ts_lex": ("t", "s"),
}


def _dense_specs(max_n: int) -> list:
    """Every valid spec of a whole-cube family on [n], n <= max_n."""
    specs = []
    for name, keys in DENSE_KEYS.items():
        for n in range(max_n + 1):
            for vals in itertools.product(range(n + 2), repeat=len(keys)):
                try:
                    specs.append(FamilySpec(name, {"n": n, **dict(zip(keys, vals))}))
                except ValueError:
                    pass
    return specs


def test_junta_builds_match_the_plain_loop(monkeypatch):
    # each builder's width covers every coordinate its predicate reads
    specs = _dense_specs(8)
    assert len(specs) == 969
    cases = [(sp.name, sp.params, lambda sp=sp: construct(sp)) for sp in specs]
    for n in range(1, 9):
        for size in range(1, n + 1):
            for b in itertools.combinations(range(1, n + 1), size):
                cases.append(("t_umvirate", b, lambda n=n, b=b: t_umvirate(n, b)))
                cases.append(("or_family", b, lambda n=n, b=b: or_family(n, b)))
    cases += [("triangle_umvirate", v, lambda v=v: triangle_umvirate(v))
              for v in (3, 4)]
    junta = [build() for _, _, build in cases]
    # then every build calls its predicate on all 2**n masks
    build_plain = SetFamily.from_predicate.__func__
    monkeypatch.setattr(SetFamily, "from_predicate", classmethod(
        lambda cls, n, pred, edges=None, width=None:
        build_plain(cls, n, pred, edges)))
    for (name, params, build), fam in zip(cases, junta):
        plain = build()
        assert fam == plain, (name, params)
        assert getattr(fam.edges, "v", None) == getattr(plain.edges, "v", None)


def test_from_predicate_width_below_three_and_past_n():
    pred = lambda m: bool(m & 1)  # noqa: E731
    for n in range(6):
        plain = SetFamily.from_predicate(n, pred)
        for width in (0, 1, 2, 3, n, n + 4):
            assert SetFamily.from_predicate(n, pred, width=width) == plain


def test_dense_spec_ground_capped_before_any_build(monkeypatch):
    def no_build(*args):
        raise AssertionError("built a family past the dense cap")

    monkeypatch.setattr(families, "_member_bits", no_build)
    for name, keys in DENSE_KEYS.items():
        sp = FamilySpec(name, {"n": MAX_DENSE_N + 1, **{k: 3 for k in keys}})
        with pytest.raises(ValueError, match="ground size must be in"):
            construct(sp)
    monkeypatch.undo()
    # the uniform families have no dense representation, so no cap
    assert len(construct(spec("ak_family", n=40, k=1, t=1, r=0))) == 1
    with pytest.raises(ValueError, match="ground size"):
        SetFamily.from_predicate(MAX_DENSE_N + 1, lambda m: True, width=3)


def test_closed_forms_past_the_dense_cap():
    # the closed forms build no family, so a whole-cube spec may have n > 30
    sp = spec("t_umvirate", n=40, t=2)
    assert closed_form_size(sp, 5) == math.comb(38, 3)
    assert closed_form_mu(sp, F(1, 3)) == F(1, 9)
    assert closed_form_mu(spec("tilde_F_ts", n=40, t=1, s=2), F(1, 2)) == \
        closed_form_mu(spec("tilde_F_ts", n=6, t=1, s=2), F(1, 2))
    root = defining_root(spec("tilde_H_tsr", n=40, t=2, s=2, r=3))
    assert root.value == defining_root(spec("tilde_H_tsr", n=7, t=2, s=2,
                                            r=3)).value


def _remapped(fam, perm):
    """The relabeled family, one member at a time."""
    moved = [sum(1 << (perm[e - 1] - 1) for e in elements_of(m)) for m in fam]
    return SetFamily.from_masks(fam.n, moved, fam.edges)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.integers(0, (1 << (1 << n)) - 1),
    st.permutations(range(1, n + 1)))))
def test_relabel_by_swaps_matches_member_remap(case):
    bits, perm = case
    fam = SetFamily(len(perm), bits)
    assert relabel(fam, list(perm)) == _remapped(fam, perm)


def test_relabel_keeps_the_edge_ground(rng):
    fam = triangle_umvirate(4)
    perm = list(range(1, 7))
    rng.shuffle(perm)
    moved = relabel(fam, perm)
    assert moved.edges is fam.edges
    assert moved == _remapped(fam, perm)
