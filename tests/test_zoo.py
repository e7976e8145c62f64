import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrlab import (FamilySpec, SetFamily, UniformFamily, ak_max,
                    closed_form_mu, closed_form_size, construct,
                    defining_root, is_t_intersecting, matching_number, mu)
from ekrlab import families
from ekrlab.bitops import elements_of
from ekrlab.cli import main
from ekrlab.families import MAX_DENSE_N
from ekrlab.numerics import workdps
from ekrlab.verify import TIGHTNESS
from ekrlab.zoo import (FAMILIES, FAMILY_NAMES, hm_matching_e,
                        hm_matching_layout, or_family, relabel, t_umvirate,
                        triangle_umvirate)

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
        dense = (fam if isinstance(fam, SetFamily)
                 else SetFamily.from_masks(fam.n, fam.members))
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
    assert is_t_intersecting(construct(spec("tilde_Gi", n=6, i=4)), 1)
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


KNOWN = ("dictatorship", "t_umvirate", "or_family", "ak_family", "frankl_Gi",
         "tilde_Gi", "F_ts", "tilde_F_ts", "tilde_H_tsr", "tilde_D_sdl",
         "C_ts_lex", "hm_matching_E", "conj_H", "triangle_umvirate")

#: (name, params, the exact message FamilySpec raises), every check of
#: every family once
VALIDATION_ERRORS = [
    ("unknown_family", {}, f"unknown family 'unknown_family'; known: {KNOWN}"),
    ("t_umvirate", [1], "params must be an object, got [1]"),
    ("t_umvirate", {"n": 4, "t": True},
     "parameter 't' must be an integer, got True"),
    ("t_umvirate", {"n": "4", "t": 1},
     "parameter 'n' must be an integer, got '4'"),
    ("ak_family", {"n": 5, "k": 3}, "missing parameters: ['t', 'r']"),
    ("ak_family", {"n": 5, "k": 3, "t": 1, "r": 0, "x": 1, "a": 2},
     "unexpected parameters: ['a', 'x']"),
    ("dictatorship", {"j": 1}, "missing parameters: ['n']"),
    ("dictatorship", {"n": 3, "t": 1}, "unexpected parameters: ['t']"),
    ("dictatorship", {"n": 3, "j": 4}, "need 1 <= j <= n, got j=4, n=3"),
    ("dictatorship", {"n": 0}, "need 1 <= j <= n, got j=1, n=0"),
    ("t_umvirate", {"n": 3, "t": 0}, "need 1 <= t <= n, got t=0, n=3"),
    ("or_family", {"n": 2, "s": 3}, "need 1 <= s <= n, got s=3, n=2"),
    ("ak_family", {"n": 5, "k": 3, "t": 0, "r": 0},
     "need t >= 1, r >= 0, got t=0, r=0"),
    ("ak_family", {"n": 5, "k": 3, "t": 2, "r": 2},
     "need t+2r <= n, got t+2r=6, n=5"),
    ("ak_family", {"n": 5, "k": 2, "t": 2, "r": 1},
     "need t+r <= k <= n, got k=2"),
    ("frankl_Gi", {"n": 4, "k": 4, "i": 3}, "need 2 <= k <= n-1, got k=4, n=4"),
    ("frankl_Gi", {"n": 5, "k": 2, "i": 4}, "need 3 <= i <= k+1, got i=4"),
    ("tilde_Gi", {"n": 5, "i": 2}, "need 3 <= i <= n, got i=2, n=5"),
    ("F_ts", {"n": 5, "k": 3, "t": 0, "s": 1}, "need t,s >= 1, got t=0, s=1"),
    ("F_ts", {"n": 3, "k": 3, "t": 2, "s": 2}, "need t+s <= n, got t+s=4, n=3"),
    ("F_ts", {"n": 5, "k": 1, "t": 2, "s": 2}, "need t <= k <= n, got k=1"),
    ("tilde_F_ts", {"n": 5, "t": 1, "s": 0}, "need t,s >= 1, got t=1, s=0"),
    ("tilde_F_ts", {"n": 3, "t": 2, "s": 2}, "need t+s <= n, got t+s=4, n=3"),
    ("tilde_H_tsr", {"n": 5, "t": 1, "s": 0, "r": 1},
     "need t,s,r >= 1, got 1,0,1"),
    ("tilde_H_tsr", {"n": 4, "t": 2, "s": 3, "r": 1},
     "need t+max(s,r) <= n, got n=4"),
    ("tilde_D_sdl", {"n": 5, "s": 1, "d": 1, "l": 0},
     "need s,d,l >= 1, got 1,1,0"),
    ("tilde_D_sdl", {"n": 4, "s": 2, "d": 1, "l": 3},
     "need s+max(d,l) <= n, got n=4"),
    ("C_ts_lex", {"n": 3, "t": 2, "s": 2}, "invalid (n,t,s)=(3,2,2)"),
    ("hm_matching_E", {"n": 5, "k": 0, "s": 1}, "need k,s >= 1, got k=0, s=1"),
    ("hm_matching_E", {"n": 4, "k": 2, "s": 2},
     "need n >= s+(s-1)(k-1)+k = 5, got n=4"),
    ("conj_H", {"n": 5, "k": 2, "s": 0, "d": 1}, "need s,d >= 1, got s=0, d=1"),
    ("conj_H", {"n": 4, "k": 2, "s": 2, "d": 3}, "invalid (n,k,s,d)=(4,2,2,3)"),
    ("triangle_umvirate", {"v": 2}, "need v >= 3 vertices, got 2"),
]


def test_validation_errors():
    assert {name for name, _, _ in VALIDATION_ERRORS} > set(KNOWN)
    for name, params, message in VALIDATION_ERRORS:
        with pytest.raises(ValueError) as info:
            FamilySpec(name, params)
        assert str(info.value) == message


def test_family_table_order_and_kinds():
    # the "known: ..." message prints FAMILY_NAMES, so its order is pinned
    assert FAMILY_NAMES == tuple(FAMILIES) == KNOWN
    for name, entry in FAMILIES.items():
        # the smallest valid spec builds the kind its parameters imply
        fam = construct(_smallest_spec(name))
        assert entry.uniform == ("k" in entry.params)
        assert isinstance(fam, UniformFamily if entry.uniform else SetFamily)
        # every whole-cube family has a closed-form measure, no k-uniform one
        assert (entry.mu is None) == entry.uniform


def _valid_spec(name, params):
    try:
        return FamilySpec(name, params)
    except ValueError:
        return None


def _smallest_spec(name):
    """The valid spec of the family with the smallest parameter sum."""
    keys = FAMILIES[name].params
    values = sorted(itertools.product(range(8), repeat=len(keys)), key=sum)
    return next(filter(None, (_valid_spec(name, dict(zip(keys, v)))
                              for v in values)))


#: the families with a tightness chain
CHAINS = ("tilde_Gi", "tilde_F_ts", "tilde_H_tsr", "tilde_D_sdl")


@pytest.mark.parametrize("name", KNOWN)
def test_tightness_of_every_family(capsys, name):
    # the five k-uniform families once printed an AttributeError traceback
    # from `mu` and exited 1
    assert tuple(TIGHTNESS) == CHAINS
    code = main(["tightness", "--p", "1/3", "--spec",
                 json.dumps(_smallest_spec(name).to_dict())])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if name not in CHAINS:
        assert code == 2
        assert json.loads(err)["error"] == (
            f"no tightness claim handled for {name!r}")


#: each family's parameters, as the corpus below draws them
CORPUS_KEYS = {
    "dictatorship": ("n", "j"), "t_umvirate": ("n", "t"),
    "or_family": ("n", "s"), "ak_family": ("n", "k", "t", "r"),
    "frankl_Gi": ("n", "k", "i"), "tilde_Gi": ("n", "i"),
    "F_ts": ("n", "k", "t", "s"), "tilde_F_ts": ("n", "t", "s"),
    "tilde_H_tsr": ("n", "t", "s", "r"), "tilde_D_sdl": ("n", "s", "d", "l"),
    "C_ts_lex": ("n", "t", "s"), "hm_matching_E": ("n", "k", "s"),
    "conj_H": ("n", "k", "s", "d"), "triangle_umvirate": ("v",),
    "unknown_family": ("n",),
}


def _zoo_corpus(count: int) -> list:
    """`count` seeded spec dicts: mostly in-range parameters of every family
    (and of an unknown name), some with a key dropped, an extra key, a
    value that is not an integer, params that are not an object or no
    name at all."""
    rng = random.Random(20261019)
    names = list(CORPUS_KEYS)
    out = []
    for _ in range(count):
        name = rng.choice(names)
        keys = CORPUS_KEYS[name]
        params = {key: rng.randint(2, 5) if key == "v" else
                  rng.randint(0, 9) if key == "n" else rng.randint(0, 4)
                  for key in keys}
        fault = rng.random()
        if fault < 0.08:
            del params[rng.choice(keys)]
        elif fault < 0.12:
            params[rng.choice(("x", "j", "k"))] = rng.randint(0, 3)
        elif fault < 0.15:
            params[rng.choice(keys)] = rng.choice((True, "3", 2.0, None))
        elif fault < 0.16:
            params = [len(params)]
        elif fault < 0.2:
            params[rng.choice(keys)] = -1
        d = {"name": name, "params": params}
        if rng.random() < 0.01:
            del d["name"]
        out.append(d)
    return out


def _zoo_outcome(d: dict) -> str:
    """The spec's error, or its family (kind, ground, members), closed-form
    measure at 1/3 and slice sizes for k = 0..7, each value or error."""
    try:
        sp = FamilySpec.from_dict(d)
    except ValueError as exc:
        return f"spec: {exc}"
    fam = construct(sp)
    built = (type(fam).__name__, fam.n, getattr(fam, "k", None),
             getattr(getattr(fam, "edges", None), "v", None), list(fam))
    values = []
    for value in [lambda: closed_form_mu(sp, F(1, 3))] + [
            lambda k=k: closed_form_size(sp, k) for k in range(8)]:
        try:
            values.append(str(value()))
        except ValueError as exc:
            values.append(f"error: {exc}")
    return repr((built, values))


#: sha256 of the corpus outcomes, recorded before the zoo became one table
ZOO_DIGEST = \
    "38e77ccd3280b4b1b2a6cdcf34d78b0da1c63385e303d3f03516ef0a05761bbf"


def test_zoo_outcomes_pinned():
    corpus = _zoo_corpus(6000)
    lines = [_zoo_outcome(d) for d in corpus]
    built = {d["name"] for d, line in zip(corpus, lines)
             if not line.startswith("spec:")}
    assert built == set(KNOWN)  # every family builds somewhere
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ZOO_DIGEST


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
