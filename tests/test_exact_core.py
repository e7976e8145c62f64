"""The integer exact core: bit masks, integer coefficients, the nearest
structure primitive against a member-scan oracle, and pinned sweep outputs."""

import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from ekrlab import SetFamily, _kernels, influence, measures, mu_polynomial
from ekrlab.bitops import (coord_zero_mask, cube_mask, iter_bit_indices,
                           iter_members, mask_of, plus_one, reverse_bits,
                           size_class_masks, subset_masks)
from ekrlab.cli import main
from ekrlab.families import EdgeGround
from ekrlab.measures import iso_sweep, iso_table, nearest_cube
from ekrlab.numerics import to_mpf
from ekrlab.verify import (_canonical_or_residual, _canonical_residual,
                           _triangles)
from ekrlab.zoo import or_family, t_umvirate

from conftest import iso_rows, random_increasing_family


# -- bit masks -----------------------------------------------------------------


def test_masks_match_loop_definitions():
    for n in range(13):
        classes = [0] * (n + 1)
        for x in range(1 << n):
            classes[bin(x).count("1")] |= 1 << x
        assert size_class_masks(n) == tuple(classes), n
        for i in range(n + 1):
            zero = sum(1 << x for x in range(1 << n) if not (x >> i) & 1)
            assert coord_zero_mask(n, i) == zero, (n, i)


def test_reverse_and_plus_one_match_definitions():
    # the byte-table reversal against reversing the binary string, at
    # widths on and off a byte boundary (2**n-bit families have n < 3 below
    # one byte)
    rng = random.Random(5)
    for width in range(1, 70):
        for x in [0, (1 << width) - 1] + [rng.getrandbits(width)
                                          for _ in range(20)]:
            want = int(format(x, f"0{width}b")[::-1], 2)
            assert reverse_bits(x, width) == want, (x, width)
    for n in range(5):
        for bits in range(1 << (1 << n)) if n < 4 else (
                rng.getrandbits(16) for _ in range(200)):
            grown = {x | 1 << i for x in range(1 << n) if (bits >> x) & 1
                     for i in range(n) if not (x >> i) & 1}
            want = sum(1 << y for y in grown)
            assert plus_one(bits, n) == want, (bits, n)


def test_cube_mask_matches_definition():
    for n in range(6):
        for contains in range(1 << n):
            for misses in range(1 << n):
                want = sum(1 << x for x in range(1 << n)
                           if x & contains == contains and not x & misses)
                assert cube_mask(n, contains, misses) == want


def test_member_walk_matches_bit_iterator():
    # the nonzero-byte walk against the one-member-at-a-time iterator, on
    # seeded sparse families where the latter's cost shows
    rng = random.Random(1824)
    for n, size in ((18, 400), (20, 200), (22, 120), (24, 60)):
        members = rng.sample(range(1 << n), size)
        bits = sum(1 << x for x in members)
        walked = list(iter_members(bits, n))
        assert walked == list(iter_bit_indices(bits)) == sorted(members)
        assert list(SetFamily(n, bits)) == walked
        w = [0] * (n + 1)
        for x in members:
            w[bin(x).count("1")] += 1
        assert _kernels.weight_counts(bits, n) == w
    for n in range(4):
        for bits in (0, (1 << (1 << n)) - 1, 1 << ((1 << n) - 1)):
            assert list(iter_members(bits, n)) == list(iter_bit_indices(bits))


# -- integer coefficients ----------------------------------------------------------


def test_polynomial_coefficients_are_int(rng):
    fams = [SetFamily.empty(0), SetFamily.full(0), SetFamily.full(3)]
    fams += [random_increasing_family(rng, n) for n in range(1, 7)
             for _ in range(5)]
    for fam in fams:
        vec = influence(fam)
        polys = [mu_polynomial(fam), vec.total,
                 *(measures.polynomial(fam.n, w) for w in vec.pivots)]
        for poly in polys:
            assert all(type(c) is int for c in poly), (fam, poly)


# -- the nearest-structure primitive against a member scan --------------------------


def _mu_on(members, n, p):
    """Member-by-member measure in Fractions (the pre-integer query)."""
    return sum((p ** bin(m).count("1") * (1 - p) ** (n - bin(m).count("1"))
                for m in members), F(0))


def _scan_nearest(candidates, residual):
    """Least (residual, key) over the candidates, and how many tie there."""
    keyed = sorted((residual(mask), key, mask) for key, mask in candidates)
    ties = sum(1 for r, _, _ in keyed if r == keyed[0][0])
    return keyed[0], ties


def _subsets(n, t):
    return [(c, mask_of(c)) for c in itertools.combinations(range(1, n + 1), t)]


def _families(rng):
    fams = [SetFamily.empty(4), SetFamily.full(5), t_umvirate(5, 2),
            or_family(6, 2)]
    fams += [random_increasing_family(rng, n) for n in range(1, 8)
             for _ in range(8)]
    return fams


def _sparse_families(rng):
    """Sparse families at and past the largest ground size whose cube
    queries use 2**n-bit masks."""
    fams = [SetFamily.from_sets(21, [[1], [1, 2]])]
    for n in (18, 19, 21):
        members = {rng.randrange(1 << n) for _ in range(25)}
        members |= {m | 0b11 for m in list(members)[:8]}
        fams.append(SetFamily(n, sum(1 << m for m in members)))
    return fams


def test_nearest_matches_member_scan(rng):
    ties_seen = 0
    for fam in _families(rng) + _sparse_families(rng):
        n, members = fam.n, list(fam)
        p = F(rng.randint(1, 9), 10)
        for t in range(1, min(n, 3 if n <= 7 else 2) + 1):
            (r, key, bm), ties = _scan_nearest(_subsets(n, t), lambda b: _mu_on(
                (m for m in members if m & b != b), n, p))
            ties_seen += ties > 1
            assert nearest_cube(fam, subset_masks(n, t), p) == (key, bm, r)
            (r, key, bm), ties = _scan_nearest(_subsets(n, t), lambda b: _mu_on(
                (m for m in members if not m & b), n, p))
            ties_seen += ties > 1
            assert nearest_cube(fam, subset_masks(n, t), p,
                                misses=True) == (key, bm, r)
            b = mask_of(range(1, t + 1))
            assert _canonical_residual(fam, t, p) == _mu_on(
                (m for m in members if m & b != b), n, p)
            assert _canonical_or_residual(fam, t, p) == _mu_on(
                (m for m in members if not m & b), n, p)
    assert ties_seen > 10


def test_nearest_uniform_matches_member_scan(rng):
    for fam in _families(rng):
        for k in range(fam.n + 1):
            sl = fam.uniform_slice(k)
            for t in range(1, min(fam.n, 3) + 1):
                (r, key, bm), _ = _scan_nearest(_subsets(fam.n, t), lambda b: sum(
                    1 for m in sl.members if m & b != b))
                assert nearest_cube(sl, subset_masks(fam.n, t)) == (key, bm, r)
                (r, key, bm), _ = _scan_nearest(_subsets(fam.n, t), lambda b: sum(
                    1 for m in sl.members if not m & b))
                assert nearest_cube(sl, subset_masks(fam.n, t),
                                    misses=True) == (key, bm, r)


def test_nearest_triangle_matches_member_scan(rng):
    eg = EdgeGround(4)
    tris = [((x, y, z), eg.edge_mask([(x, y), (x, z), (y, z)]))
            for x, y, z in itertools.combinations(range(1, 5), 3)]
    for _ in range(30):
        fam = SetFamily(6, random_increasing_family(rng, 6).bits, eg)
        members = list(fam)
        p = F(rng.randint(1, 9), 10)
        (r, tri, tm), _ = _scan_nearest(tris, lambda tm: _mu_on(
            (m for m in members if m & tm != tm), 6, p))
        assert nearest_cube(fam, _triangles(fam.edges), p) == (tri, tm, r)
        sl = fam.uniform_slice(3)
        (r, tri, tm), _ = _scan_nearest(tris, lambda tm: sum(
            1 for m in sl.members if m & tm != tm))
        assert nearest_cube(sl, _triangles(eg)) == (tri, tm, r)


def test_sparse_large_ground_queries_build_no_cube_masks():
    # past the dense limit a query scans the members; a 2**21-bit cube mask
    # per candidate would cost a pass over the whole cube each time
    fam = SetFamily.from_sets(21, [[1], [1, 2]])
    coord_zero_mask.cache_clear()
    assert nearest_cube(fam, subset_masks(21, 2), F(1, 3)) == (
        (1, 2), 0b11, F(2**20, 3**21))
    assert coord_zero_mask.cache_info().currsize == 0


def test_nearest_rejects_oversized_structures():
    fam = t_umvirate(3, 1)
    with pytest.raises(ValueError):
        nearest_cube(fam, subset_masks(3, 4), F(1, 3))
    with pytest.raises(ValueError):
        nearest_cube(fam.uniform_slice(2), subset_masks(3, 4), misses=True)
    with pytest.raises(ValueError):
        nearest_cube(SetFamily.empty(1), _triangles(EdgeGround(2)))


# -- pinned sweep outputs (recorded before the integer core) -------------------------


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("args,digest,lines", [
    (("--n", "3", "--p", "1/4", "--p", "2/3", "--p", "3/7", "--p", "5/8"),
     "f7b2933c528aa181462e1a728ee14f6e23a9920595da9e1a626c392fffe111a2", 81),
    (("--n", "4", "--p", "1/3", "--p", "3/5", "--p", "7/101", "--p", "89/97"),
     "d52feb22cf4470394d546681ac62a4182bb1998a5b07de294ee7e5e889828772", 673),
    # recorded before families with one count profile shared their rows
    (("--n", "5", "--p", "1/3", "--p", "2/3"),
     "739cad12a8086ad6ad1842c8eb5e2a13acc6a2a0b5c5bb24e55df7aee6322f0f", 15163),
])
def test_iso_sweep_csv_pinned(capsys, args, digest, lines):
    code, out = _cli(capsys, "--threads", "1", "iso-sweep", "--all-monotone",
                     "--csv", *args)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_iso_sweep_json_pinned(capsys, monkeypatch):
    # recorded when the JSON form dumped one dict per row with the payload
    monkeypatch.delenv("EKRLAB_PRECISION", raising=False)
    code, out = _cli(capsys, "--threads", "1", "iso-sweep", "--n", "4",
                     "--all-monotone", "--p", "1/3", "--p", "3/5",
                     "--p", "7/101", "--p", "89/97")
    assert code == 0
    assert len(out.splitlines()) == 6068
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "48a76151b5a5eeb750c2df1c04d638ea360812ba14b509e0ba60e872262434f4")


def test_iso_sweep_evaluates_each_count_profile_once(monkeypatch):
    # 26 weight-count profiles among the 168 families on [4]: ln p once per
    # bias, then at most one ln mu per profile and bias; twelve biases, as
    # many as the benchmark's n = 4 sweep draws
    ps = [F(a, b) for a, b in ((1, 8), (1, 5), (2, 7), (1, 3), (3, 8), (4, 9),
                               (1, 2), (5, 9), (3, 5), (2, 3), (7, 9), (7, 8))]
    calls = []
    log = measures.log

    def counted_log(x):
        calls.append(x)
        return log(x)

    monkeypatch.setattr(measures, "log", counted_log)
    profile_of, fields, violations = iso_sweep(4, ps)
    assert len(list(iso_rows(profile_of, fields))) == 168 * 12
    assert violations == 0
    assert 0 < len(calls) <= 12 + 26 * 12
    for n, families, count in ((4, 168, 26), (5, 7581, 96)):
        masks = _kernels.monotone_masks(n)
        profile_of, profiles = iso_table(n, masks, [])
        assert len(profile_of) == families and len(profiles) == count
        assert len({tuple(_kernels.weight_counts(m, n)) for m in masks}) == count


def test_iso_table_influence_from_weights_matches_pivots():
    # Russo-Margulis: for an increasing family I_p = d(mu_p)/dp is a
    # function of the weight counts; the pivot counts are the oracle
    ps = [F(1, 3), F(1, 2), F(2, 3), F(13, 97)]
    masks = _kernels.monotone_masks(5)
    profile_of, profiles = iso_table(5, masks, ps)
    for bits, k in zip(masks, profile_of):
        vec = influence(SetFamily(5, bits))
        assert [row[1] for row in profiles[k]] == [vec.total_at(p) for p in ps]


def test_iso_sweep_violation_decided_on_the_working_precision(capsys):
    # at tau = 0 the exact tie of family 1 (mu = p^5, slack 0) counts as a
    # violation on its rounding noise, as it did when the verdict was read
    # back from the printed slack strings
    code, out = _cli(capsys, "--tau", "0", "iso-sweep", "--n", "5",
                     "--all-monotone", "--p", "1/3")
    result = json.loads(out)
    assert code == 1 and result["violations"] == 1
    bad = [r for r in result["rows"] if r["iso_slack"] != "vacuous"
           and to_mpf(r["iso_slack"]) < 0]
    assert [(r["family_id"], r["iso_slack"]) for r in bad] == [
        (1, "-3.08148791101957736e-33")]


def test_russo_sweep_pinned_and_thread_independent(capsys):
    args = ("russo-sweep", "--n", "4", "--random", "200")
    code, seq = _cli(capsys, "--threads", "1", *args)
    assert code == 0
    _, par = _cli(capsys, "--threads", "2", *args)
    # byte-identical apart from the echoed --threads input
    assert seq.replace('"threads": "1"', '"threads": "2"') == par
    result = json.loads(seq)
    del result["header"]
    assert result == {"checked": 368, "failing": [], "violations": 0}
