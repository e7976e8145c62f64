"""Parity between the pure-Python kernels and the compiled extension, and
between the pure walks (with and without a size floor) and a node-at-a-time
reference walker."""

import itertools
import random

import pytest

from ekrlab._kernels import _pure
from ekrlab.search import lex_universe, shift_predecessor_masks

try:
    from ekrlab._kernels import _core
except ImportError:
    _core = None

needs_core = pytest.mark.skipif(_core is None, reason="compiled kernels not built")


@needs_core
def test_monotone_masks_parity():
    for n in range(6):
        assert list(_core.monotone_masks(n)) == list(_pure.monotone_masks(n))


@needs_core
def test_weight_pivot_parity():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 8)
        fam = rng.getrandbits(1 << n)
        assert _core.weight_pivot_counts(fam, n) == _pure.weight_pivot_counts(fam, n)
        assert _core.weight_counts(fam, n) == _pure.weight_counts(fam, n)


@needs_core
def test_search_parity():
    instances = [
        (5, 2, "t", 1, False), (5, 2, "t", 1, True),
        (6, 3, "t", 2, True), (7, 3, "t", 1, True),
        (9, 2, "match", 2, True), (5, 2, "match", 2, False),
    ]
    for n, k, mode, param, shifted in instances:
        universe = lex_universe(n, k)
        preds = shift_predecessor_masks(n, k, universe)
        a = _core.search_uniform(universe, preds, mode, param, shifted)
        b = _pure.search_uniform(universe, preds, mode, param, shifted)
        assert a[0] == b[0], (n, k, mode)          # optimum
        assert a[1] == b[1]                        # witness
        assert a[2] == b[2]                        # statistics
        assert a[3] == b[3]                        # completeness


@needs_core
def test_search_parity_with_budget():
    universe = lex_universe(6, 2)
    preds = shift_predecessor_masks(6, 2, universe)
    a = _core.search_uniform(universe, preds, "t", 1, False, node_budget=25)
    b = _pure.search_uniform(universe, preds, "t", 1, False, node_budget=25)
    assert (a[0], a[1], a[2], a[3]) == (b[0], b[1], b[2], b[3])
    assert not a[3]


def test_pure_weight_counts_large_ground_path():
    # the byte-scan branch (n > 18) agrees with the mask branch
    rng = random.Random(11)
    masks = [rng.getrandbits(19) for _ in range(200)]
    fam = 0
    for m in masks:
        fam |= 1 << m
    w = _pure.weight_counts(fam, 19)
    expect = [0] * 20
    for m in set(masks):
        expect[bin(m).count("1")] += 1
    assert w == expect


def test_backend_selection_env(monkeypatch):
    import importlib

    import ekrlab._kernels as K

    monkeypatch.setenv("EKRLAB_KERNELS", "pure")
    mod = importlib.reload(K)
    assert mod.BACKEND == "pure"
    monkeypatch.delenv("EKRLAB_KERNELS")
    importlib.reload(K)


# -- node-at-a-time reference --------------------------------------------------


def _ref_include_ok(mode, param, masks, chosen, m):
    if mode == "t":
        return all(bin(m & masks[j]).count("1") >= param for j in chosen)
    free = [masks[j] for j in chosen if not masks[j] & m]
    # reject iff `free` holds param pairwise disjoint sets
    return not any(all(not a & b for a, b in itertools.combinations(c, 2))
                   for c in itertools.combinations(free, param))


def _ref_search(masks, preds, mode, param, shifted, node_budget=None,
                resume_path=None, resume_best=-1, resume_witness=(),
                checkpoint_cb=None, checkpoint_every=0):
    """One decision per node; same contract as `_pure.search_uniform`."""
    n_sets = len(masks)
    best, witness = resume_best, tuple(resume_witness)
    stats = dict.fromkeys(("nodes", "bound_prunes", "forced_exclusions",
                           "predicate_rejections"), 0)
    path = list(resume_path or [])
    complete = True
    while True:
        i = len(path)
        chosen = [j for j, d in enumerate(path) if d]
        if i == n_sets or len(chosen) + n_sets - i <= best:
            if i == n_sets:
                stats["nodes"] += 1
                if len(chosen) > best:
                    best, witness = len(chosen), tuple(chosen)
            else:
                stats["bound_prunes"] += 1
            while path and path[-1] == 0:
                path.pop()
            if not path:
                break
            path[-1] = 0
            continue
        stats["nodes"] += 1
        if node_budget is not None and stats["nodes"] > node_budget:
            complete = False
            break
        if shifted and any(not path[j] for j in range(i) if preds[i] >> j & 1):
            stats["forced_exclusions"] += 1
            path.append(0)
        elif _ref_include_ok(mode, param, masks, chosen, masks[i]):
            path.append(1)
        else:
            stats["predicate_rejections"] += 1
            path.append(0)
        if (checkpoint_cb is not None and checkpoint_every
                and stats["nodes"] % checkpoint_every == 0):
            checkpoint_cb(list(path), best, list(witness), stats["nodes"])
    return best, witness, stats, complete, path


def _ref_families(masks, preds, mode, param, shifted, node_budget=None):
    """(families yielded, nodes at BudgetExceeded or None), one node per set."""
    out, nodes = [], 0

    def rec(i, chosen):
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _pure.BudgetExceeded(nodes)
        if i == len(masks):
            out.append(tuple(chosen))
            return
        forced = shifted and any(j not in chosen for j in range(i)
                                 if preds[i] >> j & 1)
        if not forced and _ref_include_ok(mode, param, masks, chosen, masks[i]):
            rec(i + 1, chosen + [i])
        rec(i + 1, chosen)

    try:
        rec(0, [])
    except _pure.BudgetExceeded as exc:
        return out, exc.nodes
    return out, None


def _pure_families(masks, preds, mode, param, shifted, node_budget=None,
                   min_size=0):
    out = []
    try:
        for fam in _pure.iter_predicate_families(masks, preds, mode, param,
                                                 shifted, node_budget,
                                                 min_size=min_size):
            out.append(fam)
    except _pure.BudgetExceeded as exc:
        return out, exc.nodes
    return out, None


def _instances(max_n=8):
    """Every [n]^(k) with n <= max_n, t and match modes, plain and shifted."""
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            universe = lex_universe(n, k)
            preds = shift_predecessor_masks(n, k, universe)
            for mode, param in (("t", 1), ("t", 2), ("match", 1), ("match", 2),
                                ("match", 3)):
                for shifted in (False, True):
                    yield universe, preds, mode, param, shifted


BUDGETS = (1, 7, 50, 333)


def test_search_matches_reference_walker():
    for inst in _instances():
        for budget in BUDGETS:
            ref = _ref_search(*inst, node_budget=budget)
            assert _pure.search_uniform(*inst, node_budget=budget) == ref, (
                inst[2:], len(inst[0]), budget)
        if ref[3] or inst[4]:
            ref = _ref_search(*inst, node_budget=20_000)
        if ref[3]:
            assert _pure.search_uniform(*inst) == ref


def test_search_checkpoints_and_resume_match_reference_walker():
    for inst in _instances(7):
        got, want = [], []
        a = _pure.search_uniform(*inst, node_budget=333,
                                 checkpoint_cb=lambda *c: got.append(c),
                                 checkpoint_every=13)
        b = _ref_search(*inst, node_budget=333,
                        checkpoint_cb=lambda *c: want.append(c),
                        checkpoint_every=13)
        assert a == b and got == want, (inst[2:], len(inst[0]))
        if len(want) < 2:
            continue
        path, best, witness, _ = want[len(want) // 2]
        kw = dict(node_budget=333, resume_path=path, resume_best=best,
                  resume_witness=witness, checkpoint_every=13)
        got, want = [], []
        a = _pure.search_uniform(*inst, checkpoint_cb=lambda *c: got.append(c),
                                 **kw)
        b = _ref_search(*inst, checkpoint_cb=lambda *c: want.append(c), **kw)
        assert a == b and got == want, (inst[2:], len(inst[0]), "resume")


def test_predicate_families_match_reference_walker():
    for inst in _instances():
        for budget in BUDGETS:
            ref = _ref_families(*inst, node_budget=budget)
            assert _pure_families(*inst, node_budget=budget) == ref, (
                inst[2:], len(inst[0]), budget)
        if ref[1] is None:
            assert _pure_families(*inst) == ref


def test_floored_families_match_reference_walker():
    # the floored walk skips subtrees, so within the same node budget it
    # reaches at least as far as the full reference walk: it yields the
    # reference's families of at least the floor, then only families the
    # reference did not reach
    for inst in _instances():
        if inst[2] != "match":
            continue
        ref, stopped = _ref_families(*inst, node_budget=20_000)
        top = max(map(len, ref))
        for floor in sorted({0, 1, top // 2, top - 1, top, top + 1}):
            want = [fam for fam in ref if len(fam) >= floor]
            got, _ = _pure_families(*inst, node_budget=20_000, min_size=floor)
            where = (inst[3], inst[4], len(inst[0]), floor)
            if stopped is None:
                assert got == want, where
            else:
                assert got[:len(want)] == want, where
                assert not set(got[len(want):]) & set(ref), where


def test_shifted_matching_counters_pinned():
    universe = lex_universe(9, 3)
    preds = shift_predecessor_masks(9, 3, universe)
    best, _, stats, complete, path = _pure.search_uniform(
        universe, preds, "match", 2, True)
    assert complete and path == []
    assert best == 56   # C(8,3), the clique bound of Erdos' matching conjecture
    assert stats == {"nodes": 160_068, "bound_prunes": 10_869,
                     "forced_exclusions": 148_533,
                     "predicate_rejections": 661}
