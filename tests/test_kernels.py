"""The search and predicate-family kernels, with and without a size floor
and with the subtree store capped, against a node-at-a-time reference
walker; their shared tables against their definitions; pinned search
counters; and the large-ground counting path."""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrlab import _kernels
from ekrlab.search import lex_universe, shift_predecessor_masks


def test_pure_weight_counts_large_ground_path():
    # the byte-scan branch (n > 18) agrees with the mask branch
    rng = random.Random(11)
    masks = [rng.getrandbits(19) for _ in range(200)]
    fam = 0
    for m in masks:
        fam |= 1 << m
    w = _kernels.weight_counts(fam, 19)
    expect = [0] * 20
    for m in set(masks):
        expect[bin(m).count("1")] += 1
    assert w == expect


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
                checkpoint_cb=None, checkpoint_every=0, leaves=None):
    """One decision per node; same contract as `_kernels.search_uniform`.
    The node count at each leaf goes to the list `leaves`, if given."""
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
                if leaves is not None:
                    leaves.append(stats["nodes"])
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
            raise _kernels.BudgetExceeded(nodes)
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
    except _kernels.BudgetExceeded as exc:
        return out, exc.nodes
    return out, None


def _kernel_families(masks, preds, mode, param, shifted, node_budget=None,
                   min_size=0):
    out = []
    try:
        for fam in _kernels.iter_predicate_families(masks, preds, mode, param,
                                                 shifted, node_budget,
                                                 min_size=min_size):
            out.append(fam)
    except _kernels.BudgetExceeded as exc:
        return out, exc.nodes
    return out, None


MODES = (("t", 1), ("t", 2), ("match", 1), ("match", 2), ("match", 3))


def _instances(max_n=8):
    """Every [n]^(k) with n <= max_n, t and match modes, plain and shifted;
    t = 3 (no t-subsets at all when k < 3) only up to n = 7."""
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            universe = lex_universe(n, k)
            preds = shift_predecessor_masks(n, k, universe)
            for mode, param in MODES + ((("t", 3),) if n <= 7 else ()):
                for shifted in (False, True):
                    yield universe, preds, mode, param, shifted


BUDGETS = (1, 7, 50, 333)


def test_search_matches_reference_walker():
    for inst in _instances():
        for budget in BUDGETS:
            ref = _ref_search(*inst, node_budget=budget)
            assert _kernels.search_uniform(*inst, node_budget=budget) == ref, (
                inst[2:], len(inst[0]), budget)
        if ref[3] or inst[4]:
            ref = _ref_search(*inst, node_budget=20_000)
        if ref[3]:
            assert _kernels.search_uniform(*inst) == ref


def _check_checkpoints(inst, every, budget=333):
    """The kernel's checkpoint calls and result, and those of a run resumed
    from its middle checkpoint, equal the reference walker's."""
    got, want = [], []
    a = _kernels.search_uniform(*inst, node_budget=budget,
                                checkpoint_cb=lambda *c: got.append(c),
                                checkpoint_every=every)
    b = _ref_search(*inst, node_budget=budget,
                    checkpoint_cb=lambda *c: want.append(c),
                    checkpoint_every=every)
    assert a == b and got == want, (inst[2:], len(inst[0]), every)
    if len(want) < 2:
        return
    path, best, witness, _ = want[len(want) // 2]
    kw = dict(node_budget=budget, resume_path=path, resume_best=best,
              resume_witness=witness, checkpoint_every=every)
    got, want = [], []
    a = _kernels.search_uniform(*inst, checkpoint_cb=lambda *c: got.append(c),
                                **kw)
    b = _ref_search(*inst, checkpoint_cb=lambda *c: want.append(c), **kw)
    assert a == b and got == want, (inst[2:], len(inst[0]), every, "resume")


def test_search_checkpoints_and_resume_match_reference_walker():
    for inst in _instances(7):
        for every in (1, 2, 13):
            _check_checkpoints(inst, every)


def test_checkpoint_after_a_leaf_on_a_multiple():
    # a leaf counts a node but calls no checkpoint, so a leaf can land on a
    # multiple of checkpoint_every; the forced-exclusion jumps after it must
    # still stop at the next multiple
    for n, k, mode, param in ((9, 3, "match", 2), (8, 4, "t", 1)):
        universe = lex_universe(n, k)
        inst = (universe, shift_predecessor_masks(n, k, universe), mode,
                param, True)
        leaves = []
        _ref_search(*inst, node_budget=3000, leaves=leaves)
        hits = 0
        for every in (3, 5, 17):
            hits += any(nodes % every == 0 for nodes in leaves)
            _check_checkpoints(inst, every, budget=3000)
        assert hits


def test_predicate_families_match_reference_walker():
    for inst in _instances():
        for budget in BUDGETS:
            ref = _ref_families(*inst, node_budget=budget)
            assert _kernel_families(*inst, node_budget=budget) == ref, (
                inst[2:], len(inst[0]), budget)
        if ref[1] is None:
            assert _kernel_families(*inst) == ref


def test_floored_families_match_reference_walker():
    # the floored walk skips subtrees, so within the same node budget it
    # reaches at least as far as the full reference walk: it yields the
    # reference's families of at least the floor, then only families the
    # reference did not reach.  In t mode the floor reads the dead mask
    # that lift grows on each include
    for inst in itertools.chain(
            (inst for inst in _instances() if inst[2] == "match"),
            (inst for inst in _instances(6) if inst[2] == "t")):
        ref, stopped = _ref_families(*inst, node_budget=20_000)
        top = max(map(len, ref))
        for floor in sorted({0, 1, top // 2, top - 1, top, top + 1}):
            want = [fam for fam in ref if len(fam) >= floor]
            got, _ = _kernel_families(*inst, node_budget=20_000, min_size=floor)
            where = (inst[3], inst[4], len(inst[0]), floor)
            if stopped is None:
                assert got == want, where
            else:
                assert got[:len(want)] == want, where
                assert not set(got[len(want):]) & set(ref), where


def _shift_closure(preds):
    """For each set, the sets having it among their shift images taken any
    number of times, as index masks: the images of each set grown to a
    fixed point, then read column by column."""
    below = [{c for c in range(len(preds)) if pm >> c & 1} for pm in preds]
    grown = True
    while grown:
        grown = False
        for j, sets in enumerate(below):
            more = sets.union(*(below[c] for c in sets))
            if more != sets:
                below[j], grown = more, True
    return [sum(1 << j for j, sets in enumerate(below) if c in sets)
            for c in range(len(preds))]


def test_walk_tables_match_their_definitions():
    # rel against the popcount definition, up against a brute-force
    # transitive closure of the shift images (empty outside shifted mode),
    # _lift of each rel mask against the union of that closure over it, and
    # lift against _lift in t mode (empty in match mode)
    for n in range(1, 9):
        for k in range(n + 1):
            universe = lex_universe(n, k)
            preds = shift_predecessor_masks(n, k, universe)
            closure = _shift_closure(preds)
            for mode, param in MODES + (("t", 3),):
                rel, up, lift = _kernels._walk_tables(universe, preds, mode,
                                                      param, True)
                for i, m in enumerate(universe):
                    if mode == "t":
                        want = [j for j in range(i + 1, len(universe)) if
                                bin(m & universe[j]).count("1") < param]
                    else:
                        want = [j for j, mj in enumerate(universe)
                                if not m & mj]
                    assert rel[i] == sum(1 << j for j in want), (n, k, mode,
                                                                 param, i)
                    assert _kernels._lift(rel[i], up) == functools.reduce(
                        operator.or_, (closure[j] for j in want), 0)
                    assert lift[i] == (_kernels._lift(rel[i], up)
                                       if mode == "t" else 0)
                assert up == closure, (n, k)
                plain = _kernels._walk_tables(universe, preds, mode, param,
                                              False)
                zeros = [0] * len(universe)
                assert plain == (rel, zeros, zeros)


@pytest.mark.parametrize("n, k, shifted, budgets", [
    (6, 3, False, (997, 5003, 28_000)), (8, 4, True, (997, 5003))])
def test_stored_subtrees_keep_budget_and_checkpoints_exact(n, k, shifted,
                                                          budgets):
    # plain EKR on [6]^(3) walks 3,048 of its live nodes and adds 1,980
    # stored subtrees (968 of them cut below the slack they were stored
    # at), which stand for 25,074 of its 28,144 nodes, and shifted EKR on
    # [8]^(4) adds 56 stored subtrees within 5,003 nodes; budgets and
    # checkpoint intervals that fall inside stored subtrees must stop,
    # checkpoint and resume where the node-at-a-time walk does
    universe = lex_universe(n, k)
    preds = (shift_predecessor_masks(n, k, universe) if shifted
             else [0] * len(universe))
    inst = (universe, preds, "t", 1, shifted)
    for budget in budgets:
        for every in (997, 5003):
            _check_checkpoints(inst, every, budget)
        ref = _ref_search(*inst, node_budget=budget)
        assert _kernels.search_uniform(*inst, node_budget=budget) == ref
        best, witness, _, complete, path = ref
        assert not complete
        kw = dict(resume_path=path, resume_best=best, resume_witness=witness)
        assert (_kernels.search_uniform(*inst, **kw)
                == _ref_search(*inst, **kw)), budget


@pytest.mark.parametrize("cap", [1, 1024])
def test_a_capped_store_keeps_the_walk_exact(monkeypatch, cap):
    # stored subtrees are only a cache: STORE_CAP is in bytes, and a store
    # that holds about that many is emptied before the next subtree goes
    # in.  At 1 byte it is emptied before every entry; at 1 KiB it holds a
    # few entries (each is charged 128 bytes beside its depth table)
    # between empties.  Every counter, stop, checkpoint and resume still
    # matches the node-at-a-time walk
    monkeypatch.setattr(_kernels, "STORE_CAP", cap)
    if cap > 1:
        universe = lex_universe(6, 3)
        stats = _kernels.search_uniform(universe, [0] * len(universe), "t",
                                        1, False)[2]
        work = _kernels.LAST_WORK
        # stored walks stood for some of the nodes, and the store filled
        assert work["walked"] < stats["nodes"] and work["clears"] >= 1, work
    test_search_matches_reference_walker()
    test_search_checkpoints_and_resume_match_reference_walker()
    test_checkpoint_after_a_leaf_on_a_multiple()
    test_stored_subtrees_keep_budget_and_checkpoints_exact(
        6, 3, False, (997, 5003, 28_000))
    test_stored_subtrees_keep_budget_and_checkpoints_exact(
        8, 4, True, (997, 5003))


def test_narrow_count_fields_keep_the_walk_exact(monkeypatch):
    # a subtree of 2**WIDTH nodes or more would overflow a count of its
    # depth table, so it is walked each time and never stored: with 3-bit
    # counts only the smallest subtrees are stored, and every counter, stop,
    # checkpoint and resume still matches the node-at-a-time walk
    monkeypatch.setattr(_kernels, "WIDTH", 3)
    test_search_matches_reference_walker()
    test_stored_subtrees_keep_budget_and_checkpoints_exact(
        6, 3, False, (997, 5003, 28_000))
    test_stored_subtrees_keep_budget_and_checkpoints_exact(
        8, 4, True, (997, 5003))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_search_with_any_incumbent_budget_and_checkpoints(data):
    # an incumbent brought in by a resume moves the bound's slack at every
    # node, so stored subtrees come back at slacks below the one they were
    # walked at and are added cut at that depth; the counters, stops,
    # checkpoints and paths must still be those of the node-at-a-time walk
    n = data.draw(st.integers(1, 7), label="n")
    k = data.draw(st.integers(0, min(n, 4)), label="k")
    mode, param = data.draw(st.sampled_from(MODES + (("t", 3),)), label="mode")
    shifted = data.draw(st.booleans(), label="shifted")
    universe = lex_universe(n, k)
    preds = (shift_predecessor_masks(n, k, universe) if shifted
             else [0] * len(universe))
    inst = (universe, preds, mode, param, shifted)
    path = []
    if data.draw(st.booleans(), label="resume mid-walk"):
        path = _ref_search(*inst, node_budget=data.draw(
            st.integers(1, 300), label="prefix nodes"))[4]
    kw = dict(resume_path=path,
              resume_best=data.draw(st.integers(-1, len(universe) + 1),
                                    label="best"),
              node_budget=data.draw(st.integers(1, 4000), label="budget"),
              checkpoint_every=data.draw(st.sampled_from((0, 1, 7, 50, 333)),
                                         label="every"))
    got, want = [], []
    assert (_kernels.search_uniform(*inst, **kw,
                                    checkpoint_cb=lambda *c: got.append(c))
            == _ref_search(*inst, **kw, checkpoint_cb=lambda *c: want.append(c)))
    assert got == want


def test_stored_walks_answer_smaller_slacks():
    # shifted EKR on [9]^(4) has 1,338,643 nodes but only 2,175 keys of
    # stored subtrees; a key that comes back at a smaller slack adds the
    # stored walk cut at that depth, so the search walks each key about
    # once, not once per slack
    universe = lex_universe(9, 4)
    _kernels.search_uniform(universe, shift_predecessor_masks(9, 4, universe),
                            "t", 1, True)
    work = _kernels.LAST_WORK
    assert work["cut"] >= 1_300 and work["walked"] <= 2_300, work
    assert not work["clears"]


#: (n, k, t) -> (optimum, counters) of the shifted t-intersecting search,
#: recorded with the walk that woke a set at every shift image
T_COUNTERS = {
    (9, 4, 1): (56, (1_338_643, 37_073, 1_291_028, 10_541)),
    (8, 4, 2): (17, (5_442, 141, 5_280, 18)),
    (10, 4, 2): (28, (64_542, 450, 63_983, 108)),
}


@pytest.mark.parametrize("n, k, t", sorted(T_COUNTERS))
def test_shifted_t_intersecting_counters_pinned(n, k, t):
    # EKR's C(8,3) = 56, Wilson's C(8,2) = 28, and on [8]^(4) at t = 2,
    # below Wilson's range, the Ahlswede-Khachatrian family of the sets
    # meeting [4] in at least 3 elements: 17
    universe = lex_universe(n, k)
    preds = shift_predecessor_masks(n, k, universe)
    best, _, stats, complete, path = _kernels.search_uniform(
        universe, preds, "t", t, True)
    assert complete and path == []
    assert (best, tuple(stats.values())) == T_COUNTERS[n, k, t]


#: (n, k, t, shifted) -> (optimum, counters) of the larger t-intersecting
#: searches, recorded with the walk that stored no subtrees
LARGE_T_COUNTERS = {
    (8, 3, 1, False): (21, (101_176_986, 8_299_357, 0, 92_877_620)),
    (10, 4, 1, True): (84, (21_338_825, 299_816, 20_904_905, 134_103)),
    (10, 5, 2, True): (66, (36_945_523, 405_707, 36_529_260, 10_543)),
}


@pytest.mark.parametrize("n, k, t, shifted", sorted(LARGE_T_COUNTERS))
def test_larger_t_intersecting_counters_pinned(n, k, t, shifted):
    # EKR's C(7,2) = 21 over the whole of [8]^(3) and C(9,3) = 84 on
    # [10]^(4); on [10]^(5) at t = 2, below Wilson's range, the
    # Ahlswede-Khachatrian family of the sets meeting [4] in at least 3
    # elements: 66
    universe = lex_universe(n, k)
    preds = (shift_predecessor_masks(n, k, universe) if shifted
             else [0] * len(universe))
    best, _, stats, complete, path = _kernels.search_uniform(
        universe, preds, "t", t, shifted)
    assert complete and path == []
    assert (best, tuple(stats.values())) == LARGE_T_COUNTERS[n, k, t, shifted]


def test_shifted_matching_counters_pinned():
    universe = lex_universe(9, 3)
    preds = shift_predecessor_masks(9, 3, universe)
    best, _, stats, complete, path = _kernels.search_uniform(
        universe, preds, "match", 2, True)
    assert complete and path == []
    assert best == 56   # C(8,3), the clique bound of Erdos' matching conjecture
    assert stats == {"nodes": 160_068, "bound_prunes": 10_869,
                     "forced_exclusions": 148_533,
                     "predicate_rejections": 661}
