"""Counting, enumeration and search kernels.

Everything here works on arbitrary-size Python ints.

The search and the predicate-family walk share index-mask tables (bit j
stands for set j): a relation mask per set for the include test, the
successors of each set under shifting, and a ready mask of the sets whose
shift images are all included.  Both walks jump over sets outside the ready
mask and count them as forced exclusions in bulk; every counter matches a
walk that visits one set per node.

A set is woken only when its last shift image (highest index) is
included.  Shift images come earlier in the order, and the walks decide
the sets in order, so when set c joins, every set before it is decided and
none after it is included: a set whose last image is c can become ready
only then.  A backtrack from c clears the sets whose last image is c; a set
whose last image lies above c lost its bit when that image was dropped.

In match mode (matching number at most s) both walks also keep a blocked
mask: a set is blocked when the included sets disjoint from it already hold
s pairwise disjoint ones, so the include test is one bit.  An include adds
to it (`_block`) and a backtrack restores it from a stack.  Blocked sets
stay blocked below their node, which gives the predicate-family walk the
bound behind its size floor.
"""

from __future__ import annotations

from array import array
from itertools import combinations

from .bitops import (coord_zero_mask, iter_members, plus_one, popcount,
                     reverse_bits, size_class_masks)

#: reported as `kernel_backend` in every CLI header
BACKEND = "pure"

#: largest ground size whose size counts go through 2**n-bit class masks;
#: above it `weight_counts` walks the members
DENSE_COUNT_N = 18


def monotone_masks(n: int, t: int = 0) -> array:
    """All t-intersecting increasing families on [n], each as a 2**n-bit
    mask, ascending (t = 0: every increasing family): the array of
    `iter_monotone_masks`."""
    return array("Q", iter_monotone_masks(n, t))


def iter_monotone_masks(n: int, t: int = 0):
    """Yield the masks of `monotone_masks` one at a time, ascending.  Only
    the families on [n-1] are held; the last level is never built whole,
    so a caller that stops early pays for what it took.

    Built by splitting on the last element: an increasing family on [n] is a
    pair (f0, f1) of increasing families on [n-1] with f0 a subfamily of f1,
    packed as f0 | f1 << 2**(n-1).  The packing orders pairs by f1, then
    f0, and f0 <= f1, so f0 runs over the families up to f1 and the result
    comes out ascending.

    An increasing G meets the sets ~A plus at most t-1 elements, for A in
    an increasing H, iff some A in H and B in G meet in fewer than t
    elements: then B | ~A is in G and is ~A plus the elements of A & B;
    conversely ~A plus X, with X a set of fewer than t elements of A, meets
    A in X.  The sets ~A, A in H, are H's mask reversed (`reverse_bits`),
    and `plus_one` adds an element.  With G = H = F this tests F for being
    t-intersecting.  Across the split, F is t-intersecting iff f1 is
    (t-1)-intersecting and f0 avoids near(f1), f1 reversed and grown t-1
    times by `plus_one` (the other cross pairs are the same pairs, since
    f0 lies in f1).  So each f1 is tested once, and f0 is kept iff
    f0 & (~f1 | near(f1)) == 0.
    """
    if not 0 <= n <= 6:
        raise ValueError("monotone enumeration supported for 0 <= n <= 6")
    if n == 0:
        # {empty set} meets itself in no element
        yield from [0] if t else [0, 1]
        return
    fams = [0, 1]
    for level in range(1, n):
        shift = 1 << (level - 1)
        fams = [f0 | (f1 << shift) for i, f1 in enumerate(fams)
                for f0 in fams[:i + 1] if f0 & ~f1 == 0]
    half = 1 << (n - 1)
    for i, f1 in enumerate(fams):
        near = reverse_bits(f1, half) if t else 0
        for _ in range(t - 1):
            if f1 & near:
                break  # f1 is not (t-1)-intersecting
            near |= plus_one(near, n - 1)
        else:
            keep = ~f1 | near
            high = f1 << half
            yield from (f0 | high for f0 in fams[:i + 1] if not f0 & keep)


def weight_pivot_counts(fam: int, n: int) -> tuple[list[int], list[list[int]]]:
    """Per-size counts of a family and of its pivotal edges.

    Returns (w, low) where w[j] counts members of size j and low[i][j]
    counts the size-j points x without coordinate i whose membership
    differs from that of x + i: the lower ends of the pivotal edges in
    direction i, so each such edge is counted once (low[i][n] is 0).
    """
    classes = size_class_masks(n)
    w = [(fam & c).bit_count() for c in classes]
    low = []
    for i in range(n):
        p0 = (fam ^ (fam >> (1 << i))) & coord_zero_mask(n, i)
        low.append([(p0 & c).bit_count() for c in classes])
    return w, low


def weight_counts(fam: int, n: int) -> list[int]:
    if n <= DENSE_COUNT_N:
        classes = size_class_masks(n)
        return [popcount(fam & c) for c in classes]
    # large ground sets: walk the members instead of materializing 2**n-bit
    # class masks
    w = [0] * (n + 1)
    for x in iter_members(fam, n):
        w[popcount(x)] += 1
    return w


def _walk_tables(masks, preds_masks, mode: str, param: int, shifted: bool,
                 included: int):
    """Index-mask tables shared by both walks (bit j of a mask is set j).

    rel[i]: in t mode, the earlier sets meeting set i in fewer than `param`
    elements, so set i may join iff `not included & rel[i]`; in match mode,
    every set disjoint from set i.  Both come bit-parallel from the mask of
    the sets holding each element: the sets meeting set i in at least t
    elements are the union, over t-subsets T of set i, of the sets holding
    all of T, and the sets disjoint from set i hold none of its elements.

    succ[c]: (1 << j, preds_masks[j]) for each set j whose last shift image
    (highest index) is set c, as including c is the one step that can make
    j ready (see the module notes), and succ_mask[c] those sets as one
    mask.  Also returns the ready mask: bit j set iff every shift image of
    set j is in `included` (every set, outside shifted mode).
    """
    n_sets = len(masks)
    full = (1 << n_sets) - 1
    holders = [sum(1 << j for j, m in enumerate(masks) if m >> e & 1)
               for e in range(max(masks, default=0).bit_length())]
    rel = []
    for i, m in enumerate(masks):
        elems = [e for e in range(len(holders)) if m >> e & 1]
        if mode == "t":
            meet = 0
            for subset in combinations(elems, max(param, 0)):
                common = full
                for e in subset:
                    common &= holders[e]
                meet |= common
            rel.append(((1 << i) - 1) & ~meet)
        elif mode == "match":
            free = full
            for e in elems:
                free &= ~holders[e]
            rel.append(free)
        else:
            raise ValueError(f"unknown predicate mode {mode!r}")
    succ: list[list[tuple[int, int]]] = [[] for _ in range(n_sets)]
    succ_mask = [0] * n_sets
    if not shifted:
        return rel, succ, succ_mask, full
    ready = 0
    for j, pm in enumerate(preds_masks):
        if pm:
            c = pm.bit_length() - 1
            succ[c].append((1 << j, pm))
            succ_mask[c] |= 1 << j
        if not pm & ~included:
            ready |= 1 << j
    return rel, succ, succ_mask, ready


def _cover(free: int, m: int, disjoint, target: int) -> int:
    """The sets in index mask `target` that are disjoint from every member
    of some m pairwise disjoint sets in `free` (all of `target` when m is
    0); disjoint[j] is the mask of the sets disjoint from set j.  Each
    matching is reached once, lowest index first, and the walk stops once
    every target set is covered."""
    if m <= 0:
        return target
    out = 0
    while free and target & ~out:
        low = free & -free
        free ^= low
        j = low.bit_length() - 1
        new = target & disjoint[j] & ~out
        if new:
            out |= _cover(free & disjoint[j], m - 1, disjoint, new)
    return out


def _no_blocked(mode: str, param: int) -> int:
    """The blocked mask of the empty family: no set, except that in match
    mode with s < 1 every set is (the empty matching is already there)."""
    return -1 if mode == "match" and param < 1 else 0


def _block(blocked: int, c: int, included: int, s: int, disjoint) -> int:
    """The blocked mask after set c joins the sets in `included`.

    A set x is blocked when the included sets disjoint from it hold s
    pairwise disjoint ones, so that x would complete an (s+1)-matching.
    Including c blocks the x disjoint from c that are also disjoint from
    every member of an (s-1)-matching among the included sets disjoint
    from c.  Only sets after c are updated: the walks never ask about an
    earlier one below this include.
    """
    target = disjoint[c] & ~blocked & -(2 << c)
    return blocked | _cover(included & disjoint[c], s - 1, disjoint, target)


def _path(i: int, chosen: list[int]) -> list[int]:
    """Decision vector of the first i sets: 1 for the chosen ones."""
    path = [0] * i
    for c in chosen:
        path[c] = 1
    return path


def search_uniform(masks, preds_masks, mode: str, param: int, shifted: bool,
                   node_budget: int | None = None,
                   resume_path: list[int] | None = None,
                   resume_best: int = -1, resume_witness=(),
                   checkpoint_cb=None, checkpoint_every: int = 0):
    """Branch-and-bound maximum-size family under a hereditary predicate.

    Sets are decided in the given (lexicographic) order, include branch first,
    so the first optimum reached is the lexicographically least one and the
    result is deterministic.  The upper bound is current size + remaining
    undecided sets.  In shifted mode a set may be included only when all its
    compression images (preds_masks) are already included, restricting the
    search to compression-closed families.

    The walk keeps its position and the chosen sets, not a decision list.
    From a set whose shift images are not all in (bit clear in the ready
    mask), it jumps to the next ready set and counts every set passed as one
    node and one forced exclusion.  A jump stops at the first set the bound
    prunes, at the node budget and at the next multiple of checkpoint_every,
    so stats, the budget stop, the checkpoint calls, the returned path and
    the witness match a walk that decides one set per node.  An include
    wakes only the sets whose last shift image it is, and a backtrack
    clears only those (see the module notes), so the ready mask stays
    exact at a cost of about one check per include.

    Returns (best_size, witness_index_tuple, stats_dict, complete, path)
    where path is the decision vector at exit (for checkpointing).
    """
    n_sets = len(masks)
    best = resume_best
    witness: tuple[int, ...] = tuple(resume_witness)
    nodes = 0
    bound_prunes = 0
    forced_exclusions = 0
    predicate_rejections = 0
    complete = True

    resume_path = resume_path or []
    chosen = [i for i, d in enumerate(resume_path) if d]
    size = len(chosen)
    included = sum(1 << i for i in chosen)
    rel, succ, succ_mask, ready = _walk_tables(masks, preds_masks, mode, param,
                                               shifted, included)
    t_mode = mode == "t"
    blocked = _no_blocked(mode, param)
    saved = []  # the blocked mask before each include in `chosen`
    prefix = 0
    for c in chosen:
        saved.append(blocked)
        if not t_mode:
            blocked = _block(blocked, c, prefix, param, rel)
        prefix |= 1 << c
    every = checkpoint_every if checkpoint_cb is not None else 0
    i = len(resume_path)
    line = n_sets - best  # the bound prunes a node at i iff size + line <= i

    while True:
        if i == n_sets:
            nodes += 1
            if size > best:
                best = size
                line = n_sets - best
                witness = tuple(chosen)
        elif size + line <= i:
            bound_prunes += 1
        else:
            r = ready >> i
            if r & 1:
                stop = i
            else:
                # sets i..stop-1 are shift-forced exclusions
                stop = i + (r & -r).bit_length() - 1 if r else n_sets
                if stop > size + line:
                    stop = size + line
                if node_budget is not None and stop > i + node_budget - nodes:
                    stop = i + node_budget - nodes
                if every and stop > i + every - nodes % every:
                    stop = i + every - nodes % every
            if stop > i:
                nodes += stop - i
                forced_exclusions += stop - i
                i = stop
            else:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    complete = False
                    break
                if not (included & rel[i] if t_mode else blocked >> i & 1):
                    chosen.append(i)
                    size += 1
                    saved.append(blocked)
                    if not t_mode:
                        blocked = _block(blocked, i, included, param, rel)
                    included |= 1 << i
                    for bit, pm in succ[i]:
                        if not pm & ~included:
                            ready |= bit
                else:
                    predicate_rejections += 1
                i += 1
            if every and nodes % every == 0:
                checkpoint_cb(_path(i, chosen), best, list(witness), nodes)
            continue
        # backtrack: flip the deepest include decision to exclude
        if not size:
            i = 0
            break
        c = chosen.pop()
        size -= 1
        included ^= 1 << c
        blocked = saved.pop()
        ready &= ~succ_mask[c]
        i = c + 1

    stats = {
        "nodes": nodes,
        "bound_prunes": bound_prunes,
        "forced_exclusions": forced_exclusions,
        "predicate_rejections": predicate_rejections,
    }
    return best, witness, stats, complete, _path(i, chosen)


def iter_predicate_families(masks, preds_masks, mode: str, param: int,
                            shifted: bool, node_budget: int | None = None,
                            min_size: int = 0):
    """Yield every family (tuple of set indices) satisfying the predicate
    with at least `min_size` sets.

    Shifted mode restricts to compression-closed families.  Used by the
    conjecture scanners; exhaustive, depth-first, include branch first.
    The same iterative walk as `search_uniform` without its bound: runs of
    shift-forced sets are skipped through the ready mask and counted in
    bulk, so node counts (and the `nodes` of BudgetExceeded) match a walk
    that visits one set per node.

    With a `min_size` floor the walk leaves out every subtree in which the
    chosen sets and the sets still to come that are not blocked number
    fewer than `min_size`.  The predicate is hereditary, so a blocked set
    stays blocked below its node and the bound holds.  The families come
    in the same order, but nodes count only the subtrees walked.
    """
    n_sets = len(masks)
    rel, succ, succ_mask, ready = _walk_tables(masks, preds_masks, mode, param,
                                               shifted, 0)
    t_mode = mode == "t"
    open_sets = (1 << n_sets) - 1
    chosen: list[int] = []
    saved: list[int] = []  # the blocked mask before each include in `chosen`
    included = 0
    blocked = _no_blocked(mode, param)
    nodes = 0
    i = 0
    while True:
        # sets i..stop-1 are shift-forced exclusions, then a node at stop
        r = ready >> i
        stop = i + (r & -r).bit_length() - 1 if r else n_sets
        if (not min_size or len(chosen)
                + popcount((open_sets & ~blocked) >> stop) >= min_size):
            nodes += stop - i + 1
            if node_budget is not None and nodes > node_budget:
                raise BudgetExceeded(node_budget + 1)
            i = stop
            if i < n_sets:
                if not (included & rel[i] if t_mode else blocked >> i & 1):
                    chosen.append(i)
                    saved.append(blocked)
                    if not t_mode:
                        blocked = _block(blocked, i, included, param, rel)
                    included |= 1 << i
                    for bit, pm in succ[i]:
                        if not pm & ~included:
                            ready |= bit
                i += 1
                continue
            yield tuple(chosen)
        # backtrack: flip the deepest include decision to exclude
        if not chosen:
            return
        c = chosen.pop()
        included ^= 1 << c
        blocked = saved.pop()
        ready &= ~succ_mask[c]
        i = c + 1


class BudgetExceeded(RuntimeError):
    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes
