"""Pure-Python reference kernels.

Same contract as the compiled extension `_core`; selected at import time by
`ekrlab._kernels` when the extension is unavailable (or forced via
EKRLAB_KERNELS=pure).  Everything here works on arbitrary-size Python ints,
so there is no 64-set universe limit.

The search and the predicate-family walk share index-mask tables (bit j
stands for set j): a relation mask per set for the include test, the
successors of each set under shifting, and a ready mask of the sets whose
shift images are all included.  Both walks jump over sets outside the ready
mask and count them as forced exclusions in bulk; every counter matches a
walk that visits one set per node, which is how the compiled kernel walks.
"""

from __future__ import annotations

from array import array

from ..bitops import coord_zero_mask, iter_bit_indices, popcount, size_class_masks

BACKEND_NAME = "pure"


def monotone_masks(n: int) -> array:
    """All increasing families on [n], each as a 2**n-bit mask, ascending.

    Built by splitting on the last element: an increasing family on [n] is a
    pair (f0, f1) of increasing families on [n-1] with f0 a subfamily of f1,
    packed as f0 | f1 << 2**(n-1).
    """
    if not 0 <= n <= 6:
        raise ValueError("monotone enumeration supported for 0 <= n <= 6")
    fams = [0, 1]
    for level in range(1, n + 1):
        shift = 1 << (level - 1)
        fams = [f0 | (f1 << shift) for f1 in fams for f0 in fams
                if f0 & ~f1 == 0]
    fams.sort()
    return array("Q", fams)


def weight_pivot_counts(fam: int, n: int) -> tuple[list[int], list[list[int]]]:
    """Per-size counts of a family and of each coordinate's pivotal set.

    Returns (w, piv) where w[j] counts members of size j and piv[i][j] counts
    cube points x of size j whose membership flips when coordinate i flips.
    """
    classes = size_class_masks(n)
    w = [popcount(fam & c) for c in classes]
    piv = []
    for i in range(n):
        d = 1 << i
        p0 = (fam ^ (fam >> d)) & coord_zero_mask(n, i)
        pmask = p0 | (p0 << d)
        piv.append([popcount(pmask & c) for c in classes])
    return w, piv


def weight_counts(fam: int, n: int) -> list[int]:
    if n <= 18:
        classes = size_class_masks(n)
        return [popcount(fam & c) for c in classes]
    # large ground sets: scan member positions instead of materializing
    # 2**n-bit class masks
    w = [0] * (n + 1)
    buf = fam.to_bytes(((1 << n) + 7) // 8, "little")
    for byte_idx, byte in enumerate(buf):
        while byte:
            low = byte & -byte
            x = byte_idx * 8 + low.bit_length() - 1
            w[popcount(x)] += 1
            byte ^= low
    return w


def _walk_tables(masks, preds_masks, mode: str, param: int, shifted: bool,
                 included: int):
    """Index-mask tables shared by both walks (bit j of a mask is set j).

    rel[i]: in t mode, the earlier sets meeting set i in fewer than `param`
    elements, so set i may join iff `not included & rel[i]`; in match mode,
    every set disjoint from set i.  succ[c]: (j, 1 << j, preds_masks[j]) for
    each set j that has set c among its shift images, and succ_mask[c] those
    sets as one mask.  Also returns the ready mask: bit j set iff every
    shift image of set j is in `included` (every set, outside shifted mode).
    """
    n_sets = len(masks)
    rel = []
    for i, m in enumerate(masks):
        r = 0
        if mode == "t":
            for j in range(i):
                if popcount(m & masks[j]) < param:
                    r |= 1 << j
        elif mode == "match":
            for j, mj in enumerate(masks):
                if not m & mj:
                    r |= 1 << j
        else:
            raise ValueError(f"unknown predicate mode {mode!r}")
        rel.append(r)
    succ: list[list[tuple[int, int, int]]] = [[] for _ in range(n_sets)]
    succ_mask = [0] * n_sets
    if not shifted:
        return rel, succ, succ_mask, (1 << n_sets) - 1
    ready = 0
    for j, pm in enumerate(preds_masks):
        for c in iter_bit_indices(pm):
            succ[c].append((j, 1 << j, pm))
            succ_mask[c] |= 1 << j
        if not pm & ~included:
            ready |= 1 << j
    return rel, succ, succ_mask, ready


def _has_disjoint(free: int, need: int, disjoint) -> bool:
    """True iff the sets in index mask `free` include `need` pairwise
    disjoint ones (disjoint[j]: the sets disjoint from set j)."""
    if need <= 1:
        return need <= 0 or free != 0
    while popcount(free) >= need:
        low = free & -free
        free ^= low
        if _has_disjoint(free & disjoint[low.bit_length() - 1], need - 1,
                         disjoint):
            return True
    return False


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
    the witness match a walk that decides one set per node.

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
    included = sum(1 << i for i in chosen)
    rel, succ, succ_mask, ready = _walk_tables(masks, preds_masks, mode, param,
                                               shifted, included)
    t_mode = mode == "t"
    every = checkpoint_every if checkpoint_cb is not None else 0
    i = len(resume_path)

    while True:
        if i == n_sets:
            nodes += 1
            if len(chosen) > best:
                best = len(chosen)
                witness = tuple(chosen)
        elif len(chosen) + (n_sets - i) <= best:
            bound_prunes += 1
        else:
            r = ready >> i
            stop = i + (r & -r).bit_length() - 1 if r else n_sets
            if stop > i:
                # sets i..stop-1 are shift-forced exclusions
                stop = min(stop, n_sets - best + len(chosen))
                if node_budget is not None:
                    stop = min(stop, i + node_budget - nodes)
                if every:
                    stop = min(stop, i + every - nodes % every)
            if stop > i:
                nodes += stop - i
                forced_exclusions += stop - i
                i = stop
            else:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    complete = False
                    break
                if (not included & rel[i] if t_mode
                        else not _has_disjoint(included & rel[i], param, rel)):
                    chosen.append(i)
                    included |= 1 << i
                    for j, bit, pm in succ[i]:
                        if not pm & ~included:
                            ready |= bit
                else:
                    predicate_rejections += 1
                i += 1
            if every and nodes % every == 0:
                checkpoint_cb(_path(i, chosen), best, list(witness), nodes)
            continue
        # backtrack: flip the deepest include decision to exclude
        if not chosen:
            i = 0
            break
        c = chosen.pop()
        included ^= 1 << c
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
                            shifted: bool, node_budget: int | None = None):
    """Yield every family (tuple of set indices) satisfying the predicate.

    Shifted mode restricts to compression-closed families.  Used by the
    conjecture scanners; exhaustive, depth-first, include branch first.
    The same iterative walk as `search_uniform` without the bound: runs of
    shift-forced sets are skipped through the ready mask and counted in
    bulk, so node counts (and the `nodes` of BudgetExceeded) match a walk
    that visits one set per node.
    """
    n_sets = len(masks)
    rel, succ, succ_mask, ready = _walk_tables(masks, preds_masks, mode, param,
                                               shifted, 0)
    t_mode = mode == "t"
    chosen: list[int] = []
    included = 0
    nodes = 0
    i = 0
    while True:
        # sets i..stop-1 are shift-forced exclusions, then a node at stop
        r = ready >> i
        stop = i + (r & -r).bit_length() - 1 if r else n_sets
        nodes += stop - i + 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceeded(node_budget + 1)
        i = stop
        if i == n_sets:
            yield tuple(chosen)
            if not chosen:
                return
            c = chosen.pop()
            included ^= 1 << c
            ready &= ~succ_mask[c]
            i = c + 1
        else:
            if (not included & rel[i] if t_mode
                    else not _has_disjoint(included & rel[i], param, rel)):
                chosen.append(i)
                included |= 1 << i
                for j, bit, pm in succ[i]:
                    if not pm & ~included:
                        ready |= bit
            i += 1


class BudgetExceeded(RuntimeError):
    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes
