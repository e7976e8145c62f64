"""Counting, enumeration and search kernels.

Everything here works on arbitrary-size Python ints.

The search and the predicate-family walk share three index-mask tables
(bit j stands for set j): `rel`, the sets each set blocks, `up`, the sets
above each set in the shift order, and `lift`, the sets above some set
that each set blocks.  Both walks decide the sets in order and keep two
masks, restored from a stack on each backtrack.

The dead mask holds the sets that can no longer join because a shift image
of theirs (taken any number of times) is out.  A set is out once it is
decided and not included, so excluding set c ORs in up[c]; a set whose
images are all in is then exactly a set not dead when the walk reaches it.
A set skipped as dead adds nothing (up is transitive), so both walks jump
over runs of dead sets and count them as forced exclusions in bulk; every
counter matches a walk that visits one set per node.

The blocked mask holds the sets the included ones rule out, so the
include test is one bit.  In t mode including c ORs in rel[c], the later
sets meeting c in fewer than t elements.  In match mode (matching number at
most s) a set is blocked when the included sets disjoint from it already
hold s pairwise disjoint ones, so including c ORs in the later sets
disjoint from c and from every member of some s - 1 pairwise disjoint
included sets disjoint from c (`_cover`).  That mask depends on c and on
the included sets disjoint from c alone, and few such pairs recur often,
so match mode computes each once and keeps it: a cache, emptied when it
holds about STORE_CAP bytes, which moves no counter.  `_include_step`
picks the rule once; every include then ORs its mask into the blocked
mask and lift[c] (below) into the dead mask.
Blocked sets stay blocked below their node, and dead sets stay dead, so
neither can join below it: the predicate-family walk's size floor counts
only the later sets that are neither.

In t mode the search also stores subtrees.  Below a live set i, every
later set is decided by i and the two masks alone: it is forced if dead,
else rejected if blocked, else included, and each decision updates the
masks from the tables.  With line = n_sets - best the bound prunes a node
at i iff size + line <= i.  An include moves size and i together and an
exclusion moves i alone, so below a node at slack s = size + line - i a
node is pruned iff the exclusions since that node (its depth) reach s: the
walk at a slack s' <= s is the walk at s cut at depth s'.  So the store
keys on i, the dead mask from bit i up and the blocked mask from bit i up,
without the slack, and keeps the walk at the largest slack s seen as a
depth table: one int of records, record e holding WIDTH-bit counts of the
nodes at depth e or more and, in shifted mode, of the forced exclusions
among them, plus a mark of one in record s.  No stored walk improves the
incumbent, so its leaves all lie at depth s.  Cut at s', the nodes are
those above depth s', and the bound prunes the exclusion children of the
nodes at depth s' - 1 (every node has one), less the leaves among them.
Rejections need no count: an include's other child is at its own depth,
so the nodes at a depth above s form runs of includes, each ending in the
one rejection or forced exclusion that leaves the depth; a run starts at
the root or at an exclusion child, so the rejections and forced
exclusions at depth e number the nodes at depth e - 1 (one at depth 0).
Each open subtree builds its table relative to its root; a finished one is
stored (unless it holds 2**WIDTH nodes or more, or a walk at a larger
slack is stored) and added into the table of the subtree around it, as is
a stored subtree when it is added.  An improved incumbent drops the open subtrees,
whose walks mix two bounds, but no entry: cut at the smaller slack, a
stored walk is the walk under the new incumbent.  The entries are only a
cache: a store that holds about STORE_CAP bytes is emptied before the next
goes in, which bounds its memory and moves no counter.
A stored subtree is added only if its nodes stay within the node budget
and end before the next multiple of checkpoint_every; otherwise it is
walked, so budget stops and checkpoints fall where the node-at-a-time
walk puts them.
Both walks keep the dead mask in one canonical form: a set above a
blocked later set will be forced, not rejected (the blocked set is out
before the walk reaches it), so including c also ORs lift[c] into the
dead mask (in shifted t mode the sets above rel[c], else no set), and the
search drops the blocked bits of dead sets from its key.  That moves no
verdict, family or counter: such a set is dead by the time the walk
reaches it either way, and it is blocked already.  (The included sets are
closed under shifts: if a member meets a set in fewer than t elements,
that member or one of its shift images meets each set above it in fewer
than t elements too.)
"""

from __future__ import annotations

from array import array

from .bitops import (coord_zero_mask, iter_members, plus_one, popcount,
                     reverse_bits, size_class_masks)

#: reported as `kernel_backend` in every CLI header
BACKEND = "pure"

#: largest ground size whose size counts go through 2**n-bit class masks;
#: above it `weight_counts` walks the members
DENSE_COUNT_N = 18

#: bytes the t-mode subtree store of `search_uniform`, or the match-mode
#: cover cache of either walk, may hold; a full one is emptied before the
#: next entry goes in
STORE_CAP = 96 << 20

#: bits of each count in a stored subtree's depth table; a subtree of
#: 2**WIDTH nodes or more is walked each time, never stored
WIDTH = 24

#: bytes charged to each stored subtree beside its depth table (its key,
#: its slot in the store and the header of the table's int) and to each
#: cached cover
ENTRY_BYTES = 128

#: the work behind the counters of the last `search_uniform` call: in t
#: mode, live nodes walked, stored subtrees added cut below the slack they
#: were walked at, and store empties; in match mode, covers computed (the
#: cache misses) and cover cache empties
LAST_WORK = {"walked": 0, "cut": 0, "clears": 0, "covers": 0}


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


def _walk_tables(masks, preds_masks, mode: str, param: int, shifted: bool):
    """The tables (rel, up, lift) shared by both walks (bit j of a mask is
    set j).

    rel[i]: in t mode, the later sets meeting set i in fewer than `param`
    elements, so including set i blocks exactly those; in match mode,
    every set disjoint from set i.  Both come bit-parallel from the mask of
    the sets holding each element: over the elements of set i, a count
    capped at t of how many each set holds gives the sets meeting set i in
    at least t elements, and the sets disjoint from set i hold none of
    its elements.

    up[c]: the sets above set c in the shift order, those with set c among
    their shift images taken any number of times (no set outside shifted
    mode).  Shift images come earlier in the order, so walking the sets
    last first, each set's up mask is complete when it is passed on to its
    images.

    lift[c]: in shifted t mode, the sets above some set of rel[c], which
    including set c makes dead (see the module notes); else no set.
    """
    n_sets = len(masks)
    full = (1 << n_sets) - 1
    holders = [0] * max(masks, default=0).bit_length()
    for j, m in enumerate(masks):
        bit = 1 << j
        while m:
            low = m & -m
            holders[low.bit_length() - 1] |= bit
            m ^= low
    rel = []
    for i, m in enumerate(masks):
        if mode == "t":
            # seen[l]: the sets holding more than l of the elements of set
            # i looked at so far (every set meets set i in at least 0)
            seen = [0] * param
            while m and seen:
                low = m & -m
                h = holders[low.bit_length() - 1]
                for level in range(param - 1, 0, -1):
                    seen[level] |= seen[level - 1] & h
                seen[0] |= h
                m ^= low
            meet = seen[-1] if param > 0 else full
            rel.append(-(2 << i) & full & ~meet)
        else:
            free = full
            while m:
                low = m & -m
                free &= ~holders[low.bit_length() - 1]
                m ^= low
            rel.append(free)
    up = [0] * n_sets
    if not shifted:
        return rel, up, up  # no set is above another, so lift is empty too
    for j in reversed(range(n_sets)):
        above = up[j] | 1 << j
        pm = preds_masks[j]
        while pm:
            low = pm & -pm
            up[low.bit_length() - 1] |= above
            pm ^= low
    lift = [_lift(r, up) for r in rel] if mode == "t" else [0] * n_sets
    return rel, up, lift


def _lift(blocks: int, up) -> int:
    """The sets above some set of `blocks` in the shift order.  A set
    already covered adds nothing (the order is transitive), so only the
    lowest uncovered set is looked up each time."""
    out = 0
    while blocks:
        low = blocks & -blocks
        out |= up[low.bit_length() - 1]
        blocks &= ~(out | low)
    return out


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
            if m > 1:
                new = _cover(free & disjoint[j], m - 1, disjoint, new)
            out |= new
    return out


def _include_step(rel, mode: str, s: int):
    """The include step of both walks: (add, blocked, work).

    add(c, included) is the mask that including set c ORs into the blocked
    mask when the sets in `included` (all before c) are in.  In t mode that
    is rel[c].  In match mode it is the sets after c disjoint from c and
    from every member of an (s-1)-matching among the included sets disjoint
    from c (some may be blocked already).  `_cover` on a target gives that
    target's part of its cover of any larger one (its early stop and its
    trim drop only covered sets), so the mask depends on c and
    included & rel[c] alone, and one dict per set c keeps it under the
    latter.  A cache that holds about STORE_CAP bytes, at ENTRY_BYTES an
    entry, is emptied before the next entry goes in; work counts the covers
    computed and the empties.

    blocked is the blocked mask of the empty family: no set, except that in
    match mode with s < 1 every set is (the empty matching is already
    there).
    """
    work = {"covers": 0, "clears": 0}
    if mode == "t":
        return (lambda c, included: rel[c]), 0, work
    cached = [{} for _ in rel]
    cap = STORE_CAP // ENTRY_BYTES
    held = 0

    def add(c: int, included: int) -> int:
        nonlocal held
        key = included & rel[c]
        out = cached[c].get(key)
        if out is None:
            out = _cover(key, s - 1, rel, rel[c] & -(2 << c))
            if held >= cap:
                for entries in cached:
                    entries.clear()
                held = 0
                work["clears"] += 1
            cached[c][key] = out
            held += 1
            work["covers"] += 1
        return out

    return add, -1 if s < 1 else 0, work


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

    The walk keeps its position, the chosen sets, a dead mask and a blocked
    mask, updated from the tables of `_walk_tables` (see the module notes).
    From a dead set it jumps to the next live one and counts every set
    passed as one node and one forced exclusion.
    A jump stops at the first set the bound prunes, at the node budget and
    at the next multiple of checkpoint_every, so stats, the budget stop, the
    checkpoint calls, the returned path and the witness match a walk that
    decides one set per node.

    In t mode a live node at i whose key (i and the dead and blocked masks
    from bit i up, which decide its subtree; see the module notes) is stored
    at a slack of at least the bound's slack s there adds the counters of
    the stored walk cut at exclusion depth s instead of walking it, unless
    the node budget or the next multiple of checkpoint_every falls inside.
    Each include takes its blocked sets from `_include_step` (in match
    mode, from its cover cache).  A store or cache that is full (about
    STORE_CAP bytes) is emptied; the work done goes to LAST_WORK.

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

    rel, up, lift = _walk_tables(masks, preds_masks, mode, param, shifted)
    add, blocked, step_work = _include_step(rel, mode, param)
    chosen: list[int] = []
    saved = []  # (blocked, dead) before each include in `chosen`
    included = 0
    dead = 0
    resume_path = resume_path or []
    for c, d in enumerate(resume_path):
        if not d:
            dead |= up[c]
            continue
        saved.append((blocked, dead))
        blocked |= add(c, included)
        dead |= lift[c]
        chosen.append(c)
        included |= 1 << c
    size = len(chosen)
    every = checkpoint_every if checkpoint_cb is not None else 0
    i = len(resume_path)
    line = n_sets - best  # the bound prunes a node at i iff size + line <= i
    # stored subtrees: key -> the subtree's depth table (see the module
    # notes), whose records are u bits: w-bit counts of the nodes and, in
    # shifted mode, of the forced exclusions.  The key packs the dead and
    # blocked masks from bit i up and i into one int
    memo: dict = {}
    w = WIDTH
    u = 2 * w if shifted else w
    count = (1 << w) - 1
    record = (1 << u) - 1
    low = n_sets.bit_length()
    # the store's size in records since it was last emptied: each entry is
    # charged its slack and `overhead` more for its key and slot
    held = 0
    overhead = 8 * ENTRY_BYTES // u + 1
    cap = 8 * STORE_CAP // u
    frames = []  # (size, key or None, slack, nodes, outer table, outer root)
    table = 0  # the depth table of the innermost open subtree ...
    root = 0  # ... and the depth i - size of its root
    walked = cut = clears = 0
    can_store = mode == "t"  # only there do the masks alone decide a subtree
    storing = can_store and best >= 0  # no subtree is stored before a leaf
    if storing:
        ones, runs = _depth_tables(line + 2, u, w)

    while True:
        if i == n_sets:
            nodes += 1
            if size > best:
                best = size
                line = n_sets - best
                witness = tuple(chosen)
                frames.clear()
                if can_store and not storing:
                    storing = True
                    ones, runs = _depth_tables(line + 2, u, w)
            elif frames:
                table += ones[n_sets - size - root]
        elif size + line <= i:
            bound_prunes += 1
        else:
            d = dead >> i
            walk = True
            if d & 1:
                # sets i..stop-1 are shift-forced exclusions
                stop = i + (~d & (d + 1)).bit_length() - 1
                if stop > size + line:
                    stop = size + line
                if node_budget is not None and stop > i + node_budget - nodes:
                    stop = i + node_budget - nodes
                if every and stop > i + every - nodes % every:
                    stop = i + every - nodes % every
                if stop <= i:  # the budget is spent: this node crosses it
                    nodes += 1
                    complete = False
                    break
                nodes += stop - i
                forced_exclusions += stop - i
                if frames:
                    e = i - size - root
                    table += runs[e + stop - i] - runs[e]
                i = stop
            else:
                if storing:
                    key = (d << n_sets | blocked >> i & ~d) << low | i
                    slack = size + line - i
                    entry = memo.get(key)
                    rest = entry >> u * slack if entry else 0
                    if rest:
                        # stored at this slack or a larger one: add that
                        # walk cut at depth slack (see the module notes)
                        if rest > record:
                            cut += 1
                            sub = (entry - (rest << u * slack)
                                   - (rest & record) * ones[slack - 1])
                            leaves = 0
                        else:  # rest: the mark and the leaves, at depth slack
                            sub = entry - (1 << u * slack)
                            leaves = rest - 1
                        total = sub & record
                        stored = total & count
                        forced = total >> w
                        # nodes at depth slack - 1 and leaves at depth slack
                        x = sub >> u * (slack - 1) & count
                        walk = (node_budget is not None
                                and nodes + stored > node_budget
                                or every and nodes % every + stored >= every)
                        if not walk:
                            nodes += stored
                            bound_prunes += x - 2 * leaves
                            forced_exclusions += forced
                            predicate_rejections += 1 + stored - x - forced
                            if frames:
                                e = i - size - root
                                table += sub << u * e
                                if e:
                                    table += total * ones[e - 1]
                        else:
                            key = None  # the store keeps the larger walk
                    if walk:
                        walked += 1
                        frames.append((size, key, slack, nodes, table, root))
                        root = i - size
                if walk:
                    nodes += 1
                    if node_budget is not None and nodes > node_budget:
                        complete = False
                        break
                    table = 1  # this node, at depth 0 of its subtree
                    if not blocked >> i & 1:
                        saved.append((blocked, dead))
                        blocked |= add(i, included)
                        dead |= lift[i]
                        chosen.append(i)
                        size += 1
                        included |= 1 << i
                    else:
                        predicate_rejections += 1
                        dead |= up[i]
                    i += 1
            if walk:
                if every and nodes % every == 0:
                    checkpoint_cb(_path(i, chosen), best, list(witness), nodes)
                continue
        # backtrack: flip the deepest include decision to exclude
        if not size:
            i = 0
            break
        # every subtree opened since this include was made is finished
        while frames and frames[-1][0] >= size:
            _, key, slack, n0, outer, outer_root = frames.pop()
            if key is not None and nodes - n0 <= count:  # no field overflowed
                if held >= cap:
                    memo.clear()
                    held = 0
                    clears += 1
                memo[key] = table + (1 << u * slack)  # the mark
                held += slack + overhead
            if frames:
                e = root - outer_root
                if e:
                    table = (outer + (table << u * e)
                             + (table & record) * ones[e - 1])
                else:
                    table += outer
            root = outer_root
        c = chosen.pop()
        size -= 1
        included ^= 1 << c
        blocked, dead = saved.pop()
        dead |= up[c]
        i = c + 1

    LAST_WORK.update(walked=walked, cut=cut,
                     clears=clears + step_work["clears"],
                     covers=step_work["covers"])
    stats = {
        "nodes": nodes,
        "bound_prunes": bound_prunes,
        "forced_exclusions": forced_exclusions,
        "predicate_rejections": predicate_rejections,
    }
    return best, witness, stats, complete, _path(i, chosen)


def _depth_tables(depths: int, u: int, w: int):
    """Constants of the depth tables of `search_uniform` for depths below
    `depths`, whose records are u bits wide with the forced exclusions w
    bits up: ones[e] has a 1 at the foot of the records 0..e, and runs[q]
    holds q - j nodes that are forced exclusions in record j for j < q, so
    a run of forced exclusions at depths e..q-1 adds runs[q] - runs[e]."""
    ones, runs = [], [0]
    acc = 0
    for e in range(depths):
        acc |= 1 << u * e
        ones.append(acc)
        runs.append(runs[-1] + acc)
    forced = 1 | 1 << w
    return ones, [forced * r for r in runs]


def iter_predicate_families(masks, preds_masks, mode: str, param: int,
                            shifted: bool, node_budget: int | None = None,
                            min_size: int = 0):
    """Yield every family (tuple of set indices) satisfying the predicate
    with at least `min_size` sets.

    Shifted mode restricts to compression-closed families.  Used by the
    conjecture scanners; exhaustive, depth-first, include branch first.
    The same iterative walk as `search_uniform`, with the same tables and
    the same mask updates, without its bound or its stored subtrees: runs
    of dead sets are skipped and counted in bulk, so node counts (and the
    `nodes` of BudgetExceeded) match a walk that visits one set per node.

    With a `min_size` floor the walk leaves out every subtree in which the
    chosen sets and the sets still to come that are neither blocked nor
    dead number fewer than `min_size`.  The predicate is hereditary, so a
    blocked set stays blocked below its node; a dead set has a shift image
    out, so it stays dead; neither can join there, and the bound holds.
    The families come in the same order, but nodes count only the subtrees
    walked.
    """
    n_sets = len(masks)
    rel, up, lift = _walk_tables(masks, preds_masks, mode, param, shifted)
    add, blocked = _include_step(rel, mode, param)[:2]
    open_sets = (1 << n_sets) - 1
    chosen: list[int] = []
    saved = []  # (blocked, dead) before each include in `chosen`
    included = 0
    dead = 0
    nodes = 0
    i = 0
    while True:
        # sets i..stop-1 are shift-forced exclusions, then a node at stop
        d = dead >> i
        stop = i + (~d & (d + 1)).bit_length() - 1
        if (not min_size or len(chosen)
                + popcount((open_sets & ~blocked & ~dead) >> stop)
                >= min_size):
            nodes += stop - i + 1
            if node_budget is not None and nodes > node_budget:
                raise BudgetExceeded(node_budget + 1)
            i = stop
            if i < n_sets:
                if not blocked >> i & 1:
                    saved.append((blocked, dead))
                    blocked |= add(i, included)
                    dead |= lift[i]
                    chosen.append(i)
                    included |= 1 << i
                else:
                    dead |= up[i]
                i += 1
                continue
            yield tuple(chosen)
        # backtrack: flip the deepest include decision to exclude
        if not chosen:
            return
        c = chosen.pop()
        included ^= 1 << c
        blocked, dead = saved.pop()
        dead |= up[c]
        i = c + 1


class BudgetExceeded(RuntimeError):
    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes
