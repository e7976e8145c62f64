"""Exhaustive and compression-pruned searches for extremal families, plus
the Dedekind counts and an independent count oracle for the monotone
enumerator in `ekrlab._kernels`.

The branch-and-bound decides sets in lex order (include branch first,
strict-improvement incumbent), so results and witnesses are deterministic.
Shifted mode explores only compression-closed families: a set may enter only
when every image under an (i,j)-shift with i<j is already in.  The
predicates used here (t-intersecting, matching bounded) are preserved by
shifts, so the shifted optimum equals the global one; certificates are
re-verified independently on emission.  The kernels skip runs of sets
with a shift image out through a dead mask and count them as forced
exclusions in bulk, and the t-intersecting search adds the counters of a
stored subtree instead of walking it again (see `ekrlab._kernels`); the
counters are those of the node-at-a-time walk.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import _kernels
from .bitops import elements_of, subset_masks
from .families import UniformFamily, is_t_intersecting, matching_number
from .numerics import _Frozen

# -- monotone counts -----------------------------------------------------------

#: increasing-family counts (Dedekind numbers) for the supported range
MONOTONE_COUNTS = (2, 3, 6, 20, 168, 7581, 7828354)


def monotone_count_oracle(n: int) -> int:
    """Count increasing families independently of the enumerator.

    For n <= 4 this filters every subset of the cube directly; for n = 5, 6
    it counts nested pairs over the (brute-verifiable) previous level.
    """
    if not 0 <= n <= 6:
        raise ValueError("oracle supports 0 <= n <= 6")
    if n <= 4:
        size = 1 << n
        count = 0
        for f in range(1 << size):
            ok = True
            for x in range(size):
                if (f >> x) & 1:
                    for i in range(n):
                        if not (f >> (x | (1 << i))) & 1:
                            ok = False
                            break
                    if not ok:
                        break
            count += ok
        return count
    prev = [int(v) for v in _kernels.monotone_masks(n - 1)]
    return sum(1 for f1 in prev for f0 in prev if f0 & ~f1 == 0)


# -- uniform search -------------------------------------------------------------

#: predicate name -> (kernel mode, the `search` option that sets its
#: parameter t, or None where t is 1); every predicate is hereditary
#: (closed under taking subfamilies), as branch-and-bound needs
PREDICATES = {
    "intersecting": ("t", None),
    "t-intersecting": ("t", "t"),
    "matching_at_most": ("match", "s"),
}


class SearchProblem(_Frozen):
    """A search instance: the ground [n]^(k), a hereditary predicate and a
    node budget (t is t for intersecting, s for matching)."""

    __slots__ = ("n", "k", "predicate", "t", "budget", "shifted")

    def __init__(self, n: int, k: int, predicate: str = "intersecting",
                 t: int = 1, budget: int | None = None, shifted: bool = False):
        if predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {predicate!r}")
        if t < 1:
            raise ValueError(f"need t >= 1 (t for intersecting, s for "
                             f"matching), got t={t}")
        if budget is not None and budget < 1:
            raise ValueError(f"need budget >= 1, got budget={budget}")
        super().__init__(n, k, predicate, t, budget, shifted)


class SearchCertificate(_Frozen):
    """A search's optimum, its witness (a UniformFamily) and statistics."""

    __slots__ = ("optimum", "witness", "nodes", "stats", "complete",
                 "shifted", "reverified")

    def to_dict(self) -> dict:
        wit = self.witness
        members = [list(t) for t in wit.member_sets()] if wit is not None else None
        return {
            "optimum": self.optimum,
            "witness": members,
            "nodes": self.nodes,
            "stats": dict(sorted(self.stats.items())),
            "complete": self.complete,
            "shifted": self.shifted,
            "reverified": self.reverified,
        }


def lex_universe(n: int, k: int) -> list[int]:
    """k-subsets of [n] as masks, in lex order on element tuples."""
    return [m for _, m in subset_masks(n, k)]


def shift_predecessor_masks(n: int, k: int, universe: list[int]) -> list[int]:
    """For each set, the index-mask of its immediate (i,j)-shift images
    (replace an element j by some absent i < j); all have smaller lex rank."""
    bit_of = {m: 1 << i for i, m in enumerate(universe)}
    preds = []
    for m in universe:
        pm = 0
        members = m
        while members:
            elem = members & -members  # an element j, as a bit
            members ^= elem
            below = ~m & (elem - 1)  # the absent elements i < j
            while below:
                low = below & -below
                pm |= bit_of[m ^ elem | low]
                below ^= low
        preds.append(pm)
    return preds


def _walk_setup(n: int, k: int, predicate: str, t: int, shifted: bool):
    """What both walks of [n]^(k) start from: (the k-sets in lex order,
    their shift image masks, none outside shifted mode, the kernel mode,
    its parameter).  The parameter is 1 for intersecting, t for
    t-intersecting, and s = t for matching (adding a set must not create
    s+1 pairwise disjoint members).  A k-set meets itself in k elements, so
    no k-set belongs to a t-intersecting family when k < t: a ValueError
    (the kernel tests a set against the sets before it, not itself)."""
    universe = lex_universe(n, k)
    preds = (shift_predecessor_masks(n, k, universe)
             if shifted else [0] * len(universe))
    mode, option = PREDICATES[predicate]
    param = t if option else 1
    if mode == "t" and k < param:
        raise ValueError(f"{predicate} needs k >= t (a k-set meets itself in "
                         f"k elements), got k={k}, t={param}")
    return universe, preds, mode, param


def _reverify(witness: UniformFamily, predicate: str, t: int) -> bool:
    mode, option = PREDICATES[predicate]
    param = t if option else 1
    if mode == "match":
        return matching_number(witness) <= param
    return is_t_intersecting(witness, param) if len(witness) else True


def _problem_key(problem: SearchProblem) -> dict:
    """What a checkpoint must match to be resumed: the search tree."""
    return {"n": problem.n, "k": problem.k, "predicate": problem.predicate,
            "t": problem.t, "shifted": problem.shifted}


def _read_checkpoint(cp: Path, problem: SearchProblem, universe,
                     preds) -> dict:
    """The state saved at `cp`; ValueError unless it is a well-formed
    checkpoint of this problem whose prefix and incumbent pass the predicate
    and whose prefix includes no set without its shift images (`preds`, no
    set outside shifted mode): such a prefix is no node of the walk."""
    try:
        state = json.loads(cp.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint {cp} is not valid JSON: {exc}") from None
    got = state.get("problem") if isinstance(state, dict) else None
    if got != _problem_key(problem):
        raise ValueError(f"checkpoint {cp} was written for the problem {got}, "
                         f"not for {_problem_key(problem)}")
    path, witness = state.get("path"), state.get("witness")
    best, nodes = state.get("best"), state.get("nodes")

    def ints(xs):
        return isinstance(xs, list) and all(type(x) is int for x in xs)

    ok = (ints(path) and set(path) <= {0, 1} and len(path) <= len(universe)
          and ints(witness) and witness == sorted(set(witness))
          and set(witness) <= set(range(len(universe)))
          and ints([best, nodes]) and nodes >= 0
          and (best == len(witness) or best == -1 and not witness))
    if not ok or not all(
            _reverify(UniformFamily(problem.n, problem.k,
                                    (universe[i] for i in idx)),
                      problem.predicate, problem.t)
            for idx in (witness, [i for i, d in enumerate(path) if d])):
        raise ValueError(f"checkpoint {cp} is malformed")
    included = sum(1 << i for i, d in enumerate(path) if d)
    for i, d in enumerate(path):
        out = preds[i] & ~included if d else 0
        if out:
            image = universe[(out & -out).bit_length() - 1]
            raise ValueError(
                f"checkpoint {cp} includes the set "
                f"{list(elements_of(universe[i]))} but not its shift image "
                f"{list(elements_of(image))}, so its path is not a node of "
                f"the shifted search")
    return state


def max_uniform(problem: SearchProblem, checkpoint_path=None,
                checkpoint_every: int = 100_000,
                resume: bool = False) -> SearchCertificate:
    """Exact maximum-size family in [n]^(k) under the problem's predicate.

    Shifted mode restricts to compression-closed families (same optimum,
    vastly fewer nodes); on budget exhaustion the best-so-far comes back
    with complete=False.  The budget limits the nodes of this run.

    Checkpoints go to checkpoint_path as JSON when requested: the problem,
    the decision prefix, the incumbent and the nodes so far, every
    checkpoint_every nodes and when the budget stops the run.  With resume,
    the search continues from a checkpoint of the same problem (a
    checkpoint of another problem, or a malformed one, raises ValueError);
    node counts then include the nodes before the resume, the other
    counters cover this run.  Resume without a checkpoint path raises
    ValueError: there is nothing to resume from.
    """
    if not 0 <= problem.k <= problem.n:
        raise ValueError(f"need 0 <= k <= n, got k={problem.k}, n={problem.n}")
    if resume and checkpoint_path is None:
        raise ValueError("resume needs a checkpoint path (--checkpoint) "
                         "to resume from")
    n, k = problem.n, problem.k
    universe, preds, mode, param = _walk_setup(
        n, k, problem.predicate, problem.t, problem.shifted)

    cb = None
    resume_path = None
    resume_best, resume_witness = -1, ()
    prior_nodes = 0
    if checkpoint_path is not None:
        cp = Path(checkpoint_path)
        if resume and cp.exists():
            state = _read_checkpoint(cp, problem, universe, preds)
            resume_path = state["path"]
            resume_best = state["best"]
            resume_witness = tuple(state["witness"])
            prior_nodes = state["nodes"]

        def cb(path, best, witness, nodes):
            # write beside the checkpoint, then rename over it, so a crash
            # mid-write leaves the previous checkpoint intact
            tmp = cp.with_name(cp.name + ".tmp")
            try:
                tmp.write_text(json.dumps({
                    "problem": _problem_key(problem), "path": path,
                    "best": best, "witness": witness,
                    "nodes": prior_nodes + nodes}))
                tmp.replace(cp)
            finally:
                tmp.unlink(missing_ok=True)

    best, wit_idx, stats, complete, path = _kernels.search_uniform(
        universe, preds, mode, param, problem.shifted,
        node_budget=problem.budget, resume_path=resume_path,
        resume_best=resume_best, resume_witness=resume_witness,
        checkpoint_cb=cb, checkpoint_every=checkpoint_every if cb else 0)
    if cb is not None and not complete:
        # the node that crossed the budget is counted but not decided; the
        # resumed walk counts it again
        cb(path, best, list(wit_idx), stats["nodes"] - 1)
    stats["nodes"] += prior_nodes

    witness = UniformFamily(n, k, (universe[i] for i in wit_idx))
    ok = _reverify(witness, problem.predicate, problem.t)
    if not ok:
        raise AssertionError("witness failed independent predicate re-verification")
    return SearchCertificate(best, witness, stats["nodes"], stats,
                             complete, problem.shifted, ok)


def iter_uniform_families(n: int, k: int, predicate: str, t: int = 1,
                          shifted: bool = True, budget: int | None = None,
                          min_size: int = 0):
    """Yield every family of [n]^(k) satisfying the predicate, as
    UniformFamily (compression-closed ones only, in shifted mode); with
    `min_size`, only the families of at least that many sets, found by a
    walk that skips each subtree whose chosen sets and later sets neither
    blocked nor dead number fewer (its nodes, which the budget counts, are
    fewer)."""
    universe, preds, mode, param = _walk_setup(n, k, predicate, t, shifted)
    for idx in _kernels.iter_predicate_families(
            universe, preds, mode, param, shifted, node_budget=budget,
            min_size=min_size):
        yield UniformFamily(n, k, (universe[i] for i in idx))
