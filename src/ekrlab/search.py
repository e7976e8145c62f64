"""Exhaustive and compression-pruned searches for extremal families, plus
the monotone-family enumerator that drives sweep verifications.

The branch-and-bound decides sets in lex order (include branch first,
strict-improvement incumbent), so results and witnesses are deterministic.
Shifted mode explores only compression-closed families: a set may enter only
when every image under an (i,j)-shift with i<j is already in.  The
predicates used here (t-intersecting, matching bounded) are preserved by
shifts, so the shifted optimum equals the global one; certificates are
re-verified independently on emission.  The kernels skip runs of sets
whose shift images are not all in through a ready mask and count them as
forced exclusions in bulk (see `ekrlab._kernels`); the counters are those of
the node-at-a-time walk.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from . import _kernels
from .bitops import elements_of, subset_masks
from .families import SetFamily, UniformFamily, is_t_intersecting, matching_number
from .measures import mu, nearest_cube
from .numerics import _Frozen

# -- monotone enumeration ------------------------------------------------------

#: increasing-family counts (Dedekind numbers) for the supported range
MONOTONE_COUNTS = (2, 3, 6, 20, 168, 7581, 7828354)


def enumerate_monotone_masks(n: int):
    """All increasing families on [n] as 2**n-bit masks, ascending order."""
    return _kernels.monotone_masks(n)


def enumerate_monotone(n: int):
    """All increasing families on [n] as SetFamily objects (ascending)."""
    for bits in enumerate_monotone_masks(n):
        yield SetFamily(n, int(bits))


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
    prev = [int(v) for v in enumerate_monotone_masks(n - 1)]
    return sum(1 for f1 in prev for f0 in prev if f0 & ~f1 == 0)


# -- uniform search -------------------------------------------------------------

#: predicate name -> kernel mode; every predicate is hereditary (closed
#: under taking subfamilies), as branch-and-bound needs
PREDICATES = {
    "intersecting": "t",
    "t-intersecting": "t",
    "matching_at_most": "match",
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


class SearchCertificate:
    __slots__ = ("optimum", "witness", "nodes", "stats", "complete",
                 "shifted", "reverified")

    def __init__(self, optimum: object, witness: object, nodes: int,
                 stats: dict | None = None, complete: bool = True,
                 shifted: bool = False, reverified: bool = False):
        self.optimum = optimum
        self.witness = witness           # UniformFamily or SetFamily
        self.nodes = nodes
        self.stats = {} if stats is None else stats
        self.complete = complete
        self.shifted = shifted
        self.reverified = reverified

    def to_dict(self) -> dict:
        wit = self.witness
        members = [list(t) for t in wit.member_sets()] if wit is not None else None
        return {
            "optimum": (str(self.optimum)
                        if isinstance(self.optimum, Fraction) else self.optimum),
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
    index_of = {m: i for i, m in enumerate(universe)}
    preds = []
    for m in universe:
        elems = elements_of(m)
        pm = 0
        for b in elems:
            for a in range(1, b):
                if not (m >> (a - 1)) & 1:
                    img = (m & ~(1 << (b - 1))) | (1 << (a - 1))
                    pm |= 1 << index_of[img]
        preds.append(pm)
    return preds


def _predicate_mode(predicate: str, t: int, k: int) -> tuple[str, int]:
    """The kernel mode and its parameter: 1 for intersecting, t for
    t-intersecting, and s = t for matching (adding a set must not create
    s+1 pairwise disjoint members).  A k-set meets itself in k elements, so
    no k-set belongs to a t-intersecting family when k < t: a ValueError
    (the kernel tests a set against the sets before it, not itself)."""
    param = 1 if predicate == "intersecting" else t
    if predicate != "matching_at_most" and k < param:
        raise ValueError(f"{predicate} needs k >= t (a k-set meets itself in "
                         f"k elements), got k={k}, t={param}")
    return PREDICATES[predicate], param


def _reverify(witness: UniformFamily, predicate: str, t: int) -> bool:
    if predicate == "intersecting":
        return is_t_intersecting(witness, 1) if len(witness) else True
    if predicate == "t-intersecting":
        return is_t_intersecting(witness, t) if len(witness) else True
    if predicate == "matching_at_most":
        return matching_number(witness) <= t
    raise ValueError(predicate)


def _problem_key(problem: SearchProblem) -> dict:
    """What a checkpoint must match to be resumed: the search tree."""
    return {"n": problem.n, "k": problem.k, "predicate": problem.predicate,
            "t": problem.t, "shifted": problem.shifted}


def _read_checkpoint(cp: Path, problem: SearchProblem, universe) -> dict:
    """The state saved at `cp`; ValueError unless it is a well-formed
    checkpoint of this problem whose prefix and incumbent pass the predicate."""
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
    counters cover this run.
    """
    if not 0 <= problem.k <= problem.n:
        raise ValueError(f"need 0 <= k <= n, got k={problem.k}, n={problem.n}")
    n, k = problem.n, problem.k
    universe = lex_universe(n, k)
    preds = (shift_predecessor_masks(n, k, universe)
             if problem.shifted else [0] * len(universe))
    mode, param = _predicate_mode(problem.predicate, problem.t, k)

    cb = None
    resume_path = None
    resume_best, resume_witness = -1, ()
    prior_nodes = 0
    if checkpoint_path is not None:
        cp = Path(checkpoint_path)
        if resume and cp.exists():
            state = _read_checkpoint(cp, problem, universe)
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
    walk that skips the subtrees holding none (its nodes, which the budget
    counts, are fewer)."""
    universe = lex_universe(n, k)
    preds = (shift_predecessor_masks(n, k, universe)
             if shifted else [0] * len(universe))
    mode, param = _predicate_mode(predicate, t, k)
    for idx in _kernels.iter_predicate_families(
            universe, preds, mode, param, shifted, node_budget=budget,
            min_size=min_size):
        yield UniformFamily(n, k, (universe[i] for i in idx))


def extremal_under_measure_cap(n: int, p0, t: int, p,
                               exclude_umvirate_distance=None,
                               budget: int | None = None) -> SearchCertificate:
    """Maximize mu_p over increasing families with mu_{p0} <= p0**t.

    Full monotone enumeration (n <= 5).  When exclude_umvirate_distance is
    given, families whose distance to the nearest t-umvirate (min over B of
    mu_p of the symmetric difference with S_B) is <= the threshold are
    excluded, exposing the second layer of extremal structure.
    """
    if n > 5:
        raise ValueError("full monotone enumeration is capped at n = 5")
    p0, p = Fraction(p0), Fraction(p)
    cap = p0**t

    def umvirate_distance(fam: SetFamily) -> Fraction:
        # min over t-element B of mu_p(F symmetric-difference S_B), which
        # is 2 mu_p(F - S_B) + p**t - mu_p(F): least at the nearest umvirate
        residual = nearest_cube(fam, subset_masks(n, t), p)[2]
        return 2 * residual + p**t - mu(fam, p)

    best: Fraction | None = None
    best_fam: SetFamily | None = None
    examined = 0
    for fam in enumerate_monotone(n):
        examined += 1
        if budget is not None and examined > budget:
            return SearchCertificate(best, best_fam, examined, {}, False)
        if mu(fam, p0) > cap:
            continue
        if exclude_umvirate_distance is not None:
            if umvirate_distance(fam) <= Fraction(exclude_umvirate_distance):
                continue
        val = mu(fam, p)
        if best is None or val > best:
            best, best_fam = val, fam
    cert = SearchCertificate(best, best_fam, examined,
                             {"families_examined": examined}, True)
    if best_fam is not None:
        cert.reverified = (best_fam.is_increasing()
                           and mu(best_fam, p0) <= cap
                           and mu(best_fam, p) == best)
    return cert
