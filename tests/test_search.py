import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from ekrlab import (SearchProblem, _kernels, is_t_intersecting,
                    iter_uniform_families, matching_number, max_uniform,
                    monotone_count_oracle)
from ekrlab.search import MONOTONE_COUNTS, lex_universe, shift_predecessor_masks

from conftest import monotone_families

F = Fraction


def test_monotone_counts_match_oracle():
    for n in range(6):
        fams = _kernels.monotone_masks(n)
        assert len(fams) == monotone_count_oracle(n) == MONOTONE_COUNTS[n]
        assert list(fams) == sorted(set(fams))
    for fam in monotone_families(4):
        assert fam.is_increasing()


def test_monotone_rejects_large_n():
    with pytest.raises(ValueError):
        _kernels.monotone_masks(7)


def test_ekr_instances():
    for n, k in ((5, 2), (6, 2), (7, 2), (4, 1), (9, 1)):
        cert = max_uniform(SearchProblem(n=n, k=k, predicate="intersecting"))
        assert cert.optimum == math.comb(n - 1, k - 1)
        assert cert.complete and cert.reverified
    cert = max_uniform(SearchProblem(n=7, k=3, predicate="intersecting",
                                     shifted=True))
    assert cert.optimum == math.comb(6, 2) == 15


def test_wilson_instances():
    for n, expect in ((6, 4), (7, 5)):
        cert = max_uniform(SearchProblem(n=n, k=3, predicate="t-intersecting",
                                         t=2, shifted=True))
        assert cert.optimum == expect == math.comb(n - 2, 1)
        assert is_t_intersecting(cert.witness, 2)


def test_frankl_matching_instance():
    cert = max_uniform(SearchProblem(n=9, k=2, predicate="matching_at_most",
                                     t=2, shifted=True))
    assert cert.optimum == 15 == math.comb(9, 2) - math.comb(7, 2)
    assert matching_number(cert.witness) <= 2


def test_plain_and_shifted_agree():
    instances = [
        (4, 2, "intersecting", 1), (5, 2, "intersecting", 1),
        (6, 2, "intersecting", 1), (5, 3, "t-intersecting", 2),
        (6, 3, "t-intersecting", 2), (5, 2, "matching_at_most", 2),
    ]
    for n, k, pred, t in instances:
        if math.comb(n, k) > 20:
            continue
        plain = max_uniform(SearchProblem(n=n, k=k, predicate=pred, t=t))
        shifted = max_uniform(SearchProblem(n=n, k=k, predicate=pred, t=t,
                                            shifted=True))
        assert plain.optimum == shifted.optimum, (n, k, pred)
        assert plain.complete and shifted.complete


def test_determinism_and_canonical_witness():
    prob = SearchProblem(n=6, k=2, predicate="intersecting")
    a = max_uniform(prob)
    b = max_uniform(prob)
    assert a.witness == b.witness and a.nodes == b.nodes
    # lexicographically least optimum: the star at element 1
    assert all(m & 1 for m in a.witness.members)


def test_budget_exhaustion():
    cert = max_uniform(SearchProblem(n=6, k=2, predicate="intersecting",
                                     budget=5))
    assert not cert.complete
    assert cert.optimum <= math.comb(5, 1)


def test_checkpoint_resume(tmp_path):
    cp = tmp_path / "ckpt.json"
    prob_budget = SearchProblem(n=6, k=2, predicate="intersecting", budget=40)
    partial = max_uniform(prob_budget, checkpoint_path=cp, checkpoint_every=1)
    assert not partial.complete
    assert cp.exists()
    state = json.loads(cp.read_text())
    assert state["path"]
    prob_full = SearchProblem(n=6, k=2, predicate="intersecting")
    resumed = max_uniform(prob_full, checkpoint_path=cp, resume=True)
    assert resumed.complete
    direct = max_uniform(prob_full)
    assert resumed.optimum == direct.optimum == 5
    assert resumed.witness == direct.witness


def test_resume_without_a_checkpoint_path_is_refused():
    # a resume with no file to resume from once ran from scratch
    prob = SearchProblem(n=5, k=2, predicate="intersecting")
    with pytest.raises(ValueError, match="--checkpoint"):
        max_uniform(prob, resume=True)


def test_checkpoint_write_failure_keeps_previous(tmp_path, monkeypatch):
    cp = tmp_path / "ckpt.json"
    max_uniform(SearchProblem(n=6, k=2, predicate="intersecting", budget=40),
                checkpoint_path=cp, checkpoint_every=10)
    before = cp.read_text()
    real_write = Path.write_text

    def torn_write(self, data, *args, **kwargs):
        real_write(self, data[:len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write)
    prob_full = SearchProblem(n=6, k=2, predicate="intersecting")
    with pytest.raises(OSError):
        max_uniform(prob_full, checkpoint_path=cp, checkpoint_every=1)
    monkeypatch.undo()
    assert cp.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    resumed = max_uniform(prob_full, checkpoint_path=cp, resume=True)
    assert resumed.complete and resumed.optimum == 5


def test_budget_stop_checkpoint_and_accumulated_nodes(tmp_path):
    cp = tmp_path / "ckpt.json"
    plain = SearchProblem(n=6, k=3, predicate="intersecting")
    direct = max_uniform(plain)
    budget = direct.nodes // 3
    partial = max_uniform(SearchProblem(n=6, k=3, predicate="intersecting",
                                        budget=budget), checkpoint_path=cp)
    assert not partial.complete and partial.nodes == budget + 1
    state = json.loads(cp.read_text())
    # written at the budget stop, not at the last multiple of 100,000
    assert state["nodes"] == budget
    assert state["problem"] == {"n": 6, "k": 3, "predicate": "intersecting",
                                "t": 1, "shifted": False}
    resumed = max_uniform(plain, checkpoint_path=cp, resume=True)
    assert resumed.complete and resumed.witness == direct.witness
    assert resumed.nodes == resumed.stats["nodes"] == direct.nodes


def test_resume_rejects_other_problem_and_malformed_checkpoints(tmp_path):
    cp = tmp_path / "ckpt.json"
    max_uniform(SearchProblem(n=7, k=3, predicate="intersecting", budget=500),
                checkpoint_path=cp)
    good = json.loads(cp.read_text())
    for other in (SearchProblem(n=5, k=2, predicate="intersecting"),
                  SearchProblem(n=7, k=3, predicate="intersecting",
                                shifted=True),
                  SearchProblem(n=7, k=3, predicate="t-intersecting", t=2)):
        with pytest.raises(ValueError, match="written for the problem"):
            max_uniform(other, checkpoint_path=cp, resume=True)
    problem = SearchProblem(n=7, k=3, predicate="intersecting")
    bad = [dict(good, path=[2]), dict(good, path="01"),
           dict(good, witness=[40]), dict(good, witness=[1, 0]),
           dict(good, best=len(good["witness"]) + 1),
           dict(good, nodes=-1), dict(good, nodes=True),
           # members {1,2,3} and {4,5,6} are disjoint
           dict(good, witness=[0, 31], best=2)]
    for state in bad:
        cp.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="malformed"):
            max_uniform(problem, checkpoint_path=cp, resume=True)
    for text in ("[1, 2", "[1, 2]", "{}"):
        cp.write_text(text)
        with pytest.raises(ValueError, match="checkpoint"):
            max_uniform(problem, checkpoint_path=cp, resume=True)


@pytest.mark.parametrize("predicate", ["t-intersecting", "matching_at_most"])
def test_search_problem_rejects_t_below_one(predicate):
    for t in (0, -1):
        with pytest.raises(ValueError):
            SearchProblem(n=5, k=2, predicate=predicate, t=t)


def test_iter_uniform_families_counts():
    fams = list(iter_uniform_families(5, 3, "t-intersecting", 2, shifted=True))
    assert len(fams) == 6  # compression-closed 2-intersecting families
    for fam in fams:
        assert len(fam) == 0 or is_t_intersecting(fam, 2)
    sizes = sorted(len(f) for f in fams)
    assert sizes[-1] == 4


@pytest.mark.parametrize("shifted", [False, True])
def test_iter_uniform_families_rejects_k_below_t(shifted):
    # a k-set meets itself in k < t elements: no set may be chosen, and the
    # walk, which tests a set against earlier sets only, would choose each
    with pytest.raises(ValueError, match="k >= t"):
        next(iter_uniform_families(4, 1, "t-intersecting", t=2, shifted=shifted))
    with pytest.raises(ValueError, match="k >= t"):
        next(iter_uniform_families(4, 0, "intersecting", shifted=shifted))
    with pytest.raises(ValueError, match="k >= t"):
        max_uniform(SearchProblem(n=4, k=1, predicate="t-intersecting", t=2))


def test_shift_predecessors_are_lex_earlier():
    universe = lex_universe(6, 3)
    preds = shift_predecessor_masks(6, 3, universe)
    for idx, pm in enumerate(preds):
        b = pm
        while b:
            low = b & -b
            assert low.bit_length() - 1 < idx
            b ^= low


def test_monotone_count_n6():
    # the practical ceiling; count frozen against the classical value
    masks = _kernels.monotone_masks(6)
    assert len(masks) == MONOTONE_COUNTS[6] == 7828354
    assert all(a < b for a, b in itertools.pairwise(masks))


def test_max_uniform_rejects_bad_k():
    with pytest.raises(ValueError):
        max_uniform(SearchProblem(n=3, k=4, predicate="intersecting"))


def test_larger_exact_instances():
    # a second ring of exact optima, including a >64-set universe that
    # exercises the pure search path
    cases = [
        (8, 3, "intersecting", 1, math.comb(7, 2)),
        (8, 3, "t-intersecting", 2, math.comb(6, 1)),
        (11, 2, "matching_at_most", 2, math.comb(11, 2) - math.comb(9, 2)),
        (13, 2, "matching_at_most", 3, math.comb(13, 2) - math.comb(10, 2)),
    ]
    for n, k, pred, t, expect in cases:
        cert = max_uniform(SearchProblem(n=n, k=k, predicate=pred, t=t,
                                         shifted=True))
        assert cert.complete and cert.optimum == expect, (n, k, pred)
