"""Workload definitions: the CLI commands each workload runs, built from a seed.

A workload is a list of `Command`s.  Each command is one `python -m
ekrlab.cli` invocation with an explicit `--threads`, plus the name of the
oracle that checks its output (see `gate.py`) and the values that oracle
needs.  The seed picks one of `VARIANTS` input sets per workload, so every
input set has a recorded reference output in `reference.json`; `search` has
fixed instances and ignores the seed.

Every command but EMCStability in `scan`, which carries that workload's
enumeration, is sized to take well under a second on one core, so a run
repeats each one several times.

`build(name, seed, workdir, small)` writes any input files into `workdir`
and returns the commands with the reference label of their inputs.  With
`small=True` it returns the same command shapes at their smallest inputs;
the harness runs those as the untimed warm-up pass and in `--self-check`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

#: seeded input sets per workload; seed s selects variant s % VARIANTS
VARIANTS = 16

#: prime denominators for seeded biases: every drawn p = a/b is in lowest
#: terms with a 7-bit denominator, so exact-arithmetic cost does not depend
#: on the seed
DENOMINATORS = (97, 101, 103, 107, 109, 113, 127)

#: number of increasing families on [4] (Dedekind number), the iso-sweep oracle
MONOTONE_4 = 168

#: seeded biases per iso-sweep
ISO_BIASES = 12

WHY = {
    "sweep": "iso-sweep over all 168 monotone families on [4] at twelve "
             "seeded biases plus two russo-sweeps: bulk exact Fraction "
             "algebra and the real layer",
    "search": "five fixed branch-and-bound searches (plain and shifted EKR, "
              "matching, 2-intersecting): most of the time past start-up is "
              "the search kernel",
    "scan": "four conjecture scans: predicate-family generator, the process "
            "pool (TIntersectingSharp at --threads 2 and, for comparison, "
            "at --threads 1) and the real layer",
    "verify": "four theorem checks on dense families with n=13-14 (one read "
              "from a JSON file) plus fourteen short commands dominated by "
              "start-up",
}


@dataclass
class Command:
    """One CLI run: `ekrlab --threads T <args>`, checked by `oracle`."""

    args: list[str]
    oracle: str
    expect: dict = field(default_factory=dict)
    threads: int = 1

    def argv(self) -> list[str]:
        return ["--threads", str(self.threads)] + self.args

    def key(self) -> str:
        """Reference key: the arguments without `--threads`, which changes
        no output byte outside the header."""
        return " ".join(self.args)


def bias(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A seeded rational strictly inside (lo, hi) with a prime denominator."""
    b = rng.choice(DENOMINATORS)
    a = rng.randint(math.floor(lo * b) + 1, math.ceil(hi * b) - 1)
    return Fraction(a, b)


def _biases(rng, count, lo, hi) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        p = bias(rng, lo, hi)
        if p not in out:
            out.append(p)
    return out


def _r(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _spec(name: str, **params) -> str:
    return json.dumps({"name": name, "params": params}, sort_keys=True)


# -- sweep -------------------------------------------------------------------


def sweep(rng: random.Random, workdir: Path, small: bool) -> list[Command]:
    if small:
        return [
            Command(["iso-sweep", "--n", "3", "--all-monotone", "--csv",
                     "--p", "1/4", "--p", "2/3"], "iso_csv",
                    {"rows": 2 * 20, "families": 20}),
            Command(["russo-sweep", "--n", "3"], "russo", {"checked": 20}),
            Command(["russo-sweep", "--random", "20", "--seed", "1",
                     "--max-n", "6"], "russo", {"checked": 20}),
        ]
    ps = _biases(rng, ISO_BIASES, Fraction(1, 8), Fraction(7, 8))
    iso = ["iso-sweep", "--n", "4", "--all-monotone", "--csv"]
    for p in ps:
        iso += ["--p", _r(p)]
    return [
        Command(iso, "iso_csv", {"rows": ISO_BIASES * MONOTONE_4,
                                 "families": MONOTONE_4}),
        Command(["russo-sweep", "--n", "4"], "russo",
                {"checked": MONOTONE_4}),
        # a fixed sample: the cost of 600 random families up to n=12 moves
        # by a fifth from one sample to another
        Command(["russo-sweep", "--random", "600", "--seed", "1",
                 "--max-n", "12"], "russo", {"checked": 600}),
    ]


# -- search ------------------------------------------------------------------


def ekr_optimum(n: int, k: int) -> int:
    """Erdos-Ko-Rado: largest intersecting family in [n]^(k), n >= 2k."""
    return math.comb(n - 1, k - 1)


def matching_optimum(n: int, k: int, s: int) -> int:
    """Largest family in [n]^(k) with no s+1 pairwise disjoint members
    (Erdos-Gallai for k = 2, Frankl for k = 3), n >= (s+1)k."""
    return max(math.comb(n, k) - math.comb(n - s, k),
               math.comb(k * (s + 1) - 1, k))


def wilson_optimum(n: int, k: int, t: int) -> int:
    """Wilson: largest t-intersecting family in [n]^(k), n >= (t+1)(k-t+1)."""
    return math.comb(n - t, k - t)


def _search(predicate: str, n: int, k: int, *, t=None, s=None,
            plain=False) -> Command:
    args = ["search", "--predicate", predicate, "--n", str(n), "--k", str(k)]
    if predicate == "intersecting":
        optimum = ekr_optimum(n, k)
    elif predicate == "matching":
        args += ["--s", str(s)]
        optimum = matching_optimum(n, k, s)
    else:
        args += ["--t", str(t)]
        optimum = wilson_optimum(n, k, t)
    if plain:
        args.append("--plain")
    return Command(args, "search", {"optimum": optimum})


def search(rng: random.Random, workdir: Path, small: bool) -> list[Command]:
    if small:
        return [
            _search("intersecting", 5, 2, plain=True),
            _search("matching", 5, 2, s=1, plain=True),
            _search("intersecting", 6, 3),
            _search("matching", 6, 2, s=2),
            _search("t-intersecting", 6, 3, t=2),
        ]
    return [
        _search("intersecting", 6, 3, plain=True),
        _search("matching", 7, 2, s=2, plain=True),
        _search("intersecting", 9, 4),
        _search("matching", 9, 3, s=2),
        _search("t-intersecting", 10, 4, t=2),
    ]


# -- scan --------------------------------------------------------------------
#
# WilsonSharp runs on [9]^(3) with t = 1.  At the Ahlswede-Khachatrian
# boundary n = (t+1)(k-t+1), e.g. [9]^(4) with t = 2, the scan exits 1 with
# 7 candidates: families that tie the umvirate there.  Whether the scanner's
# range should include that boundary is a question for the scanner, not the
# reason this workload avoids it; [9]^(3) is simply the desk-scale instance.


def _scan(conjecture: str, ranges: dict, threads: int = 1) -> Command:
    return Command(["conjecture-scan", "--conjecture", conjecture,
                    "--ranges", json.dumps(ranges, sort_keys=True)],
                   "scan", threads=threads)


def scan(rng: random.Random, workdir: Path, small: bool) -> list[Command]:
    if small:
        return [
            _scan("TIntersectingSharp", {"t": 1, "n": 3, "ps": ["1/4"]},
                  threads=2),
            _scan("TIntersectingSharp", {"t": 1, "n": 3, "ps": ["1/3"]}),
            _scan("WilsonSharp", {"n": 6, "k": 3, "t": 1, "d_max": 2}),
            _scan("EMCStability", {"n": 7, "k": 2, "s": 2, "d": 1}),
        ]
    ps = [_r(p) for p in _biases(rng, 3, Fraction(0), Fraction(1, 2))]
    return [
        _scan("TIntersectingSharp", {"t": 1, "n": 5, "ps": ps[:2]},
              threads=2),
        _scan("TIntersectingSharp", {"t": 1, "n": 5, "ps": ps[2:]}),
        _scan("WilsonSharp", {"n": 9, "k": 3, "t": 1, "d_max": 3}),
        _scan("EMCStability", {"n": 10, "k": 3, "s": 2, "d": 1}),
    ]


# -- verify ------------------------------------------------------------------


def random_up_closed(rng: random.Random, n: int, lo: int, hi: int) -> list:
    """Members (sorted 1-indexed element lists) of a seeded random increasing
    family on [n] with between lo and hi members: the up-closure of random
    generators, each small enough that the family cannot pass hi."""
    zero = []
    for i in range(n):
        block = (1 << (1 << i)) - 1
        zero.append(sum(block << s for s in range(0, 1 << n, 1 << (i + 1))))
    bits = 0
    while bits.bit_count() < lo:
        g = 3
        while 1 << (n - g) > hi - bits.bit_count():
            g += 1
        x = sum(1 << e for e in rng.sample(range(n), g))
        if not (bits >> x) & 1:
            bits |= 1 << x
            for i in range(n):
                bits |= (bits & zero[i]) << (1 << i)
    return [[e + 1 for e in range(n) if (x >> e) & 1]
            for x in range(1 << n) if (bits >> x) & 1]


def _verify(theorem: str, source: list[str], **params) -> Command:
    args = ["verify", "--theorem", theorem] + source
    for key, val in params.items():
        args += [f"--{key}", _r(val) if isinstance(val, Fraction) else str(val)]
    return Command(args, "verify", {"check": theorem})


def verify(rng: random.Random, workdir: Path, small: bool) -> list[Command]:
    n_big, n_dense = (6, 6) if small else (13, 14)
    p0 = bias(rng, Fraction(1, 3), Fraction(2, 3))
    p = bias(rng, Fraction(1, 10), Fraction(3, 10))
    eps = bias(rng, Fraction(1, 50), Fraction(1, 5))
    members = random_up_closed(rng, n_dense, *((10, 40) if small
                                              else (3800, 3900)))
    fam_file = workdir / "verify-family.json"
    fam_file.write_text(json.dumps({"n": n_dense, "sets": members}))
    heavy = [
        _verify("MainBiased", ["--spec", _spec("t_umvirate", n=n_big, t=2)],
                p0=p0, p=p, t=2, eps=eps),
        _verify("DualBiased", ["--spec", _spec("or_family", n=n_big, s=2)],
                p0=p0, p=p, s=2, eps=eps),
        _verify("TIntersectingBiased",
                ["--spec", _spec("tilde_F_ts", n=n_dense, t=1, s=2)],
                p=p, t=1, eps=eps),
        _verify("MainBiased", ["--family", fam_file.name],
                p0=p0, p=p, t=1, eps=eps),
    ]
    if small:
        return heavy
    q = bias(rng, Fraction(1, 8), Fraction(3, 8))
    q3 = bias(rng, Fraction(1, 8), Fraction(1, 3))
    m1, m2 = rng.randint(20, 200), rng.randint(50, 400)
    perm = list(range(1, 13))
    rng.shuffle(perm)
    small_fam = random_up_closed(rng, 7, 20, 60)
    small_file = workdir / "verify-small.json"
    small_file.write_text(json.dumps({"n": 7, "sets": small_fam}))
    short = [
        Command(["measure", "--spec", _spec("t_umvirate", n=8, t=2),
                 "--p", _r(q), "--polynomial"], "measure", {"mu": q**2}),
        Command(["measure", "--spec", _spec("tilde_Gi", n=7, i=5),
                 "--p", _r(q)], "ok"),
        Command(["influence", "--spec", _spec("dictatorship", n=8, j=3),
                 "--p", _r(q)], "influence", {"total": Fraction(1)}),
        Command(["influence", "--spec", _spec("or_family", n=9, s=2),
                 "--p", _r(q)], "ok"),
        Command(["tightness", "--spec", _spec("tilde_Gi", n=6, i=5),
                 "--p", _r(q)], "holds"),
        # r != s: an irrational defining root, so the equality chain makes
        # check_le double its precision
        Command(["tightness", "--spec", _spec("tilde_H_tsr", n=6, t=1, s=2, r=3),
                 "--p", _r(q3)], "holds"),
        Command(["katona", "--spec", _spec("t_umvirate", n=7, t=2),
                 "--t", "2", "--p", _r(p0)], "holds"),
        Command(["katona", "--spec", _spec("ak_family", n=9, k=4, t=2, r=1),
                 "--t", "2"], "holds"),
        Command(["kk", "--m", str(m1), "--k", "4"], "ok"),
        Command(["kk", "--m", str(m2), "--k", "5", "--s", "2"], "ok"),
        Command(["construct", "--spec", _spec("tilde_F_ts", n=12, t=2, s=2),
                 "--perm", ",".join(map(str, perm))], "ok"),
        Command(["construct", "--spec",
                 _spec("ak_family", n=10, k=4, t=2, r=1)], "ok"),
        Command(["shadow", "--spec", _spec("F_ts", n=9, k=4, t=2, s=2),
                 "--variant", "lower", "--s", "2"], "ok"),
        Command(["shadow", "--family", small_file.name,
                 "--variant", "increasing", "--s", "1"], "ok"),
    ]
    return heavy + short


BUILDERS = {"sweep": sweep, "search": search, "scan": scan, "verify": verify}
SEEDED = {"sweep", "scan", "verify"}


def variant_of(name: str, seed: int, small: bool = False) -> str:
    """Reference label of the inputs: "small", "fixed" or the seed variant."""
    if small:
        return "small"
    return str(seed % VARIANTS) if name in SEEDED else "fixed"


def build(name: str, seed: int, workdir: Path,
          small: bool = False) -> tuple[list[Command], str]:
    """Commands of workload `name` for `seed` with their input files written
    to `workdir`, and the reference label of those inputs."""
    variant = variant_of(name, seed, small)
    rng = random.Random(f"{name}:{variant}")
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](rng, workdir, small), variant
