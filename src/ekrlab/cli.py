"""Command-line surface.

Every run prints a header echoing the full inputs plus the working precision
and comparison tolerance, then the result, as sorted-key JSON (or CSV for
sweeps with --csv).  Exit codes: 0 all checks passed, 1 a verification
failed, 2 usage error; the verdict is reached before any output, so a reader
that closes stdout early (`| head`) changes neither the code nor stderr.
Rationals are written "num/den" and only that form is accepted for p, eps,
tau, delta.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import os
import random
import sys
from fractions import Fraction

from . import _kernels, numerics
from .families import EdgeGround, SetFamily
from .io import family_to_dict, load_family
from .measures import (check_p_open, influence, iso_table, mu, mu_polynomial,
                       russo_identity)
from .numerics import fmt_rational, fmt_real, mpmath, parse_rational
from .search import (SearchProblem, enumerate_monotone_masks, max_uniform,
                     monotone_count_oracle)
from .shadows import (increasing_shadow, kk_min_shadow, cascade_decomposition,
                      katona_check, lower_shadow, upper_shadow)
from .verify import (TheoremCase, THEOREM_IDS, check_theorem, conjecture_scan,
                     tightness_report)
from .zoo import FamilySpec, construct


def _load_args_family(args, uniform=False):
    if getattr(args, "spec", None):
        return construct(FamilySpec.from_dict(json.loads(args.spec)))
    if getattr(args, "family", None):
        return load_family(args.family, uniform=uniform)
    raise ValueError("provide --family FILE/JSON or --spec ZOO-JSON")


def _header(args, command: str) -> dict:
    inputs = {k: v for k, v in sorted(vars(args).items())
              if k not in ("handler", "func") and v is not None}
    return {
        "command": command,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "precision_dps": numerics.default_dps(),
        "tau": fmt_rational(numerics.default_tol()),
        "kernel_backend": _kernels.BACKEND,
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


# -- sweep drivers ---------------------------------------------------------------


def _iso_rows_for(task) -> list[tuple]:
    n, first_fid, masks, ps, dps = task
    rows = []
    for fid, values in enumerate(iso_table(n, masks, ps, dps), first_fid):
        for p, (m, ip, slack, log_mu) in zip(ps, values):
            row = (fid, p.numerator, p.denominator, fmt_rational(m),
                   fmt_rational(ip))
            rows.append(row + (("vacuous", "") if slack is None else
                               (fmt_real(slack), fmt_real(log_mu))))
    return rows


ISO_COLUMNS = ("family_id", "p_num", "p_den", "mu", "total_influence",
               "iso_slack", "log_p_mu")


def iso_sweep(n: int, ps: list[Fraction], threads: int = 1) -> list[tuple]:
    """Slack rows for every increasing family on [n], canonical order.

    Each task carries the working precision, because a pool worker that was
    not forked does not inherit the session's.  A bias outside 0 < p < 1 is
    a ValueError, raised before any worker starts."""
    for p in ps:
        check_p_open(p)
    masks = [int(bits) for bits in enumerate_monotone_masks(n)]
    step = 64 if threads > 1 else len(masks)
    dps = numerics.default_dps()
    tasks = [(n, i, masks[i:i + step], ps, dps)
             for i in range(0, len(masks), step)]
    if threads > 1:
        import multiprocessing

        numerics.load_real_layer()  # once here, not once per worker
        with multiprocessing.Pool(threads) as pool:
            chunks = pool.map(_iso_rows_for, tasks)
    else:
        chunks = map(_iso_rows_for, tasks)
    rows = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows


def russo_sweep(n: int | None, random_count: int, seed: int, max_n: int,
                threads: int = 1) -> list[tuple]:
    """Exact polynomial Russo checks over all monotone families on [n]
    and/or random monotone families on grounds up to max_n."""
    fids, fams = [], []
    if n is not None:
        for fid, bits in enumerate(enumerate_monotone_masks(n)):
            fids.append(fid)
            fams.append(SetFamily(n, int(bits)))
    if random_count:
        rng = random.Random(seed)
        for i in range(random_count):
            rn = rng.randint(1, max_n)
            bits = 0
            for _ in range(rng.randint(0, 2 * rn)):
                bits |= 1 << rng.randrange(1 << rn)
            fids.append(-(i + 1))
            fams.append(SetFamily(rn, bits).up_closure())
    if threads > 1:
        import multiprocessing

        with multiprocessing.Pool(threads) as pool:
            holds = pool.map(russo_identity, fams, chunksize=16)
    else:
        holds = map(russo_identity, fams)
    return [(fid, fam.n, h) for fid, fam, h in zip(fids, fams, holds)]


# -- subcommand handlers -----------------------------------------------------------


def _cmd_measure(args):
    fam = _load_args_family(args)
    p = parse_rational(args.p)
    out = {"header": _header(args, "measure"), "mu": fmt_rational(mu(fam, p))}
    if args.polynomial:
        out["polynomial"] = [fmt_rational(c) for c in mu_polynomial(fam).coeffs]
    return 0, out


def _cmd_influence(args):
    fam = _load_args_family(args)
    p = parse_rational(args.p)
    vec = influence(fam, p)
    out = {
        "header": _header(args, "influence"),
        "influences": [fmt_rational(x) for x in vec.at(p)],
        "total": fmt_rational(vec.total_at(p)),
        "total_polynomial": [fmt_rational(c) for c in vec.total.coeffs],
    }
    return 0, out


def _cmd_shadow(args):
    if args.variant == "increasing":
        fam = _load_args_family(args)
        out_fam = increasing_shadow(fam, args.s)
    else:
        fam = _load_args_family(args, uniform=True)
        out_fam = (lower_shadow(fam, args.s) if args.variant == "lower"
                   else upper_shadow(fam, args.s))
    return 0, {"header": _header(args, "shadow"),
               "family": family_to_dict(out_fam)}


def _cmd_construct(args):
    spec = FamilySpec.from_dict(json.loads(args.spec))
    perm = [int(x) for x in args.perm.split(",")] if args.perm else None
    fam = construct(spec, perm=perm)
    return 0, {"header": _header(args, "construct"),
               "family": family_to_dict(fam)}


def _cmd_iso_sweep(args):
    if not args.all_monotone:
        raise ValueError("iso-sweep currently drives --all-monotone grounds")
    ps = [parse_rational(x) for x in args.p]
    rows = iso_sweep(args.n, ps, threads=args.threads)
    tol = numerics.to_mpf(numerics.default_tol())
    failed = [r for r in rows
              if r[5] != "vacuous" and mpmath.mpf(r[5]) < -tol]
    if args.csv:
        return (1 if failed else 0), (ISO_COLUMNS, rows)
    out = {"header": _header(args, "iso-sweep"),
           "rows": [dict(zip(ISO_COLUMNS, r)) for r in rows],
           "violations": len(failed),
           "count": monotone_count_oracle(args.n) if args.n <= 6 else None}
    return (1 if failed else 0), out


def _cmd_russo_sweep(args):
    rows = russo_sweep(args.n, args.random, args.seed, args.max_n,
                       threads=args.threads)
    bad = [r for r in rows if not r[2]]
    out = {"header": _header(args, "russo-sweep"),
           "checked": len(rows), "violations": len(bad),
           "failing": [{"family_id": r[0], "n": r[1]} for r in bad]}
    return (1 if bad else 0), out


def _cmd_verify(args):
    theorem = _canonical_theorem(args.theorem)
    uniform = theorem in ("WilsonUniform", "TriangleUniform", "MatchingUniform")
    fam = _load_args_family(args, uniform=uniform)
    if theorem == "TriangleBiased" and getattr(fam, "edges", None) is None:
        if args.v is None:
            raise ValueError("TriangleBiased needs --v (vertex count) when the "
                             "family comes from a file")
        fam = SetFamily(fam.n, fam.bits, EdgeGround(args.v))
    params = {}
    for key in ("p", "p0", "eps", "delta0", "delta", "C", "c"):
        val = getattr(args, key if key not in ("C", "c") else
                      {"C": "big_c", "c": "small_c"}[key], None)
        if val is not None:
            params[key] = parse_rational(val)
    for key in ("t", "s", "d", "i", "v"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    rep = check_theorem(TheoremCase(theorem, params), fam)
    out = {"header": _header(args, "verify"), "report": rep.to_dict()}
    return (0 if rep.conclusion_holds is not False else 1), out


def _canonical_theorem(name: str) -> str:
    lookup = {t.lower(): t for t in THEOREM_IDS}
    key = name.lower().replace("-", "").replace("_", "")
    for low, canon in lookup.items():
        if low.replace("_", "") == key:
            return canon
    raise ValueError(f"unknown theorem {name!r}; known: {THEOREM_IDS}")


def _cmd_tightness(args):
    spec = FamilySpec.from_dict(json.loads(args.spec))
    rep = tightness_report(spec, parse_rational(args.p))
    out = {"header": _header(args, "tightness"), "report": rep.to_dict()}
    return (0 if rep.conclusion_holds else 1), out


def _cmd_search(args):
    predicate, t, flag = {
        "intersecting": ("intersecting", 1, None),
        "t-intersecting": ("t-intersecting", args.t, "--t"),
        "matching": ("matching_at_most", args.s, "--s")}[args.predicate]
    if t is None:
        raise ValueError(f"{args.predicate} search needs {flag}")
    problem = SearchProblem(n=args.n, k=args.k, predicate=predicate,
                            t=t, budget=args.budget,
                            shifted=not args.plain)
    cert = max_uniform(problem, checkpoint_path=args.checkpoint,
                       resume=args.resume)
    out = {"header": _header(args, "search"), "certificate": cert.to_dict()}
    return (0 if cert.complete else 1), out


def _cmd_conjecture_scan(args):
    ranges = json.loads(args.ranges)
    rep = conjecture_scan(args.conjecture, ranges, budget=args.budget,
                          threads=args.threads)
    out = {"header": _header(args, "conjecture-scan"), "report": rep.to_dict()}
    ok = rep.complete and not rep.candidates
    return (0 if ok else 1), out


def _cmd_katona(args):
    uniform = args.p is None
    fam = _load_args_family(args, uniform=uniform)
    rep = katona_check(fam, args.t,
                       parse_rational(args.p) if args.p else None)
    out = {"header": _header(args, "katona"), "report": rep.to_dict()}
    return (0 if rep.conclusion_holds else 1), out


def _cmd_kk(args):
    val = kk_min_shadow(args.m, args.k, args.s)
    out = {"header": _header(args, "kk"), "min_shadow": val,
           "cascade": [[a, i] for a, i in cascade_decomposition(args.m, args.k)]}
    return 0, out


def _print_csv(columns, rows):
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ekrlab", allow_abbrev=False,
        description="Exact biased-measure extremal set theory workbench")
    ap.add_argument("--tau", help='comparison tolerance, "num/den"')
    ap.add_argument("--precision", type=int,
                    help="working precision in decimal digits "
                         "(default 30; env EKRLAB_PRECISION)")
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker processes for sweep drivers")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, allow_abbrev=False, **kw)
        p.set_defaults(handler=handler)
        return p

    p = add("measure", _cmd_measure, help="exact mu_p of a family")
    p.add_argument("--family")
    p.add_argument("--spec")
    p.add_argument("--p", required=True)
    p.add_argument("--polynomial", action="store_true")

    p = add("influence", _cmd_influence, help="exact influences at p")
    p.add_argument("--family")
    p.add_argument("--spec")
    p.add_argument("--p", required=True)

    p = add("shadow", _cmd_shadow, help="lower/upper/increasing shadows")
    p.add_argument("--family")
    p.add_argument("--spec")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--variant", choices=("lower", "upper", "increasing"),
                   default="lower")

    p = add("construct", _cmd_construct, help="build a zoo family")
    p.add_argument("--spec", required=True)
    p.add_argument("--perm")
    p.add_argument("--out")

    p = add("iso-sweep", _cmd_iso_sweep,
            help="isoperimetric slack over all monotone families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all-monotone", action="store_true")
    p.add_argument("--p", action="append", required=True,
                   help="repeatable; one row per family per p")
    p.add_argument("--csv", action="store_true")

    p = add("russo-sweep", _cmd_russo_sweep,
            help="exact derivative-vs-influence identity sweeps")
    p.add_argument("--n", type=int)
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=12)

    p = add("verify", _cmd_verify, help="check a stability theorem on a family")
    p.add_argument("--theorem", required=True)
    p.add_argument("--family")
    p.add_argument("--spec")
    p.add_argument("--p")
    p.add_argument("--p0")
    p.add_argument("--eps")
    p.add_argument("--delta0")
    p.add_argument("--delta")
    p.add_argument("--C", dest="big_c")
    p.add_argument("--c", dest="small_c")
    p.add_argument("--t", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--v", type=int)

    p = add("tightness", _cmd_tightness, help="equality chain for a tightness family")
    p.add_argument("--spec", required=True)
    p.add_argument("--p", required=True)

    p = add("search", _cmd_search, help="exact extremal search on [n]^(k)")
    p.add_argument("--predicate",
                   choices=("intersecting", "t-intersecting", "matching"),
                   required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--plain", action="store_true",
                   help="disable the compression-closed restriction")
    p.add_argument("--budget", type=int)
    p.add_argument("--checkpoint")
    p.add_argument("--resume", action="store_true")

    p = add("conjecture-scan", _cmd_conjecture_scan,
            help="scan a desk-scale range for conjecture counterexamples")
    p.add_argument("--conjecture", required=True)
    p.add_argument("--ranges", required=True, help="JSON dict of ranges")
    p.add_argument("--budget", type=int)

    p = add("katona", _cmd_katona, help="shadow/intersection inequality checks")
    p.add_argument("--family")
    p.add_argument("--spec")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--p", help="rational p switches to the biased variant")

    p = add("kk", _cmd_kk, help="Kruskal-Katona minimum shadow size")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=1)

    return ap


def _set_global_flags(args) -> None:
    """Check and install --precision, --threads and --tau; a bad value is a
    usage error that names its flag."""
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    try:
        tol = None if args.tau is None else parse_rational(args.tau)
    except ValueError as exc:
        raise ValueError(f"--tau: {exc}") from None
    if tol is not None and tol < 0:
        raise ValueError(f"--tau must be at least 0, got {args.tau}")
    numerics.set_defaults(tol=tol, dps=None if args.precision is None else
                          numerics.check_dps(args.precision, "--precision"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _set_global_flags(args)
        code, payload = args.handler(args)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    if getattr(args, "out", None) and "family" in payload:
        from pathlib import Path

        Path(args.out).write_text(
            json.dumps(payload["family"], sort_keys=True) + "\n")
    try:
        if isinstance(payload, dict):
            _emit(payload)
        else:
            _print_csv(*payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`); the code above is the verdict,
        # and stdout goes to the null device so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
