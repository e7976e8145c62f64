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

import io as _io
import json
import os
import sys
from types import SimpleNamespace

from . import _kernels, numerics
from .families import EdgeGround, SetFamily, UniformFamily
from .io import family_to_dict, load_family
from .measures import influence, iso_sweep, mu, mu_polynomial, russo_sweep
from .numerics import fmt_rational, parse_rational
from .search import MONOTONE_COUNTS, SearchProblem, max_uniform
from .shadows import (increasing_shadow, kk_min_shadow, cascade_decomposition,
                      katona_check, lower_shadow, upper_shadow)
from .verify import (TheoremCase, THEOREM_IDS, check_theorem, conjecture_scan,
                     tightness_report)
from .zoo import FamilySpec, construct


def _load_args_family(args, uniform=False):
    if args.spec and args.family:
        raise ValueError("give --family or --spec, not both")
    if args.spec:
        return construct(FamilySpec.from_dict(json.loads(args.spec)))
    if args.family:
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


# -- subcommand handlers -----------------------------------------------------------


#: the CSV header of `iso-sweep --csv`, one column per field of a sweep row
ISO_COLUMNS = ("family_id", "p_num", "p_den", "mu", "total_influence",
               "iso_slack", "log_p_mu")


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
        if not isinstance(fam, UniformFamily):
            raise ValueError(f"shadow --variant {args.variant} needs a "
                             "k-uniform family; this spec builds a family "
                             "on the whole cube (use --variant increasing)")
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
    rows, failed = iso_sweep(args.n, [parse_rational(x) for x in args.p])
    if args.csv:
        return (1 if failed else 0), (ISO_COLUMNS, rows)
    out = {"header": _header(args, "iso-sweep"),
           "rows": [dict(zip(ISO_COLUMNS, r)) for r in rows],
           "violations": failed,
           "count": MONOTONE_COUNTS[args.n]}
    return (1 if failed else 0), out


def _cmd_russo_sweep(args):
    rows = russo_sweep(args.n, args.random, args.seed, args.max_n)
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
    rep = conjecture_scan(args.conjecture, ranges, budget=args.budget)
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
    import csv  # only the CSV sweeps need it

    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# -- the command table -------------------------------------------------------------
#
# One table drives both parsers.  An option is (flag, the keyword arguments
# of argparse's `add_argument`); `_parse` reads a well-formed argv from it
# directly, and `build_parser` hands it to argparse, which prints `--help`
# and usage errors.

_INT = {"type": int}
_REQUIRED = {"required": True}
_SWITCH = {"action": "store_true"}
_FAMILY_OPTIONS = (("--family", {}), ("--spec", {}))

GLOBAL_OPTIONS = (
    ("--tau", {"help": 'comparison tolerance, "num/den"'}),
    ("--precision", {"type": int,
                     "help": "working precision in decimal digits "
                             "(default 30; env EKRLAB_PRECISION)"}),
    ("--threads", {"type": int, "default": 1,
                   "help": "accepted; every command runs in one process"}),
)

#: subcommand -> (handler, help, options), in the order `--help` lists them
COMMANDS = {
    "measure": (_cmd_measure, "exact mu_p of a family", (
        *_FAMILY_OPTIONS, ("--p", _REQUIRED), ("--polynomial", _SWITCH))),
    "influence": (_cmd_influence, "exact influences at p", (
        *_FAMILY_OPTIONS, ("--p", _REQUIRED))),
    "shadow": (_cmd_shadow, "lower/upper/increasing shadows", (
        *_FAMILY_OPTIONS, ("--s", {"type": int, "default": 1}),
        ("--variant", {"choices": ("lower", "upper", "increasing"),
                       "default": "lower"}))),
    "construct": (_cmd_construct, "build a zoo family", (
        ("--spec", _REQUIRED), ("--perm", {}), ("--out", {}))),
    "iso-sweep": (_cmd_iso_sweep,
                  "isoperimetric slack over all monotone families", (
        ("--n", {"type": int, "required": True}),
        ("--all-monotone", _SWITCH),
        ("--p", {"action": "append", "required": True,
                 "help": "repeatable; one row per family per p"}),
        ("--csv", _SWITCH))),
    "russo-sweep": (_cmd_russo_sweep,
                    "exact derivative-vs-influence identity sweeps", (
        ("--n", _INT), ("--random", {"type": int, "default": 0}),
        ("--seed", {"type": int, "default": 0}),
        ("--max-n", {"type": int, "default": 12}))),
    "verify": (_cmd_verify, "check a stability theorem on a family", (
        ("--theorem", _REQUIRED), *_FAMILY_OPTIONS,
        *((flag, {}) for flag in ("--p", "--p0", "--eps", "--delta0",
                                   "--delta")),
        ("--C", {"dest": "big_c"}), ("--c", {"dest": "small_c"}),
        *((flag, _INT) for flag in ("--t", "--s", "--d", "--i", "--v")))),
    "tightness": (_cmd_tightness, "equality chain for a tightness family", (
        ("--spec", _REQUIRED), ("--p", _REQUIRED))),
    "search": (_cmd_search, "exact extremal search on [n]^(k)", (
        ("--predicate", {"choices": ("intersecting", "t-intersecting",
                                     "matching"), "required": True}),
        ("--t", _INT), ("--s", _INT),
        ("--n", {"type": int, "required": True}),
        ("--k", {"type": int, "required": True}),
        ("--plain", {"action": "store_true",
                     "help": "disable the compression-closed restriction"}),
        ("--budget", _INT), ("--checkpoint", {}), ("--resume", _SWITCH))),
    "conjecture-scan": (_cmd_conjecture_scan,
                        "scan a desk-scale range for conjecture "
                        "counterexamples", (
        ("--conjecture", _REQUIRED),
        ("--ranges", {"required": True, "help": "JSON dict of ranges"}),
        ("--budget", _INT))),
    "katona": (_cmd_katona, "shadow/intersection inequality checks", (
        *_FAMILY_OPTIONS, ("--t", {"type": int, "required": True}),
        ("--p", {"help": "rational p switches to the biased variant"}))),
    "kk": (_cmd_kk, "Kruskal-Katona minimum shadow size", (
        ("--m", {"type": int, "required": True}),
        ("--k", {"type": int, "required": True}),
        ("--s", {"type": int, "default": 1}))),
}


def _read_options(argv: list, i: int, options, values: dict) -> int | None:
    """Put every default of `options` into `values`, then read their
    `--flag value` and `--flag=value` pairs from argv[i:] up to the first
    word that is not a flag, and return that word's index.  None for what
    argparse would reject or treat some other way: an unknown flag, `-h`,
    `--`, a missing value or one that starts with "-", a repeated flag that
    does not append, a bad int or choice, a missing required flag."""
    table = {}
    for flag, kw in options:
        dest = kw.get("dest") or flag[2:].replace("-", "_")
        table[flag] = dest, kw
        values[dest] = kw.get("default",
                              False if kw.get("action") == "store_true"
                              else None)
    seen = set()
    while i < len(argv) and argv[i].startswith("-"):
        flag, eq, value = argv[i].partition("=")
        if flag not in table:
            return None
        dest, kw = table[flag]
        action = kw.get("action")
        if flag in seen and action != "append":
            return None
        seen.add(flag)
        i += 1
        if action == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            if i == len(argv):
                return None
            value = argv[i]
            i += 1
        if value.startswith("-"):
            return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        if action == "append":
            values[dest] = (values[dest] or []) + [value]
        else:
            values[dest] = value
    if any(kw.get("required") and flag not in seen for flag, kw in options):
        return None
    return i


def _parse(argv) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` makes of a
    well-formed argv, read straight from the command table without loading
    argparse; None for any argv that holds something else (see
    `_read_options`, plus an unknown subcommand or a stray word), which
    `main` then hands to argparse to print help or the usage error."""
    values: dict = {}
    i = _read_options(argv, 0, GLOBAL_OPTIONS, values)
    if i is None or i == len(argv) or argv[i] not in COMMANDS:
        return None
    handler, _, options = COMMANDS[argv[i]]
    values["subcommand"] = argv[i]
    if _read_options(argv, i + 1, options, values) != len(argv):
        return None
    values["handler"] = handler
    return SimpleNamespace(**values)


def build_parser():
    """The `argparse.ArgumentParser` of the command table.  `main` builds it
    only for an argv that `_parse` declines, so argparse (with the gettext
    and locale modules it loads) stays off a well-formed command's path."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="ekrlab", allow_abbrev=False,
        description="Exact biased-measure extremal set theory workbench")
    for flag, kw in GLOBAL_OPTIONS:
        ap.add_argument(flag, **kw)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (handler, text, options) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False, help=text)
        p.set_defaults(handler=handler)
        for flag, kw in options:
            p.add_argument(flag, **kw)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv) or build_parser().parse_args(argv)
    try:
        _set_global_flags(args)
        code, payload = args.handler(args)
        if getattr(args, "out", None) and "family" in payload:
            from pathlib import Path

            Path(args.out).write_text(
                json.dumps(payload["family"], sort_keys=True) + "\n")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        # a file that cannot be read or written is a usage error too
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
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
