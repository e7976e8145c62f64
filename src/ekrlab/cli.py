"""Command-line surface.

Every run prints a header echoing the full inputs plus the working precision
and comparison tolerance, then the result, as sorted-key JSON (or CSV for
sweeps with --csv).  The handlers return only the result; `main` builds the
header once and adds it to every JSON payload.  Exit codes: 0 all checks
passed, 1 a verification failed, 2 usage error; the verdict is reached
before any output, so a reader that closes stdout early (`| head`) changes
neither the code nor stderr.
Rationals are written "num/den" and only that form is accepted for p, eps,
tau, delta.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import _kernels, numerics
from .families import KINDS, EdgeGround, SetFamily
from .io import family_to_dict, load_family
from .measures import influence, iso_sweep, mu, mu_polynomial, russo_sweep
from .numerics import fmt_rational, parse_rational
from .search import MONOTONE_COUNTS, SearchProblem, max_uniform
from .shadows import (increasing_shadow, kk_min_shadow, cascade_decomposition,
                      katona_check, lower_shadow, upper_shadow)
from .verify import (THEOREMS, TheoremCase, check_theorem, conjecture_scan,
                     theorem_id, tightness_report)
from .zoo import FAMILIES, FamilySpec, construct


def _load_args_family(args, uniform=False, label=None):
    """The family of --family or --spec, of the kind the command reads: a
    k-uniform family when `uniform`, else one on the whole cube.  A spec of
    the other kind is a usage error that names the command as `label`
    (default: the subcommand)."""
    if args.spec and args.family:
        raise ValueError("give --family or --spec, not both")
    if args.spec:
        spec = FamilySpec.from_dict(json.loads(args.spec))
        builds = FAMILIES[spec.name].uniform
        if builds != uniform:
            raise ValueError(f"{label or args.subcommand} needs "
                             f"{KINDS[uniform]}; this spec builds "
                             f"{KINDS[builds]}")
        return construct(spec)
    if args.family:
        return load_family(args.family, uniform=uniform)
    raise ValueError("provide --family FILE/JSON or --spec ZOO-JSON")


def _header(args) -> dict:
    """The header of every JSON payload: the command, its full inputs, the
    working precision, the comparison tolerance and the kernel backend."""
    inputs = {k: v for k, v in sorted(vars(args).items())
              if k != "handler" and v is not None}
    return {
        "command": args.subcommand,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "precision_dps": numerics.default_dps(),
        "tau": fmt_rational(numerics.default_tol()),
        "kernel_backend": _kernels.BACKEND,
    }


#: the CSV header of `iso-sweep --csv`, one column per field of a sweep row
ISO_COLUMNS = ("family_id", "p_num", "p_den", "mu", "total_influence",
               "iso_slack", "log_p_mu")


#: a family id's place in a sweep row while the row is rendered, and the
#: rows' place in a JSON payload while it is dumped; no field holds it
_HOLE = "\0"


def _write_table(table, head: str, row, sep: str, tail: str) -> None:
    """Write head, the rows of an `iso_sweep` table (profile_of, fields)
    with `sep` between rows, then tail.  `row` renders each profile's rows
    once, with _HOLE where the family id goes, and they are split there:
    a family is one join of its profile's parts on its id, and 64 families
    make one write."""
    profile_of, fields = table
    parts = [sep.join(map(row, rows)).split(_HOLE) for rows in fields]
    write = sys.stdout.write
    write(head)
    for start in range(0, len(profile_of), 64):
        write((sep if start else "") + sep.join(
            [str(fid).join(parts[k])
             for fid, k in enumerate(profile_of[start:start + 64], start)]))
    write(tail)


def _json_row(values) -> str:
    """One sweep row as an object at the depth of the payload's rows."""
    text = json.dumps(dict(zip(ISO_COLUMNS, (_HOLE,) + values)),
                      sort_keys=True, indent=2)
    return "    " + text.replace("\n", "\n    ").replace(
        json.dumps(_HOLE), _HOLE)


def _emit(payload: dict) -> None:
    """Print the payload as sorted-key JSON.  A sweep table under "rows" is
    written in its place; "rows" sorts after "header", so its place is the
    last hole in the dumped text."""
    table = payload.get("rows")
    if not isinstance(table, tuple):
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    text = json.dumps({**payload, "rows": _HOLE}, sort_keys=True, indent=2)
    head, _, tail = text.rpartition(json.dumps(_HOLE))
    _write_table(table, head + "[\n", _json_row, ",\n",
                 "\n  ]" + tail + "\n")


def _print_csv(table) -> None:
    """Write a sweep table as CSV.  No field holds a comma, quote or
    newline, so none is quoted."""
    _write_table(table, ",".join(ISO_COLUMNS) + "\n",
                 lambda values: ",".join(map(str, (_HOLE,) + values)),
                 "\n", "\n")


# -- subcommand handlers -----------------------------------------------------------


def _cmd_measure(args):
    fam = _load_args_family(args)
    p = parse_rational(args.p)
    out = {"mu": fmt_rational(mu(fam, p))}
    if args.polynomial:
        out["polynomial"] = [fmt_rational(c) for c in mu_polynomial(fam)]
    return 0, out


def _cmd_influence(args):
    fam = _load_args_family(args)
    p = parse_rational(args.p)
    vec = influence(fam, p)
    return 0, {"influences": [fmt_rational(x) for x in vec.at(p)],
               "total": fmt_rational(vec.total_at(p)),
               "total_polynomial": [fmt_rational(c) for c in vec.total]}


def _cmd_shadow(args):
    shadow = {"lower": lower_shadow, "upper": upper_shadow,
              "increasing": increasing_shadow}[args.variant]
    fam = _load_args_family(args, args.variant != "increasing",
                            f"shadow --variant {args.variant}")
    out_fam = shadow(fam, args.s)
    return 0, {"family": family_to_dict(out_fam)}


def _cmd_construct(args):
    spec = FamilySpec.from_dict(json.loads(args.spec))
    perm = None
    if args.perm is not None:
        perm = []
        for entry in args.perm.split(","):
            try:
                perm.append(int(entry))
            except ValueError:
                raise ValueError(f"--perm entry {entry!r} is not an "
                                 "integer") from None
    fam = construct(spec, perm=perm)
    return 0, {"family": family_to_dict(fam)}


def _cmd_iso_sweep(args):
    if not args.all_monotone:
        raise ValueError("iso-sweep currently drives --all-monotone grounds")
    profile_of, fields, failed = iso_sweep(
        args.n, [parse_rational(x) for x in args.p])
    if args.csv:
        return (1 if failed else 0), (profile_of, fields)
    return (1 if failed else 0), {
        "rows": (profile_of, fields), "violations": failed,
        "count": MONOTONE_COUNTS[args.n]}


def _cmd_russo_sweep(args):
    checked, failing = russo_sweep(args.n, args.random, args.seed, args.max_n)
    return (1 if failing else 0), {
        "checked": checked, "violations": len(failing),
        "failing": [{"family_id": fid, "n": n} for fid, n in failing]}


def _cmd_verify(args):
    theorem = theorem_id(args.theorem)
    fam = _load_args_family(args, THEOREMS[theorem][1],
                            f"verify --theorem {theorem}")
    if theorem == "TriangleBiased" and getattr(fam, "edges", None) is None:
        if args.v is None:
            raise ValueError("TriangleBiased needs --v (vertex count) when the "
                             "family comes from a file")
        fam = SetFamily(fam.n, fam.bits, EdgeGround(args.v))
    params = {}
    for flag, kw in _THEOREM_OPTIONS:
        val = getattr(args, kw.get("dest", flag[2:]))
        if val is not None:
            params[flag[2:]] = val if "type" in kw else parse_rational(val)
    rep = check_theorem(TheoremCase(theorem, params), fam)
    return (0 if rep.conclusion_holds is not False else 1), {
        "report": rep.to_dict()}


def _cmd_tightness(args):
    spec = FamilySpec.from_dict(json.loads(args.spec))
    rep = tightness_report(spec, parse_rational(args.p))
    return (0 if rep.conclusion_holds else 1), {"report": rep.to_dict()}


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
    return (0 if cert.complete else 1), {"certificate": cert.to_dict()}


def _cmd_conjecture_scan(args):
    ranges = json.loads(args.ranges)
    rep = conjecture_scan(args.conjecture, ranges, budget=args.budget)
    ok = rep.complete and not rep.candidates
    return (0 if ok else 1), {"report": rep.to_dict()}


def _cmd_katona(args):
    uniform = args.p is None
    fam = _load_args_family(args, uniform, "katona without --p" if uniform
                            else "katona --p")
    rep = katona_check(fam, args.t,
                       parse_rational(args.p) if args.p else None)
    return (0 if rep.conclusion_holds else 1), {"report": rep.to_dict()}


def _cmd_kk(args):
    val = kk_min_shadow(args.m, args.k, args.s)
    return 0, {"min_shadow": val, "cascade": [
        [a, i] for a, i in cascade_decomposition(args.m, args.k)]}


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

#: the theorem parameters of `verify`, in the order they are read: a value
#: is a rational unless its option has a type
_THEOREM_OPTIONS = (
    *((flag, {}) for flag in ("--p", "--p0", "--eps", "--delta0", "--delta")),
    ("--C", {"dest": "big_c"}), ("--c", {"dest": "small_c"}),
    *((flag, _INT) for flag in ("--t", "--s", "--d", "--i", "--v")))

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
        ("--max-n", {"type": int, "default": 12,
                     "help": "largest random ground, 1 to 30; one family "
                             "on a ground near 30 costs seconds and about "
                             "a GB"}))),
    "verify": (_cmd_verify, "check a stability theorem on a family", (
        ("--theorem", _REQUIRED), *_FAMILY_OPTIONS, *_THEOREM_OPTIONS)),
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


def _global_flags(args):
    """--precision and --tau, checked, as the (dps, tol) of the command's
    `numerics.settings` (None where not given); --threads is checked too.
    A bad value is a usage error that names its flag."""
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    try:
        tol = None if args.tau is None else parse_rational(args.tau)
    except ValueError as exc:
        raise ValueError(f"--tau: {exc}") from None
    if tol is not None and tol < 0:
        raise ValueError(f"--tau must be at least 0, got {args.tau}")
    return (None if args.precision is None else
            numerics.check_dps(args.precision, "--precision")), tol


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv) or build_parser().parse_args(argv)
    try:
        dps, tol = _global_flags(args)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    # the flags hold for this command only: main leaves the settings it
    # found, however it ends
    with numerics.settings(dps, tol):
        try:
            code, payload = args.handler(args)
            if isinstance(payload, dict):  # a CSV table has no header
                payload["header"] = _header(args)
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
                _print_csv(payload)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early (`| head`); the code above is the
            # verdict, and stdout goes to the null device so the flush at
            # exit is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
