"""Output gate: decides whether one CLI run produced the right output.

A run fails when it exits 2, prints a traceback, exits with another code
than its reference, or prints a result whose digest differs from the
reference for the same input variant.  The digest covers the result part of
stdout only: the JSON without its `header` (which echoes `--threads` and
the kernel backend), or the CSV as printed.  On top of the reference, each
command has a cheap oracle on the parsed output that does not trust any
recorded value: known optima, row counts, zero violations, empty scans.

`check` also returns the counters the CLI prints (search statistics,
families examined), read from stdout so the CLI and the benchmark cannot
disagree about them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction

#: slack below which an iso-sweep row counts as a violation (the CLI's tau)
ISO_TOL = 1e-12


def digest(stdout: str) -> str:
    """sha256 of the result part of a CLI stdout."""
    text = stdout
    if stdout.lstrip().startswith("{"):
        payload = json.loads(stdout)
        payload.pop("header", None)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _search(cmd, out, rc):
    cert = out["certificate"]
    stats = cert["stats"]
    problems = []
    if cert["optimum"] != cmd.expect["optimum"]:
        problems.append(f"optimum {cert['optimum']} != {cmd.expect['optimum']}")
    if not (cert["complete"] and cert["reverified"]):
        problems.append("search incomplete or witness not reverified")
    if len(cert["witness"]) != cert["optimum"]:
        problems.append("witness size differs from the optimum")
    if cert["nodes"] != stats["nodes"]:
        problems.append("nodes differs from stats.nodes")
    counters = {"search.nodes": stats["nodes"],
                "search.bound_prunes": stats["bound_prunes"],
                "search.predicate_rejections": stats["predicate_rejections"],
                "search.forced_exclusions": stats["forced_exclusions"]}
    return problems, counters


def _scan(cmd, out, rc):
    rep = out["report"]
    problems = []
    if not rep["complete"] or rep["candidates"]:
        problems.append("scan incomplete or reported candidates")
    if rep["families_examined"] < 1:
        problems.append("scan examined no family")
    return problems, {"verify.families_examined": rep["families_examined"]}


def _russo(cmd, out, rc):
    if out["violations"] or out["checked"] != cmd.expect["checked"]:
        return [f"russo: {out['violations']} violations in "
                f"{out['checked']} checked"], {}
    return [], {}


def _verify(cmd, out, rc):
    rep = out["report"]
    if rep["check"] != cmd.expect["check"]:
        return [f"verify reported {rep['check']!r}"], {}
    if (rc == 1) != (rep["conclusion_holds"] is False):
        return ["exit code disagrees with the verdict"], {}
    return [], {}


def _holds(cmd, out, rc):
    if out["report"]["conclusion_holds"] is not True:
        return ["conclusion does not hold"], {}
    return [], {}


def _measure(cmd, out, rc):
    if Fraction(out["mu"]) != cmd.expect["mu"]:
        return [f"mu {out['mu']} != {cmd.expect['mu']}"], {}
    return [], {}


def _influence(cmd, out, rc):
    if Fraction(out["total"]) != cmd.expect["total"]:
        return [f"total influence {out['total']} != {cmd.expect['total']}"], {}
    return [], {}


def _ok(cmd, out, rc):
    return [], {}


def _iso_csv(cmd, stdout, rc):
    rows = list(csv.reader(io.StringIO(stdout)))
    problems = []
    if rows[0] != ["family_id", "p_num", "p_den", "mu", "total_influence",
                   "iso_slack", "log_p_mu"]:
        problems.append("unexpected CSV header")
    body = rows[1:]
    if len(body) != cmd.expect["rows"]:
        problems.append(f"{len(body)} rows, expected {cmd.expect['rows']}")
    if len({r[0] for r in body}) != cmd.expect["families"]:
        problems.append("wrong number of distinct families")
    if any(r[5] != "vacuous" and float(r[5]) < -ISO_TOL for r in body):
        problems.append("negative isoperimetric slack")
    return problems, {}


ORACLES = {"search": _search, "scan": _scan, "russo": _russo,
           "verify": _verify, "holds": _holds, "measure": _measure,
           "influence": _influence, "ok": _ok}


def check(cmd, rc, stdout: str, stderr: str, reference: dict | None):
    """(problems, counters, digest) for one run of `cmd`.

    `reference` is the recorded {"rc", "digest"} for this command and input
    variant, or None when recording.
    """
    if rc == 2 or "Traceback (most recent call last)" in stderr:
        return [f"exit code {rc}: {stderr.strip()[-300:]}"], {}, None
    try:
        dig = digest(stdout)
        if cmd.oracle == "iso_csv":
            problems, counters = _iso_csv(cmd, stdout, rc)
        else:
            problems, counters = ORACLES[cmd.oracle](cmd, json.loads(stdout), rc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"], {}, None
    if reference is not None:
        if rc != reference["rc"]:
            problems.append(f"exit code {rc}, reference {reference['rc']}")
        if dig != reference["digest"]:
            problems.append("output digest differs from the reference")
    elif rc != 0 and cmd.oracle != "verify":
        problems.append(f"exit code {rc}")
    return problems, counters, dig
